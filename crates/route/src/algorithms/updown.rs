//! Up*/down* routing on trees (Autonet-style).
//!
//! Every path climbs from the source to the lowest common ancestor
//! ("up" phase) and then descends to the destination ("down" phase).
//! Since no path ever takes an up-channel after a down-channel, the
//! dependency graph is acyclic (number up-channels by decreasing
//! depth, then down-channels by increasing depth) — the classic
//! deadlock-freedom argument for irregular-network routing, here on
//! complete k-ary trees. The algorithm is minimal on a tree (the
//! tree path is the only simple path) and coherent.

use wormnet::topology::KaryTree;

use crate::error::RouteError;
use crate::table::TableRouting;

/// Build the up*/down* table for a complete k-ary tree.
pub fn updown_tree(tree: &KaryTree) -> Result<TableRouting, RouteError> {
    // d's ancestors below the lca, reused across pairs.
    let mut down = Vec::new();
    TableRouting::build(tree.network(), |path, s, d| {
        let lca = tree.lca(s, d);
        // Up phase: s .. lca.
        let mut cur = s;
        path.node(cur);
        while cur != lca {
            cur = tree.parent(cur).expect("lca is an ancestor");
            path.node(cur);
        }
        // Down phase: lca .. d, via d's ancestor chain reversed.
        down.clear();
        let mut cur = d;
        while cur != lca {
            down.push(cur);
            cur = tree.parent(cur).expect("lca is an ancestor");
        }
        for &v in down.iter().rev() {
            path.node(v);
        }
        Some(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties;
    use wormnet::NodeId;

    #[test]
    fn routes_via_lca() {
        let tree = KaryTree::new(2, 2);
        let table = updown_tree(&tree).unwrap();
        // 3 -> 4: siblings under node 1: path 3 -> 1 -> 4.
        let p = table
            .path(NodeId::from_index(3), NodeId::from_index(4))
            .unwrap();
        assert_eq!(
            p.nodes(tree.network()),
            vec![
                NodeId::from_index(3),
                NodeId::from_index(1),
                NodeId::from_index(4)
            ]
        );
        // 3 -> 6: crosses the root.
        let p = table
            .path(NodeId::from_index(3), NodeId::from_index(6))
            .unwrap();
        assert_eq!(p.len(), 4);
        assert!(p.nodes(tree.network()).contains(&NodeId::from_index(0)));
    }

    #[test]
    fn ancestor_descendant_pairs_go_straight() {
        let tree = KaryTree::new(2, 2);
        let table = updown_tree(&tree).unwrap();
        let p = table
            .path(NodeId::from_index(0), NodeId::from_index(5))
            .unwrap();
        assert_eq!(p.len(), 2); // 0 -> 2 -> 5
        let p = table
            .path(NodeId::from_index(6), NodeId::from_index(0))
            .unwrap();
        assert_eq!(p.len(), 2); // 6 -> 2 -> 0
    }

    #[test]
    fn is_total_minimal_coherent_and_functional() {
        let tree = KaryTree::new(3, 2);
        let table = updown_tree(&tree).unwrap();
        let r = properties::analyze(tree.network(), &table);
        assert!(r.total && r.minimal && r.coherent && r.node_function);
        assert!(table.compile(tree.network()).is_ok());
    }
}
