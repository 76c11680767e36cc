//! Complete k-ary trees (for up*/down* routing).

use crate::{Network, NodeId};

/// A complete k-ary tree with bidirectional links between parents and
/// children. Node 0 is the root; node `i`'s children are
/// `k*i + 1 ..= k*i + k`. Used by up*/down* routing (Autonet-style),
/// the classic deadlock-free oblivious algorithm for irregular
/// networks — here on its simplest substrate.
#[derive(Clone, Debug)]
pub struct KaryTree {
    net: Network,
    arity: usize,
    depth: usize,
}

impl KaryTree {
    /// Build a complete `arity`-ary tree of the given `depth` (depth 0
    /// = root only, rejected; depth 1 = root plus `arity` leaves).
    pub fn new(arity: usize, depth: usize) -> Self {
        assert!(arity >= 2, "tree arity must be at least 2");
        assert!(depth >= 1, "tree must have at least one level of children");
        let n = ((arity.pow(depth as u32 + 1)) - 1) / (arity - 1);
        let mut net = Network::new();
        let nodes: Vec<NodeId> = (0..n).map(|i| net.add_node(format!("t{i}"))).collect();
        for i in 0..n {
            for c in 1..=arity {
                let child = arity * i + c;
                if child < n {
                    net.add_bidi(nodes[i], nodes[child]);
                }
            }
        }
        KaryTree { net, arity, depth }
    }

    /// The underlying network.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Consume, returning the network.
    pub fn into_network(self) -> Network {
        self.net
    }

    /// Tree arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Tree depth (root = level 0).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Parent of a node (`None` for the root).
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        let i = node.index();
        (i > 0).then(|| NodeId::from_index((i - 1) / self.arity))
    }

    /// The path of ancestors from a node up to the root (exclusive of
    /// the node, inclusive of the root).
    pub fn ancestors(&self, node: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut cur = node;
        while let Some(p) = self.parent(cur) {
            out.push(p);
            cur = p;
        }
        out
    }

    /// Lowest common ancestor of two nodes.
    ///
    /// Nodes are numbered level by level, so of two distinct nodes the
    /// larger index is at least as deep and cannot be an ancestor of
    /// the other: it climbs until the two meet.
    pub fn lca(&self, mut a: NodeId, mut b: NodeId) -> NodeId {
        while a != b {
            let deeper = if a > b { &mut a } else { &mut b };
            *deeper = self.parent(*deeper).expect("the root is a common ancestor");
        }
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_tree_shape() {
        let t = KaryTree::new(2, 2);
        // 1 + 2 + 4 = 7 nodes, 6 links -> 12 channels.
        assert_eq!(t.network().node_count(), 7);
        assert_eq!(t.network().channel_count(), 12);
        assert!(t.network().is_strongly_connected());
    }

    #[test]
    fn parent_and_ancestors() {
        let t = KaryTree::new(2, 2);
        let n6 = NodeId::from_index(6);
        assert_eq!(t.parent(n6), Some(NodeId::from_index(2)));
        assert_eq!(t.parent(NodeId::from_index(0)), None);
        assert_eq!(
            t.ancestors(n6),
            vec![NodeId::from_index(2), NodeId::from_index(0)]
        );
    }

    #[test]
    fn lca_cases() {
        let t = KaryTree::new(2, 2);
        let (n3, n4, n5, n0) = (
            NodeId::from_index(3),
            NodeId::from_index(4),
            NodeId::from_index(5),
            NodeId::from_index(0),
        );
        assert_eq!(t.lca(n3, n4), NodeId::from_index(1));
        assert_eq!(t.lca(n3, n5), n0);
        assert_eq!(t.lca(n3, n3), n3);
        // Ancestor-descendant pair.
        assert_eq!(t.lca(NodeId::from_index(1), n3), NodeId::from_index(1));
    }

    #[test]
    fn ternary_tree() {
        let t = KaryTree::new(3, 1);
        assert_eq!(t.network().node_count(), 4);
        assert_eq!(t.arity(), 3);
        assert_eq!(t.depth(), 1);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn unary_rejected() {
        KaryTree::new(1, 2);
    }
}
