//! Up*/down* routing on k-ary fat-trees.
//!
//! Routes exist between *edge switches only* — hosts hang off edge
//! switches and add nothing to the deadlock analysis, and cores and
//! aggregation switches originate no traffic, so the table is
//! deliberately partial (wormlint reports that as its usual W003
//! summary). Every path climbs from the source edge switch toward the
//! cores and then descends to the destination: because the
//! [`FatTree`] builder lays tiers out core-first, node indices
//! strictly *decrease* on the up phase and strictly *increase* on the
//! down phase. No path ever takes an up-channel after a down-channel,
//! so numbering up-channels before down-channels orders the channel
//! dependency graph acyclically — the certificate wormlint's W209
//! recognises, with no virtual channels spent.
//!
//! The engine is deterministic and a node function: the aggregation
//! switch and core are chosen by simple modular formulas over the
//! endpoint coordinates, which also spreads routes across every
//! physical link of the fabric.

use wormnet::topology::{FatTree, FatTreeTier};

use crate::error::RouteError;
use crate::table::TableRouting;

/// Build the up*/down* table between all ordered pairs of distinct
/// edge switches of a k-ary fat-tree.
///
/// A pair of edge switches `(p, e) -> (p', e')` climbs to aggregation
/// switch `a = (e + e') mod k/2`; inter-pod pairs continue to core
/// `a * k/2 + ((p + p') mod k/2)` and descend into pod `p'` through
/// its aggregation switch `a` (the only one that core reaches). The
/// choices stay a node function — on the up hops `e`, `p` and `a` are
/// readable off the switch the message sits on, and the down hops are
/// forced — while spreading routes across *every* physical link.
pub fn fattree_updown(ft: &FatTree) -> Result<TableRouting, RouteError> {
    let half = ft.half();
    // Every edge switch's (pod, index), computed once per table.
    let edge: Vec<Option<(usize, usize)>> = ft
        .network()
        .nodes()
        .map(|v| (ft.tier(v) == FatTreeTier::Edge).then(|| ft.pod_coords(v)))
        .collect();
    TableRouting::build(ft.network(), |path, s, d| {
        let ((ps, es), (pd, ed)) = (edge[s.index()]?, edge[d.index()]?);
        let a = (es + ed) % half;
        if ps == pd {
            path.walk(&[s, ft.agg(ps, a), d]);
        } else {
            let core = ft.core(a * half + (ps + pd) % half);
            path.walk(&[s, ft.agg(ps, a), core, ft.agg(pd, a), d]);
        }
        Some(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties;
    use std::collections::BTreeSet;

    #[test]
    fn covers_exactly_the_edge_pairs() {
        let ft = FatTree::new(4);
        let table = fattree_updown(&ft).unwrap();
        let edges = ft.k() * ft.half();
        assert_eq!(table.len(), edges * (edges - 1));
        assert!(!table.is_total(ft.network()));
        assert!(table.compile(ft.network()).is_ok());
    }

    #[test]
    fn paths_descend_then_ascend_in_node_index() {
        let ft = FatTree::new(6);
        let table = fattree_updown(&ft).unwrap();
        for ((s, d), p) in table.iter() {
            let idx: Vec<usize> = p.nodes(ft.network()).iter().map(|n| n.index()).collect();
            let turn = idx.windows(2).take_while(|w| w[0] > w[1]).count();
            assert!(
                idx[turn..].windows(2).all(|w| w[0] < w[1]),
                "{s} -> {d}: {idx:?}"
            );
        }
    }

    #[test]
    fn path_shapes_and_lca_tier() {
        let ft = FatTree::new(4);
        let table = fattree_updown(&ft).unwrap();
        // Intra-pod: edge -> agg -> edge.
        let p = table.path(ft.edge(1, 0), ft.edge(1, 1)).unwrap();
        assert_eq!(
            p.nodes(ft.network()),
            vec![ft.edge(1, 0), ft.agg(1, 1), ft.edge(1, 1)]
        );
        // Inter-pod: edge -> agg -> core -> agg -> edge, with agg
        // index a = (0+1)%2 = 1 on both sides and the core picked by
        // a=1, p=0, p'=3: 1*2 + (0+3)%2 = 3.
        let p = table.path(ft.edge(0, 0), ft.edge(3, 1)).unwrap();
        assert_eq!(
            p.nodes(ft.network()),
            vec![
                ft.edge(0, 0),
                ft.agg(0, 1),
                ft.core(3),
                ft.agg(3, 1),
                ft.edge(3, 1)
            ]
        );
    }

    #[test]
    fn every_physical_channel_is_used() {
        let ft = FatTree::new(4);
        let table = fattree_updown(&ft).unwrap();
        let used: BTreeSet<_> = table
            .iter()
            .flat_map(|(_, p)| p.channels().iter().copied())
            .collect();
        assert_eq!(used.len(), ft.network().channel_count());
    }

    #[test]
    fn is_a_minimal_node_function() {
        let ft = FatTree::new(4);
        let table = fattree_updown(&ft).unwrap();
        assert!(properties::is_minimal(ft.network(), &table));
        assert!(properties::is_node_function(ft.network(), &table));
        assert!(properties::never_revisits_nodes(ft.network(), &table));
    }
}
