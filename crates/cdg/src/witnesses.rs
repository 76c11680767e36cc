//! Witness messages of chosen CDG edges, gathered on demand.
//!
//! The CDG keeps only its adjacency. The one reader of witnesses —
//! candidate enumeration — needs them for the edges of at most
//! `max_cycles` cycles, so they are gathered for exactly those edges by
//! one scan of the routing table.

use wormnet::{ChannelId, NodeId};
use wormroute::TableRouting;

use crate::graph::{CdgCycle, MsgPair};

/// For each gathered edge `c1 → c2`, the messages whose path uses `c2`
/// right after `c1`, in the table's `(src, dst)` order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Witnesses {
    /// The gathered edges, ascending.
    edges: Vec<(ChannelId, ChannelId)>,
    /// `pairs[starts[i]..starts[i + 1]]` witness `edges[i]`.
    starts: Vec<u32>,
    pairs: Vec<MsgPair>,
}

impl Witnesses {
    /// Gather the witnesses of `edges` by one scan of `table`. Edges no
    /// path induces get an empty list.
    pub fn gather(
        table: &TableRouting,
        edges: impl IntoIterator<Item = (ChannelId, ChannelId)>,
    ) -> Self {
        let mut edges: Vec<(ChannelId, ChannelId)> = edges.into_iter().collect();
        edges.sort_unstable();
        edges.dedup();
        // The gathered edges out of channel `c` are
        // `edges[first[c]..first[c + 1]]`.
        let width = edges.last().map_or(0, |&(c, _)| c.index() + 1);
        let mut first = vec![0u32; width + 1];
        for &(c, _) in &edges {
            first[c.index() + 1] += 1;
        }
        for c in 0..width {
            first[c + 1] += first[c];
        }
        let mut found: Vec<(u32, MsgPair)> = Vec::new();
        for (pair, path) in table.iter() {
            for w in path.channels().windows(2) {
                let c = w[0].index();
                if c >= width || first[c] == first[c + 1] {
                    continue;
                }
                let (lo, hi) = (first[c], first[c + 1]);
                let row = &edges[lo as usize..hi as usize];
                if let Ok(k) = row.binary_search_by_key(&w[1], |&(_, d)| d) {
                    found.push((lo + k as u32, pair));
                }
            }
        }
        // A counting sort by edge keeps each list in table order.
        let mut starts = vec![0u32; edges.len() + 1];
        for &(e, _) in &found {
            starts[e as usize + 1] += 1;
        }
        for e in 0..edges.len() {
            starts[e + 1] += starts[e];
        }
        let mut next = starts.clone();
        let mut pairs = vec![(NodeId::from_index(0), NodeId::from_index(0)); found.len()];
        for (e, pair) in found {
            pairs[next[e as usize] as usize] = pair;
            next[e as usize] += 1;
        }
        Witnesses {
            edges,
            starts,
            pairs,
        }
    }

    /// Gather the witnesses of every edge of `cycles`.
    pub fn of_cycles<'c>(
        table: &TableRouting,
        cycles: impl IntoIterator<Item = &'c CdgCycle>,
    ) -> Self {
        Self::gather(table, cycles.into_iter().flat_map(CdgCycle::edge_pairs))
    }

    /// The witnesses of `c1 → c2`, empty if the edge was not gathered
    /// or no path induces it.
    pub fn get(&self, c1: ChannelId, c2: ChannelId) -> &[MsgPair] {
        match self.edges.binary_search(&(c1, c2)) {
            Ok(i) => &self.pairs[self.starts[i] as usize..self.starts[i + 1] as usize],
            Err(_) => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cdg;
    use wormnet::topology::ring_unidirectional;
    use wormroute::algorithms::clockwise_ring;

    #[test]
    fn witnesses_identify_inducing_messages_in_table_order() {
        let (net, nodes) = ring_unidirectional(4);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let c = |a: usize, b: usize| net.find_channel(nodes[a], nodes[b]).unwrap();
        let w = Witnesses::gather(&table, [(c(0, 1), c(1, 2)), (c(1, 2), c(0, 1))]);
        // 0 -> 2 and 0 -> 3 use c01 then c12, and so does 3 -> 2.
        assert_eq!(
            w.get(c(0, 1), c(1, 2)),
            &[
                (nodes[0], nodes[2]),
                (nodes[0], nodes[3]),
                (nodes[3], nodes[2])
            ]
        );
        assert!(w.get(c(1, 2), c(0, 1)).is_empty());
        assert!(w.get(c(2, 3), c(3, 0)).is_empty(), "not gathered");
    }

    #[test]
    fn every_cycle_edge_has_a_witness() {
        let (net, nodes) = ring_unidirectional(5);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let cycles = Cdg::build(&net, &table).cycles();
        let w = Witnesses::of_cycles(&table, &cycles);
        for (a, b) in cycles[0].edge_pairs() {
            assert!(!w.get(a, b).is_empty());
        }
        let (a, b) = cycles[0].edge_pairs().next().unwrap();
        assert!(Witnesses::of_cycles(&table, []).get(a, b).is_empty());
    }
}
