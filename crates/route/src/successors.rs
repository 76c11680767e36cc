//! The node graph's successor lists, flat.

use wormnet::{Network, NodeId};

/// Every node's distinct successors in the node graph (parallel
/// channels and lanes merged), ascending, in one compressed-sparse-row
/// array: what the breadth-first searches over a network read.
pub(crate) struct Successors {
    /// `succ[offsets[v]..offsets[v + 1]]` are node `v`'s successors.
    offsets: Vec<usize>,
    succ: Vec<u32>,
}

impl Successors {
    pub(crate) fn new(net: &Network) -> Self {
        let mut offsets = Vec::with_capacity(net.node_count() + 1);
        let mut succ = Vec::with_capacity(net.channel_count());
        let mut row = Vec::new();
        offsets.push(0);
        for v in net.nodes() {
            row.clear();
            row.extend(
                net.out_channels(v)
                    .iter()
                    .map(|&c| net.channel(c).dst().index() as u32),
            );
            row.sort_unstable();
            row.dedup();
            succ.extend_from_slice(&row);
            offsets.push(succ.len());
        }
        Successors { offsets, succ }
    }

    /// Node `v`'s distinct successors, ascending.
    #[inline]
    pub(crate) fn of(&self, v: NodeId) -> &[u32] {
        &self.succ[self.offsets[v.index()]..self.offsets[v.index() + 1]]
    }
}
