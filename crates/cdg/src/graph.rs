//! CDG construction, acyclicity, and cycle enumeration.

use wormnet::graph::{self, Digraph};
use wormnet::{ChannelId, Network, NodeId};
use wormroute::TableRouting;

/// A message identity: its (source, destination) pair. Oblivious
/// routing gives every pair a single path, so the pair determines the
/// message's entire behaviour.
pub type MsgPair = (NodeId, NodeId);

/// The channel dependency graph of a routing algorithm on a network.
///
/// Vertices are all channels of the network (dense [`ChannelId`]
/// indices). The edges are compressed sparse rows:
/// `succ[rows[c]..rows[c + 1]]` are the distinct successors of channel
/// `c`, ascending. Which messages induce an edge is not stored;
/// [`Witnesses`](crate::Witnesses) gathers that for chosen edges from
/// one scan of the table.
#[derive(Clone, Debug)]
pub struct Cdg {
    rows: Vec<u32>,
    succ: Vec<ChannelId>,
}

/// Convert a length to a `u32` offset of the CDG's rows.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("CDG offsets fit in u32")
}

impl Cdg {
    /// Build the CDG of `table` on `net`: one pass counts every
    /// consecutive channel pair of every path by its first channel, one
    /// fills them in, and each row is then deduplicated (against a
    /// per-channel stamp) and sorted in place.
    pub fn build(net: &Network, table: &TableRouting) -> Self {
        let channels = net.channel_count();
        let mut rows = vec![0u32; channels + 1];
        for (_, path) in table.iter() {
            let chans = path.channels();
            for c in &chans[..chans.len() - 1] {
                rows[c.index() + 1] += 1;
            }
        }
        for c in 0..channels {
            rows[c + 1] += rows[c];
        }
        let mut fill = rows.clone();
        let mut succ = vec![ChannelId::from_index(0); rows[channels] as usize];
        for (_, path) in table.iter() {
            for w in path.channels().windows(2) {
                let at = &mut fill[w[0].index()];
                succ[*at as usize] = w[1];
                *at += 1;
            }
        }
        // Compact each row's distinct successors to the front, in order.
        let mut kept = vec![u32::MAX; channels];
        let (mut read, mut write) = (0, 0);
        for c in 0..channels {
            let end = rows[c + 1] as usize;
            let first = write;
            for i in read..end {
                let v = succ[i];
                if std::mem::replace(&mut kept[v.index()], c as u32) != c as u32 {
                    succ[write] = v;
                    write += 1;
                }
            }
            succ[first..write].sort_unstable();
            rows[c] = offset(first);
            read = end;
        }
        rows[channels] = offset(write);
        succ.truncate(write);
        succ.shrink_to_fit();
        Cdg { rows, succ }
    }

    /// Number of vertices (channels).
    pub fn channel_count(&self) -> usize {
        self.rows.len() - 1
    }

    /// Number of distinct dependency edges.
    pub fn edge_count(&self) -> usize {
        self.succ.len()
    }

    /// The channels that depend on `c`, ascending.
    fn row(&self, c: ChannelId) -> &[ChannelId] {
        &self.succ[self.rows[c.index()] as usize..self.rows[c.index() + 1] as usize]
    }

    /// Whether the dependency `c1 → c2` exists.
    pub fn has_edge(&self, c1: ChannelId, c2: ChannelId) -> bool {
        self.row(c1).binary_search(&c2).is_ok()
    }

    /// Iterate all edges `(c1, c2)` in ascending order.
    pub fn edges(&self) -> impl Iterator<Item = (ChannelId, ChannelId)> + '_ {
        (0..self.channel_count()).flat_map(move |i| {
            let c = ChannelId::from_index(i);
            self.row(c).iter().map(move |&d| (c, d))
        })
    }

    /// Bytes of graph data: the row offsets and the successor array, as
    /// lengths times element sizes (spare capacity and allocator
    /// rounding are not counted).
    pub fn data_bytes(&self) -> usize {
        self.rows.len() * std::mem::size_of::<u32>()
            + self.succ.len() * std::mem::size_of::<ChannelId>()
    }

    /// Dally–Seitz: the CDG is acyclic, hence the routing algorithm is
    /// deadlock-free.
    pub fn is_acyclic(&self) -> bool {
        graph::is_acyclic(self)
    }

    /// The Dally–Seitz certificate: a numbering of channels such that
    /// every dependency strictly increases, or `None` when cyclic.
    /// `numbering[channel.index()]` is the channel's number.
    pub fn numbering(&self) -> Option<Vec<usize>> {
        let order = graph::topological_order(self)?;
        let mut numbering = vec![0usize; self.channel_count()];
        for (pos, v) in order.into_iter().enumerate() {
            numbering[v] = pos;
        }
        Some(numbering)
    }

    /// All elementary cycles of the CDG.
    pub fn cycles(&self) -> Vec<CdgCycle> {
        self.cycles_bounded(usize::MAX)
            .expect("unbounded enumeration cannot abort")
    }

    /// Elementary cycles, aborting with `None` if more than
    /// `max_cycles` exist.
    pub fn cycles_bounded(&self, max_cycles: usize) -> Option<Vec<CdgCycle>> {
        let (cycles, complete) = self.cycles_streamed(max_cycles);
        complete.then_some(cycles)
    }

    /// Stream elementary cycles, keeping at most `max_cycles` of them.
    ///
    /// Returns the collected prefix and whether it is *complete*
    /// (fewer than or exactly `max_cycles` cycles exist). Unlike
    /// [`Cdg::cycles_bounded`], an over-budget enumeration still hands
    /// back the cycles it found — on the cluster-scale fabrics a
    /// single reachable cycle decides the verdict, so enumeration can
    /// stop long before the (possibly astronomical) full count.
    pub fn cycles_streamed(&self, max_cycles: usize) -> (Vec<CdgCycle>, bool) {
        let (raw, complete) = graph::elementary_cycles_prefix(self, max_cycles);
        let cycles = raw
            .into_iter()
            .map(|vs| CdgCycle {
                channels: vs.into_iter().map(ChannelId::from_index).collect(),
            })
            .collect();
        (cycles, complete)
    }
}

impl Digraph for Cdg {
    fn vertex_count(&self) -> usize {
        self.channel_count()
    }

    fn successors(&self, v: usize) -> Vec<usize> {
        self.row(ChannelId::from_index(v))
            .iter()
            .map(|c| c.index())
            .collect()
    }
}

/// An elementary cycle of the CDG: channels `c_0 → c_1 → ... → c_0`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CdgCycle {
    /// The cycle's channels in dependency order, minimum channel first.
    pub channels: Vec<ChannelId>,
}

impl CdgCycle {
    /// Cycle length (number of channels = number of edges).
    pub fn len(&self) -> usize {
        self.channels.len()
    }

    /// Cycles are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether the cycle contains `channel`.
    pub fn contains(&self, channel: ChannelId) -> bool {
        self.channels.contains(&channel)
    }

    /// The cycle's edges `(c_i, c_{i+1 mod L})`.
    pub fn edge_pairs(&self) -> impl Iterator<Item = (ChannelId, ChannelId)> + '_ {
        let l = self.channels.len();
        (0..l).map(move |i| (self.channels[i], self.channels[(i + 1) % l]))
    }

    /// Render as `c0 -> c1 -> ... -> c0`.
    pub fn describe(&self, net: &Network) -> String {
        let mut parts: Vec<String> = self
            .channels
            .iter()
            .map(|&c| net.channel(c).to_string())
            .collect();
        parts.push(net.channel(self.channels[0]).to_string());
        parts.join(" -> ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormnet::topology::{ring_unidirectional, ring_with_vcs, Hypercube, Mesh, Torus};
    use wormroute::algorithms::{
        clockwise_ring, dateline_ring, dateline_torus, dimension_order, ecube, negative_first,
        west_first, xy_mesh,
    };

    #[test]
    fn clockwise_ring_cdg_is_the_full_ring_cycle() {
        let (net, nodes) = ring_unidirectional(4);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let cdg = Cdg::build(&net, &table);
        assert_eq!(cdg.channel_count(), 4);
        assert_eq!(cdg.edge_count(), 4);
        assert!(!cdg.is_acyclic());
        assert!(cdg.numbering().is_none());
        let cycles = cdg.cycles();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].len(), 4);
    }

    #[test]
    fn dateline_ring_cdg_is_acyclic() {
        let (net, nodes) = ring_with_vcs(5, 2);
        let table = dateline_ring(&net, &nodes).unwrap();
        let cdg = Cdg::build(&net, &table);
        assert!(
            cdg.is_acyclic(),
            "dateline routing must be Dally-Seitz safe"
        );
        // The numbering certificate strictly increases along every path.
        let numbering = cdg.numbering().unwrap();
        assert_eq!(crate::check_numbering(&net, &table, &numbering), Ok(()));
    }

    #[test]
    fn xy_mesh_cdg_is_acyclic() {
        let mesh = Mesh::new(&[4, 4]);
        let table = xy_mesh(&mesh).unwrap();
        let cdg = Cdg::build(mesh.network(), &table);
        assert!(cdg.is_acyclic());
    }

    #[test]
    fn dor_3d_cdg_is_acyclic() {
        let mesh = Mesh::new(&[3, 3, 2]);
        let table = dimension_order(&mesh).unwrap();
        assert!(Cdg::build(mesh.network(), &table).is_acyclic());
    }

    #[test]
    fn ecube_cdg_is_acyclic() {
        let cube = Hypercube::new(4);
        let table = ecube(&cube).unwrap();
        assert!(Cdg::build(cube.network(), &table).is_acyclic());
    }

    #[test]
    fn turn_model_cdgs_are_acyclic() {
        let mesh = Mesh::new(&[4, 3]);
        assert!(Cdg::build(mesh.network(), &west_first(&mesh).unwrap()).is_acyclic());
        assert!(Cdg::build(mesh.network(), &negative_first(&mesh).unwrap()).is_acyclic());
    }

    #[test]
    fn updown_tree_cdg_is_acyclic() {
        let tree = wormnet::topology::KaryTree::new(2, 2);
        let table = wormroute::algorithms::updown_tree(&tree).unwrap();
        assert!(Cdg::build(tree.network(), &table).is_acyclic());
    }

    #[test]
    fn valiant_cdg_is_acyclic() {
        // Phase lanes: both phases are DOR subsets on disjoint lanes
        // with 1 -> 0 cross edges only.
        let mesh = Mesh::with_vcs(&[3, 3], 2);
        let table = wormroute::algorithms::valiant_mesh(&mesh).unwrap();
        assert!(Cdg::build(mesh.network(), &table).is_acyclic());
    }

    #[test]
    fn dateline_torus_cdg_is_acyclic() {
        let t = Torus::new(&[4, 3], 2);
        let table = dateline_torus(&t).unwrap();
        assert!(Cdg::build(t.network(), &table).is_acyclic());
    }

    #[test]
    fn single_lane_torus_dor_is_cyclic() {
        // Minimal-direction dimension-order on a 1-VC torus has wrap
        // cycles — the classic reason dateline lanes exist. Build it
        // directly from node walks.
        let t = Torus::new(&[4], 1);
        let net = t.network();
        let table = TableRouting::build(net, |path, s, d| {
            let k = 4;
            let (si, di) = (s.index(), d.index());
            let fwd = (di + k - si) % k;
            let step: isize = if fwd <= k - fwd { 1 } else { -1 };
            path.node(s);
            let mut i = si as isize;
            while i as usize != di {
                i = (i + step).rem_euclid(k as isize);
                path.node(NodeId::from_index(i as usize));
            }
            Some(())
        })
        .unwrap();
        let cdg = Cdg::build(net, &table);
        assert!(!cdg.is_acyclic());
        assert!(!cdg.cycles().is_empty());
    }

    #[test]
    fn edges_are_the_distinct_consecutive_pairs_in_order() {
        let (net, nodes) = ring_unidirectional(3);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let cdg = Cdg::build(&net, &table);
        let c01 = net.find_channel(nodes[0], nodes[1]).unwrap();
        let c12 = net.find_channel(nodes[1], nodes[2]).unwrap();
        assert!(cdg.has_edge(c01, c12));
        assert!(!cdg.has_edge(c12, c01));
        assert_eq!(cdg.row(c01), &[c12]);
        let mut expected: Vec<_> = table
            .iter()
            .flat_map(|(_, p)| p.channels().windows(2).map(|w| (w[0], w[1])))
            .collect();
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(cdg.edges().collect::<Vec<_>>(), expected);
        assert_eq!(cdg.edge_count(), expected.len());
        assert_eq!(
            cdg.data_bytes(),
            (cdg.channel_count() + 1) * 4 + expected.len() * 4
        );
    }

    #[test]
    fn empty_table_gives_empty_cdg() {
        let (net, _) = ring_unidirectional(3);
        let cdg = Cdg::build(&net, &TableRouting::new());
        assert_eq!(cdg.edge_count(), 0);
        assert!(cdg.is_acyclic());
        assert!(cdg.cycles().is_empty());
    }

    #[test]
    fn cycle_edge_pairs_wrap() {
        let (net, nodes) = ring_unidirectional(3);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let cdg = Cdg::build(&net, &table);
        let cycle = &cdg.cycles()[0];
        let pairs: Vec<_> = cycle.edge_pairs().collect();
        assert_eq!(pairs.len(), 3);
        assert_eq!(pairs[2].1, cycle.channels[0]);
        for (a, b) in pairs {
            assert!(cdg.has_edge(a, b));
        }
    }

    #[test]
    fn cycle_describe_walks_the_channels() {
        let (net, nodes) = ring_unidirectional(3);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let cdg = Cdg::build(&net, &table);
        let cycle_desc = cdg.cycles()[0].describe(&net);
        assert_eq!(cycle_desc.matches(" -> ").count(), 3);
    }

    #[test]
    fn bounded_cycles_abort() {
        // Bidirectional ring with shortest-path routing has many
        // 2-cycles (each opposed channel pair used by... actually
        // dependencies, not raw channels). Use clockwise on a big ring
        // and bound below the true count.
        let (net, nodes) = ring_unidirectional(4);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let cdg = Cdg::build(&net, &table);
        assert!(cdg.cycles_bounded(0).is_none());
        assert_eq!(cdg.cycles_bounded(10).unwrap().len(), 1);
    }
}
