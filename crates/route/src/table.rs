//! Table-driven oblivious routing: one path per ordered node pair
//! (Definition 3's routing algorithm `R(src, dst)`).

use wormnet::{ChannelId, Network, NodeId};

use crate::compiled::CompiledRouting;
use crate::error::RouteError;
use crate::path::{Path, PathRef};

/// An oblivious routing algorithm represented extensionally: the
/// single path each (source, destination) pair uses.
///
/// The paths sit in one compressed-sparse-row layout, in `(src, dst)`
/// order:
///
/// - `rows[s]..rows[s + 1]` are the indices of the paths from node `s`;
/// - path `i` goes to `dsts[i]` (ascending within a row) over the
///   channels `channels[starts[i]..starts[i + 1]]`.
///
/// A row that routes every other node is indexed directly at
/// `dst − (dst > src)`; a partial row is binary-searched. Iteration
/// (and everything derived from it — dependency graphs, witness lists,
/// reports) is in `(src, dst)` order. The layout costs
/// O(nodes + paths + hops) whatever the table's density.
#[derive(Clone, Debug, Default)]
pub struct TableRouting {
    rows: Vec<u32>,
    dsts: Vec<NodeId>,
    starts: Vec<u32>,
    channels: Vec<ChannelId>,
}

/// Convert a length to a `u32` offset of the table's layout.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("routing table offsets fit in u32")
}

/// Check that `path` runs from `src` to `dst`.
fn check_endpoints(
    net: &Network,
    path: PathRef<'_>,
    src: NodeId,
    dst: NodeId,
) -> Result<(), RouteError> {
    let actual = path.src(net);
    if actual != src {
        return Err(RouteError::WrongSource {
            expected: src,
            actual,
        });
    }
    let actual = path.dst(net);
    if actual != dst {
        return Err(RouteError::WrongDestination {
            expected: dst,
            actual,
        });
    }
    Ok(())
}

impl TableRouting {
    /// An empty table.
    pub fn new() -> Self {
        TableRouting::default()
    }

    /// An empty table over `nodes` nodes, ready to take rows in order.
    fn with_nodes(nodes: usize) -> Self {
        let mut rows = Vec::with_capacity(nodes + 1);
        rows.push(0);
        TableRouting {
            rows,
            dsts: Vec::new(),
            starts: vec![0],
            channels: Vec::new(),
        }
    }

    /// Close the current source's row.
    fn end_row(&mut self) {
        self.rows.push(offset(self.dsts.len()));
    }

    /// Close the path whose channels were just appended, as the path to
    /// `dst`, after checking that it runs from `src` to `dst`.
    fn end_path(&mut self, net: &Network, src: NodeId, dst: NodeId) -> Result<(), RouteError> {
        let start = *self.starts.last().expect("starts holds the first offset") as usize;
        check_endpoints(net, PathRef::new(&self.channels[start..]), src, dst)?;
        self.dsts.push(dst);
        self.starts.push(offset(self.channels.len()));
        Ok(())
    }

    /// Build a table by calling `route` for every ordered node pair.
    /// `route` returns the node walk for the pair (or `None` to leave
    /// the pair unrouted — used by partial algorithms in tests).
    ///
    /// Each walk becomes channels appended to the table's one channel
    /// array and is checked there like [`Path::from_nodes`] checks it,
    /// with a per-channel stamp reused across the table.
    pub fn from_node_paths(
        net: &Network,
        mut route: impl FnMut(NodeId, NodeId) -> Option<Vec<NodeId>>,
    ) -> Result<Self, RouteError> {
        let mut table = TableRouting::with_nodes(net.node_count());
        let mut stamp = ChannelStamp::new(net);
        for src in net.nodes() {
            for dst in net.nodes() {
                if src == dst {
                    continue;
                }
                if let Some(walk) = route(src, dst) {
                    table.append_walk(net, &walk, &mut stamp)?;
                    table.end_path(net, src, dst)?;
                }
            }
            table.end_row();
        }
        Ok(table)
    }

    /// Append the channels of a node walk, picking the VC-0 channel
    /// between consecutive nodes, and check them as a path.
    fn append_walk(
        &mut self,
        net: &Network,
        walk: &[NodeId],
        stamp: &mut ChannelStamp,
    ) -> Result<(), RouteError> {
        if walk.len() < 2 {
            return Err(RouteError::EmptyPath);
        }
        let start = self.channels.len();
        for w in walk.windows(2) {
            let c = net
                .find_channel(w[0], w[1])
                .ok_or(RouteError::MissingChannel {
                    from: w[0],
                    to: w[1],
                })?;
            self.channels.push(c);
        }
        stamp.check(net, &self.channels[start..])
    }

    /// Build a table from a closure producing `Path` results directly
    /// (used by virtual-channel algorithms that pick lanes per hop).
    /// Each path's channels are appended to the table's one channel
    /// array.
    pub fn from_paths_with(
        net: &Network,
        mut route: impl FnMut(&Network, NodeId, NodeId) -> Option<Result<Path, RouteError>>,
    ) -> Result<Self, RouteError> {
        let mut table = TableRouting::with_nodes(net.node_count());
        for src in net.nodes() {
            for dst in net.nodes() {
                if src == dst {
                    continue;
                }
                if let Some(path) = route(net, src, dst) {
                    table.channels.extend_from_slice(path?.channels());
                    table.end_path(net, src, dst)?;
                }
            }
            table.end_row();
        }
        Ok(table)
    }

    /// The table's path `i`.
    #[inline]
    fn path_at(&self, i: usize) -> PathRef<'_> {
        PathRef::new(&self.channels[self.starts[i] as usize..self.starts[i + 1] as usize])
    }

    /// The index of the path for a pair, if routed.
    fn find(&self, src: NodeId, dst: NodeId) -> Option<usize> {
        let s = src.index();
        let lo = *self.rows.get(s)? as usize;
        let hi = *self.rows.get(s + 1)? as usize;
        let nodes = self.rows.len() - 1;
        if hi - lo == nodes - 1 {
            // A complete row holds every other node, in order.
            let d = dst.index();
            return (d < nodes && d != s).then(|| lo + d - usize::from(d > s));
        }
        self.dsts[lo..hi].binary_search(&dst).ok().map(|k| lo + k)
    }

    /// The path for a pair, if routed.
    pub fn path(&self, src: NodeId, dst: NodeId) -> Option<PathRef<'_>> {
        self.find(src, dst).map(|i| self.path_at(i))
    }

    /// Iterate `((src, dst), path)` in `(src, dst)` order.
    pub fn iter(&self) -> Paths<'_> {
        Paths {
            table: self,
            src: 0,
            next: 0,
        }
    }

    /// Number of routed pairs.
    pub fn len(&self) -> usize {
        self.dsts.len()
    }

    /// Whether no pairs are routed.
    pub fn is_empty(&self) -> bool {
        self.dsts.is_empty()
    }

    /// Bytes of path data: the row, destination and offset arrays and
    /// the channel array, as lengths times element sizes (spare
    /// capacity and allocator rounding are not counted).
    pub fn data_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.rows.len() + self.starts.len()) * size_of::<u32>()
            + self.dsts.len() * size_of::<NodeId>()
            + self.channels.len() * size_of::<ChannelId>()
    }

    /// Whether every ordered pair of distinct nodes is routed — the
    /// paper's networks are strongly connected and their algorithms
    /// route all pairs ("a node can generate messages ... destined for
    /// any other node").
    pub fn is_total(&self, net: &Network) -> bool {
        let n = net.node_count();
        self.len() == n * n - n
    }

    /// Compile the table into a routing *function* `R : C × N → C`
    /// (Definition 2). Fails if two paths disagree about the output
    /// channel for the same (input channel, destination) pair.
    pub fn compile(&self, net: &Network) -> Result<CompiledRouting, RouteError> {
        CompiledRouting::from_table(net, self).map_err(RouteError::from)
    }

    /// The degraded table after the `down` channels fail: every pair
    /// whose path traverses a down channel becomes unrouted (oblivious
    /// routing has no alternative path to offer), all other pairs keep
    /// their paths unchanged.
    ///
    /// This is the honest graceful-degradation model used by the fault
    /// layer: re-running the deadlock classifier on the result answers
    /// whether the algorithm's verdict survives the failure. The
    /// degraded table is generally not total — callers can count the
    /// lost pairs by comparing [`TableRouting::len`].
    pub fn without_channels(&self, down: &[ChannelId]) -> TableRouting {
        if down.is_empty() {
            return self.clone();
        }
        let nodes = self.rows.len().saturating_sub(1);
        let mut out = TableRouting::with_nodes(nodes);
        for s in 0..nodes {
            for i in self.rows[s] as usize..self.rows[s + 1] as usize {
                let chans = self.path_at(i).channels();
                if !chans.iter().any(|c| down.contains(c)) {
                    out.channels.extend_from_slice(chans);
                    out.dsts.push(self.dsts[i]);
                    out.starts.push(offset(out.channels.len()));
                }
            }
            out.end_row();
        }
        out
    }
}

impl PartialEq for TableRouting {
    /// Two tables are equal when they route the same pairs over the
    /// same paths.
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for TableRouting {}

/// The paths of a [`TableRouting`] in `(src, dst)` order.
#[derive(Clone, Debug)]
pub struct Paths<'t> {
    table: &'t TableRouting,
    /// The source whose row holds path `next`, or an earlier one.
    src: usize,
    next: usize,
}

impl<'t> Iterator for Paths<'t> {
    type Item = ((NodeId, NodeId), PathRef<'t>);

    fn next(&mut self) -> Option<Self::Item> {
        let t = self.table;
        let i = self.next;
        let &dst = t.dsts.get(i)?;
        while t.rows[self.src + 1] as usize <= i {
            self.src += 1;
        }
        self.next += 1;
        Some(((NodeId::from_index(self.src), dst), t.path_at(i)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.table.len() - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Paths<'_> {}

/// A per-channel stamp, reused across one table build, that checks a
/// channel sequence the way [`Path::from_channels`] does: consecutive
/// channels must share an endpoint, and no channel may repeat (the
/// smallest repeated id is reported).
struct ChannelStamp {
    stamp: Vec<u32>,
    mark: u32,
}

impl ChannelStamp {
    fn new(net: &Network) -> Self {
        ChannelStamp {
            stamp: vec![0; net.channel_count()],
            mark: 0,
        }
    }

    fn check(&mut self, net: &Network, channels: &[ChannelId]) -> Result<(), RouteError> {
        for (i, w) in channels.windows(2).enumerate() {
            if net.channel(w[0]).dst() != net.channel(w[1]).src() {
                return Err(RouteError::Disconnected { at: i });
            }
        }
        if self.mark == u32::MAX {
            self.stamp.fill(0);
            self.mark = 0;
        }
        self.mark += 1;
        let mut repeated: Option<ChannelId> = None;
        for &c in channels {
            let seen = std::mem::replace(&mut self.stamp[c.index()], self.mark) == self.mark;
            if seen && repeated.is_none_or(|r| c < r) {
                repeated = Some(c);
            }
        }
        repeated.map_or(Ok(()), |c| Err(RouteError::RepeatedChannel(c)))
    }
}

/// A pair declared twice while building a table with a
/// [`TableBuilder`]: the insertion index of the second declaration and
/// the pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Duplicate {
    /// Zero-based index, in insertion order, of the first insertion
    /// that repeats an earlier pair.
    pub index: usize,
    /// The pair's source.
    pub src: NodeId,
    /// The pair's destination.
    pub dst: NodeId,
}

impl From<Duplicate> for RouteError {
    fn from(d: Duplicate) -> Self {
        RouteError::DuplicatePair(d.src, d.dst)
    }
}

/// Collects paths for pairs in any order, then sorts them once into a
/// [`TableRouting`] — for explicit tables, the paper's constructions
/// and existence witness tables, whose pairs do not arrive in
/// `(src, dst)` order.
#[derive(Clone, Debug)]
pub struct TableBuilder<'n> {
    net: &'n Network,
    /// `(pair, channel range)` per insertion, in insertion order.
    staged: Vec<((NodeId, NodeId), u32, u32)>,
    channels: Vec<ChannelId>,
}

impl<'n> TableBuilder<'n> {
    /// A builder for a table on `net`.
    pub fn new(net: &'n Network) -> Self {
        TableBuilder {
            net,
            staged: Vec::new(),
            channels: Vec::new(),
        }
    }

    /// Register the path for `(src, dst)`.
    ///
    /// Fails if the pair is trivial or the path's endpoints do not
    /// match. A pair registered twice is reported by
    /// [`TableBuilder::finish`].
    pub fn insert(&mut self, src: NodeId, dst: NodeId, path: Path) -> Result<(), RouteError> {
        if src == dst {
            return Err(RouteError::TrivialPair(src));
        }
        check_endpoints(self.net, path.view(), src, dst)?;
        let start = offset(self.channels.len());
        self.channels.extend_from_slice(path.channels());
        self.staged
            .push(((src, dst), start, offset(self.channels.len())));
        Ok(())
    }

    /// Sort the registered paths into a table, or report the first
    /// insertion that repeats an earlier pair.
    pub fn finish(self) -> Result<TableRouting, Duplicate> {
        let TableBuilder {
            net,
            staged,
            channels,
        } = self;
        let mut order: Vec<usize> = (0..staged.len()).collect();
        // Stable: a repeated pair keeps its insertions in order.
        order.sort_by_key(|&i| staged[i].0);
        let duplicate = order
            .windows(2)
            .filter(|w| staged[w[0]].0 == staged[w[1]].0)
            .map(|w| w[1])
            .min();
        if let Some(index) = duplicate {
            let (src, dst) = staged[index].0;
            return Err(Duplicate { index, src, dst });
        }
        let mut table = TableRouting::with_nodes(net.node_count());
        table.dsts.reserve_exact(order.len());
        table.starts.reserve_exact(order.len());
        table.channels.reserve_exact(channels.len());
        let mut sorted = order.iter().map(|&i| staged[i]).peekable();
        for s in net.nodes() {
            while let Some(((_, dst), lo, hi)) = sorted.next_if(|&((src, _), _, _)| src == s) {
                table
                    .channels
                    .extend_from_slice(&channels[lo as usize..hi as usize]);
                table.dsts.push(dst);
                table.starts.push(offset(table.channels.len()));
            }
            table.end_row();
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormnet::topology::ring_unidirectional;

    fn ring4() -> (Network, Vec<NodeId>) {
        ring_unidirectional(4)
    }

    /// Clockwise walk from src to dst on the ring.
    fn cw_walk(nodes: &[NodeId], src: NodeId, dst: NodeId) -> Vec<NodeId> {
        let n = nodes.len();
        let s = nodes.iter().position(|&x| x == src).unwrap();
        let mut walk = vec![src];
        let mut i = s;
        while nodes[i] != dst {
            i = (i + 1) % n;
            walk.push(nodes[i]);
        }
        walk
    }

    #[test]
    fn builds_total_table() {
        let (net, nodes) = ring4();
        let table =
            TableRouting::from_node_paths(&net, |s, d| Some(cw_walk(&nodes, s, d))).unwrap();
        assert!(table.is_total(&net));
        assert_eq!(table.len(), 12);
        assert_eq!(table.path(nodes[0], nodes[3]).unwrap().len(), 3);
        assert!(!table.is_empty());
        for ((s, d), path) in table.iter() {
            assert_eq!(table.path(s, d), Some(path));
            assert_eq!(path.nodes(&net), cw_walk(&nodes, s, d));
        }
        assert!(table.path(nodes[2], nodes[2]).is_none());
    }

    #[test]
    fn partial_table_is_not_total() {
        let (net, nodes) = ring4();
        let table = TableRouting::from_node_paths(&net, |s, d| {
            (s == nodes[0]).then(|| cw_walk(&nodes, s, d))
        })
        .unwrap();
        assert!(!table.is_total(&net));
        assert_eq!(table.len(), 3);
        assert!(table.path(nodes[1], nodes[2]).is_none());
        assert_eq!(table.path(nodes[0], nodes[2]).unwrap().len(), 2);
    }

    #[test]
    fn walk_errors_match_the_path_constructor() {
        let mut net = Network::new();
        let n = net.add_nodes("v", 3);
        for (a, b) in [(0, 1), (1, 0), (1, 2), (2, 1)] {
            net.add_channel(n[a], n[b]);
        }
        for walk in [
            vec![n[0]],
            vec![n[0], n[2]],
            vec![n[0], n[1], n[0], n[1], n[2]],
            // Repeats c2, c3 and then c1: the smallest, c1, is named.
            vec![n[1], n[2], n[1], n[0], n[1], n[2], n[1], n[0]],
        ] {
            let (s, d) = (n[0], n[2]);
            let expected = Path::from_nodes(&net, &walk).unwrap_err();
            let built = TableRouting::from_node_paths(&net, |a, b| {
                ((a, b) == (s, d)).then(|| walk.clone())
            });
            assert_eq!(built, Err(expected), "walk {walk:?}");
        }
        let c1 = net.find_channel(n[1], n[0]).unwrap();
        assert_eq!(
            Path::from_nodes(&net, &[n[1], n[2], n[1], n[0], n[1], n[2], n[1], n[0]]),
            Err(RouteError::RepeatedChannel(c1))
        );
    }

    #[test]
    fn endpoint_mismatches_rejected() {
        let (net, nodes) = ring4();
        let p01 = Path::from_nodes(&net, &[nodes[0], nodes[1]]).unwrap();
        let mut t = TableBuilder::new(&net);
        assert!(matches!(
            t.insert(nodes[1], nodes[0], p01.clone()),
            Err(RouteError::WrongSource { .. })
        ));
        assert!(matches!(
            t.insert(nodes[0], nodes[2], p01.clone()),
            Err(RouteError::WrongDestination { .. })
        ));
        assert!(matches!(
            t.insert(nodes[0], nodes[0], p01),
            Err(RouteError::TrivialPair(_))
        ));
        let from_walks = TableRouting::from_node_paths(&net, |s, d| {
            (s == nodes[0] && d == nodes[2]).then(|| vec![nodes[0], nodes[1]])
        });
        assert!(matches!(
            from_walks,
            Err(RouteError::WrongDestination { .. })
        ));
    }

    #[test]
    fn duplicates_rejected_at_the_second_insertion() {
        let (net, nodes) = ring4();
        let p = |a: usize, b: usize| Path::from_nodes(&net, &[nodes[a], nodes[b]]).unwrap();
        let mut t = TableBuilder::new(&net);
        t.insert(nodes[2], nodes[3], p(2, 3)).unwrap();
        t.insert(nodes[0], nodes[1], p(0, 1)).unwrap();
        t.insert(nodes[1], nodes[2], p(1, 2)).unwrap();
        t.insert(nodes[0], nodes[1], p(0, 1)).unwrap();
        t.insert(nodes[2], nodes[3], p(2, 3)).unwrap();
        let err = t.finish().unwrap_err();
        assert_eq!(
            err,
            Duplicate {
                index: 3,
                src: nodes[0],
                dst: nodes[1]
            }
        );
        assert_eq!(
            RouteError::from(err),
            RouteError::DuplicatePair(nodes[0], nodes[1])
        );
    }

    #[test]
    fn builder_sorts_pairs_into_table_order() {
        let (net, nodes) = ring4();
        let table =
            TableRouting::from_node_paths(&net, |s, d| Some(cw_walk(&nodes, s, d))).unwrap();
        let mut pairs: Vec<_> = table.iter().map(|(pair, _)| pair).collect();
        pairs.reverse();
        let mut b = TableBuilder::new(&net);
        for &(s, d) in &pairs {
            b.insert(s, d, table.path(s, d).unwrap().to_path()).unwrap();
        }
        assert_eq!(b.finish().unwrap(), table);
        let mut b = TableBuilder::new(&net);
        for &(s, d) in pairs.iter().rev() {
            b.insert(s, d, table.path(s, d).unwrap().to_path()).unwrap();
        }
        let in_order = b.finish().unwrap();
        assert_eq!(in_order, table);
        assert_eq!(in_order.data_bytes(), table.data_bytes());
    }

    #[test]
    fn without_channels_drops_exactly_the_affected_pairs() {
        let (net, nodes) = ring4();
        let table =
            TableRouting::from_node_paths(&net, |s, d| Some(cw_walk(&nodes, s, d))).unwrap();
        let c0 = net.find_channel(nodes[0], nodes[1]).unwrap();
        let degraded = table.without_channels(&[c0]);
        for ((src, dst), path) in table.iter() {
            let uses = path.channels().contains(&c0);
            assert_eq!(degraded.path(src, dst).is_none(), uses);
            if !uses {
                assert_eq!(degraded.path(src, dst), Some(path));
            }
        }
        // On the 4-ring, the 0->1 hop serves pairs 0->1, 0->2, 0->3,
        // 3->1, 3->2, 2->1: six of the twelve pairs.
        assert_eq!(degraded.len(), 6);
        assert!(!degraded.is_total(&net));
        // No-fault degradation is the identity.
        assert_eq!(table.without_channels(&[]), table);
    }

    #[test]
    fn iteration_is_deterministic() {
        let (net, nodes) = ring4();
        let t = TableRouting::from_node_paths(&net, |s, d| Some(cw_walk(&nodes, s, d))).unwrap();
        let keys1: Vec<_> = t.iter().map(|(k, _)| k).collect();
        let keys2: Vec<_> = t.iter().map(|(k, _)| k).collect();
        assert_eq!(keys1, keys2);
        assert!(keys1.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(t.iter().len(), t.len());
    }

    #[test]
    fn empty_tables_are_equal_whatever_their_rows() {
        let (net, _) = ring4();
        let built = TableRouting::from_node_paths(&net, |_, _| None).unwrap();
        assert_eq!(built, TableRouting::new());
        assert!(built.is_empty() && built.iter().next().is_none());
        assert!(TableRouting::new()
            .path(NodeId::from_index(0), NodeId::from_index(1))
            .is_none());
    }
}
