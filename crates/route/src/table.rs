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

    /// Build a table by calling `route` for every ordered pair of
    /// distinct nodes, in `(src, dst)` order. `route` writes the pair's
    /// path into the table's channel array through the [`PathWriter`]
    /// and returns `Some(())`, or returns `None` to leave the pair
    /// unrouted (partial algorithms); a `None` discards whatever it
    /// wrote.
    ///
    /// Node-walk engines write nodes and the table resolves each hop
    /// through the network's lane index; virtual-channel engines write
    /// channels or lanes. Each path is checked as it is written, with
    /// one per-channel stamp reused across the table, and a bad path
    /// fails the build with the error [`Path::from_channels`] or
    /// [`Path::from_nodes`] gives for it, or the endpoint error of
    /// [`TableBuilder::insert`].
    pub fn build(
        net: &Network,
        mut route: impl FnMut(&mut PathWriter<'_>, NodeId, NodeId) -> Option<()>,
    ) -> Result<Self, RouteError> {
        let mut table = TableRouting::with_nodes(net.node_count());
        let mut path = PathWriter::new(net);
        for src in net.nodes() {
            for dst in net.nodes() {
                if src == dst {
                    continue;
                }
                path.open();
                if route(&mut path, src, dst).is_none() {
                    path.discard();
                    continue;
                }
                path.close(src, dst)?;
                table.dsts.push(dst);
                table.starts.push(offset(path.channels.len()));
            }
            table.end_row();
        }
        table.channels = path.channels;
        Ok(table)
    }

    /// The table's path `i`.
    #[inline]
    pub(crate) fn path_at(&self, i: usize) -> PathRef<'_> {
        PathRef::new(&self.channels[self.hops_of(i)])
    }

    /// The positions of path `i`'s channels in the table's one channel
    /// array.
    #[inline]
    pub(crate) fn hops_of(&self, i: usize) -> std::ops::Range<usize> {
        self.starts[i] as usize..self.starts[i + 1] as usize
    }

    /// The destination of path `i`.
    #[inline]
    pub(crate) fn dst_at(&self, i: usize) -> NodeId {
        self.dsts[i]
    }

    /// The number of rows: the network's node count, or 0 for
    /// [`TableRouting::new`].
    pub(crate) fn row_count(&self) -> usize {
        self.rows.len().saturating_sub(1)
    }

    /// The path of `row` (a range from [`TableRouting::row`]) holding
    /// the table's hop `hop`.
    pub(crate) fn row_path_at(&self, row: std::ops::Range<usize>, hop: usize) -> usize {
        row.start + self.starts[row.start + 1..=row.end].partition_point(|&e| e as usize <= hop)
    }

    /// The indices of the paths from node `s`, by ascending
    /// destination.
    #[inline]
    pub(crate) fn row(&self, s: usize) -> std::ops::Range<usize> {
        self.rows[s] as usize..self.rows[s + 1] as usize
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

/// Writes one path at a time into a table's channel array for
/// [`TableRouting::build`], checking it the way [`Path::from_nodes`]
/// and [`Path::from_channels`] do: every hop resolves to a channel,
/// consecutive channels share an endpoint, and no channel repeats.
/// Each check costs O(1) per hop; a per-channel stamp, reused across
/// the table, finds the repeats.
pub struct PathWriter<'n> {
    net: &'n Network,
    /// The table's channel array; the open path is `channels[start..]`.
    channels: Vec<ChannelId>,
    start: usize,
    /// Where the path written so far ends (a walk's first node, before
    /// its first hop).
    at: Option<NodeId>,
    /// The source of the path's first channel.
    origin: Option<NodeId>,
    /// The first hop with no channel.
    missing: Option<RouteError>,
    /// The first channel that does not continue from its predecessor.
    disconnected: Option<usize>,
    /// The smallest repeated channel.
    repeated: Option<ChannelId>,
    stamp: Vec<u32>,
    mark: u32,
}

impl<'n> PathWriter<'n> {
    fn new(net: &'n Network) -> Self {
        PathWriter {
            net,
            channels: Vec::new(),
            start: 0,
            at: None,
            origin: None,
            missing: None,
            disconnected: None,
            repeated: None,
            stamp: vec![0; net.channel_count()],
            mark: 0,
        }
    }

    /// The next node of a node walk: the walk's first call names its
    /// source, every later one takes the VC-0 channel from the walk's
    /// last node.
    pub fn node(&mut self, v: NodeId) {
        match self.at {
            None => self.at = Some(v),
            Some(u) => self.lane(u, v, 0),
        }
    }

    /// Every node of a node walk, in order ([`PathWriter::node`] each).
    pub fn walk(&mut self, nodes: &[NodeId]) {
        for &v in nodes {
            self.node(v);
        }
    }

    /// The channel from `from` to `to` on VC lane `vc`.
    pub fn lane(&mut self, from: NodeId, to: NodeId, vc: u8) {
        if self.missing.is_some() {
            return;
        }
        match self.net.find_channel_vc(from, to, vc) {
            Some(c) => self.push(c, from, to),
            None => self.missing = Some(RouteError::MissingChannel { from, to }),
        }
    }

    /// The next channel.
    pub fn channel(&mut self, c: ChannelId) {
        if self.missing.is_some() {
            return;
        }
        let ch = self.net.channel(c);
        self.push(c, ch.src(), ch.dst());
    }

    fn push(&mut self, c: ChannelId, src: NodeId, dst: NodeId) {
        let i = self.channels.len() - self.start;
        if i == 0 {
            self.origin = Some(src);
            // A new stamp per path that has channels.
            if self.mark == u32::MAX {
                self.stamp.fill(0);
                self.mark = 0;
            }
            self.mark += 1;
        } else if self.at != Some(src) && self.disconnected.is_none() {
            self.disconnected = Some(i - 1);
        }
        if std::mem::replace(&mut self.stamp[c.index()], self.mark) == self.mark
            && self.repeated.is_none_or(|r| c < r)
        {
            self.repeated = Some(c);
        }
        self.channels.push(c);
        self.at = Some(dst);
    }

    /// Start a new path at the end of the channel array. The error
    /// fields are already clear: the last path ended in
    /// [`PathWriter::discard`], which clears them, or in a
    /// [`PathWriter::close`] that found none.
    fn open(&mut self) {
        self.start = self.channels.len();
        self.at = None;
        self.origin = None;
    }

    /// Drop the open path's channels.
    fn discard(&mut self) {
        self.channels.truncate(self.start);
        self.missing = None;
        self.disconnected = None;
        self.repeated = None;
    }

    /// Check the open path as the path from `src` to `dst`. The errors
    /// rank as the path constructors rank them: a missing hop, an empty
    /// path, a disconnection, a repeated channel, then the endpoints.
    fn close(&mut self, src: NodeId, dst: NodeId) -> Result<(), RouteError> {
        if let Some(e) = self.missing.take() {
            return Err(e);
        }
        let (Some(origin), Some(at)) = (self.origin, self.at) else {
            return Err(RouteError::EmptyPath);
        };
        if let Some(at) = self.disconnected {
            return Err(RouteError::Disconnected { at });
        }
        if let Some(c) = self.repeated {
            return Err(RouteError::RepeatedChannel(c));
        }
        if origin != src {
            return Err(RouteError::WrongSource {
                expected: src,
                actual: origin,
            });
        }
        if at != dst {
            return Err(RouteError::WrongDestination {
                expected: dst,
                actual: at,
            });
        }
        Ok(())
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

    /// The clockwise table of the ring.
    fn cw_table(net: &Network, nodes: &[NodeId]) -> TableRouting {
        TableRouting::build(net, |path, s, d| {
            path.walk(&cw_walk(nodes, s, d));
            Some(())
        })
        .unwrap()
    }

    #[test]
    fn builds_total_table() {
        let (net, nodes) = ring4();
        let table = cw_table(&net, &nodes);
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
        let table = TableRouting::build(&net, |path, s, d| {
            (s == nodes[0]).then(|| path.walk(&cw_walk(&nodes, s, d)))
        })
        .unwrap();
        assert!(!table.is_total(&net));
        assert_eq!(table.len(), 3);
        assert!(table.path(nodes[1], nodes[2]).is_none());
        assert_eq!(table.path(nodes[0], nodes[2]).unwrap().len(), 2);
    }

    /// A table holding only `(s, d)`, written by `write`.
    fn single(
        net: &Network,
        (s, d): (NodeId, NodeId),
        write: impl Fn(&mut PathWriter<'_>),
    ) -> Result<TableRouting, RouteError> {
        TableRouting::build(net, |path, a, b| ((a, b) == (s, d)).then(|| write(path)))
    }

    /// What the path constructors and the endpoint check make of a path
    /// for `(s, d)`: the outcome a table build must report.
    fn constructed(
        net: &Network,
        (s, d): (NodeId, NodeId),
        path: Result<Path, RouteError>,
    ) -> Result<(), RouteError> {
        TableBuilder::new(net).insert(s, d, path?)
    }

    #[test]
    fn walk_errors_match_the_path_constructor() {
        let mut net = Network::new();
        let n = net.add_nodes("v", 3);
        for (a, b) in [(0, 1), (1, 0), (1, 2), (2, 1)] {
            net.add_channel(n[a], n[b]);
        }
        let pair = (n[0], n[2]);
        for walk in [
            vec![],
            vec![n[0]],
            vec![n[0], n[2]],
            vec![n[0], n[1], n[0], n[1], n[2]],
            // Repeats c2, c3 and then c1: the smallest, c1, is named.
            vec![n[1], n[2], n[1], n[0], n[1], n[2], n[1], n[0]],
            // A missing hop after a repeat: the missing hop is named.
            vec![n[0], n[1], n[0], n[1], n[0], n[2]],
            vec![n[1], n[2]],
            vec![n[0], n[1]],
            vec![n[0], n[1], n[2]],
        ] {
            let expected = constructed(&net, pair, Path::from_nodes(&net, &walk));
            let built = single(&net, pair, |path| path.walk(&walk));
            assert_eq!(built.map(|_| ()), expected, "walk {walk:?}");
        }
        let c1 = net.find_channel(n[1], n[0]).unwrap();
        assert_eq!(
            Path::from_nodes(&net, &[n[1], n[2], n[1], n[0], n[1], n[2], n[1], n[0]]),
            Err(RouteError::RepeatedChannel(c1))
        );
    }

    #[test]
    fn channel_errors_match_the_path_constructor() {
        let mut net = Network::new();
        let n = net.add_nodes("v", 3);
        for (a, b) in [(0, 1), (1, 0), (1, 2), (2, 1)] {
            net.add_channel(n[a], n[b]);
        }
        let up = net.add_channel_vc(n[1], n[2], 1);
        let c = |a: usize, b: usize| net.find_channel(n[a], n[b]).unwrap();
        let pair = (n[0], n[2]);
        for chans in [
            vec![],
            vec![c(0, 1), c(1, 2)],
            vec![c(0, 1), up],
            vec![c(0, 1), c(2, 1)],
            // Disconnected and repeated: the disconnection is named.
            vec![c(0, 1), c(0, 1), c(1, 2)],
            vec![c(0, 1), c(1, 2), c(2, 1), c(1, 0), c(0, 1), c(1, 2)],
            vec![c(1, 2), c(2, 1), c(1, 2)],
            vec![c(1, 0), c(0, 1), c(1, 2)],
            vec![c(0, 1)],
            vec![c(0, 1), c(1, 2), c(2, 1)],
        ] {
            let expected = constructed(&net, pair, Path::from_channels(&net, chans.clone()));
            let built = single(&net, pair, |path| {
                for &ch in &chans {
                    path.channel(ch);
                }
            });
            assert_eq!(built.map(|_| ()), expected, "channels {chans:?}");
        }
        // Lanes resolve like a per-hop lane selector: the first hop
        // without a channel on its lane is named, then the channels are
        // checked as a path.
        for hops in [
            vec![(0, 1, 0), (1, 2, 1)],
            vec![(0, 1, 0), (1, 2, 2)],
            vec![(0, 1, 1), (1, 2, 2)],
            vec![(0, 1, 0), (2, 1, 0), (1, 2, 0)],
            vec![(0, 1, 0), (1, 2, 0), (2, 1, 0), (1, 2, 1)],
            vec![(1, 2, 1)],
        ] {
            let resolved: Result<Vec<ChannelId>, RouteError> = hops
                .iter()
                .map(|&(a, b, vc)| {
                    net.find_channel_vc(n[a], n[b], vc)
                        .ok_or(RouteError::MissingChannel {
                            from: n[a],
                            to: n[b],
                        })
                })
                .collect();
            let expected = constructed(
                &net,
                pair,
                resolved.and_then(|chans| Path::from_channels(&net, chans)),
            );
            let built = single(&net, pair, |path| {
                for &(a, b, vc) in &hops {
                    path.lane(n[a], n[b], vc);
                }
            });
            assert_eq!(built.map(|_| ()), expected, "lanes {hops:?}");
        }
    }

    #[test]
    fn a_discarded_path_leaves_no_channels() {
        let (net, nodes) = ring4();
        let table = TableRouting::build(&net, |path, s, d| {
            path.walk(&cw_walk(&nodes, s, d));
            (s != nodes[1]).then_some(())
        })
        .unwrap();
        assert_eq!(table.len(), 9);
        assert!(table.path(nodes[1], nodes[2]).is_none());
        for ((s, d), path) in table.iter() {
            assert_eq!(path.nodes(&net), cw_walk(&nodes, s, d));
        }
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
        let from_walks = single(&net, (nodes[0], nodes[2]), |path| {
            path.walk(&[nodes[0], nodes[1]])
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
        let table = cw_table(&net, &nodes);
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
        let table = cw_table(&net, &nodes);
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
        let t = cw_table(&net, &nodes);
        let keys1: Vec<_> = t.iter().map(|(k, _)| k).collect();
        let keys2: Vec<_> = t.iter().map(|(k, _)| k).collect();
        assert_eq!(keys1, keys2);
        assert!(keys1.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(t.iter().len(), t.len());
    }

    #[test]
    fn empty_tables_are_equal_whatever_their_rows() {
        let (net, _) = ring4();
        let built = TableRouting::build(&net, |_, _, _| None).unwrap();
        assert_eq!(built, TableRouting::new());
        assert!(built.is_empty() && built.iter().next().is_none());
        assert!(TableRouting::new()
            .path(NodeId::from_index(0), NodeId::from_index(1))
            .is_none());
    }
}
