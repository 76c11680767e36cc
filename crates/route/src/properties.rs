//! Structural properties of oblivious routing algorithms
//! (Definitions 7–9 of the paper, plus minimality).
//!
//! These predicates drive the paper's Section 5 corollaries:
//! suffix-closed (and hence coherent) oblivious algorithms cannot have
//! unreachable cyclic configurations, so for them a cyclic channel
//! dependency graph *does* imply deadlock. The experiments validate
//! those corollaries by checking the predicates on a corpus of
//! algorithms and comparing against exhaustive search.
//!
//! [`analyze`] decides every property in one pass over the table and
//! keeps, next to each verdict, the violation count and the witness
//! `wormlint` prints. The `is_*` predicates are views of that pass,
//! except [`is_minimal`], which runs only the pass's BFS.

use std::collections::BTreeMap;

use wormnet::{ChannelId, Network, NodeId};

use crate::path::PathRef;
use crate::table::TableRouting;

/// Largest `n × n` per-pair array the node-function test allocates
/// (the cluster-scale fabrics); above it, its choices go in a map.
const DENSE_CELL_LIMIT: usize = 1 << 24;

/// How many unrouted pairs [`PropertyReport::first_unrouted`] keeps.
const UNROUTED_EXAMPLES: usize = 3;

/// A position on one routed path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Site {
    /// The pair whose path it is.
    pub pair: (NodeId, NodeId),
    /// Index into the path's node walk (0 = the source).
    pub pos: usize,
    /// The node at `pos`.
    pub node: NodeId,
}

/// A routed path longer than the hop distance between its endpoints.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Detour {
    /// The routed pair.
    pub pair: (NodeId, NodeId),
    /// Channels on the routed path.
    pub len: usize,
    /// Hop distance from the source to the destination.
    pub distance: usize,
}

/// A path that passes through its own destination and keeps going.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeadTail {
    /// The routed pair.
    pub pair: (NodeId, NodeId),
    /// Hop at which the walk first reaches the destination; the
    /// channels after it are dead.
    pub first_arrival: usize,
}

/// Every property of one `(network, table)`, with the violation
/// counts and witnesses the `W003`, `W005`, `W101`–`W105` and `W209`
/// lints report. "First" means first in table order (`(src, dst)`),
/// then along the path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PropertyReport {
    /// All pairs routed.
    pub total: bool,
    /// Every path shortest.
    pub minimal: bool,
    /// Definition 7.
    pub prefix_closed: bool,
    /// Definition 8.
    pub suffix_closed: bool,
    /// No node revisits on any path.
    pub node_simple: bool,
    /// Definition 9.
    pub coherent: bool,
    /// Realizable as `R : N × N → C` (Corollary 1's class).
    pub node_function: bool,
    /// Every path's node indices strictly descend, then strictly
    /// ascend (the up*/down* shape).
    pub down_up: bool,
    /// Paths of at least two channels.
    pub multi_hop_paths: usize,
    /// Ordered pairs of distinct nodes the table leaves unrouted.
    pub unrouted_pairs: usize,
    /// The first three unrouted pairs.
    pub first_unrouted: Vec<(NodeId, NodeId)>,
    /// Routed pairs whose path is longer than their hop distance.
    pub nonminimal_pairs: usize,
    /// The largest detour (path length minus distance), the first one
    /// in table order on ties.
    pub worst_detour: Option<Detour>,
    /// Definition 7 violations: first occurrences of interior nodes
    /// whose registered path from the source is not the prefix.
    pub prefix_violations: usize,
    /// The first Definition 7 violation.
    pub first_prefix_violation: Option<Site>,
    /// Definition 8 violations: interior positions (other than the
    /// destination) whose registered path to the destination is not
    /// the suffix.
    pub suffix_violations: usize,
    /// The first Definition 8 violation.
    pub first_suffix_violation: Option<Site>,
    /// Paths that visit some node twice.
    pub revisiting_paths: usize,
    /// On the first such path, the first position whose node was
    /// already visited.
    pub first_revisit: Option<Site>,
    /// Every path through its own destination, in table order.
    pub dead_tails: Vec<DeadTail>,
}

/// Whether every routed path is a shortest path in the node graph
/// ("minimal routing", paper Section 1).
///
/// Runs only the per-source BFS of [`analyze`], stopping at the first
/// detour, for callers that need minimality alone.
pub fn is_minimal(net: &Network, table: &TableRouting) -> bool {
    let mut distances = Distances::new(net);
    table
        .iter()
        .all(|((src, dst), path)| distances.get(src, dst) == path.len())
}

/// Definition 7: the algorithm is **prefix-closed** if whenever the
/// path from `s` to `d` passes through `v` (first occurrence), the
/// table's path from `s` to `v` is exactly that prefix.
///
/// An unrouted pair `(s, v)` is a violation: Definition 7 demands the
/// partial path be *specified* by the algorithm.
pub fn is_prefix_closed(net: &Network, table: &TableRouting) -> bool {
    analyze(net, table).prefix_closed
}

/// Definition 8: the algorithm is **suffix-closed** if whenever the
/// path from `s` to `d` passes through `v`, the table's path from `v`
/// to `d` is the corresponding suffix.
///
/// For paths that visit `v` more than once, every occurrence's suffix
/// is constrained; two distinct suffixes from the same `v` therefore
/// make the algorithm non-suffix-closed (it could not be realized by a
/// routing function of the form `R : N × N → C`, which the paper notes
/// is always suffix-closed).
pub fn is_suffix_closed(net: &Network, table: &TableRouting) -> bool {
    analyze(net, table).suffix_closed
}

/// Whether no routed path visits any node more than once.
pub fn never_revisits_nodes(net: &Network, table: &TableRouting) -> bool {
    analyze(net, table).node_simple
}

/// Whether the algorithm is realizable as a routing function of the
/// form `R : N × N → C` — the output channel depends only on the
/// *current node* and destination, not on the input channel.
///
/// This is the class of Corollary 1: such algorithms can have no
/// unreachable cyclic configurations, so for them a cyclic CDG always
/// means a reachable deadlock. Every node-function algorithm is
/// suffix-closed (when total); the converse need not hold.
pub fn is_node_function(net: &Network, table: &TableRouting) -> bool {
    analyze(net, table).node_function
}

/// Definition 9: **coherent** = prefix-closed ∧ suffix-closed ∧ never
/// routes a message through the same node twice.
pub fn is_coherent(net: &Network, table: &TableRouting) -> bool {
    analyze(net, table).coherent
}

/// Evaluate every property in one pass over the table.
///
/// Each path's node walk is built once, into a reused buffer, and
/// first occurrences are marked with a per-path stamp. Prefix and
/// suffix closure compare channel slices in place against the
/// registered paths, looked up in the table itself; one BFS per
/// source serves minimality and the worst detour.
pub fn analyze(net: &Network, table: &TableRouting) -> PropertyReport {
    analyze_with(net, table, DENSE_CELL_LIMIT)
}

/// [`analyze`] with the dense-array cap as a parameter, so tests can
/// force the map fallback.
fn analyze_with(net: &Network, table: &TableRouting, dense_limit: usize) -> PropertyReport {
    let n = net.node_count();
    let registered = |src: NodeId, dst: NodeId| table.path(src, dst).map(PathRef::channels);
    let mut choices = Choices::new(n, dense_limit);
    let mut distances = Distances::new(net);
    let mut unrouted = Unrouted::new(n);
    let mut stamp = vec![0usize; n];
    let mut walk = Vec::new();
    let mut node_function = true;
    let mut down_up = true;
    let mut multi_hop_paths = 0;
    let mut nonminimal_pairs = 0;
    let mut worst_detour: Option<Detour> = None;
    let mut prefix_violations = 0;
    let mut first_prefix_violation = None;
    let mut suffix_violations = 0;
    let mut first_suffix_violation = None;
    let mut revisiting_paths = 0;
    let mut first_revisit = None;
    let mut dead_tails = Vec::new();

    for (ordinal, (pair, path)) in table.iter().enumerate() {
        let (src, dst) = pair;
        unrouted.skip_to(pair);
        let chans = path.channels();
        let len = chans.len();
        path.nodes_into(net, &mut walk);
        let mark = ordinal + 1;
        let mut revisit = None;
        let mut arrival = None;
        let mut descending = true;
        for (pos, &v) in walk.iter().enumerate() {
            let first = std::mem::replace(&mut stamp[v.index()], mark) != mark;
            if !first && revisit.is_none() {
                revisit = Some(pos);
            }
            if pos > 0 {
                let (a, b) = (walk[pos - 1].index(), v.index());
                descending &= a > b;
                if !descending && a >= b {
                    down_up = false;
                }
            }
            if pos == len {
                break; // the destination: no channel leaves it
            }
            if node_function {
                node_function = choices.agree(v, dst, chans[pos]);
            }
            if pos == 0 {
                continue;
            }
            if v == dst && arrival.is_none() {
                arrival = Some(pos);
            }
            // Only the first occurrence of v is constrained (which
            // also skips a return to the source: its prefix is empty).
            if first && registered(src, v) != Some(&chans[..pos]) {
                prefix_violations += 1;
                first_prefix_violation.get_or_insert(Site { pair, pos, node: v });
            }
            // The suffix from the destination itself is empty.
            if v != dst && registered(v, dst) != Some(&chans[pos..]) {
                suffix_violations += 1;
                first_suffix_violation.get_or_insert(Site { pair, pos, node: v });
            }
        }
        if let Some(pos) = revisit {
            revisiting_paths += 1;
            first_revisit.get_or_insert(Site {
                pair,
                pos,
                node: walk[pos],
            });
        }
        if let Some(first_arrival) = arrival {
            dead_tails.push(DeadTail {
                pair,
                first_arrival,
            });
        }
        if len >= 2 {
            multi_hop_paths += 1;
        }
        // A routed path is a walk from src to dst, so dst is reached
        // and its distance is at most `len`.
        let distance = distances.get(src, dst);
        if len > distance {
            nonminimal_pairs += 1;
            if worst_detour.is_none_or(|w| len - distance > w.len - w.distance) {
                worst_detour = Some(Detour {
                    pair,
                    len,
                    distance,
                });
            }
        }
    }
    let (unrouted_pairs, first_unrouted) = unrouted.finish();
    let prefix_closed = prefix_violations == 0;
    let suffix_closed = suffix_violations == 0;
    let node_simple = revisiting_paths == 0;
    PropertyReport {
        total: unrouted_pairs == 0,
        minimal: nonminimal_pairs == 0,
        prefix_closed,
        suffix_closed,
        node_simple,
        coherent: prefix_closed && suffix_closed && node_simple,
        node_function,
        down_up,
        multi_hop_paths,
        unrouted_pairs,
        first_unrouted,
        nonminimal_pairs,
        worst_detour,
        prefix_violations,
        first_prefix_violation,
        suffix_violations,
        first_suffix_violation,
        revisiting_paths,
        first_revisit,
        dead_tails,
    }
}

/// Hop distances from one source at a time, over the node graph with
/// parallel channels (lanes) merged. The table iterates in
/// `(src, dst)` order, so one BFS per distinct source serves all its
/// destinations.
struct Distances {
    /// `succ[offsets[v]..offsets[v + 1]]` are the distinct successors
    /// of node `v`.
    offsets: Vec<usize>,
    succ: Vec<u32>,
    source: Option<NodeId>,
    dist: Vec<u32>,
    queue: Vec<u32>,
}

impl Distances {
    const UNREACHED: u32 = u32::MAX;

    fn new(net: &Network) -> Self {
        let n = net.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
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
        Distances {
            offsets,
            succ,
            source: None,
            dist: vec![Self::UNREACHED; n],
            queue: Vec::with_capacity(n),
        }
    }

    /// Hop distance from `src` to `dst`; `usize::MAX` if unreachable.
    fn get(&mut self, src: NodeId, dst: NodeId) -> usize {
        if self.source != Some(src) {
            self.bfs(src);
        }
        match self.dist[dst.index()] {
            Self::UNREACHED => usize::MAX,
            d => d as usize,
        }
    }

    fn bfs(&mut self, src: NodeId) {
        self.source = Some(src);
        self.dist.fill(Self::UNREACHED);
        self.queue.clear();
        self.dist[src.index()] = 0;
        self.queue.push(src.index() as u32);
        let mut head = 0;
        while let Some(&v) = self.queue.get(head) {
            head += 1;
            let v = v as usize;
            let next = self.dist[v] + 1;
            for &w in &self.succ[self.offsets[v]..self.offsets[v + 1]] {
                if self.dist[w as usize] == Self::UNREACHED {
                    self.dist[w as usize] = next;
                    self.queue.push(w);
                }
            }
        }
    }
}

/// `n × n`, when that many cells fit under `limit`.
fn dense_cells(n: usize, limit: usize) -> Option<usize> {
    n.checked_mul(n).filter(|&cells| cells <= limit)
}

/// The channel each `(current node, destination)` has been seen to
/// take, for Corollary 1's `R : N × N → C` test.
enum Choices {
    Dense { n: usize, slots: Vec<u32> },
    Map(BTreeMap<(NodeId, NodeId), ChannelId>),
}

impl Choices {
    const EMPTY: u32 = u32::MAX;

    fn new(n: usize, dense_limit: usize) -> Self {
        match dense_cells(n, dense_limit) {
            Some(cells) => Choices::Dense {
                n,
                slots: vec![Self::EMPTY; cells],
            },
            None => Choices::Map(BTreeMap::new()),
        }
    }

    /// Record that a path at `at` towards `dst` takes `channel`; false
    /// if another path there took a different channel.
    fn agree(&mut self, at: NodeId, dst: NodeId, channel: ChannelId) -> bool {
        match self {
            Choices::Dense { n, slots } => {
                let slot = &mut slots[at.index() * *n + dst.index()];
                let cid = channel.index() as u32;
                if *slot == Self::EMPTY {
                    *slot = cid;
                }
                *slot == cid
            }
            Choices::Map(map) => *map.entry((at, dst)).or_insert(channel) == channel,
        }
    }
}

/// Counts the ordered pairs of distinct nodes missing between the
/// table's keys, which arrive in `(src, dst)` order, and keeps the
/// first [`UNROUTED_EXAMPLES`] of them.
struct Unrouted {
    n: usize,
    /// Rank of the next pair not yet accounted for.
    next: usize,
    count: usize,
    first: Vec<(NodeId, NodeId)>,
}

impl Unrouted {
    fn new(n: usize) -> Self {
        Unrouted {
            n,
            next: 0,
            count: 0,
            first: Vec::new(),
        }
    }

    /// Account for the unrouted pairs before `pair`, which the table
    /// routes.
    fn skip_to(&mut self, (u, v): (NodeId, NodeId)) {
        // The position of (u, v), u != v, in (src, dst) order.
        let rank = u.index() * (self.n - 1) + v.index() - usize::from(v > u);
        self.gap(rank);
        self.next = rank + 1;
    }

    fn gap(&mut self, end: usize) {
        self.count += end - self.next;
        let (n, room) = (self.n, UNROUTED_EXAMPLES - self.first.len());
        self.first.extend((self.next..end).take(room).map(|rank| {
            let (u, w) = (rank / (n - 1), rank % (n - 1));
            (
                NodeId::from_index(u),
                NodeId::from_index(w + usize::from(w >= u)),
            )
        }));
    }

    fn finish(mut self) -> (usize, Vec<(NodeId, NodeId)>) {
        let pairs = self.n * self.n.saturating_sub(1);
        self.gap(pairs);
        (self.count, self.first)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::Path;
    use crate::table::TableBuilder;
    use wormnet::topology::{line, ring_unidirectional};
    use wormnet::NodeId;

    /// Clockwise routing on a unidirectional ring: the canonical
    /// coherent (but deadlock-prone) oblivious algorithm.
    fn clockwise4() -> (Network, Vec<NodeId>, TableRouting) {
        let (net, nodes) = ring_unidirectional(4);
        let table = TableRouting::from_node_paths(&net, |s, d| {
            let mut walk = vec![s];
            let mut i = s.index();
            while nodes[i] != d {
                i = (i + 1) % 4;
                walk.push(nodes[i]);
            }
            Some(walk)
        })
        .unwrap();
        (net, nodes, table)
    }

    #[test]
    fn clockwise_ring_is_coherent_but_not_minimal() {
        let (net, _, table) = clockwise4();
        let report = analyze(&net, &table);
        assert!(report.total);
        assert!(report.prefix_closed);
        assert!(report.suffix_closed);
        assert!(report.node_simple);
        assert!(report.coherent);
        // Unidirectional ring: the clockwise path IS the only path, so
        // it is minimal here.
        assert!(report.minimal);
    }

    #[test]
    fn line_shortest_paths_are_coherent_and_minimal() {
        let (net, nodes) = line(5);
        let table = TableRouting::from_node_paths(&net, |s, d| {
            let (si, di) = (s.index(), d.index());
            let walk: Vec<NodeId> = if si < di {
                (si..=di).map(|i| nodes[i]).collect()
            } else {
                (di..=si).rev().map(|i| nodes[i]).collect()
            };
            Some(walk)
        })
        .unwrap();
        let report = analyze(&net, &table);
        assert!(report.minimal && report.coherent && report.total);
    }

    /// A table routing each walk's endpoints over the walk.
    fn walks(net: &Network, walks: &[&[NodeId]]) -> TableRouting {
        let mut table = TableBuilder::new(net);
        for walk in walks {
            let path = Path::from_nodes(net, walk).unwrap();
            table.insert(walk[0], *walk.last().unwrap(), path).unwrap();
        }
        table.finish().unwrap()
    }

    #[test]
    fn nonminimal_detected() {
        let (net, n) = line(4);
        // 1 -> 2 -> 1 -> 0 revisits node 1 but uses each channel once:
        // a legal path, and a detour for the pair (1, 0).
        let table = walks(&net, &[&[n[1], n[2], n[1], n[0]]]);
        assert!(!is_minimal(&net, &table));
        assert!(!never_revisits_nodes(&net, &table));
        assert!(!is_coherent(&net, &table));
    }

    #[test]
    fn prefix_violation_detected() {
        let (net, n) = line(4);
        // (0,3) goes 0-1-2-3 but (0,1) and (0,2) are unrouted: the
        // partial paths are missing, so the table is not prefix-closed.
        let long: &[NodeId] = &[n[0], n[1], n[2], n[3]];
        assert!(!is_prefix_closed(&net, &walks(&net, &[long])));
        // Register the consistent prefixes and it passes.
        let closed = walks(&net, &[long, &[n[0], n[1]], &[n[0], n[1], n[2]]]);
        assert!(is_prefix_closed(&net, &closed));
    }

    #[test]
    fn suffix_violation_detected() {
        let (net, n) = line(4);
        let long: &[NodeId] = &[n[0], n[1], n[2], n[3]];
        // Missing (1,3) and (2,3) partial paths.
        assert!(!is_suffix_closed(&net, &walks(&net, &[long])));
        let closed = walks(&net, &[long, &[n[1], n[2], n[3]], &[n[2], n[3]]]);
        assert!(is_suffix_closed(&net, &closed));
    }

    #[test]
    fn suffix_mismatch_detected() {
        // Square with both directions available; (0,2) routed the long
        // way 0-1-2 but (1,2) routed 1-0-3-2: suffix mismatch.
        let (mut net, n) = ring_unidirectional(4);
        // add reverse channels to allow alternate suffix
        for i in 0..4 {
            net.add_channel(n[(i + 1) % 4], n[i]);
        }
        let table = walks(&net, &[&[n[0], n[1], n[2]], &[n[1], n[0], n[3], n[2]]]);
        assert!(!is_suffix_closed(&net, &table));
    }

    #[test]
    fn node_function_classes() {
        // Clockwise ring: next hop depends only on the current node —
        // a genuine N x N -> C algorithm.
        let (net, _, table) = clockwise4();
        assert!(is_node_function(&net, &table));

        // Dateline ring: the lane depends on the input channel, so it
        // is NOT a node function.
        use crate::algorithms::dateline_ring;
        use wormnet::topology::ring_with_vcs;
        let (net, nodes) = ring_with_vcs(5, 2);
        let table = dateline_ring(&net, &nodes).unwrap();
        assert!(!is_node_function(&net, &table));
        assert!(!analyze(&net, &table).node_function);
    }

    #[test]
    fn node_function_implies_suffix_closed_on_totals() {
        // For total tables: a node-function algorithm's suffixes are
        // forced, hence registered paths agree with them.
        use crate::algorithms::dimension_order;
        use wormnet::topology::Mesh;
        let mesh = Mesh::new(&[3, 2]);
        let table = dimension_order(&mesh).unwrap();
        assert!(is_node_function(mesh.network(), &table));
        assert!(is_suffix_closed(mesh.network(), &table));
    }

    #[test]
    fn map_fallback_matches_the_dense_arrays() {
        use crate::algorithms::{dateline_ring, dimension_order, random_table};
        use rand::SeedableRng;
        use wormnet::topology::{complete, ring_with_vcs, Mesh};

        let mut cases = vec![clockwise4()];
        let (net, nodes) = ring_with_vcs(5, 2);
        let table = dateline_ring(&net, &nodes).unwrap();
        cases.push((net, nodes, table));
        let mesh = Mesh::new(&[3, 3]);
        let table = dimension_order(&mesh).unwrap();
        cases.push((mesh.network().clone(), Vec::new(), table));
        let (net, nodes) = complete(5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let table = random_table(&net, &mut rng, 2).unwrap();
        let c0 = net.find_channel(nodes[0], nodes[1]).unwrap();
        cases.push((net.clone(), nodes.clone(), table.without_channels(&[c0])));
        cases.push((net, nodes, table));
        for (net, _, table) in &cases {
            assert_eq!(analyze_with(net, table, 0), analyze(net, table));
        }
    }

    #[test]
    fn empty_table_is_vacuously_closed() {
        let (net, _) = line(3);
        let table = TableRouting::new();
        assert!(is_prefix_closed(&net, &table));
        assert!(is_suffix_closed(&net, &table));
        assert!(is_minimal(&net, &table));
        assert!(!analyze(&net, &table).total);
    }
}
