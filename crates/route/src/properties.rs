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
//!
//! The pass does O(1) work per hop, plus one multi-source BFS per 64
//! sources for the distances. A source-major sweep gives every
//! sub-path that starts at the source an identity in one prefix trie
//! per source; a destination-major sweep does the same for the
//! sub-paths that end at the destination, in one suffix trie per
//! destination. A sub-path is a registered table path exactly when its
//! trie node is where some table path ends, so each Definition 7 or 8
//! check reads one flag, with no table lookup and no slice compare.
//! Extra memory is O(nodes + channels), one row's hops, one block of
//! 16 columns' hops, and the distances of one batch of 64 sources; no
//! array grows with the number of pairs or of hops in the table.

use wormnet::{ChannelId, Network, NodeId};

use crate::successors::Successors;
use crate::table::TableRouting;

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
/// Runs only the batched BFS of [`analyze`], stopping at the first
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
/// Source-major, in table order: each path's walk, revisits, dead
/// tail, shape and detour, and Definition 7 against the source's
/// prefix trie. Destination-major, a block of columns at a time:
/// Definition 8 against the destination's suffix trie, and the
/// `R : N × N → C` test. Both sweeps do O(1) work per hop; counts and
/// first witnesses are those of a walk over the table in `(src, dst)`
/// order, then along each path.
pub fn analyze(net: &Network, table: &TableRouting) -> PropertyReport {
    let n = net.node_count();
    let links = Links::new(net);
    let mut distances = Distances::new(net);
    let mut unrouted = Unrouted::new(n);
    let mut trie = Trie::default();
    // Per hop of the current row: the prefix's trie node where
    // Definition 7 constrains it, else `Trie::UNCHECKED`.
    let mut checks: Vec<u32> = Vec::new();
    let mut stamp = vec![0usize; n];
    let mut down_up = true;
    let mut multi_hop_paths = 0;
    let mut nonminimal_pairs = 0;
    let mut worst_detour: Option<Detour> = None;
    let mut prefix_violations = 0;
    let mut first_prefix_violation = None;
    let mut revisiting_paths = 0;
    let mut first_revisit = None;
    let mut dead_tails = Vec::new();

    for s in 0..table.row_count() {
        let row = table.row(s);
        if row.is_empty() {
            continue;
        }
        let src = NodeId::from_index(s);
        let base = table.hops_of(row.start).start;
        trie.reset(table.hops_of(row.end - 1).end - base);
        checks.clear();
        for i in row.clone() {
            let pair = (src, table.dst_at(i));
            let dst = pair.1;
            unrouted.skip_to(pair);
            let chans = table.path_at(i).channels();
            let len = chans.len();
            // One walk index per path, so no stamp is ever reset.
            let mark = i + 1;
            stamp[s] = mark;
            let mut prev = s;
            let mut node = Trie::ROOT;
            let mut revisit = None;
            let mut arrival = None;
            let mut descending = true;
            for (k, &c) in chans.iter().enumerate() {
                let pos = k + 1;
                let v = links.dst(c);
                node = trie.child(node, c);
                let first = std::mem::replace(&mut stamp[v.index()], mark) != mark;
                if !first && revisit.is_none() {
                    revisit = Some((pos, v));
                }
                descending &= prev > v.index();
                if !descending && prev >= v.index() {
                    down_up = false;
                }
                prev = v.index();
                // Only a node's first occurrence is constrained (which
                // also skips a return to the source: its prefix is
                // empty), and the destination ends the walk.
                let interior = pos < len;
                if interior && v == dst && arrival.is_none() {
                    arrival = Some(pos);
                }
                checks.push(if interior && first {
                    node
                } else {
                    Trie::UNCHECKED
                });
            }
            trie.end(node);
            if let Some((pos, node)) = revisit {
                revisiting_paths += 1;
                first_revisit.get_or_insert(Site { pair, pos, node });
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
            // A routed path is a walk from src to dst, so dst is
            // reached and its distance is at most `len`.
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
        // Definition 7, now that every path of the row is in the trie:
        // a hop's check is its prefix's trie node.
        let violations = trie.violations(&checks);
        prefix_violations += violations;
        if violations > 0 && first_prefix_violation.is_none() {
            let k = trie.first_violation(&checks);
            let i = table.row_path_at(row.clone(), base + k);
            let pos = base + k + 1 - table.hops_of(i).start;
            first_prefix_violation = Some(Site {
                pair: (src, table.dst_at(i)),
                pos,
                node: links.dst(table.path_at(i).channels()[pos - 1]),
            });
        }
    }
    let suffixes = Suffixes::sweep(&links, table, &mut trie, &mut checks);
    let (unrouted_pairs, first_unrouted) = unrouted.finish();
    let prefix_closed = prefix_violations == 0;
    let suffix_closed = suffixes.violations == 0;
    let node_simple = revisiting_paths == 0;
    PropertyReport {
        total: unrouted_pairs == 0,
        minimal: nonminimal_pairs == 0,
        prefix_closed,
        suffix_closed,
        node_simple,
        coherent: prefix_closed && suffix_closed && node_simple,
        node_function: suffixes.node_function,
        down_up,
        multi_hop_paths,
        unrouted_pairs,
        first_unrouted,
        nonminimal_pairs,
        worst_detour,
        prefix_violations,
        first_prefix_violation,
        suffix_violations: suffixes.violations,
        first_suffix_violation: suffixes.first,
        revisiting_paths,
        first_revisit,
        dead_tails,
    }
}

/// The destination-major half of [`analyze`]: Definition 8 and the
/// `R : N × N → C` test, one destination at a time.
struct Suffixes {
    violations: usize,
    first: Option<Site>,
    node_function: bool,
}

impl Suffixes {
    /// Sweep the table's columns, [`Suffixes::BLOCK`] destinations at
    /// a time. Rows list their paths by ascending destination, so a
    /// row's paths into a block of consecutive destinations are
    /// contiguous: one cursor per row walks them in step with the
    /// blocks, copying each path into its column's buffer, which then
    /// lists the column's paths in ascending source order. Partial rows
    /// cost no lookups, and the table is read in runs instead of one
    /// path at a time.
    ///
    /// Per column, the paths enter the destination's suffix trie back
    /// to front; then every interior position other than the
    /// destination checks that its suffix's trie node is where a table
    /// path ends, which makes the suffix the registered path from that
    /// position's node.
    fn sweep(links: &Links, table: &TableRouting, trie: &mut Trie, checks: &mut Vec<u32>) -> Self {
        let n = links.nodes;
        let rows = table.row_count();
        // Per row: the first path not yet swept.
        let mut cursor: Vec<usize> = (0..rows).map(|s| table.row(s).start).collect();
        let mut columns: Vec<Column> = (0..Self::BLOCK).map(|_| Column::default()).collect();
        // The channel each node takes toward the current destination,
        // tagged with that destination.
        let mut choice: Vec<(u32, u32)> = vec![(u32::MAX, 0); n];
        let mut out = Suffixes {
            violations: 0,
            first: None,
            node_function: true,
        };
        for d0 in (0..n).step_by(Self::BLOCK) {
            let block = &mut columns[..Self::BLOCK.min(n - d0)];
            for column in block.iter_mut() {
                column.hops.clear();
                column.starts.clear();
            }
            for (s, next) in cursor.iter_mut().enumerate() {
                let end = table.row(s).end;
                while *next < end {
                    let Some(column) = block.get_mut(table.dst_at(*next).index() - d0) else {
                        break;
                    };
                    column.starts.push(column.hops.len());
                    column
                        .hops
                        .extend_from_slice(table.path_at(*next).channels());
                    *next += 1;
                }
            }
            for (j, column) in block.iter_mut().enumerate() {
                if !column.hops.is_empty() {
                    column.starts.push(column.hops.len());
                    let dst = NodeId::from_index(d0 + j);
                    out.column(links, dst, column, trie, checks, &mut choice);
                }
            }
        }
        out
    }

    /// Destinations per block of the column sweep.
    const BLOCK: usize = 16;

    /// Check one column: the paths to `dst`.
    fn column(
        &mut self,
        links: &Links,
        dst: NodeId,
        column: &Column,
        trie: &mut Trie,
        checks: &mut Vec<u32>,
        choice: &mut [(u32, u32)],
    ) {
        let hops = &column.hops;
        let d = dst.index() as u32;
        trie.reset(hops.len());
        // Per hop: the suffix's trie node where Definition 8
        // constrains it.
        checks.clear();
        checks.resize(hops.len(), Trie::UNCHECKED);
        for w in column.starts.windows(2) {
            let mut node = Trie::ROOT;
            for at in (w[0]..w[1]).rev() {
                let c = hops[at];
                let v = links.src(c);
                node = trie.child(node, c);
                if self.node_function {
                    let slot = &mut choice[v.index()];
                    if slot.0 != d {
                        *slot = (d, c.index() as u32);
                    }
                    self.node_function = slot.1 == c.index() as u32;
                }
                // The suffix from the destination itself is empty.
                if at > w[0] && v != dst {
                    checks[at] = node;
                }
            }
            trie.end(node);
        }
        // A hop's check is its suffix's trie node.
        let violations = trie.violations(checks);
        self.violations += violations;
        if violations > 0 {
            let at = trie.first_violation(checks);
            let start = column.starts[column.starts.partition_point(|&s| s <= at) - 1];
            let src = links.src(hops[start]);
            // The column's first violation is its first in table
            // order; the sweep keeps the earliest pair.
            if self.first.is_none_or(|f| (src, dst) < f.pair) {
                self.first = Some(Site {
                    pair: (src, dst),
                    pos: at - start,
                    node: links.src(hops[at]),
                });
            }
        }
    }
}

/// One column of a block: its paths' channels, path after path in
/// ascending source order, and where each path starts (then one
/// closing entry).
#[derive(Default)]
struct Column {
    hops: Vec<ChannelId>,
    starts: Vec<usize>,
}

/// Every channel's endpoints as two `u32` arrays: the source-major
/// sweep reads one destination per hop, the destination-major sweep
/// one source.
struct Links {
    nodes: usize,
    srcs: Vec<u32>,
    dsts: Vec<u32>,
}

impl Links {
    fn new(net: &Network) -> Self {
        let id = |v: NodeId| v.index() as u32;
        Links {
            nodes: net.node_count(),
            srcs: net.channels().map(|c| id(c.src())).collect(),
            dsts: net.channels().map(|c| id(c.dst())).collect(),
        }
    }

    #[inline]
    fn src(&self, c: ChannelId) -> NodeId {
        NodeId::from_index(self.srcs[c.index()] as usize)
    }

    #[inline]
    fn dst(&self, c: ChannelId) -> NodeId {
        NodeId::from_index(self.dsts[c.index()] as usize)
    }
}

/// The sub-paths of one row's (or one column's) paths, as a trie over
/// channels: a node per distinct prefix (or suffix), numbered in order
/// of discovery and flagged when a table path ends there, found through
/// an open-addressing table keyed by `(parent, channel)`, so each step
/// is O(1) expected. Slots carry the generation of the row (or column)
/// that wrote them, so a new row clears nothing but its end flags.
#[derive(Default)]
struct Trie {
    slots: Vec<Slot>,
    /// `64 - log2(slots.len())`, for Fibonacci hashing.
    shift: u32,
    /// Per trie node: whether a table path ends there.
    ends: Vec<bool>,
    /// Tells the current row's (or column's) slots from earlier ones.
    generation: u32,
}

/// One sub-path: `parent + 1` (0 for the root) in the key's high half,
/// the channel in its low half, and its trie node.
#[derive(Clone, Copy, Default)]
struct Slot {
    key: u64,
    node: u32,
    generation: u32,
}

impl Trie {
    /// The empty sub-path.
    const ROOT: u32 = u32::MAX;
    /// A position no check constrains.
    const UNCHECKED: u32 = u32::MAX;

    /// Start a new trie for paths with `hops` channels in all.
    fn reset(&mut self, hops: usize) {
        let slots = (2 * hops).next_power_of_two().max(2);
        if self.slots.len() < slots {
            self.slots = vec![Slot::default(); slots];
            self.shift = 64 - slots.trailing_zeros();
            self.generation = 0;
        }
        if self.generation == u32::MAX {
            self.slots.fill(Slot::default());
            self.generation = 0;
        }
        self.generation += 1;
        self.ends.clear();
    }

    /// The node one channel below `parent`, added if new.
    fn child(&mut self, parent: u32, c: ChannelId) -> u32 {
        let up = if parent == Self::ROOT {
            0
        } else {
            u64::from(parent) + 1
        };
        self.probe(up << 32 | c.index() as u64)
    }

    /// The trie node of the slot holding `key`, claimed (with a new
    /// node) if none does.
    fn probe(&mut self, key: u64) -> u32 {
        let mask = self.slots.len() - 1;
        let mut i = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
        loop {
            let slot = &mut self.slots[i];
            if slot.generation != self.generation {
                *slot = Slot {
                    key,
                    node: self.ends.len() as u32,
                    generation: self.generation,
                };
                self.ends.push(false);
                return slot.node;
            }
            if slot.key == key {
                return slot.node;
            }
            i = (i + 1) & mask;
        }
    }

    /// Mark `node` as where a table path ends.
    fn end(&mut self, node: u32) {
        self.ends[node as usize] = true;
    }

    /// Whether a table path ends at `node`.
    fn is_end(&self, node: u32) -> bool {
        self.ends[node as usize]
    }

    /// Whether `check`, a sub-path's trie node or `UNCHECKED`, names a
    /// sub-path that no table path registers.
    fn violates(&self, check: u32) -> bool {
        check != Self::UNCHECKED && !self.is_end(check)
    }

    /// How many of `checks` are violations.
    fn violations(&self, checks: &[u32]) -> usize {
        checks.iter().filter(|&&c| self.violates(c)).count()
    }

    /// The position of the first violation in `checks`.
    fn first_violation(&self, checks: &[u32]) -> usize {
        checks
            .iter()
            .position(|&c| self.violates(c))
            .expect("a violation to find")
    }
}

/// Hop distances over the node graph, with parallel channels (lanes)
/// merged, from 64 sources at a time: one multi-source BFS per batch
/// keeps each node's frontier and seen sets as one `u64` bit per
/// source (Then et al., *The More the Merrier*, PVLDB 2014). The table
/// iterates in `(src, dst)` order, so each batch is searched once.
struct Distances {
    succ: Successors,
    /// The first source of the searched batch.
    batch: Option<usize>,
    /// `dist[i * n + v]`: the distance from the batch's `i`-th source.
    dist: Vec<u32>,
    seen: Vec<u64>,
    frontier: Vec<u64>,
    next: Vec<u64>,
}

impl Distances {
    const UNREACHED: u32 = u32::MAX;
    const BATCH: usize = 64;

    fn new(net: &Network) -> Self {
        let n = net.node_count();
        Distances {
            succ: Successors::new(net),
            batch: None,
            dist: Vec::new(),
            seen: vec![0; n],
            frontier: vec![0; n],
            next: vec![0; n],
        }
    }

    /// Hop distance from `src` to `dst`; `usize::MAX` if unreachable.
    fn get(&mut self, src: NodeId, dst: NodeId) -> usize {
        let first = src.index() / Self::BATCH * Self::BATCH;
        if self.batch != Some(first) {
            self.search(first);
        }
        let n = self.seen.len();
        match self.dist[(src.index() - first) * n + dst.index()] {
            Self::UNREACHED => usize::MAX,
            d => d as usize,
        }
    }

    /// One BFS from the sources `first..first + 64` (fewer at the end).
    fn search(&mut self, first: usize) {
        let n = self.seen.len();
        let width = Self::BATCH.min(n - first);
        self.batch = Some(first);
        self.dist.clear();
        self.dist.resize(width * n, Self::UNREACHED);
        self.seen.fill(0);
        self.frontier.fill(0);
        for i in 0..width {
            self.seen[first + i] = 1 << i;
            self.frontier[first + i] = 1 << i;
            self.dist[i * n + first + i] = 0;
        }
        let mut level = 0;
        loop {
            level += 1;
            self.next.fill(0);
            for v in 0..n {
                let bits = self.frontier[v];
                if bits != 0 {
                    for &w in self.succ.of(NodeId::from_index(v)) {
                        self.next[w as usize] |= bits;
                    }
                }
            }
            let mut grew = false;
            for w in 0..n {
                let mut new = self.next[w] & !self.seen[w];
                self.frontier[w] = new;
                if new == 0 {
                    continue;
                }
                grew = true;
                self.seen[w] |= new;
                while new != 0 {
                    let i = new.trailing_zeros() as usize;
                    self.dist[i * n + w] = level;
                    new &= new - 1;
                }
            }
            if !grew {
                break;
            }
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
        if rank > self.next {
            self.gap(rank);
        }
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
        let table = TableRouting::build(&net, |path, s, d| {
            path.node(s);
            let mut i = s.index();
            while nodes[i] != d {
                i = (i + 1) % 4;
                path.node(nodes[i]);
            }
            Some(())
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
        let table = TableRouting::build(&net, |path, s, d| {
            let (si, di) = (s.index(), d.index());
            let walk: Vec<NodeId> = if si < di {
                (si..=di).map(|i| nodes[i]).collect()
            } else {
                (di..=si).rev().map(|i| nodes[i]).collect()
            };
            path.walk(&walk);
            Some(())
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
    fn empty_table_is_vacuously_closed() {
        let (net, _) = line(3);
        let table = TableRouting::new();
        assert!(is_prefix_closed(&net, &table));
        assert!(is_suffix_closed(&net, &table));
        assert!(is_minimal(&net, &table));
        assert!(!analyze(&net, &table).total);
    }
}
