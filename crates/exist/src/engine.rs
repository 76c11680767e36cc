//! The existence engine: SCC decomposition, per-component
//! certificate search from both sides, composition across the
//! condensation, and self-verification of every winning order.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use wormnet::graph::{tarjan_scc, Digraph};
use wormnet::{ChannelId, Network, NodeId};

use crate::reach::replay;
use crate::report::{
    ComponentWitness, ExistenceReport, ExistenceVerdict, Obstruction, ObstructionKind, Witness,
    WitnessKind,
};
use crate::schedule::ExactOutcome;
use crate::{branchings, obstruction, schedule};

/// Certificate-search budget. The default decides every topology in
/// the repository's corpus and bench suite; raising it only widens the
/// band where `Unknown` turns into a certificate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExistOptions {
    /// Game-state budget for one exhaustive decision (the spec's
    /// `max_states`).
    pub exact_states: u64,
}

impl Default for ExistOptions {
    fn default() -> Self {
        ExistOptions {
            exact_states: 2_000_000,
        }
    }
}

/// Largest component (in channels) the greedy scheduler attempts.
const GREEDY_LIMIT: usize = 1_500;

/// Largest component (in channels) the exhaustive game decides.
const EXACT_CHANNELS: usize = 14;

/// One strongly connected component of the live node graph, with its
/// internal live channels re-indexed to dense local ids.
pub(crate) struct Component {
    /// Global node indices, ascending.
    pub nodes: Vec<usize>,
    /// Internal live channels, ascending by id.
    pub channels: Vec<ChannelId>,
    /// Local `(src, dst)` endpoints, parallel to `channels`.
    pub ends: Vec<(usize, usize)>,
}

impl Component {
    pub(crate) fn n(&self) -> usize {
        self.nodes.len()
    }

    pub(crate) fn m(&self) -> usize {
        self.channels.len()
    }

    /// Local out-adjacency: channel indices by local source node, in
    /// ascending channel order.
    pub(crate) fn out_adj(&self) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); self.n()];
        for (e, &(src, _)) in self.ends.iter().enumerate() {
            adj[src].push(e);
        }
        adj
    }

    /// Local in-adjacency: channel indices by local destination node.
    pub(crate) fn in_adj(&self) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); self.n()];
        for (e, &(_, dst)) in self.ends.iter().enumerate() {
            adj[dst].push(e);
        }
        adj
    }
}

/// The live node graph (down channels masked out) as a [`Digraph`].
struct LiveGraph<'a> {
    net: &'a Network,
    alive: &'a [bool],
}

impl Digraph for LiveGraph<'_> {
    fn vertex_count(&self) -> usize {
        self.net.node_count()
    }

    fn successors(&self, v: usize) -> Vec<usize> {
        self.net
            .out_channels(NodeId::from_index(v))
            .iter()
            .filter(|c| self.alive[c.index()])
            .map(|&c| self.net.channel(c).dst().index())
            .collect()
    }
}

/// SCCs of the live node graph, each sorted ascending, the list
/// sorted by smallest member — a deterministic component numbering
/// independent of the SCC algorithm's emission order.
pub(crate) fn live_sccs(net: &Network, alive: &[bool]) -> Vec<Vec<usize>> {
    let mut sccs = tarjan_scc(&LiveGraph { net, alive });
    for scc in &mut sccs {
        scc.sort_unstable();
    }
    sccs.sort_unstable_by_key(|scc| scc[0]);
    sccs
}

/// Extract the component for one SCC (sorted global node indices).
pub(crate) fn build_component(net: &Network, alive: &[bool], nodes: &[usize]) -> Component {
    let mut local = vec![usize::MAX; net.node_count()];
    for (i, &v) in nodes.iter().enumerate() {
        local[v] = i;
    }
    let mut channels = Vec::new();
    let mut ends = Vec::new();
    for c in net.channels() {
        if !alive[c.id().index()] {
            continue;
        }
        let (s, d) = (local[c.src().index()], local[c.dst().index()]);
        if s != usize::MAX && d != usize::MAX {
            channels.push(c.id());
            ends.push((s, d));
        }
    }
    Component {
        nodes: nodes.to_vec(),
        channels,
        ends,
    }
}

enum Outcome {
    Win {
        kind: WitnessKind,
        order: Vec<ChannelId>,
    },
    No(Obstruction),
    Undecided,
}

/// Extend a winning prefix (local channel indices) with every unused
/// channel, ascending — extra processing is monotone, so a winning
/// prefix stays winning and the final order covers every internal
/// channel exactly once.
fn extend(prefix: Vec<usize>, m: usize) -> Vec<usize> {
    let mut seen = vec![false; m];
    let mut order = prefix;
    for &e in &order {
        seen[e] = true;
    }
    order.extend((0..m).filter(|&e| !seen[e]));
    order
}

/// Replay a full local order and check all-pairs coverage — the
/// authority every heuristic answers to.
fn verify_local(comp: &Component, order: &[usize]) -> bool {
    let members: Vec<usize> = (0..comp.n()).collect();
    replay(comp.n(), order.iter().map(|&e| comp.ends[e])).covers_all_pairs(&members)
}

fn obstruct(comp: &Component, kind: ObstructionKind) -> Obstruction {
    Obstruction {
        kind,
        nodes: comp.nodes.iter().map(|&v| NodeId::from_index(v)).collect(),
        channels: comp.channels.clone(),
    }
}

fn decide(comp: &Component, opts: &ExistOptions) -> Outcome {
    let n = comp.n();
    let m = comp.m();
    let win = |kind: WitnessKind, prefix: Vec<usize>| -> Outcome {
        let order = extend(prefix, m);
        if verify_local(comp, &order) {
            Outcome::Win {
                kind,
                order: order.iter().map(|&e| comp.channels[e]).collect(),
            }
        } else {
            // A certifier produced a bogus order — an engine bug, but
            // soundness is preserved by refusing the certificate.
            debug_assert!(false, "unverified winning order");
            wormtrace::counter("exist.verify_failed", 1);
            Outcome::Undecided
        }
    };
    if n <= 2 {
        wormtrace::counter("exist.trivial", 1);
        return win(WitnessKind::Trivial, Vec::new());
    }
    if let Some(kind) = obstruction::deficiency(comp) {
        wormtrace::counter("exist.deficiency", 1);
        return Outcome::No(obstruct(comp, kind));
    }
    if let Some(cycle) = obstruction::precedence_cycle(comp) {
        wormtrace::counter("exist.precedence", 1);
        let cycle = cycle.iter().map(|&e| comp.channels[e]).collect();
        return Outcome::No(obstruct(comp, ObstructionKind::PrecedenceCycle { cycle }));
    }
    if let Some((root, prefix)) = branchings::hub_order(comp) {
        if let Outcome::Win { kind, order } = win(
            WitnessKind::Branchings {
                root: NodeId::from_index(comp.nodes[root]),
            },
            prefix,
        ) {
            wormtrace::counter("exist.branchings", 1);
            return Outcome::Win { kind, order };
        }
    }
    if m <= GREEDY_LIMIT {
        if let Some(prefix) = schedule::greedy_order(comp) {
            if let Outcome::Win { kind, order } = win(WitnessKind::Schedule, prefix) {
                wormtrace::counter("exist.greedy", 1);
                return Outcome::Win { kind, order };
            }
        }
    }
    if m <= EXACT_CHANNELS && n <= 16 {
        match schedule::exact_order(comp, opts.exact_states) {
            ExactOutcome::Win(prefix) => {
                if let Outcome::Win { kind, order } = win(WitnessKind::Exact, prefix) {
                    wormtrace::counter("exist.exact_wins", 1);
                    return Outcome::Win { kind, order };
                }
            }
            ExactOutcome::Refuted { states } => {
                wormtrace::counter("exist.exact_refutes", 1);
                wormtrace::counter("exist.exact_states", states);
                return Outcome::No(obstruct(comp, ObstructionKind::Exhausted { states }));
            }
            ExactOutcome::Budget { states } => {
                wormtrace::counter("exist.exact_states", states);
            }
        }
    }
    wormtrace::counter("exist.undecided_components", 1);
    Outcome::Undecided
}

/// Decide existence for the intact network. See [`analyze_masked`].
pub fn analyze(net: &Network, opts: &ExistOptions) -> ExistenceReport {
    analyze_masked(net, &[], opts)
}

/// Decide whether any complete deadlock-free (acyclic-CDG) routing
/// exists over the live part of `net` — the channels not listed in
/// `down` — for every ordered pair the live graph still connects.
///
/// The answer is two-sided (see the crate docs): `Exists` ships a
/// replay-verified channel schedule, `Impossible` ships an
/// obstruction that [`crate::check_obstruction`] re-validates in
/// isolation, and `Unknown` means the budgets in `opts` ran out with
/// no certificate from either side.
pub fn analyze_masked(net: &Network, down: &[ChannelId], opts: &ExistOptions) -> ExistenceReport {
    let _span = wormtrace::span("exist.analyze");
    wormtrace::counter("exist.runs", 1);
    let n = net.node_count();
    let mut alive = vec![true; net.channel_count()];
    for c in down {
        alive[c.index()] = false;
    }
    let mut down: Vec<ChannelId> = down.to_vec();
    down.sort_unstable();
    down.dedup();
    let live_channels = alive.iter().filter(|&&a| a).count();
    wormtrace::counter("exist.channels", live_channels as u64);

    // Deterministic SCC numbering and condensation topological order.
    let sccs = live_sccs(net, &alive);
    let k = sccs.len();
    let mut scc_of = vec![0usize; n];
    for (i, scc) in sccs.iter().enumerate() {
        for &v in scc {
            scc_of[v] = i;
        }
    }
    let mut cond: Vec<Vec<usize>> = vec![Vec::new(); k];
    let mut cross_in: Vec<Vec<ChannelId>> = vec![Vec::new(); k];
    for c in net.channels() {
        if !alive[c.id().index()] {
            continue;
        }
        let (a, b) = (scc_of[c.src().index()], scc_of[c.dst().index()]);
        if a != b {
            cond[a].push(b);
            cross_in[b].push(c.id());
        }
    }
    for succs in &mut cond {
        succs.sort_unstable();
        succs.dedup();
    }
    let mut indeg = vec![0usize; k];
    for succs in &cond {
        for &b in succs {
            indeg[b] += 1;
        }
    }
    let mut heap: BinaryHeap<Reverse<usize>> =
        (0..k).filter(|&b| indeg[b] == 0).map(Reverse).collect();
    let mut topo = Vec::with_capacity(k);
    while let Some(Reverse(a)) = heap.pop() {
        topo.push(a);
        for &b in &cond[a] {
            indeg[b] -= 1;
            if indeg[b] == 0 {
                heap.push(Reverse(b));
            }
        }
    }
    debug_assert_eq!(topo.len(), k, "condensation must be acyclic");

    // Reachable-demand count from the condensation closure: for every
    // component, which components reach it, hence which sources reach
    // each of its nodes.
    let words_n = n.div_ceil(64).max(1);
    let words_k = k.div_ceil(64).max(1);
    let mut closure = vec![0u64; k * words_k];
    for &b in &topo {
        closure[b * words_k + b / 64] |= 1u64 << (b % 64);
    }
    for &a in &topo {
        for &b in &cond[a] {
            for w in 0..words_k {
                let bits = closure[a * words_k + w];
                closure[b * words_k + w] |= bits;
            }
        }
    }
    let mut scc_mask = vec![0u64; k * words_n];
    for (i, scc) in sccs.iter().enumerate() {
        for &v in scc {
            scc_mask[i * words_n + v / 64] |= 1u64 << (v % 64);
        }
    }
    let mut expected = vec![0u64; k * words_n];
    for b in 0..k {
        for w in 0..words_k {
            let mut bits = closure[b * words_k + w];
            while bits != 0 {
                let a = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                for wn in 0..words_n {
                    let m = scc_mask[a * words_n + wn];
                    expected[b * words_n + wn] |= m;
                }
            }
        }
    }
    let demands: usize = (0..k)
        .map(|b| {
            let sources: usize = (0..words_n)
                .map(|w| expected[b * words_n + w].count_ones() as usize)
                .sum();
            sources.saturating_sub(1) * sccs[b].len()
        })
        .sum();

    // Decide every nontrivial component.
    let mut outcomes: Vec<Option<Outcome>> = Vec::with_capacity(k);
    let mut nontrivial = 0usize;
    for scc in &sccs {
        if scc.len() < 2 {
            outcomes.push(None);
            continue;
        }
        nontrivial += 1;
        let comp = build_component(net, &alive, scc);
        outcomes.push(Some(decide(&comp, opts)));
    }
    wormtrace::counter("exist.components", nontrivial as u64);

    let base = |verdict: ExistenceVerdict| ExistenceReport {
        verdict,
        demands,
        sccs: k,
        components: nontrivial,
        down: down.clone(),
        witness: None,
        obstruction: None,
    };

    // First obstruction (by component numbering) wins; otherwise any
    // undecided component degrades the verdict to unknown.
    if let Some(obs) = outcomes.iter().flatten().find_map(|o| match o {
        Outcome::No(obs) => Some(obs.clone()),
        _ => None,
    }) {
        wormtrace::counter("exist.impossible", 1);
        let mut report = base(ExistenceVerdict::Impossible);
        report.obstruction = Some(obs);
        return report;
    }
    if outcomes
        .iter()
        .flatten()
        .any(|o| matches!(o, Outcome::Undecided))
    {
        wormtrace::counter("exist.unknown", 1);
        return base(ExistenceVerdict::Unknown);
    }

    // Compose: per component in condensation topological order, the
    // crossing channels into it (their sources finished earlier),
    // then its internal winning order.
    let mut order: Vec<ChannelId> = Vec::with_capacity(live_channels);
    let mut components = Vec::with_capacity(nontrivial);
    for &b in &topo {
        order.extend(cross_in[b].iter().copied());
        if let Some(Outcome::Win {
            kind,
            order: comp_order,
        }) = &outcomes[b]
        {
            components.push(ComponentWitness {
                kind: *kind,
                nodes: sccs[b].len(),
                channels: comp_order.len(),
            });
            order.extend(comp_order.iter().copied());
        }
    }
    debug_assert_eq!(order.len(), live_channels);

    // Self-verify the composed schedule: replay must cover exactly
    // the reachable pairs. Soundness does not rest on the composition
    // argument being right — a failed replay refuses the certificate.
    let game = replay(
        n,
        order.iter().map(|&c| {
            let ch = net.channel(c);
            (ch.src().index(), ch.dst().index())
        }),
    );
    for (t, &b) in scc_of.iter().enumerate().take(n) {
        let row = game.row(t);
        for w in 0..words_n {
            if expected[b * words_n + w] & !row[w] != 0 {
                debug_assert!(false, "composed schedule missed a reachable pair");
                wormtrace::counter("exist.verify_failed", 1);
                return base(ExistenceVerdict::Unknown);
            }
        }
    }

    wormtrace::counter("exist.exists", 1);
    let mut report = base(ExistenceVerdict::Exists);
    report.witness = Some(Witness { order, components });
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check_obstruction, witness_table, ObstructionKind, WitnessKind};

    fn ring(n: usize, lanes: &[u8], bidi: bool) -> Network {
        let mut net = Network::new();
        let nodes = net.add_nodes("r", n);
        for i in 0..n {
            let j = (i + 1) % n;
            for &vc in lanes {
                net.add_channel_vc(nodes[i], nodes[j], vc);
                if bidi {
                    net.add_channel_vc(nodes[j], nodes[i], vc);
                }
            }
        }
        net
    }

    /// Every path in the materialised table must strictly ascend in
    /// the witness order — the CDG-acyclicity argument, checked raw.
    fn assert_witness_certifies(net: &Network, report: &ExistenceReport) {
        let witness = report.witness.as_ref().expect("exists must ship a witness");
        assert_eq!(witness.order.len(), net.channel_count() - report.down.len());
        let mut pos = vec![usize::MAX; net.channel_count()];
        for (i, &c) in witness.order.iter().enumerate() {
            assert_eq!(pos[c.index()], usize::MAX, "channel repeated in order");
            pos[c.index()] = i;
        }
        let table = witness_table(net, witness).expect("witness materialises");
        assert_eq!(table.len(), report.demands, "one path per reachable pair");
        for ((src, _), path) in table.iter() {
            assert!(path.is_node_simple(net), "witness paths are node-simple");
            assert_eq!(path.src(net), src);
            for w in path.channels().windows(2) {
                assert!(
                    pos[w[0].index()] < pos[w[1].index()],
                    "path channels must ascend in the schedule"
                );
            }
        }
    }

    #[test]
    fn single_lane_directed_ring_is_impossible_by_deficiency() {
        for n in [3usize, 4, 7] {
            let net = ring(n, &[0], false);
            let report = analyze(&net, &ExistOptions::default());
            assert_eq!(report.verdict, ExistenceVerdict::Impossible, "ring {n}");
            assert_eq!(report.demands, n * (n - 1));
            let obs = report.obstruction.expect("impossible ships an obstruction");
            assert_eq!(
                obs.kind,
                ObstructionKind::Deficiency {
                    required: 2 * n - 2
                }
            );
            assert_eq!(obs.channels.len(), n);
            assert!(check_obstruction(&net, &[], &obs));
        }
    }

    #[test]
    fn bidirectional_ring_exists_via_branchings() {
        let net = ring(5, &[0], true);
        let report = analyze(&net, &ExistOptions::default());
        assert_eq!(report.verdict, ExistenceVerdict::Exists);
        assert_eq!(report.demands, 20);
        assert_eq!(report.sccs, 1);
        let w = report.witness.as_ref().unwrap();
        assert_eq!(w.components.len(), 1);
        assert!(matches!(
            w.components[0].kind,
            WitnessKind::Branchings { .. }
        ));
        assert_witness_certifies(&net, &report);
    }

    #[test]
    fn two_lane_unidirectional_ring_exists() {
        // The dateline construction's skeleton: one lane in-bound to
        // the hub, the other out-bound.
        let net = ring(6, &[0, 1], false);
        let report = analyze(&net, &ExistOptions::default());
        assert_eq!(report.verdict, ExistenceVerdict::Exists);
        assert_witness_certifies(&net, &report);
    }

    #[test]
    fn chorded_directed_triangle_exists() {
        // C3 plus the chord (0 -> 2): exactly 2n - 2 channels, and a
        // winning schedule exists — the counting bound is tight.
        let mut net = Network::new();
        let v = net.add_nodes("r", 3);
        net.add_channel(v[0], v[1]);
        net.add_channel(v[1], v[2]);
        net.add_channel(v[2], v[0]);
        net.add_channel(v[0], v[2]);
        let report = analyze(&net, &ExistOptions::default());
        assert_eq!(report.verdict, ExistenceVerdict::Exists);
        assert_witness_certifies(&net, &report);
    }

    #[test]
    fn forced_precedence_cycle_is_impossible_despite_enough_channels() {
        // Directed 4-cycle plus back-channels (1 -> 0) and (3 -> 2):
        // m = 2n - 2 = 6 passes the counting bound, but node 2's only
        // exit must fire before node 1's only entrance and vice
        // versa.
        let mut net = Network::new();
        let v = net.add_nodes("r", 4);
        let c0 = net.add_channel(v[0], v[1]);
        net.add_channel(v[1], v[2]);
        let c2 = net.add_channel(v[2], v[3]);
        net.add_channel(v[3], v[0]);
        net.add_channel(v[1], v[0]);
        net.add_channel(v[3], v[2]);
        let report = analyze(&net, &ExistOptions::default());
        assert_eq!(report.verdict, ExistenceVerdict::Impossible);
        let obs = report.obstruction.expect("obstruction");
        match &obs.kind {
            ObstructionKind::PrecedenceCycle { cycle } => {
                assert!(cycle.contains(&c0) && cycle.contains(&c2), "{cycle:?}");
            }
            other => panic!("expected a precedence cycle, got {other:?}"),
        }
        assert!(check_obstruction(&net, &[], &obs));
        assert!(
            !check_obstruction(&net, &[c0], &obs),
            "obstruction must not validate against a different mask"
        );
    }

    #[test]
    fn masked_ring_with_one_direction_down_still_exists() {
        let net = ring(4, &[0], true);
        let down = [net
            .find_channel(NodeId::from_index(0), NodeId::from_index(1))
            .unwrap()];
        let report = analyze_masked(&net, &down, &ExistOptions::default());
        assert_eq!(report.verdict, ExistenceVerdict::Exists);
        assert_eq!(report.down, down.to_vec());
        assert_eq!(report.demands, 12, "still strongly connected");
        assert_witness_certifies(&net, &report);
    }

    #[test]
    fn masked_split_covers_only_reachable_pairs() {
        // Cutting both directions of two opposite ring links leaves
        // two 2-node components with no cross traffic possible.
        let net = ring(4, &[0], true);
        let pair = |a: usize, b: usize| {
            net.find_channel(NodeId::from_index(a), NodeId::from_index(b))
                .unwrap()
        };
        let down = [pair(0, 1), pair(1, 0), pair(2, 3), pair(3, 2)];
        let report = analyze_masked(&net, &down, &ExistOptions::default());
        assert_eq!(report.verdict, ExistenceVerdict::Exists);
        assert_eq!(report.sccs, 2);
        assert_eq!(report.components, 2);
        assert_eq!(report.demands, 4);
        assert_witness_certifies(&net, &report);
    }

    #[test]
    fn exact_game_decides_the_triangle_both_ways() {
        let mut net = Network::new();
        let v = net.add_nodes("r", 3);
        net.add_channel(v[0], v[1]);
        net.add_channel(v[1], v[2]);
        net.add_channel(v[2], v[0]);
        let alive = vec![true; net.channel_count()];
        let comp = build_component(&net, &alive, &[0, 1, 2]);
        assert!(matches!(
            schedule::exact_order(&comp, 1 << 20),
            ExactOutcome::Refuted { .. }
        ));
        let mut chorded = net;
        let v2 = NodeId::from_index(2);
        chorded.add_channel(NodeId::from_index(0), v2);
        let alive = vec![true; chorded.channel_count()];
        let comp = build_component(&chorded, &alive, &[0, 1, 2]);
        match schedule::exact_order(&comp, 1 << 20) {
            ExactOutcome::Win(prefix) => {
                let order = extend(prefix, comp.m());
                assert!(verify_local(&comp, &order));
            }
            _ => panic!("chorded triangle must be exactly routable"),
        }
    }
}
