//! The state-space exploration itself.

use std::sync::Arc;
use std::time::Instant;

use wormnet::ChannelId;
use wormsim::{
    Decisions, MessageId, Sim, SimState, StateArena, StateCodec, StepScratch, StepTally,
};

use crate::canon::{CanonScratch, Canonicalizer, IdentityCanonicalizer};
use crate::options::{ChoiceBuf, Options};
use crate::verdict::{SearchMetrics, SearchResult, Verdict, Witness};
use crate::visited::VisitedSet;

/// Search parameters.
#[derive(Clone, Debug)]
pub struct SearchConfig {
    /// Total adversarial stall-cycles available across the whole run
    /// (0 reproduces the paper's base model: routers always forward
    /// when the output is free).
    pub stall_budget: u32,
    /// Maximum distinct states to visit before giving up with
    /// [`Verdict::Inconclusive`].
    pub max_states: usize,
    /// Channels that are permanently faulted: they never transmit,
    /// never accept a flit, and are never acquirable by a header — the
    /// search explores the degraded network's dynamics. A message
    /// blocked on a dead channel *starves* (it stops generating
    /// successor states) but does not deadlock: deadlock detection
    /// still requires a wait-for cycle through *owned* channels, so a
    /// [`Verdict::DeadlockFree`] on a faulted network certifies "no
    /// wait-for cycle", not "all messages delivered". Empty (the
    /// default) reproduces the fault-free search bit for bit.
    pub dead_channels: Vec<ChannelId>,
    /// Optional symmetry canonicalizer: visited-set keys become orbit
    /// representatives, so symmetric states are explored once (see
    /// [`crate::canon`] for the verdict-invariance argument). `None`
    /// (the default) keeps exact per-state keys and reproduces the
    /// uncanonicalized search bit for bit; with a canonicalizer the
    /// verdict is unchanged but the visited-state count shrinks by up
    /// to the symmetry group's order.
    pub canon: Option<Arc<dyn Canonicalizer>>,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            stall_budget: 0,
            max_states: 8_000_000,
            dead_channels: Vec::new(),
            canon: None,
        }
    }
}

impl SearchConfig {
    /// Config with a stall budget.
    pub fn with_stalls(budget: u32) -> Self {
        SearchConfig {
            stall_budget: budget,
            ..SearchConfig::default()
        }
    }

    /// Config with permanently-dead channels.
    pub fn with_dead_channels(dead: Vec<ChannelId>) -> Self {
        SearchConfig {
            dead_channels: dead,
            ..SearchConfig::default()
        }
    }

    /// Builder-style: attach a symmetry canonicalizer.
    pub fn canonicalized(mut self, canon: Arc<dyn Canonicalizer>) -> Self {
        self.canon = Some(canon);
        self
    }

    /// The configured canonicalizer, with identity filtered out (the
    /// engines treat an identity canonicalizer exactly like `None`).
    pub(crate) fn effective_canon(&self) -> Option<&dyn Canonicalizer> {
        self.canon.as_deref().filter(|c| !c.is_identity())
    }
}

/// The visited-set key words of a state: its canonical orbit key when
/// a canonicalizer is active, its plain packed key otherwise, written
/// into `scratch` and borrowed from it.
#[inline]
pub(crate) fn key_words<'s>(
    canon: Option<&dyn Canonicalizer>,
    codec: &StateCodec,
    state: &SimState,
    budget: u32,
    scratch: &'s mut CanonScratch,
) -> &'s [u64] {
    canon
        .unwrap_or(&IdentityCanonicalizer)
        .canonical_words(codec, state, budget, scratch)
}

/// A depth-first search's verdict plus its counts.
struct Dfs {
    verdict: Verdict,
    states: usize,
    metrics: SearchMetrics,
    /// The `sim.*` counters of every step taken.
    tally: StepTally,
}

/// One stack frame: a state, its stall budget, its options and the
/// next option to try. The option being explored below a frame is
/// `options[next - 1]`, which is how a witness is read off the stack.
struct Frame {
    state: SimState,
    budget: u32,
    options: Options,
    next: usize,
}

/// The depth-first search shared by [`explore`] and [`explore_until`]:
/// every new state is checked against `goal`, which returns the goal's
/// members when it is one.
///
/// Per explored edge it copies the parent into a pooled state, steps
/// it through [`Sim::step_with`] with the option's borrowed buffers,
/// and probes the flat visited set with the key words in `keys`: once
/// the pools are warm, only a new state's key copy and its options
/// touch memory that grows.
fn depth_first(
    sim: &Sim,
    config: &SearchConfig,
    canon: Option<&dyn Canonicalizer>,
    mut goal: impl FnMut(&SimState, &mut StepScratch) -> Option<Vec<MessageId>>,
) -> Dfs {
    let codec = StateCodec::new(sim, config.stall_budget);
    let dead = sim.channel_mask(&config.dead_channels);
    let mut keys = CanonScratch::new();
    let mut step = StepScratch::new();
    let mut choice = ChoiceBuf::default();
    let mut arena = StateArena::new();
    let mut pool: Vec<Options> = Vec::new();
    let mut metrics = SearchMetrics::default();
    let mut tally = StepTally::default();

    let initial = sim.initial_state();
    let root = key_words(canon, &codec, &initial, config.stall_budget, &mut keys);
    let mut visited = VisitedSet::new(root.len());
    visited.insert(root);
    let mut options = Options::default();
    options.fill(sim, &initial, config.stall_budget, &dead);
    let mut stack = vec![Frame {
        state: initial,
        budget: config.stall_budget,
        options,
        next: 0,
    }];

    let verdict = loop {
        let Some(frame) = stack.last_mut() else {
            break Verdict::DeadlockFree;
        };
        if frame.next >= frame.options.len() {
            let done = stack.pop().expect("a frame is on the stack");
            arena.give(done.state);
            pool.push(done.options);
            continue;
        }
        let i = frame.next;
        frame.next += 1;
        let mut state = arena.take_clone(&frame.state);
        let option = frame.options.choice(i, &mut choice, &dead);
        tally.absorb(sim.step_with(&mut state, option, &mut step));
        if !step.report().moved {
            // Nothing happened: a pure self-loop (possibly burning
            // stall budget) — always dominated, skip.
            arena.give(state);
            continue;
        }
        let budget = frame.budget - frame.options.stall_count(i);
        metrics.dedup_lookups += 1;
        if !visited.insert(key_words(canon, &codec, &state, budget, &mut keys)) {
            metrics.dedup_hits += 1;
            arena.give(state);
            continue;
        }
        if visited.len() > config.max_states {
            break Verdict::Inconclusive {
                states_visited: visited.len(),
            };
        }
        if let Some(members) = goal(&state, &mut step) {
            let decisions = stack
                .iter()
                .map(|f| f.options.decisions(f.next - 1, &config.dead_channels))
                .collect();
            break Verdict::DeadlockReachable(Witness { decisions, members });
        }
        if sim.all_delivered(&state) {
            // Terminal success state: no deadlock beyond here.
            arena.give(state);
            continue;
        }
        let mut options = pool.pop().unwrap_or_default();
        options.fill(sim, &state, budget, &dead);
        stack.push(Frame {
            state,
            budget,
            options,
            next: 0,
        });
        metrics.frontier_peak = metrics.frontier_peak.max(stack.len());
    };
    Dfs {
        verdict,
        states: visited.len(),
        metrics,
        tally,
    }
}

/// Exhaustively explore all adversary behaviours of `sim`.
///
/// Explores every injection schedule, every arbitration outcome, and
/// every stall placement within the budget. Returns a deadlock witness
/// if any interleaving deadlocks, or an exact deadlock-freedom verdict
/// for this message set.
pub fn explore(sim: &Sim, config: &SearchConfig) -> SearchResult {
    let start = Instant::now();
    let dfs = depth_first(sim, config, config.effective_canon(), |state, step| {
        sim.find_deadlock_with(state, step)
    });
    dfs.tally.publish();
    let mut metrics = dfs.metrics;
    metrics.elapsed = start.elapsed();
    metrics.finish(dfs.states);
    metrics.publish(dfs.states);
    SearchResult::new(dfs.verdict, dfs.states).with_metrics(metrics)
}

/// Exhaustively search for a state satisfying `target` instead of a
/// deadlock: the literal Definition 5 question — is this *specific*
/// configuration reachable from the empty network?
///
/// Used by `worm-core` to certify that a static deadlock candidate is
/// an unreachable configuration in the paper's exact sense (not merely
/// that no deadlock of any shape is reachable).
///
/// [`SearchConfig::canon`] is deliberately **ignored** here: the
/// target predicate asks about one specific configuration, and an
/// arbitrary predicate is not symmetry-invariant — quotienting the
/// visited set could prune the exact state being asked about while
/// keeping only its mirror.
pub fn explore_until(
    sim: &Sim,
    config: &SearchConfig,
    mut target: impl FnMut(&Sim, &SimState) -> bool,
) -> SearchResult {
    if target(sim, &sim.initial_state()) {
        return SearchResult::new(
            Verdict::DeadlockReachable(Witness {
                decisions: Vec::new(),
                members: Vec::new(),
            }),
            1,
        );
    }
    let dfs = depth_first(sim, config, None, |state, step| {
        target(sim, state).then(|| sim.find_deadlock_with(state, step).unwrap_or_default())
    });
    dfs.tally.publish();
    SearchResult::new(dfs.verdict, dfs.states)
}

/// Like [`explore`], but breadth-first, so a returned witness is a
/// *shortest* deadlock schedule (fewest cycles). Costs more memory
/// (parent pointers per state); use on small scenarios when the
/// witness will be shown to a human.
pub fn explore_shortest(sim: &Sim, config: &SearchConfig) -> SearchResult {
    use std::collections::VecDeque;
    let codec = StateCodec::new(sim, config.stall_budget);
    let dead = sim.channel_mask(&config.dead_channels);
    let mut words = Vec::new();
    let mut step = StepScratch::new();
    let mut choice = ChoiceBuf::default();
    let mut options = Options::default();
    let mut tally = StepTally::default();

    let initial = sim.initial_state();
    codec.pack_words(&initial, config.stall_budget, &mut words);
    let mut visited = VisitedSet::new(words.len());
    visited.insert(&words);

    // Each queue entry keeps the decision history from the root; state
    // spaces here are small enough that sharing via Vec clones is
    // acceptable and keeps the code obvious.
    let mut queue: VecDeque<(SimState, u32, Vec<Decisions>)> = VecDeque::new();
    queue.push_back((initial, config.stall_budget, Vec::new()));

    let verdict = 'search: loop {
        let Some((state, budget, history)) = queue.pop_front() else {
            break Verdict::DeadlockFree;
        };
        options.fill(sim, &state, budget, &dead);
        for i in 0..options.len() {
            let mut next = state.clone();
            let option = options.choice(i, &mut choice, &dead);
            tally.absorb(sim.step_with(&mut next, option, &mut step));
            if !step.report().moved {
                continue;
            }
            let next_budget = budget - options.stall_count(i);
            codec.pack_words(&next, next_budget, &mut words);
            if !visited.insert(&words) {
                continue;
            }
            if visited.len() > config.max_states {
                break 'search Verdict::Inconclusive {
                    states_visited: visited.len(),
                };
            }
            let mut next_history = history.clone();
            next_history.push(options.decisions(i, &config.dead_channels));
            if let Some(members) = sim.find_deadlock_with(&next, &mut step) {
                break 'search Verdict::DeadlockReachable(Witness {
                    decisions: next_history,
                    members,
                });
            }
            if !sim.all_delivered(&next) {
                queue.push_back((next, next_budget, next_history));
            }
        }
    };
    tally.publish();
    SearchResult::new(verdict, visited.len())
}

/// Smallest stall budget (up to `max_budget`) with which the adversary
/// can force a deadlock; `None` if even `max_budget` is insufficient.
/// The second component is the per-budget result trail.
pub fn min_stall_budget(
    sim: &Sim,
    max_budget: u32,
    max_states: usize,
) -> (Option<u32>, Vec<SearchResult>) {
    let mut trail = Vec::new();
    for budget in 0..=max_budget {
        let result = explore(
            sim,
            &SearchConfig {
                stall_budget: budget,
                max_states,
                ..SearchConfig::default()
            },
        );
        let found = result.verdict.is_deadlock();
        trail.push(result);
        if found {
            return (Some(budget), trail);
        }
    }
    (None, trail)
}

/// Replay a witness from the empty network; returns the deadlock
/// members found at the end (used to validate witnesses in tests and
/// reports).
pub fn replay(sim: &Sim, witness: &Witness) -> Option<Vec<MessageId>> {
    let mut state = sim.initial_state();
    for d in &witness.decisions {
        sim.step(&mut state, d);
    }
    sim.find_deadlock(&state)
}

/// Replay a witness while recording channel occupancy, and render the
/// channels × time grid (see [`wormsim::trace::TraceGrid`]) — a visual
/// proof of how the deadlock forms.
pub fn render_witness(sim: &Sim, net: &wormnet::Network, witness: &Witness) -> String {
    let mut state = sim.initial_state();
    let mut grid = wormsim::trace::TraceGrid::new(sim);
    grid.push(&state);
    for d in &witness.decisions {
        sim.step(&mut state, d);
        grid.push(&state);
    }
    grid.render(net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use wormnet::topology::{line, ring_unidirectional};
    use wormnet::NodeId;
    use wormroute::algorithms::{clockwise_ring, shortest_path_table};
    use wormsim::MessageSpec;

    /// The enumeration [`Options`] replaced, kept as its oracle: all
    /// decision combinations worth exploring from `state`. `dead`
    /// channels are never acquirable and are frozen in every emitted
    /// decision.
    fn decision_options(
        sim: &Sim,
        state: &SimState,
        budget: u32,
        dead: &[ChannelId],
    ) -> Vec<Decisions> {
        // Messages that could actually inject now: pending, and their
        // first channel is empty, unowned, and alive (others are no-ops —
        // a dead first channel means the message can never start).
        let injectable: Vec<MessageId> = sim
            .pending(state)
            .into_iter()
            .filter(|&m| {
                let c0 = sim.path(m)[0];
                state.channels[c0.index()].is_none() && !dead.contains(&c0)
            })
            .collect();
        // Messages an adversary could usefully stall: in flight.
        let stallable: Vec<MessageId> = sim
            .messages()
            .filter(|&m| state.is_started(m) && !state.is_delivered(m, sim.length(m)))
            .collect();

        assert!(
            injectable.len() <= 16 && stallable.len() <= 16,
            "search is meant for small scenarios"
        );

        let mut out = Vec::new();
        for inject in subsets(&injectable) {
            let stall_subsets: Vec<Vec<MessageId>> = if budget == 0 {
                vec![Vec::new()]
            } else {
                subsets(&stallable)
                    .into_iter()
                    .filter(|s| s.len() as u32 <= budget)
                    .collect()
            };
            for stalls in stall_subsets {
                let requests = sim.header_requests_frozen(state, &inject, &stalls, dead);
                let conflicts: Vec<(ChannelId, Vec<MessageId>)> = requests
                    .into_iter()
                    .filter(|(_, reqs)| reqs.len() >= 2)
                    .collect();
                WinnerExpansion {
                    conflicts: &conflicts,
                    inject: &inject,
                    stalls: &stalls,
                    dead,
                }
                .expand(0, &mut BTreeMap::new(), &mut out);
            }
        }
        out
    }

    /// The fixed inputs of one winner-assignment expansion: the conflicted
    /// channels plus the inject/stall/frozen sets every emitted
    /// [`Decisions`] copies verbatim. Bundling them keeps the recursion
    /// signature down to what actually varies per call.
    struct WinnerExpansion<'a> {
        conflicts: &'a [(ChannelId, Vec<MessageId>)],
        inject: &'a [MessageId],
        stalls: &'a [MessageId],
        dead: &'a [ChannelId],
    }

    impl WinnerExpansion<'_> {
        /// Enumerate every winner assignment for `conflicts[idx..]` on top
        /// of the choices in `chosen`, pushing one [`Decisions`] per
        /// complete assignment.
        fn expand(
            &self,
            idx: usize,
            chosen: &mut BTreeMap<ChannelId, MessageId>,
            out: &mut Vec<Decisions>,
        ) {
            if idx == self.conflicts.len() {
                out.push(Decisions {
                    inject: self.inject.to_vec(),
                    stalls: self.stalls.to_vec(),
                    winners: chosen.clone(),
                    // Channel-level skew is subsumed by message stalls for
                    // reachability purposes, so the search only freezes the
                    // permanently-dead channels of a degraded network (the
                    // set is constant, so state deduplication is unaffected).
                    frozen: self.dead.to_vec(),
                });
                return;
            }
            let (chan, reqs) = &self.conflicts[idx];
            for &m in reqs {
                chosen.insert(*chan, m);
                self.expand(idx + 1, chosen, out);
            }
            chosen.remove(chan);
        }
    }

    /// All subsets of a small slice (including the empty set).
    fn subsets(items: &[MessageId]) -> Vec<Vec<MessageId>> {
        let n = items.len();
        (0..(1usize << n))
            .map(|mask| {
                (0..n)
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| items[i])
                    .collect()
            })
            .collect()
    }

    #[test]
    fn line_traffic_is_deadlock_free() {
        let (net, _) = line(4);
        let table = shortest_path_table(&net).unwrap();
        let specs = vec![
            MessageSpec::new(NodeId::from_index(0), NodeId::from_index(3), 3),
            MessageSpec::new(NodeId::from_index(3), NodeId::from_index(0), 3),
            MessageSpec::new(NodeId::from_index(1), NodeId::from_index(3), 2),
        ];
        let sim = Sim::new(&net, &table, specs, None).unwrap();
        let result = explore(&sim, &SearchConfig::default());
        assert!(result.verdict.is_free(), "{:?}", result.verdict);
        assert!(result.states_explored > 1);
    }

    #[test]
    fn ring_deadlock_found_with_witness() {
        let (net, nodes) = ring_unidirectional(4);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let specs: Vec<MessageSpec> = (0..4)
            .map(|i| MessageSpec::new(nodes[i], nodes[(i + 2) % 4], 2))
            .collect();
        let sim = Sim::new(&net, &table, specs, None).unwrap();
        let result = explore(&sim, &SearchConfig::default());
        let Verdict::DeadlockReachable(witness) = &result.verdict else {
            panic!("expected deadlock, got {:?}", result.verdict);
        };
        assert_eq!(witness.members.len(), 4);
        assert_eq!(witness.stalls_used(), 0);
        // The witness replays to the same deadlock.
        let members = replay(&sim, witness).expect("witness must deadlock");
        assert_eq!(&members, &witness.members);
    }

    #[test]
    fn two_messages_on_ring_cannot_deadlock() {
        // Two messages can't close a 4-ring if their spans can't cover
        // it: use 2-hop messages with length 2: each holds at most 2
        // channels; two opposite messages never wait on each other.
        let (net, nodes) = ring_unidirectional(4);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let specs = vec![
            MessageSpec::new(nodes[0], nodes[2], 2),
            MessageSpec::new(nodes[2], nodes[0], 2),
        ];
        let sim = Sim::new(&net, &table, specs, None).unwrap();
        let result = explore(&sim, &SearchConfig::default());
        assert!(result.verdict.is_free(), "{:?}", result.verdict);
    }

    #[test]
    fn two_long_messages_on_ring_do_deadlock() {
        // Two 3-hop messages starting at opposite ring nodes: each can
        // hold two channels while waiting for a third the other owns.
        let (net, nodes) = ring_unidirectional(4);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let specs = vec![
            MessageSpec::new(nodes[0], nodes[3], 3),
            MessageSpec::new(nodes[2], nodes[1], 3),
        ];
        let sim = Sim::new(&net, &table, specs, None).unwrap();
        let result = explore(&sim, &SearchConfig::default());
        assert!(result.verdict.is_deadlock(), "{:?}", result.verdict);
    }

    #[test]
    fn stall_budget_monotone() {
        let (net, _) = line(3);
        let table = shortest_path_table(&net).unwrap();
        let specs = vec![
            MessageSpec::new(NodeId::from_index(0), NodeId::from_index(2), 2),
            MessageSpec::new(NodeId::from_index(2), NodeId::from_index(0), 2),
        ];
        let sim = Sim::new(&net, &table, specs, None).unwrap();
        // A line cannot deadlock no matter the budget.
        let (min, trail) = min_stall_budget(&sim, 2, 1_000_000);
        assert_eq!(min, None);
        assert_eq!(trail.len(), 3);
        assert!(trail.iter().all(|r| r.verdict.is_free()));
    }

    #[test]
    fn inconclusive_on_tiny_state_budget() {
        let (net, nodes) = ring_unidirectional(4);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let specs: Vec<MessageSpec> = (0..4)
            .map(|i| MessageSpec::new(nodes[i], nodes[(i + 2) % 4], 2))
            .collect();
        let sim = Sim::new(&net, &table, specs, None).unwrap();
        let result = explore(
            &sim,
            &SearchConfig {
                stall_budget: 0,
                max_states: 1,
                ..SearchConfig::default()
            },
        );
        // With a 1-state budget we either found the deadlock very
        // early (possible: DFS order) or gave up; giving up reports
        // how far the search got.
        match result.verdict {
            Verdict::Inconclusive { states_visited } => {
                assert!(states_visited > 1);
                assert_eq!(states_visited, result.states_explored);
            }
            ref v => assert!(v.is_deadlock(), "{v:?}"),
        }
    }

    #[test]
    fn explore_until_finds_specific_configuration() {
        // On the 4-ring, target the exact configuration where every
        // channel is owned (each message holding one channel).
        let (net, nodes) = ring_unidirectional(4);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let specs: Vec<MessageSpec> = (0..4)
            .map(|i| MessageSpec::new(nodes[i], nodes[(i + 2) % 4], 2))
            .collect();
        let sim = Sim::new(&net, &table, specs, None).unwrap();
        let result = explore_until(&sim, &SearchConfig::default(), |_, state| {
            state.channels.iter().all(Option::is_some)
        });
        assert!(result.verdict.is_deadlock(), "{:?}", result.verdict);

        // An impossible target: a channel owned by a message that
        // never uses it.
        let result = explore_until(&sim, &SearchConfig::default(), |sim, state| {
            let c = sim.path(MessageId::from_index(0))[0];
            matches!(state.channels[c.index()], Some(occ) if occ.msg == MessageId::from_index(1))
        });
        assert!(result.verdict.is_free());
    }

    #[test]
    fn shortest_witness_is_no_longer_than_dfs() {
        let (net, nodes) = ring_unidirectional(4);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let specs: Vec<MessageSpec> = (0..4)
            .map(|i| MessageSpec::new(nodes[i], nodes[(i + 2) % 4], 2))
            .collect();
        let sim = Sim::new(&net, &table, specs, None).unwrap();
        let dfs = explore(&sim, &SearchConfig::default());
        let bfs = explore_shortest(&sim, &SearchConfig::default());
        let (Verdict::DeadlockReachable(wd), Verdict::DeadlockReachable(wb)) =
            (&dfs.verdict, &bfs.verdict)
        else {
            panic!("both must find the deadlock");
        };
        assert!(wb.cycles() <= wd.cycles());
        assert!(replay(&sim, wb).is_some(), "shortest witness replays");
        // The fastest 4-ring deadlock: all four inject in one cycle,
        // after which each header's next channel is already owned by
        // its neighbour — the wait-for cycle exists immediately.
        assert_eq!(wb.cycles(), 1);
    }

    #[test]
    fn shortest_agrees_on_freedom() {
        use wormroute::algorithms::shortest_path_table;
        let (net, _) = line(3);
        let table = shortest_path_table(&net).unwrap();
        let specs = vec![
            MessageSpec::new(NodeId::from_index(0), NodeId::from_index(2), 2),
            MessageSpec::new(NodeId::from_index(2), NodeId::from_index(0), 2),
        ];
        let sim = Sim::new(&net, &table, specs, None).unwrap();
        assert!(explore_shortest(&sim, &SearchConfig::default())
            .verdict
            .is_free());
    }

    #[test]
    fn subsets_enumerates_power_set() {
        let items: Vec<MessageId> = (0..3).map(MessageId::from_index).collect();
        let subs = subsets(&items);
        assert_eq!(subs.len(), 8);
        assert!(subs.iter().any(|s| s.is_empty()));
        assert!(subs.iter().any(|s| s.len() == 3));
    }

    /// Sweep the reachable `(state, budget)` pairs of `sim` and check,
    /// at each, that [`Options`] lists exactly the oracle's decisions in
    /// the oracle's order, and that stepping each option through its
    /// borrowed [`StepChoice`] lands where [`Sim::step`] lands.
    fn options_match_oracle(sim: &Sim, budget: u32, dead: &[ChannelId]) -> usize {
        use std::collections::HashSet;
        let mask = sim.channel_mask(dead);
        let (mut options, mut choice, mut step) =
            (Options::default(), ChoiceBuf::default(), StepScratch::new());
        let mut seen = HashSet::new();
        let mut queue = vec![(sim.initial_state(), budget)];
        while let Some((state, budget)) = queue.pop() {
            if !seen.insert((state.clone(), budget)) || seen.len() > 3_000 {
                continue;
            }
            let oracle = decision_options(sim, &state, budget, dead);
            options.fill(sim, &state, budget, &mask);
            assert_eq!(options.len(), oracle.len());
            for (i, d) in oracle.iter().enumerate() {
                assert_eq!(&options.decisions(i, dead), d, "option {i}");
                assert_eq!(options.stall_count(i) as usize, d.stalls.len());
                let mut want = state.clone();
                let report = sim.step(&mut want, d);
                let mut got = state.clone();
                sim.step_with(&mut got, options.choice(i, &mut choice, &mask), &mut step);
                assert_eq!((&got, step.report()), (&want, &report), "option {i}");
                if report.moved && !sim.all_delivered(&want) {
                    queue.push((want, budget - d.stalls.len() as u32));
                }
            }
        }
        seen.len()
    }

    #[test]
    fn options_enumerate_the_oracle_decisions_in_order() {
        let (net, nodes) = ring_unidirectional(4);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let specs: Vec<MessageSpec> = (0..4)
            .map(|i| MessageSpec::new(nodes[i], nodes[(i + 2) % 4], 2))
            .collect();
        let sim = Sim::new(&net, &table, specs, None).unwrap();
        assert!(options_match_oracle(&sim, 2, &[]) > 100);
        let dead = vec![sim.path(MessageId::from_index(1))[1]];
        assert!(options_match_oracle(&sim, 1, &dead) > 10);

        // Two messages contending for every channel of a line.
        let (net, _) = line(4);
        let table = shortest_path_table(&net).unwrap();
        let specs = vec![
            MessageSpec::new(NodeId::from_index(0), NodeId::from_index(3), 3),
            MessageSpec::new(NodeId::from_index(0), NodeId::from_index(3), 2),
            MessageSpec::new(NodeId::from_index(1), NodeId::from_index(3), 2),
        ];
        let sim = Sim::new(&net, &table, specs, None).unwrap();
        assert!(options_match_oracle(&sim, 1, &[]) > 10);
    }

    #[test]
    fn search_agrees_with_adversarial_runner_on_ring() {
        use wormsim::runner::{ArbitrationPolicy, Runner};
        let (net, nodes) = ring_unidirectional(4);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let specs: Vec<MessageSpec> = (0..4)
            .map(|i| MessageSpec::new(nodes[i], nodes[(i + 2) % 4], 4))
            .collect();
        let sim = Sim::new(&net, &table, specs, None).unwrap();
        let search = explore(&sim, &SearchConfig::default());
        let mut runner = Runner::new(&sim, ArbitrationPolicy::Adversarial { favored: vec![] });
        let run = runner.run(1_000);
        assert_eq!(search.verdict.is_deadlock(), run.is_deadlock());
    }
}
