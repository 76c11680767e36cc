//! The state-space exploration itself.

use std::time::Instant;

use wormsim::{MessageId, Sim, SimState, StateArena, StateCodec, StepScratch, StepTally};

use crate::options::Options;
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
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            stall_budget: 0,
            max_states: 8_000_000,
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
/// it by the grants the option resolved when it was enumerated
/// ([`Options::step`]), packs the state's key
/// ([`StateCodec::pack_words`]) into one reused buffer and probes the
/// flat visited set with it: once the pools are warm, only a new
/// state's key copy and its options touch memory that grows. Debug
/// builds also step every edge through [`Sim::step_with`] and check
/// that both land on the same state, report and tally.
fn depth_first(
    sim: &Sim,
    config: &SearchConfig,
    mut goal: impl FnMut(&SimState, &mut StepScratch) -> Option<Vec<MessageId>>,
) -> Dfs {
    let codec = StateCodec::new(sim, config.stall_budget);
    let mut words = Vec::new();
    let mut step = StepScratch::new();
    let mut arena = StateArena::new();
    let mut pool: Vec<Options> = Vec::new();
    let mut metrics = SearchMetrics::default();
    let mut tally = StepTally::default();

    let initial = sim.initial_state();
    codec.pack_words(&initial, config.stall_budget, &mut words);
    let mut visited = VisitedSet::new(words.len());
    visited.insert(&words);
    let mut options = Options::default();
    options.fill(sim, &initial, config.stall_budget);
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
        let edge = frame.options.step(sim, i, &mut state, &mut step);
        #[cfg(debug_assertions)]
        check_edge(
            sim,
            &frame.state,
            &frame.options.decisions(i),
            &state,
            &step,
            edge,
        );
        tally.absorb(edge);
        if !step.report().moved {
            // Nothing happened: a pure self-loop (possibly burning
            // stall budget) — always dominated, skip.
            arena.give(state);
            continue;
        }
        let budget = frame.budget - frame.options.stall_count(i);
        metrics.dedup_lookups += 1;
        codec.pack_words(&state, budget, &mut words);
        if !visited.insert(&words) {
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
                .map(|f| f.options.decisions(f.next - 1))
                .collect();
            break Verdict::DeadlockReachable(Witness { decisions, members });
        }
        if sim.all_delivered(&state) {
            // Terminal success state: no deadlock beyond here.
            arena.give(state);
            continue;
        }
        let mut options = pool.pop().unwrap_or_default();
        options.fill(sim, &state, budget);
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

/// Step `parent` by `decisions` through [`Sim::step_with`], the
/// stepping core that collects and arbitrates the requests itself, and
/// assert that it lands where the grant-stepped edge did: the same
/// state in `child`, the report in `step` and the tally `edge`.
#[cfg(debug_assertions)]
fn check_edge(
    sim: &Sim,
    parent: &SimState,
    decisions: &wormsim::Decisions,
    child: &SimState,
    step: &StepScratch,
    edge: StepTally,
) {
    let winners: Vec<_> = decisions.winners.iter().map(|(&c, &m)| (c, m)).collect();
    let mut want = parent.clone();
    let mut scratch = StepScratch::new();
    let tally = sim.step_with(
        &mut want,
        wormsim::StepChoice {
            inject: &decisions.inject,
            stalls: &decisions.stalls,
            winners: &winners,
            frozen: &[],
        },
        &mut scratch,
    );
    assert_eq!(
        (child, step.report(), edge),
        (&want, scratch.report(), tally),
        "grant-stepped edge {decisions:?}"
    );
}

/// Exhaustively explore all adversary behaviours of `sim`.
///
/// Explores every injection schedule, every arbitration outcome, and
/// every stall placement within the budget. Returns a deadlock witness
/// if any interleaving deadlocks, or an exact deadlock-freedom verdict
/// for this message set.
pub fn explore(sim: &Sim, config: &SearchConfig) -> SearchResult {
    let start = Instant::now();
    let dfs = depth_first(sim, config, |state, step| {
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
    let dfs = depth_first(sim, config, |state, step| {
        target(sim, state).then(|| sim.find_deadlock_with(state, step).unwrap_or_default())
    });
    dfs.tally.publish();
    SearchResult::new(dfs.verdict, dfs.states)
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
    use std::sync::Arc;
    use wormnet::topology::{line, ring_unidirectional};
    use wormnet::{ChannelId, NodeId};
    use wormroute::algorithms::{clockwise_ring, shortest_path_table};
    use wormsim::{Decisions, MessageSpec, StepReport};
    use wormtrace::MemoryRecorder;

    /// The enumeration [`Options`] replaced, kept as its oracle: all
    /// decision combinations worth exploring from `state`.
    fn decision_options(sim: &Sim, state: &SimState, budget: u32) -> Vec<Decisions> {
        // Messages that could actually inject now: pending, and their
        // first channel is empty and unowned (others are no-ops).
        let injectable: Vec<MessageId> = sim
            .pending(state)
            .into_iter()
            .filter(|&m| state.channels[sim.path(m)[0].index()].is_none())
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
                let requests = sim.header_requests(state, &inject, &stalls);
                let conflicts: Vec<(ChannelId, Vec<MessageId>)> = requests
                    .into_iter()
                    .filter(|(_, reqs)| reqs.len() >= 2)
                    .collect();
                WinnerExpansion {
                    conflicts: &conflicts,
                    inject: &inject,
                    stalls: &stalls,
                }
                .expand(0, &mut BTreeMap::new(), &mut out);
            }
        }
        out
    }

    /// The fixed inputs of one winner-assignment expansion: the conflicted
    /// channels plus the inject/stall sets every emitted [`Decisions`]
    /// copies verbatim. Bundling them keeps the recursion
    /// signature down to what actually varies per call.
    struct WinnerExpansion<'a> {
        conflicts: &'a [(ChannelId, Vec<MessageId>)],
        inject: &'a [MessageId],
        stalls: &'a [MessageId],
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
                    // reachability purposes: the search freezes nothing.
                    frozen: Vec::new(),
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
    fn subsets_enumerates_power_set() {
        let items: Vec<MessageId> = (0..3).map(MessageId::from_index).collect();
        let subs = subsets(&items);
        assert_eq!(subs.len(), 8);
        assert!(subs.iter().any(|s| s.is_empty()));
        assert!(subs.iter().any(|s| s.len() == 3));
    }

    /// [`Sim::step`]'s successor of `state` under `d`, its report, and
    /// the `sim.*` tally it publishes.
    fn oracle_step(
        sim: &Sim,
        state: &SimState,
        d: &Decisions,
    ) -> (SimState, StepReport, StepTally) {
        let recorder = Arc::new(MemoryRecorder::new());
        wormtrace::install(recorder.clone());
        let mut next = state.clone();
        let report = sim.step(&mut next, d);
        wormtrace::uninstall();
        let counters = recorder.snapshot().counters;
        let count = |name: &str| counters.get(name).copied().unwrap_or(0);
        let tally = StepTally {
            cycles: count("sim.cycles"),
            flits_moved: count("sim.flits_moved"),
            delivered: count("sim.delivered"),
            stall_injections: count("sim.stall_injections"),
            arb_conflicts: count("sim.arb_conflicts"),
        };
        (next, report, tally)
    }

    /// Sweep the reachable `(state, budget)` pairs of `sim` and check,
    /// at each, that [`Options`] lists exactly the oracle's decisions in
    /// the oracle's order, and that stepping each option by the grants
    /// it resolved lands where [`Sim::step`] lands on its decisions:
    /// the same successor, report and `sim.*` tally. Returns the pairs
    /// checked and how many options had a conflicted channel.
    fn options_match_oracle(sim: &Sim, budget: u32) -> (usize, usize) {
        use std::collections::HashSet;
        let (mut options, mut step) = (Options::default(), StepScratch::new());
        let mut seen = HashSet::new();
        let mut contested = 0;
        let mut queue = vec![(sim.initial_state(), budget)];
        while let Some((state, budget)) = queue.pop() {
            if !seen.insert((state.clone(), budget)) || seen.len() > 3_000 {
                continue;
            }
            let oracle = decision_options(sim, &state, budget);
            options.fill(sim, &state, budget);
            assert_eq!(options.len(), oracle.len());
            for (i, d) in oracle.iter().enumerate() {
                assert_eq!(&options.decisions(i), d, "option {i}");
                assert_eq!(options.stall_count(i) as usize, d.stalls.len());
                let (want, report, tally) = oracle_step(sim, &state, d);
                let mut got = state.clone();
                let edge = options.step(sim, i, &mut got, &mut step);
                assert_eq!(
                    (&got, step.report(), edge),
                    (&want, &report, tally),
                    "option {i}: {d:?}"
                );
                contested += usize::from(tally.arb_conflicts > 0);
                if report.moved && !sim.all_delivered(&want) {
                    queue.push((want, budget - d.stalls.len() as u32));
                }
            }
        }
        (seen.len(), contested)
    }

    #[test]
    fn options_enumerate_the_oracle_decisions_in_order() {
        // The 4-ring with two stalls to spend.
        let (net, nodes) = ring_unidirectional(4);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let specs: Vec<MessageSpec> = (0..4)
            .map(|i| MessageSpec::new(nodes[i], nodes[(i + 2) % 4], 2))
            .collect();
        let sim = Sim::new(&net, &table, specs, None).unwrap();
        let (pairs, _) = options_match_oracle(&sim, 2);
        assert!(pairs > 100);

        // A line where messages race to inject into the same first
        // channel and contend for every channel after it.
        let (net, _) = line(4);
        let table = shortest_path_table(&net).unwrap();
        let specs = vec![
            MessageSpec::new(NodeId::from_index(0), NodeId::from_index(3), 3),
            MessageSpec::new(NodeId::from_index(0), NodeId::from_index(3), 2),
            MessageSpec::new(NodeId::from_index(1), NodeId::from_index(3), 2),
        ];
        let sim = Sim::new(&net, &table, specs, None).unwrap();
        let (pairs, contested) = options_match_oracle(&sim, 1);
        assert!(pairs > 10 && contested > 0);

        // Two-flit queues: worms compress behind a blocked header and
        // a tail can leave while its header is still waiting.
        let (net, nodes) = ring_unidirectional(4);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let specs: Vec<MessageSpec> = (0..3)
            .map(|i| MessageSpec::new(nodes[i], nodes[(i + 3) % 4], 4))
            .collect();
        let sim = Sim::new(&net, &table, specs, Some(2)).unwrap();
        let (pairs, contested) = options_match_oracle(&sim, 1);
        assert!(pairs > 100 && contested > 0);
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
        let mut runner = Runner::new(&sim, ArbitrationPolicy::Adversarial);
        let run = runner.run(1_000);
        assert_eq!(search.verdict.is_deadlock(), run.is_deadlock());
    }
}
