//! Property-based tests for the simulator: the engine invariants hold
//! under arbitrary topologies, workloads, and decision sequences, and
//! the packed key the search deduplicates by loses nothing.

use cyclic_wormhole::net::topology::{line, ring_unidirectional, Mesh};
use cyclic_wormhole::net::{ChannelId, Network, NodeId};
use cyclic_wormhole::route::algorithms::{clockwise_ring, shortest_path_table};
use cyclic_wormhole::route::TableRouting;
use cyclic_wormhole::sim::{
    Decisions, MessageId, MessageSpec, Sim, SimState, StateCodec, StepReport, StepScratch,
};
use proptest::prelude::*;

/// A deterministic pseudo-random decision source driven by proptest
/// input, so every run is reproducible from the failing case.
struct DecisionDriver {
    words: Vec<u32>,
    pos: usize,
}

impl DecisionDriver {
    fn new(words: Vec<u32>) -> Self {
        DecisionDriver { words, pos: 0 }
    }

    fn next(&mut self) -> u32 {
        if self.words.is_empty() {
            return 0;
        }
        let w = self.words[self.pos % self.words.len()];
        self.pos += 1;
        w.wrapping_mul(2654435761).wrapping_add(self.pos as u32)
    }

    /// Random subset of a small id list.
    fn subset(&mut self, items: &[MessageId]) -> Vec<MessageId> {
        let mask = self.next();
        items
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << (i % 32)) != 0)
            .map(|(_, &m)| m)
            .collect()
    }

    /// Random sparse set of `count` channels: each drawn with
    /// probability 1/4.
    fn channels(&mut self, count: usize) -> Vec<ChannelId> {
        let mask = self.next() & self.next();
        (0..count)
            .filter(|i| mask & (1 << (i % 32)) != 0)
            .map(ChannelId::from_index)
            .collect()
    }
}

/// One cycle's decisions drawn from `driver`: a random subset of the
/// pending messages injects, a random subset of those in flight
/// stalls, every contested channel goes to a random requester, and a
/// sparse random set of channels is frozen, as a skewed router or a
/// fault outage freezes them. (A frozen channel draws no request, so
/// its winner entry, if any, goes unread.)
fn arbitrary_decisions(sim: &Sim, state: &SimState, driver: &mut DecisionDriver) -> Decisions {
    let pending = sim.pending(state);
    let in_flight: Vec<MessageId> = sim
        .messages()
        .filter(|&m| state.is_started(m) && !state.is_delivered(m, sim.length(m)))
        .collect();
    let inject = driver.subset(&pending);
    let stalls = driver.subset(&in_flight);
    let requests = sim.header_requests(state, &inject, &stalls);
    let mut winners = std::collections::BTreeMap::new();
    for (chan, reqs) in requests {
        if reqs.len() > 1 {
            let pick = driver.next() as usize % reqs.len();
            winners.insert(chan, reqs[pick]);
        }
    }
    Decisions {
        inject,
        stalls,
        winners,
        frozen: driver.channels(sim.channel_count()),
    }
}

/// The successor of `state` under `decisions` (which must freeze
/// nothing) stepped the way the exhaustive search steps an option:
/// arbitrate the header requests first (a contended channel without a
/// winner entry goes to its lowest requesting id), then hand every
/// message the cycle does not stall its grant through
/// `Sim::step_granted`.
fn step_by_grants(
    sim: &Sim,
    state: &SimState,
    decisions: &Decisions,
    scratch: &mut StepScratch,
) -> (SimState, StepReport) {
    assert!(
        decisions.frozen.is_empty(),
        "grant stepping freezes nothing"
    );
    let mut grants = vec![None; sim.message_count()];
    for (chan, requesters) in sim.header_requests(state, &decisions.inject, &decisions.stalls) {
        let winner = decisions
            .winners
            .get(&chan)
            .copied()
            .unwrap_or(requesters[0]);
        grants[winner.index()] = Some(chan);
    }
    let movers = sim
        .messages()
        .filter(|m| !decisions.stalls.contains(m))
        .map(|m| (m, grants[m.index()]));
    let mut next = state.clone();
    let report = sim.step_granted(&mut next, movers, scratch).clone();
    (next, report)
}

fn arb_topology() -> impl Strategy<Value = (Network, Vec<NodeId>, TableRouting)> {
    prop_oneof![
        (2usize..6).prop_map(|n| {
            let (net, nodes) = line(n);
            let table = shortest_path_table(&net).expect("line routes");
            (net, nodes, table)
        }),
        (3usize..6).prop_map(|n| {
            let (net, nodes) = ring_unidirectional(n);
            let table = clockwise_ring(&net, &nodes).expect("ring routes");
            (net, nodes, table)
        }),
        ((2usize..4), (2usize..4)).prop_map(|(w, h)| {
            let mesh = Mesh::new(&[w, h]);
            let table = shortest_path_table(mesh.network()).expect("mesh routes");
            let nodes: Vec<NodeId> = mesh.network().nodes().collect();
            (mesh.into_network(), nodes, table)
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever the decisions, frozen channels included, every engine
    /// step preserves flit conservation, worm contiguity, capacity
    /// bounds, atomic buffer allocation and the cached worm ends (all
    /// encoded in `check_invariants`). At every state of the run, the
    /// same decisions without their frozen channels step to the same
    /// successor and report by grants (`Sim::step_granted`, as the
    /// search steps) as through `Sim::step`.
    #[test]
    fn engine_invariants_hold_under_arbitrary_decisions(
        (net, nodes, table) in arb_topology(),
        raw_messages in prop::collection::vec((0usize..36, 0usize..36, 1usize..6), 1..5),
        words in prop::collection::vec(any::<u32>(), 1..64),
        steps in 1usize..120,
        capacity in 1usize..4,
    ) {
        let specs: Vec<MessageSpec> = raw_messages
            .iter()
            .map(|&(s, d, len)| {
                let src = nodes[s % nodes.len()];
                let mut dst = nodes[d % nodes.len()];
                if dst == src {
                    dst = nodes[(d + 1) % nodes.len()];
                }
                MessageSpec::new(src, dst, len)
            })
            .filter(|m| table.path(m.src, m.dst).is_some())
            .collect();
        prop_assume!(!specs.is_empty());

        let sim = Sim::new(&net, &table, specs, Some(capacity)).expect("routed");
        let mut state = sim.initial_state();
        let mut driver = DecisionDriver::new(words);
        let mut scratch = StepScratch::new();
        for _ in 0..steps {
            let decisions = arbitrary_decisions(&sim, &state, &mut driver);
            let unfrozen = Decisions {
                frozen: Vec::new(),
                ..decisions.clone()
            };
            let mut want = state.clone();
            let report = sim.step(&mut want, &unfrozen);
            let (got, got_report) = step_by_grants(&sim, &state, &unfrozen, &mut scratch);
            prop_assert_eq!((&got, &got_report), (&want, &report));
            sim.step(&mut state, &decisions);
            sim.check_invariants(&state);
        }
    }

    /// Delivered simulations leave the network empty: every channel
    /// queue is released once all tails pass.
    #[test]
    fn delivery_empties_the_network(
        (net, nodes, table) in arb_topology(),
        raw in prop::collection::vec((0usize..36, 0usize..36, 1usize..5), 1..4),
    ) {
        let specs: Vec<MessageSpec> = raw
            .iter()
            .map(|&(s, d, len)| {
                let src = nodes[s % nodes.len()];
                let mut dst = nodes[d % nodes.len()];
                if dst == src {
                    dst = nodes[(d + 1) % nodes.len()];
                }
                MessageSpec::new(src, dst, len)
            })
            .filter(|m| table.path(m.src, m.dst).is_some())
            .collect();
        prop_assume!(!specs.is_empty());
        let sim = Sim::new(&net, &table, specs, Some(1)).expect("routed");
        let mut state = sim.initial_state();
        for _ in 0..5_000 {
            let d = Decisions {
                inject: sim.pending(&state),
                ..Decisions::default()
            };
            sim.step(&mut state, &d);
            sim.check_invariants(&state);
            if sim.all_delivered(&state) {
                break;
            }
            if sim.find_deadlock(&state).is_some() {
                // Rings can deadlock; that is fine for this property —
                // the emptiness claim only applies to delivered runs.
                return Ok(());
            }
        }
        if sim.all_delivered(&state) {
            prop_assert!(state.channels.iter().all(Option::is_none));
        }
    }

    /// Stalled cycles never change state (freezing is exact) and
    /// deadlock detection is stable under stuttering.
    #[test]
    fn stall_everything_is_identity(
        (net, nodes, table) in arb_topology(),
        len in 1usize..5,
        warm in 0usize..10,
    ) {
        let src = nodes[0];
        let dst = *nodes.last().expect("nodes");
        prop_assume!(src != dst && table.path(src, dst).is_some());
        let sim = Sim::new(&net, &table, vec![MessageSpec::new(src, dst, len)], Some(1))
            .expect("routed");
        let mut state = sim.initial_state();
        for _ in 0..warm {
            let d = Decisions {
                inject: sim.pending(&state),
                ..Decisions::default()
            };
            sim.step(&mut state, &d);
        }
        let in_flight: Vec<MessageId> = sim
            .messages()
            .filter(|&m| state.is_started(m) && !state.is_delivered(m, sim.length(m)))
            .collect();
        let before = state.clone();
        let deadlock_before = sim.find_deadlock(&state);
        sim.step(&mut state, &Decisions {
            stalls: in_flight,
            ..Decisions::default()
        });
        prop_assert_eq!(&before, &state);
        prop_assert_eq!(deadlock_before, sim.find_deadlock(&state));
    }

    /// The search's one state key is lossless: along an arbitrary run,
    /// frozen channels included, every `(state, budget)` packs into the
    /// codec's word count and unpacks to itself, worm ends and all, so
    /// two states share a key only when they are equal. One buffer is
    /// reused for every key, as the search does.
    #[test]
    fn packed_keys_round_trip_along_arbitrary_runs(
        (net, nodes, table) in arb_topology(),
        raw_messages in prop::collection::vec((0usize..36, 0usize..36, 1usize..6), 1..5),
        words in prop::collection::vec(any::<u32>(), 1..64),
        steps in 1usize..80,
        capacity in 1usize..4,
        max_budget in 0u32..4,
    ) {
        let specs: Vec<MessageSpec> = raw_messages
            .iter()
            .map(|&(s, d, len)| {
                let src = nodes[s % nodes.len()];
                let mut dst = nodes[d % nodes.len()];
                if dst == src {
                    dst = nodes[(d + 1) % nodes.len()];
                }
                MessageSpec::new(src, dst, len)
            })
            .filter(|m| table.path(m.src, m.dst).is_some())
            .collect();
        prop_assume!(!specs.is_empty());

        let sim = Sim::new(&net, &table, specs, Some(capacity)).expect("routed");
        let codec = StateCodec::new(&sim, max_budget);
        let mut state = sim.initial_state();
        let mut driver = DecisionDriver::new(words);
        let mut key = Vec::new();
        for _ in 0..steps {
            let budget = driver.next() % (max_budget + 1);
            codec.pack_words(&state, budget, &mut key);
            prop_assert_eq!(key.len(), codec.packed_words());
            prop_assert_eq!(codec.unpack(&key), (state.clone(), budget));
            let decisions = arbitrary_decisions(&sim, &state, &mut driver);
            sim.step(&mut state, &decisions);
        }
    }
}
