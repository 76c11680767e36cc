//! The search family against its depth-first oracle.
//!
//! `explore` decides every verdict this repository serves. Its
//! siblings answer neighbouring questions over the same state space:
//! `explore_shortest` finds a shortest deadlock schedule,
//! `explore_until` asks whether one configuration is reachable, and
//! `min_stall_budget` scans stall budgets. On random small scenarios
//! and on the paper's figures each must reach `explore`'s verdict,
//! every witness must replay to its deadlock, and a capped search must
//! say how far it got instead of claiming freedom. (Dead channels are
//! covered in `props_fault.rs`.)

use cyclic_wormhole::core::paper::{fig1, fig2, fig3, generalized};
use cyclic_wormhole::net::topology::{line, ring_unidirectional, Mesh};
use cyclic_wormhole::net::{Network, NodeId};
use cyclic_wormhole::route::algorithms::{clockwise_ring, shortest_path_table, xy_mesh};
use cyclic_wormhole::route::TableRouting;
use cyclic_wormhole::search::{
    explore, explore_shortest, explore_until, min_stall_budget, replay, SearchConfig, SearchResult,
    Verdict,
};
use cyclic_wormhole::sim::{MessageSpec, Sim};
use proptest::prelude::*;

/// A random small scenario: a ring, a line or a 2-row mesh, and the
/// given messages (indices are folded onto the node count). `None`
/// when the messages do not route.
fn scenario(kind: usize, n: usize, msgs: &[(usize, usize, usize)]) -> Option<Sim> {
    let (net, table): (Network, TableRouting) = match kind {
        0 => {
            let (net, nodes) = ring_unidirectional(n);
            let table = clockwise_ring(&net, &nodes).ok()?;
            (net, table)
        }
        1 => {
            let (net, _) = line(n);
            let table = shortest_path_table(&net).ok()?;
            (net, table)
        }
        _ => {
            let mesh = Mesh::new(&[2, n.min(3)]);
            let table = xy_mesh(&mesh).ok()?;
            (mesh.into_network(), table)
        }
    };
    let count = net.node_count();
    let specs: Vec<MessageSpec> = msgs
        .iter()
        .map(|&(s, d, len)| {
            let (src, mut dst) = (s % count, d % count);
            if dst == src {
                dst = (d + 1) % count;
            }
            MessageSpec::new(NodeId::from_index(src), NodeId::from_index(dst), len)
        })
        .collect();
    Sim::new(&net, &table, specs, Some(1)).ok()
}

fn config(stall_budget: u32) -> SearchConfig {
    SearchConfig {
        stall_budget,
        max_states: 200_000,
        ..SearchConfig::default()
    }
}

/// Same verdict kind; the same state count when both exhaust the
/// space; every witness replays to its own members.
fn agree(sim: &Sim, oracle: &SearchResult, other: &SearchResult) -> Result<(), TestCaseError> {
    prop_assert_eq!(oracle.verdict.is_deadlock(), other.verdict.is_deadlock());
    prop_assert_eq!(oracle.verdict.is_free(), other.verdict.is_free());
    if oracle.verdict.is_free() {
        prop_assert_eq!(oracle.states_explored, other.states_explored);
    }
    for result in [oracle, other] {
        if let Verdict::DeadlockReachable(witness) = &result.verdict {
            prop_assert_eq!(replay(sim, witness), Some(witness.members.clone()));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The breadth-first search reaches the oracle's verdict, and its
    /// witness is never longer than the depth-first one.
    #[test]
    fn shortest_search_agrees_with_the_oracle(
        kind in 0usize..3,
        n in 3usize..=5,
        budget in 0u32..=1,
        msgs in prop::collection::vec((0usize..8, 0usize..8, 1usize..=3), 2..=4),
    ) {
        let Some(sim) = scenario(kind, n, &msgs) else {
            return Err(TestCaseError::Reject("degenerate scenario".into()));
        };
        let dfs = explore(&sim, &config(budget));
        let bfs = explore_shortest(&sim, &config(budget));
        agree(&sim, &dfs, &bfs)?;
        if let (Verdict::DeadlockReachable(d), Verdict::DeadlockReachable(b)) =
            (&dfs.verdict, &bfs.verdict)
        {
            prop_assert!(b.cycles() <= d.cycles());
        }
    }

    /// No proper prefix of a shortest witness is already deadlocked.
    #[test]
    fn shortest_witness_is_a_minimal_prefix(
        n in 3usize..=5,
        msgs in prop::collection::vec((0usize..8, 0usize..8, 2usize..=3), 2..=4),
    ) {
        let Some(sim) = scenario(0, n, &msgs) else {
            return Err(TestCaseError::Reject("degenerate scenario".into()));
        };
        let Verdict::DeadlockReachable(witness) = explore_shortest(&sim, &config(0)).verdict else {
            return Ok(());
        };
        let mut state = sim.initial_state();
        for (i, d) in witness.decisions.iter().enumerate() {
            prop_assert!(sim.find_deadlock(&state).is_none(), "prefix of length {} deadlocked", i);
            sim.step(&mut state, d);
        }
        prop_assert_eq!(sim.find_deadlock(&state), Some(witness.members.clone()));
    }

    /// Asked for "any deadlock", the target search reaches the oracle's
    /// verdict over the same states.
    #[test]
    fn target_search_for_any_deadlock_agrees_with_the_oracle(
        kind in 0usize..3,
        n in 3usize..=5,
        msgs in prop::collection::vec((0usize..8, 0usize..8, 1usize..=3), 2..=4),
    ) {
        let Some(sim) = scenario(kind, n, &msgs) else {
            return Err(TestCaseError::Reject("degenerate scenario".into()));
        };
        let oracle = explore(&sim, &config(0));
        let target = explore_until(&sim, &config(0), |sim, state| {
            sim.find_deadlock(state).is_some()
        });
        agree(&sim, &oracle, &target)?;
    }

    /// Every configuration a shortest witness passes through is
    /// reachable by the target search: the Definition 5 question the
    /// classifier asks of each static candidate.
    #[test]
    fn target_search_reaches_the_configurations_a_witness_passes(
        n in 3usize..=5,
        msgs in prop::collection::vec((0usize..8, 0usize..8, 2usize..=3), 2..=4),
    ) {
        let Some(sim) = scenario(0, n, &msgs) else {
            return Err(TestCaseError::Reject("degenerate scenario".into()));
        };
        let Verdict::DeadlockReachable(witness) = explore_shortest(&sim, &config(0)).verdict else {
            return Ok(());
        };
        let mut state = sim.initial_state();
        for d in &witness.decisions[..witness.cycles() / 2] {
            sim.step(&mut state, d);
        }
        let target = explore_until(&sim, &config(0), |_, s| s.channels == state.channels);
        prop_assert!(target.verdict.is_deadlock(), "{:?}", target.verdict);
    }
}

/// Figures 1–3: both searches reach the paper's verdict.
#[test]
fn paper_figures_agree_across_the_family() {
    let mut cases = Vec::new();
    let c = fig1::cyclic_dependency();
    let specs = c.message_specs();
    cases.push(("fig1".to_string(), c, specs, true));
    let c = fig2::two_message_deadlock();
    let specs = c.message_specs();
    cases.push(("fig2".to_string(), c, specs, false));
    for s in fig3::all_scenarios() {
        let c = s.spec.build();
        let specs = s.message_specs(&c);
        cases.push((format!("fig3 ({})", s.name), c, specs, s.paper_unreachable));
    }
    for (name, c, specs, free) in cases {
        let sim = Sim::new(&c.net, &c.table, specs, Some(1)).unwrap();
        let dfs = explore(&sim, &SearchConfig::default());
        assert_eq!(dfs.verdict.is_free(), free, "{name}: {:?}", dfs.verdict);
        agree(
            &sim,
            &dfs,
            &explore_shortest(&sim, &SearchConfig::default()),
        )
        .unwrap_or_else(|e| panic!("{name}: {e:?}"));
    }
}

/// Exceeding `max_states` on a deadlock-free instance, where no goal
/// can end the search early, returns `Inconclusive` with the number of
/// states visited — never a freedom claim.
#[test]
fn tiny_state_cap_is_inconclusive_with_count() {
    let (net, nodes) = line(4);
    let table = shortest_path_table(&net).unwrap();
    let specs = vec![
        MessageSpec::new(nodes[0], nodes[3], 3),
        MessageSpec::new(nodes[3], nodes[0], 3),
        MessageSpec::new(nodes[1], nodes[3], 2),
    ];
    let sim = Sim::new(&net, &table, specs, Some(1)).unwrap();
    let full = explore(&sim, &SearchConfig::default());
    assert!(full.verdict.is_free());
    assert!(full.states_explored > 4, "cap below the true state count");

    let capped = SearchConfig {
        max_states: 4,
        ..SearchConfig::default()
    };
    for result in [explore(&sim, &capped), explore_shortest(&sim, &capped)] {
        let Verdict::Inconclusive { states_visited } = result.verdict else {
            panic!("tiny cap must be inconclusive: {:?}", result.verdict);
        };
        assert!(
            states_visited > 4,
            "count reflects where the search stopped"
        );
        assert_eq!(states_visited, result.states_explored);
    }
}

/// The budget scan stops at the first budget whose search deadlocks,
/// and every budget below it is free.
#[test]
fn budget_scan_stops_at_the_first_deadlock() {
    let c = generalized::generalized(1);
    let specs = generalized::minimum_length_specs(&c);
    let sim = Sim::new(&c.net, &c.table, specs, Some(1)).unwrap();
    let (min, trail) = min_stall_budget(&sim, 4, 1_000_000);
    assert_eq!(min, Some(2), "G(1) needs two stalls");
    assert_eq!(trail.len(), 3);
    assert!(trail[..2].iter().all(|r| r.verdict.is_free()));
    assert!(trail[2].verdict.is_deadlock());
}
