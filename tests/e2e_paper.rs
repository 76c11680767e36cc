//! End-to-end reproduction of the paper's results through the public
//! facade: every headline claim, exercised across all six crates.

use cyclic_wormhole::core::classify::{classify_algorithm, AlgorithmVerdict, ClassifyOptions};
use cyclic_wormhole::core::paper::{fig1, fig2, fig3, generalized};
use cyclic_wormhole::search::{explore, min_stall_budget, replay, SearchConfig, Verdict};
use cyclic_wormhole::sim::runner::{ArbitrationPolicy, Outcome, Runner};
use cyclic_wormhole::sim::Sim;

/// The paper's central claim, through the full classification
/// pipeline: the Cyclic Dependency algorithm is deadlock-free *with*
/// cyclic dependencies. The four-sharer cycle is outside Theorems 2-5,
/// so the classifier must fall back to exhaustive search and still
/// certify freedom.
#[test]
fn cyclic_dependency_classified_deadlock_free_with_cycles() {
    let c = fig1::cyclic_dependency();
    let verdict = classify_algorithm(&c.net, &c.table, &ClassifyOptions::default());
    let AlgorithmVerdict::DeadlockFreeWithCycles { cycles } = &verdict else {
        panic!("expected DeadlockFreeWithCycles, got {verdict:?}");
    };
    assert_eq!(cycles.len(), 1);
    assert_eq!(cycles[0].reachable(), Some(false));
    assert!(cycles[0].enumeration_complete);
    assert_eq!(verdict.is_deadlock_free(), Some(true));
}

/// Figure 2 through the pipeline: Theorem 4 decides it without search.
#[test]
fn figure2_classified_deadlockable_by_theorem4() {
    use cyclic_wormhole::core::classify::CycleClass;
    let c = fig2::two_message_deadlock();
    let verdict = classify_algorithm(&c.net, &c.table, &ClassifyOptions::default());
    let AlgorithmVerdict::Deadlockable { cycles } = &verdict else {
        panic!("expected Deadlockable, got {verdict:?}");
    };
    let decided_by_theorem = cycles
        .iter()
        .flat_map(|cv| &cv.candidates)
        .any(|cand| matches!(cand.class, CycleClass::TwoSharers) && cand.reachable == Some(true));
    assert!(decided_by_theorem, "Theorem 4 should decide Figure 2");
}

/// The classification pipeline reaches the paper's verdict on every
/// Figure 3 scenario: (a), (b) deadlock-free, (c)–(f) deadlockable.
#[test]
fn figure3_classifier_matches_paper() {
    for s in fig3::all_scenarios() {
        let c = s.spec.build();
        let verdict = classify_algorithm(&c.net, &c.table, &ClassifyOptions::default());
        assert_eq!(
            verdict.is_deadlock_free(),
            Some(s.paper_unreachable),
            "scenario ({}): classifier {:?}",
            s.name,
            verdict
        );
    }
}

/// The adversarial simulator and the exhaustive search agree on every
/// Figure 3 scenario: scenarios the search calls deadlockable do
/// deadlock under some run, and scenarios it calls free never do.
#[test]
fn figure3_search_and_simulation_agree() {
    for s in fig3::all_scenarios() {
        let c = s.spec.build();
        let specs = s.message_specs(&c);
        let sim = Sim::new(&c.net, &c.table, specs, Some(1)).expect("routed");
        let search_free = explore(&sim, &SearchConfig::default()).verdict.is_free();
        assert_eq!(search_free, s.paper_unreachable, "scenario ({})", s.name);

        if search_free {
            // No policy run may deadlock either.
            for policy in [
                ArbitrationPolicy::LowestId,
                ArbitrationPolicy::RoundRobin,
                ArbitrationPolicy::OldestFirst,
                ArbitrationPolicy::Adversarial { favored: vec![] },
            ] {
                let mut runner = Runner::new(&sim, policy);
                let outcome = runner.run(10_000);
                assert!(
                    !matches!(outcome, Outcome::Deadlock { .. }),
                    "scenario ({}) deadlocked under a policy run",
                    s.name
                );
            }
        }
    }
}

/// Every deadlock witness the search produces must replay to the same
/// wait-for cycle.
#[test]
fn witnesses_replay_faithfully() {
    for s in fig3::all_scenarios()
        .into_iter()
        .filter(|s| !s.paper_unreachable)
    {
        let c = s.spec.build();
        let sim = Sim::new(&c.net, &c.table, s.message_specs(&c), Some(1)).expect("routed");
        let Verdict::DeadlockReachable(witness) = explore(&sim, &SearchConfig::default()).verdict
        else {
            panic!("scenario ({}) should deadlock", s.name);
        };
        let members = replay(&sim, &witness).expect("witness replays to deadlock");
        assert_eq!(members, witness.members, "scenario ({})", s.name);
    }
}

/// Section 6 through the facade: minimum stall budget grows linearly.
#[test]
fn generalized_family_budget_grows() {
    let mut previous = 0;
    for k in 1..=3usize {
        let c = generalized::generalized(k);
        let sim = Sim::new(
            &c.net,
            &c.table,
            generalized::minimum_length_specs(&c),
            Some(1),
        )
        .expect("routed");
        let (min, _) = min_stall_budget(&sim, (k + 3) as u32, 8_000_000);
        let min = min.expect("deadlock reachable with stalls");
        assert_eq!(min, (k + 1) as u32, "G({k})");
        assert!(min > previous);
        previous = min;
    }
}

/// Buffer depth never flips Figure 1's verdict (Section 3: deadlock
/// freedom must be independent of buffer sizes).
#[test]
fn fig1_free_across_buffer_depths() {
    let c = fig1::cyclic_dependency();
    for depth in [1usize, 2, 3, 5] {
        let sim = Sim::new(&c.net, &c.table, c.message_specs(), Some(depth)).expect("routed");
        let r = explore(&sim, &SearchConfig::default());
        assert!(r.verdict.is_free(), "depth {depth}: {:?}", r.verdict);
    }
}
