//! Property-based determinism of the fault layer: the same seed and
//! fault plan always reproduce the same trajectory, and the degraded
//! classification gives the exact answer.
//!
//! The two guarantees `wormfault` leans on:
//!
//! * a [`FaultPlan`] is pure data — replaying it over the same
//!   simulation yields bit-identical outcomes, states, and fault
//!   reports, whatever the plan contains;
//! * re-classifying a table with channels down decides exactly: for
//!   any down set on the deadlockable 4-ring, the degraded verdict is
//!   deadlockable iff no ring channel is down, and the exhaustive
//!   search over the messages that keep their path agrees.

use cyclic_wormhole::core::classify::ClassifyOptions;
use cyclic_wormhole::core::classify_degraded;
use cyclic_wormhole::core::paper::fig1;
use cyclic_wormhole::fault::{FaultPlan, FaultRunner, RetryPolicy};
use cyclic_wormhole::net::topology::ring_unidirectional;
use cyclic_wormhole::route::algorithms::clockwise_ring;
use cyclic_wormhole::search::{explore, replay, SearchConfig, Verdict};
use cyclic_wormhole::sim::runner::ArbitrationPolicy;
use cyclic_wormhole::sim::{MessageSpec, Sim};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Replaying a seeded plan over Figure 1 reproduces the run
    /// bit-for-bit: outcome, final state, cycle count, fault report.
    #[test]
    fn fault_runs_replay_bit_identically(seed in any::<u64>(), active in any::<bool>()) {
        let c = fig1::cyclic_dependency();
        let sim = Sim::new(&c.net, &c.table, c.message_specs(), Some(1)).unwrap();
        let plan = FaultPlan::random(&c.net, seed, 2, 1, 25);
        let retry = if active {
            RetryPolicy::Active { max_attempts: 4, backoff: 1 }
        } else {
            RetryPolicy::Passive
        };
        let run = |plan: FaultPlan, retry: RetryPolicy| {
            let mut fr = FaultRunner::new(
                &c.net,
                &sim,
                ArbitrationPolicy::OldestFirst,
                plan,
                retry,
            );
            let outcome = fr.run(5_000);
            (outcome, fr.state().clone(), fr.time(), fr.report())
        };
        let a = run(plan.clone(), retry.clone());
        let b = run(plan, retry);
        prop_assert_eq!(a.0, b.0, "outcome diverged");
        prop_assert_eq!(a.1, b.1, "final state diverged");
        prop_assert_eq!(a.2, b.2, "cycle count diverged");
        prop_assert_eq!(a.3, b.3, "fault report diverged");
    }

    /// On the 4-ring with messages `i -> i+2` of 2–4 flits, the only
    /// wait-for cycle runs through all four ring channels, each owned:
    /// a deadlock is reachable iff no channel is down. The degraded
    /// classification says exactly that, and the search over the
    /// messages whose path survives agrees, never gives up, and each
    /// witness replays to its deadlock.
    #[test]
    fn degraded_ring_deadlocks_iff_no_ring_channel_is_down(
        down_mask in 0u8..16,
        length in 2usize..5,
    ) {
        let (net, nodes) = ring_unidirectional(4);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let down: Vec<_> = net
            .channels()
            .map(|ch| ch.id())
            .enumerate()
            .filter(|(i, _)| down_mask & (1 << i) != 0)
            .map(|(_, id)| id)
            .collect();
        let d = classify_degraded(&net, &table, &down, &ClassifyOptions::default());
        prop_assert_eq!(d.is_deadlock_free(), Some(down_mask != 0));

        let specs: Vec<MessageSpec> = (0..4)
            .map(|i| MessageSpec::new(nodes[i], nodes[(i + 2) % 4], length))
            .filter(|m| d.table.path(m.src, m.dst).is_some())
            .collect();
        prop_assert_eq!(specs.len() == 4, down_mask == 0);
        let sim = Sim::new(&net, &d.table, specs, Some(1)).unwrap();
        let result = explore(
            &sim,
            &SearchConfig {
                stall_budget: 0,
                max_states: 500_000,
            },
        );
        prop_assert_eq!(result.verdict.is_deadlock(), down_mask == 0);
        prop_assert_eq!(result.verdict.is_free(), down_mask != 0);
        if let Verdict::DeadlockReachable(witness) = &result.verdict {
            prop_assert_eq!(replay(&sim, witness), Some(witness.members.clone()));
        }
    }

    /// Abandonment is monotone in the attempt budget: allowing more
    /// retries never abandons more messages.
    #[test]
    fn more_attempts_never_abandon_more(seed in any::<u64>()) {
        let (net, nodes) = ring_unidirectional(4);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let specs: Vec<MessageSpec> = (0..4)
            .map(|i| MessageSpec::new(nodes[i], nodes[(i + 1) % 4], 2))
            .collect();
        let sim = Sim::new(&net, &table, specs, Some(1)).unwrap();
        let plan = FaultPlan::random(&net, seed, 2, 0, 20);
        let abandoned_with = |max_attempts: u32| {
            let mut fr = FaultRunner::new(
                &net,
                &sim,
                ArbitrationPolicy::OldestFirst,
                plan.clone(),
                RetryPolicy::Active { max_attempts, backoff: 1 },
            );
            let _ = fr.run(2_000);
            fr.report().abandoned.len()
        };
        prop_assert!(abandoned_with(6) <= abandoned_with(2));
    }
}
