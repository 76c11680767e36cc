//! Property-based determinism of the fault layer: the same seed and
//! fault plan always reproduce the same trajectory, and the search
//! over dead channels gives the exact answer.
//!
//! The two guarantees `wormfault` leans on:
//!
//! * a [`FaultPlan`] is pure data — replaying it over the same
//!   simulation yields bit-identical outcomes, states, and fault
//!   reports, whatever the plan contains;
//! * the search's `dead_channels` masking decides exactly: for any
//!   dead set on the deadlockable 4-ring, the search finds a deadlock
//!   iff no ring channel is dead, and each witness, which freezes the
//!   dead channels, replays to its deadlock.

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
    /// a deadlock is reachable iff no channel is dead. The search says
    /// exactly that, never gives up, and each witness replays to its
    /// deadlock.
    #[test]
    fn dead_channel_search_finds_a_deadlock_iff_no_ring_channel_is_dead(
        dead_mask in 0u8..16,
        length in 2usize..5,
    ) {
        let (net, nodes) = ring_unidirectional(4);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let specs: Vec<MessageSpec> = (0..4)
            .map(|i| MessageSpec::new(nodes[i], nodes[(i + 2) % 4], length))
            .collect();
        let sim = Sim::new(&net, &table, specs, Some(1)).unwrap();
        let dead: Vec<_> = net
            .channels()
            .map(|ch| ch.id())
            .enumerate()
            .filter(|(i, _)| dead_mask & (1 << i) != 0)
            .map(|(_, id)| id)
            .collect();
        let mut cfg = SearchConfig::with_dead_channels(dead);
        cfg.stall_budget = 0;
        cfg.max_states = 500_000;

        let result = explore(&sim, &cfg);
        prop_assert_eq!(result.verdict.is_deadlock(), dead_mask == 0);
        prop_assert_eq!(result.verdict.is_free(), dead_mask != 0);
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
