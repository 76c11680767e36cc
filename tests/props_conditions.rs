//! Randomized validation of the Theorem 5 checker: on the calibrated
//! regime (three adjacent sharers, reach 1, minimum lengths, parking
//! conditions 4–6 satisfied) the eight-condition verdict must agree
//! with exhaustive reachability search on every randomly generated
//! instance.
//!
//! The parking regime (conditions 4–6 violated) is excluded here
//! because realizing those deadlocks requires the duplicate-instance
//! adversary the paper's own proofs invoke — covered scenario-by-
//! scenario in `worm-core`'s Figure 3 suite instead.

use cyclic_wormhole::core::conditions::eight_conditions;
use cyclic_wormhole::core::family::{CycleMessageSpec, SharedCycleSpec};
use cyclic_wormhole::search::{explore, SearchConfig};
use cyclic_wormhole::sim::{MessageSpec, Sim};
use proptest::prelude::*;

/// Generate a three-sharer spec with distinct access distances and
/// parking-free geometry (`a_i > d_i` for all three).
fn arb_three_sharers() -> impl Strategy<Value = SharedCycleSpec> {
    // d values distinct in 1..=5; g values sized to keep a > d.
    (
        prop::sample::subsequence((1usize..=5).collect::<Vec<_>>(), 3),
        prop::collection::vec(0usize..3, 3),
        // permutation selector for cycle order
        0usize..6,
    )
        .prop_map(|(mut ds, g_extra, perm)| {
            ds.sort_unstable();
            // ds[0] < ds[1] < ds[2]; assign to z, y, x.
            let mk = |d: usize, extra: usize| {
                // g >= d ensures a = g + 1 > d (conditions 4-6 hold).
                CycleMessageSpec::shared(d, d + extra + 1, 1)
            };
            let z = mk(ds[0], g_extra[0]);
            let y = mk(ds[1], g_extra[1]);
            let x = mk(ds[2], g_extra[2]);
            // Arrange in one of the 6 cyclic orders (cyclic rotations
            // are equivalent; the two distinct circular orders are
            // [x,z,y] and [x,y,z], but include all for robustness).
            let arrangement = match perm {
                0 => vec![x, z, y],
                1 => vec![x, y, z],
                2 => vec![z, x, y],
                3 => vec![z, y, x],
                4 => vec![y, x, z],
                _ => vec![y, z, x],
            };
            SharedCycleSpec {
                messages: arrangement,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn checker_agrees_with_search_on_parking_free_instances(
        spec in arb_three_sharers(),
    ) {
        let c = spec.build();
        let cycle = c.cycle();
        let segments = c.canonical_candidate().segments;
        let analysis =
            cyclic_wormhole::cdg::sharing::analyze(&c.net, &c.table, &cycle, &segments);
        let shared = analysis
            .shared()
            .outside()
            .find(|s| s.channel == c.cs)
            .expect("cs shared outside");
        let ec = eight_conditions(&c.net, &c.table, &cycle, &segments, shared)
            .expect("three sharers");
        // This generator keeps the parking conditions satisfied.
        prop_assert!(ec.conditions[3], "condition 4 must hold by construction");
        prop_assert!(ec.conditions[4], "condition 5 must hold by construction");
        prop_assert!(ec.conditions[5], "condition 6 must hold by construction");

        // Ground truth: exhaustive search at adversarial minimum
        // lengths.
        let specs: Vec<MessageSpec> = c
            .built
            .iter()
            .map(|b| MessageSpec::new(b.pair.0, b.pair.1, b.spec.g))
            .collect();
        let sim = Sim::new(&c.net, &c.table, specs, Some(1)).expect("routed");
        let result = explore(&sim, &SearchConfig::default());
        let search_unreachable = result.verdict.is_free();

        prop_assert_eq!(
            ec.unreachable(),
            search_unreachable,
            "checker vs search mismatch: failing = {:?}, spec = {:?}",
            ec.failing(),
            c.built.iter().map(|b| (b.spec.d, b.spec.g)).collect::<Vec<_>>()
        );
    }
}
