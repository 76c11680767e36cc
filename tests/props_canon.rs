//! Differential properties of symmetry canonicalization: on randomly
//! generated rotation-symmetric family instances, the canonicalized
//! search must agree with the uncanonicalized sequential oracle on
//! every verdict, and the identity canonicalizer must be a
//! bit-identical no-op.

use std::sync::Arc;

use cyclic_wormhole::core::family::{CycleMessageSpec, SharedCycleSpec};
use cyclic_wormhole::core::symmetry::{family_canonicalizer, invariant_rotations};
use cyclic_wormhole::search::{explore, replay, IdentityCanonicalizer, SearchConfig, Verdict};
use cyclic_wormhole::sim::Sim;
use proptest::prelude::*;

/// A rotation-symmetric spec: a random block of message shapes
/// repeated `reps >= 2` times, so rotation by the block length is an
/// invariance by construction.
fn arb_symmetric_spec() -> impl Strategy<Value = (SharedCycleSpec, usize)> {
    (
        prop::collection::vec((1usize..3, 1usize..4, any::<bool>()), 1..3),
        2usize..4,
    )
        .prop_map(|(block, reps)| {
            let block: Vec<CycleMessageSpec> = block
                .into_iter()
                .map(|(d, g, shares)| {
                    if shares {
                        CycleMessageSpec::shared(d, g, 1)
                    } else {
                        CycleMessageSpec::private(d, g, 1)
                    }
                })
                .collect();
            let len = block.len();
            let messages: Vec<CycleMessageSpec> =
                block.iter().cloned().cycle().take(len * reps).collect();
            (SharedCycleSpec { messages }, len)
        })
}

fn verdict_kind(v: &Verdict) -> &'static str {
    match v {
        Verdict::DeadlockReachable(_) => "deadlock",
        Verdict::DeadlockFree => "free",
        Verdict::Inconclusive { .. } => "inconclusive",
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A repeated-block instance always yields a derivable,
    /// verdict-preserving canonicalizer, and the quotient space is
    /// never larger than the full one.
    #[test]
    fn canonicalized_search_agrees_with_oracle(
        (spec, block) in arb_symmetric_spec(),
        budget in 0u32..2,
    ) {
        let c = spec.build();
        let k = c.built.len();
        // Rotation by the block length is a spec invariance by
        // construction, so the derivation must find it.
        prop_assert!(invariant_rotations(&c).contains(&block) || block == k);
        let sim = Sim::new(&c.net, &c.table, c.message_specs(), Some(1)).unwrap();
        let canon = family_canonicalizer(&c, &sim);
        prop_assert!(canon.is_some(), "repeated block must derive a symmetry");
        let canon = canon.unwrap();
        prop_assert!(canon.order() >= 1);

        let config = SearchConfig {
            stall_budget: budget,
            max_states: 200_000,
            ..SearchConfig::default()
        };
        let plain = explore(&sim, &config);
        let folded = explore(&sim, &config.clone().canonicalized(canon));
        prop_assert_eq!(
            verdict_kind(&plain.verdict),
            verdict_kind(&folded.verdict),
            "canonicalization changed the verdict"
        );
        if !plain.verdict.is_inconclusive() {
            prop_assert!(folded.states_explored <= plain.states_explored);
        }
        // A deadlock witness found on the quotient space must replay
        // to a real deadlock on the unquotiented simulator.
        if let Verdict::DeadlockReachable(w) = &folded.verdict {
            prop_assert!(replay(&sim, w).is_some(), "quotient witness failed to replay");
        }
    }

    /// The identity canonicalizer reproduces the plain search exactly:
    /// same verdict, same state count, same dedup counters.
    #[test]
    fn identity_canonicalizer_is_a_noop(
        (spec, _block) in arb_symmetric_spec(),
        budget in 0u32..2,
    ) {
        let c = spec.build();
        let sim = Sim::new(&c.net, &c.table, c.message_specs(), Some(1)).unwrap();
        let config = SearchConfig {
            stall_budget: budget,
            max_states: 200_000,
            ..SearchConfig::default()
        };
        let plain = explore(&sim, &config);
        let ident = explore(
            &sim,
            &config.clone().canonicalized(Arc::new(IdentityCanonicalizer)),
        );
        prop_assert_eq!(&plain.verdict, &ident.verdict);
        prop_assert_eq!(plain.states_explored, ident.states_explored);
        prop_assert_eq!(plain.metrics.dedup_hits, ident.metrics.dedup_hits);
        prop_assert_eq!(plain.metrics.dedup_lookups, ident.metrics.dedup_lookups);
    }
}
