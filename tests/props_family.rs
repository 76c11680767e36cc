//! Property-based tests for the shared-channel cycle family: every
//! randomly parameterized construction has the structural shape the
//! paper's analysis relies on.

use cyclic_wormhole::cdg::{enumerate_candidates, sharing, Witnesses};
use cyclic_wormhole::core::family::{CycleMessageSpec, SharedCycleSpec};
use proptest::prelude::*;

fn arb_spec() -> impl Strategy<Value = SharedCycleSpec> {
    prop::collection::vec((1usize..4, 1usize..5, any::<bool>(), 0usize..2), 2..5).prop_map(
        |params| SharedCycleSpec {
            messages: params
                .into_iter()
                .map(|(d, g, shares, group)| {
                    if shares {
                        CycleMessageSpec::shared_in_group(group, d, g, 1)
                    } else {
                        CycleMessageSpec::private(d, g, 1)
                    }
                })
                .collect(),
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every construction is a legal Definition-1 network with a total
    /// oblivious routing function and exactly one CDG cycle (the ring).
    #[test]
    fn constructions_are_well_formed(spec in arb_spec()) {
        let c = spec.build();
        prop_assert!(c.net.is_strongly_connected());
        prop_assert!(c.table.is_total(&c.net));
        prop_assert!(c.table.compile(&c.net).is_ok());
        let cdg = c.cdg();
        prop_assert!(!cdg.is_acyclic());
        let cycles = cdg.cycles();
        prop_assert_eq!(cycles.len(), 1, "only the ring cycle");
        prop_assert_eq!(&cycles[0], &c.cycle());
        prop_assert_eq!(c.cycle().len(), c.ring.len());
    }

    /// The canonical candidate is always among the enumerated ones,
    /// and with reach = 1 it is unique.
    #[test]
    fn canonical_candidate_is_enumerated(spec in arb_spec()) {
        let c = spec.build();
        let cycle = c.cycle();
        let witnesses = Witnesses::of_cycles(&c.table, [&cycle]);
        let (cands, complete) = enumerate_candidates(&witnesses, &cycle, 100_000);
        prop_assert!(complete);
        prop_assert_eq!(cands.len(), 1, "reach-1 constructions have one candidate");
        let canonical = c.canonical_candidate();
        let mut a = cands[0].to_vec();
        let mut b = canonical.segments.clone();
        a.sort_by_key(|s| s.msg);
        b.sort_by_key(|s| s.msg);
        prop_assert_eq!(a, b);
    }

    /// Sharing analysis: the outside-shared channels are exactly the
    /// group channels with at least two sharing messages, each used by
    /// the group's members.
    #[test]
    fn sharing_matches_groups(spec in arb_spec()) {
        let c = spec.build();
        let cycle = c.cycle();
        let candidate = c.canonical_candidate();
        let analysis = sharing::analyze(&c.net, &c.table, &cycle, &candidate.segments);

        // Expected: for each group, count sharing members.
        let mut group_counts = std::collections::BTreeMap::new();
        for m in &spec.messages {
            if m.uses_shared {
                *group_counts.entry(m.shared_group).or_insert(0usize) += 1;
            }
        }
        let expected_outside: usize =
            group_counts.values().filter(|&&n| n >= 2).count();
        let shared_chans = c.shared_channels();
        let outside: Vec<_> = analysis
            .shared()
            .outside()
            .filter(|s| shared_chans.contains(&s.channel))
            .collect();
        prop_assert_eq!(outside.len(), expected_outside);
        for s in outside {
            prop_assert!(s.users.len() >= 2);
        }
    }

    /// Candidate minimum lengths equal the g parameters, and message
    /// geometry matches the spec for every sharing message.
    #[test]
    fn geometry_round_trips(spec in arb_spec()) {
        let c = spec.build();
        let cycle = c.cycle();
        let candidate = c.canonical_candidate();
        for (seg, b) in candidate.segments.iter().zip(&c.built) {
            prop_assert_eq!(seg.msg, b.pair);
            prop_assert_eq!(seg.len as usize, b.spec.g);
            prop_assert_eq!(seg.channels(&cycle).next(), Some(c.ring[b.entry_pos]));
        }
        // `c.cs` is the channel of the *first group in use* (builder
        // convention), not necessarily group 0.
        let first_group = spec
            .messages
            .iter()
            .filter(|m| m.uses_shared)
            .map(|m| m.shared_group)
            .min();
        for b in &c.built {
            let g = sharing::geometry(&c.net, &c.table, &cycle, b.pair, Some(c.cs));
            prop_assert_eq!(g.a, b.spec.a());
            if b.spec.uses_shared && Some(b.spec.shared_group) == first_group {
                prop_assert_eq!(g.d, Some(b.spec.d));
            } else {
                // Other groups / private sources never traverse cs.
                prop_assert_eq!(g.d, None);
            }
        }
    }
}

/// Regression (`props_family.proptest-regressions`, case
/// `5cbaa549…`): a construction whose **only** sharing message sits
/// in a non-zero group, preceded by a private message. The
/// `geometry_round_trips` property originally assumed `c.cs` was the
/// channel of group 0; the builder's actual convention is "the first
/// group *in use*" — here group 1 — so the old expectation looked up
/// the wrong channel and read `d = None` where `Some(d)` was correct.
/// Kept as a named case so the builder convention can't regress
/// silently.
#[test]
fn regression_single_sharer_in_nonzero_group() {
    let spec = SharedCycleSpec {
        messages: vec![
            CycleMessageSpec::private(1, 1, 1),
            CycleMessageSpec::shared_in_group(1, 1, 1, 1),
        ],
    };
    let c = spec.build();
    let cycle = c.cycle();

    // cs is group 1's channel (the only group in use), and the
    // sharing message's access distance round-trips through it.
    let g1 = sharing::geometry(&c.net, &c.table, &cycle, c.built[1].pair, Some(c.cs));
    assert_eq!(g1.d, Some(1));
    assert_eq!(g1.a, spec.messages[1].a());

    // The private message never traverses cs.
    let g0 = sharing::geometry(&c.net, &c.table, &cycle, c.built[0].pair, Some(c.cs));
    assert_eq!(g0.d, None);
    assert_eq!(g0.a, spec.messages[0].a());

    // And with a single sharer the channel is not outside-shared.
    let candidate = c.canonical_candidate();
    let analysis = sharing::analyze(&c.net, &c.table, &cycle, &candidate.segments);
    let shared = c.shared_channels();
    assert_eq!(
        analysis
            .shared()
            .outside()
            .filter(|s| shared.contains(&s.channel))
            .count(),
        0,
        "one sharer does not make a shared channel"
    );
}
