//! Rotation symmetries of the shared-channel cycle family.
//!
//! Every instance of [`SharedCycleSpec`](crate::family::SharedCycleSpec)
//! places its `k` messages around a channel ring in spec order. When
//! the spec list is invariant under rotation by `r` positions (message
//! `i` and message `i + r` have identical `(d, g, reach, shared)`
//! parameters), relabeling message `i` as `i + r` and mapping each
//! routed path onto its image's path hop-by-hop is an automorphism of
//! the simulation: it permutes channels and messages while preserving
//! the routing function, message lengths, and the shared channel.
//!
//! Those automorphisms feed [`SymmetryCanonicalizer`], which quotients
//! the exhaustive search's state space by the symmetry group: two
//! states that differ only by a rotation of the construction are
//! visited once instead of `|G|` times. The figures' instances and the
//! Section 6 family `G(k)` all have the `[A, B, A, B]` spec shape, so
//! they carry an order-2 group and the visited set roughly halves.
//!
//! The derivation is *checked*, not trusted: each candidate
//! permutation is re-verified as a path automorphism against the
//! actual [`Sim`] before use ([`SymmetryCanonicalizer::new`] rejects
//! anything that fails), so a caller can never silently search a
//! quotient that is not verdict-preserving.

use std::sync::Arc;

use crate::family::CycleConstruction;
use wormsearch::{StatePermutation, SymmetryCanonicalizer};
use wormsim::Sim;

/// The rotations `r` in `1..k` under which the instance's message-spec
/// list is invariant: `spec[i] == spec[(i + r) % k]` for every `i`.
///
/// The identity rotation `r = 0` is always a symmetry and is omitted.
///
/// ```
/// use worm_core::paper::generalized;
/// use worm_core::symmetry::invariant_rotations;
///
/// // G(k) alternates two distinct message shapes: only the half-turn
/// // survives.
/// let c = generalized::generalized(2);
/// assert_eq!(invariant_rotations(&c), vec![2]);
/// ```
pub fn invariant_rotations(c: &CycleConstruction) -> Vec<usize> {
    let k = c.built.len();
    (1..k)
        .filter(|&r| (0..k).all(|i| c.built[i].spec == c.built[(i + r) % k].spec))
        .collect()
}

/// Build the channel/message permutation induced by rotating the
/// construction's messages by `r` positions, or `None` if the routed
/// paths do not zip into a consistent channel bijection.
fn rotation_permutation(c: &CycleConstruction, r: usize) -> Option<StatePermutation> {
    let k = c.built.len();
    let messages: Vec<u32> = (0..k).map(|i| ((i + r) % k) as u32).collect();
    let mut channels: Vec<Option<u32>> = vec![None; c.net.channel_count()];
    for i in 0..k {
        let src = c.table.path(c.built[i].pair.0, c.built[i].pair.1)?;
        let j = (i + r) % k;
        let dst = c.table.path(c.built[j].pair.0, c.built[j].pair.1)?;
        if src.len() != dst.len() {
            return None;
        }
        for (a, b) in src.channels().iter().zip(dst.channels()) {
            let slot = &mut channels[a.index()];
            match slot {
                Some(prev) if *prev != b.index() as u32 => return None,
                _ => *slot = Some(b.index() as u32),
            }
        }
    }
    let channels: Vec<u32> = channels
        .into_iter()
        .enumerate()
        .map(|(i, img)| img.unwrap_or(i as u32))
        .collect();
    StatePermutation::new(channels, messages).ok()
}

/// The verified rotation automorphisms of a family instance, one per
/// [`invariant_rotations`] entry whose path zip is consistent.
///
/// `sim` must be built from the same construction with one message per
/// [`BuiltMessage`](crate::family::BuiltMessage), in order (as
/// [`CycleConstruction::message_specs`] produces); permutations that
/// do not verify as automorphisms of `sim` are dropped.
pub fn rotation_permutations(c: &CycleConstruction, sim: &Sim) -> Vec<StatePermutation> {
    if sim.message_count() != c.built.len() || sim.channel_count() != c.net.channel_count() {
        return Vec::new();
    }
    invariant_rotations(c)
        .into_iter()
        .filter_map(|r| rotation_permutation(c, r))
        .filter(|p| p.verify_automorphism(sim).is_ok())
        .collect()
}

/// A canonicalizer quotienting `sim`'s state space by the instance's
/// rotation symmetries, or `None` when the group is trivial.
///
/// Plug the result into
/// [`SearchConfig::canonicalized`](wormsearch::SearchConfig): the
/// verdict is unchanged (the quotient is by verified automorphisms)
/// while the visited set shrinks by up to the group order.
///
/// ```
/// use std::sync::Arc;
/// use worm_core::paper::generalized;
/// use worm_core::symmetry::family_canonicalizer;
/// use wormsearch::{explore, SearchConfig};
/// use wormsim::Sim;
///
/// let c = generalized::generalized(1);
/// let specs = generalized::minimum_length_specs(&c);
/// let sim = Sim::new(&c.net, &c.table, specs, Some(1)).unwrap();
/// let canon = family_canonicalizer(&c, &sim).expect("G(1) has a half-turn");
/// assert_eq!(canon.order(), 1); // one non-identity rotation
///
/// let plain = explore(&sim, &SearchConfig::default());
/// let folded = explore(&sim, &SearchConfig::default().canonicalized(canon));
/// assert_eq!(plain.verdict.is_free(), folded.verdict.is_free());
/// assert!(folded.states_explored < plain.states_explored);
/// ```
pub fn family_canonicalizer(
    c: &CycleConstruction,
    sim: &Sim,
) -> Option<Arc<SymmetryCanonicalizer>> {
    let perms = rotation_permutations(c, sim);
    if perms.is_empty() {
        return None;
    }
    let canon = SymmetryCanonicalizer::new(sim, perms).ok()?;
    if canon.order() == 0 {
        return None;
    }
    Some(Arc::new(canon))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::{CycleMessageSpec, SharedCycleSpec};
    use crate::paper::{fig1, generalized};
    use wormsearch::{explore, SearchConfig};

    fn sim_for(c: &CycleConstruction) -> Sim {
        Sim::new(&c.net, &c.table, c.message_specs(), Some(1)).unwrap()
    }

    #[test]
    fn fig1_has_half_turn_only() {
        let c = fig1::cyclic_dependency();
        assert_eq!(invariant_rotations(&c), vec![2]);
        let sim = sim_for(&c);
        let canon = family_canonicalizer(&c, &sim).expect("half-turn");
        assert_eq!(canon.order(), 1);
    }

    #[test]
    fn uniform_specs_give_full_rotation_group() {
        let spec = SharedCycleSpec {
            messages: vec![CycleMessageSpec::shared(2, 3, 1); 3],
        };
        let c = spec.build();
        assert_eq!(invariant_rotations(&c), vec![1, 2]);
        let sim = sim_for(&c);
        let canon = family_canonicalizer(&c, &sim).expect("full group");
        assert_eq!(canon.order(), 2);
    }

    #[test]
    fn asymmetric_specs_have_no_symmetry() {
        let spec = SharedCycleSpec {
            messages: vec![
                CycleMessageSpec::shared(2, 3, 1),
                CycleMessageSpec::shared(3, 4, 1),
                CycleMessageSpec::shared(2, 4, 1),
            ],
        };
        let c = spec.build();
        assert!(invariant_rotations(&c).is_empty());
        let sim = sim_for(&c);
        assert!(family_canonicalizer(&c, &sim).is_none());
    }

    #[test]
    fn mismatched_sim_is_rejected() {
        let c = fig1::cyclic_dependency();
        let other = generalized::generalized(1);
        let sim = sim_for(&other);
        // Wrong sim for this construction: dimensions differ, so no
        // permutation survives and no canonicalizer is built.
        assert!(family_canonicalizer(&c, &sim).is_none());
    }

    #[test]
    fn g2_verdict_invariant_and_states_halve() {
        let c = generalized::generalized(2);
        let sim = Sim::new(
            &c.net,
            &c.table,
            generalized::minimum_length_specs(&c),
            Some(1),
        )
        .unwrap();
        let canon = family_canonicalizer(&c, &sim).expect("half-turn");
        let plain = explore(&sim, &SearchConfig::default());
        let config = SearchConfig::default().canonicalized(canon);
        let folded = explore(&sim, &config);
        assert!(plain.verdict.is_free());
        assert!(folded.verdict.is_free());
        // The half-turn folds almost every state with its image; only
        // rotation-fixed states are counted once rather than twice.
        let ratio = plain.states_explored as f64 / folded.states_explored as f64;
        assert!(ratio > 1.9, "expected ~2x reduction, got {ratio:.3}");
    }

    #[test]
    fn g2_deadlock_witness_survives_canonicalization() {
        let c = generalized::generalized(1);
        let sim = Sim::new(
            &c.net,
            &c.table,
            generalized::minimum_length_specs(&c),
            Some(1),
        )
        .unwrap();
        let canon = family_canonicalizer(&c, &sim).expect("half-turn");
        // G(1) deadlocks with a budget of 2; the witness found on the
        // quotient space must still replay.
        let config = SearchConfig {
            stall_budget: 2,
            canon: Some(canon),
            ..SearchConfig::default()
        };
        let result = explore(&sim, &config);
        let wormsearch::Verdict::DeadlockReachable(witness) = result.verdict else {
            panic!("G(1) with budget 2 must deadlock, got {:?}", result.verdict);
        };
        let members = wormsearch::replay(&sim, &witness).expect("witness must replay to deadlock");
        assert_eq!(members, witness.members);
    }
}
