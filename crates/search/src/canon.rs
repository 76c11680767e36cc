//! Symmetry canonicalization of visited-set keys.
//!
//! Many of the paper's scenarios are built from a symmetric template:
//! the Section 6 family `G(k)` repeats one message pattern around a
//! ring, and relabeling channels and messages along the rotation maps
//! reachable configurations onto reachable configurations. The plain
//! search stores every member of such an orbit separately; a
//! [`Canonicalizer`] instead maps each state to a *canonical key* — the
//! lexicographically smallest packed key across its orbit — so the
//! visited set quotients the state space by the symmetry group.
//!
//! # Verdict invariance
//!
//! Canonicalization is sound because the engine's dynamics commute
//! with state relabeling: a [`StatePermutation`] is accepted only if it
//! is a *simulation automorphism* (message `m` maps to a message of the
//! same length whose path is the channel-wise image of `m`'s path — see
//! [`StatePermutation::verify_automorphism`]). For such a permutation,
//! symmetric states have symmetric successor sets and identical
//! deadlock/delivery status, so pruning a state whose mirror was
//! already expanded never changes the verdict:
//!
//! * **DeadlockReachable** — any deadlock reachable from the pruned
//!   state has a mirror reachable from the expanded one, and a witness
//!   found through representatives replays exactly (each stored state
//!   is the one its recorded decision was applied to);
//! * **DeadlockFree** — exhausting the quotient exhausts the full
//!   space, orbit by orbit.
//!
//! What *does* change is the visited-state count (that is the point:
//! `G(k)`'s order-2 rotation halves it) and, for the parallel engine,
//! which orbit representative the witness passes through. Searches
//! needing bit-identical legacy behaviour leave [`SearchConfig::canon`]
//! unset.
//!
//! [`SearchConfig::canon`]: crate::SearchConfig#structfield.canon

use std::fmt;

use wormsim::{ChannelOcc, MessageId, Sim, SimState, StateCodec};

/// Reusable buffers for canonical-key computation.
///
/// Each search thread owns one; [`Canonicalizer::canonical_words`]
/// implementations use it to avoid per-state allocation.
#[derive(Debug)]
pub struct CanonScratch {
    permuted: SimState,
    /// The words of the smallest key so far (the returned key).
    best: Vec<u64>,
    /// The words of the candidate being compared.
    buf: Vec<u64>,
}

impl CanonScratch {
    /// Fresh scratch buffers (lazily sized on first use).
    pub fn new() -> Self {
        CanonScratch {
            permuted: SimState::new(0, 0),
            best: Vec::new(),
            buf: Vec::new(),
        }
    }
}

impl Default for CanonScratch {
    fn default() -> Self {
        CanonScratch::new()
    }
}

/// Maps each `(state, budget)` pair to one canonical key per symmetry
/// orbit, quotienting the search's visited set.
///
/// Implementations must guarantee that two states receive the same key
/// **only if** some simulation automorphism maps one onto the other
/// (states in the same orbit *may* receive distinct keys at the cost of
/// less pruning, but [`SymmetryCanonicalizer`] collapses orbits fully
/// for the group it is given). See the [module docs](self) for why this
/// preserves verdicts.
pub trait Canonicalizer: fmt::Debug + Send + Sync {
    /// The words of the canonical packed key of `state`'s symmetry
    /// orbit, written into `scratch` and borrowed from it.
    ///
    /// Must agree with `codec.pack(state, budget)` up to orbit choice:
    /// the returned words are the packed encoding of *some* orbit
    /// member at the same budget.
    fn canonical_words<'s>(
        &self,
        codec: &StateCodec,
        state: &SimState,
        budget: u32,
        scratch: &'s mut CanonScratch,
    ) -> &'s [u64];

    /// Whether this canonicalizer never merges states (the engines
    /// then skip it entirely and keep exact-key behaviour).
    fn is_identity(&self) -> bool {
        false
    }
}

/// The trivial canonicalizer: every state is its own orbit.
///
/// Behaves exactly like running with [`SearchConfig::canon`] unset —
/// useful as a differential baseline when benchmarking symmetry
/// reduction.
///
/// [`SearchConfig::canon`]: crate::SearchConfig#structfield.canon
#[derive(Clone, Copy, Debug, Default)]
pub struct IdentityCanonicalizer;

impl Canonicalizer for IdentityCanonicalizer {
    fn canonical_words<'s>(
        &self,
        codec: &StateCodec,
        state: &SimState,
        budget: u32,
        scratch: &'s mut CanonScratch,
    ) -> &'s [u64] {
        codec.pack_words(state, budget, &mut scratch.best);
        &scratch.best
    }

    fn is_identity(&self) -> bool {
        true
    }
}

/// A simultaneous relabeling of channels and messages.
///
/// `channels[c]` is the image of channel index `c`; `messages[m]` the
/// image of message index `m`. Applied to a [`SimState`], channel `c`'s
/// occupancy moves to `channels[c]` with its owner renamed through
/// `messages`, and the per-message progress counters are permuted
/// likewise.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StatePermutation {
    channels: Vec<u32>,
    messages: Vec<u32>,
}

fn is_permutation(map: &[u32]) -> bool {
    let mut seen = vec![false; map.len()];
    map.iter().all(|&i| {
        let i = i as usize;
        i < seen.len() && !std::mem::replace(&mut seen[i], true)
    })
}

impl StatePermutation {
    /// Build a permutation pair; rejects maps that are not bijections
    /// onto their own index range.
    pub fn new(channels: Vec<u32>, messages: Vec<u32>) -> Result<Self, String> {
        if !is_permutation(&channels) {
            return Err("channel map is not a permutation".into());
        }
        if !is_permutation(&messages) {
            return Err("message map is not a permutation".into());
        }
        Ok(StatePermutation { channels, messages })
    }

    /// Whether both maps are identities.
    pub fn is_identity(&self) -> bool {
        let id = |map: &[u32]| map.iter().enumerate().all(|(i, &j)| i as u32 == j);
        id(&self.channels) && id(&self.messages)
    }

    /// Check that this permutation is a simulation automorphism of
    /// `sim`: message `m` must map to a message of equal length whose
    /// path is the channel-wise image of `m`'s path. Only the paths
    /// matter — the engine never consults the routing table outside
    /// them — so this condition is exactly what makes the dynamics
    /// commute with the relabeling.
    pub fn verify_automorphism(&self, sim: &Sim) -> Result<(), String> {
        if self.channels.len() != sim.channel_count() {
            return Err(format!(
                "channel map covers {} channels, sim has {}",
                self.channels.len(),
                sim.channel_count()
            ));
        }
        if self.messages.len() != sim.message_count() {
            return Err(format!(
                "message map covers {} messages, sim has {}",
                self.messages.len(),
                sim.message_count()
            ));
        }
        for m in sim.messages() {
            let img = MessageId::from_index(self.messages[m.index()] as usize);
            if sim.length(m) != sim.length(img) {
                return Err(format!(
                    "message {} (length {}) maps to message {} (length {})",
                    m.index(),
                    sim.length(m),
                    img.index(),
                    sim.length(img)
                ));
            }
            let path = sim.path(m);
            let img_path = sim.path(img);
            if path.len() != img_path.len() {
                return Err(format!(
                    "message {} path has {} hops, its image has {}",
                    m.index(),
                    path.len(),
                    img_path.len()
                ));
            }
            for (hop, (a, b)) in path.iter().zip(img_path.iter()).enumerate() {
                if self.channels[a.index()] as usize != b.index() {
                    return Err(format!(
                        "message {} hop {hop}: channel {} maps to {}, image path has {}",
                        m.index(),
                        a.index(),
                        self.channels[a.index()],
                        b.index()
                    ));
                }
            }
        }
        Ok(())
    }

    /// Apply the relabeling: `dst` becomes the image of `src`
    /// (overwritten in place, reusing its buffers).
    pub fn apply_into(&self, src: &SimState, dst: &mut SimState) {
        dst.channels.clear();
        dst.channels.resize(src.channels.len(), None);
        for (c, occ) in src.channels.iter().enumerate() {
            if let Some(occ) = occ {
                dst.channels[self.channels[c] as usize] = Some(ChannelOcc {
                    msg: MessageId::from_index(self.messages[occ.msg.index()] as usize),
                    lo: occ.lo,
                    hi: occ.hi,
                });
            }
        }
        dst.injected.clear();
        dst.injected.resize(src.injected.len(), 0);
        dst.consumed.clear();
        dst.consumed.resize(src.consumed.len(), 0);
        for (m, (&inj, &cons)) in src.injected.iter().zip(&src.consumed).enumerate() {
            let img = self.messages[m] as usize;
            dst.injected[img] = inj;
            dst.consumed[img] = cons;
        }
    }
}

/// Canonicalizer for an explicit symmetry group: the canonical key is
/// the smallest packed key over the identity and every listed
/// permutation.
///
/// Construction verifies each permutation against the simulation, so a
/// built `SymmetryCanonicalizer` is sound by construction. The listed
/// permutations should form (together with the identity) a group —
/// closure is what makes "minimum over listed elements" a true orbit
/// minimum — which holds for the rotation groups `worm-core` derives
/// from the cycle family.
///
/// ```
/// use std::sync::Arc;
/// use wormnet::topology::ring_unidirectional;
/// use wormroute::algorithms::clockwise_ring;
/// use wormsearch::{explore, SearchConfig, StatePermutation, SymmetryCanonicalizer};
/// use wormsim::{MessageSpec, Sim};
///
/// // Four identical messages chasing each other around a 4-ring: the
/// // scenario is invariant under rotation by one node.
/// let (net, nodes) = ring_unidirectional(4);
/// let table = clockwise_ring(&net, &nodes).unwrap();
/// let specs: Vec<_> = (0..4)
///     .map(|i| MessageSpec::new(nodes[i], nodes[(i + 2) % 4], 2))
///     .collect();
/// let sim = Sim::new(&net, &table, specs, Some(1)).unwrap();
///
/// // The full rotation group: shift channels and messages by r.
/// let rotations: Vec<_> = (1..4)
///     .map(|r| {
///         let shift = |i: usize| ((i + r) % 4) as u32;
///         StatePermutation::new(
///             (0..4).map(shift).collect(),
///             (0..4).map(shift).collect(),
///         )
///         .unwrap()
///     })
///     .collect();
/// let canon = SymmetryCanonicalizer::new(&sim, rotations).unwrap();
///
/// let plain = explore(&sim, &SearchConfig::default());
/// let mut config = SearchConfig::default();
/// config.canon = Some(Arc::new(canon));
/// let reduced = explore(&sim, &config);
///
/// // Same verdict, fewer visited states (the orbits collapse).
/// assert_eq!(plain.verdict.is_deadlock(), reduced.verdict.is_deadlock());
/// assert!(reduced.states_explored < plain.states_explored);
/// ```
#[derive(Clone, Debug)]
pub struct SymmetryCanonicalizer {
    perms: Vec<StatePermutation>,
}

impl SymmetryCanonicalizer {
    /// Build from non-identity group elements, verifying each is a
    /// simulation automorphism of `sim` (identity elements are
    /// filtered out; an empty result degenerates to the identity
    /// canonicalizer).
    pub fn new(sim: &Sim, perms: Vec<StatePermutation>) -> Result<Self, String> {
        let perms: Vec<StatePermutation> = perms.into_iter().filter(|p| !p.is_identity()).collect();
        for perm in &perms {
            perm.verify_automorphism(sim)?;
        }
        Ok(SymmetryCanonicalizer { perms })
    }

    /// Number of non-identity group elements.
    pub fn order(&self) -> usize {
        self.perms.len()
    }
}

impl Canonicalizer for SymmetryCanonicalizer {
    fn canonical_words<'s>(
        &self,
        codec: &StateCodec,
        state: &SimState,
        budget: u32,
        scratch: &'s mut CanonScratch,
    ) -> &'s [u64] {
        let CanonScratch {
            permuted,
            best,
            buf,
        } = scratch;
        codec.pack_words(state, budget, best);
        for perm in &self.perms {
            perm.apply_into(state, permuted);
            codec.pack_words(permuted, budget, buf);
            // All keys of one codec share a width, so the words compare
            // exactly as the `PackedState` keys do.
            if buf < best {
                std::mem::swap(buf, best);
            }
        }
        best
    }

    fn is_identity(&self) -> bool {
        self.perms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormnet::topology::ring_unidirectional;
    use wormroute::algorithms::clockwise_ring;
    use wormsim::{Decisions, MessageSpec, PackedState};

    fn symmetric_ring() -> Sim {
        let (net, nodes) = ring_unidirectional(4);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let specs: Vec<MessageSpec> = (0..4)
            .map(|i| MessageSpec::new(nodes[i], nodes[(i + 2) % 4], 2))
            .collect();
        Sim::new(&net, &table, specs, None).unwrap()
    }

    fn rotation(r: usize, n: usize) -> StatePermutation {
        let shift = |i: usize| ((i + r) % n) as u32;
        StatePermutation::new((0..n).map(shift).collect(), (0..n).map(shift).collect()).unwrap()
    }

    #[test]
    fn rejects_non_permutations() {
        assert!(StatePermutation::new(vec![0, 0], vec![0, 1]).is_err());
        assert!(StatePermutation::new(vec![0, 2], vec![0]).is_err());
        assert!(StatePermutation::new(vec![1, 0], vec![0]).is_ok());
    }

    #[test]
    fn ring_rotation_is_an_automorphism() {
        let sim = symmetric_ring();
        for r in 1..4 {
            rotation(r, 4).verify_automorphism(&sim).unwrap();
        }
    }

    #[test]
    fn broken_rotation_is_rejected() {
        let sim = symmetric_ring();
        // Rotate channels but not messages: paths no longer line up.
        let perm = StatePermutation::new(
            (0..4).map(|i| ((i + 1) % 4) as u32).collect(),
            (0..4).map(|i| i as u32).collect(),
        )
        .unwrap();
        assert!(perm.verify_automorphism(&sim).is_err());
        assert!(SymmetryCanonicalizer::new(&sim, vec![perm]).is_err());
    }

    #[test]
    fn apply_into_matches_manual_relabeling() {
        let sim = symmetric_ring();
        let mut state = sim.initial_state();
        sim.step(
            &mut state,
            &Decisions {
                inject: vec![MessageId::from_index(0), MessageId::from_index(2)],
                ..Decisions::default()
            },
        );
        let perm = rotation(1, 4);
        let mut image = SimState::new(0, 0);
        perm.apply_into(&state, &mut image);
        // Message 0's occupancy moved onto message 1's first channel.
        for c in 0..4 {
            let src = state.channels[c];
            let dst = image.channels[(c + 1) % 4];
            assert_eq!(src.map(|o| (o.lo, o.hi)), dst.map(|o| (o.lo, o.hi)));
            if let (Some(a), Some(b)) = (src, dst) {
                assert_eq!((a.msg.index() + 1) % 4, b.msg.index());
            }
        }
        for m in 0..4 {
            assert_eq!(state.injected[m], image.injected[(m + 1) % 4]);
            assert_eq!(state.consumed[m], image.consumed[(m + 1) % 4]);
        }
    }

    /// The canonical key of `state` as a [`PackedState`].
    fn canonical_key(
        canon: &dyn Canonicalizer,
        codec: &StateCodec,
        state: &SimState,
        budget: u32,
    ) -> PackedState {
        let mut scratch = CanonScratch::new();
        PackedState::from_words(canon.canonical_words(codec, state, budget, &mut scratch))
    }

    #[test]
    fn canonical_key_is_orbit_invariant() {
        let sim = symmetric_ring();
        let codec = StateCodec::new(&sim, 0);
        let canon =
            SymmetryCanonicalizer::new(&sim, (1..4).map(|r| rotation(r, 4)).collect()).unwrap();

        // A state and its rotation must share a canonical key.
        let mut state = sim.initial_state();
        sim.step(
            &mut state,
            &Decisions {
                inject: vec![MessageId::from_index(0)],
                ..Decisions::default()
            },
        );
        let mut rotated = SimState::new(0, 0);
        rotation(1, 4).apply_into(&state, &mut rotated);
        assert_ne!(codec.pack(&state, 0), codec.pack(&rotated, 0));
        assert_eq!(
            canonical_key(&canon, &codec, &state, 0),
            canonical_key(&canon, &codec, &rotated, 0),
        );
        // The canonical key is a genuine orbit member's packed key.
        let key = canonical_key(&canon, &codec, &state, 0);
        let members: Vec<PackedState> = (0..4)
            .map(|r| {
                if r == 0 {
                    codec.pack(&state, 0)
                } else {
                    let mut img = SimState::new(0, 0);
                    rotation(r, 4).apply_into(&state, &mut img);
                    codec.pack(&img, 0)
                }
            })
            .collect();
        assert_eq!(Some(&key), members.iter().min());
    }

    #[test]
    fn identity_canonicalizer_matches_plain_pack() {
        let sim = symmetric_ring();
        let codec = StateCodec::new(&sim, 1);
        let state = sim.initial_state();
        assert_eq!(
            canonical_key(&IdentityCanonicalizer, &codec, &state, 1),
            codec.pack(&state, 1)
        );
        assert!(IdentityCanonicalizer.is_identity());
        let empty = SymmetryCanonicalizer::new(&sim, vec![]).unwrap();
        assert!(empty.is_identity());
    }
}
