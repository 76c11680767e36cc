//! Theorem 5: the eight conditions under which a cycle whose shared
//! channel is used by exactly three messages is an unreachable
//! configuration.
//!
//! The paper labels the three sharing messages by their distance from
//! the shared channel to the cycle: `M_x` uses the most channels from
//! `c_s` to its entry, `M_z` the fewest, `M_y` the third. The cycle is
//! unreachable **iff** all eight conditions hold.
//!
//! **Reconstruction note.** The available text of the paper is an OCR
//! of the original and several condition statements are partially
//! garbled. Conditions 1–5 follow the paper's wording; condition 6's
//! second disjunct is reconstructed as "`M_z` immediately precedes
//! `M_y` in the cycle and `d_z < d_y`". Conditions 7 and 8 are the two
//! *timing races* of the construction; their printed inequalities are
//! unreadable in the scan, so we re-derived them for our router
//! microarchitecture and calibrated the constants against exhaustive
//! reachability search (see `wormbench`'s probes):
//!
//! * **condition 7** (the `M_z`-blocks-`M_x` race): forming the
//!   deadlock requires `M_z` to reach its entry before `M_x` — having
//!   entered earlier and serialized behind `M_x` and `M_y` on the
//!   shared channel — walks its held span. Unreachability therefore
//!   requires `d_x + between(x→z) < d_z + g_y + 2`, where `g_y` is
//!   `M_y`'s minimum length (it must pass the shared channel between
//!   them) and `between` counts channels held by segments interposed
//!   between `M_x` and `M_z` (their owners relay the deadline).
//! * **condition 8** (the `M_y`-after-`M_z` escape): if segments
//!   interposed between `M_z` and `M_y` are long enough, `M_y` can use
//!   the shared channel *after* `M_z` and still arrive in time, which
//!   always yields a deadlock. Unreachability requires
//!   `d_z + between(z→y) ≤ d_y`.
//!
//! The checker is validated end-to-end: on all six Figure 3 scenarios
//! (and on randomized family instances in the test suite) its verdict
//! matches the exhaustive search, which is ground truth.

use wormcdg::sharing::{CycleIndex, MessageGeometry, SharedChannel};
use wormcdg::{CdgCycle, MsgPair, Segment};
use wormnet::Network;
use wormroute::TableRouting;

/// Per-condition outcome of the Theorem 5 check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EightConditions {
    /// The three sharing messages labeled x (largest `d`), y, z
    /// (smallest `d`).
    pub x: MsgPair,
    /// Middle-distance message.
    pub y: MsgPair,
    /// Smallest-distance message.
    pub z: MsgPair,
    /// The individual conditions, in the paper's numbering (index 0 =
    /// condition 1).
    pub conditions: [bool; 8],
}

impl EightConditions {
    /// Theorem 5's verdict: unreachable iff all eight hold.
    pub fn unreachable(&self) -> bool {
        self.conditions.iter().all(|&c| c)
    }

    /// Indices (1-based) of the conditions that fail.
    pub fn failing(&self) -> Vec<usize> {
        self.conditions
            .iter()
            .enumerate()
            .filter(|(_, &ok)| !ok)
            .map(|(i, _)| i + 1)
            .collect()
    }
}

/// Errors for inapplicable inputs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConditionsError {
    /// The shared channel is not used by exactly three configuration
    /// messages.
    NotThreeSharers(usize),
    /// A sharing message does not use the shared channel before
    /// entering the cycle, so its `d` is undefined (condition 2 covers
    /// this as "false", but the caller asked for geometry that does
    /// not exist).
    SharedInsideCycle(MsgPair),
}

impl std::fmt::Display for ConditionsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConditionsError::NotThreeSharers(n) => {
                write!(f, "theorem 5 needs exactly three sharers, got {n}")
            }
            ConditionsError::SharedInsideCycle((s, d)) => {
                write!(
                    f,
                    "message {s}->{d} uses the shared channel inside the cycle"
                )
            }
        }
    }
}

impl std::error::Error for ConditionsError {}

/// Evaluate the eight conditions for `shared` over the candidate
/// `segments` of `cycle`.
///
/// `shared.users` must contain exactly three messages; other
/// configuration messages (non-sharers) contribute only through the
/// "channels used by other messages between" terms of conditions 5, 7
/// and 8.
pub fn eight_conditions(
    net: &Network,
    table: &TableRouting,
    cycle: &CdgCycle,
    segments: &[Segment],
    shared: SharedChannel<'_>,
) -> Result<EightConditions, ConditionsError> {
    eight_conditions_in(table, &CycleIndex::of(net, cycle), segments, shared)
}

/// [`eight_conditions`] over the cycle `cycle` holds.
pub(crate) fn eight_conditions_in(
    table: &TableRouting,
    cycle: &CycleIndex,
    segments: &[Segment],
    shared: SharedChannel<'_>,
) -> Result<EightConditions, ConditionsError> {
    // The users of a shared channel are distinct candidate messages.
    let sharers: &[MsgPair] = shared.users;
    if sharers.len() != 3 {
        return Err(ConditionsError::NotThreeSharers(sharers.len()));
    }

    // Geometry of every configuration message.
    let geoms: Vec<(MsgPair, MessageGeometry)> = segments
        .iter()
        .map(|s| (s.msg, cycle.geometry(table, s.msg, Some(shared.channel))))
        .collect();
    let geom = |m: MsgPair| -> &MessageGeometry {
        &geoms
            .iter()
            .find(|(p, _)| *p == m)
            .expect("config message")
            .1
    };

    // Condition 2: all three sharers use c_s outside the cycle (their
    // d is defined). If not, the remaining conditions still evaluate
    // but d-based comparisons treat the message appropriately; the
    // paper's statement makes the whole theorem inapplicable, so we
    // surface d=None as condition-2 failure with d treated as 0.
    let d_of = |m: MsgPair| geom(m).d;
    let cond2 = sharers.iter().all(|&m| d_of(m).is_some());

    // Label x, y, z by descending d (ties arbitrary; condition 3
    // fails on ties anyway).
    let mut by_d: Vec<(MsgPair, usize)> =
        sharers.iter().map(|&m| (m, d_of(m).unwrap_or(0))).collect();
    by_d.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let (x, d_x) = by_d[0];
    let (y, d_y) = by_d[1];
    let (z, d_z) = by_d[2];
    let a_x = geom(x).a;
    let a_y = geom(y).a;
    let a_z = geom(z).a;

    // Segment order helpers.
    let order: Vec<MsgPair> = segments.iter().map(|s| s.msg).collect();
    let pos = |m: MsgPair| order.iter().position(|&o| o == m).expect("config message");
    let k = order.len();
    // Channels held by the segments strictly between a and b, walking
    // the cycle in dependency order from a to b.
    let between = |a: MsgPair, b: MsgPair| -> usize {
        let (pa, pb) = (pos(a), pos(b));
        let mut total = 0;
        let mut i = (pa + 1) % k;
        while i != pb {
            total += segments[i].len as usize;
            i = (i + 1) % k;
        }
        total
    };
    // The next *sharing* message after `a` in cycle order.
    let next_sharer = |a: MsgPair| -> MsgPair {
        let pa = pos(a);
        for step in 1..=k {
            let m = order[(pa + step) % k];
            if sharers.contains(&m) {
                return m;
            }
        }
        unreachable!("three sharers exist");
    };
    let immediately_precedes = |a: MsgPair, b: MsgPair| (pos(a) + 1) % k == pos(b);
    // The message whose segment immediately precedes `m`'s.
    let predecessor = |m: MsgPair| order[(pos(m) + k - 1) % k];

    // Condition 1: in cycle order, x is followed (among sharers) by z.
    let cond1 = next_sharer(x) == z;
    // Condition 3: all three distances distinct.
    let cond3 = d_x != d_y && d_y != d_z && d_x != d_z;
    // Condition 4: x uses more channels within the cycle than from
    // c_s to its entry.
    let cond4 = a_x > d_x;
    // Condition 5: if z's predecessor in the cycle does not use c_s,
    // z must use more channels within the cycle than from c_s to it.
    let pred_z = predecessor(z);
    let cond5 = sharers.contains(&pred_z) || a_z > d_z;
    // Condition 6 (reconstructed): y uses more channels within the
    // cycle than from c_s to it, or z immediately precedes y and
    // d_z < d_y.
    let cond6 = a_y > d_y || (immediately_precedes(z, y) && d_z < d_y);
    // Condition 7 (reconstructed timing race, see module docs):
    // unreachable requires M_z's deadline to be unmeetable:
    // d_x + between(x, z) < d_z + g_y + 2, with g_y = M_y's minimum
    // sustaining length (its ring segment).
    let g_of = |m: MsgPair| -> usize {
        segments
            .iter()
            .find(|s| s.msg == m)
            .expect("config message")
            .len as usize
    };
    let cond7 = d_x + between(x, z) < d_z + g_of(y) + 2;
    // Condition 8 (reconstructed escape): unreachable requires
    // d_z + between(z, y) <= d_y.
    let cond8 = d_z + between(z, y) <= d_y;

    Ok(EightConditions {
        x,
        y,
        z,
        conditions: [cond1, cond2, cond3, cond4, cond5, cond6, cond7, cond8],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::{CycleMessageSpec, SharedCycleSpec};

    /// Three sharers, all satisfying the conditions: a_i > d_i, the
    /// order x..z.. adjacency, distinct distances.
    fn all_hold_spec() -> SharedCycleSpec {
        // Cycle order: m0 (d=4), m1 (d=1), m2 (d=2):
        //   x = m0 (d 4), z = m1 (d 1), y = m2 (d 2).
        // cond1: after x the next sharer is m1 = z: ok.
        // g chosen so a_i = g + 1 > d_i; cond7: d_x + 0 < a_z + d_z
        //   -> 4 < (g1+1) + 1 -> g1 >= 4 ... use g1 = 5.
        // cond8: d_z + between(z,y) < d_x -> 1 + 0 < 4 ok.
        SharedCycleSpec {
            messages: vec![
                CycleMessageSpec::shared(4, 5, 1),
                CycleMessageSpec::shared(1, 5, 1),
                CycleMessageSpec::shared(2, 5, 1),
            ],
        }
    }

    fn check(spec: &SharedCycleSpec) -> EightConditions {
        let c = spec.build();
        let cycle = c.cycle();
        let candidate = c.canonical_candidate();
        let analysis = wormcdg::sharing::analyze(&c.net, &c.table, &cycle, &candidate.segments);
        let shared = analysis
            .shared()
            .outside()
            .find(|s| s.channel == c.cs)
            .expect("cs shared outside");
        eight_conditions(&c.net, &c.table, &cycle, &candidate.segments, shared).unwrap()
    }

    #[test]
    fn all_conditions_hold_on_reference_spec() {
        let ec = check(&all_hold_spec());
        assert_eq!(ec.failing(), Vec::<usize>::new());
        assert!(ec.unreachable());
        // Labels by distance.
        assert_eq!(ec.x, ec.x);
        let c = all_hold_spec().build();
        assert_eq!(ec.x, c.built[0].pair);
        assert_eq!(ec.z, c.built[1].pair);
        assert_eq!(ec.y, c.built[2].pair);
    }

    #[test]
    fn condition3_fails_on_equal_distances() {
        let mut spec = all_hold_spec();
        spec.messages[2].d = 4; // same as x
        let ec = check(&spec);
        assert!(ec.failing().contains(&3));
        assert!(!ec.unreachable());
    }

    #[test]
    fn condition4_fails_when_x_access_too_long() {
        let mut spec = all_hold_spec();
        spec.messages[0].d = 7; // a_x = 6 <= 7
        let ec = check(&spec);
        assert!(ec.failing().contains(&4));
    }

    #[test]
    fn condition1_fails_when_y_follows_x() {
        // Reorder so after x comes y, not z.
        let spec = SharedCycleSpec {
            messages: vec![
                CycleMessageSpec::shared(4, 5, 1), // x
                CycleMessageSpec::shared(2, 5, 1), // y
                CycleMessageSpec::shared(1, 5, 1), // z
            ],
        };
        let ec = check(&spec);
        assert!(ec.failing().contains(&1));
    }

    #[test]
    fn condition7_fails_when_x_access_meets_the_race() {
        // d_x + between >= d_z + g_y + 2 makes the M_z race feasible.
        let spec = SharedCycleSpec {
            messages: vec![
                CycleMessageSpec::shared(5, 5, 1), // M_x
                CycleMessageSpec::shared(1, 3, 1), // M_z
                CycleMessageSpec::shared(2, 2, 1), // M_y: 5 >= 1 + 2 + 2
            ],
        };
        let ec = check(&spec);
        assert_eq!(ec.failing(), vec![7]);
    }

    #[test]
    fn condition8_fails_when_x_access_short() {
        // d_z + between(z,y) < d_x: make d_x barely above d_y and put
        // z's segment between... with adjacency z->y, between = 0, so
        // need d_z >= d_x to fail: impossible by labeling. Instead add
        // a non-sharing message between z and y.
        let spec = SharedCycleSpec {
            messages: vec![
                CycleMessageSpec::shared(4, 5, 1),  // x
                CycleMessageSpec::shared(1, 5, 1),  // z
                CycleMessageSpec::private(1, 5, 1), // non-sharer between z and y
                CycleMessageSpec::shared(2, 5, 1),  // y
            ],
        };
        let ec = check(&spec);
        // d_z + between(z,y) = 1 + 5 = 6 > d_y = 2: condition 8 fails.
        assert!(ec.failing().contains(&8));
    }

    #[test]
    fn boundary_instance_is_length_dependent() {
        // The Fleury-Fraigniaud phenomenon (paper Section 1): at the
        // timing-race boundary, freedom depends on a message's length.
        use wormsearch::{explore, SearchConfig};
        use wormsim::{MessageSpec, Sim};
        let c = SharedCycleSpec {
            messages: vec![
                CycleMessageSpec::shared(5, 5, 1),
                CycleMessageSpec::shared(1, 3, 1),
                CycleMessageSpec::shared(2, 2, 1),
            ],
        }
        .build();
        let run = |l_y: usize| {
            let lengths = [5usize, 3, l_y];
            let specs: Vec<MessageSpec> = c
                .built
                .iter()
                .zip(lengths)
                .map(|(b, l)| MessageSpec::new(b.pair.0, b.pair.1, l))
                .collect();
            let sim = Sim::new(&c.net, &c.table, specs, Some(1)).unwrap();
            explore(&sim, &SearchConfig::default()).verdict.is_free()
        };
        assert!(!run(2), "two-flit M_y deadlocks");
        assert!(run(3), "three-flit M_y is free");
    }

    #[test]
    fn non_three_sharers_rejected() {
        let c = SharedCycleSpec {
            messages: vec![
                CycleMessageSpec::shared(2, 3, 1),
                CycleMessageSpec::shared(3, 4, 1),
                CycleMessageSpec::shared(2, 3, 1),
                CycleMessageSpec::shared(3, 4, 1),
            ],
        }
        .build();
        let cycle = c.cycle();
        let candidate = c.canonical_candidate();
        let analysis = wormcdg::sharing::analyze(&c.net, &c.table, &cycle, &candidate.segments);
        let shared = analysis.shared().outside().next().unwrap();
        let err =
            eight_conditions(&c.net, &c.table, &cycle, &candidate.segments, shared).unwrap_err();
        assert_eq!(err, ConditionsError::NotThreeSharers(4));
        assert!(err.to_string().contains('4'));
    }
}
