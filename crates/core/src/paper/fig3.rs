//! Figure 3 / Theorem 5: six three-sharer scenarios.
//!
//! The paper's Figure 3 presents six instantiations of a cycle whose
//! shared channel is used by exactly three messages:
//!
//! * (a), (b) — all eight conditions hold: **false resource cycles**
//!   (unreachable configurations);
//! * (c) — condition 4 violated (`M_x`'s access path at least as long
//!   as its in-cycle path): **deadlock**;
//! * (d) — condition 6 violated (`M_y` too far from the shared channel
//!   and not immediately preceded by `M_z`): **deadlock**;
//! * (e) — condition 7 violated (`M_z` too short to outlast `M_x`'s
//!   approach): **deadlock**;
//! * (f) — a fourth message that does not use the shared channel,
//!   violating conditions 6 and 8: **deadlock**.
//!
//! The figure itself is graphical (and the available scan is too
//! degraded to read off exact channel counts), so the six instances
//! below are *reconstructions*: parameter choices that make exactly
//! the targeted conditions fail. The experiment suite validates each
//! verdict twice — once by the eight-condition checker, once by
//! exhaustive reachability search.

use crate::family::{CycleMessageSpec, SharedCycleSpec};

/// One Figure 3 scenario.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// "a" through "f".
    pub name: &'static str,
    /// The construction parameters.
    pub spec: SharedCycleSpec,
    /// The paper's verdict: `true` = unreachable (false resource
    /// cycle), `false` = reachable deadlock.
    pub paper_unreachable: bool,
    /// Which conditions (1-based) the scenario is designed to violate
    /// (empty for (a)/(b)).
    pub violated_conditions: &'static [usize],
    /// Extra message instances the adversary injects beyond the cycle
    /// messages: `(cycle message index, length)`. The paper's model
    /// lets nodes "generate messages of arbitrary length at any rate";
    /// scenario (c)'s deadlock needs a long duplicate of the
    /// non-sharing predecessor, which parks on `M_x`'s entry channel
    /// while draining ("that message can block M_x indefinitely by
    /// creating a long enough message").
    pub extras: &'static [(usize, usize)],
}

impl Scenario {
    /// Simulation specs for the search: the cycle messages at their
    /// adversarial *minimum* lengths (just long enough to hold their
    /// segments — the paper's model lets the adversary pick lengths,
    /// and shorter messages release the shared channel sooner), plus
    /// any extra instances.
    pub fn message_specs(&self, c: &crate::family::CycleConstruction) -> Vec<wormsim::MessageSpec> {
        let mut specs: Vec<wormsim::MessageSpec> = c
            .built
            .iter()
            .map(|b| wormsim::MessageSpec::new(b.pair.0, b.pair.1, b.spec.g))
            .collect();
        for &(idx, len) in self.extras {
            let b = &c.built[idx];
            specs.push(wormsim::MessageSpec::new(b.pair.0, b.pair.1, len));
        }
        specs
    }
}

/// Scenario (a): all eight conditions hold — a false resource cycle.
pub fn scenario_a() -> Scenario {
    Scenario {
        name: "a",
        spec: SharedCycleSpec {
            messages: vec![
                CycleMessageSpec::shared(4, 5, 1), // M_x
                CycleMessageSpec::shared(1, 5, 1), // M_z
                CycleMessageSpec::shared(2, 5, 1), // M_y
            ],
        },
        paper_unreachable: true,
        violated_conditions: &[],
        extras: &[],
    }
}

/// Scenario (b): all conditions hold, with condition 6 satisfied via
/// its second disjunct (`M_z` immediately precedes `M_y`), mirroring
/// the paper's "(b) false resource cycle ... even though message `M_y`
/// can be blocked between the shared channel and the cycle".
pub fn scenario_b() -> Scenario {
    Scenario {
        name: "b",
        spec: SharedCycleSpec {
            messages: vec![
                CycleMessageSpec::shared(6, 7, 1), // M_x
                CycleMessageSpec::shared(1, 6, 1), // M_z
                CycleMessageSpec::shared(5, 4, 1), // M_y: a_y = 5 <= d_y
            ],
        },
        paper_unreachable: true,
        violated_conditions: &[],
        extras: &[],
    }
}

/// Scenario (c): condition 4 violated — `M_x` uses no more channels
/// within the cycle than from the shared channel to it.
///
/// With `d_x >= a_x`, a message blocked at `M_x`'s cycle entry no
/// longer ties up the shared channel (its worm fits entirely on the
/// access path), so the paper's reduction applies: the non-sharing
/// predecessor parks a *long* instance on `M_x`'s entry channel while
/// draining, the remaining two sharers run Theorem 4's schedule, a
/// fresh predecessor instance takes the vacated segment, and the
/// deadlock closes. The `extras` entry supplies the long parker.
pub fn scenario_c() -> Scenario {
    Scenario {
        name: "c",
        spec: SharedCycleSpec {
            messages: vec![
                CycleMessageSpec::shared(3, 2, 1),  // M_x: a_x = 3 <= 3
                CycleMessageSpec::shared(1, 3, 1),  // M_z
                CycleMessageSpec::shared(2, 2, 1),  // M_y
                CycleMessageSpec::private(1, 2, 1), // predecessor of M_x
            ],
        },
        paper_unreachable: false,
        violated_conditions: &[4],
        extras: &[(3, 15)],
    }
}

/// Scenario (d): condition 6 violated — `M_y`'s access path is at
/// least as long as its in-cycle path (`a_y <= d_y`) and `M_z` does
/// not immediately precede it in the cycle.
///
/// As in (c), the violated condition means `M_y` can be blocked at its
/// cycle entry *without* tying up the shared channel; the non-sharing
/// spacer that precedes it parks a long instance there ("blocking M_y
/// temporarily may lead to a deadlock configuration"), the sharers
/// sequence through `c_s`, and a fresh spacer instance closes the
/// cycle.
pub fn scenario_d() -> Scenario {
    Scenario {
        name: "d",
        spec: SharedCycleSpec {
            messages: vec![
                CycleMessageSpec::shared(4, 5, 1),  // M_x
                CycleMessageSpec::shared(1, 3, 1),  // M_z
                CycleMessageSpec::private(1, 1, 1), // spacer (no c_s)
                CycleMessageSpec::shared(3, 2, 1),  // M_y: a_y = 3 <= 3
            ],
        },
        paper_unreachable: false,
        violated_conditions: &[6],
        extras: &[(2, 15)],
    }
}

/// Scenario (e): condition 7 violated — `M_x`'s access path is long
/// enough that `M_z`, serialized behind `M_x` and `M_y` on the shared
/// channel, still reaches its entry in time to block `M_x`.
pub fn scenario_e() -> Scenario {
    Scenario {
        name: "e",
        spec: SharedCycleSpec {
            messages: vec![
                CycleMessageSpec::shared(5, 5, 1), // M_x: 5 >= d_z + g_y + 2
                CycleMessageSpec::shared(1, 3, 1), // M_z
                CycleMessageSpec::shared(2, 2, 1), // M_y
            ],
        },
        paper_unreachable: false,
        violated_conditions: &[7],
        extras: &[],
    }
}

/// Scenario (f): a fourth, non-sharing message between `M_z` and
/// `M_y`; conditions 6 and 8 violated.
pub fn scenario_f() -> Scenario {
    Scenario {
        name: "f",
        spec: SharedCycleSpec {
            messages: vec![
                CycleMessageSpec::shared(5, 6, 1),  // M_x
                CycleMessageSpec::shared(1, 5, 1),  // M_z
                CycleMessageSpec::private(1, 6, 1), // S4 -> D4, no c_s
                CycleMessageSpec::shared(4, 3, 1),  // M_y
            ],
        },
        paper_unreachable: false,
        violated_conditions: &[6, 8],
        extras: &[],
    }
}

/// All six scenarios in paper order.
pub fn all_scenarios() -> Vec<Scenario> {
    vec![
        scenario_a(),
        scenario_b(),
        scenario_c(),
        scenario_d(),
        scenario_e(),
        scenario_f(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conditions::eight_conditions;
    use wormsearch::{explore, SearchConfig};
    use wormsim::Sim;

    fn checker_verdict(s: &Scenario) -> (bool, Vec<usize>) {
        let c = s.spec.build();
        let cycle = c.cycle();
        let segments = c.canonical_candidate().segments;
        let analysis = wormcdg::sharing::analyze(&c.net, &c.table, &cycle, &segments);
        let shared = analysis
            .shared()
            .outside()
            .find(|sc| sc.channel == c.cs)
            .expect("cs shared outside");
        let ec = eight_conditions(&c.net, &c.table, &cycle, &segments, shared).unwrap();
        (ec.unreachable(), ec.failing())
    }

    fn search_verdict(s: &Scenario) -> bool {
        // true = unreachable (deadlock-free)
        let c = s.spec.build();
        let sim = Sim::new(&c.net, &c.table, s.message_specs(&c), Some(1)).unwrap();
        explore(&sim, &SearchConfig::default()).verdict.is_free()
    }

    #[test]
    fn checker_matches_designed_violations() {
        for s in all_scenarios() {
            let (unreachable, failing) = checker_verdict(&s);
            assert_eq!(
                unreachable, s.paper_unreachable,
                "scenario ({}) checker verdict",
                s.name
            );
            for v in s.violated_conditions {
                assert!(
                    failing.contains(v),
                    "scenario ({}) should violate condition {v}, failing = {failing:?}",
                    s.name
                );
            }
        }
    }

    #[test]
    fn search_matches_paper_verdicts() {
        for s in all_scenarios() {
            let free = search_verdict(&s);
            assert_eq!(
                free, s.paper_unreachable,
                "scenario ({}) search verdict",
                s.name
            );
        }
    }
}
