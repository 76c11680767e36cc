//! The static analysis of one `(network, table)`, built once and read
//! by every consumer of the static verdict.
//!
//! The paper's static decision is one pass over the channel dependency
//! graph: Dally–Seitz on the CDG (Theorem 1), then Theorems 2–5 on the
//! Definition 6 candidates of each cycle. [`Analysis`] holds the result
//! of that pass — the CDG, its Kahn numbering or a bounded prefix of
//! its elementary cycles, and every enumerated candidate with its
//! sharing analysis and [`StaticClass`] — together with the routing
//! property report and the fabric's existence report. `wormlint`
//! projects it into findings, [`Analysis::classify`] walks it into an
//! [`AlgorithmVerdict`](crate::classify::AlgorithmVerdict), and
//! `wormserve` reads both from one build per job.
//!
//! `static_class` is the one place a candidate's theorem class is
//! decided; `classify_algorithm` reaches it through
//! [`CandidateAnalysis`] too, one candidate at a time, so it never
//! analyses a candidate past the first reachable one.

use wormcdg::sharing::{CycleIndex, SharingAnalysis};
use wormcdg::{enumerate_candidates, Cdg, CdgCycle, DeadlockCandidate, Witnesses};
use wormexist::{ExistOptions, ExistenceReport};
use wormnet::Network;
use wormroute::properties::{self, PropertyReport};
use wormroute::TableRouting;

use crate::conditions::{eight_conditions_in, EightConditions};

/// What the Section 5 theorems say about one static candidate, with no
/// search assistance. What the theorems leave open stays
/// [`StaticClass::OutOfScope`]; the classifier may hand it to search.
#[derive(Clone, Debug)]
pub enum StaticClass {
    /// No channel shared outside the cycle — Theorem 2 (and
    /// Corollaries 1–3): the deadlock is reachable.
    NoOutsideSharing,
    /// One outside channel shared by exactly two messages — Theorem 4:
    /// the deadlock is reachable.
    TwoSharers,
    /// Minimal routing, one outside channel shared by every
    /// configuration message — Theorem 3: the deadlock is reachable.
    MinimalAllShare,
    /// One outside channel shared by exactly three messages —
    /// Theorem 5's eight conditions decide: unreachable iff all hold.
    ThreeSharers(EightConditions),
    /// Outside the theorems' scope (≥ 4 sharers on the single outside
    /// channel, several outside shared channels, or inapplicable
    /// geometry): static analysis cannot decide.
    OutOfScope,
}

impl StaticClass {
    /// `Some(true)` = the theorems certify a reachable deadlock,
    /// `Some(false)` = they certify the configuration unreachable,
    /// `None` = out of scope.
    pub fn reachable(&self) -> Option<bool> {
        match self {
            StaticClass::NoOutsideSharing
            | StaticClass::TwoSharers
            | StaticClass::MinimalAllShare => Some(true),
            StaticClass::ThreeSharers(ec) => Some(!ec.unreachable()),
            StaticClass::OutOfScope => None,
        }
    }
}

/// Apply Theorems 2–5 to one candidate, in the order the paper's
/// scopes nest: no outside sharing (Theorem 2), then a single outside
/// channel with two sharers (Theorem 4), every message sharing under
/// minimal routing (Theorem 3), or three sharers (Theorem 5).
fn static_class(
    table: &TableRouting,
    cycle: &CycleIndex,
    candidate: &DeadlockCandidate,
    sharing: &SharingAnalysis,
    minimal: bool,
) -> StaticClass {
    let mut outside = sharing.outside();
    let Some(shared) = outside.next() else {
        return StaticClass::NoOutsideSharing;
    };
    if outside.next().is_none() {
        // A candidate's messages are distinct and a path never repeats
        // a channel, so no message uses a channel twice.
        debug_assert!(distinct(&shared.users));
        let users = shared.users.len();
        if users == 2 {
            return StaticClass::TwoSharers;
        }
        if minimal && users == candidate.segments.len() {
            return StaticClass::MinimalAllShare;
        }
        if users == 3 {
            if let Ok(ec) = eight_conditions_in(table, cycle, candidate, shared) {
                return StaticClass::ThreeSharers(ec);
            }
        }
    }
    StaticClass::OutOfScope
}

/// Whether `users` holds no message twice.
fn distinct(users: &[wormcdg::MsgPair]) -> bool {
    let mut sorted = users.to_vec();
    sorted.sort_unstable();
    sorted.windows(2).all(|w| w[0] != w[1])
}

/// One static deadlock candidate with its sharing analysis and
/// theorem classification.
#[derive(Clone, Debug)]
pub struct CandidateAnalysis {
    /// The candidate configuration.
    pub candidate: DeadlockCandidate,
    /// Its shared channels (inside/outside the cycle).
    pub sharing: SharingAnalysis,
    /// What the theorems conclude.
    pub class: StaticClass,
}

impl CandidateAnalysis {
    /// Analyse `candidate` of the cycle `cycle` holds: its shared
    /// channels, then its theorem class. `minimal` is the table's
    /// minimality.
    pub(crate) fn new(
        table: &TableRouting,
        cycle: &mut CycleIndex,
        candidate: DeadlockCandidate,
        minimal: bool,
    ) -> Self {
        let sharing = cycle.analyze(table, &candidate);
        let class = static_class(table, cycle, &candidate, &sharing, minimal);
        CandidateAnalysis {
            candidate,
            sharing,
            class,
        }
    }
}

/// One CDG cycle with its (bounded) candidate enumeration.
#[derive(Clone, Debug)]
pub struct CycleAnalysis {
    /// The cycle.
    pub cycle: CdgCycle,
    /// Analyses of its static candidates, in enumeration order.
    pub candidates: Vec<CandidateAnalysis>,
    /// Whether enumeration covered every candidate. False when more
    /// than `max_candidates` exist: `candidates` then holds the first
    /// `max_candidates + 1`, and the cycle can never be certified free.
    pub enumeration_complete: bool,
}

/// The static analysis of one `(network, table)`.
pub struct Analysis<'a> {
    /// The network under analysis.
    pub net: &'a Network,
    /// The routing table under analysis.
    pub table: &'a TableRouting,
    /// Definition 7–9 + minimality + Corollary 1 property report, with
    /// the counts and witnesses the routing lints project (one pass
    /// over the table).
    pub properties: PropertyReport,
    /// The channel dependency graph.
    pub cdg: Cdg,
    /// The Dally–Seitz certificate: the Kahn numbering of an acyclic
    /// CDG, `None` when the CDG has a cycle.
    pub numbering: Option<Vec<usize>>,
    /// Elementary CDG cycles with candidate analyses (the first
    /// `max_cycles` in streamed order when the budget ran out; empty on
    /// an acyclic CDG).
    pub cycles: Vec<CycleAnalysis>,
    /// Whether `cycles` holds *every* elementary cycle. When `false`
    /// the cycle budget was exceeded: `Deadlockable` findings remain
    /// sound, but the spec can never be certified free.
    pub cycles_complete: bool,
    /// The existence engine's verdict for the *network* (independent
    /// of the table under analysis): does any deadlock-free routing
    /// exist at all?
    pub existence: ExistenceReport,
    /// The `(max_cycles, max_candidates)` enumeration budgets.
    pub(crate) budgets: (usize, usize),
}

impl<'a> Analysis<'a> {
    /// Analyse `table` on `net`, enumerating at most `max_cycles`
    /// elementary cycles and, per cycle, every candidate when there
    /// are at most `max_candidates` of them or else the first
    /// `max_candidates + 1`; and decide the fabric's existence under
    /// `exist`.
    pub fn build(
        net: &'a Network,
        table: &'a TableRouting,
        max_cycles: usize,
        max_candidates: usize,
        exist: &ExistOptions,
    ) -> Self {
        let _span = wormtrace::span("analysis.build");
        let properties = {
            let _span = wormtrace::span("properties.analyze");
            properties::analyze(net, table)
        };
        let cdg = Cdg::build(net, table);
        let numbering = cdg.numbering();
        let (cycles, cycles_complete) = if numbering.is_some() {
            (Vec::new(), true)
        } else {
            let (raw, complete) = cdg.cycles_streamed(max_cycles);
            let witnesses = Witnesses::of_cycles(table, &raw);
            let mut index = CycleIndex::new(net);
            let analyzed = raw
                .into_iter()
                .map(|cycle| {
                    let (candidates, enumeration_complete) =
                        enumerate_candidates(&witnesses, &cycle, max_candidates);
                    index.set(&cycle);
                    let candidates = candidates
                        .into_iter()
                        .map(|c| CandidateAnalysis::new(table, &mut index, c, properties.minimal))
                        .collect();
                    CycleAnalysis {
                        cycle,
                        candidates,
                        enumeration_complete,
                    }
                })
                .collect();
            (analyzed, complete)
        };
        let existence = wormexist::analyze(net, exist);
        Analysis {
            net,
            table,
            properties,
            cdg,
            numbering,
            cycles,
            cycles_complete,
            existence,
            budgets: (max_cycles, max_candidates),
        }
    }

    /// Whether the CDG is acyclic (Theorem 1).
    pub fn is_acyclic(&self) -> bool {
        self.numbering.is_some()
    }

    /// Iterate every candidate analysis across all enumerated cycles.
    pub fn candidates(&self) -> impl Iterator<Item = (&CycleAnalysis, &CandidateAnalysis)> {
        self.cycles
            .iter()
            .flat_map(|cy| cy.candidates.iter().map(move |ca| (cy, ca)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::{fig1, fig2, fig3};
    use wormnet::topology::ring_unidirectional;
    use wormroute::algorithms::clockwise_ring;

    fn build<'a>(net: &'a Network, table: &'a TableRouting) -> Analysis<'a> {
        Analysis::build(net, table, 10_000, 10_000, &ExistOptions::default())
    }

    #[test]
    fn ring_candidates_are_theorem2() {
        let (net, nodes) = ring_unidirectional(4);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let a = build(&net, &table);
        assert!(!a.is_acyclic());
        assert!(a.cycles_complete);
        assert_eq!(a.cycles.len(), 1);
        assert!(!a.cycles[0].candidates.is_empty());
        for ca in &a.cycles[0].candidates {
            assert!(matches!(ca.class, StaticClass::NoOutsideSharing));
            assert_eq!(ca.class.reachable(), Some(true));
        }
    }

    #[test]
    fn fig1_is_out_of_scope_statically() {
        // Four messages share c_s: Theorems 3–5 do not apply and
        // Theorem 2 is defeated by the outside sharing, so the static
        // pass must leave the candidate open.
        let c = fig1::cyclic_dependency();
        let a = build(&c.net, &c.table);
        let (_, ca) = a.candidates().next().expect("fig1 has its candidate");
        assert!(matches!(ca.class, StaticClass::OutOfScope));
        assert_eq!(ca.class.reachable(), None);
    }

    #[test]
    fn fig2_is_theorem4() {
        let c = fig2::two_message_deadlock();
        let a = build(&c.net, &c.table);
        let (_, ca) = a.candidates().next().expect("fig2 has its candidate");
        assert!(matches!(ca.class, StaticClass::TwoSharers));
    }

    #[test]
    fn fig3_scenarios_match_theorem5() {
        for s in fig3::all_scenarios() {
            let c = s.spec.build();
            let a = build(&c.net, &c.table);
            let three_sharer = a
                .candidates()
                .find_map(|(_, ca)| match &ca.class {
                    StaticClass::ThreeSharers(ec) => Some(ec.clone()),
                    _ => None,
                })
                .unwrap_or_else(|| panic!("scenario ({}) must hit Theorem 5", s.name));
            assert_eq!(
                three_sharer.unreachable(),
                s.paper_unreachable,
                "scenario ({})",
                s.name
            );
        }
    }
}
