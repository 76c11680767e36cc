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
//! Each cycle's candidates are stored flat ([`wormcdg::Candidates`]),
//! and of each candidate's sharing analysis only the shared channels
//! outside the cycle are kept, also flat: they are all a theorem class
//! reads. [`Analysis::sharing`] recomputes one candidate's whole
//! analysis for a report.
//!
//! `static_class` is the one place a candidate's theorem class is
//! decided; `classify_algorithm` reaches it too, one candidate at a
//! time, so it never analyses a candidate past the first reachable
//! one.

use std::cell::RefCell;

use wormcdg::sharing::{CycleIndex, Sharing, SharingAnalysis};
use wormcdg::{enumerate_candidates, Candidates, Cdg, CdgCycle, MsgPair, Segment, Witnesses};
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

/// Apply Theorems 2–5 to the candidate `segments`, whose shared
/// channels outside the cycle are `outside`, in the order the paper's
/// scopes nest: no outside sharing (Theorem 2), then a single outside
/// channel with two sharers (Theorem 4), every message sharing under
/// minimal routing (Theorem 3), or three sharers (Theorem 5).
pub(crate) fn static_class(
    table: &TableRouting,
    cycle: &CycleIndex,
    segments: &[Segment],
    outside: Sharing<'_>,
    minimal: bool,
) -> StaticClass {
    let mut outside = outside.outside();
    let Some(shared) = outside.next() else {
        return StaticClass::NoOutsideSharing;
    };
    if outside.next().is_none() {
        // A candidate's messages are distinct and a path never repeats
        // a channel, so no message uses a channel twice.
        debug_assert!(distinct(shared.users));
        let users = shared.users.len();
        if users == 2 {
            return StaticClass::TwoSharers;
        }
        if minimal && users == segments.len() {
            return StaticClass::MinimalAllShare;
        }
        if users == 3 {
            if let Ok(ec) = eight_conditions_in(table, cycle, segments, shared) {
                return StaticClass::ThreeSharers(ec);
            }
        }
    }
    StaticClass::OutOfScope
}

/// Whether `users` holds no message twice.
fn distinct(users: &[MsgPair]) -> bool {
    let mut sorted = users.to_vec();
    sorted.sort_unstable();
    sorted.windows(2).all(|w| w[0] != w[1])
}

/// One static deadlock candidate with its shared channels outside the
/// cycle and its theorem classification, read from its cycle's flat
/// stores.
#[derive(Clone, Copy, Debug)]
pub struct CandidateAnalysis<'a> {
    /// The candidate's segments, in cycle order.
    pub segments: &'a [Segment],
    /// Its shared channels outside the cycle, in channel order: all a
    /// theorem class reads. [`Analysis::sharing`] recomputes the whole
    /// analysis, inside channels included.
    pub outside: Sharing<'a>,
    /// What the theorems conclude.
    pub class: &'a StaticClass,
}

/// One CDG cycle with its (bounded) candidate enumeration.
#[derive(Clone, Debug)]
pub struct CycleAnalysis {
    /// The cycle.
    pub cycle: CdgCycle,
    /// Its static candidates, in enumeration order.
    pub candidates: Candidates,
    /// Each candidate's theorem class, in the same order.
    classes: Vec<StaticClass>,
    /// The shared channels outside the cycle of every candidate, one
    /// candidate after another; candidate `i` holds the records
    /// `outside_starts[i]..outside_starts[i + 1]`.
    outside: SharingAnalysis,
    outside_starts: Vec<u32>,
    /// Whether enumeration covered every candidate. False when more
    /// than `max_candidates` exist: `candidates` then holds the first
    /// `max_candidates + 1`, and the cycle can never be certified free.
    pub enumeration_complete: bool,
}

impl CycleAnalysis {
    /// Enumerate `cycle`'s candidates over `witnesses` (every one when
    /// there are at most `max_candidates`, else the first
    /// `max_candidates + 1`) and analyse each over `index`, which is
    /// set to the cycle here. `minimal` is the table's minimality.
    fn build(
        table: &TableRouting,
        witnesses: &Witnesses,
        index: &mut CycleIndex,
        cycle: CdgCycle,
        max_candidates: usize,
        minimal: bool,
    ) -> Self {
        let (candidates, enumeration_complete) =
            enumerate_candidates(witnesses, &cycle, max_candidates);
        index.set(&cycle);
        let mut outside = SharingAnalysis::default();
        let mut outside_starts = Vec::with_capacity(candidates.len() + 1);
        outside_starts.push(0);
        let classes = candidates
            .iter()
            .map(|segments| {
                let range = index.analyze_into(table, segments, true, &mut outside);
                outside_starts.push(range.end as u32);
                static_class(table, index, segments, outside.range(range), minimal)
            })
            .collect();
        CycleAnalysis {
            cycle,
            candidates,
            classes,
            outside,
            outside_starts,
            enumeration_complete,
        }
    }

    /// Candidate `i`, analysed.
    pub fn candidate(&self, i: usize) -> CandidateAnalysis<'_> {
        CandidateAnalysis {
            segments: &self.candidates[i],
            outside: self
                .outside
                .range(self.outside_starts[i] as usize..self.outside_starts[i + 1] as usize),
            class: &self.classes[i],
        }
    }

    /// Every candidate, analysed, in enumeration order.
    pub fn analyses(&self) -> impl ExactSizeIterator<Item = CandidateAnalysis<'_>> + '_ {
        (0..self.candidates.len()).map(|i| self.candidate(i))
    }
}

/// The candidate phase of [`Analysis::build`]: each cycle's
/// Definition 6 candidates (every one when there are at most
/// `max_candidates`, else the first `max_candidates + 1`), with their
/// outside shared channels and theorem classes. `minimal` is the
/// table's minimality.
pub fn analyze_cycles(
    net: &Network,
    table: &TableRouting,
    cycles: Vec<CdgCycle>,
    max_candidates: usize,
    minimal: bool,
) -> Vec<CycleAnalysis> {
    if cycles.is_empty() {
        return Vec::new();
    }
    let witnesses = Witnesses::of_cycles(table, &cycles);
    let mut index = CycleIndex::new(net);
    cycles
        .into_iter()
        .map(|cycle| {
            CycleAnalysis::build(
                table,
                &witnesses,
                &mut index,
                cycle,
                max_candidates,
                minimal,
            )
        })
        .collect()
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
    /// The index [`Analysis::with_index`] lends out; its arrays are
    /// allocated on first use.
    index: RefCell<CycleIndex>,
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
            (
                analyze_cycles(net, table, raw, max_candidates, properties.minimal),
                complete,
            )
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
            index: RefCell::new(CycleIndex::new(net)),
        }
    }

    /// Whether the CDG is acyclic (Theorem 1).
    pub fn is_acyclic(&self) -> bool {
        self.numbering.is_some()
    }

    /// Iterate every candidate analysis across all enumerated cycles.
    pub fn candidates(&self) -> impl Iterator<Item = (&CycleAnalysis, CandidateAnalysis<'_>)> {
        self.cycles
            .iter()
            .flat_map(|cy| cy.analyses().map(move |ca| (cy, ca)))
    }

    /// Run `f` over a cycle index holding `cycle`, reusing one index
    /// across calls: the geometry and sharing questions a report asks
    /// about a candidate after the analysis is built.
    pub fn with_index<R>(&self, cycle: &CdgCycle, f: impl FnOnce(&mut CycleIndex) -> R) -> R {
        let mut index = self.index.borrow_mut();
        index.set(cycle);
        f(&mut index)
    }

    /// The whole sharing analysis of candidate `i` of `cy`, inside
    /// shared channels included.
    pub fn sharing(&self, cy: &CycleAnalysis, i: usize) -> SharingAnalysis {
        self.with_index(&cy.cycle, |index| {
            index.analyze(self.table, &cy.candidates[i])
        })
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
        for ca in a.cycles[0].analyses() {
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
