//! The precomputed analysis every lint reads.
//!
//! Building the context does all of the expensive work once — the
//! routing-property pass, CDG construction, cycle and candidate
//! enumeration, sharing analysis, and the purely static theorem
//! classification — so individual lints are cheap projections over
//! shared data.

use worm_core::conditions::{eight_conditions, EightConditions};
use wormcdg::sharing::{self, SharingAnalysis};
use wormcdg::{enumerate_candidates, Cdg, CdgCycle, DeadlockCandidate};
use wormexist::{ExistOptions, ExistenceReport};
use wormnet::Network;
use wormroute::properties::{self, PropertyReport};
use wormroute::TableRouting;

/// What the Section 5 theorems say about one static candidate, with no
/// search assistance. This mirrors `worm_core::classify::CycleClass`
/// minus the search-decided variants: wormlint is a static pass, so
/// what the theorems leave open stays [`StaticClass::OutOfScope`].
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

/// One CDG cycle with its (bounded) candidate enumeration.
#[derive(Clone, Debug)]
pub struct CycleAnalysis {
    /// The cycle.
    pub cycle: CdgCycle,
    /// Analyses of its static candidates.
    pub candidates: Vec<CandidateAnalysis>,
    /// Whether enumeration covered every candidate (false when the
    /// budget ran out — the cycle can then never be certified free).
    pub enumeration_complete: bool,
}

/// Everything the lints read: the spec plus derived analyses.
pub struct LintContext<'a> {
    /// The network under analysis.
    pub net: &'a Network,
    /// The routing table under analysis.
    pub table: &'a TableRouting,
    /// Definition 7–9 + minimality + Corollary 1 property report, with
    /// the counts and witnesses the `W003`, `W005`, `W101`–`W105` and
    /// `W209` lints project (one pass over the table).
    pub properties: PropertyReport,
    /// The channel dependency graph.
    pub cdg: Cdg,
    /// Whether the CDG is acyclic ([`Cdg::is_acyclic`], decided once
    /// here) — the fact `W105`, the `W208`/`W209` certificates and the
    /// overall verdict rest on.
    pub acyclic: bool,
    /// Elementary CDG cycles with candidate analyses (the first
    /// `max_cycles` in streamed order when the budget ran out).
    pub cycles: Vec<CycleAnalysis>,
    /// Whether `cycles` holds *every* elementary cycle. When `false`
    /// the cycle budget was exceeded: `Deadlockable` findings remain
    /// sound, but the spec can never be certified free.
    pub cycles_complete: bool,
    /// The existence engine's verdict for the *network* (independent
    /// of the table under analysis): does any deadlock-free routing
    /// exist at all? Read by the `W3xx` lint family.
    pub existence: ExistenceReport,
}

impl<'a> LintContext<'a> {
    /// Build the context, enumerating at most `max_cycles` elementary
    /// cycles and `max_candidates` candidates per cycle. The CDG's
    /// acyclicity gates cycle enumeration and lands in
    /// [`LintContext::acyclic`].
    pub fn build(
        net: &'a Network,
        table: &'a TableRouting,
        max_cycles: usize,
        max_candidates: usize,
    ) -> Self {
        let props = {
            let _span = wormtrace::span("properties.analyze");
            properties::analyze(net, table)
        };
        let cdg = Cdg::build(net, table);
        let acyclic = cdg.is_acyclic();
        let (cycles, cycles_complete) = if acyclic {
            (Vec::new(), true)
        } else {
            let (raw, complete) = cdg.cycles_streamed(max_cycles);
            let analyzed = raw
                .into_iter()
                .map(|cycle| analyze_cycle(net, table, &cdg, cycle, props.minimal, max_candidates))
                .collect();
            (analyzed, complete)
        };
        let existence = wormexist::analyze(net, &ExistOptions::default());
        LintContext {
            net,
            table,
            properties: props,
            cdg,
            acyclic,
            cycles,
            cycles_complete,
            existence,
        }
    }

    /// Does the static pass certify *this* table deadlockable? The
    /// same fold the overall verdict uses, before any search
    /// assistance: Corollary 1, or a theorem-certified reachable
    /// candidate on a cyclic CDG.
    pub fn statically_deadlockable(&self) -> bool {
        !self.acyclic
            && (self.properties.node_function
                || self
                    .candidates()
                    .any(|(_, ca)| ca.class.reachable() == Some(true)))
    }

    /// Iterate every candidate analysis across all enumerated cycles.
    pub fn candidates(&self) -> impl Iterator<Item = (&CycleAnalysis, &CandidateAnalysis)> {
        self.cycles
            .iter()
            .flat_map(|cy| cy.candidates.iter().map(move |ca| (cy, ca)))
    }
}

fn analyze_cycle(
    net: &Network,
    table: &TableRouting,
    cdg: &Cdg,
    cycle: CdgCycle,
    minimal: bool,
    max_candidates: usize,
) -> CycleAnalysis {
    let (candidates, enumeration_complete) = enumerate_candidates(cdg, &cycle, max_candidates);
    let candidates = candidates
        .into_iter()
        .map(|candidate| {
            let sharing = sharing::analyze(net, table, &cycle, &candidate);
            let class = classify_static(net, table, &cycle, &candidate, &sharing, minimal);
            CandidateAnalysis {
                candidate,
                sharing,
                class,
            }
        })
        .collect();
    CycleAnalysis {
        cycle,
        candidates,
        enumeration_complete,
    }
}

/// The static-only half of `worm_core::classify_candidate`: apply
/// Theorems 2–5 in the same order, but never fall back to search.
fn classify_static(
    net: &Network,
    table: &TableRouting,
    cycle: &CdgCycle,
    candidate: &DeadlockCandidate,
    sharing: &SharingAnalysis,
    minimal: bool,
) -> StaticClass {
    let outside: Vec<_> = sharing.outside().collect();
    if outside.is_empty() {
        return StaticClass::NoOutsideSharing;
    }
    if outside.len() == 1 {
        let shared = outside[0];
        let mut users = shared.users.clone();
        users.sort_unstable();
        users.dedup();
        if users.len() == 2 {
            return StaticClass::TwoSharers;
        }
        if minimal && users.len() == candidate.segments.len() {
            return StaticClass::MinimalAllShare;
        }
        if users.len() == 3 {
            if let Ok(ec) = eight_conditions(net, table, cycle, candidate, shared) {
                return StaticClass::ThreeSharers(ec);
            }
        }
    }
    StaticClass::OutOfScope
}

#[cfg(test)]
mod tests {
    use super::*;
    use worm_core::paper::{fig1, fig2, fig3};
    use wormnet::topology::ring_unidirectional;
    use wormroute::algorithms::clockwise_ring;

    #[test]
    fn ring_candidates_are_theorem2() {
        let (net, nodes) = ring_unidirectional(4);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let ctx = LintContext::build(&net, &table, 10_000, 10_000);
        assert!(!ctx.cdg.is_acyclic());
        assert!(ctx.cycles_complete);
        assert_eq!(ctx.cycles.len(), 1);
        assert!(!ctx.cycles[0].candidates.is_empty());
        for ca in &ctx.cycles[0].candidates {
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
        let ctx = LintContext::build(&c.net, &c.table, 10_000, 10_000);
        let (_, ca) = ctx.candidates().next().expect("fig1 has its candidate");
        assert!(matches!(ca.class, StaticClass::OutOfScope));
        assert_eq!(ca.class.reachable(), None);
    }

    #[test]
    fn fig2_is_theorem4() {
        let c = fig2::two_message_deadlock();
        let ctx = LintContext::build(&c.net, &c.table, 10_000, 10_000);
        let (_, ca) = ctx.candidates().next().expect("fig2 has its candidate");
        assert!(matches!(ca.class, StaticClass::TwoSharers));
    }

    #[test]
    fn fig3_scenarios_match_theorem5() {
        for s in fig3::all_scenarios() {
            let c = s.spec.build();
            let ctx = LintContext::build(&c.net, &c.table, 10_000, 10_000);
            let three_sharer = ctx
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
