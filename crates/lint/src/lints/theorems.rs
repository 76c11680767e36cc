//! `W2xx`: CDG cycles and the Section 5 theorems.
//!
//! These lints select candidates by their [`StaticClass`] (computed
//! once in the analysis) and render them into diagnostics:
//! reachable-deadlock *certificates* for Theorems 2–4 and Theorem 5's
//! failing scorecards, false-resource-cycle scorecards when all eight
//! conditions hold, and honest `out-of-scope` findings where the
//! theorems say nothing and only exhaustive search can decide.

use crate::diagnostic::{Diagnostic, Severity};
use crate::lint::{Finding, Lint};
use crate::lints::pair_ref;
use crate::{CandidateAnalysis, CycleAnalysis, LintContext, StaticClass};
use wormcdg::sharing::SharedChannel;
use wormcdg::{describe_candidate, CdgCycle};

/// Render a cycle as a `cycle:` entity (`c4->c5->c6`).
fn cycle_ref(cycle: &CdgCycle) -> String {
    cycle
        .channels
        .iter()
        .map(|c| c.to_string())
        .collect::<Vec<_>>()
        .join("->")
}

/// The single outside shared channel of a candidate, when there is
/// exactly one (the geometry Theorems 3–5 are stated over).
fn single_outside<'a>(ca: &CandidateAnalysis<'a>) -> Option<SharedChannel<'a>> {
    let mut it = ca.outside.iter();
    let first = it.next()?;
    it.next().is_none().then_some(first)
}

/// Attach the shared-channel facts (`d_i` distances per sharer) to a
/// certificate diagnostic.
fn sharer_facts(
    ctx: &LintContext<'_>,
    cycle: &CdgCycle,
    shared: SharedChannel<'_>,
    mut d: Diagnostic,
) -> Diagnostic {
    // The users are distinct; the facts list them in pair order.
    let mut users = shared.users.to_vec();
    users.sort_unstable();
    d = d
        .entity("channel", ctx.net.channel(shared.channel))
        .fact("shared_channel", ctx.net.channel(shared.channel))
        .fact("sharers", users.len());
    ctx.with_index(cycle, |index| {
        for (i, &m) in users.iter().enumerate() {
            let g = index.geometry(ctx.table, m, Some(shared.channel));
            d = d.fact(
                format!("sharer_{i}"),
                format!(
                    "{} (d={}, a={})",
                    pair_ref(ctx.net, m),
                    g.d.map(|v| v.to_string())
                        .unwrap_or_else(|| "-".to_string()),
                    g.a
                ),
            );
        }
        d
    })
}

/// Every candidate whose theorem class satisfies `keep`, in cycle and
/// enumeration order.
fn candidates_where<'c>(
    ctx: &'c LintContext<'_>,
    keep: impl Fn(&StaticClass) -> bool,
) -> Vec<Finding<'c>> {
    ctx.cycles
        .iter()
        .flat_map(|cy| {
            cy.analyses()
                .enumerate()
                .filter(|(_, ca)| keep(ca.class))
                .map(move |(i, _)| Finding::Candidate(cy, i))
        })
        .collect()
}

/// The cycle and candidate of a candidate finding.
fn candidate<'f>(finding: &Finding<'f>) -> (&'f CycleAnalysis, CandidateAnalysis<'f>) {
    match *finding {
        Finding::Candidate(cy, i) => (cy, cy.candidate(i)),
        _ => unreachable!("a candidate lint renders candidate findings"),
    }
}

/// Shared base for per-candidate certificate diagnostics.
fn candidate_diag(
    lint: &dyn Lint,
    ctx: &LintContext<'_>,
    cy: &CycleAnalysis,
    ca: &CandidateAnalysis<'_>,
    severity: Severity,
    message: String,
) -> Diagnostic {
    Diagnostic::new(lint.code(), lint.name(), severity, message)
        .entity("cycle", cycle_ref(&cy.cycle))
        .fact(
            "configuration",
            describe_candidate(ctx.net, &cy.cycle, ca.segments),
        )
        .fact("messages", ca.segments.len())
}

/// `W201`: one census line per elementary CDG cycle.
pub struct CdgCycleCensus;

impl Lint for CdgCycleCensus {
    fn code(&self) -> &'static str {
        "W201"
    }
    fn name(&self) -> &'static str {
        "cdg-cycle-census"
    }
    fn description(&self) -> &'static str {
        "inventory of every elementary CDG cycle: length, static candidates, and how the Section 5 theorems classify them"
    }
    fn paper_anchor(&self) -> &'static str {
        "Definition 4; Theorem 1 (Dally-Seitz); Definition 6"
    }
    fn default_severity(&self) -> Severity {
        Severity::Allow
    }
    fn findings<'c>(&self, ctx: &'c LintContext<'_>) -> Vec<Finding<'c>> {
        ctx.cycles.iter().map(Finding::Cycle).collect()
    }
    fn render(&self, _: &LintContext<'_>, finding: &Finding<'_>, severity: Severity) -> Diagnostic {
        let Finding::Cycle(cy) = finding else {
            unreachable!("W201 selects cycles")
        };
        let mut reachable = 0usize;
        let mut unreachable = 0usize;
        let mut open = 0usize;
        let mut inside_only = 0usize;
        for ca in cy.analyses() {
            match ca.class.reachable() {
                Some(true) => reachable += 1,
                Some(false) => unreachable += 1,
                None => open += 1,
            }
            inside_only += usize::from(ca.outside.is_empty());
        }
        Diagnostic::new(
            self.code(),
            self.name(),
            severity,
            format!(
                "cycle of {} channels: {} candidate configuration(s) ({reachable} reachable, {unreachable} unreachable, {open} undecided by theorems)",
                cy.cycle.len(),
                cy.candidates.len(),
            ),
        )
        .entity("cycle", cycle_ref(&cy.cycle))
        .fact("length", cy.cycle.len())
        .fact("candidates", cy.candidates.len())
        .fact("enumeration_complete", cy.enumeration_complete)
        .fact("theorem_reachable", reachable)
        .fact("theorem_unreachable", unreachable)
        .fact("theorem_open", open)
        .fact("candidates_sharing_inside_only", inside_only)
    }
}

/// `W202`: Theorem 2 certificates — no outside sharing.
pub struct Theorem2NoOutsideSharing;

impl Lint for Theorem2NoOutsideSharing {
    fn code(&self) -> &'static str {
        "W202"
    }
    fn name(&self) -> &'static str {
        "reachable-deadlock-no-outside-sharing"
    }
    fn description(&self) -> &'static str {
        "a candidate whose shared channels (if any) all lie inside the cycle: every message reaches its blocking position independently, so the deadlock is reachable"
    }
    fn paper_anchor(&self) -> &'static str {
        "Theorem 2; Corollaries 1-3"
    }
    fn default_severity(&self) -> Severity {
        Severity::Warn
    }
    fn findings<'c>(&self, ctx: &'c LintContext<'_>) -> Vec<Finding<'c>> {
        candidates_where(ctx, |class| matches!(class, StaticClass::NoOutsideSharing))
    }
    fn render(
        &self,
        ctx: &LintContext<'_>,
        finding: &Finding<'_>,
        severity: Severity,
    ) -> Diagnostic {
        let Finding::Candidate(cy, i) = *finding else {
            unreachable!("W202 selects candidates")
        };
        let ca = cy.candidate(i);
        // Only outside sharing is kept; the whole analysis is redone
        // for the inside channels this certificate lists.
        let inside: Vec<String> = ctx
            .sharing(cy, i)
            .shared()
            .inside()
            .map(|s| ctx.net.channel(s.channel).to_string())
            .collect();
        candidate_diag(
            self,
            ctx,
            cy,
            &ca,
            severity,
            format!(
                "reachable deadlock (Theorem 2): {}-message configuration shares no channel outside the cycle",
                ca.segments.len(),
            ),
        )
        .fact(
            "inside_shared_channels",
            if inside.is_empty() {
                "none".to_string()
            } else {
                inside.join(", ")
            },
        )
    }
}

/// `W203`: Theorem 4 certificates — one outside channel, two sharers.
pub struct Theorem4TwoSharers;

impl Lint for Theorem4TwoSharers {
    fn code(&self) -> &'static str {
        "W203"
    }
    fn name(&self) -> &'static str {
        "reachable-deadlock-two-sharers"
    }
    fn description(&self) -> &'static str {
        "exactly two messages share the single outside channel: the second can always wait out the first, so the deadlock is reachable"
    }
    fn paper_anchor(&self) -> &'static str {
        "Theorem 4"
    }
    fn default_severity(&self) -> Severity {
        Severity::Warn
    }
    fn findings<'c>(&self, ctx: &'c LintContext<'_>) -> Vec<Finding<'c>> {
        candidates_where(ctx, |class| matches!(class, StaticClass::TwoSharers))
    }
    fn render(
        &self,
        ctx: &LintContext<'_>,
        finding: &Finding<'_>,
        severity: Severity,
    ) -> Diagnostic {
        let (cy, ca) = candidate(finding);
        let shared = single_outside(&ca).expect("TwoSharers has one outside channel");
        let d = candidate_diag(
            self,
            ctx,
            cy,
            &ca,
            severity,
            format!(
                "reachable deadlock (Theorem 4): two messages share outside channel {}",
                ctx.net.channel(shared.channel),
            ),
        );
        sharer_facts(ctx, &cy.cycle, shared, d)
    }
}

/// `W204`: Theorem 5 scorecards with all eight conditions holding —
/// certified false resource cycles.
pub struct Theorem5Unreachable;

impl Lint for Theorem5Unreachable {
    fn code(&self) -> &'static str {
        "W204"
    }
    fn name(&self) -> &'static str {
        "false-resource-cycle-three-sharers"
    }
    fn description(&self) -> &'static str {
        "three sharers and all eight conditions hold: the configuration is unreachable — cyclic dependencies without deadlock, the paper's phenomenon"
    }
    fn paper_anchor(&self) -> &'static str {
        "Theorem 5 (all conditions hold); Figure 3(a)-(b)"
    }
    fn default_severity(&self) -> Severity {
        Severity::Allow
    }
    fn findings<'c>(&self, ctx: &'c LintContext<'_>) -> Vec<Finding<'c>> {
        candidates_where(
            ctx,
            |class| matches!(class, StaticClass::ThreeSharers(ec) if ec.unreachable()),
        )
    }
    fn render(
        &self,
        ctx: &LintContext<'_>,
        finding: &Finding<'_>,
        severity: Severity,
    ) -> Diagnostic {
        scorecard(self, ctx, finding, severity)
    }
}

/// `W205`: Theorem 5 scorecards with failing conditions — reachable
/// deadlocks.
pub struct Theorem5Reachable;

impl Lint for Theorem5Reachable {
    fn code(&self) -> &'static str {
        "W205"
    }
    fn name(&self) -> &'static str {
        "reachable-deadlock-three-sharers"
    }
    fn description(&self) -> &'static str {
        "three sharers with at least one of the eight conditions violated: the adversary can schedule the deadlock"
    }
    fn paper_anchor(&self) -> &'static str {
        "Theorem 5 (some condition fails); Figure 3(c)-(f)"
    }
    fn default_severity(&self) -> Severity {
        Severity::Warn
    }
    fn findings<'c>(&self, ctx: &'c LintContext<'_>) -> Vec<Finding<'c>> {
        candidates_where(
            ctx,
            |class| matches!(class, StaticClass::ThreeSharers(ec) if !ec.unreachable()),
        )
    }
    fn render(
        &self,
        ctx: &LintContext<'_>,
        finding: &Finding<'_>,
        severity: Severity,
    ) -> Diagnostic {
        scorecard(self, ctx, finding, severity)
    }
}

/// Render a Theorem 5 scorecard: all eight conditions holding (`W204`)
/// or some violated (`W205`).
fn scorecard(
    lint: &dyn Lint,
    ctx: &LintContext<'_>,
    finding: &Finding<'_>,
    severity: Severity,
) -> Diagnostic {
    let (cy, ca) = candidate(finding);
    let StaticClass::ThreeSharers(ec) = ca.class else {
        unreachable!("{} selects Theorem 5 candidates", lint.code())
    };
    let shared = single_outside(&ca).expect("ThreeSharers has one outside channel");
    let message = if ec.unreachable() {
        "false resource cycle (Theorem 5): all eight conditions hold, the configuration is unreachable".to_string()
    } else {
        format!(
            "reachable deadlock (Theorem 5): condition(s) {} violated",
            ec.failing()
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(","),
        )
    };
    let mut d = candidate_diag(lint, ctx, cy, &ca, severity, message);
    d = sharer_facts(ctx, &cy.cycle, shared, d);
    d = d
        .fact("m_x", pair_ref(ctx.net, ec.x))
        .fact("m_y", pair_ref(ctx.net, ec.y))
        .fact("m_z", pair_ref(ctx.net, ec.z));
    for (i, ok) in ec.conditions.iter().enumerate() {
        d = d.fact(
            format!("condition_{}", i + 1),
            if *ok { "holds" } else { "violated" },
        );
    }
    d
}

/// `W206`: Theorem 3 certificates — minimal routing, everyone shares.
pub struct Theorem3MinimalAllShare;

impl Lint for Theorem3MinimalAllShare {
    fn code(&self) -> &'static str {
        "W206"
    }
    fn name(&self) -> &'static str {
        "reachable-deadlock-minimal-all-share"
    }
    fn description(&self) -> &'static str {
        "minimal routing where every configuration message uses the single outside shared channel: the deadlock is reachable"
    }
    fn paper_anchor(&self) -> &'static str {
        "Theorem 3"
    }
    fn default_severity(&self) -> Severity {
        Severity::Warn
    }
    fn findings<'c>(&self, ctx: &'c LintContext<'_>) -> Vec<Finding<'c>> {
        candidates_where(ctx, |class| matches!(class, StaticClass::MinimalAllShare))
    }
    fn render(
        &self,
        ctx: &LintContext<'_>,
        finding: &Finding<'_>,
        severity: Severity,
    ) -> Diagnostic {
        let (cy, ca) = candidate(finding);
        let shared = single_outside(&ca).expect("MinimalAllShare has one outside channel");
        let d = candidate_diag(
            self,
            ctx,
            cy,
            &ca,
            severity,
            format!(
                "reachable deadlock (Theorem 3): minimal routing, all {} messages share {}",
                ca.segments.len(),
                ctx.net.channel(shared.channel),
            ),
        );
        sharer_facts(ctx, &cy.cycle, shared, d)
    }
}

/// `W207`: what the theorems leave open.
pub struct OutOfScopeCycle;

impl Lint for OutOfScopeCycle {
    fn code(&self) -> &'static str {
        "W207"
    }
    fn name(&self) -> &'static str {
        "cycle-outside-theorem-scope"
    }
    fn description(&self) -> &'static str {
        "a candidate (or cycle/candidate enumeration budget) the Section 5 theorems cannot decide; only exhaustive reachability search settles it"
    }
    fn paper_anchor(&self) -> &'static str {
        "Section 7 (open problems: >=4 sharers, several shared channels)"
    }
    fn default_severity(&self) -> Severity {
        Severity::Warn
    }
    /// `Spec` = the cycle budget ran out; `Cycle` = a cycle's
    /// candidate budget ran out; `Candidate` = an out-of-scope
    /// candidate.
    fn findings<'c>(&self, ctx: &'c LintContext<'_>) -> Vec<Finding<'c>> {
        let mut out = Vec::new();
        if !ctx.cycles_complete {
            out.push(Finding::Spec);
        }
        for cy in &ctx.cycles {
            if !cy.enumeration_complete {
                out.push(Finding::Cycle(cy));
            }
            for (i, ca) in cy.analyses().enumerate() {
                if matches!(ca.class, StaticClass::OutOfScope) {
                    out.push(Finding::Candidate(cy, i));
                }
            }
        }
        out
    }
    fn render(
        &self,
        ctx: &LintContext<'_>,
        finding: &Finding<'_>,
        severity: Severity,
    ) -> Diagnostic {
        match *finding {
            Finding::Spec => Diagnostic::new(
                self.code(),
                self.name(),
                severity,
                format!(
                    "CDG cycle enumeration budget exceeded after {} cycle(s): the spec cannot be certified free statically",
                    ctx.cycles.len(),
                ),
            )
            .fact("cycles_enumerated", ctx.cycles.len()),
            Finding::Cycle(cy) => Diagnostic::new(
                self.code(),
                self.name(),
                severity,
                "candidate enumeration budget exceeded: the cycle cannot be certified free"
                    .to_string(),
            )
            .entity("cycle", cycle_ref(&cy.cycle)),
            Finding::Candidate(cy, i) => {
                let ca = cy.candidate(i);
                let outside = ca.outside;
                let sharers = outside
                    .iter()
                    .map(|s| {
                        let mut u = s.users.to_vec();
                        u.sort_unstable();
                        u.dedup();
                        u.len()
                    })
                    .max()
                    .unwrap_or(0);
                candidate_diag(
                    self,
                    ctx,
                    cy,
                    &ca,
                    severity,
                    format!(
                        "Theorems 2-5 do not apply ({} outside shared channel(s), up to {sharers} sharers): verdict requires exhaustive search",
                        outside.len(),
                    ),
                )
                .fact("outside_shared_channels", outside.len())
                .fact("max_sharers", sharers)
            }
            _ => unreachable!("W207 selects budgets and out-of-scope candidates"),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::registry::{LintConfig, Registry, StaticVerdict};
    use worm_core::paper::{fig1, fig2, fig3, generalized};

    fn codes(report: &crate::LintReport) -> Vec<&'static str> {
        report.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn fig1_and_gk_are_undecided_with_zero_deny() {
        let registry = Registry::with_default_lints();
        let mut targets = vec![("fig1", fig1::cyclic_dependency())];
        for k in 1..=3 {
            targets.push(("gk", generalized::generalized(k)));
        }
        for (name, c) in targets {
            let report = registry.run(&c.net, &c.table, &LintConfig::default());
            assert_eq!(report.verdict, StaticVerdict::Undecided, "{name}");
            assert_eq!(report.deny_count(), 0, "{name}: {:?}", codes(&report));
            assert!(codes(&report).contains(&"W207"), "{name}");
            assert!(codes(&report).contains(&"W201"), "{name}");
        }
    }

    #[test]
    fn fig2_certified_by_theorem4() {
        let c = fig2::two_message_deadlock();
        let report = Registry::with_default_lints().run(&c.net, &c.table, &LintConfig::default());
        assert_eq!(report.verdict, StaticVerdict::Deadlockable);
        let w203 = report
            .diagnostics
            .iter()
            .find(|d| d.code == "W203")
            .expect("Theorem 4 certificate");
        assert_eq!(w203.witness["sharers"], "2");
        assert!(w203.witness.contains_key("sharer_0"));
        assert!(w203.witness["shared_channel"].contains("cs"));
    }

    #[test]
    fn fig3_scorecards_split_by_verdict() {
        for s in fig3::all_scenarios() {
            let c = s.spec.build();
            let report =
                Registry::with_default_lints().run(&c.net, &c.table, &LintConfig::default());
            if s.paper_unreachable {
                assert_eq!(report.verdict, StaticVerdict::FreeCyclic, "({})", s.name);
                let w204 = report
                    .diagnostics
                    .iter()
                    .find(|d| d.code == "W204")
                    .unwrap_or_else(|| panic!("({}) needs a W204 scorecard", s.name));
                assert!(w204
                    .witness
                    .iter()
                    .filter(|(k, _)| k.starts_with("condition_"))
                    .all(|(_, v)| v == "holds"));
            } else {
                assert_eq!(report.verdict, StaticVerdict::Deadlockable, "({})", s.name);
                let w205 = report
                    .diagnostics
                    .iter()
                    .find(|d| d.code == "W205")
                    .unwrap_or_else(|| panic!("({}) needs a W205 certificate", s.name));
                for v in s.violated_conditions {
                    assert_eq!(
                        w205.witness[&format!("condition_{v}")],
                        "violated",
                        "({}) condition {v}",
                        s.name
                    );
                }
            }
        }
    }
}
