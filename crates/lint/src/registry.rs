//! The lint registry: configuration, execution, and reports.

use std::collections::BTreeMap;

use crate::diagnostic::{Diagnostic, Severity};
use crate::lint::Lint;
use crate::lints::default_lints;
use crate::LintContext;
use wormexist::ExistOptions;
use wormnet::Network;
use wormroute::TableRouting;

/// Per-run lint configuration.
#[derive(Clone, Debug)]
pub struct LintConfig {
    /// Per-code severity overrides (`"W101" -> Allow` silences the
    /// non-minimality warning, `"W004" -> Deny` promotes dead channels
    /// to errors). Unknown codes are ignored.
    pub overrides: BTreeMap<String, Severity>,
    /// Promote every effective `Warn` to `Deny` (applied after
    /// `overrides`).
    pub deny_warnings: bool,
    /// Budget for elementary-cycle enumeration: at most this many
    /// cycles are enumerated.
    pub max_cycles: usize,
    /// Budget for candidate enumeration per cycle: an incomplete cycle
    /// holds `max_candidates + 1` candidates.
    pub max_candidates: usize,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            overrides: BTreeMap::new(),
            deny_warnings: false,
            max_cycles: 10_000,
            max_candidates: 10_000,
        }
    }
}

impl LintConfig {
    /// The effective severity for a lint under this config.
    pub fn severity_for(&self, lint: &dyn Lint) -> Severity {
        let base = self
            .overrides
            .get(lint.code())
            .copied()
            .unwrap_or_else(|| lint.default_severity());
        if self.deny_warnings && base == Severity::Warn {
            Severity::Deny
        } else {
            base
        }
    }
}

/// What the static analysis concludes about deadlock freedom.
///
/// This is deliberately coarser than `worm_core::classify::Verdict`:
/// with no search fallback, everything the theorems leave open is
/// [`StaticVerdict::Undecided`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StaticVerdict {
    /// The CDG is acyclic: deadlock-free by Theorem 1 (Dally–Seitz).
    FreeAcyclic,
    /// The CDG has cycles, but every enumerated candidate is certified
    /// unreachable by Theorem 5 — the paper's phenomenon: cyclic
    /// dependencies without deadlock.
    FreeCyclic,
    /// At least one candidate carries a Theorem 2/3/4/5
    /// reachable-deadlock certificate.
    Deadlockable,
    /// Some candidate (or an exhausted enumeration budget) falls
    /// outside the theorems: only exhaustive search can decide.
    Undecided,
}

impl StaticVerdict {
    /// Stable lowercase name used in JSON and human output.
    pub fn name(self) -> &'static str {
        match self {
            StaticVerdict::FreeAcyclic => "free-acyclic",
            StaticVerdict::FreeCyclic => "free-cyclic",
            StaticVerdict::Deadlockable => "deadlockable",
            StaticVerdict::Undecided => "undecided",
        }
    }
}

impl std::fmt::Display for StaticVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The result of one registry run over one spec.
#[derive(Clone, Debug)]
pub struct LintReport {
    /// Every diagnostic, sorted by `(code, entities, message)`.
    pub diagnostics: Vec<Diagnostic>,
    /// The static deadlock-freedom verdict.
    pub verdict: StaticVerdict,
}

impl LintReport {
    /// Diagnostics at a given severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// `Deny` diagnostics — nonzero fails a gated run.
    pub fn deny_count(&self) -> usize {
        self.count(Severity::Deny)
    }

    /// `Warn` diagnostics.
    pub fn warn_count(&self) -> usize {
        self.count(Severity::Warn)
    }

    /// `Allow` diagnostics.
    pub fn allow_count(&self) -> usize {
        self.count(Severity::Allow)
    }

    /// Sorted per-code diagnostic counts.
    pub fn counts_by_code(&self) -> BTreeMap<&'static str, usize> {
        let mut counts = BTreeMap::new();
        for d in &self.diagnostics {
            *counts.entry(d.code).or_insert(0) += 1;
        }
        counts
    }

    /// The counts and verdict of this report, as
    /// [`Registry::summarize`] computes them without rendering.
    pub fn summary(&self) -> LintSummary {
        LintSummary {
            counts: self.counts_by_code(),
            allow: self.allow_count(),
            warn: self.warn_count(),
            deny: self.deny_count(),
            verdict: self.verdict,
        }
    }

    /// Render the full human-readable report.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(out, "{}", d.render());
        }
        let _ = write!(
            out,
            "verdict: {} ({} deny, {} warn, {} allow)",
            self.verdict,
            self.deny_count(),
            self.warn_count(),
            self.allow_count(),
        );
        out
    }
}

/// What a lint run found, without the diagnostics' text: the count of
/// findings per code and per severity, and the static verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LintSummary {
    /// Findings per lint code; codes without findings are absent.
    pub counts: BTreeMap<&'static str, usize>,
    /// Findings at [`Severity::Allow`].
    pub allow: usize,
    /// Findings at [`Severity::Warn`].
    pub warn: usize,
    /// Findings at [`Severity::Deny`].
    pub deny: usize,
    /// The static deadlock-freedom verdict.
    pub verdict: StaticVerdict,
}

/// Publish a run's counters: one run, its findings, and its findings
/// per severity.
fn publish(summary: &LintSummary) {
    wormtrace::counter("lint.runs", 1);
    let total = summary.allow + summary.warn + summary.deny;
    wormtrace::counter("lint.diagnostics", total as u64);
    for (name, n) in [
        ("lint.allow", summary.allow),
        ("lint.warn", summary.warn),
        ("lint.deny", summary.deny),
    ] {
        if n > 0 {
            wormtrace::counter(name, n as u64);
        }
    }
}

/// An ordered collection of lints with stable codes.
pub struct Registry {
    lints: Vec<Box<dyn Lint>>,
}

impl Registry {
    /// A registry holding every built-in lint.
    pub fn with_default_lints() -> Self {
        Registry {
            lints: default_lints(),
        }
    }

    /// The lints, in code order.
    pub fn lints(&self) -> &[Box<dyn Lint>] {
        &self.lints
    }

    /// Run every registered lint over a spec and render every finding.
    ///
    /// The context is built with the existence engine's default
    /// budgets. Diagnostics are sorted by `(code, entities, message)`
    /// so the report is deterministic regardless of lint registration
    /// order.
    pub fn run(&self, net: &Network, table: &TableRouting, config: &LintConfig) -> LintReport {
        let _span = wormtrace::span("lint.run");
        let ctx = LintContext::build(
            net,
            table,
            config.max_cycles,
            config.max_candidates,
            &ExistOptions::default(),
        );
        let mut diagnostics = Vec::new();
        for lint in &self.lints {
            let severity = config.severity_for(lint.as_ref());
            for finding in lint.findings(&ctx) {
                let d = lint.render(&ctx, &finding, severity);
                debug_assert!(
                    d.code == lint.code() && d.lint == lint.name() && d.severity == severity,
                    "lint {} rendered a mislabelled diagnostic",
                    lint.code()
                );
                diagnostics.push(d);
            }
        }
        diagnostics.sort_by(|a, b| {
            (a.code, &a.entities, &a.message).cmp(&(b.code, &b.entities, &b.message))
        });
        let report = LintReport {
            diagnostics,
            verdict: verdict(&ctx),
        };
        publish(&report.summary());
        report
    }

    /// Count every registered lint's findings over an already built
    /// context, rendering nothing. Equals `run(..).summary()` over a
    /// context with the same budgets and existence options.
    pub fn summarize(&self, ctx: &LintContext<'_>, config: &LintConfig) -> LintSummary {
        let _span = wormtrace::span("lint.run");
        let mut summary = LintSummary {
            counts: BTreeMap::new(),
            allow: 0,
            warn: 0,
            deny: 0,
            verdict: verdict(ctx),
        };
        for lint in &self.lints {
            let n = lint.findings(ctx).len();
            if n == 0 {
                continue;
            }
            summary.counts.insert(lint.code(), n);
            *match config.severity_for(lint.as_ref()) {
                Severity::Allow => &mut summary.allow,
                Severity::Warn => &mut summary.warn,
                Severity::Deny => &mut summary.deny,
            } += n;
        }
        publish(&summary);
        summary
    }
}

/// Fold the per-candidate theorem classifications into one verdict.
pub(crate) fn verdict(ctx: &LintContext<'_>) -> StaticVerdict {
    if ctx.is_acyclic() {
        return StaticVerdict::FreeAcyclic;
    }
    // Corollary 1: a node-function algorithm admits no false resource
    // cycles, so a cyclic CDG alone certifies a reachable deadlock —
    // no cycle enumeration needed (W105 carries the explanation).
    if ctx.properties.node_function {
        return StaticVerdict::Deadlockable;
    }
    let mut open = !ctx.cycles_complete || ctx.cycles.iter().any(|cy| !cy.enumeration_complete);
    let mut deadlock = false;
    for (_, ca) in ctx.candidates() {
        match ca.class.reachable() {
            Some(true) => deadlock = true,
            Some(false) => {}
            None => open = true,
        }
    }
    if deadlock {
        StaticVerdict::Deadlockable
    } else if open {
        StaticVerdict::Undecided
    } else {
        StaticVerdict::FreeCyclic
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use worm_core::paper::fig1;
    use wormnet::topology::{ring_unidirectional, Mesh};
    use wormroute::algorithms::{clockwise_ring, dimension_order};

    #[test]
    fn acyclic_mesh_is_free() {
        let mesh = Mesh::new(&[3, 3]);
        let table = dimension_order(&mesh).unwrap();
        let net = mesh.network();
        let report = Registry::with_default_lints().run(net, &table, &LintConfig::default());
        assert_eq!(report.verdict, StaticVerdict::FreeAcyclic);
        assert_eq!(report.deny_count(), 0);
        // Acyclic CDG: no cycle diagnostics at all.
        assert!(report.diagnostics.iter().all(|d| !d.code.starts_with("W2")));
    }

    #[test]
    fn unidirectional_ring_is_deadlockable() {
        let (net, nodes) = ring_unidirectional(4);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let report = Registry::with_default_lints().run(&net, &table, &LintConfig::default());
        assert_eq!(report.verdict, StaticVerdict::Deadlockable);
        assert!(report.diagnostics.iter().any(|d| d.code == "W202"));
    }

    #[test]
    fn overrides_and_deny_warnings_change_severity() {
        let (net, nodes) = ring_unidirectional(4);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let registry = Registry::with_default_lints();

        let mut config = LintConfig::default();
        config.overrides.insert("W202".to_string(), Severity::Allow);
        let report = registry.run(&net, &table, &config);
        assert!(report
            .diagnostics
            .iter()
            .filter(|d| d.code == "W202")
            .all(|d| d.severity == Severity::Allow));

        let config = LintConfig {
            deny_warnings: true,
            ..LintConfig::default()
        };
        let report = registry.run(&net, &table, &config);
        assert!(report.deny_count() > 0, "warnings promoted to deny");
    }

    #[test]
    fn diagnostics_sorted_and_counts_consistent() {
        let c = fig1::cyclic_dependency();
        let report = Registry::with_default_lints().run(&c.net, &c.table, &LintConfig::default());
        let keys: Vec<_> = report
            .diagnostics
            .iter()
            .map(|d| (d.code, d.entities.clone(), d.message.clone()))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(
            report.deny_count() + report.warn_count() + report.allow_count(),
            report.diagnostics.len()
        );
        assert_eq!(
            report.counts_by_code().values().sum::<usize>(),
            report.diagnostics.len()
        );
    }
}
