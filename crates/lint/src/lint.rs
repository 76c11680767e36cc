//! The [`Lint`] trait and the [`Finding`]s it selects.

use worm_core::analysis::{CandidateAnalysis, CycleAnalysis};
use wormnet::ChannelId;
use wormroute::properties::DeadTail;

use crate::diagnostic::{Diagnostic, Severity};
use crate::LintContext;

/// One finding of one lint: what it is about, as a reference into the
/// [`LintContext`]. Selecting findings formats nothing; counting a
/// lint's findings is the length of its selection, and
/// [`Lint::render`] turns one finding into a [`Diagnostic`] only when
/// a report asks for text.
#[derive(Clone, Debug)]
pub enum Finding<'a> {
    /// The specification as a whole.
    Spec,
    /// The specification as a whole, with the one number the lint
    /// measured while selecting it.
    Measure(usize),
    /// One channel.
    Channel(ChannelId),
    /// Several channels, reported as one finding.
    Channels(Vec<ChannelId>),
    /// A path that passes through its own destination.
    DeadTail(&'a DeadTail),
    /// One elementary CDG cycle.
    Cycle(&'a CycleAnalysis),
    /// One static deadlock candidate of one cycle.
    Candidate(&'a CycleAnalysis, &'a CandidateAnalysis),
}

/// One named check over a routing specification.
///
/// A lint selects its [`Finding`]s from the shared [`LintContext`] and
/// renders each one into a [`Diagnostic`] on request. Implementations
/// must be deterministic (same spec, same findings in the same order),
/// and every diagnostic they render must carry their own
/// [`code`](Lint::code) and [`name`](Lint::name) — the registry asserts
/// this in debug builds.
pub trait Lint {
    /// Stable code, `W` followed by three digits. The leading digit
    /// picks the range: 0 = structure, 1 = routing, 2 = CDG/theorems,
    /// 3 = existence.
    fn code(&self) -> &'static str;

    /// Stable kebab-case name.
    fn name(&self) -> &'static str;

    /// One-line description for catalogs and docs.
    fn description(&self) -> &'static str;

    /// Which part of the paper the lint operationalizes (e.g.
    /// `"Theorem 4"`, `"Definition 8 / Corollary 2"`), or a hygiene
    /// note for structural lints.
    fn paper_anchor(&self) -> &'static str;

    /// Severity applied when the run's config has no override for this
    /// code.
    fn default_severity(&self) -> Severity;

    /// Select this lint's findings. Each one becomes exactly one
    /// diagnostic when rendered.
    fn findings<'c>(&self, ctx: &'c LintContext<'_>) -> Vec<Finding<'c>>;

    /// Render one of this lint's findings. `severity` is the
    /// already-resolved effective severity for this run; the
    /// diagnostic must carry it.
    fn render(
        &self,
        ctx: &LintContext<'_>,
        finding: &Finding<'_>,
        severity: Severity,
    ) -> Diagnostic;
}
