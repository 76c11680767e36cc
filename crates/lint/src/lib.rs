//! # wormlint
//!
//! A static analysis pass over routing specifications.
//!
//! The paper's Section 5 results (Theorem 2, Corollaries 1–3,
//! Theorems 3–5) are *static* statements about routing functions and
//! channel-dependency-graph structure, yet the classification pipeline
//! in `worm_core::classify` only consults them on the way to a final
//! verdict. This crate turns them — together with basic spec-hygiene
//! checks — into a diagnostics framework: a [`Lint`] trait, a
//! [`Registry`] of lints with stable codes, [`Severity`] levels with
//! per-run overrides, and structured [`Diagnostic`]s carrying entity
//! references and concrete witnesses (the path violating
//! suffix-closure, the two-sharer Theorem 4 certificate, the Theorem 5
//! eight-condition scorecard, …).
//!
//! A lint selects [`Finding`]s — references into the spec's one static
//! analysis, the [`LintContext`] — and renders a finding into a
//! [`Diagnostic`] only on request. [`Registry::run`] renders every
//! finding; [`Registry::summarize`] counts them and renders nothing.
//! Reports render human-readable and as sorted-key `wormlint/1` JSON
//! (see `docs/LINTS.md` for the full catalog and schema).
//!
//! Code ranges:
//!
//! * `W0xx` — structural integrity of the network/table (self-loops,
//!   duplicate channels, unroutable pairs, dead channels, dead path
//!   tails);
//! * `W1xx` — routing-function properties (minimality, Definition 7–9
//!   closures, Corollary 1's `R : N × N → C` form);
//! * `W2xx` — CDG and theorem analysis (cycle census, Theorem 2/3/4
//!   reachable-deadlock certificates, Theorem 5 scorecards,
//!   out-of-scope cycles, Dally–Seitz numbering certificates);
//! * `W3xx` — existence of any deadlock-free routing for the network.
//!
//! The analysis is purely static — no simulation or search runs — and
//! deterministic: the same spec always produces byte-identical output.
//! The differential test suite (`tests/props_lint.rs`) cross-checks
//! every verdict against the classifier and the exhaustive
//! reachability search.
//!
//! ```
//! use worm_core::paper::fig2;
//! use wormlint::{LintConfig, Registry, StaticVerdict};
//!
//! let c = fig2::two_message_deadlock();
//! let report = Registry::with_default_lints().run(&c.net, &c.table, &LintConfig::default());
//! // Figure 2 is the two-sharer instance: Theorem 4 certifies a
//! // reachable deadlock, statically.
//! assert_eq!(report.verdict, StaticVerdict::Deadlockable);
//! assert!(report.diagnostics.iter().any(|d| d.code == "W203"));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod diagnostic;
pub mod json;
pub mod lint;
pub mod lints;
pub mod registry;
pub mod spec;

pub use diagnostic::{Diagnostic, Severity};
pub use json::{reports_to_json, SCHEMA};
pub use lint::{Finding, Lint};
pub use registry::{LintConfig, LintReport, LintSummary, Registry, StaticVerdict};
pub use worm_core::analysis::{CandidateAnalysis, CycleAnalysis, StaticClass};

/// Everything the lints read: the spec's one static
/// [`Analysis`](worm_core::analysis::Analysis) — properties, CDG,
/// cycles, candidates with their theorem classes, and the fabric's
/// existence report.
pub type LintContext<'a> = worm_core::analysis::Analysis<'a>;
