//! Benchmarks and experiment binaries for the reproduction. The
//! library itself only hosts shared experiment helpers; see
//! `src/bin/` for the per-figure experiment programs and the
//! `bench_report` harness.
//!
//! Shared helpers:
//!
//! * [`report`] — fixed-width table formatting for experiment output;
//! * [`args`] — the flag scanners every binary uses (`--seed`,
//!   `--trace`, and the check that rejects flags a binary does not
//!   take);
//! * [`trace`] — the `--trace <path>` machine-readable trace dump
//!   (see `docs/TRACING.md` for the JSON schema);
//! * [`scenarios`] — the named search/simulator workloads the
//!   `bench_report` harness and the tests run;
//! * [`bench_report`] — the headless runner behind the committed
//!   `wormbench/1` baselines (see `docs/PERFORMANCE.md`);
//! * [`lintcorpus`] — the named lint targets with expected verdicts
//!   behind the `wormlint` binary and the committed `LINT_corpus.json`
//!   snapshot (see `docs/LINTS.md`).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod args;
pub mod bench_report;
pub mod lintcorpus;
pub mod report;
pub mod scenarios;
pub mod trace;
