//! # wormtrace — unified observability for the cyclic-wormhole stack
//!
//! Every layer of the reproduction — the flit-level simulator, the
//! reachability engines, the classification pipeline — wants to
//! explain *what it did*: how many cycles were simulated, how many
//! arbitration conflicts arose, which theorem decided a verdict, how
//! fast states were visited. Before this crate
//! each subsystem printed its own ad-hoc numbers; `wormtrace` gives
//! them one vocabulary:
//!
//! * **counters** — monotonically accumulated `u64` event counts
//!   ([`counter`]), e.g. `sim.cycles` or `classify.theorem5`;
//! * **gauges** — last-value or high-water-mark `f64` measurements
//!   ([`gauge`], [`gauge_max`]), e.g. `search.frontier_peak`;
//! * **spans** — wall-clock durations of named regions measured by an
//!   RAII guard ([`span`]), e.g. `classify.algorithm`.
//!
//! All three go through the calling thread's [`Recorder`], installed
//! with [`install`]: concurrent jobs and tests each record into their
//! own. While no thread holds a recorder (the default) every entry
//! point is a single relaxed atomic load and an untaken branch — the
//! instrumented hot paths of `wormsim` and `wormsearch` run at full
//! speed. [`MemoryRecorder`] is the standard sink: thread-safe
//! in-memory accumulation, snapshot into a [`TraceReport`], and
//! serialization to the `wormtrace/1` JSON schema documented in
//! `docs/TRACING.md` (no serde — the writer is hand-rolled and
//! dependency-free).
//!
//! The metric-name catalog emitted by the workspace crates is part of
//! the public interface and is documented in `docs/TRACING.md`; the
//! `exp_*` experiment binaries expose it via their `--trace <path>`
//! flag, and `run_all` merges per-experiment reports into one
//! `trace_summary.json` so benchmark trajectories can be diffed
//! across commits.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use wormtrace::{MemoryRecorder, Recorder};
//!
//! let rec = Arc::new(MemoryRecorder::new());
//! // Record directly (unit tests) or via wormtrace::install (binaries).
//! rec.add("sim.cycles", 3);
//! rec.gauge_max("search.frontier_peak", 17.0);
//! let report = rec.snapshot();
//! assert_eq!(report.counters["sim.cycles"], 3);
//! assert!(report.to_json("demo").contains("\"schema\": \"wormtrace/1\""));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod recorder;
mod report;
mod span;

pub use recorder::{MemoryRecorder, NoopRecorder, Recorder};
pub use report::{summarize, SpanStat, TraceReport, SCHEMA, SUMMARY_SCHEMA};
pub use span::Span;

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Threads holding a recorder right now. While it reads zero, every
/// entry point stops at one relaxed load of it.
static SCOPES: AtomicUsize = AtomicUsize::new(0);

/// The calling thread's recorder. A thread that exits while holding
/// one gives its count back here.
struct Slot(RefCell<Option<Arc<dyn Recorder>>>);

impl Drop for Slot {
    fn drop(&mut self) {
        if self.0.get_mut().take().is_some() {
            SCOPES.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

thread_local! {
    static SLOT: Slot = const { Slot(RefCell::new(None)) };
}

/// Whether the calling thread holds a recorder.
///
/// While no thread holds one this is one relaxed atomic load:
/// instrumented hot paths call this (or the free functions below,
/// which call it first) unconditionally, so the disabled cost is a
/// predictable branch — measured well under the 5 % budget on the
/// search-heavy experiment binaries.
#[inline]
pub fn enabled() -> bool {
    SCOPES.load(Ordering::Relaxed) != 0
        && SLOT
            .try_with(|slot| slot.0.borrow().is_some())
            .unwrap_or(false)
}

/// Install `recorder` as the calling thread's sink, replacing any
/// previous one.
///
/// Subsequent [`counter`]/[`gauge`]/[`gauge_max`]/[`span`] calls from
/// this thread flow into it; other threads, including threads it
/// spawns, are unaffected.
pub fn install(recorder: Arc<dyn Recorder>) {
    SLOT.with(|slot| {
        if slot.0.borrow_mut().replace(recorder).is_none() {
            SCOPES.fetch_add(1, Ordering::Relaxed);
        }
    });
}

/// Remove the calling thread's recorder, returning its
/// instrumentation to the no-op fast path.
pub fn uninstall() {
    SLOT.with(|slot| {
        if slot.0.borrow_mut().take().is_some() {
            SCOPES.fetch_sub(1, Ordering::Relaxed);
        }
    });
}

/// Run `f` with the calling thread's recorder, if any.
fn with_recorder(f: impl FnOnce(&dyn Recorder)) {
    let _ = SLOT.try_with(|slot| {
        if let Some(r) = slot.0.borrow().as_ref() {
            f(r.as_ref());
        }
    });
}

/// Add `delta` to the counter `name`. No-op unless a recorder is
/// installed.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if enabled() {
        with_recorder(|r| r.add(name, delta));
    }
}

/// Set the gauge `name` to `value` (last write wins). No-op unless a
/// recorder is installed.
#[inline]
pub fn gauge(name: &'static str, value: f64) {
    if enabled() {
        with_recorder(|r| r.gauge(name, value));
    }
}

/// Raise the gauge `name` to `value` if `value` is larger (high-water
/// mark). No-op unless a recorder is installed.
#[inline]
pub fn gauge_max(name: &'static str, value: f64) {
    if enabled() {
        with_recorder(|r| r.gauge_max(name, value));
    }
}

/// Start timing the named region; the returned guard records the
/// elapsed wall-clock time as a span observation when dropped.
///
/// When no recorder is installed the guard holds no timestamp and
/// drop does nothing.
#[inline]
pub fn span(name: &'static str) -> Span {
    Span::start(name, enabled())
}

/// Record one explicit span observation (for callers that already
/// measured a duration themselves). No-op unless a recorder is
/// installed.
#[inline]
pub fn span_elapsed(name: &'static str, elapsed: std::time::Duration) {
    if enabled() {
        with_recorder(|r| r.span(name, elapsed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn disabled_calls_are_noops() {
        uninstall();
        assert!(!enabled());
        counter("x", 1);
        gauge("y", 2.0);
        gauge_max("z", 3.0);
        drop(span("s"));
        // Nothing to observe: the point is that none of the above
        // panicked or required a recorder.
    }

    #[test]
    fn install_routes_all_instruments() {
        let rec = Arc::new(MemoryRecorder::new());
        install(rec.clone());
        assert!(enabled());
        counter("c", 2);
        counter("c", 3);
        gauge("g", 1.5);
        gauge_max("m", 4.0);
        gauge_max("m", 2.0); // lower: ignored
        {
            let _s = span("region");
        }
        span_elapsed("region", std::time::Duration::from_micros(5));
        uninstall();
        counter("c", 100); // after uninstall: dropped
        let report = rec.snapshot();
        assert_eq!(report.counters["c"], 5);
        assert_eq!(report.gauges["g"], 1.5);
        assert_eq!(report.gauges["m"], 4.0);
        assert_eq!(report.spans["region"].count, 2);
    }

    #[test]
    fn install_replaces_previous_recorder() {
        let first = Arc::new(MemoryRecorder::new());
        let second = Arc::new(MemoryRecorder::new());
        install(first.clone());
        counter("k", 1);
        install(second.clone());
        counter("k", 10);
        uninstall();
        assert_eq!(first.snapshot().counters["k"], 1);
        assert_eq!(second.snapshot().counters["k"], 10);
    }

    #[test]
    fn concurrent_threads_record_into_their_own_recorders() {
        const ROUNDS: u64 = 2_000;
        let barrier = Barrier::new(2);
        let totals: Vec<u64> = std::thread::scope(|scope| {
            let workers: Vec<_> = [1u64, 10]
                .into_iter()
                .map(|delta| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        assert!(!enabled(), "a new thread starts without a recorder");
                        let rec = Arc::new(MemoryRecorder::new());
                        install(rec.clone());
                        barrier.wait();
                        for _ in 0..ROUNDS {
                            counter("shared", delta);
                        }
                        barrier.wait();
                        uninstall();
                        rec.snapshot().counters["shared"]
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(totals, [ROUNDS, 10 * ROUNDS]);
    }
}
