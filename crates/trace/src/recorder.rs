//! The [`Recorder`] trait and its two standard implementations.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

use crate::report::{SpanStat, TraceReport};

/// A sink for instrumentation events.
///
/// Implementations must be cheap and thread-safe: concurrent jobs may
/// share one recorder, and the simulator and the searches call these
/// methods from hot loops whenever tracing is enabled. Metric names are `'static`
/// string literals by design — the workspace's metric catalog is
/// fixed at compile time (see `docs/TRACING.md`), which keeps the
/// recording path free of allocation.
pub trait Recorder: Send + Sync {
    /// Add `delta` to the counter `name` (creating it at zero).
    fn add(&self, name: &'static str, delta: u64);
    /// Set the gauge `name` to `value` (last write wins).
    fn gauge(&self, name: &'static str, value: f64);
    /// Raise the gauge `name` to `value` if larger (high-water mark).
    fn gauge_max(&self, name: &'static str, value: f64);
    /// Record one observation of the span `name` lasting `elapsed`.
    fn span(&self, name: &'static str, elapsed: Duration);
}

/// The do-nothing recorder: every method is an empty body the
/// optimizer removes entirely.
///
/// Installing it is equivalent to (but slightly slower than) calling
/// [`crate::uninstall`], which also clears the enabled fast-path flag;
/// its real use is as a stand-in where a `&dyn Recorder` is required
/// unconditionally.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn add(&self, _name: &'static str, _delta: u64) {}
    fn gauge(&self, _name: &'static str, _value: f64) {}
    fn gauge_max(&self, _name: &'static str, _value: f64) {}
    fn span(&self, _name: &'static str, _elapsed: Duration) {}
}

/// Thread-safe in-memory accumulation, snapshotted into a
/// [`TraceReport`].
///
/// This is the recorder the `exp_*` binaries install when given
/// `--trace <path>`: counters, gauges and span statistics accumulate
/// for the whole process lifetime and are serialized once at exit.
#[derive(Debug, Default)]
pub struct MemoryRecorder {
    counters: Mutex<BTreeMap<&'static str, u64>>,
    gauges: Mutex<BTreeMap<&'static str, f64>>,
    spans: Mutex<BTreeMap<&'static str, SpanStat>>,
}

impl MemoryRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        MemoryRecorder::default()
    }

    /// Copy the current values into an owned, lock-free report.
    pub fn snapshot(&self) -> TraceReport {
        TraceReport {
            counters: self
                .counters
                .lock()
                .expect("counter lock")
                .iter()
                .map(|(&k, &v)| (k.to_string(), v))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .expect("gauge lock")
                .iter()
                .map(|(&k, &v)| (k.to_string(), v))
                .collect(),
            spans: self
                .spans
                .lock()
                .expect("span lock")
                .iter()
                .map(|(&k, v)| (k.to_string(), v.clone()))
                .collect(),
        }
    }
}

impl Recorder for MemoryRecorder {
    fn add(&self, name: &'static str, delta: u64) {
        *self
            .counters
            .lock()
            .expect("counter lock")
            .entry(name)
            .or_insert(0) += delta;
    }

    fn gauge(&self, name: &'static str, value: f64) {
        self.gauges.lock().expect("gauge lock").insert(name, value);
    }

    fn gauge_max(&self, name: &'static str, value: f64) {
        let mut gauges = self.gauges.lock().expect("gauge lock");
        let slot = gauges.entry(name).or_insert(f64::NEG_INFINITY);
        if value > *slot {
            *slot = value;
        }
    }

    fn span(&self, name: &'static str, elapsed: Duration) {
        let mut spans = self.spans.lock().expect("span lock");
        let stat = spans.entry(name).or_default();
        stat.count += 1;
        stat.total += elapsed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_recorder_accumulates() {
        let rec = MemoryRecorder::new();
        rec.add("a", 1);
        rec.add("a", 4);
        rec.add("b", 7);
        rec.gauge("g", 2.0);
        rec.gauge("g", 1.0); // last write wins
        rec.gauge_max("h", 1.0);
        rec.gauge_max("h", 9.0);
        rec.gauge_max("h", 3.0);
        rec.span("s", Duration::from_millis(2));
        rec.span("s", Duration::from_millis(3));
        let r = rec.snapshot();
        assert_eq!(r.counters["a"], 5);
        assert_eq!(r.counters["b"], 7);
        assert_eq!(r.gauges["g"], 1.0);
        assert_eq!(r.gauges["h"], 9.0);
        assert_eq!(r.spans["s"].count, 2);
        assert_eq!(r.spans["s"].total, Duration::from_millis(5));
    }

    #[test]
    fn concurrent_adds_do_not_lose_updates() {
        let rec = std::sync::Arc::new(MemoryRecorder::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let rec = rec.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        rec.add("hits", 1);
                    }
                });
            }
        });
        assert_eq!(rec.snapshot().counters["hits"], 4000);
    }

    #[test]
    fn noop_recorder_records_nothing() {
        let rec = NoopRecorder;
        rec.add("a", 1);
        rec.gauge("g", 1.0);
        rec.gauge_max("h", 1.0);
        rec.span("s", Duration::from_millis(1));
        // NoopRecorder has no state; this test documents that the
        // calls are valid and side-effect free.
    }
}
