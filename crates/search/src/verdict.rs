//! Search verdicts, deadlock witnesses, and exploration metrics.

use std::time::Duration;

use wormsim::{Decisions, MessageId};

/// A reproducible schedule driving the network into deadlock: the
/// per-cycle decisions from the empty network to the deadlocked
/// configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Witness {
    /// Decisions for cycles `0..n`.
    pub decisions: Vec<Decisions>,
    /// The messages forming the wait-for cycle at the end.
    pub members: Vec<MessageId>,
}

impl Witness {
    /// Number of cycles until deadlock.
    pub fn cycles(&self) -> usize {
        self.decisions.len()
    }

    /// Total adversarial stall-cycles the witness uses.
    pub fn stalls_used(&self) -> usize {
        self.decisions.iter().map(|d| d.stalls.len()).sum()
    }
}

/// Outcome of an exhaustive exploration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Some interleaving deadlocks; here is one.
    DeadlockReachable(Witness),
    /// No interleaving of the given messages (at the given lengths and
    /// stall budget) can deadlock. Exact, not a timeout.
    DeadlockFree,
    /// The state budget ran out before the space was exhausted.
    Inconclusive {
        /// Distinct states visited when the search gave up.
        states_visited: usize,
    },
}

impl Verdict {
    /// Whether the verdict proves a reachable deadlock.
    pub fn is_deadlock(&self) -> bool {
        matches!(self, Verdict::DeadlockReachable(_))
    }

    /// Whether the verdict proves deadlock freedom (within parameters).
    pub fn is_free(&self) -> bool {
        matches!(self, Verdict::DeadlockFree)
    }

    /// Whether the search gave up before exhausting the space.
    pub fn is_inconclusive(&self) -> bool {
        matches!(self, Verdict::Inconclusive { .. })
    }
}

/// Throughput and memoization statistics of one exploration.
///
/// This struct is the *compatibility view* of the search counters:
/// the same numbers are published into the calling thread's
/// [`wormtrace`] recorder (metric names `search.*`, see `docs/TRACING.md`) by
/// [`SearchMetrics::publish`], which every engine calls when it
/// finishes. Code that already consumes `result.metrics` keeps
/// working unchanged; tooling that wants machine-readable output
/// installs a [`wormtrace::Recorder`] (e.g. via the `exp_*` binaries'
/// `--trace` flag) and reads the counters instead.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SearchMetrics {
    /// Wall-clock duration of the exploration.
    pub elapsed: Duration,
    /// Distinct states visited per second of wall clock.
    pub states_per_sec: f64,
    /// Largest frontier observed (the deepest stack of a depth-first
    /// search).
    pub frontier_peak: usize,
    /// Successor states that were already memoized.
    pub dedup_hits: u64,
    /// Total successor-state lookups.
    pub dedup_lookups: u64,
}

impl SearchMetrics {
    /// Fraction of successor lookups that hit the memo table.
    pub fn dedup_hit_rate(&self) -> f64 {
        if self.dedup_lookups == 0 {
            0.0
        } else {
            self.dedup_hits as f64 / self.dedup_lookups as f64
        }
    }

    /// Derive `states_per_sec` from a state count and `elapsed`.
    pub(crate) fn finish(&mut self, states: usize) {
        let secs = self.elapsed.as_secs_f64();
        self.states_per_sec = if secs > 0.0 {
            states as f64 / secs
        } else {
            0.0
        };
    }

    /// Publish these metrics into the calling thread's
    /// [`wormtrace`] recorder under the `search.*` names, recording
    /// the whole exploration as one observation of the span
    /// `search.explore` (the span's observation count is the search
    /// count).
    ///
    /// Every engine calls this on completion; with no recorder
    /// installed it is a single relaxed atomic load. `states` is the
    /// number of distinct states the search visited.
    pub fn publish(&self, states: usize) {
        if !wormtrace::enabled() {
            return;
        }
        wormtrace::counter("search.searches", 1);
        wormtrace::counter("search.states", states as u64);
        wormtrace::counter("search.dedup_hits", self.dedup_hits);
        wormtrace::counter("search.dedup_lookups", self.dedup_lookups);
        wormtrace::gauge_max("search.frontier_peak", self.frontier_peak as f64);
        wormtrace::gauge_max("search.states_per_sec", self.states_per_sec);
        wormtrace::span_elapsed("search.explore", self.elapsed);
    }

    /// One-line human-readable summary (used by the `exp_*` binaries).
    pub fn summary(&self) -> String {
        format!(
            "{:.0} states/s, frontier peak {}, dedup {:.1}%, {:.3}s",
            self.states_per_sec,
            self.frontier_peak,
            self.dedup_hit_rate() * 100.0,
            self.elapsed.as_secs_f64(),
        )
    }
}

/// Verdict plus exploration statistics.
#[derive(Clone, Debug)]
pub struct SearchResult {
    /// The verdict.
    pub verdict: Verdict,
    /// Distinct states visited.
    pub states_explored: usize,
    /// Throughput and memoization statistics.
    pub metrics: SearchMetrics,
}

impl SearchResult {
    /// Result with empty metrics.
    pub(crate) fn new(verdict: Verdict, states_explored: usize) -> Self {
        SearchResult {
            verdict,
            states_explored,
            metrics: SearchMetrics::default(),
        }
    }

    /// Attach metrics (builder style).
    pub(crate) fn with_metrics(mut self, metrics: SearchMetrics) -> Self {
        self.metrics = metrics;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn witness_accessors() {
        let w = Witness {
            decisions: vec![
                Decisions {
                    stalls: vec![MessageId::from_index(0)],
                    ..Decisions::default()
                },
                Decisions::default(),
            ],
            members: vec![MessageId::from_index(0), MessageId::from_index(1)],
        };
        assert_eq!(w.cycles(), 2);
        assert_eq!(w.stalls_used(), 1);
    }

    #[test]
    fn verdict_predicates() {
        assert!(Verdict::DeadlockFree.is_free());
        assert!(!Verdict::DeadlockFree.is_deadlock());
        let inconclusive = Verdict::Inconclusive { states_visited: 17 };
        assert!(!inconclusive.is_free());
        assert!(inconclusive.is_inconclusive());
        let w = Witness {
            decisions: vec![],
            members: vec![],
        };
        assert!(Verdict::DeadlockReachable(w).is_deadlock());
    }

    #[test]
    fn inconclusive_carries_count() {
        let Verdict::Inconclusive { states_visited } =
            (Verdict::Inconclusive { states_visited: 42 })
        else {
            unreachable!()
        };
        assert_eq!(states_visited, 42);
    }

    #[test]
    fn metrics_rates() {
        let mut m = SearchMetrics {
            elapsed: Duration::from_millis(500),
            dedup_hits: 30,
            dedup_lookups: 120,
            ..SearchMetrics::default()
        };
        m.finish(1000);
        assert!((m.states_per_sec - 2000.0).abs() < 1e-6);
        assert!((m.dedup_hit_rate() - 0.25).abs() < 1e-9);
        assert!(m.summary().contains("dedup 25.0%"), "{}", m.summary());
    }

    #[test]
    fn empty_metrics_are_safe() {
        let m = SearchMetrics::default();
        assert_eq!(m.dedup_hit_rate(), 0.0);
    }
}
