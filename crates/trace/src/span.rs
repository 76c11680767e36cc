//! RAII timing guards.

use std::time::Instant;

/// Guard returned by [`crate::span`]: measures the wall-clock time
/// from creation to drop and records it as one observation of the
/// named span in the calling thread's recorder.
///
/// If no recorder was installed when the guard was created, it holds
/// no timestamp and drop is free. The guard is deliberately
/// `must_use`: binding it to `_` drops it immediately and times
/// nothing.
#[must_use = "binding to _ drops the guard immediately; name it (e.g. _span) to time the scope"]
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
}

impl Span {
    pub(crate) fn start(name: &'static str, enabled: bool) -> Span {
        Span {
            name,
            start: enabled.then(Instant::now),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            crate::span_elapsed(self.name, start.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_span_holds_no_timestamp() {
        let span = Span::start("s", false);
        assert!(span.start.is_none());
        drop(span);
    }

    #[test]
    fn enabled_span_measures_time() {
        let span = Span::start("s", true);
        assert!(span.start.is_some());
        // Dropping records via the thread's recorder; with none
        // installed the observation is discarded harmlessly.
        drop(span);
    }
}
