//! `--trace <path>` support for the experiment binaries.
//!
//! Every `exp_*` program calls [`init`] first thing in `main`. When
//! the user passed `--trace <path>`, this installs a
//! [`wormtrace::MemoryRecorder`] on the main thread so all
//! `sim.*` / `search.*` / `classify.*` instrumentation points start
//! accumulating, and returns a guard that serializes the collected
//! [`wormtrace::TraceReport`] to `<path>` as JSON (schema
//! [`wormtrace::SCHEMA`], documented in `docs/TRACING.md`) when it is
//! dropped at the end of `main`. Without the flag nothing is
//! installed and the instrumentation stays on its one-atomic-load
//! disabled path.

use std::sync::Arc;

use wormtrace::MemoryRecorder;

/// Guard returned by [`init`]; writes the trace file on drop.
///
/// Hold it for the whole experiment (`let _trace = trace::init(..)`).
/// Dropping it early truncates the recording to that point.
#[must_use]
pub struct TraceGuard {
    experiment: &'static str,
    path: String,
    recorder: Arc<MemoryRecorder>,
}

impl TraceGuard {
    /// The destination path, as given on the command line.
    pub fn path(&self) -> &str {
        &self.path
    }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        let json = self.recorder.snapshot().to_json(self.experiment);
        if let Err(err) = std::fs::write(&self.path, json) {
            eprintln!("warning: could not write trace to {}: {err}", self.path);
        } else {
            eprintln!("trace written to {}", self.path);
        }
    }
}

/// Installs a recorder if `--trace <path>` was passed.
///
/// `experiment` names the report (conventionally the binary name,
/// e.g. `"exp_fig3"`). Returns `None` — and records nothing — when
/// the flag is absent.
pub fn init(experiment: &'static str) -> Option<TraceGuard> {
    let path = crate::args::value_of("--trace")?;
    let recorder = Arc::new(MemoryRecorder::new());
    wormtrace::install(recorder.clone());
    Some(TraceGuard {
        experiment,
        path,
        recorder,
    })
}
