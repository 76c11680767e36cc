//! The batch verification server: a worker pool over a bounded queue,
//! with cache-first execution and graceful drain on shutdown.
//!
//! Submission is multi-producer (`Server::submit` clones are cheap and
//! thread-safe via the shared queue) and blocks when the queue is at
//! capacity — a client can never race the pool into unbounded memory.
//! Each worker computes a job's key (parse, canonical text, hash),
//! consults the content-addressed cache, and either replays the stored
//! verdict byte-for-byte (a *hit*: nothing is resolved and no engine
//! runs) or resolves the spec, computes, stores, and returns a fresh
//! verdict.
//! [`Server::shutdown`] closes the queue, lets every worker drain what
//! was already accepted, joins the pool, and hands back all results in
//! submission order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use wormspec::SpecError;
use wormtrace::MemoryRecorder;

use crate::cache::ResultCache;
use crate::compile::{key, resolve};
use crate::queue::JobQueue;
use crate::verdict::verdict_json;

/// Server tuning knobs.
pub struct ServerConfig {
    /// Worker threads (minimum 1).
    pub workers: usize,
    /// Queue capacity before `submit` blocks (minimum 1).
    pub queue_depth: usize,
    /// Result cache directory; `None` disables caching.
    pub cache_dir: Option<std::path::PathBuf>,
    /// Attach a `wormtrace` report to each *computed* job result.
    /// Cache hits run no engines, so they carry no trace.
    pub attach_traces: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            queue_depth: 64,
            cache_dir: None,
            attach_traces: false,
        }
    }
}

struct Job {
    index: usize,
    name: String,
    source: String,
}

/// The outcome of one submitted spec.
pub struct JobResult {
    /// The name given at submission (reporting only — never part of
    /// the verdict document).
    pub name: String,
    /// Canonical spec hash (present whenever the spec compiled).
    pub hash: Option<String>,
    /// The `wormserve/1` verdict document, or the rendered spec error.
    pub verdict: Result<String, String>,
    /// Whether the verdict was replayed from the cache.
    pub cached: bool,
    /// The `wormtrace/1` report for computed jobs, when enabled.
    pub trace: Option<String>,
}

fn run_job(job: &Job, cache: Option<&ResultCache>, attach_traces: bool) -> JobResult {
    let rejected = |e: SpecError| JobResult {
        name: job.name.clone(),
        hash: None,
        verdict: Err(e.render(&job.source, &job.name)),
        cached: false,
        trace: None,
    };
    let key = match key(&job.source) {
        Ok(key) => key,
        Err(e) => return rejected(e),
    };
    // Entries are stored only for specs this build resolved and
    // verified, so a hit needs no resolution.
    if let Some(stored) = cache.and_then(|c| c.lookup(&key.hash)) {
        return JobResult {
            name: job.name.clone(),
            hash: Some(key.hash),
            verdict: Ok(stored),
            cached: true,
            trace: None,
        };
    }
    let compiled = match resolve(key) {
        Ok(compiled) => compiled,
        Err(e) => return rejected(e),
    };
    let (verdict, trace) = if attach_traces {
        // The recorder is this worker thread's own: traced jobs on
        // other workers record into theirs at the same time.
        let recorder = Arc::new(MemoryRecorder::default());
        wormtrace::install(Arc::clone(&recorder) as Arc<dyn wormtrace::Recorder>);
        let verdict = verdict_json(&compiled);
        wormtrace::uninstall();
        let report = recorder.snapshot().to_json(&compiled.hash);
        (verdict, Some(report))
    } else {
        (verdict_json(&compiled), None)
    };
    if let Some(cache) = cache {
        // A store failure degrades to cache-miss-next-time; the verdict
        // itself is already in hand.
        let _ = cache.store(&compiled.hash, &verdict);
    }
    JobResult {
        name: job.name.clone(),
        hash: Some(compiled.hash),
        verdict: Ok(verdict),
        cached: false,
        trace,
    }
}

/// A running worker pool. Dropping without [`Server::shutdown`]
/// detaches the workers; call `shutdown` to drain and collect.
pub struct Server {
    queue: Arc<JobQueue<Job>>,
    results: Arc<Mutex<Vec<(usize, JobResult)>>>,
    workers: Vec<JoinHandle<()>>,
    submitted: AtomicUsize,
}

impl Server {
    /// Start the worker pool.
    pub fn start(config: ServerConfig) -> std::io::Result<Self> {
        let cache = match &config.cache_dir {
            Some(dir) => Some(Arc::new(ResultCache::open(dir)?)),
            None => None,
        };
        let queue = Arc::new(JobQueue::new(config.queue_depth));
        let results = Arc::new(Mutex::new(Vec::new()));
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let queue = Arc::clone(&queue);
                let results = Arc::clone(&results);
                let cache = cache.clone();
                let attach_traces = config.attach_traces;
                std::thread::spawn(move || {
                    while let Some(job) = queue.pop() {
                        let result = run_job(&job, cache.as_deref(), attach_traces);
                        results
                            .lock()
                            .expect("results poisoned")
                            .push((job.index, result));
                    }
                })
            })
            .collect();
        Ok(Server {
            queue,
            results,
            workers,
            submitted: AtomicUsize::new(0),
        })
    }

    /// Submit a spec for verification. Blocks while the queue is full;
    /// returns `false` if the server is already shutting down.
    pub fn submit(&self, name: impl Into<String>, source: impl Into<String>) -> bool {
        let index = self.submitted.fetch_add(1, Ordering::SeqCst);
        self.queue
            .push(Job {
                index,
                name: name.into(),
                source: source.into(),
            })
            .is_ok()
    }

    /// Close the queue, drain every accepted job, join the pool, and
    /// return all results in submission order.
    pub fn shutdown(self) -> Vec<JobResult> {
        self.queue.close();
        for worker in self.workers {
            worker.join().expect("worker panicked");
        }
        let mut results = Arc::try_unwrap(self.results)
            .map(|m| m.into_inner().expect("results poisoned"))
            .unwrap_or_else(|arc| std::mem::take(&mut *arc.lock().expect("results poisoned")));
        results.sort_by_key(|(index, _)| *index);
        results.into_iter().map(|(_, result)| result).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RING: &str =
        "wormspec/1\ntopology { kind = ring nodes = 4 }\nrouting { engine = clockwise_ring }\n";

    #[test]
    fn a_batch_drains_in_submission_order() {
        let server = Server::start(ServerConfig {
            workers: 3,
            queue_depth: 2,
            ..ServerConfig::default()
        })
        .unwrap();
        for i in 0..6 {
            assert!(server.submit(format!("job{i}"), RING));
        }
        let results = server.shutdown();
        assert_eq!(results.len(), 6);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.name, format!("job{i}"));
            assert!(r.verdict.is_ok());
        }
    }

    #[test]
    fn spec_errors_come_back_rendered_not_panicking() {
        let server = Server::start(ServerConfig::default()).unwrap();
        server.submit(
            "bad",
            "wormspec/1\ntopology { kind = mesh }\nrouting { engine = dimension_order }\n",
        );
        let results = server.shutdown();
        let err = results[0].verdict.as_ref().unwrap_err();
        assert!(err.contains("error[E012]"), "{err}");
        assert!(results[0].hash.is_none());
    }

    #[test]
    fn submit_after_shutdown_is_refused() {
        let server = Server::start(ServerConfig::default()).unwrap();
        server.queue.close();
        assert!(!server.submit("late", RING));
    }

    /// `report` with every span's `total_ns` set to 0: the one part of
    /// a trace that depends on the machine.
    fn zero_span_totals(report: &str) -> String {
        const KEY: &str = "\"total_ns\": ";
        let mut out = String::with_capacity(report.len());
        let mut rest = report;
        while let Some(at) = rest.find(KEY) {
            let (head, tail) = rest.split_at(at + KEY.len());
            out.push_str(head);
            out.push('0');
            rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
        }
        out.push_str(rest);
        out
    }

    #[test]
    fn traced_jobs_on_four_workers_match_one_worker() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
        let mut specs: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "wspec"))
            .collect();
        specs.sort();
        assert_eq!(specs.len(), 20);
        let traces = |workers: usize| -> Vec<String> {
            let server = Server::start(ServerConfig {
                workers,
                attach_traces: true,
                ..ServerConfig::default()
            })
            .unwrap();
            for path in &specs {
                let source = std::fs::read_to_string(path).unwrap();
                assert!(server.submit(path.display().to_string(), source));
            }
            server
                .shutdown()
                .iter()
                .map(|r| zero_span_totals(r.trace.as_deref().expect("computed jobs are traced")))
                .collect()
        };
        assert_eq!(traces(4), traces(1));
    }

    #[test]
    fn traced_jobs_attach_a_report() {
        let server = Server::start(ServerConfig {
            attach_traces: true,
            ..ServerConfig::default()
        })
        .unwrap();
        server.submit("traced", RING);
        let results = server.shutdown();
        let trace = results[0].trace.as_ref().expect("trace attached");
        assert!(trace.contains("lint.runs"), "{trace}");
    }
}
