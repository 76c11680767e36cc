//! `servebench` — the end-to-end and per-layer benchmark of the
//! `wormserve` verification service.
//!
//! ```text
//! servebench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One run starts a measuring copy of this program (one malloc arena,
//! pinned to one CPU) and waits for it. The copy generates the
//! workload's job list from the seed, drives it through the real
//! `wormserve::Server` (one worker, queue depth 1, one server per pass)
//! in a closed loop, scales every timed segment to nominal speed by a
//! reference workload (`pace.rs`), checks every verdict against its
//! hand-written known answer, and prints the metrics as the last line of
//! standard output. `--trace 1` runs the same jobs layer by layer with
//! spans instead (see `traced.rs`). README.md documents the workloads,
//! the metrics and the host.

#![forbid(unsafe_code)]

mod expect;
mod host;
mod jobs;
mod pace;
mod traced;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wormserve::{ResultCache, Server, ServerConfig};
use wormtrace::MemoryRecorder;

use crate::expect::{Expect, Observed};
use crate::jobs::{Job, Workload};
use crate::pace::Pace;
use crate::traced::{OwnCounts, PassProfile, TracedJob, Tracer};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// How long the submitting thread waits after a segment for the worker
/// to finish its two sentinels, a fraction of a millisecond each.
const SENTINEL_GRACE: Duration = Duration::from_millis(5);
/// Jobs per timed segment of a set-up. A set-up computes every verdict,
/// so its segments are as short as `paper_full`'s.
const SETUP_SEGMENT: usize = 8;
/// Fewest measured passes per run, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

/// The end marker after each segment of a pass: two submissions of this
/// small spec bracket the segment's last job (see [`run_pass`]).
const SENTINEL: &str =
    "wormspec/1\ntopology {\n  kind = ring\n  nodes = 4\n  vcs = 2 lanes\n}\nrouting {\n  engine = dateline_ring\n}\n";

fn sentinel_expect() -> Expect {
    Expect {
        classifier: "deadlock-free-acyclic",
        lint: Some("free-acyclic"),
        existence: Some("exists"),
        ..Expect::default()
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: servebench --workload paper_full|fabric_static|replay_hot [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Jobs attempted and failed, with the first few failures kept for the
/// log.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first_failures: Vec<String>,
}

impl Tally {
    fn record(&mut self, name: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.first_failures.len() < 10 {
                self.first_failures.push(format!("{name}: {why}"));
            }
        }
    }
}

/// Output directory for cache directories and span logs, inside the
/// benchmark's own directory.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A fresh, empty directory under [`out_dir`].
fn fresh_dir(label: &str) -> PathBuf {
    let dir = out_dir().join(format!("{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A submitted job's result as the benchmark sees it.
struct Served {
    verdict: Result<String, String>,
    cached: bool,
}

/// One pass through a fresh one-worker, depth-1 server.
struct Pass {
    /// Service time of each job, scaled to nominal speed, in seconds.
    service_s: Vec<f64>,
    /// The segments' times added up (first job's start to last job's
    /// end in each), as measured.
    raw_s: f64,
    /// The same, each segment scaled to nominal speed.
    scaled_s: f64,
    /// Each job's result, `None` if it was lost.
    results: Vec<Option<Served>>,
    /// The sentinels' results, and how many were submitted.
    sentinels: Vec<Served>,
    sentinels_submitted: usize,
}

/// Submit one source and note when `submit` returned.
fn submit(server: &Server, returns: &mut Vec<Instant>, name: String, source: String) {
    let accepted = server.submit(name, source);
    returns.push(Instant::now());
    assert!(accepted, "the server refused a job");
}

/// Run `sources` through one server in segments of `segment` jobs, each
/// followed by two sentinels and a reference sample, and collect the
/// results.
///
/// With one worker and a queue of depth 1, `submit(k)` returns when the
/// worker takes submission `k - 1`, so successive returns are spaced by
/// one job's service time: submission `k` runs from the return of
/// `submit(k + 1)` to the return of `submit(k + 2)`. The two sentinels
/// supply those returns for a segment's last two jobs; when the second
/// one returns, the segment's last job has ended. The reference sample
/// then runs, after a grace period in which the worker finishes the
/// cheap sentinels, while the worker waits for the next segment; it
/// scales the segment's times (see `pace.rs`). The first segment
/// includes the server's start. Everything submitted is made before the
/// first submission, so the submitting thread does no other work while
/// it times the worker.
fn run_pass(
    sources: Vec<String>,
    cache_dir: Option<&Path>,
    segment: usize,
    pace: &mut Pace,
) -> Pass {
    let mut segment_start = Instant::now();
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_depth: 1,
        cache_dir: cache_dir.map(Path::to_path_buf),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let n = sources.len();
    let breaks = n.div_ceil(segment);
    // Everything submitted is made up front, so that the submitting
    // thread allocates nothing while the worker runs.
    let mut jobs = sources
        .into_iter()
        .enumerate()
        .map(|(i, source)| (format!("job{i}"), source))
        .collect::<Vec<_>>()
        .into_iter()
        .peekable();
    let mut ends = (0..2 * breaks)
        .map(|_| ("sentinel".to_string(), SENTINEL.to_string()))
        .collect::<Vec<_>>()
        .into_iter();
    let mut returns = Vec::with_capacity(n + 2 * breaks);
    let mut positions = Vec::with_capacity(n);
    let mut scales = Vec::with_capacity(n);
    let (mut raw_s, mut scaled_s) = (0.0, 0.0);
    while jobs.peek().is_some() {
        for (name, source) in jobs.by_ref().take(segment) {
            positions.push(returns.len());
            submit(&server, &mut returns, name, source);
        }
        for (name, source) in ends.by_ref().take(2) {
            submit(&server, &mut returns, name, source);
        }
        let segment_s = (returns[returns.len() - 1] - segment_start).as_secs_f64();
        // Let the worker finish both sentinels, so that it is idle and
        // allocates nothing while the reference sample runs.
        std::thread::sleep(SENTINEL_GRACE);
        let scale = pace.resample();
        raw_s += segment_s;
        scaled_s += segment_s * scale;
        scales.resize(positions.len(), scale);
        segment_start = Instant::now();
    }
    let mut results: Vec<Option<Served>> = (0..n).map(|_| None).collect();
    let mut sentinels = Vec::new();
    for r in server.shutdown() {
        let served = Served {
            verdict: r.verdict,
            cached: r.cached,
        };
        match r
            .name
            .strip_prefix("job")
            .and_then(|i| i.parse::<usize>().ok())
        {
            Some(i) => results[i] = Some(served),
            None => sentinels.push(served),
        }
    }
    let service_s = positions
        .iter()
        .zip(&scales)
        .map(|(&k, scale)| (returns[k + 2] - returns[k + 1]).as_secs_f64() * scale)
        .collect();
    Pass {
        service_s,
        raw_s,
        scaled_s,
        results,
        sentinels_submitted: returns.len() - n,
        sentinels,
    }
}

/// Check a pass's results: every job present, every verdict equal to
/// its known answer, and on a replay every job a byte-identical hit.
fn check_pass(
    pass: &Pass,
    jobs: &[&Job],
    primed: Option<&BTreeMap<String, String>>,
    tally: &mut Tally,
) {
    for (job, served) in jobs.iter().zip(&pass.results) {
        let outcome = match served {
            None => Err("result lost".to_string()),
            Some(served) => check_served(
                served,
                &job.expect,
                primed.map(|p| (p, job.source.as_str())),
            ),
        };
        tally.record(&job.name, outcome);
    }
    let sentinel = sentinel_expect();
    for served in &pass.sentinels {
        tally.record("sentinel", check_served(served, &sentinel, None));
    }
    for _ in pass.sentinels.len()..pass.sentinels_submitted {
        tally.record("sentinel", Err("result lost".into()));
    }
}

fn check_served(
    served: &Served,
    expect: &Expect,
    primed: Option<(&BTreeMap<String, String>, &str)>,
) -> Result<(), String> {
    let doc = served
        .verdict
        .as_ref()
        .map_err(|e| format!("spec error: {e}"))?;
    if let Some((primed, source)) = primed {
        if !served.cached {
            return Err("not a cache hit".into());
        }
        if primed.get(source).map(String::as_str) != Some(doc.as_str()) {
            return Err("hit differs from the primed verdict".into());
        }
    }
    Observed::from_document(doc)?.check(expect)
}

/// The documents a priming pass stored, keyed by each job's source
/// text. A job served from the cache fails: the cache was fresh.
fn primed_documents(distinct: &[Job], pass: Pass, tally: &mut Tally) -> BTreeMap<String, String> {
    let mut documents = BTreeMap::new();
    for (job, served) in distinct.iter().zip(pass.results) {
        let Some(served) = served else { continue };
        if served.cached {
            tally.record(&job.name, Err("primed from a non-empty cache".into()));
        }
        if let Ok(doc) = served.verdict {
            documents.insert(job.source.clone(), doc);
        }
    }
    documents
}

/// The sources of one pass: the list as is, or rewritten per job on a
/// replay so that every submission differs from the primed text.
fn pass_sources(jobs: &[&Job], replay: bool, seed: u64, pass: usize) -> Vec<String> {
    jobs.iter()
        .enumerate()
        .map(|(i, job)| {
            if replay {
                let tag = seed.wrapping_mul(0x1_0000_0001) ^ ((pass as u64) << 32) ^ i as u64;
                jobs::perturb(&job.source, tag)
            } else {
                job.source.clone()
            }
        })
        .collect()
}

struct Setup {
    distinct: Vec<Job>,
    /// Jobs per timed segment of a pass.
    segment: usize,
    /// The pass job list (indices into `distinct`).
    order: Vec<usize>,
    replay: bool,
    /// Primed documents (replay only).
    primed: Option<BTreeMap<String, String>>,
    cache_dir: Option<PathBuf>,
    /// Set-up times scaled to nominal speed (see `pace.rs`).
    setup_s: Vec<f64>,
    /// The same, as measured.
    setup_raw_s: Vec<f64>,
}

impl Setup {
    fn new(args: &Args) -> Setup {
        let distinct = jobs::distinct(args.workload, args.seed);
        Setup {
            order: jobs::pass_list(args.workload, &distinct, args.seed),
            segment: args.workload.segment(),
            distinct,
            replay: args.workload == Workload::ReplayHot,
            primed: None,
            cache_dir: None,
            setup_s: Vec::new(),
            setup_raw_s: Vec::new(),
        }
    }

    /// One timed set-up: a server start, a cache open where there is a
    /// cache, and a warm-up of real verification, timed in segments as
    /// a pass is. Cold workloads verify every distinct job once,
    /// adversarial searches included, so that a set-up lasts seconds and
    /// not a fraction of one of the host's slow episodes. The replay
    /// workload primes a fresh cache with every distinct spec; the first
    /// priming's cache serves the passes.
    fn set_up(&mut self, tally: &mut Tally, pace: &mut Pace) {
        let dir = self
            .replay
            .then(|| fresh_dir(&format!("cache{}", self.setup_s.len())));
        let sources = self.distinct.iter().map(|j| j.source.clone()).collect();
        let pass = run_pass(sources, dir.as_deref(), SETUP_SEGMENT, pace);
        let refs: Vec<&Job> = self.distinct.iter().collect();
        check_pass(&pass, &refs, None, tally);
        self.setup_s.push(pass.scaled_s);
        self.setup_raw_s.push(pass.raw_s);
        let Some(dir) = dir else {
            return;
        };
        let docs = primed_documents(&self.distinct, pass, tally);
        match &self.primed {
            None => {
                self.primed = Some(docs);
                self.cache_dir = Some(dir);
            }
            Some(first) => {
                // Verdict documents are deterministic: every priming must
                // produce the same bytes.
                if *first != docs {
                    tally.record("priming", Err("verdicts differ between primings".into()));
                }
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }

    fn jobs(&self) -> Vec<&Job> {
        self.order.iter().map(|&i| &self.distinct[i]).collect()
    }

    /// Run and check one untraced pass.
    fn pass(&self, seed: u64, index: usize, tally: &mut Tally, pace: &mut Pace) -> Pass {
        let jobs = self.jobs();
        let sources = pass_sources(&jobs, self.replay, seed, index);
        let pass = run_pass(sources, self.cache_dir.as_deref(), self.segment, pace);
        check_pass(&pass, &jobs, self.primed.as_ref(), tally);
        pass
    }
}

impl Drop for Setup {
    fn drop(&mut self) {
        if let Some(dir) = &self.cache_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// A metric line of the result object.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn print_result(tally: &Tally, correct: bool, metrics: &[Metric]) {
    let mut m = String::new();
    for (i, x) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        assert!(x.value.is_finite(), "{} is not a number", x.name);
        let _ = write!(
            m,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            x.name, x.value, x.unit
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        correct && tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed
    );
}

/// The untraced run: the end-to-end metrics.
///
/// Every segment of a set-up or a pass is bracketed by reference
/// samples (see `pace.rs`), and its times are scaled to nominal speed
/// before any median is taken. The set-ups are spread over the run: one
/// before the first pass, one when half the passes' time has gone, and
/// one after the last pass. Their median thus samples the host's slow
/// episodes as the passes' medians do, instead of the few seconds before
/// timing starts.
fn measure(args: &Args, tally: &mut Tally) -> Vec<Metric> {
    let mut pace = Pace::start();
    let mut setup = Setup::new(args);
    setup.set_up(tally, &mut pace);
    let n = setup.order.len();
    let budget = Duration::from_secs(args.seconds);
    let mut measured = Duration::ZERO;
    let mut walls = Vec::new();
    let mut raw_walls = Vec::new();
    let mut per_job: Vec<Vec<f64>> = vec![Vec::new(); n];
    while walls.len() < MIN_PASSES || measured < budget {
        if setup.setup_s.len() == 1 && measured >= budget / 2 {
            setup.set_up(tally, &mut pace);
        }
        let start = Instant::now();
        let pass = setup.pass(args.seed, walls.len(), tally, &mut pace);
        measured += start.elapsed();
        for (samples, s) in per_job.iter_mut().zip(&pass.service_s) {
            samples.push(*s);
        }
        walls.push(pass.scaled_s);
        raw_walls.push(pass.raw_s);
    }
    while setup.setup_s.len() < SETUPS {
        setup.set_up(tally, &mut pace);
    }
    let job_ms: Vec<f64> = per_job.iter().map(|s| host::median(s) * 1e3).collect();
    let rates = |walls: &[f64]| -> String {
        let rates: Vec<String> = walls
            .iter()
            .map(|w| format!("{:.1}", n as f64 / w))
            .collect();
        rates.join(" ")
    };
    println!(
        "servebench: {} seed {}: {} passes of {} jobs ({} distinct); jobs/s per pass, measured: {}; scaled: {}",
        args.workload.name(),
        args.seed,
        walls.len(),
        n,
        setup.distinct.len(),
        rates(&raw_walls),
        rates(&walls)
    );
    let samples: Vec<String> = pace
        .samples_ms
        .iter()
        .map(|ms| format!("{ms:.2}"))
        .collect();
    println!(
        "servebench: reference samples (ms; nominal {}): {}",
        pace::NOMINAL_MS,
        samples.join(" ")
    );
    let jobs = setup.jobs();
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (ms, job) in job_ms.iter().zip(&jobs) {
        by_name.entry(job.name.as_str()).or_default().push(*ms);
    }
    let mut slowest: Vec<(f64, &str)> = by_name
        .iter()
        .map(|(name, ms)| (host::median(ms), *name))
        .collect();
    slowest.sort_by(|a, b| b.0.total_cmp(&a.0));
    let top: Vec<String> = slowest
        .iter()
        .take(8)
        .map(|(ms, name)| format!("{name} {ms:.1}"))
        .collect();
    println!(
        "servebench: slowest jobs (scaled median ms): {}",
        top.join(", ")
    );
    let seconds = |v: &[f64]| -> String {
        let v: Vec<String> = v.iter().map(|s| format!("{s:.3}")).collect();
        v.join(" ")
    };
    println!(
        "servebench: set-up seconds, measured: {}; scaled: {} (median of {SETUPS}); verdict ms over {n} per-job medians",
        seconds(&setup.setup_raw_s),
        seconds(&setup.setup_s)
    );
    vec![
        metric("jobs_per_s", n as f64 / host::median(&walls), "1/s"),
        metric("verdict_ms_p50", host::quantile(&job_ms, 0.5), "ms"),
        metric("verdict_ms_p90", host::quantile(&job_ms, 0.9), "ms"),
        metric(
            "peak_rss_mb",
            host::peak_rss_mib().expect("VmHWM in /proc/self/status"),
            "MiB",
        ),
        metric("setup_s", host::median(&setup.setup_s), "s"),
    ]
}

/// Counters the program publishes, read by name. A counter that no
/// layer published during the run (never fired, or removed by a later
/// version) reads as 0 and is listed on the log, not treated as an
/// error.
const PROGRAM_COUNTERS: [&str; 11] = [
    "classify.algorithms",
    "classify.candidates",
    "classify.search_fallback",
    "classify.degraded.runs",
    "lint.diagnostics",
    "exist.components",
    "search.states",
    "search.dedup_hits",
    "search.dedup_lookups",
    "sim.cycles",
    "graph.scc.edge_visits",
];

/// One traced pass over `jobs`.
struct TracedPass {
    spans: Vec<traced::SpanRecord>,
    profile: PassProfile,
    /// Counters published during the replay's verdict layers.
    counters: BTreeMap<String, u64>,
    /// Counters published during the program's own `verdict_json`.
    program_counters: BTreeMap<String, u64>,
    own: OwnCounts,
}

/// The caches of a traced replay run: one for the layer-by-layer
/// replay and one for the program's own calls, both primed by the
/// traced path.
struct TracedCaches {
    replay: ResultCache,
    program: ResultCache,
    dirs: [PathBuf; 2],
}

impl TracedCaches {
    fn open() -> TracedCaches {
        let dirs = [fresh_dir("traced-cache"), fresh_dir("program-cache")];
        TracedCaches {
            replay: ResultCache::open(&dirs[0]).expect("cache opens"),
            program: ResultCache::open(&dirs[1]).expect("cache opens"),
            dirs,
        }
    }
}

impl Drop for TracedCaches {
    fn drop(&mut self) {
        for dir in &self.dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Replay every job layer by layer and run it twice through the
/// program's own calls, with and without a recorder. The three runs of
/// a job rotate their order from job to job so that none always finds
/// the processor's caches warm. `storing` marks the pass that primes
/// the caches; it skips the run without a recorder, which would find
/// the program's cache already primed.
fn traced_pass(
    jobs: &[&Job],
    sources: &[String],
    caches: Option<&TracedCaches>,
    primed: Option<&BTreeMap<String, String>>,
    storing: bool,
    tally: &mut Tally,
) -> TracedPass {
    let recorder = Arc::new(MemoryRecorder::new());
    let program_recorder = Arc::new(MemoryRecorder::new());
    let mut tr = Tracer::new(Instant::now());
    let mut own = OwnCounts::default();
    for (i, (job, source)) in jobs.iter().zip(sources).enumerate() {
        tr.job = i as u32;
        let primed_doc = primed.and_then(|p| p.get(&job.source));
        let store = if storing {
            primed_doc.map(String::as_str)
        } else {
            None
        };
        let program_cache = caches.map(|c| &c.program);
        let (mut replayed, mut ran, mut untraced) = (None, None, None);
        for step in 0..3 {
            match (i + step) % 3 {
                0 => {
                    let cache = caches.map(|c| &c.replay);
                    replayed = Some(traced::run_job(
                        &mut tr, source, cache, store, &recorder, &mut own,
                    ));
                }
                1 => {
                    ran = Some(traced::run_program(
                        &mut tr,
                        "serve.job",
                        source,
                        program_cache,
                        Some(&program_recorder),
                    ));
                }
                _ if storing => {}
                _ => {
                    untraced = Some(traced::run_program(
                        &mut tr,
                        "serve.job_untraced",
                        source,
                        program_cache,
                        None,
                    ));
                }
            }
        }
        let want_hit = primed_doc.is_some() && !storing;
        let outcome = check_traced(
            &job.expect,
            replayed.expect("every job is replayed"),
            ran.expect("every job is run"),
            untraced,
            primed_doc,
            want_hit,
        );
        tally.record(&job.name, outcome);
    }
    TracedPass {
        profile: PassProfile::from_spans(&tr.spans),
        spans: tr.spans,
        counters: recorder.snapshot().counters,
        program_counters: program_recorder.snapshot().counters,
        own,
    }
}

/// Check one traced job: the program's document and the replay's
/// answers against the known answer, the run without a recorder against
/// the run with one byte for byte, and on a replay every hit against
/// the primed document byte for byte.
fn check_traced(
    expect: &Expect,
    replayed: Result<TracedJob, String>,
    ran: Result<(String, bool), String>,
    untraced: Option<Result<(String, bool), String>>,
    primed_doc: Option<&String>,
    want_hit: bool,
) -> Result<(), String> {
    let (doc, hit) = ran.map_err(|e| format!("spec error: {e}"))?;
    let miss = |who: &str| {
        Err(if want_hit {
            format!("{who}: not a cache hit")
        } else {
            format!("{who}: hit in a fresh cache")
        })
    };
    if hit != want_hit {
        return miss("program");
    }
    if let Some(untraced) = untraced {
        if untraced? != (doc.clone(), hit) {
            return Err("program: the run without a recorder differs".into());
        }
    }
    if primed_doc.is_some_and(|primed| *primed != doc) {
        return Err("program: verdict differs from the primed verdict".into());
    }
    let seen = Observed::from_document(&doc)?;
    seen.check(expect).map_err(|e| format!("program:{e}"))?;
    match replayed? {
        TracedJob::Computed(copy) if !want_hit => {
            copy.check(expect).map_err(|e| format!("replay:{e}"))
        }
        TracedJob::Hit(copy) if want_hit && copy == doc => Ok(()),
        TracedJob::Hit(_) if want_hit => Err("replay: hit differs from the primed verdict".into()),
        _ => miss("replay"),
    }
}

/// The traced run: the per-layer metrics.
fn measure_traced(args: &Args, tally: &mut Tally) -> (Vec<Metric>, bool) {
    let mut setup = Setup::new(args);
    setup.set_up(tally, &mut Pace::start());
    let jobs = setup.jobs();
    let n = jobs.len() as f64;
    let mut span_log = Vec::new();

    // On the replay workload both traced caches are primed through the
    // traced path, so the replay's stores are measured where they
    // happen.
    let caches = setup.replay.then(TracedCaches::open);
    let prime_profile = caches.as_ref().map(|caches| {
        let refs: Vec<&Job> = setup.distinct.iter().collect();
        let sources: Vec<String> = refs.iter().map(|j| j.source.clone()).collect();
        let p = traced_pass(
            &refs,
            &sources,
            Some(caches),
            setup.primed.as_ref(),
            true,
            tally,
        );
        span_log.push(("prime".to_string(), p.spans));
        (p.profile, refs.len() as f64)
    });

    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut passes: Vec<TracedPass> = Vec::new();
    while passes.len() < 2 || start.elapsed() < budget {
        let index = passes.len();
        let sources = pass_sources(&jobs, setup.replay, args.seed, index);
        let mut p = traced_pass(
            &jobs,
            &sources,
            caches.as_ref(),
            setup.primed.as_ref(),
            false,
            tally,
        );
        span_log.push((format!("pass{index}"), std::mem::take(&mut p.spans)));
        passes.push(p);
    }
    drop(caches);

    // Work counters must repeat exactly from pass to pass.
    let (counters, own) = (&passes[0].counters, &passes[0].own);
    let stable = passes
        .iter()
        .all(|p| p.counters == *counters && p.own.work() == own.work());
    if !stable {
        println!("servebench: work counters differ between traced passes");
    }
    let absent: Vec<&str> = PROGRAM_COUNTERS
        .iter()
        .copied()
        .filter(|name| !counters.contains_key(*name))
        .collect();
    // The replay should publish what the program publishes; a counter
    // that differs means the replay no longer makes the program's calls.
    let program_counters = &passes[0].program_counters;
    let differing: Vec<&str> = counters
        .keys()
        .chain(program_counters.keys())
        .filter(|name| counters.get(*name) != program_counters.get(*name))
        .map(String::as_str)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    println!(
        "servebench: {} traced passes of {n} jobs; counters not published (read as 0): {}; counters that differ between the replay and the program: {}",
        passes.len(),
        if absent.is_empty() { "none".to_string() } else { absent.join(" ") },
        if differing.is_empty() { "none".to_string() } else { differing.join(" ") }
    );
    let _ = std::fs::create_dir_all(out_dir());
    let span_path = out_dir().join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    match traced::write_spans(&span_path, &span_log) {
        Ok(()) => println!("servebench: spans written to {}", span_path.display()),
        Err(e) => println!("servebench: could not write spans: {e}"),
    }

    let count = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
    let per_job = |f: &dyn Fn(&PassProfile) -> f64| {
        let v: Vec<f64> = passes.iter().map(|p| f(&p.profile) / n).collect();
        host::median(&v)
    };
    let self_ms = |name: &'static str| per_job(&move |p: &PassProfile| p.self_ms(name));
    let traced_job_ms = per_job(&|p| p.job_ns as f64 / 1e6);
    let unaccounted = host::median(
        &passes
            .iter()
            .map(|p| p.profile.unaccounted_share())
            .collect::<Vec<_>>(),
    );
    let store_ms = match &prime_profile {
        Some((p, primed_jobs)) => p.self_ms("serve.cache_store") / primed_jobs,
        None => self_ms("serve.cache_store"),
    };
    let lookups = count("search.dedup_lookups");
    let metrics = vec![
        metric("spec.parse_ms", self_ms("spec.parse"), "ms"),
        metric("spec.hash_ms", self_ms("spec.hash"), "ms"),
        metric("spec.bytes", own.spec_bytes as f64, "bytes"),
        metric("net.build_ms", self_ms("net.build"), "ms"),
        metric("net.channels", own.channels as f64, "count"),
        metric("route.table_ms", self_ms("route.table"), "ms"),
        metric("route.paths", own.paths as f64, "count"),
        metric("cdg.build_ms", self_ms("cdg.build"), "ms"),
        metric("cdg.edges", own.cdg_edges as f64, "count"),
        metric("cdg.cycles_ms", self_ms("cdg.cycles"), "ms"),
        metric(
            "cdg.scc_edge_visits",
            count("graph.scc.edge_visits"),
            "count",
        ),
        metric("classify.ms", self_ms("classify"), "ms"),
        metric(
            "classify.runs_per_job",
            count("classify.algorithms") / n,
            "runs/job",
        ),
        metric("classify.candidates", count("classify.candidates"), "count"),
        metric(
            "classify.search_fallbacks",
            count("classify.search_fallback"),
            "count",
        ),
        metric("lint.ms", self_ms("lint"), "ms"),
        metric("lint.diagnostics", count("lint.diagnostics"), "count"),
        metric("exist.ms", self_ms("exist"), "ms"),
        metric("exist.components", count("exist.components"), "count"),
        metric("fault.reverify_ms", self_ms("fault.reverify"), "ms"),
        metric(
            "fault.degraded_runs",
            count("classify.degraded.runs"),
            "count",
        ),
        metric("search.ms", self_ms("search"), "ms"),
        metric("search.states", count("search.states"), "count"),
        metric(
            "search.dedup_hit_ratio",
            if lookups > 0.0 {
                count("search.dedup_hits") / lookups
            } else {
                0.0
            },
            "ratio",
        ),
        metric("search.dedup_lookups", lookups, "count"),
        metric("sim.ms", self_ms("sim"), "ms"),
        metric("sim.cycles", count("sim.cycles"), "count"),
        metric(
            "serve.compile_ms",
            per_job(&|p| p.total_ms("serve.compile")),
            "ms",
        ),
        metric(
            "serve.verdict_ms",
            per_job(&|p| p.total_ms("serve.verdict")),
            "ms",
        ),
        metric("serve.cache_lookup_ms", self_ms("serve.cache_lookup"), "ms"),
        metric("serve.cache_store_ms", store_ms, "ms"),
        metric("serve.unaccounted_share", unaccounted, "ratio"),
        metric("serve.jobs", n, "count"),
        metric("trace.job_ms", traced_job_ms, "ms"),
        metric(
            "trace.overhead_ms",
            per_job(&|p| (p.job_ns as f64 - p.untraced_ns as f64) / 1e6),
            "ms",
        ),
    ];
    (metrics, stable)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if std::env::var_os(host::MEASURING).is_none() {
        // Measure in a child with one malloc arena (README.md, "Steady
        // timing"); this process only waits for it.
        std::process::exit(host::run_measuring_child());
    }
    // A panic anywhere (a server worker included) would leave the
    // closed loop waiting on a dead worker: report and stop instead.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        default_hook(info);
        println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
        std::process::exit(1);
    }));

    // Submitting thread and worker share one CPU: a job's hand-off then
    // never waits for the host to wake an idle vCPU, and the reference
    // samples run where the worker runs (README.md, "Steady timing").
    match host::pin_to_one_cpu() {
        Ok(cpu) => println!("servebench: pinned to CPU {cpu}"),
        Err(why) => println!("servebench: not pinned to one CPU ({why})"),
    }
    let steal_before = host::host_steal_s();
    let mut tally = Tally::default();
    let (metrics, stable) = if args.trace {
        measure_traced(&args, &mut tally)
    } else {
        (measure(&args, &mut tally), true)
    };
    let steal = match (steal_before, host::host_steal_s()) {
        (Some(a), Some(b)) => format!("{:.2}", b - a),
        _ => "unavailable".into(),
    };
    println!(
        "servebench: host steal {steal} s (all vCPUs); process CPU {} s; minor faults {}; available parallelism {}",
        host::process_cpu_s().map_or("unavailable".into(), |s| format!("{s:.2}")),
        host::minor_faults().map_or("unavailable".into(), |f| format!("{f}")),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for failure in &tally.first_failures {
        println!("servebench: FAILED {failure}");
    }
    print_result(&tally, stable, &metrics);
}
