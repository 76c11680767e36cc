//! Headless benchmark runner and the `wormbench/1` JSON baselines.
//!
//! The workspace's one benchmark harness. The committed baselines
//! `BENCH_search.json`, `BENCH_sim.json` and `BENCH_serve.json` are for
//! diffs: regenerate them with the `bench_report` binary after a
//! performance change and the review shows exactly which scenario's
//! state count or throughput moved.
//!
//! Like `wormtrace/1` (the trace report schema), the serializer is
//! hand-rolled — the workspace builds offline, so no serde — and all
//! maps are [`BTreeMap`]s: keys serialize sorted, so two runs with
//! identical measurements produce byte-identical files.
//!
//! Determinism caveat: per-entry *structural* values (`states`,
//! `verdict`, `delivered`) are exactly reproducible; timing values
//! (`states_per_sec`, `cycles_per_sec` and the `*_ms` keys) are
//! machine-dependent and only meaningful relative to other entries
//! from the same run. Each search, sim and serve entry's timing is the
//! best of five repetitions, which must all agree on its exact values.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use std::time::Instant;

use crate::scenarios::{
    exist_scenarios, large_topology_scenarios, search_scenarios, sim_scenarios,
    stall_search_scenarios, ExistScenario, SearchScenario, SimScenario, TopologyScenario,
};
use worm_core::analysis::analyze_cycles;
use worm_core::classify::{classify_algorithm, AlgorithmVerdict, ClassifyOptions};
use wormcdg::Cdg;
use wormnet::graph::tarjan_scc;
use wormsearch::{explore, SearchResult, Verdict};
use wormtrace::escape_json;

/// Schema identifier stamped into every baseline file.
pub const SCHEMA: &str = "wormbench/1";

/// A single measured value in a baseline entry.
#[derive(Clone, Debug, PartialEq)]
pub enum BenchValue {
    /// An exact count (states, lookups, cycles).
    Int(u64),
    /// A rate or ratio (machine-dependent unless noted).
    Float(f64),
    /// A label (e.g. the search verdict).
    Str(String),
}

impl fmt::Display for BenchValue {
    /// Renders as a JSON value.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchValue::Int(v) => write!(f, "{v}"),
            BenchValue::Float(v) if v.is_finite() => write!(f, "{v:?}"),
            BenchValue::Float(_) => write!(f, "null"),
            BenchValue::Str(s) => write!(f, "\"{}\"", escape_json(s)),
        }
    }
}

/// One suite's measurements: scenario name → sorted key/value map.
///
/// ```
/// use wormbench::bench_report::{BenchReport, BenchValue};
///
/// let mut report = BenchReport::new("search");
/// report.insert("fig1", "states", BenchValue::Int(7));
/// report.insert("fig1", "verdict", BenchValue::Str("free".into()));
/// let json = report.to_json();
/// assert!(json.starts_with("{\n  \"schema\": \"wormbench/1\""));
/// assert!(json.contains("\"states\": 7"));
/// assert!(json.ends_with("}\n"));
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BenchReport {
    /// Which suite produced this report (`"search"`, `"sim"` or
    /// `"serve"`).
    pub suite: String,
    /// Scenario name → measurement key → value, both levels sorted.
    pub entries: BTreeMap<String, BTreeMap<String, BenchValue>>,
}

impl BenchReport {
    /// An empty report for `suite`.
    pub fn new(suite: impl Into<String>) -> Self {
        BenchReport {
            suite: suite.into(),
            entries: BTreeMap::new(),
        }
    }

    /// Record `key = value` under scenario `entry`.
    pub fn insert(&mut self, entry: &str, key: &str, value: BenchValue) {
        self.entries
            .entry(entry.to_string())
            .or_default()
            .insert(key.to_string(), value);
    }

    /// Serialize to the `wormbench/1` schema: 2-space indentation,
    /// sorted keys at every level, trailing newline.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{}\",\n", escape_json(SCHEMA)));
        out.push_str(&format!("  \"suite\": \"{}\",\n", escape_json(&self.suite)));
        out.push_str("  \"entries\": {");
        let mut first_entry = true;
        for (name, values) in &self.entries {
            out.push_str(if first_entry { "\n" } else { ",\n" });
            first_entry = false;
            out.push_str(&format!("    \"{}\": {{", escape_json(name)));
            let mut first_value = true;
            for (key, value) in values {
                out.push_str(if first_value { "\n" } else { ",\n" });
                first_value = false;
                out.push_str(&format!("      \"{}\": {value}", escape_json(key)));
            }
            out.push_str(if first_value { "}" } else { "\n    }" });
        }
        out.push_str(if first_entry { "}\n" } else { "\n  }\n" });
        out.push_str("}\n");
        out
    }
}

/// Short label for a search verdict.
fn verdict_label(v: &Verdict) -> &'static str {
    match v {
        Verdict::DeadlockReachable(_) => "deadlock",
        Verdict::DeadlockFree => "free",
        Verdict::Inconclusive { .. } => "inconclusive",
    }
}

/// The exact values of one search: its counts and verdict.
#[derive(Debug, PartialEq)]
struct SearchMeasure {
    states: u64,
    frontier_peak: u64,
    dedup_hits: u64,
    dedup_lookups: u64,
    verdict: &'static str,
}

impl SearchMeasure {
    fn of(result: &SearchResult) -> Self {
        SearchMeasure {
            states: result.states_explored as u64,
            frontier_peak: result.metrics.frontier_peak as u64,
            dedup_hits: result.metrics.dedup_hits,
            dedup_lookups: result.metrics.dedup_lookups,
            verdict: verdict_label(&result.verdict),
        }
    }
}

/// Run one search scenario into `report`: its counts and verdict, and
/// the best measured `states_per_sec`.
fn run_search_scenario(report: &mut BenchReport, s: &SearchScenario, smoke: bool) {
    let mut config = s.config();
    if smoke {
        config.max_states = config.max_states.min(20_000);
    }
    let (m, states_per_sec) = best_rate(&s.name, smoke, || {
        let result = explore(&s.sim, &config);
        let m = SearchMeasure::of(&result);
        let states = m.states;
        (m, states, result.metrics.elapsed.as_secs_f64())
    });
    let name = s.name.as_str();
    report.insert(name, "states", BenchValue::Int(m.states));
    report.insert(name, "states_per_sec", BenchValue::Float(states_per_sec));
    report.insert(name, "frontier_peak", BenchValue::Int(m.frontier_peak));
    report.insert(name, "dedup_hits", BenchValue::Int(m.dedup_hits));
    report.insert(name, "dedup_lookups", BenchValue::Int(m.dedup_lookups));
    report.insert(name, "verdict", BenchValue::Str(m.verdict.into()));
}

/// Run the search suite headlessly: the stall-0 scenarios, then
/// Section 6's `g{k}_stall{k}` / `g{k}_stall{k+1}` searches. `smoke`
/// caps every search at a small state budget so CI can validate the
/// harness in seconds; full runs explore each scenario to completion.
/// The cluster-scale
/// topology workloads (`topo_*` entries) ride along: smoke runs
/// measure the downscaled instances, full runs the 10^5-channel ones.
pub fn run_search_suite(smoke: bool) -> BenchReport {
    let mut report = BenchReport::new("search");
    for s in search_scenarios().iter().chain(&stall_search_scenarios()) {
        run_search_scenario(&mut report, s, smoke);
    }
    for s in exist_scenarios(smoke) {
        run_exist_scenario(&mut report, &s);
    }
    for s in large_topology_scenarios(smoke) {
        run_topo_scenario(&mut report, &s, smoke);
    }
    report
}

/// Run only the existence workloads (the `exist_*` entries of the
/// search suite) into a fresh report — the `exp_exist` binary's
/// engine.
pub fn run_exist_suite(smoke: bool) -> BenchReport {
    let mut report = BenchReport::new("search");
    for s in exist_scenarios(smoke) {
        run_exist_scenario(&mut report, &s);
    }
    report
}

/// Measure one existence workload: the full two-sided analysis
/// (`wormexist::analyze`) on the fabric. Structural keys (`channels`,
/// `demands`, `kind`, `sccs`, `verdict`, `witness_channels`) are
/// exactly reproducible; `exist_ms` is a timing. The expected verdict
/// is asserted — a baseline entry with the wrong answer must never be
/// committed.
fn run_exist_scenario(report: &mut BenchReport, s: &ExistScenario) {
    let name = s.name.as_str();
    report.insert(
        name,
        "channels",
        BenchValue::Int(s.net.channel_count() as u64),
    );
    let start = Instant::now();
    let exist = wormexist::analyze(&s.net, &wormexist::ExistOptions::default());
    let exist_ms = start.elapsed().as_secs_f64() * 1e3;
    report.insert(name, "exist_ms", BenchValue::Float(exist_ms.round()));
    report.insert(name, "demands", BenchValue::Int(exist.demands as u64));
    report.insert(name, "kind", BenchValue::Str(exist.kind_name().into()));
    report.insert(name, "sccs", BenchValue::Int(exist.sccs as u64));
    report.insert(
        name,
        "verdict",
        BenchValue::Str(exist.verdict.name().into()),
    );
    report.insert(
        name,
        "witness_channels",
        BenchValue::Int(exist.witness_channels() as u64),
    );
    assert_eq!(
        exist.verdict.name(),
        s.expected_verdict,
        "{name}: the existence engine must certify the expected verdict"
    );
}

/// Run only the cluster-scale topology workloads (the `topo_*`
/// entries of the search suite) into a fresh report — the `exp_topo`
/// binary's engine.
pub fn run_topo_suite(smoke: bool) -> BenchReport {
    let mut report = BenchReport::new("search");
    for s in large_topology_scenarios(smoke) {
        run_topo_scenario(&mut report, &s, smoke);
    }
    report
}

/// Cycle budget for the `topo_*` entries: on the deliberately
/// deadlock-prone instance the full cycle count is astronomical, and a
/// handful suffices to exhibit (not exhaust) the refutation.
const TOPO_MAX_CYCLES: usize = 8;

/// Candidate budget per cycle for the `topo_*` entries. At cluster
/// scale a single cycle's edges carry thousands of witness messages;
/// the verdicts don't depend on exhausting them (Corollary 1 and the
/// theorem certificates land within the first few).
const TOPO_MAX_CANDIDATES: usize = 256;

/// Label for an [`AlgorithmVerdict`], mirroring
/// `wormlint::StaticVerdict::name` spelling.
fn algorithm_verdict_label(v: &AlgorithmVerdict) -> &'static str {
    match v {
        AlgorithmVerdict::DeadlockFreeAcyclic { .. } => "free-acyclic",
        AlgorithmVerdict::DeadlockFreeWithCycles { .. } => "free-cyclic",
        AlgorithmVerdict::Deadlockable { .. } => "deadlockable",
        AlgorithmVerdict::Unknown { .. } => "unknown",
    }
}

/// Measure one cluster-scale topology scenario: the routing table's
/// build time (`table_build_ms`) and data size (`table_bytes`), the
/// routing-property pass (`properties_ms`), batch CDG build and its data size (`cdg_bytes`), the Kahn acyclicity
/// decision (`acyclic_ms`), the largest strongly connected component
/// (`cdg_largest_scc`, from Tarjan), bounded cycle streaming, the
/// candidate phase over the streamed cycles (`candidates`, and
/// `candidates_ms` for enumeration, sharing and theorem classes, best
/// of [`MAX_TIMING_REPS`]), whole-algorithm classification, and the
/// wormlint static verdict. Structural keys (`channels`,
/// `table_bytes`, `cdg_edges`, `cdg_bytes`, `cdg_largest_scc`,
/// `cycles_found`, `candidates`, both verdicts) are exactly
/// reproducible; `*_ms` keys are timings, single runs except
/// `candidates_ms`.
fn run_topo_scenario(report: &mut BenchReport, s: &TopologyScenario, smoke: bool) {
    let name = s.name.as_str();
    report.insert(
        name,
        "channels",
        BenchValue::Int(s.net.channel_count() as u64),
    );
    report.insert(
        name,
        "table_build_ms",
        BenchValue::Float(s.table_build_ms.round()),
    );
    report.insert(
        name,
        "table_bytes",
        BenchValue::Int(s.table.data_bytes() as u64),
    );

    let start = Instant::now();
    std::hint::black_box(wormroute::properties::analyze(&s.net, &s.table));
    let properties_ms = start.elapsed().as_secs_f64() * 1e3;
    report.insert(
        name,
        "properties_ms",
        BenchValue::Float(properties_ms.round()),
    );

    let start = Instant::now();
    let cdg = Cdg::build(&s.net, &s.table);
    let cdg_build_ms = start.elapsed().as_secs_f64() * 1e3;
    report.insert(
        name,
        "cdg_build_ms",
        BenchValue::Float(cdg_build_ms.round()),
    );
    report.insert(name, "cdg_edges", BenchValue::Int(cdg.edge_count() as u64));
    report.insert(name, "cdg_bytes", BenchValue::Int(cdg.data_bytes() as u64));

    let start = Instant::now();
    let acyclic = cdg.is_acyclic();
    let acyclic_ms = start.elapsed().as_secs_f64() * 1e3;
    report.insert(name, "acyclic_ms", BenchValue::Float(acyclic_ms.round()));
    let largest_scc = tarjan_scc(&cdg).iter().map(Vec::len).max().unwrap_or(0);
    report.insert(name, "cdg_largest_scc", BenchValue::Int(largest_scc as u64));
    assert_eq!(
        acyclic,
        largest_scc <= 1,
        "{name}: Kahn and Tarjan disagree on acyclicity"
    );

    let (cycles, _complete) = cdg.cycles_streamed(TOPO_MAX_CYCLES);
    report.insert(name, "cycles_found", BenchValue::Int(cycles.len() as u64));

    let minimal = wormroute::properties::is_minimal(&s.net, &s.table);
    let (candidates, candidates_secs) = best_secs(name, smoke, || {
        let cycles = cycles.clone();
        let start = Instant::now();
        let analyzed = analyze_cycles(&s.net, &s.table, cycles, TOPO_MAX_CANDIDATES, minimal);
        let count: usize = analyzed.iter().map(|cy| cy.candidates.len()).sum();
        drop(analyzed);
        (count, start.elapsed().as_secs_f64())
    });
    report.insert(name, "candidates", BenchValue::Int(candidates as u64));
    report.insert(
        name,
        "candidates_ms",
        BenchValue::Float((candidates_secs * 1e3).round()),
    );

    let opts = ClassifyOptions {
        max_cycles: TOPO_MAX_CYCLES,
        max_candidates: TOPO_MAX_CANDIDATES,
        use_search: false,
        ..ClassifyOptions::default()
    };
    let start = Instant::now();
    let verdict = classify_algorithm(&s.net, &s.table, &opts);
    let classify_ms = start.elapsed().as_secs_f64() * 1e3;
    report.insert(name, "classify_ms", BenchValue::Float(classify_ms.round()));
    report.insert(
        name,
        "verdict",
        BenchValue::Str(algorithm_verdict_label(&verdict).into()),
    );

    let config = wormlint::LintConfig {
        max_cycles: TOPO_MAX_CYCLES,
        max_candidates: TOPO_MAX_CANDIDATES,
        ..wormlint::LintConfig::default()
    };
    let start = Instant::now();
    let lint = wormlint::Registry::with_default_lints().run(&s.net, &s.table, &config);
    let lint_ms = start.elapsed().as_secs_f64() * 1e3;
    report.insert(name, "lint_ms", BenchValue::Float(lint_ms.round()));
    report.insert(
        name,
        "lint_verdict",
        BenchValue::Str(lint.verdict.name().into()),
    );
    assert_eq!(
        lint.verdict.name(),
        s.expected_verdict,
        "{name}: wormlint must certify the expected verdict"
    );
}

/// The exact values of one sim run: its cycles, flit moves,
/// deliveries and outcome.
#[derive(Debug, PartialEq)]
struct SimMeasure {
    cycles: u64,
    flit_moves: u64,
    delivered: u64,
    outcome: &'static str,
}

/// Repeat policy for timing runs: every scenario runs
/// [`MAX_TIMING_REPS`] times (once under `--smoke`), and the *best*
/// rate seen is kept. Best-of-N filters out scheduler preemption and
/// other one-off noise that a single run is exposed to, and the same N
/// for every entry, long or short, keeps two baseline files
/// comparable entry by entry.
const MAX_TIMING_REPS: u32 = 5;

/// Time `rep` under the repeat policy. Each call runs the scenario
/// once and returns its exact values, the work it did (states or
/// cycles) and its wall-clock seconds. Returns the first run's exact
/// values, which every later run must repeat, and the best work rate
/// per second, rounded.
fn best_rate<T: PartialEq + fmt::Debug>(
    name: &str,
    smoke: bool,
    mut rep: impl FnMut() -> (T, u64, f64),
) -> (T, f64) {
    let ((exact, work), secs) = best_secs(name, smoke, || {
        let (exact, work, secs) = rep();
        ((exact, work), secs)
    });
    let rate = if secs > 0.0 { work as f64 / secs } else { 0.0 };
    (exact, rate.round())
}

/// Time `rep` under the repeat policy, as [`best_rate`] does, and
/// return the first run's exact values and the fewest seconds a run
/// took.
fn best_secs<T: PartialEq + fmt::Debug>(
    name: &str,
    smoke: bool,
    mut rep: impl FnMut() -> (T, f64),
) -> (T, f64) {
    let mut first: Option<T> = None;
    let mut best = f64::INFINITY;
    for _ in 0..if smoke { 1 } else { MAX_TIMING_REPS } {
        let (exact, secs) = rep();
        best = best.min(secs);
        match &first {
            None => first = Some(exact),
            Some(f) => assert_eq!(f, &exact, "{name}: a repetition changed an exact value"),
        }
    }
    (first.expect("at least one timing rep runs"), best)
}

/// Run one simulator scenario into `report`: its cycles, flit moves,
/// deliveries and outcome, and the best measured `cycles_per_sec`.
fn run_sim_scenario(report: &mut BenchReport, s: &SimScenario, smoke: bool) {
    let max_cycles = if smoke {
        s.max_cycles.min(200)
    } else {
        s.max_cycles
    };
    let (m, cycles_per_sec) = best_rate(&s.name, smoke, || {
        let start = Instant::now();
        s.run(max_cycles, |outcome, stats| {
            let secs = start.elapsed().as_secs_f64();
            let m = SimMeasure {
                cycles: stats.cycles,
                flit_moves: stats.flit_moves,
                delivered: stats.delivered_count() as u64,
                outcome,
            };
            (m, stats.cycles, secs)
        })
    });
    let name = s.name.as_str();
    report.insert(name, "cycles", BenchValue::Int(m.cycles));
    report.insert(name, "flit_moves", BenchValue::Int(m.flit_moves));
    report.insert(name, "delivered", BenchValue::Int(m.delivered));
    report.insert(name, "outcome", BenchValue::Str(m.outcome.into()));
    report.insert(name, "cycles_per_sec", BenchValue::Float(cycles_per_sec));
}

/// Run the simulator suite headlessly. `smoke` caps every run at a few
/// hundred cycles.
pub fn run_sim_suite(smoke: bool) -> BenchReport {
    let mut report = BenchReport::new("sim");
    for s in sim_scenarios() {
        run_sim_scenario(&mut report, &s, smoke);
    }
    report
}

/// The committed `wormspec/1` corpus (`corpus/*.wspec`): file stem and
/// source, sorted by stem.
fn corpus_sources() -> Vec<(String, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
    let mut sources: Vec<(String, String)> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("corpus entry reads").path())
        .filter(|p| p.extension().is_some_and(|x| x == "wspec"))
        .map(|p| {
            let stem = p.file_stem().expect("a .wspec file has a stem");
            let source = std::fs::read_to_string(&p).expect("corpus spec reads");
            (stem.to_string_lossy().into_owned(), source)
        })
        .collect();
    sources.sort();
    sources
}

/// A resubmission of `source` in other surface syntax with the same
/// canonical text: a comment first, and every line re-indented, some
/// with a trailing comment.
fn rewrite(source: &str) -> String {
    let mut out = String::from("# resubmitted\n");
    for (i, line) in source.lines().enumerate() {
        out.push_str(["", "\t", "    "][i % 3]);
        out.push_str(line.trim_start());
        out.push_str(if i % 4 == 0 { "   # kept\n" } else { "\n" });
    }
    out
}

/// Run the serve suite: what a `wormserve` cache hit costs. One
/// `key_<spec>` entry per corpus spec times `wormserve::key` (parse and
/// hash) on its source; `corpus_hot` serves the whole corpus, rewritten,
/// from a primed cache. `smoke` runs each timing once.
pub fn run_serve_suite(smoke: bool) -> BenchReport {
    let mut report = BenchReport::new("serve");
    let corpus = corpus_sources();
    for (stem, source) in &corpus {
        run_key_scenario(&mut report, stem, source, smoke);
    }
    run_corpus_hot(&mut report, &corpus, smoke);
    report
}

/// Measure one spec's key: its size as written and as canonical text,
/// its `path` declarations (exact), and `key_ms`, the best time of
/// `wormserve::key` on its source.
fn run_key_scenario(report: &mut BenchReport, stem: &str, source: &str, smoke: bool) {
    let name = format!("key_{stem}");
    let (_hash, keys_per_sec) = best_rate(&name, smoke, || {
        let start = Instant::now();
        let key = wormserve::key(source).expect("corpus specs parse");
        (key.hash, 1, start.elapsed().as_secs_f64())
    });
    let spec = wormspec::parse(source).expect("corpus specs parse");
    report.insert(&name, "source_bytes", BenchValue::Int(source.len() as u64));
    report.insert(
        &name,
        "canonical_bytes",
        BenchValue::Int(wormspec::canonical(&spec).len() as u64),
    );
    report.insert(
        &name,
        "path_decls",
        BenchValue::Int(spec.routing.paths().len() as u64),
    );
    // To the microsecond: the corpus keys take from ~1 µs to ~1 ms.
    let key_ms = (1e6 / keys_per_sec).round() / 1e3;
    report.insert(&name, "key_ms", BenchValue::Float(key_ms));
}

/// Serve `sources` through a one-worker `Server` on the cache at `dir`,
/// with a queue deep enough that submitting never waits. Returns each
/// job's result, in submission order, and the seconds from the
/// server's start to its drain.
fn serve(dir: &Path, sources: &[(String, String)]) -> (Vec<wormserve::JobResult>, f64) {
    let start = Instant::now();
    let server = wormserve::Server::start(wormserve::ServerConfig {
        workers: 1,
        queue_depth: sources.len().max(1),
        cache_dir: Some(dir.to_path_buf()),
        attach_traces: false,
    })
    .expect("the cache directory opens");
    for (name, source) in sources {
        assert!(server.submit(name.clone(), source.clone()));
    }
    let results = server.shutdown();
    (results, start.elapsed().as_secs_f64())
}

/// Measure the corpus served hot: prime a fresh cache with every
/// corpus spec, then serve a rewrite of each through a one-worker
/// server. `jobs` and `hits` are exact (every rewrite must hit and
/// replay the primed document); `hot_jobs_per_sec` is the best rate.
fn run_corpus_hot(report: &mut BenchReport, corpus: &[(String, String)], smoke: bool) {
    let dir = std::env::temp_dir().join(format!("wormbench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (primed, _) = serve(&dir, corpus);
    assert!(primed.iter().all(|r| !r.cached && r.verdict.is_ok()));
    let rewrites: Vec<(String, String)> = corpus
        .iter()
        .map(|(stem, source)| (stem.clone(), rewrite(source)))
        .collect();
    let (counts, hot_jobs_per_sec) = best_rate("corpus_hot", smoke, || {
        let (hot, secs) = serve(&dir, &rewrites);
        for (computed, hit) in primed.iter().zip(&hot) {
            assert_eq!(
                hit.verdict, computed.verdict,
                "{}: replay differs",
                hit.name
            );
        }
        let hits = hot.iter().filter(|r| r.cached).count() as u64;
        ((hot.len() as u64, hits), hot.len() as u64, secs)
    });
    let _ = std::fs::remove_dir_all(&dir);
    report.insert("corpus_hot", "jobs", BenchValue::Int(counts.0));
    report.insert("corpus_hot", "hits", BenchValue::Int(counts.1));
    report.insert(
        "corpus_hot",
        "hot_jobs_per_sec",
        BenchValue::Float(hot_jobs_per_sec),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_is_valid_json() {
        let report = BenchReport::new("search");
        assert_eq!(
            report.to_json(),
            "{\n  \"schema\": \"wormbench/1\",\n  \"suite\": \"search\",\n  \"entries\": {}\n}\n"
        );
    }

    #[test]
    fn keys_serialize_sorted() {
        let mut report = BenchReport::new("sim");
        report.insert("zeta", "b", BenchValue::Int(2));
        report.insert("alpha", "z", BenchValue::Int(1));
        report.insert("alpha", "a", BenchValue::Float(0.5));
        let json = report.to_json();
        let alpha = json.find("\"alpha\"").unwrap();
        let zeta = json.find("\"zeta\"").unwrap();
        assert!(alpha < zeta);
        let a = json.find("\"a\": 0.5").unwrap();
        let z = json.find("\"z\": 1").unwrap();
        assert!(a < z);
    }

    #[test]
    fn strings_escape() {
        let mut report = BenchReport::new("sim");
        report.insert("e", "note", BenchValue::Str("a\"b\\c\nd".into()));
        assert!(report.to_json().contains("\"note\": \"a\\\"b\\\\c\\nd\""));
    }

    #[test]
    fn smoke_suites_produce_entries() {
        let search = run_search_suite(true);
        assert_eq!(search.suite, "search");
        assert!(search.entries.contains_key("fig1"));
        assert!(search.entries.contains_key("g5"));
        let fig1 = &search.entries["fig1"];
        assert!(fig1.contains_key("states"));
        for k in 1..=5 {
            for name in [format!("g{k}_stall{k}"), format!("g{k}_stall{}", k + 1)] {
                let entry = &search.entries[&name];
                let keys: Vec<&String> = entry.keys().collect();
                let g: Vec<&String> = search.entries[&format!("g{k}")].keys().collect();
                assert_eq!(keys, g, "{name} must carry the g{k} key set");
            }
        }
        for name in [
            "topo_dragonfly_min",
            "topo_fattree_updown",
            "topo_fullmesh_vcfree",
            "topo_dragonfly_novc",
        ] {
            let entry = &search.entries[name];
            for key in [
                "channels",
                "table_build_ms",
                "table_bytes",
                "properties_ms",
                "cdg_edges",
                "cdg_bytes",
                "cycles_found",
                "candidates",
                "candidates_ms",
                "verdict",
                "lint_verdict",
            ] {
                assert!(entry.contains_key(key), "{name} missing {key}");
            }
        }
        for name in ["exist_fig1", "exist_g5", "exist_topo_dragonfly_novc"] {
            let entry = &search.entries[name];
            for key in [
                "channels",
                "demands",
                "exist_ms",
                "kind",
                "sccs",
                "verdict",
                "witness_channels",
            ] {
                assert!(entry.contains_key(key), "{name} missing {key}");
            }
            assert_eq!(entry["verdict"], BenchValue::Str("exists".into()));
        }
        assert_eq!(
            search.entries["topo_dragonfly_min"]["lint_verdict"],
            BenchValue::Str("free-acyclic".into())
        );
        assert_eq!(
            search.entries["topo_dragonfly_novc"]["lint_verdict"],
            BenchValue::Str("deadlockable".into())
        );

        let sim = run_sim_suite(true);
        assert!(sim.entries.contains_key("fig1_adversarial"));
        assert!(sim.entries["fig1_adversarial"].contains_key("cycles_per_sec"));
        assert!(sim.entries.contains_key("mesh_uniform_16x16"));
        assert!(sim.entries.contains_key("mesh_uniform_32x32"));
        // The starved run: no flit ever moves, and it times out at the
        // (smoke-capped) horizon.
        let starved = &sim.entries["fig1_cs_down"];
        assert_eq!(starved["cycles"], BenchValue::Int(200));
        assert_eq!(starved["flit_moves"], BenchValue::Int(0));
        assert_eq!(starved["outcome"], BenchValue::Str("timeout".into()));
    }

    #[test]
    fn the_serve_suite_keys_every_corpus_spec_and_serves_it_hot() {
        let serve = run_serve_suite(true);
        assert_eq!(serve.suite, "serve");
        let keys: Vec<&String> = serve
            .entries
            .keys()
            .filter(|n| n.starts_with("key_"))
            .collect();
        assert_eq!(keys.len(), 20);
        for name in keys {
            let entry = &serve.entries[name];
            let set: Vec<&str> = entry.keys().map(String::as_str).collect();
            assert_eq!(
                set,
                ["canonical_bytes", "key_ms", "path_decls", "source_bytes"]
            );
        }
        assert_eq!(serve.entries["key_g5"]["path_decls"], BenchValue::Int(2256));
        let hot = &serve.entries["corpus_hot"];
        assert_eq!(hot["jobs"], BenchValue::Int(20));
        assert_eq!(hot["hits"], BenchValue::Int(20));
        assert!(hot.contains_key("hot_jobs_per_sec"));
    }
}
