//! The traced run: each job's path through `wormserve::compile` and
//! `wormserve::verdict_json`, replayed one layer call at a time from
//! this file, with a span around every call.
//!
//! The calls are the ones `compile` and `verdict_json` make, in their
//! order: parse, canonical hash, topology, table, traffic/fault/verify
//! resolution, cache lookup, lint, classify, existence, reverify,
//! search, sim, cache store. A `wormtrace::MemoryRecorder` is installed
//! around the verdict layers only, so the counters the program
//! publishes (`classify.algorithms`, `search.states`, ...) are read per
//! pass. A cache hit ends the job after the lookup, as in the server;
//! the skipped layers still get a span around the branch that skips
//! them, so every layer reports a measured time on every workload.
//!
//! Next to each replayed job, the program's own path for the same job
//! runs twice, each time inside one span with no spans inside it:
//! `compile`, the cache lookup, `verdict_json` and the store, as the
//! server's worker makes them. The `serve.job` run has a recorder of
//! its own installed, as the replay has; its time is the denominator of
//! `serve.unaccounted_share`, so work the program does outside the
//! replayed calls shows up there. The `serve.job_untraced` run has no
//! recorder; its time is the base of the tracing overhead.
//!
//! A separate CDG probe (`Cdg::build`, `is_acyclic`, `cycles_streamed`)
//! runs after each computed job, outside the job's span and outside the
//! recorder: the CDG is built inside lint and classify, and the probe
//! shows what one build costs.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use worm_core::classify::{classify_algorithm, ClassifyOptions};
use wormcdg::Cdg;
use wormexist::ExistOptions;
use wormfault::{reverify, FaultOutcome, FaultPlan, FaultRunner, RetryPolicy};
use wormlint::{LintConfig, Registry};
use wormnet::spec::BuiltTopology;
use wormroute::TableRouting;
use wormsearch::{explore, SearchConfig, Verdict as SearchVerdict};
use wormserve::verdict::classifier_name;
use wormserve::ResultCache;
use wormsim::runner::{ArbitrationPolicy, Outcome, Runner};
use wormsim::skew::SkewModel;
use wormsim::{MessageSpec, Sim};
use wormspec::ast::{Spec, VerifyEngine};
use wormspec::diag::{codes, SpecError};
use wormtrace::MemoryRecorder;

use crate::expect::Observed;

/// One recorded span. Times are nanoseconds since the tracer started.
pub struct SpanRecord {
    pub name: &'static str,
    pub job: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span log for one traced pass.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<SpanRecord>,
    stack: Vec<u32>,
    pub job: u32,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            job: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(SpanRecord {
            name,
            job: self.job,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        id
    }

    fn exit(&mut self, id: u32) {
        let end_ns = self.now_ns();
        assert_eq!(self.stack.pop(), Some(id), "spans must nest");
        self.spans[id as usize].end_ns = end_ns;
    }

    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Close every open span (after a job failed part-way).
    fn close_all(&mut self) {
        while let Some(&id) = self.stack.last() {
            self.exit(id);
        }
    }
}

/// Spans that time one layer's call. The program's own job time that
/// they do not cover is reported as `serve.unaccounted_share`.
pub const LAYER_SPANS: [&str; 13] = [
    "spec.parse",
    "spec.hash",
    "net.build",
    "route.table",
    "serve.resolve",
    "serve.cache_lookup",
    "lint",
    "classify",
    "exist",
    "fault.reverify",
    "search",
    "sim",
    "serve.cache_store",
];

/// Everything `compile` resolves after the topology and table.
struct Resolved {
    messages: Vec<MessageSpec>,
    skew: SkewModel,
    plan: FaultPlan,
    has_faults: bool,
    lint_config: LintConfig,
    classify_options: ClassifyOptions,
    exist_options: ExistOptions,
    search_config: SearchConfig,
    capacity: Option<usize>,
    horizon: u64,
    engine: VerifyEngine,
}

fn resolve(spec: &Spec, topo: &BuiltTopology, table: &TableRouting) -> Result<Resolved, SpecError> {
    let (messages, skew) = match &spec.traffic {
        Some(t) => (
            wormsim::spec::messages_from_spec(t, topo, table)?,
            wormsim::spec::skew_from_spec(t, topo)?,
        ),
        None => (Vec::new(), SkewModel::none(topo.network())),
    };
    let plan = match &spec.faults {
        Some(f) => wormfault::spec::plan_from_spec(f, topo.network(), messages.len())?,
        None => FaultPlan::new(),
    };
    let verify = spec.verify.as_ref();
    let capacity = match verify.and_then(|v| v.capacity.as_ref()) {
        Some(c) => match usize::try_from(c.value.value) {
            Ok(cap) if cap > 0 => Some(cap),
            _ => {
                return Err(SpecError::new(
                    codes::RANGE,
                    "`capacity` out of range",
                    c.span,
                ))
            }
        },
        None => None,
    };
    Ok(Resolved {
        messages,
        skew,
        plan,
        has_faults: spec.faults.is_some(),
        lint_config: wormlint::spec::config_from_spec(verify)?,
        classify_options: worm_core::spec::options_from_spec(verify)?,
        exist_options: wormexist::spec::options_from_spec(verify)?,
        search_config: wormsearch::spec::config_from_spec(verify)?,
        capacity,
        horizon: verify
            .and_then(|v| v.horizon.as_ref())
            .map(|h| h.value.value)
            .unwrap_or(wormserve::compile::DEFAULT_HORIZON),
        engine: verify
            .and_then(|v| v.engine.as_ref().map(|e| e.value))
            .unwrap_or_default(),
    })
}

fn search_verdict(net: &wormnet::Network, table: &TableRouting, r: &Resolved) -> String {
    // The benchmark's specs stay under the service's ten-message
    // search bound, so only the empty-traffic skip applies.
    if r.messages.is_empty() {
        return "skipped".into();
    }
    let sim = match Sim::new(net, table, r.messages.clone(), r.capacity) {
        Ok(sim) => sim,
        Err(e) => return format!("error: {e}"),
    };
    match explore(&sim, &r.search_config).verdict {
        SearchVerdict::DeadlockReachable(_) => "deadlock-reachable",
        SearchVerdict::DeadlockFree => "deadlock-free",
        SearchVerdict::Inconclusive { .. } => "inconclusive",
    }
    .into()
}

fn sim_outcome(net: &wormnet::Network, table: &TableRouting, r: &Resolved) -> String {
    if r.messages.is_empty() {
        return "skipped".into();
    }
    let sim = match Sim::new(net, table, r.messages.clone(), r.capacity) {
        Ok(sim) => sim,
        Err(e) => return format!("error: {e}"),
    };
    if r.plan.is_empty() {
        match Runner::new(&sim, ArbitrationPolicy::LowestId)
            .with_skew(r.skew.clone())
            .run(r.horizon)
        {
            Outcome::Delivered { .. } => "delivered",
            Outcome::Deadlock { .. } => "deadlock",
            Outcome::Timeout { .. } => "timeout",
        }
    } else {
        let mut runner = FaultRunner::new(
            net,
            &sim,
            ArbitrationPolicy::LowestId,
            r.plan.clone(),
            RetryPolicy::Passive,
        );
        match runner.run(r.horizon) {
            FaultOutcome::Delivered { .. } => "delivered",
            FaultOutcome::DeliveredPartial { .. } => "delivered-partial",
            FaultOutcome::Deadlock { .. } => "deadlock",
            FaultOutcome::Timeout { .. } => "timeout",
        }
    }
    .into()
}

/// Sizes counted by the benchmark itself (the rest comes from the
/// recorder).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OwnCounts {
    /// Source bytes parsed. A replay pass rewrites every spec's surface,
    /// so this differs between the passes of a run (but not between
    /// runs of one seed).
    pub spec_bytes: u64,
    pub channels: u64,
    pub paths: u64,
    pub cdg_edges: u64,
}

impl OwnCounts {
    /// The work counts, which must repeat exactly from pass to pass.
    pub fn work(&self) -> [u64; 3] {
        [self.channels, self.paths, self.cdg_edges]
    }
}

/// What one traced job produced.
pub enum TracedJob {
    /// The verdict layers ran; their answers are in `Observed`.
    Computed(Observed),
    /// The cache held the verdict document.
    Hit(String),
}

/// Run one job through every layer with spans. `cache` is the server's
/// cache (if it has one); `store` is the document to write on a miss,
/// as the server writes the document it just computed.
pub fn run_job(
    tr: &mut Tracer,
    source: &str,
    cache: Option<&ResultCache>,
    store: Option<&str>,
    recorder: &Arc<MemoryRecorder>,
    counts: &mut OwnCounts,
) -> Result<TracedJob, String> {
    let out = run_layers(tr, source, cache, store, recorder, counts);
    if out.is_err() {
        wormtrace::uninstall();
        tr.close_all();
    }
    out
}

fn run_layers(
    tr: &mut Tracer,
    source: &str,
    cache: Option<&ResultCache>,
    store: Option<&str>,
    recorder: &Arc<MemoryRecorder>,
    counts: &mut OwnCounts,
) -> Result<TracedJob, String> {
    let root = tr.enter("job");
    let group = tr.enter("serve.compile");
    counts.spec_bytes += source.len() as u64;
    let spec = tr
        .time("spec.parse", || wormspec::parse(source))
        .map_err(|e| e.render(source, "job"))?;
    // `compile` keeps the canonical text; the replay keeps it alive the
    // same way so the optimizer cannot drop the work.
    let hash = tr.time("spec.hash", || {
        std::hint::black_box(wormspec::canonical(&spec));
        wormspec::content_hash_hex(&spec)
    });
    let topology = tr
        .time("net.build", || {
            wormnet::spec::build_topology(&spec.topology)
        })
        .map_err(|e| e.render(source, "job"))?;
    let table = tr
        .time("route.table", || {
            wormroute::spec::table_from_spec(&spec.routing, &topology)
        })
        .map_err(|e| e.render(source, "job"))?;
    let r = tr
        .time("serve.resolve", || resolve(&spec, &topology, &table))
        .map_err(|e| e.render(source, "job"))?;
    tr.exit(group);
    let net = topology.network();
    counts.channels += net.channel_count() as u64;
    counts.paths += table.len() as u64;

    let hit = tr.time("serve.cache_lookup", || cache.and_then(|c| c.lookup(&hash)));
    let run = hit.is_none();
    let group = tr.enter("serve.verdict");
    wormtrace::install(Arc::clone(recorder) as Arc<dyn wormtrace::Recorder>);
    let lint = tr.time("lint", || {
        run.then(|| Registry::with_default_lints().run(net, &table, &r.lint_config))
    });
    let classifier = tr.time("classify", || {
        run.then(|| classify_algorithm(net, &table, &r.classify_options))
    });
    let existence = tr.time("exist", || {
        run.then(|| wormexist::analyze(net, &r.exist_options))
    });
    let faults = tr.time("fault.reverify", || {
        (run && r.has_faults).then(|| reverify(net, &table, &r.plan, &r.classify_options))
    });
    let search = tr.time("search", || {
        (run && matches!(r.engine, VerifyEngine::Search | VerifyEngine::Full))
            .then(|| search_verdict(net, &table, &r))
    });
    let sim = tr.time("sim", || {
        (run && matches!(r.engine, VerifyEngine::Sim | VerifyEngine::Full))
            .then(|| sim_outcome(net, &table, &r))
    });
    wormtrace::uninstall();
    tr.exit(group);
    let stored = tr.time("serve.cache_store", || match (run, cache, store) {
        (true, Some(cache), Some(doc)) => cache.store(&hash, doc).map_err(|e| e.to_string()),
        _ => Ok(()),
    });
    tr.exit(root);

    // The CDG probe, outside the job's span.
    let probe = tr.enter("cdg.probe");
    let cdg = tr.time("cdg.build", || run.then(|| Cdg::build(net, &table)));
    tr.time("cdg.cycles", || {
        if let Some(cdg) = &cdg {
            if !cdg.is_acyclic() {
                let (cycles, _complete) = cdg.cycles_streamed(r.classify_options.max_cycles);
                std::hint::black_box(cycles.len());
            }
        }
    });
    tr.exit(probe);
    counts.cdg_edges += cdg.map_or(0, |c| c.edge_count() as u64);

    stored?;
    Ok(match hit {
        Some(doc) => TracedJob::Hit(doc),
        None => TracedJob::Computed(Observed {
            classifier: classifier.as_ref().map(|v| classifier_name(v).to_owned()),
            lint: lint.map(|l| l.verdict.name().to_owned()),
            existence: existence.map(|e| e.verdict.name().to_owned()),
            search,
            sim,
            degraded: faults.map(|f| classifier_name(&f.degraded.verdict).to_owned()),
        }),
    })
}

/// The program's own path for one job, as the server's worker runs it:
/// `compile`, the cache lookup, and on a miss `verdict_json` and the
/// store. One span named `span` covers it, with no spans inside. With a
/// `recorder`, it is installed around `verdict_json`, as around the
/// replay's verdict layers, so that both pay for the same counters.
/// Returns the verdict document and whether it was a cache hit.
pub fn run_program(
    tr: &mut Tracer,
    span: &'static str,
    source: &str,
    cache: Option<&ResultCache>,
    recorder: Option<&Arc<MemoryRecorder>>,
) -> Result<(String, bool), String> {
    tr.time(span, || {
        let compiled = wormserve::compile(source).map_err(|e| e.render(source, "job"))?;
        if let Some(doc) = cache.and_then(|c| c.lookup(&compiled.hash)) {
            return Ok((doc, true));
        }
        if let Some(recorder) = recorder {
            wormtrace::install(Arc::clone(recorder) as Arc<dyn wormtrace::Recorder>);
        }
        let doc = wormserve::verdict_json(&compiled);
        if recorder.is_some() {
            wormtrace::uninstall();
        }
        if let Some(cache) = cache {
            cache
                .store(&compiled.hash, &doc)
                .map_err(|e| e.to_string())?;
        }
        Ok((doc, false))
    })
}

/// Per-layer totals of one traced pass.
#[derive(Default)]
pub struct PassProfile {
    /// Self time per span name, in nanoseconds.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Inclusive time per span name, in nanoseconds.
    pub total_ns: BTreeMap<&'static str, u64>,
    /// Summed duration of the replayed jobs.
    pub job_ns: u64,
    /// Summed duration of the program's own runs of the same jobs,
    /// with a recorder (`serve.job`).
    pub program_ns: u64,
    /// The same without a recorder (`serve.job_untraced`).
    pub untraced_ns: u64,
    /// Time covered by [`LAYER_SPANS`].
    pub covered_ns: u64,
}

impl PassProfile {
    pub fn from_spans(spans: &[SpanRecord]) -> PassProfile {
        let mut p = PassProfile::default();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(parent) = s.parent {
                child_ns[parent as usize] += s.end_ns - s.start_ns;
            }
        }
        for (s, children) in spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            *p.total_ns.entry(s.name).or_default() += dur;
            *p.self_ns.entry(s.name).or_default() += dur - children.min(dur);
            match s.name {
                "job" => p.job_ns += dur,
                "serve.job" => p.program_ns += dur,
                "serve.job_untraced" => p.untraced_ns += dur,
                _ => {}
            }
            if LAYER_SPANS.contains(&s.name) {
                p.covered_ns += dur;
            }
        }
        p
    }

    pub fn self_ms(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6
    }

    pub fn total_ms(&self, name: &str) -> f64 {
        self.total_ns.get(name).copied().unwrap_or(0) as f64 / 1e6
    }

    /// The share of the program's own job time that the layer spans do
    /// not cover, clamped at 0.
    pub fn unaccounted_share(&self) -> f64 {
        (1.0 - self.covered_ns as f64 / self.program_ns.max(1) as f64).max(0.0)
    }
}

/// Write the spans as JSON lines.
pub fn write_spans(
    path: &std::path::Path,
    passes: &[(String, Vec<SpanRecord>)],
) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (pass, spans) in passes {
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"pass\":\"{pass}\",\"id\":{id},\"job\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.job, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord {
            name,
            job: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn the_unaccounted_share_is_taken_from_the_program() {
        // A replayed job of 100 ns, 90 ns of it under layer spans, and
        // the program's own runs of the same job: 120 ns with a
        // recorder, 100 ns without.
        let spans = [
            span("job", None, 0, 100),
            span("serve.compile", Some(0), 0, 40),
            span("spec.parse", Some(1), 0, 40),
            span("lint", Some(0), 40, 90),
            span("serve.job", None, 100, 220),
            span("serve.job_untraced", None, 220, 320),
        ];
        let p = PassProfile::from_spans(&spans);
        assert_eq!(
            (p.job_ns, p.covered_ns, p.program_ns, p.untraced_ns),
            (100, 90, 120, 100)
        );
        assert_eq!(p.self_ns["job"], 10);
        assert_eq!(p.self_ns["serve.compile"], 0);
        assert!((p.unaccounted_share() - 0.25).abs() < 1e-12);
        // A replay slower than the program clamps at 0.
        let slower = PassProfile {
            covered_ns: 130,
            program_ns: 120,
            ..PassProfile::default()
        };
        assert_eq!(slower.unaccounted_share(), 0.0);
    }
}
