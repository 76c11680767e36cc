//! A served job's `search` block reuses the classifier's search
//! fallback when both ask the same question, and searches afresh when
//! any part of the question differs.
//!
//! `G(k)`'s cycle has four sharers, outside Theorems 2–5, so the
//! classifier searches its candidate's messages at their minimum
//! lengths, with one-flit queues and no stalls. A `G(k)` job over the
//! same messages at stall budget 0 and `capacity = 1` asks its
//! `search` block exactly that question: `servebench`'s `paper_full`
//! runs ten such jobs a pass (`G(1)`–`G(5)`, with and without `c_s`
//! down). Each reused block must equal a fresh `explore` of the job's
//! messages and count one `search.reused`; every other job must run
//! its own search and render what that search found.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use cyclic_wormhole::core::family::CycleConstruction;
use cyclic_wormhole::core::paper::generalized;
use cyclic_wormhole::search::{explore, Verdict};
use cyclic_wormhole::serve::{compile, lift, verdict_json, CompiledJob};
use cyclic_wormhole::sim::Sim;
use cyclic_wormhole::trace::{self, MemoryRecorder};

/// The search question of one `G(k)` job under the full engine.
#[derive(Clone, Copy, Debug)]
struct Question {
    stall_budget: u32,
    capacity: usize,
    /// The `search` block's state budget alone. (The spec's
    /// `max_states` key budgets the classifier's fallback too, which
    /// would then give up and leave nothing to reuse.)
    max_states: Option<usize>,
    /// The minimum-length messages in reverse order.
    reversed: bool,
    /// `c_s` down from cycle 0 (a `faults` block; the search block
    /// reads the healthy fabric either way).
    cs_down: bool,
}

/// The classifier fallback's own question.
const FALLBACK: Question = Question {
    stall_budget: 0,
    capacity: 1,
    max_states: None,
    reversed: false,
    cs_down: false,
};

/// The lifted construction with its minimum-length messages, asking
/// question `q`.
fn source(c: &CycleConstruction, q: Question) -> String {
    let mut messages = generalized::minimum_length_specs(c);
    if q.reversed {
        messages.reverse();
    }
    let mut s = wormspec::to_spec(&lift(&c.net, &c.table));
    s.push_str("traffic {\n  pattern = explicit\n");
    for m in &messages {
        let _ = writeln!(
            s,
            "  message \"{}\" -> \"{}\" length {} flits",
            c.net.node_name(m.src),
            c.net.node_name(m.dst),
            m.length
        );
    }
    s.push_str("}\n");
    if q.cs_down {
        let _ = writeln!(s, "faults {{\n  down c{} @ 0 cycles\n}}", c.cs.index());
    }
    let _ = write!(
        s,
        "verify {{\n  engine = full\n  stall_budget = {} cycles\n  capacity = {} flits\n}}\n",
        q.stall_budget, q.capacity
    );
    s
}

/// `G(k)`'s job asking question `q`: the compiled job, its document,
/// and the counters its verdict published.
fn serve(c: &CycleConstruction, q: Question) -> (CompiledJob, String, BTreeMap<String, u64>) {
    let source = source(c, q);
    let mut job = compile(&source).unwrap_or_else(|e| panic!("{}", e.render(&source, "G(k)")));
    if let Some(n) = q.max_states {
        job.search_config.max_states = n;
    }
    let recorder = Arc::new(MemoryRecorder::new());
    trace::install(recorder.clone());
    let doc = verdict_json(&job);
    trace::uninstall();
    (job, doc, recorder.snapshot().counters)
}

/// The document's `search` block (a flat object).
fn search_block(doc: &str) -> &str {
    let start = doc.find("\"search\":").expect("a search block") + "\"search\":".len();
    let end = start + doc[start..].find('}').expect("a closed block") + 1;
    &doc[start..end]
}

/// A fresh `explore` of the job's messages under its budgets, rendered
/// as the `search` block renders one.
fn fresh(job: &CompiledJob) -> String {
    let sim = Sim::new(
        job.network(),
        &job.table,
        job.messages.clone(),
        job.capacity,
    )
    .expect("routed");
    let result = explore(&sim, &job.search_config);
    let verdict = match result.verdict {
        Verdict::DeadlockReachable(_) => "deadlock-reachable",
        Verdict::DeadlockFree => "deadlock-free",
        Verdict::Inconclusive { .. } => "inconclusive",
    };
    format!(
        "{{\"states\":{},\"verdict\":\"{verdict}\"}}",
        result.states_explored
    )
}

fn count(counters: &BTreeMap<String, u64>, name: &str) -> u64 {
    counters.get(name).copied().unwrap_or(0)
}

#[test]
fn stall_free_generalized_jobs_reuse_the_fallback_search() {
    for k in 1..=5 {
        let c = generalized::generalized(k);
        for cs_down in [false, true] {
            let (job, doc, counters) = serve(
                &c,
                Question {
                    cs_down,
                    ..FALLBACK
                },
            );
            let block = search_block(&doc);
            assert_eq!(block, fresh(&job), "G({k}) cs_down={cs_down}");
            assert_eq!(
                block,
                search_block(
                    &std::fs::read_to_string(format!(
                        "{}/tests/snapshots/serve/g{k}_cs_down.json",
                        env!("CARGO_MANIFEST_DIR")
                    ))
                    .expect("golden document")
                ),
                "G({k}): the golden document's search block"
            );
            assert_eq!(
                count(&counters, "search.reused"),
                1,
                "G({k}) cs_down={cs_down}"
            );
            // Only the classifier's fallbacks searched (the degraded
            // table of a `c_s`-down job is acyclic: no search there).
            assert_eq!(
                count(&counters, "search.searches"),
                count(&counters, "classify.search_fallback"),
                "G({k}) cs_down={cs_down}: {counters:?}"
            );
        }
    }
}

#[test]
fn jobs_asking_another_question_search_afresh() {
    for k in 1..=5 {
        let c = generalized::generalized(k);
        let (_, reused, _) = serve(&c, FALLBACK);
        let fallback_states: usize = search_block(&reused)
            .strip_prefix("{\"states\":")
            .and_then(|rest| rest.split(',').next())
            .and_then(|n| n.parse().ok())
            .expect("a state count");
        let below = fallback_states / 2;
        let questions = [
            (
                "stall budget 1",
                Question {
                    stall_budget: 1,
                    ..FALLBACK
                },
            ),
            (
                "capacity 2",
                Question {
                    capacity: 2,
                    ..FALLBACK
                },
            ),
            (
                "max_states below the fallback's count",
                Question {
                    max_states: Some(below),
                    ..FALLBACK
                },
            ),
            (
                "messages reversed",
                Question {
                    reversed: true,
                    ..FALLBACK
                },
            ),
        ];
        for (what, q) in questions {
            let (job, doc, counters) = serve(&c, q);
            let block = search_block(&doc);
            assert_eq!(block, fresh(&job), "G({k}) {what}");
            assert_eq!(count(&counters, "search.reused"), 0, "G({k}) {what}");
            assert_eq!(
                count(&counters, "search.searches"),
                count(&counters, "classify.search_fallback") + 1,
                "G({k}) {what}: {counters:?}"
            );
            if q.max_states.is_some() {
                // The job's own search gives up one state past its
                // budget, short of the fallback's full count.
                assert_eq!(
                    block,
                    format!("{{\"states\":{},\"verdict\":\"inconclusive\"}}", below + 1),
                    "G({k}) {what}"
                );
            }
        }
    }
}
