//! Render a [`CompiledJob`]'s verification results as a `wormserve/1`
//! verdict document.
//!
//! The document is the cache payload, so it is **deterministic by
//! construction**: every object's keys are emitted in sorted order,
//! every engine that runs is seeded by the spec itself, and nothing
//! environment-dependent — wall-clock timings, throughput metrics, the
//! submitting job's name — is allowed in. Re-verifying the same
//! canonical spec must reproduce the same bytes; `tests/serve_cache.rs`
//! holds that contract.
//!
//! Which blocks appear is decided by `verify { engine = ... }`:
//!
//! | engine   | `lint` | `classifier` | `search` | `sim` |
//! |----------|--------|--------------|----------|-------|
//! | `static` | ✓      | ✓            |          |       |
//! | `search` | ✓      | ✓            | ✓        |       |
//! | `sim`    | ✓      | ✓            |          | ✓     |
//! | `full`   | ✓      | ✓            | ✓        | ✓     |
//!
//! plus an `existence` block always (the two-sided routability
//! verdict for the fabric itself) and a `faults` block whenever the
//! spec has a `faults` section. `search` and `sim` need messages to
//! run over; with an empty resolved traffic list they degrade to
//! `{"skipped":"no messages"}`. A `search` block whose question the
//! classifier's search fallback already explored renders that answer
//! instead of searching again (see `fallback_answer`).

use worm_core::analysis::Analysis;
use worm_core::classify::{candidate_messages, AlgorithmVerdict, CycleClass};
use wormexist::ExistenceReport;
use wormfault::{reverify_from, FaultOutcome, FaultRunner, RetryPolicy};
use wormlint::{LintSummary, Registry};
use wormsearch::{explore, Verdict as SearchVerdict};
use wormsim::runner::{ArbitrationPolicy, Outcome, Runner};
use wormsim::{MessageSpec, Sim};
use wormspec::ast::VerifyEngine;
use wormtrace::escape_json;

use crate::compile::CompiledJob;

/// The schema identifier stamped into every verdict document.
pub const SCHEMA: &str = "wormserve/1";

/// Render an object from pre-rendered `(key, value)` fields, checking
/// the sorted-keys invariant the schema promises.
fn obj(fields: &[(&str, String)]) -> String {
    debug_assert!(
        fields.windows(2).all(|w| w[0].0 < w[1].0),
        "wormserve/1 object keys must be sorted: {:?}",
        fields.iter().map(|f| f.0).collect::<Vec<_>>()
    );
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", body.join(","))
}

fn arr(items: impl IntoIterator<Item = String>) -> String {
    let body: Vec<String> = items.into_iter().collect();
    format!("[{}]", body.join(","))
}

/// Stable name for an algorithm-level classifier verdict.
pub fn classifier_name(v: &AlgorithmVerdict) -> &'static str {
    match v {
        AlgorithmVerdict::DeadlockFreeAcyclic { .. } => "deadlock-free-acyclic",
        AlgorithmVerdict::DeadlockFreeWithCycles { .. } => "deadlock-free-with-cycles",
        AlgorithmVerdict::Deadlockable { .. } => "deadlockable",
        AlgorithmVerdict::Unknown { .. } => "unknown",
    }
}

fn classifier_cycle_count(v: &AlgorithmVerdict) -> usize {
    match v {
        AlgorithmVerdict::DeadlockFreeAcyclic { .. } => 0,
        AlgorithmVerdict::DeadlockFreeWithCycles { cycles }
        | AlgorithmVerdict::Deadlockable { cycles }
        | AlgorithmVerdict::Unknown { cycles } => cycles.len(),
    }
}

fn lint_block(summary: &LintSummary) -> String {
    let counts: Vec<(&str, String)> = summary
        .counts
        .iter()
        .map(|(&code, n)| (code, n.to_string()))
        .collect();
    obj(&[
        ("allow", summary.allow.to_string()),
        ("counts", obj(&counts)),
        ("deny", summary.deny.to_string()),
        ("verdict", format!("\"{}\"", summary.verdict.name())),
        ("warn", summary.warn.to_string()),
    ])
}

fn classifier_block(verdict: &AlgorithmVerdict) -> String {
    let free = match verdict.is_deadlock_free() {
        Some(true) => "true",
        Some(false) => "false",
        None => "null",
    };
    obj(&[
        ("cycles", classifier_cycle_count(verdict).to_string()),
        ("is_deadlock_free", free.to_string()),
        ("verdict", format!("\"{}\"", classifier_name(verdict))),
    ])
}

fn skipped(reason: &str) -> String {
    obj(&[("skipped", format!("\"{}\"", escape_json(reason)))])
}

/// The exhaustive search enumerates subsets of injectable and
/// stallable messages per state, so it is only meaningful (and only
/// tractable) on small scenarios; beyond this many messages the
/// `search` block reports itself skipped instead of blowing up.
pub const MAX_SEARCH_MESSAGES: usize = 10;

/// The classifier's answer to the question the job's `search` block
/// asks, when its search fallback already explored it: whether a
/// deadlock is reachable, and the states the search visited.
///
/// The fallback explores a candidate's [`candidate_messages`] with
/// one-flit queues and no stalls, so it asked the job's question when
/// the job has stall budget 0 and `capacity = 1` and its messages are
/// the candidate's, `(src, dst, length)` in the same order (the search
/// does not read `inject_at`). The depth-first order is fixed, so a
/// fallback that finished within `states` finishes the same way under
/// any `max_states` of at least `states`; a smaller budget searches
/// afresh and gives up.
fn fallback_answer(job: &CompiledJob, classifier: &AlgorithmVerdict) -> Option<(bool, usize)> {
    if job.search_config.stall_budget != 0 || job.capacity != Some(1) {
        return None;
    }
    let cycles = match classifier {
        AlgorithmVerdict::DeadlockFreeAcyclic { .. } => return None,
        AlgorithmVerdict::DeadlockFreeWithCycles { cycles }
        | AlgorithmVerdict::Deadlockable { cycles }
        | AlgorithmVerdict::Unknown { cycles } => cycles,
    };
    let key = |m: &MessageSpec| (m.src, m.dst, m.length);
    cycles
        .iter()
        .flat_map(|c| &c.candidates)
        .find_map(|v| match v.class {
            CycleClass::DecidedBySearch { reachable, states }
                if states <= job.search_config.max_states
                    && candidate_messages(&v.candidate.segments)
                        .iter()
                        .map(key)
                        .eq(job.messages.iter().map(key)) =>
            {
                Some((reachable, states))
            }
            _ => None,
        })
}

/// The `search` block: the classifier's `answer` when its fallback
/// already searched the job's question (counted as `search.reused`),
/// else one [`explore`] of the job's messages.
fn search_block(job: &CompiledJob, answer: Option<(bool, usize)>) -> String {
    if job.messages.is_empty() {
        return skipped("no messages");
    }
    if job.messages.len() > MAX_SEARCH_MESSAGES {
        return skipped(&format!(
            "{} messages exceed the search bound of {MAX_SEARCH_MESSAGES}",
            job.messages.len()
        ));
    }
    let (verdict, states) = match answer {
        Some((reachable, states)) => {
            wormtrace::counter("search.reused", 1);
            let verdict = if reachable {
                "deadlock-reachable"
            } else {
                "deadlock-free"
            };
            (verdict, states)
        }
        None => {
            let sim = match Sim::new(
                job.network(),
                &job.table,
                job.messages.clone(),
                job.capacity,
            ) {
                Ok(sim) => sim,
                Err(e) => return obj(&[("error", format!("\"{}\"", escape_json(&e.to_string())))]),
            };
            let result = explore(&sim, &job.search_config);
            let verdict = match result.verdict {
                SearchVerdict::DeadlockReachable(_) => "deadlock-reachable",
                SearchVerdict::DeadlockFree => "deadlock-free",
                SearchVerdict::Inconclusive { .. } => "inconclusive",
            };
            (verdict, result.states_explored)
        }
    };
    obj(&[
        ("states", states.to_string()),
        ("verdict", format!("\"{verdict}\"")),
    ])
}

fn sim_block(job: &CompiledJob) -> String {
    if job.messages.is_empty() {
        return skipped("no messages");
    }
    let sim = match Sim::new(
        job.network(),
        &job.table,
        job.messages.clone(),
        job.capacity,
    ) {
        Ok(sim) => sim,
        Err(e) => return obj(&[("error", format!("\"{}\"", escape_json(&e.to_string())))]),
    };
    if job.plan.is_empty() {
        let outcome = Runner::new(&sim, ArbitrationPolicy::LowestId)
            .with_skew(job.skew.clone())
            .run(job.horizon);
        match outcome {
            Outcome::Delivered { cycles } => obj(&[
                ("cycles", cycles.to_string()),
                ("outcome", "\"delivered\"".into()),
            ]),
            Outcome::Deadlock { members, at_cycle } => obj(&[
                ("cycles", at_cycle.to_string()),
                (
                    "members",
                    arr(members.iter().map(|m| m.index().to_string())),
                ),
                ("outcome", "\"deadlock\"".into()),
            ]),
            Outcome::Timeout { cycles } => obj(&[
                ("cycles", cycles.to_string()),
                ("outcome", "\"timeout\"".into()),
            ]),
        }
    } else {
        // A fault plan switches to the fault-aware runner; clock skew
        // and fault injection compose through separate seams, so the
        // faulted path runs without the skew model.
        let mut runner = FaultRunner::new(
            job.network(),
            &sim,
            ArbitrationPolicy::LowestId,
            job.plan.clone(),
            RetryPolicy::Passive,
        );
        match runner.run(job.horizon) {
            FaultOutcome::Delivered { cycles } => obj(&[
                ("cycles", cycles.to_string()),
                ("outcome", "\"delivered\"".into()),
            ]),
            FaultOutcome::DeliveredPartial { cycles, abandoned } => obj(&[
                (
                    "abandoned",
                    arr(abandoned.iter().map(|m| m.index().to_string())),
                ),
                ("cycles", cycles.to_string()),
                ("outcome", "\"delivered-partial\"".into()),
            ]),
            FaultOutcome::Deadlock { members, at_cycle } => obj(&[
                ("cycles", at_cycle.to_string()),
                (
                    "members",
                    arr(members.iter().map(|m| m.index().to_string())),
                ),
                ("outcome", "\"deadlock\"".into()),
            ]),
            FaultOutcome::Timeout { cycles } => obj(&[
                ("cycles", cycles.to_string()),
                ("outcome", "\"timeout\"".into()),
            ]),
        }
    }
}

/// Render an [`ExistenceReport`] with the fixed `wormserve/1` keys.
fn existence_block(report: &ExistenceReport) -> String {
    obj(&[
        ("demands", report.demands.to_string()),
        ("kind", format!("\"{}\"", report.kind_name())),
        (
            "obstruction_channels",
            report.obstruction_channels().to_string(),
        ),
        ("sccs", report.sccs.to_string()),
        ("verdict", format!("\"{}\"", report.verdict.name())),
        ("witness_channels", report.witness_channels().to_string()),
    ])
}

/// The degraded re-verification of the job's healthy analysis, whose
/// verdict under the job's options is `baseline`.
fn faults_block(job: &CompiledJob, analysis: &Analysis<'_>, baseline: AlgorithmVerdict) -> String {
    let report = reverify_from(
        job.network(),
        &job.table,
        &analysis.cdg,
        baseline,
        &job.plan,
        &job.classify_options,
        &job.exist_options,
    );
    obj(&[
        (
            "baseline",
            format!("\"{}\"", classifier_name(&report.baseline)),
        ),
        (
            "degraded",
            format!("\"{}\"", classifier_name(&report.degraded.verdict)),
        ),
        ("existence", existence_block(&report.degraded.existence)),
        ("routability", format!("\"{}\"", report.routability.name())),
        ("survives", report.verdict_survives.to_string()),
        (
            "unroutable_pairs",
            report.degraded.unroutable_pairs.to_string(),
        ),
    ])
}

/// Run the verdict engines selected by the spec and render the
/// `wormserve/1` document.
///
/// The static analysis is built once: the lint block counts its
/// findings, the classifier block walks its candidates, the existence
/// block reads its existence report (decided under the job's budgets),
/// and the faults block starts from its CDG and the classifier's
/// verdict.
///
/// The output is a single line of JSON with sorted keys and **no
/// timings and no job name** — it depends only on the canonical spec,
/// which is what makes byte-identical cache replay sound.
pub fn verdict_json(job: &CompiledJob) -> String {
    let analysis = Analysis::build(
        job.network(),
        &job.table,
        job.lint_config.max_cycles,
        job.lint_config.max_candidates,
        &job.exist_options,
    );
    let lint = Registry::with_default_lints().summarize(&analysis, &job.lint_config);
    let classifier = analysis.classify(&job.classify_options);
    let searches = matches!(job.engine, VerifyEngine::Search | VerifyEngine::Full);
    // Read before the faults block takes the classifier's verdict.
    let answer = searches
        .then(|| fallback_answer(job, &classifier))
        .flatten();

    let mut fields: Vec<(&str, String)> = vec![
        ("classifier", classifier_block(&classifier)),
        ("engine", format!("\"{}\"", engine_name(job.engine))),
        ("existence", existence_block(&analysis.existence)),
    ];
    if job.spec.faults.is_some() {
        fields.push(("faults", faults_block(job, &analysis, classifier)));
    }
    fields.push(("lint", lint_block(&lint)));
    fields.push(("schema", format!("\"{SCHEMA}\"")));
    if searches {
        fields.push(("search", search_block(job, answer)));
    }
    if matches!(job.engine, VerifyEngine::Sim | VerifyEngine::Full) {
        fields.push(("sim", sim_block(job)));
    }
    fields.push(("spec_hash", format!("\"{}\"", job.hash)));
    obj(&fields)
}

/// Stable name for the verify engine selection.
pub fn engine_name(engine: VerifyEngine) -> &'static str {
    match engine {
        VerifyEngine::Static => "static",
        VerifyEngine::Search => "search",
        VerifyEngine::Sim => "sim",
        VerifyEngine::Full => "full",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;

    #[test]
    fn static_verdicts_carry_lint_and_classifier() {
        let job = compile(
            "wormspec/1\ntopology { kind = ring nodes = 4 }\nrouting { engine = clockwise_ring }\n",
        )
        .unwrap();
        let v = verdict_json(&job);
        assert!(v.contains("\"schema\":\"wormserve/1\""), "{v}");
        assert!(v.contains("\"verdict\":\"deadlockable\""), "{v}");
        assert!(
            v.contains(&format!("\"spec_hash\":\"{}\"", job.hash)),
            "{v}"
        );
        assert!(!v.contains("search"), "{v}");
        assert!(!v.contains("\"sim\""), "{v}");
        // The single-lane ring fabric is unroutable no matter the table.
        assert!(
            v.contains("\"existence\":{\"demands\":12,\"kind\":\"deficiency\""),
            "{v}"
        );
        assert!(v.contains("\"verdict\":\"impossible\""), "{v}");
    }

    #[test]
    fn routable_fabrics_carry_an_existence_witness() {
        let job = compile(
            "wormspec/1\ntopology { kind = mesh dims = [3, 3] }\nrouting { engine = dimension_order }\n",
        )
        .unwrap();
        let v = verdict_json(&job);
        assert!(v.contains("\"existence\":{"), "{v}");
        assert!(v.contains("\"verdict\":\"exists\""), "{v}");
        assert!(v.contains("\"obstruction_channels\":0"), "{v}");
    }

    #[test]
    fn full_engine_adds_search_sim_and_fault_blocks() {
        let job = compile(
            "wormspec/1\n\
             topology { kind = ring nodes = 4 }\n\
             routing { engine = clockwise_ring }\n\
             traffic {\n\
               pattern = explicit\n\
               message \"r0\" -> \"r2\" length 2 flits\n\
               message \"r2\" -> \"r0\" length 2 flits\n\
             }\n\
             faults { down c0 @ 100 cycles }\n\
             verify { engine = full horizon = 200 cycles }\n",
        )
        .unwrap();
        let v = verdict_json(&job);
        assert!(v.contains("\"search\":{"), "{v}");
        assert!(v.contains("\"sim\":{"), "{v}");
        assert!(v.contains("\"faults\":{"), "{v}");
        assert!(v.contains("\"engine\":\"full\""), "{v}");
        // The faults block reads the degraded fabric: c0 down breaks
        // the ring cycle, so the surviving routing is free.
        assert!(v.contains("\"routability\":\"routing-survives\""), "{v}");
    }

    #[test]
    fn verdicts_are_bit_identical_across_runs() {
        let src = "wormspec/1\n\
             topology { kind = mesh dims = [3, 3] }\n\
             routing { engine = dimension_order }\n\
             traffic { pattern = uniform rate = 0.2 horizon = 20 cycles seed = 7 }\n\
             verify { engine = full max_states = 20000 }\n";
        let a = verdict_json(&compile(src).unwrap());
        let b = verdict_json(&compile(src).unwrap());
        assert_eq!(a, b);
    }

    #[test]
    fn search_without_messages_is_skipped_not_invented() {
        let job = compile(
            "wormspec/1\ntopology { kind = ring nodes = 4 }\nrouting { engine = clockwise_ring }\nverify { engine = search }\n",
        )
        .unwrap();
        let v = verdict_json(&job);
        assert!(
            v.contains("\"search\":{\"skipped\":\"no messages\"}"),
            "{v}"
        );
    }
}
