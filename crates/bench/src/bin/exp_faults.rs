//! EXP-FLT — fault sweeps over Figures 1–3: which paper verdicts
//! survive hardware misbehaviour?
//!
//! Two questions per construction:
//!
//! * **Dynamic** — under a seeded random schedule of transient
//!   channel outages and router stalls, do the cycle messages still
//!   arrive (and does the deadlock detector stay quiet)?
//! * **Static** — if a channel dies *permanently*, does the
//!   classification pipeline still certify the same deadlock-freedom
//!   answer on the degraded topology? Killing the shared channel of
//!   Figure 1 demotes the headline cyclic-but-free verdict to the
//!   trivially acyclic one; killing a ring channel of Figure 3(e)
//!   breaks the reachable deadlock outright.
//!
//! Everything is deterministic from `--seed` (default `0xC0FFEE`,
//! hex accepted): the same seed reproduces the same plans, outcomes,
//! and verdicts bit-for-bit.
//!
//! Run with: `cargo run --release -p wormbench --bin exp_faults`
//! (add `--seed 0xC0FFEE` to pin the plan seed, `--trace <path>` to
//! dump a wormtrace JSON report with the `fault.*` counters)

use worm_core::classify::{classify_algorithm, AlgorithmVerdict, ClassifyOptions};
use worm_core::family::CycleConstruction;
use worm_core::paper::{fig1, fig2, fig3};
use wormbench::report::{cell, header, row};
use wormbench::{args, trace};
use wormfault::{reverify, FaultOutcome, FaultPlan, FaultRunner, RetryPolicy};
use wormsim::runner::ArbitrationPolicy;
use wormsim::Sim;

fn verdict_str(v: &AlgorithmVerdict) -> &'static str {
    match v {
        AlgorithmVerdict::DeadlockFreeAcyclic { .. } => "free-acyclic",
        AlgorithmVerdict::DeadlockFreeWithCycles { .. } => "free-cyclic",
        AlgorithmVerdict::Deadlockable { .. } => "deadlockable",
        AlgorithmVerdict::Unknown { .. } => "unknown",
    }
}

fn outcome_str(o: &FaultOutcome) -> String {
    match o {
        FaultOutcome::Delivered { cycles } => format!("delivered @{cycles}"),
        FaultOutcome::DeliveredPartial { cycles, abandoned } => {
            format!("partial @{cycles} (-{})", abandoned.len())
        }
        FaultOutcome::Deadlock { at_cycle, .. } => format!("DEADLOCK @{at_cycle}"),
        FaultOutcome::Timeout { cycles } => format!("timeout @{cycles}"),
    }
}

/// One named construction to sweep.
struct Case {
    name: &'static str,
    c: CycleConstruction,
}

fn cases() -> Vec<Case> {
    let mut v = vec![
        Case {
            name: "fig1",
            c: fig1::cyclic_dependency(),
        },
        Case {
            name: "fig2",
            c: fig2::two_message_deadlock(),
        },
    ];
    for s in fig3::all_scenarios() {
        if s.name == "a" || s.name == "e" {
            v.push(Case {
                name: if s.name == "a" { "fig3a" } else { "fig3e" },
                c: s.spec.build(),
            });
        }
    }
    v
}

fn main() {
    args::accept(&["--trace", "--seed"], &[]);
    let _trace = trace::init("exp_faults");
    let seed = args::seed(0xC0FFEE);
    let opts = ClassifyOptions::default();
    println!("EXP-FLT: fault sweeps over the paper's constructions (seed {seed:#x})");

    // ---- dynamic sweep: transient faults against the live runs ----
    println!();
    println!("transient faults (seeded random outages + router stalls), live runs:");
    header(&[
        ("figure", 8),
        ("plan", 40),
        ("outcome", 18),
        ("downs", 7),
        ("stallc", 7),
    ]);
    for case in cases() {
        let sim =
            Sim::new(&case.c.net, &case.c.table, case.c.message_specs(), Some(1)).expect("routed");
        for round in 0..3u64 {
            let plan = FaultPlan::random(&case.c.net, seed ^ round, 2, 1, 30);
            let mut fr = FaultRunner::new(
                &case.c.net,
                &sim,
                ArbitrationPolicy::OldestFirst,
                plan.clone(),
                RetryPolicy::Passive,
            );
            let outcome = fr.run(20_000);
            let report = fr.report();
            row(&[
                cell(case.name, 8),
                cell(plan.describe(), 40),
                cell(outcome_str(&outcome), 18),
                cell(report.channel_downs, 7),
                cell(report.router_stall_cycles, 7),
            ]);
        }
    }

    // ---- static sweep: does the verdict survive permanent damage? ----
    println!();
    println!("degraded-topology re-verification (permanent channel loss):");
    header(&[
        ("figure", 8),
        ("down", 12),
        ("baseline", 14),
        ("degraded", 14),
        ("pairs lost", 11),
        ("edges", 12),
        ("survives", 9),
    ]);
    for case in cases() {
        let baseline = classify_algorithm(&case.c.net, &case.c.table, &opts);
        // A purely transient plan: permanent damage is empty, so the
        // static verdict must survive verbatim.
        let transient = FaultPlan::random(&case.c.net, seed, 2, 1, 30);
        // Permanent loss of the construction's shared channel — the
        // pivot of every cycle in the family.
        let permanent = FaultPlan::new().channel_down(case.c.cs, 10);
        for (label, plan) in [("transient", &transient), ("cs down", &permanent)] {
            let r = reverify(&case.c.net, &case.c.table, plan, &opts);
            row(&[
                cell(case.name, 8),
                cell(label, 12),
                cell(verdict_str(&r.baseline), 14),
                cell(verdict_str(&r.degraded.verdict), 14),
                cell(r.degraded.unroutable_pairs, 11),
                cell(
                    format!(
                        "{}->{}",
                        r.degraded.baseline_edges, r.degraded.degraded_edges
                    ),
                    12,
                ),
                cell(r.verdict_survives, 9),
            ]);
        }
        drop(baseline);
    }

    println!();
    println!("reading: transient plans never touch the static verdict (no permanent damage);");
    println!("killing fig1's shared channel demotes free-cyclic to free-acyclic (the cycle");
    println!("needs c_s), and killing fig3e's shared channel erases its reachable deadlock —");
    println!("graceful degradation in both directions, deterministic under --seed.");
}
