//! Conformance: the fault layer with an **empty plan** is
//! bit-identical to the fault-free engine.
//!
//! This is the contract that makes `wormfault` trustworthy: faults
//! are applied through the decision-hook seam, and when no fault
//! fires the hook must be invisible — same outcomes, same final
//! states, same cycle counts, same statistics, and the same trace
//! report (no stray `fault.*` counters or `fault.plan` spans). Any
//! divergence here means the hook path perturbs the engine, and every
//! faulted result would be suspect.
//!
//! Checked on the paper's Figures 1–3 constructions and on seeded
//! random mesh traffic, plus the analogous classification-side
//! contract: an empty down set reproduces the healthy verdict.

use std::sync::Arc;

use cyclic_wormhole::core::classify::{classify_algorithm, ClassifyOptions};
use cyclic_wormhole::core::classify_degraded;
use cyclic_wormhole::core::paper::{fig1, fig2, fig3};
use cyclic_wormhole::fault::{FaultOutcome, FaultPlan, FaultRunner, RetryPolicy};
use cyclic_wormhole::net::topology::Mesh;
use cyclic_wormhole::net::Network;
use cyclic_wormhole::route::algorithms::xy_mesh;
use cyclic_wormhole::route::TableRouting;
use cyclic_wormhole::sim::runner::{ArbitrationPolicy, Outcome, Runner};
use cyclic_wormhole::sim::{traffic, MessageSpec, Sim};
use cyclic_wormhole::trace::{MemoryRecorder, TraceReport};
use rand::SeedableRng;

/// Span totals are wall-clock and never bit-stable; zero them so
/// reports compare on structure and counts only.
fn normalized(mut report: TraceReport) -> TraceReport {
    for stat in report.spans.values_mut() {
        stat.total = std::time::Duration::ZERO;
    }
    report
}

/// All the workloads the contract is checked on.
fn workloads() -> Vec<(&'static str, Network, TableRouting, Vec<MessageSpec>)> {
    let mut out = Vec::new();
    let c = fig1::cyclic_dependency();
    out.push(("fig1", c.net.clone(), c.table.clone(), c.message_specs()));
    let c = fig2::two_message_deadlock();
    out.push(("fig2", c.net.clone(), c.table.clone(), c.message_specs()));
    for s in fig3::all_scenarios() {
        let c = s.spec.build();
        let specs = s.message_specs(&c);
        out.push(("fig3", c.net.clone(), c.table.clone(), specs));
    }
    for seed in [1u64, 7, 42] {
        let mesh = Mesh::new(&[3, 3]);
        let table = xy_mesh(&mesh).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let specs = traffic::uniform_random(mesh.network(), &table, &mut rng, 0.2, 40, (2, 6));
        out.push(("mesh", mesh.network().clone(), table, specs));
    }
    out
}

fn outcomes_match(base: &Outcome, faulted: &FaultOutcome) -> bool {
    match (base, faulted) {
        (Outcome::Delivered { cycles: a }, FaultOutcome::Delivered { cycles: b }) => a == b,
        (
            Outcome::Deadlock {
                members: a,
                at_cycle: ta,
            },
            FaultOutcome::Deadlock {
                members: b,
                at_cycle: tb,
            },
        ) => a == b && ta == tb,
        (Outcome::Timeout { cycles: a }, FaultOutcome::Timeout { cycles: b }) => a == b,
        _ => false,
    }
}

#[test]
fn empty_plan_is_bit_identical_on_every_workload() {
    for (name, net, table, specs) in workloads() {
        let sim = Sim::new(&net, &table, specs, Some(1)).expect("routed");
        for policy in [ArbitrationPolicy::OldestFirst, ArbitrationPolicy::LowestId] {
            let mut plain = Runner::new(&sim, policy.clone());
            let base = plain.run(10_000);

            let mut faulted = FaultRunner::new(
                &net,
                &sim,
                policy.clone(),
                FaultPlan::new(),
                RetryPolicy::Passive,
            );
            let under_fault = faulted.run(10_000);

            assert!(
                outcomes_match(&base, &under_fault),
                "{name}/{policy:?}: outcome diverged: {base:?} vs {under_fault:?}"
            );
            assert_eq!(
                plain.state(),
                faulted.state(),
                "{name}: final state diverged"
            );
            assert_eq!(plain.time(), faulted.time(), "{name}: step count diverged");
            assert_eq!(plain.stats(), faulted.stats(), "{name}: stats diverged");
            assert_eq!(
                faulted.report(),
                cyclic_wormhole::fault::FaultReport::default(),
                "{name}: empty plan reported fault activity"
            );
        }
    }
}

#[test]
fn empty_plan_trace_reports_are_identical() {
    for (name, net, table, specs) in workloads() {
        let sim = Sim::new(&net, &table, specs, Some(1)).expect("routed");

        let rec = Arc::new(MemoryRecorder::new());
        cyclic_wormhole::trace::install(rec.clone());
        let mut plain = Runner::new(&sim, ArbitrationPolicy::OldestFirst);
        let _ = plain.run(10_000);
        cyclic_wormhole::trace::uninstall();
        let base_report = normalized(rec.snapshot());

        let rec = Arc::new(MemoryRecorder::new());
        cyclic_wormhole::trace::install(rec.clone());
        let mut faulted = FaultRunner::new(
            &net,
            &sim,
            ArbitrationPolicy::OldestFirst,
            FaultPlan::new(),
            RetryPolicy::Passive,
        );
        let _ = faulted.run(10_000);
        cyclic_wormhole::trace::uninstall();
        let fault_report = normalized(rec.snapshot());

        assert_eq!(
            base_report, fault_report,
            "{name}: trace reports diverged under the empty plan"
        );
        assert!(
            !fault_report
                .counters
                .keys()
                .any(|k| k.starts_with("fault.")),
            "{name}: empty plan leaked fault.* counters"
        );
        assert!(
            !fault_report.spans.contains_key("fault.plan"),
            "{name}: empty plan opened a fault.plan span"
        );
    }
}

#[test]
fn empty_down_set_reproduces_the_healthy_classification() {
    let opts = ClassifyOptions::default();
    for (name, net, table, _) in workloads() {
        let healthy = classify_algorithm(&net, &table, &opts);
        let d = classify_degraded(&net, &table, &[], &opts);
        assert!(d.down.is_empty(), "{name}: down set not empty");
        assert_eq!(d.unroutable_pairs, 0, "{name}: pairs lost");
        assert_eq!(d.table.len(), table.len(), "{name}: table shrank");
        assert_eq!(
            d.baseline_edges, d.degraded_edges,
            "{name}: CDG edge counts diverged"
        );
        assert_eq!(
            format!("{:?}", d.verdict),
            format!("{healthy:?}"),
            "{name}: verdict diverged"
        );
    }
}
