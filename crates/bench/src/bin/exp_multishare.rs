//! EXP-X1 — extension: cycles with **multiple shared channels**.
//!
//! The paper's conclusion poses this as an open problem: "Conditions
//! could also be derived when there are multiple shared channels for
//! the same cycle." Theorem 4 settles the single-channel two-sharer
//! case (always a reachable deadlock); this experiment asks what
//! happens when a four-message cycle funnels through **two** shared
//! channels, two sharers each — a shape none of the paper's theorems
//! covers (the classifier falls back to exhaustive search).
//!
//! Sweep: alternating groups `{0,1,0,1}`, odd/even access distances
//! `(d_A, d_B)`, equal ring segments, minimum lengths.
//!
//! Run with: `cargo run --release -p wormbench --bin exp_multishare`
//! (add `--trace <path>` to dump a wormtrace JSON report)

use worm_core::family::{CycleMessageSpec, SharedCycleSpec};
use wormbench::report::{cell, header, row};
use wormbench::{args, trace};
use wormsearch::{explore, min_stall_budget, SearchConfig};
use wormsim::{MessageSpec, Sim};

fn main() {
    args::accept(&["--trace"], &[]);
    let _trace = trace::init("exp_multishare");
    println!("EXP-X1: two shared channels, two sharers each (paper: open problem)\n");
    println!("messages alternate between the channels: groups {{0,1,0,1}}, g = 4\n");
    header(&[
        ("d_A", 5),
        ("d_B", 5),
        ("verdict", 12),
        ("min stalls", 11),
        ("states", 9),
    ]);

    let g = 4usize;
    let mut unreachable_cases = 0usize;
    for d_a in 1..=3usize {
        for d_b in 1..=3usize {
            let spec = SharedCycleSpec {
                messages: vec![
                    CycleMessageSpec::shared_in_group(0, d_a, g, 1),
                    CycleMessageSpec::shared_in_group(1, d_b, g, 1),
                    CycleMessageSpec::shared_in_group(0, d_a, g, 1),
                    CycleMessageSpec::shared_in_group(1, d_b, g, 1),
                ],
            };
            let c = spec.build();
            let specs: Vec<MessageSpec> = c
                .built
                .iter()
                .map(|b| MessageSpec::new(b.pair.0, b.pair.1, b.spec.g))
                .collect();
            let sim = Sim::new(&c.net, &c.table, specs, Some(1)).expect("routed");
            let r = explore(&sim, &SearchConfig::default());
            let free = r.verdict.is_free();
            if free {
                unreachable_cases += 1;
            }
            let stalls = if free {
                min_stall_budget(&sim, 6, 5_000_000)
                    .0
                    .map(|b| b.to_string())
                    .unwrap_or_else(|| ">6".into())
            } else {
                "0".into()
            };
            row(&[
                cell(d_a, 5),
                cell(d_b, 5),
                cell(if free { "UNREACHABLE" } else { "deadlock" }, 12),
                cell(stalls, 11),
                cell(r.states_explored, 9),
            ]);
        }
    }

    // Second sweep: the two sharers of each channel ADJACENT in the
    // cycle, with Figure 1's asymmetric access distances split across
    // the two channels: does splitting the four-sharer channel into
    // two two-sharer channels preserve Figure 1's unreachability?
    println!();
    println!("Figure 1's shape split across two channels (groups {{0,1,0,1}} vs {{0,0,1,1}}):\n");
    header(&[
        ("groups", 12),
        ("(d per msg)", 14),
        ("verdict", 12),
        ("min stalls", 11),
        ("states", 9),
    ]);
    for (label, groups) in [
        ("alternating", [0usize, 1, 0, 1]),
        ("adjacent", [0, 0, 1, 1]),
    ] {
        // Figure 1 distances: odd messages d=2, even d=3; rings 3/4.
        let ds = [2usize, 3, 2, 3];
        let gs = [3usize, 4, 3, 4];
        let spec = SharedCycleSpec {
            messages: (0..4)
                .map(|i| CycleMessageSpec::shared_in_group(groups[i], ds[i], gs[i], 1))
                .collect(),
        };
        let c = spec.build();
        let specs: Vec<MessageSpec> = c
            .built
            .iter()
            .map(|b| MessageSpec::new(b.pair.0, b.pair.1, b.spec.g))
            .collect();
        let sim = Sim::new(&c.net, &c.table, specs, Some(1)).expect("routed");
        let r = explore(&sim, &SearchConfig::default());
        let free = r.verdict.is_free();
        if free {
            unreachable_cases += 1;
        }
        let stalls = if free {
            min_stall_budget(&sim, 6, 5_000_000)
                .0
                .map(|b| b.to_string())
                .unwrap_or_else(|| ">6".into())
        } else {
            "0".into()
        };
        row(&[
            cell(label, 12),
            cell("(2,3,2,3)", 14),
            cell(if free { "UNREACHABLE" } else { "deadlock" }, 12),
            cell(stalls, 11),
            cell(r.states_explored, 9),
        ]);
    }

    println!();
    if unreachable_cases > 0 {
        println!(
            "finding: {unreachable_cases} parameter combinations are false resource \
             cycles even though\nEACH shared channel has only two users — Theorem 4's \
             guarantee does not\ncompose across multiple shared channels. The paper's \
             open problem is real:\nmulti-channel sharing creates unreachability the \
             single-channel theory misses."
        );
    } else {
        println!(
            "finding: every combination deadlocks — in this family, two-sharer \
             channels\ncompose reachably, suggesting Theorem 4 extends to multiple \
             shared channels\nof this shape."
        );
    }
}
