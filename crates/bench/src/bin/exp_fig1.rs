//! EXP-F1 — Figure 1 / Theorem 1: the Cyclic Dependency routing
//! algorithm is deadlock-free despite a cyclic channel dependency
//! graph.
//!
//! Regenerates: the CDG cyclicity evidence, the static deadlock
//! configuration, the exhaustive-search verdict, and robustness sweeps
//! over buffer depth, message length, and duplicate message instances.
//!
//! Run with: `cargo run --release -p wormbench --bin exp_fig1`
//! (add `--trace <path>` to dump a wormtrace JSON report)

use worm_core::paper::fig1;
use wormbench::report::{cell, header, row};
use wormbench::{args, trace};
use wormcdg::deadlock_candidates;
use wormsearch::{explore, min_stall_budget, render_witness, SearchConfig, Verdict};
use wormsim::{MessageSpec, Sim};

fn main() {
    args::accept(&["--trace"], &[]);
    let _trace = trace::init("exp_fig1");
    let c = fig1::cyclic_dependency();
    let cdg = c.cdg();
    println!("EXP-F1: Figure 1 / Theorem 1 — Cyclic Dependency routing algorithm");
    println!(
        "CDG: {} channels, {} dependencies, cycles: {}",
        cdg.channel_count(),
        cdg.edge_count(),
        cdg.cycles().len()
    );
    let cands = deadlock_candidates(&c.table, &c.cycle(), 1000).expect("bounded");
    println!(
        "static deadlock candidates on the cycle: {} (segments hold {:?} channels)",
        cands.len(),
        cands[0]
            .segments
            .iter()
            .map(|s| s.channels.len())
            .collect::<Vec<_>>()
    );
    println!();

    // Sweep: buffer depth x message-length policy.
    println!("reachability search over all schedules:");
    header(&[
        ("buffers", 8),
        ("lengths", 22),
        ("verdict", 14),
        ("states", 10),
    ]);
    for buffers in [1usize, 2, 4] {
        for (label, specs) in [
            ("minimum (l = g_i)", min_specs(&c)),
            ("paper (l = a_i)", c.message_specs()),
            ("double (l = 2 a_i)", double_specs(&c)),
        ] {
            let sim = Sim::new(&c.net, &c.table, specs, Some(buffers)).expect("routed");
            let r = explore(&sim, &SearchConfig::default());
            row(&[
                cell(buffers, 8),
                cell(label, 22),
                cell(verdict_str(&r.verdict), 14),
                cell(r.states_explored, 10),
            ]);
        }
    }

    // Duplicate-instance adversary (Theorem 1's "more than four
    // messages" case).
    println!();
    println!("duplicate-instance adversary (extra copy of one message):");
    header(&[
        ("dup of", 8),
        ("extra len", 10),
        ("verdict", 14),
        ("states", 10),
    ]);
    for dup in 0..4 {
        for extra_len in [3usize, 8, 15] {
            let mut specs = min_specs(&c);
            let b = &c.built[dup];
            specs.push(MessageSpec::new(b.pair.0, b.pair.1, extra_len));
            let sim = Sim::new(&c.net, &c.table, specs, Some(1)).expect("routed");
            let r = explore(
                &sim,
                &SearchConfig {
                    stall_budget: 0,
                    max_states: 20_000_000,
                },
            );
            row(&[
                cell(format!("M{}", dup + 1), 8),
                cell(extra_len, 10),
                cell(verdict_str(&r.verdict), 14),
                cell(r.states_explored, 10),
            ]);
        }
    }

    // How far from deadlock? (ties into Section 6)
    let sim = Sim::new(&c.net, &c.table, c.message_specs(), Some(1)).expect("routed");
    let (min, trail) = min_stall_budget(&sim, 8, 5_000_000);
    println!();
    println!(
        "adversarial stall-cycles needed to force the deadlock: {}",
        min.map(|b| b.to_string()).unwrap_or_else(|| ">8".into())
    );
    if let Some(Verdict::DeadlockReachable(w)) = trail.last().map(|r| &r.verdict) {
        println!(
            "\nthe stall-forced deadlock, as an occupancy trace ({} stalls used):",
            w.stalls_used()
        );
        print!("{}", render_witness(&sim, &c.net, w));
    }
    println!("\npaper: deadlock-free (Theorem 1) — the cycle is a false resource cycle.");
}

fn min_specs(c: &worm_core::family::CycleConstruction) -> Vec<MessageSpec> {
    c.built
        .iter()
        .map(|b| MessageSpec::new(b.pair.0, b.pair.1, b.spec.g))
        .collect()
}

fn double_specs(c: &worm_core::family::CycleConstruction) -> Vec<MessageSpec> {
    c.built
        .iter()
        .map(|b| MessageSpec::new(b.pair.0, b.pair.1, 2 * b.spec.a()))
        .collect()
}

fn verdict_str(v: &wormsearch::Verdict) -> &'static str {
    match v {
        wormsearch::Verdict::DeadlockReachable(_) => "DEADLOCK",
        wormsearch::Verdict::DeadlockFree => "free",
        wormsearch::Verdict::Inconclusive { .. } => "inconclusive",
    }
}
