//! EXP-G2 — Section 6, physical-skew variant: the Figure 1 network and
//! the `G(k)` family under randomized per-router clock skew.
//!
//! `exp_generalized` measures the *adversarial stall* threshold via
//! exhaustive search; this experiment drives the simulator with actual
//! periodic router pauses (every router misses one cycle per period at
//! a random phase) and confirms the constructions tolerate skew: all
//! messages always deliver, across periods and seeds, under the
//! adversarial arbitration policy.
//!
//! Run with: `cargo run --release -p wormbench --bin exp_skew`
//! (add `--trace <path>` to dump a wormtrace JSON report)

use rand::SeedableRng;
use worm_core::paper::{fig1, generalized};
use wormbench::report::{cell, header, row};
use wormbench::{args, trace};
use wormsim::runner::{ArbitrationPolicy, Outcome, Runner};
use wormsim::skew::SkewModel;
use wormsim::Sim;

fn main() {
    args::accept(&["--trace"], &[]);
    let _trace = trace::init("exp_skew");
    println!("EXP-G2: Figure 1 / G(k) under randomized per-router clock skew\n");
    header(&[
        ("network", 9),
        ("skew period", 12),
        ("seeds", 6),
        ("deadlocks", 10),
        ("max latency", 12),
    ]);

    let cases: Vec<(String, worm_core::family::CycleConstruction)> =
        std::iter::once(("fig1".to_string(), fig1::cyclic_dependency()))
            .chain((1..=3).map(|k| (format!("G({k})"), generalized::generalized(k))))
            .collect();

    for (name, c) in &cases {
        for period in [3u64, 5, 10] {
            let mut deadlocks = 0usize;
            let mut max_latency = 0u64;
            let seeds = 25;
            for seed in 0..seeds {
                let sim = Sim::new(&c.net, &c.table, c.message_specs(), Some(1)).expect("routed");
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let skew = SkewModel::uniform_random(&c.net, &mut rng, period);
                let mut runner = Runner::new(&sim, ArbitrationPolicy::Adversarial).with_skew(skew);
                match runner.run(100_000) {
                    Outcome::Delivered { .. } => {
                        max_latency = max_latency.max(runner.stats().max_latency().unwrap_or(0));
                    }
                    Outcome::Deadlock { .. } => deadlocks += 1,
                    Outcome::Timeout { .. } => deadlocks += 1, // count as failure
                }
            }
            row(&[
                cell(name.clone(), 9),
                cell(period, 12),
                cell(seeds, 6),
                cell(deadlocks, 10),
                cell(max_latency, 12),
            ]);
            assert_eq!(deadlocks, 0, "{name} must tolerate bounded skew");
        }
    }
    println!();
    println!("paper (Section 6): 'substantial clock skew among the routers does");
    println!("not prevent the creation of unreachable cycles' — i.e. the cycles");
    println!("stay deadlock-free under bounded skew. measured: zero deadlocks.");
}
