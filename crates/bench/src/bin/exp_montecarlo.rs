//! EXP-MC — Monte Carlo deadlock probability.
//!
//! The paper motivates the whole line of work by noting that deadlock
//! hinges on "unlikely situations" a proof technique must still
//! recognize. This experiment quantifies *how* unlikely: for each
//! construction, draw random injection times and run each arbitration
//! policy, counting how often the network actually deadlocks.
//!
//! Expected shape: Figure 1 and G(k) deadlock in **zero** runs (they
//! cannot); Figure 2 and the deadlockable Figure 3 scenarios deadlock
//! in a small but nonzero fraction — the deadlock needs the right
//! relative timing through the shared channel, which random traffic
//! only occasionally produces (adversarial arbitration raises the
//! rate).
//!
//! Run with: `cargo run --release -p wormbench --bin exp_montecarlo`
//! (add `--trace <path>` to dump a wormtrace JSON report)

use rand::{RngExt, SeedableRng};
use worm_core::paper::{fig1, fig2, fig3, generalized};
use wormbench::report::{cell, header, row};
use wormbench::{args, trace};
use wormsim::runner::{ArbitrationPolicy, Outcome, Runner};
use wormsim::{MessageSpec, Sim};

const RUNS: u64 = 400;
const HORIZON: u64 = 12;

/// (label, construction, paper-unreachable?, adversary extras).
type Case = (
    String,
    worm_core::family::CycleConstruction,
    bool,
    &'static [(usize, usize)],
);

fn deadlock_rate(
    net: &wormnet::Network,
    table: &wormroute::TableRouting,
    base: &[MessageSpec],
    policy: ArbitrationPolicy,
    seed0: u64,
) -> (f64, u64) {
    let mut deadlocks = 0u64;
    for seed in 0..RUNS {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed0 ^ seed);
        let specs: Vec<MessageSpec> = base
            .iter()
            .map(|s| MessageSpec::new(s.src, s.dst, s.length).at(rng.random_range(0..HORIZON)))
            .collect();
        let sim = Sim::new(net, table, specs, Some(1)).expect("routed");
        let mut runner = Runner::new(&sim, policy.clone());
        if matches!(runner.run(100_000), Outcome::Deadlock { .. }) {
            deadlocks += 1;
        }
    }
    (deadlocks as f64 / RUNS as f64, deadlocks)
}

fn main() {
    args::accept(&["--trace"], &[]);
    let _trace = trace::init("exp_montecarlo");
    println!(
        "EXP-MC: Monte Carlo deadlock probability ({RUNS} runs, random inject times in 0..{HORIZON})\n"
    );
    header(&[
        ("network", 10),
        ("policy", 12),
        ("deadlocks", 10),
        ("rate", 8),
        ("search verdict", 15),
    ]);

    let mut cases: Vec<Case> = vec![
        ("fig1".into(), fig1::cyclic_dependency(), true, &[]),
        ("G(2)".into(), generalized::generalized(2), true, &[]),
        ("fig2".into(), fig2::two_message_deadlock(), false, &[]),
    ];
    for s in fig3::all_scenarios() {
        cases.push((
            format!("fig3({})", s.name),
            s.spec.build(),
            s.paper_unreachable,
            s.extras,
        ));
    }

    for (name, c, unreachable, extras) in &cases {
        // Minimum lengths plus any scenario extras (the adversary's
        // helpers participate in random traffic too).
        let mut base: Vec<MessageSpec> = c
            .built
            .iter()
            .map(|b| MessageSpec::new(b.pair.0, b.pair.1, b.spec.g))
            .collect();
        for &(idx, len) in *extras {
            let b = &c.built[idx];
            base.push(MessageSpec::new(b.pair.0, b.pair.1, len));
        }
        for (pname, policy) in [
            ("oldest", ArbitrationPolicy::OldestFirst),
            ("adversarial", ArbitrationPolicy::Adversarial),
        ] {
            let (rate, count) = deadlock_rate(&c.net, &c.table, &base, policy, 0xAB5E_u64);
            row(&[
                cell(name.clone(), 10),
                cell(pname, 12),
                cell(count, 10),
                cell(format!("{:.1}%", rate * 100.0), 8),
                cell(
                    if *unreachable {
                        "unreachable"
                    } else {
                        "deadlock"
                    },
                    15,
                ),
            ]);
            if *unreachable {
                assert_eq!(count, 0, "{name} must never deadlock");
            }
        }
    }
    println!();
    println!("unreachable constructions: zero deadlocks in every run (as proven);");
    println!("deadlockable ones deadlock only when random timing recreates the");
    println!("schedule — the 'unlikely situations' the paper's proofs must cover.");
}
