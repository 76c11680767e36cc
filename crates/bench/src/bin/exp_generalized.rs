//! EXP-G1 — Section 6: the generalized family `G(k)` and skew
//! tolerance.
//!
//! Regenerates: the series `k → minimum adversarial stall budget`
//! that quantifies the paper's claim "a network configuration can be
//! constructed requiring any amount of extra delay before deadlock can
//! occur".
//!
//! Run with: `cargo run --release -p wormbench --bin exp_generalized`
//! (add `--trace <path>` to dump a wormtrace JSON report)

use worm_core::paper::generalized;
use wormbench::report::{cell, header, row};
use wormbench::{args, trace};
use wormsearch::{explore, min_stall_budget, SearchConfig};
use wormsim::Sim;

fn main() {
    args::accept(&["--trace"], &[]);
    let _trace = trace::init("exp_generalized");
    println!("EXP-G1: Section 6 — G(k) requires >= k extra delay for deadlock\n");
    header(&[
        ("k", 4),
        ("ring", 6),
        ("no-stall verdict", 17),
        ("min stalls", 11),
        ("paper bound", 12),
        ("states", 10),
    ]);
    for k in 1..=5usize {
        let c = generalized::generalized(k);
        let sim = Sim::new(
            &c.net,
            &c.table,
            generalized::minimum_length_specs(&c),
            Some(1),
        )
        .expect("routed");
        let base = explore(&sim, &SearchConfig::default());
        let (min, trail) = min_stall_budget(&sim, (k + 4) as u32, 8_000_000);
        let last = trail.last().expect("at least one budget scanned");
        println!("  k={k} search: {}", last.metrics.summary());
        row(&[
            cell(k, 4),
            cell(c.ring.len(), 6),
            cell(
                if base.verdict.is_free() {
                    "free"
                } else {
                    "DEADLOCK"
                },
                17,
            ),
            cell(
                min.map(|b| b.to_string())
                    .unwrap_or_else(|| "> budget".into()),
                11,
            ),
            cell(format!(">= {k}"), 12),
            cell(trail.iter().map(|r| r.states_explored).sum::<usize>(), 10),
        ]);
    }
    println!();
    println!("paper: the required delay grows without bound in k, so bounded");
    println!("clock skew cannot create the deadlock. measured: min stalls = k+1");
    println!("(the +1 is this router model's header-acquisition margin).");
}
