//! `validate` — re-verify every paper claim against the current build
//! and print a pass/fail table. The programmatic form of
//! EXPERIMENTS.md; see `worm_core::validate`.
//!
//! Run with: `cargo run --release -p wormbench --bin validate`
//! (pass `--thorough` for the wider sweeps)

use worm_core::validate::validate_all;
use wormbench::args;

fn main() {
    args::accept(&[], &["--thorough"]);
    let thorough = std::env::args().any(|a| a == "--thorough");
    println!(
        "re-verifying the paper's claims ({} mode)...\n",
        if thorough { "thorough" } else { "fast" }
    );
    let results = validate_all(thorough);
    let mut all = true;
    for r in &results {
        println!(
            "[{}] {:7} {}",
            if r.matches { "PASS" } else { "FAIL" },
            r.id,
            r.claim
        );
        println!("              measured: {}", r.measured);
        all &= r.matches;
    }
    println!();
    if all {
        println!("all {} claims reproduce on this build.", results.len());
    } else {
        println!("SOME CLAIMS FAILED — see above.");
        std::process::exit(1);
    }
}
