//! Headless benchmark harness: runs the named scenario suites and
//! writes the committed `wormbench/1` baselines.
//!
//! ```text
//! bench_report [--suite search|sim|serve|all] [--smoke] [--out-dir DIR]
//! ```
//!
//! * `--suite` — which suite(s) to run (default `all`).
//! * `--smoke` — cap every workload to a tiny budget so the whole run
//!   finishes in seconds; used by CI to validate the harness. Smoke
//!   results are printed but **not** written unless `--out-dir` is
//!   given explicitly (smoke numbers must never overwrite baselines).
//! * `--out-dir` — where to write `BENCH_search.json`,
//!   `BENCH_sim.json` and `BENCH_serve.json` (default: the current
//!   directory; full runs regenerate the repo-root baselines when run
//!   from the repo root).
//!
//! See `docs/PERFORMANCE.md` for the schema and the regeneration
//! workflow.

use wormbench::args;
use wormbench::bench_report::{run_search_suite, run_serve_suite, run_sim_suite, BenchReport};

fn write_or_print(report: &BenchReport, out_dir: Option<&str>, smoke: bool) {
    let json = report.to_json();
    match out_dir {
        None if smoke => {
            println!("--- BENCH_{}.json (smoke, not written) ---", report.suite);
            print!("{json}");
        }
        dir => {
            let dir = dir.unwrap_or(".");
            let path = format!("{dir}/BENCH_{}.json", report.suite);
            std::fs::create_dir_all(dir).unwrap_or_else(|e| {
                eprintln!("bench_report: cannot create {dir}: {e}");
                std::process::exit(1);
            });
            std::fs::write(&path, json).unwrap_or_else(|e| {
                eprintln!("bench_report: cannot write {path}: {e}");
                std::process::exit(1);
            });
            println!("wrote {path} ({} entries)", report.entries.len());
        }
    }
}

fn main() {
    args::accept(&["--suite", "--out-dir"], &["--smoke"]);
    let smoke = std::env::args().any(|a| a == "--smoke");
    let suite = args::value_of("--suite").unwrap_or_else(|| "all".into());
    let out_dir = args::value_of("--out-dir");
    let out_dir = out_dir.as_deref();
    if !matches!(suite.as_str(), "search" | "sim" | "serve" | "all") {
        eprintln!("bench_report: unknown suite {suite:?} (expected search, sim, serve, or all)");
        std::process::exit(2);
    }
    if suite == "search" || suite == "all" {
        write_or_print(&run_search_suite(smoke), out_dir, smoke);
    }
    if suite == "sim" || suite == "all" {
        write_or_print(&run_sim_suite(smoke), out_dir, smoke);
    }
    if suite == "serve" || suite == "all" {
        write_or_print(&run_serve_suite(smoke), out_dir, smoke);
    }
}
