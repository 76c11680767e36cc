//! Run every experiment in sequence. Equivalent to invoking each
//! `exp_*` binary; used to regenerate EXPERIMENTS.md's raw output.
//!
//! Run with: `cargo run --release -p wormbench --bin run_all`
//!
//! With `--trace <path>` each child is run with its own `--trace`
//! pointing at a temporary file next to `<path>`, and the per-child
//! reports are aggregated into one `wormtrace-summary/1` document at
//! `<path>` (conventionally `trace_summary.json`; schema in
//! `docs/TRACING.md`).

use std::process::Command;

use wormbench::args;

const EXPERIMENTS: [&str; 11] = [
    "exp_fig1",
    "exp_adaptive",
    "exp_fig2",
    "exp_fig3",
    "exp_faults",
    "exp_lengths",
    "exp_generalized",
    "exp_montecarlo",
    "exp_multishare",
    "exp_skew",
    "exp_theorems",
];

fn main() {
    args::accept(&["--trace"], &[]);
    let summary_path = args::value_of("--trace");
    let exe = std::env::current_exe().expect("own path");
    let dir = exe.parent().expect("bin dir");
    let mut reports: Vec<(String, String)> = Vec::new();
    for name in EXPERIMENTS {
        println!("\n######## {name} ########\n");
        let mut cmd = Command::new(dir.join(name));
        let child_trace = summary_path
            .as_ref()
            .map(|p| format!("{p}.{name}.part.json"));
        if let Some(child) = &child_trace {
            cmd.args(["--trace", child]);
        }
        let status = cmd
            .status()
            .unwrap_or_else(|e| panic!("failed to run {name}: {e}"));
        assert!(status.success(), "{name} failed");
        if let Some(child) = child_trace {
            let json = std::fs::read_to_string(&child)
                .unwrap_or_else(|e| panic!("{name} left no trace at {child}: {e}"));
            let _ = std::fs::remove_file(&child);
            reports.push((name.to_string(), json));
        }
    }
    if let Some(path) = summary_path {
        let summary = wormtrace::summarize(reports.iter().map(|(n, j)| (n.as_str(), j.as_str())));
        std::fs::write(&path, summary).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("\ntrace summary written to {path}");
    }
    println!("\nall experiments completed.");
}
