//! `wormlint` — run the static lint suite over the built-in corpus.
//!
//! ```text
//! wormlint [--json] [--deny-warnings] [--scenario NAME] [--list] [--trace PATH]
//! ```
//!
//! * `--json` — emit the `wormlint/1` machine-readable report on
//!   stdout instead of the human rendering. The committed
//!   `LINT_corpus.json` snapshot is exactly `wormlint --json`.
//! * `--deny-warnings` — promote every `Warn` to `Deny` in the
//!   reports (the CI gate posture).
//! * `--scenario NAME` — restrict the run to one corpus target
//!   (e.g. `fig3_c`, `ring8_dateline`).
//! * `--list` — print the corpus target names and lint catalog.
//! * `--trace PATH` — dump `lint.*` wormtrace instrumentation as JSON.
//!
//! The exit status is the lint gate: `0` when every target matches
//! its expected verdict and exact expected code set (and shows no
//! unexpected `Deny`), `1` on drift, `2` on usage errors.

use std::process::ExitCode;

use wormbench::lintcorpus::{corpus, LintTarget};
use wormbench::{args, trace};
use wormlint::{reports_to_json, LintConfig, LintReport, Registry};

fn main() -> ExitCode {
    args::accept(
        &["--scenario", "--trace"],
        &["--json", "--deny-warnings", "--list"],
    );
    let _trace = trace::init("wormlint");
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let json = argv.iter().any(|a| a == "--json");
    let list = argv.iter().any(|a| a == "--list");
    let config = LintConfig {
        deny_warnings: argv.iter().any(|a| a == "--deny-warnings"),
        ..LintConfig::default()
    };

    let registry = Registry::with_default_lints();
    if list {
        println!("lints:");
        for lint in registry.lints() {
            println!(
                "  {} {} [{}] — {}",
                lint.code(),
                lint.name(),
                lint.default_severity(),
                lint.paper_anchor(),
            );
        }
        println!("targets:");
        for t in corpus() {
            println!("  {} (expect {})", t.name, t.expected_verdict);
        }
        return ExitCode::SUCCESS;
    }

    let mut targets = corpus();
    if let Some(name) = args::value_of("--scenario") {
        targets.retain(|t| t.name == name);
        if targets.is_empty() {
            eprintln!("wormlint: unknown scenario {name:?} (try --list)");
            return ExitCode::from(2);
        }
    }

    let runs: Vec<(&LintTarget, LintReport)> = targets
        .iter()
        .map(|t| (t, t.run(&registry, &config)))
        .collect();

    if json {
        let named: Vec<(&str, &LintReport)> =
            runs.iter().map(|(t, r)| (t.name.as_str(), r)).collect();
        print!("{}", reports_to_json(&named));
    } else {
        for (t, report) in &runs {
            println!("== {} ==", t.name);
            println!("{}", report.render());
            println!();
        }
    }

    let mut failures = Vec::new();
    for (t, report) in &runs {
        failures.extend(t.check(report));
    }
    if failures.is_empty() {
        if !json {
            println!("lint gate: {} target(s) clean", runs.len());
        }
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("wormlint: {f}");
        }
        ExitCode::FAILURE
    }
}
