//! EXP-F3 — Figure 3 / Theorem 5: the six three-sharer scenarios.
//!
//! Regenerates: per scenario, the message geometry (`d_i`, `a_i`,
//! segment sizes), the per-condition outcomes of Theorem 5's
//! eight-condition checker, the checker verdict, the exhaustive-search
//! verdict, and the paper's verdict.
//!
//! Run with: `cargo run --release -p wormbench --bin exp_fig3`
//! (add `--threads N` to pin the search worker count; default: all
//! cores, and `--trace <path>` to dump a wormtrace JSON report)

use worm_core::conditions::eight_conditions;
use worm_core::paper::fig3;
use wormbench::report::{cell, header, row};
use wormbench::{args, trace};
use wormcdg::sharing;
use wormsearch::{explore_parallel, SearchConfig};
use wormsim::Sim;

fn main() {
    args::accept(&["--trace", "--threads"], &[]);
    let _trace = trace::init("exp_fig3");
    let threads = args::threads(0);
    println!("EXP-F3: Figure 3 / Theorem 5 — three messages sharing a channel\n");
    header(&[
        ("scenario", 8),
        ("msgs", 5),
        ("conditions 1-8", 26),
        ("checker", 12),
        ("search", 12),
        ("paper", 12),
        ("match", 6),
    ]);
    let mut all_match = true;
    let mut search_lines: Vec<String> = Vec::new();
    for s in fig3::all_scenarios() {
        let c = s.spec.build();
        let cycle = c.cycle();
        let candidate = c.canonical_candidate();
        let analysis = sharing::analyze(&c.net, &c.table, &cycle, &candidate);
        let shared = analysis
            .outside()
            .find(|sc| sc.channel == c.cs)
            .expect("cs shared outside");
        let ec =
            eight_conditions(&c.net, &c.table, &cycle, &candidate, shared).expect("three sharers");

        let sim = Sim::new(&c.net, &c.table, s.message_specs(&c), Some(1)).expect("routed");
        let search = explore_parallel(&sim, &SearchConfig::default(), threads);
        search_lines.push(format!("({}) {}", s.name, search.metrics.summary()));
        let free = search.verdict.is_free();

        let conds: String = ec
            .conditions
            .iter()
            .enumerate()
            .map(|(i, &ok)| if ok { ' ' } else { char::from(b'1' + i as u8) })
            .filter(|&ch| ch != ' ')
            .flat_map(|ch| [ch, ' '])
            .collect();
        let conds = if conds.is_empty() {
            "all hold".to_string()
        } else {
            format!("fail: {}", conds.trim_end())
        };
        let verdict = |unreachable: bool| {
            if unreachable {
                "unreachable"
            } else {
                "deadlock"
            }
        };
        let matches = ec.unreachable() == s.paper_unreachable && free == s.paper_unreachable;
        all_match &= matches;
        row(&[
            cell(format!("({})", s.name), 8),
            cell(c.built.len(), 5),
            cell(conds, 26),
            cell(verdict(ec.unreachable()), 12),
            cell(verdict(free), 12),
            cell(verdict(s.paper_unreachable), 12),
            cell(if matches { "yes" } else { "NO" }, 6),
        ]);
    }
    println!();
    println!("search metrics (parallel engine):");
    for line in &search_lines {
        println!("  {line}");
    }
    println!();
    // Per-message geometry detail.
    for s in fig3::all_scenarios() {
        let c = s.spec.build();
        let cycle = c.cycle();
        print!("({}): ", s.name);
        let parts: Vec<String> = c
            .built
            .iter()
            .map(|b| {
                let g = sharing::geometry(&c.net, &c.table, &cycle, b.pair, Some(c.cs));
                format!(
                    "{}(d={}, a={}, g={})",
                    if b.spec.uses_shared { "S" } else { "P" },
                    g.d.map(|d| d.to_string()).unwrap_or_else(|| "-".into()),
                    g.a,
                    b.spec.g
                )
            })
            .collect();
        println!("{}", parts.join("  "));
        if !s.extras.is_empty() {
            println!("     adversary extras: {:?} (index, length)", s.extras);
        }
    }
    println!(
        "\nall verdicts match the paper: {}",
        if all_match { "YES" } else { "NO" }
    );
}
