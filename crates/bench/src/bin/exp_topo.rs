//! EXP-TOPO — cluster-scale static verification: certify (or refute)
//! deadlock freedom on fabrics of ~10^5 channels in seconds, with no
//! reachability search.
//!
//! Four workloads, the `topo_*` scenarios of the search suite:
//!
//! * dragonfly (41 groups × 40 routers) under minimal VC-ordered
//!   routing — certified `free-acyclic` (W208 lane-monotone numbering);
//! * 48-ary fat-tree under up*/down* — certified `free-acyclic`
//!   (W209 down/up numbering), zero virtual channels;
//! * 330-node full mesh under the VC-free even/odd detour scheme —
//!   certified `free-acyclic` (W209), also without virtual channels;
//! * a 41×40 dragonfly with every lane collapsed to 0 — **refuted**:
//!   the engine is a node function, so by Corollary 1 its cyclic CDG
//!   is a real deadlock, found by the same batch acyclicity pass.
//!
//! Each row reports the batch CDG build, the Kahn acyclicity decision
//! over the finished graph (`acyclic_ms`), a bounded cycle-streaming
//! probe, `worm_core::classify`, and the `wormlint` verdict.
//!
//! Run with: `cargo run --release -p wormbench --bin exp_topo`
//! (`--smoke` swaps in the downscaled instances CI exercises;
//! `--trace <path>` dumps wormtrace JSON)

use wormbench::bench_report::{run_topo_suite, BenchValue};
use wormbench::report::{cell, header, row};
use wormbench::{args, trace};

fn get(values: &std::collections::BTreeMap<String, BenchValue>, key: &str) -> String {
    match values.get(key).expect("topo entries carry a fixed key set") {
        BenchValue::Str(s) => s.clone(),
        other => other.to_string(),
    }
}

fn main() {
    args::accept(&["--trace"], &["--smoke"]);
    let _trace = trace::init("exp_topo");
    let smoke = std::env::args().any(|a| a == "--smoke");
    println!(
        "EXP-TOPO: cluster-scale static verification ({} instances)",
        if smoke { "smoke" } else { "full" },
    );
    println!();
    let report = run_topo_suite(smoke);
    let widths = [22, 10, 10, 9, 11, 12, 9, 14, 14];
    header(&[
        ("scenario", widths[0]),
        ("channels", widths[1]),
        ("cdg_edges", widths[2]),
        ("build_ms", widths[3]),
        ("acyclic_ms", widths[4]),
        ("cycles<=8", widths[5]),
        ("cls_ms", widths[6]),
        ("classify", widths[7]),
        ("wormlint", widths[8]),
    ]);
    for (name, values) in &report.entries {
        row(&[
            cell(name, widths[0]),
            cell(get(values, "channels"), widths[1]),
            cell(get(values, "cdg_edges"), widths[2]),
            cell(get(values, "cdg_build_ms"), widths[3]),
            cell(get(values, "acyclic_ms"), widths[4]),
            cell(get(values, "cycles_found"), widths[5]),
            cell(get(values, "classify_ms"), widths[6]),
            cell(get(values, "verdict"), widths[7]),
            cell(get(values, "lint_verdict"), widths[8]),
        ]);
    }
    println!();
    println!("every verdict above is certified: the free fabrics carry a");
    println!("Dally-Seitz numbering (W208/W209), the no-VC dragonfly a");
    println!("Corollary 1 refutation (node function + cyclic CDG).");
}
