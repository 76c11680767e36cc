//! The paper's headline construction, end to end: an oblivious routing
//! algorithm whose channel dependency graph is *cyclic* and yet is
//! deadlock-free — because its one cycle is an unreachable
//! configuration ("false resource cycle").
//!
//! Run with: `cargo run --release --example cyclic_dependency`

use cyclic_wormhole::cdg::{deadlock_candidates, describe_candidate, sharing};
use cyclic_wormhole::core::paper::fig1;
use cyclic_wormhole::route::properties;
use cyclic_wormhole::search::{explore, min_stall_budget, SearchConfig};
use cyclic_wormhole::sim::Sim;

fn main() {
    let c = fig1::cyclic_dependency();
    println!("== The Cyclic Dependency routing algorithm (Figure 1) ==\n");
    println!(
        "network: {} nodes, {} channels; shared channel c_s = {}",
        c.net.node_count(),
        c.net.channel_count(),
        c.net.channel(c.cs)
    );

    // The four special messages and their paths.
    for (i, b) in c.built.iter().enumerate() {
        let path = c.table.path(b.pair.0, b.pair.1).expect("routed");
        println!(
            "M{}: {}   (d={}, holds {} cycle channels, length {})",
            i + 1,
            path.describe(&c.net),
            b.spec.d,
            b.spec.g,
            b.length()
        );
    }

    let report = properties::analyze(&c.net, &c.table);
    println!(
        "\nproperties: total={} minimal={} suffix-closed={} coherent={}",
        report.total, report.minimal, report.suffix_closed, report.coherent
    );
    println!("(non-coherence is required: Corollaries 2-3 forbid false resource");
    println!(" cycles for suffix-closed/coherent oblivious algorithms)\n");

    // Static analysis: the CDG has a cycle with a legal deadlock
    // configuration.
    let cdg = c.cdg();
    let cycle = c.cycle();
    println!(
        "CDG: {} dependencies, acyclic: {} -> Dally-Seitz does NOT apply",
        cdg.edge_count(),
        cdg.is_acyclic()
    );
    println!("cycle: {}", cycle.describe(&c.net));
    let cands = deadlock_candidates(&c.table, &cycle, 1000).expect("bounded");
    println!("\nstatic deadlock configuration (Definition 6):");
    println!("  {}", describe_candidate(&c.net, &cycle, &cands[0]));

    let analysis = sharing::analyze(&c.net, &c.table, &cycle, &cands[0]);
    for s in analysis.shared().outside() {
        println!(
            "  shared OUTSIDE the cycle: {} used by {} messages",
            c.net.channel(s.channel),
            s.users.len()
        );
    }

    // Dynamic analysis: exhaustive search over every injection order
    // and arbitration outcome.
    println!("\nexhaustive reachability search (all schedules, 1-flit buffers):");
    let sim = Sim::new(&c.net, &c.table, c.message_specs(), Some(1)).expect("routed");
    let result = explore(&sim, &SearchConfig::default());
    println!(
        "  verdict: {} ({} states explored)",
        if result.verdict.is_free() {
            "DEADLOCK-FREE — the cycle is an unreachable configuration"
        } else {
            "deadlock found (unexpected!)"
        },
        result.states_explored
    );

    // How much extra adversarial power would deadlock need?
    let (min, _) = min_stall_budget(&sim, 8, 2_000_000);
    match min {
        Some(b) => println!(
            "  an adversary able to freeze messages needs {b} stall-cycles\n  \
             to force the deadlock — confirming the static configuration is\n  \
             legal but unreachable by normal routing."
        ),
        None => println!("  not even 8 adversarial stalls force it."),
    }
}
