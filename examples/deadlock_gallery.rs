//! A gallery of shared-channel cycles: Figure 2's two-message deadlock
//! and the six Figure 3 scenarios, each decided twice — by Theorem 5's
//! eight conditions and by exhaustive search.
//!
//! Run with: `cargo run --release --example deadlock_gallery`

use cyclic_wormhole::core::conditions::eight_conditions;
use cyclic_wormhole::core::paper::{fig2, fig3};
use cyclic_wormhole::search::{explore, SearchConfig};
use cyclic_wormhole::sim::Sim;

fn main() {
    println!("== Figure 2: a channel shared by two messages (Theorem 4) ==\n");
    let c = fig2::two_message_deadlock();
    let sim = Sim::new(&c.net, &c.table, c.message_specs(), Some(1)).expect("routed");
    match explore(&sim, &SearchConfig::default()).verdict {
        cyclic_wormhole::search::Verdict::DeadlockReachable(w) => {
            println!(
                "deadlock reachable after {} cycles; members: {:?}",
                w.cycles(),
                w.members
            );
            println!("(Theorem 4: two sharers outside the cycle always deadlock)\n");
        }
        v => println!("unexpected verdict {v:?}\n"),
    }

    println!("== Figure 3: three sharers and Theorem 5's conditions ==\n");
    println!(
        "{:>8}  {:>10}  {:>18}  {:>12}  {:>12}",
        "scenario", "messages", "failing conditions", "checker", "search"
    );
    for s in fig3::all_scenarios() {
        let c = s.spec.build();
        let cycle = c.cycle();
        let segments = c.canonical_candidate().segments;
        let analysis = cyclic_wormhole::cdg::sharing::analyze(&c.net, &c.table, &cycle, &segments);
        let shared = analysis
            .shared()
            .outside()
            .find(|sc| sc.channel == c.cs)
            .expect("cs shared outside");
        let ec =
            eight_conditions(&c.net, &c.table, &cycle, &segments, shared).expect("three sharers");

        let sim = Sim::new(&c.net, &c.table, s.message_specs(&c), Some(1)).expect("routed");
        let free = explore(&sim, &SearchConfig::default()).verdict.is_free();

        let failing = ec.failing();
        println!(
            "{:>8}  {:>10}  {:>18}  {:>12}  {:>12}",
            format!("({})", s.name),
            c.built.len(),
            if failing.is_empty() {
                "none".to_string()
            } else {
                format!("{failing:?}")
            },
            if ec.unreachable() {
                "unreachable"
            } else {
                "deadlock"
            },
            if free { "unreachable" } else { "deadlock" },
        );
    }
    println!("\n(a)/(b) are false resource cycles; (c)-(f) deadlock, matching the paper.");
}
