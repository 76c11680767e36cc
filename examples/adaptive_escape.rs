//! The adaptive-routing extension: Duato's escape channels.
//!
//! Fully adaptive minimal routing deadlocks on a plain mesh; adding a
//! dimension-order escape lane makes it deadlock-free even though the
//! full dependency graph stays cyclic — the adaptive mirror of the
//! paper's oblivious result, and the direction its conclusion points
//! to ("apply these techniques ... with adaptive routing").
//!
//! Run with: `cargo run --release --example adaptive_escape`

use cyclic_wormhole::cdg::adaptive::AdaptiveCdg;
use cyclic_wormhole::net::topology::Mesh;
use cyclic_wormhole::route::adaptive::{duato_mesh, fully_adaptive_minimal};
use cyclic_wormhole::search::adaptive::{explore_adaptive, AdaptiveVerdict};
use cyclic_wormhole::sim::adaptive::AdaptiveSim;
use cyclic_wormhole::sim::MessageSpec;

fn rotation(mesh: &Mesh) -> Vec<MessageSpec> {
    vec![
        MessageSpec::new(mesh.node(&[0, 0]), mesh.node(&[1, 1]), 3),
        MessageSpec::new(mesh.node(&[1, 0]), mesh.node(&[0, 1]), 3),
        MessageSpec::new(mesh.node(&[1, 1]), mesh.node(&[0, 0]), 3),
        MessageSpec::new(mesh.node(&[0, 1]), mesh.node(&[1, 0]), 3),
    ]
}

fn main() {
    println!("== Fully adaptive minimal routing, single lane ==");
    let mesh = Mesh::new(&[2, 2]);
    let routing = fully_adaptive_minimal(&mesh);
    let cdg = AdaptiveCdg::build(mesh.network(), &routing);
    println!(
        "extended CDG: {} edges, acyclic: {}",
        cdg.edge_count(),
        cdg.is_acyclic()
    );
    let sim = AdaptiveSim::new(mesh.network(), routing, rotation(&mesh)).expect("routed");
    match explore_adaptive(&sim, 10_000_000).verdict {
        AdaptiveVerdict::DeadlockReachable { members, decisions } => println!(
            "search: DEADLOCK — knot of {} messages after {} cycles\n",
            members.len(),
            decisions.len()
        ),
        v => println!("search: {v:?}\n"),
    }

    println!("== Duato: same adaptivity + dimension-order escape lane ==");
    let mesh2 = Mesh::with_vcs(&[2, 2], 2);
    let routing2 = duato_mesh(&mesh2);
    let cdg2 = AdaptiveCdg::build(mesh2.network(), &routing2);
    let net = mesh2.network();
    let escape = cdg2.restricted_to(|c| net.channel(c).vc() == 0);
    println!(
        "extended CDG: {} edges, acyclic: {}; escape subnetwork acyclic: {}",
        cdg2.edge_count(),
        cdg2.is_acyclic(),
        escape.is_acyclic()
    );
    let sim2 = AdaptiveSim::new(mesh2.network(), routing2, rotation(&mesh2)).expect("routed");
    let result = explore_adaptive(&sim2, 30_000_000);
    match result.verdict {
        AdaptiveVerdict::DeadlockFree => println!(
            "search: DEADLOCK-FREE across all {} reachable states —\n\
             cyclic dependencies, no deadlock: Duato's theorem, observed.",
            result.states_explored
        ),
        v => println!("search: {v:?}"),
    }
}
