//! EXP-A1 — the adaptive-routing extension (paper Sections 2 and 7):
//! Duato's fact that an acyclic CDG is not necessary for deadlock-free
//! **adaptive** routing, machine-checked with the adaptive engine.
//!
//! * fully adaptive minimal routing on a single-lane mesh: cyclic
//!   extended CDG and a **reachable** deadlock (knot witness found);
//! * Duato's escape-channel construction on a two-lane mesh: the full
//!   extended CDG is still cyclic, the escape subnetwork is acyclic,
//!   and **no schedule deadlocks** (exhaustive).
//!
//! This is the adaptive analogue of the paper's oblivious result, and
//! the direction its conclusion marks as future work.
//!
//! Run with: `cargo run --release -p wormbench --bin exp_adaptive`
//! (add `--trace <path>` to dump a wormtrace JSON report)

use wormbench::report::{cell, header, row};
use wormbench::{args, trace};
use wormcdg::adaptive::AdaptiveCdg;
use wormnet::topology::Mesh;
use wormroute::adaptive::{
    duato_mesh, fully_adaptive_minimal, west_first_adaptive, AdaptiveRouting,
};
use wormsearch::adaptive::{explore_adaptive, AdaptiveVerdict};
use wormsim::adaptive::AdaptiveSim;
use wormsim::MessageSpec;

fn corner_rotation(mesh: &Mesh, length: usize) -> Vec<MessageSpec> {
    vec![
        MessageSpec::new(mesh.node(&[0, 0]), mesh.node(&[1, 1]), length),
        MessageSpec::new(mesh.node(&[1, 0]), mesh.node(&[0, 1]), length),
        MessageSpec::new(mesh.node(&[1, 1]), mesh.node(&[0, 0]), length),
        MessageSpec::new(mesh.node(&[0, 1]), mesh.node(&[1, 0]), length),
    ]
}

fn analyze(name: &str, mesh: &Mesh, routing: AdaptiveRouting) {
    routing
        .validate(mesh.network())
        .expect("connected relation");
    let cdg = AdaptiveCdg::build(mesh.network(), &routing);
    let net = mesh.network();
    let escape_acyclic = if mesh.vcs() >= 2 {
        cdg.restricted_to(|c| net.channel(c).vc() == 0)
            .is_acyclic()
            .to_string()
    } else {
        "n/a".to_string()
    };

    // Exhaustive verdict on the 2x2 corner-rotation workload, using
    // the same flavour of relation on the smaller mesh.
    let small = if mesh.vcs() >= 2 {
        Mesh::with_vcs(&[2, 2], mesh.vcs())
    } else {
        Mesh::new(&[2, 2])
    };
    let small_routing = if mesh.vcs() >= 2 {
        duato_mesh(&small)
    } else if name.contains("west") {
        west_first_adaptive(&small)
    } else {
        fully_adaptive_minimal(&small)
    };
    let sim = AdaptiveSim::new(small.network(), small_routing, corner_rotation(&small, 3))
        .expect("routed");
    let result = explore_adaptive(&sim, 30_000_000);
    let verdict = match &result.verdict {
        AdaptiveVerdict::DeadlockReachable { members, .. } => {
            format!("DEADLOCK (knot of {})", members.len())
        }
        AdaptiveVerdict::DeadlockFree => "free".to_string(),
        AdaptiveVerdict::Inconclusive { .. } => "inconclusive".to_string(),
    };

    row(&[
        cell(name, 24),
        cell(format!("{:.2}", routing.mean_options()), 12),
        cell(
            if cdg.is_acyclic() {
                "acyclic"
            } else {
                "cyclic"
            },
            9,
        ),
        cell(escape_acyclic, 15),
        cell(verdict, 22),
        cell(result.states_explored, 10),
    ]);
}

fn main() {
    args::accept(&["--trace"], &[]);
    let _trace = trace::init("exp_adaptive");
    println!("EXP-A1: adaptive routing — acyclic CDG not necessary (Duato)\n");
    header(&[
        ("algorithm (3x3 mesh)", 24),
        ("adaptivity", 12),
        ("full CDG", 9),
        ("escape acyclic", 15),
        ("search on 2x2 rotation", 22),
        ("states", 10),
    ]);
    analyze(
        "fully adaptive, 1 lane",
        &Mesh::new(&[3, 3]),
        fully_adaptive_minimal(&Mesh::new(&[3, 3])),
    );
    analyze(
        "west-first adaptive",
        &Mesh::new(&[3, 3]),
        west_first_adaptive(&Mesh::new(&[3, 3])),
    );
    analyze(
        "Duato: adaptive + escape",
        &Mesh::with_vcs(&[3, 3], 2),
        duato_mesh(&Mesh::with_vcs(&[3, 3], 2)),
    );
    println!();
    println!("paper (Section 2): Duato proved an acyclic CDG unnecessary for");
    println!("adaptive routing; the paper then established the same for oblivious");
    println!("routing. measured: the adaptive engine reproduces Duato's side —");
    println!("cyclic full CDG, acyclic escape subnetwork, zero reachable deadlocks;");
    println!("and without the escape lane the same workload deadlocks.");
}
