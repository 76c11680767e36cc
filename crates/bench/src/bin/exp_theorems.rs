//! EXP-T25 — Section 5's structural results validated on an algorithm
//! corpus:
//!
//! * **Corollaries 1–3** (suffix-closed / coherent oblivious routing
//!   has no unreachable configurations): clockwise ring routing is
//!   coherent and cyclic — every one of its cycles must be a reachable
//!   deadlock, and the search confirms it for each ring size.
//! * **Theorem 2** (shared channels inside the cycle don't help):
//!   overlapping-reach constructions whose candidates share only
//!   inside the cycle all deadlock.
//! * **Theorem 3** (minimal routing): random *minimal* oblivious
//!   algorithms never produce a false resource cycle — every cyclic
//!   one is deadlockable.
//! * **Baselines**: the classic deadlock-free algorithms all have
//!   acyclic CDGs (Dally–Seitz), while the paper's construction is the
//!   only deadlock-free *cyclic* one.
//!
//! Run with: `cargo run --release -p wormbench --bin exp_theorems`
//! (add `--trace <path>` to dump a wormtrace JSON report)

use rand::SeedableRng;
use worm_core::classify::{classify_algorithm, AlgorithmVerdict, ClassifyOptions};
use worm_core::family::{CycleMessageSpec, SharedCycleSpec};
use wormbench::report::{cell, header, row};
use wormbench::{args, trace};
use wormcdg::Cdg;
use wormnet::topology::{ring_unidirectional, ring_with_vcs, Hypercube, Mesh, Torus};
use wormroute::algorithms::{
    clockwise_ring, dateline_ring, dateline_torus, dimension_order, ecube, negative_first,
    random_table, random_tree_routing, valiant_mesh, west_first,
};
use wormroute::properties;

fn verdict_name(v: &AlgorithmVerdict) -> &'static str {
    match v {
        AlgorithmVerdict::DeadlockFreeAcyclic { .. } => "free (acyclic CDG)",
        AlgorithmVerdict::DeadlockFreeWithCycles { .. } => "FREE WITH CYCLES",
        AlgorithmVerdict::Deadlockable { .. } => "deadlockable",
        AlgorithmVerdict::Unknown { .. } => "unknown",
    }
}

fn main() {
    args::accept(&["--trace"], &[]);
    let _trace = trace::init("exp_theorems");
    let opts = ClassifyOptions::default();

    println!("EXP-T25 (1/4): baseline deadlock-free algorithms (Dally-Seitz)\n");
    header(&[
        ("algorithm", 26),
        ("coherent", 9),
        ("cdg", 8),
        ("verdict", 20),
    ]);
    {
        let mesh = Mesh::new(&[4, 4]);
        baseline_row(
            "XY on 4x4 mesh",
            mesh.network(),
            &dimension_order(&mesh).unwrap(),
            &opts,
        );
        let mesh3 = Mesh::new(&[3, 3, 2]);
        baseline_row(
            "DOR on 3x3x2 mesh",
            mesh3.network(),
            &dimension_order(&mesh3).unwrap(),
            &opts,
        );
        let cube = Hypercube::new(3);
        baseline_row(
            "e-cube on H3",
            cube.network(),
            &ecube(&cube).unwrap(),
            &opts,
        );
        let (net, nodes) = ring_with_vcs(6, 2);
        baseline_row(
            "dateline ring 6",
            &net,
            &dateline_ring(&net, &nodes).unwrap(),
            &opts,
        );
        let torus = Torus::new(&[3, 3], 2);
        baseline_row(
            "dateline torus 3x3",
            torus.network(),
            &dateline_torus(&torus).unwrap(),
            &opts,
        );
        let mesh = Mesh::new(&[4, 3]);
        baseline_row(
            "west-first 4x3",
            mesh.network(),
            &west_first(&mesh).unwrap(),
            &opts,
        );
        baseline_row(
            "negative-first 4x3",
            mesh.network(),
            &negative_first(&mesh).unwrap(),
            &opts,
        );
        let vmesh = Mesh::with_vcs(&[3, 3], 2);
        baseline_row(
            "Valiant 3x3 (2 lanes)",
            vmesh.network(),
            &valiant_mesh(&vmesh).unwrap(),
            &opts,
        );
    }

    println!("\nEXP-T25 (2/4): Corollaries 1-3 — coherent + cyclic => deadlockable\n");
    header(&[
        ("ring size", 10),
        ("coherent", 9),
        ("cycles", 7),
        ("verdict", 20),
    ]);
    for n in 3..=6 {
        let (net, nodes) = ring_unidirectional(n);
        let table = clockwise_ring(&net, &nodes).unwrap();
        assert!(properties::is_coherent(&net, &table));
        let cdg = Cdg::build(&net, &table);
        let verdict = classify_algorithm(&net, &table, &opts);
        row(&[
            cell(n, 10),
            cell("yes", 9),
            cell(cdg.cycles().len(), 7),
            cell(verdict_name(&verdict), 20),
        ]);
        assert!(
            matches!(verdict, AlgorithmVerdict::Deadlockable { .. }),
            "a coherent cyclic algorithm must deadlock (Corollary 3)"
        );
    }

    println!("\nEXP-T25 (2b/4): Corollary 1 — random N x N -> C corpus\n");
    {
        // Destination-rooted random in-trees are node functions
        // (R : N x N -> C). Corollary 1: none of their cycles can be
        // unreachable, so a cyclic instance is always deadlockable.
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0DE);
        let mut acyclic = 0usize;
        let mut deadlockable = 0usize;
        let mut violations = 0usize;
        let trials = 25;
        for _ in 0..trials {
            let mesh = Mesh::new(&[3, 2]);
            let table = random_tree_routing(mesh.network(), &mut rng).unwrap();
            assert!(properties::is_node_function(mesh.network(), &table));
            match classify_algorithm(mesh.network(), &table, &opts) {
                AlgorithmVerdict::DeadlockFreeAcyclic { .. } => acyclic += 1,
                AlgorithmVerdict::Deadlockable { .. } => deadlockable += 1,
                AlgorithmVerdict::DeadlockFreeWithCycles { .. } => violations += 1,
                AlgorithmVerdict::Unknown { .. } => {}
            }
        }
        println!(
            "{trials} random in-tree algorithms on a 3x2 mesh: \
             {acyclic} acyclic, {deadlockable} deadlockable, {violations} free-with-cycles"
        );
        assert_eq!(
            violations, 0,
            "Corollary 1: no false resource cycles in N x N -> C"
        );
    }

    println!("\nEXP-T25 (3/4): Theorem 2 — inside-only sharing => deadlockable\n");
    header(&[("construction", 24), ("verdict", 20)]);
    for (name, spec) in [
        (
            "2 msgs, reach 2 overlap",
            SharedCycleSpec {
                messages: vec![
                    CycleMessageSpec::private(1, 3, 2),
                    CycleMessageSpec::private(1, 3, 2),
                ],
            },
        ),
        (
            "3 msgs, reach 2 overlap",
            SharedCycleSpec {
                messages: vec![
                    CycleMessageSpec::private(1, 2, 2),
                    CycleMessageSpec::private(1, 2, 2),
                    CycleMessageSpec::private(1, 2, 2),
                ],
            },
        ),
    ] {
        let c = spec.build();
        let verdict = classify_algorithm(&c.net, &c.table, &opts);
        row(&[cell(name, 24), cell(verdict_name(&verdict), 20)]);
        assert!(
            matches!(verdict, AlgorithmVerdict::Deadlockable { .. }),
            "inside-only sharing must be reachable (Theorem 2)"
        );
    }

    println!("\nEXP-T25 (4/4): Theorem 3 — random minimal oblivious corpus\n");
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED);
    let mut acyclic = 0usize;
    let mut deadlockable = 0usize;
    let mut free_with_cycles = 0usize;
    let mut unknown = 0usize;
    let trials = 40;
    for _ in 0..trials {
        let mesh = Mesh::new(&[3, 2]);
        let table = random_table(mesh.network(), &mut rng, 0).unwrap();
        assert!(properties::is_minimal(mesh.network(), &table));
        match classify_algorithm(mesh.network(), &table, &opts) {
            AlgorithmVerdict::DeadlockFreeAcyclic { .. } => acyclic += 1,
            AlgorithmVerdict::Deadlockable { .. } => deadlockable += 1,
            AlgorithmVerdict::DeadlockFreeWithCycles { .. } => free_with_cycles += 1,
            AlgorithmVerdict::Unknown { .. } => unknown += 1,
        }
    }
    println!(
        "{trials} random minimal algorithms on a 3x2 mesh: \
         {acyclic} acyclic, {deadlockable} deadlockable, \
         {free_with_cycles} free-with-cycles, {unknown} unknown"
    );
    assert_eq!(
        free_with_cycles, 0,
        "Theorem 3: minimal oblivious routing should not exhibit the paper's phenomenon here"
    );
    println!("\npaper: false resource cycles need non-minimal, non-coherent routing;");
    println!("the Cyclic Dependency algorithm is the only deadlock-free cyclic one.");
}

fn baseline_row(
    name: &str,
    net: &wormnet::Network,
    table: &wormroute::TableRouting,
    opts: &ClassifyOptions,
) {
    let coherent = properties::is_coherent(net, table);
    let cdg = Cdg::build(net, table);
    let verdict = classify_algorithm(net, table, opts);
    row(&[
        cell(name, 26),
        cell(if coherent { "yes" } else { "no" }, 9),
        cell(
            if cdg.is_acyclic() {
                "acyclic"
            } else {
                "cyclic"
            },
            8,
        ),
        cell(verdict_name(&verdict), 20),
    ]);
    assert!(
        matches!(verdict, AlgorithmVerdict::DeadlockFreeAcyclic { .. }),
        "{name} must be Dally-Seitz deadlock-free"
    );
}
