//! `analyze` — command-line deadlock analysis for built-in networks
//! and routing algorithms: properties, channel dependency graph,
//! classification verdict with provenance.
//!
//! ```text
//! USAGE:
//!   analyze mesh <W> <H> <xy|west-first|negative-first>
//!   analyze ring <N> <clockwise|dateline>
//!   analyze torus <K> <K> dateline
//!   analyze hypercube <D> ecube
//!   analyze fig1 | fig2 | fig3a..fig3f | g <K>
//! ```
//!
//! Examples:
//!   `cargo run --release -p wormbench --bin analyze -- mesh 4 4 xy`
//!   `cargo run --release -p wormbench --bin analyze -- fig1`

use worm_core::classify::{classify_algorithm, AlgorithmVerdict, ClassifyOptions, CycleClass};
use worm_core::paper::{fig1, fig2, fig3, generalized};
use wormcdg::{describe_candidate, Cdg};
use wormnet::topology::{ring_unidirectional, ring_with_vcs, Hypercube, Mesh, Torus};
use wormnet::Network;
use wormroute::algorithms::{
    clockwise_ring, dateline_ring, dateline_torus, ecube, negative_first, west_first, xy_mesh,
};
use wormroute::{properties, TableRouting};

fn usage() -> ! {
    eprintln!(
        "usage:\n  analyze mesh <W> <H> <xy|west-first|negative-first>\n  \
         analyze ring <N> <clockwise|dateline>\n  \
         analyze torus <K> <K> dateline\n  \
         analyze hypercube <D> ecube\n  \
         analyze fig1 | fig2 | fig3a..fig3f | g <K>"
    );
    std::process::exit(2);
}

/// Print why the arguments describe nothing that can be built, then
/// the usage, and exit 2.
fn reject(reason: &str) -> ! {
    eprintln!("analyze: {reason}");
    usage();
}

fn parse<T: std::str::FromStr>(s: Option<&String>) -> T {
    s.and_then(|x| x.parse().ok()).unwrap_or_else(|| usage())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Each form takes exactly its own arguments: `mesh` three, `ring`
    // two, and so on.
    let arity = match args.first().map(String::as_str) {
        Some("mesh" | "torus") => 4,
        Some("ring" | "hypercube") => 3,
        Some("g") => 2,
        _ => 1,
    };
    if !args.is_empty() && args.len() != arity {
        reject(&format!(
            "`{}` takes {} argument(s), got {}",
            args[0],
            arity - 1,
            args.len() - 1
        ));
    }
    let (net, table): (Network, TableRouting) = match args.first().map(String::as_str) {
        Some("mesh") => {
            let w: usize = parse(args.get(1));
            let h: usize = parse(args.get(2));
            if w == 0 || h == 0 || w.saturating_mul(h) < 2 {
                reject("a mesh needs positive extents and at least 2 nodes");
            }
            let mesh = Mesh::new(&[w, h]);
            let table = match args.get(3).map(String::as_str) {
                Some("xy") => xy_mesh(&mesh),
                Some("west-first") => west_first(&mesh),
                Some("negative-first") => negative_first(&mesh),
                _ => usage(),
            }
            .expect("mesh routes");
            (mesh.into_network(), table)
        }
        Some("ring") => {
            let n: usize = parse(args.get(1));
            if n < 2 {
                reject("a ring needs at least 2 nodes");
            }
            match args.get(2).map(String::as_str) {
                Some("clockwise") => {
                    let (net, nodes) = ring_unidirectional(n);
                    let table = clockwise_ring(&net, &nodes).expect("ring routes");
                    (net, table)
                }
                Some("dateline") => {
                    let (net, nodes) = ring_with_vcs(n, 2);
                    let table = dateline_ring(&net, &nodes).expect("ring routes");
                    (net, table)
                }
                _ => usage(),
            }
        }
        Some("torus") => {
            let a: usize = parse(args.get(1));
            let b: usize = parse(args.get(2));
            if args.get(3).map(String::as_str) != Some("dateline") {
                usage();
            }
            if a < 3 || b < 3 {
                reject("torus extents must be at least 3");
            }
            let torus = Torus::new(&[a, b], 2);
            let table = dateline_torus(&torus).expect("torus routes");
            (torus.into_network(), table)
        }
        Some("hypercube") => {
            let d: u32 = parse(args.get(1));
            if args.get(2).map(String::as_str) != Some("ecube") {
                usage();
            }
            if !(1..=16).contains(&d) {
                reject("a hypercube dimension must be 1 to 16");
            }
            let cube = Hypercube::new(d);
            let table = ecube(&cube).expect("cube routes");
            (cube.into_network(), table)
        }
        Some("fig1") => {
            let c = fig1::cyclic_dependency();
            print!("{}", c.describe());
            (c.net, c.table)
        }
        Some("fig2") => {
            let c = fig2::two_message_deadlock();
            print!("{}", c.describe());
            (c.net, c.table)
        }
        Some(name) if name.starts_with("fig3") => {
            let scenario = fig3::all_scenarios()
                .into_iter()
                .find(|s| name == format!("fig3{}", s.name))
                .unwrap_or_else(|| usage());
            let c = scenario.spec.build();
            print!("{}", c.describe());
            (c.net, c.table)
        }
        Some("g") => {
            let k: usize = parse(args.get(1));
            if k == 0 {
                reject("`g` needs k >= 1");
            }
            let c = generalized::generalized(k);
            print!("{}", c.describe());
            (c.net, c.table)
        }
        _ => usage(),
    };

    println!(
        "network: {} nodes, {} channels, strongly connected: {}",
        net.node_count(),
        net.channel_count(),
        net.is_strongly_connected()
    );
    let report = properties::analyze(&net, &table);
    println!(
        "routing: total={} minimal={} prefix-closed={} suffix-closed={} coherent={} N x N -> C form={}",
        report.total,
        report.minimal,
        report.prefix_closed,
        report.suffix_closed,
        report.coherent,
        report.node_function
    );
    let cdg = Cdg::build(&net, &table);
    println!(
        "CDG: {} dependencies, {}",
        cdg.edge_count(),
        if cdg.is_acyclic() {
            "acyclic".to_string()
        } else {
            format!("{} elementary cycle(s)", cdg.cycles().len())
        }
    );

    let verdict = classify_algorithm(&net, &table, &ClassifyOptions::default());
    match &verdict {
        AlgorithmVerdict::DeadlockFreeAcyclic { .. } => {
            println!("verdict: DEADLOCK-FREE (Dally-Seitz: acyclic CDG with numbering)");
        }
        AlgorithmVerdict::DeadlockFreeWithCycles { cycles } => {
            println!(
                "verdict: DEADLOCK-FREE WITH CYCLIC DEPENDENCIES — {} false resource cycle(s)",
                cycles.len()
            );
            for cv in cycles {
                println!("  cycle: {}", cv.cycle.describe(&net));
                for cand in &cv.candidates {
                    println!(
                        "    candidate [{}] unreachable ({})",
                        describe_candidate(&net, &cv.cycle, &cand.candidate.segments),
                        class_name(&cand.class)
                    );
                }
            }
        }
        AlgorithmVerdict::Deadlockable { cycles } => {
            println!("verdict: DEADLOCKABLE");
            for cv in cycles.iter().filter(|cv| cv.reachable() == Some(true)) {
                println!("  cycle: {}", cv.cycle.describe(&net));
                for cand in cv.candidates.iter().filter(|c| c.reachable == Some(true)) {
                    println!("    reachable via {}", class_name(&cand.class));
                }
            }
        }
        AlgorithmVerdict::Unknown { .. } => {
            println!("verdict: UNDECIDED within budgets");
        }
    }
}

fn class_name(class: &CycleClass) -> String {
    match class {
        CycleClass::NoOutsideSharing => "Theorem 2: no outside sharing".into(),
        CycleClass::TwoSharers => "Theorem 4: two sharers".into(),
        CycleClass::MinimalAllShare => "Theorem 3: minimal, all share".into(),
        CycleClass::ThreeSharers(ec) => {
            if ec.unreachable() {
                "Theorem 5: all eight conditions hold".into()
            } else {
                format!("Theorem 5: conditions {:?} fail", ec.failing())
            }
        }
        CycleClass::DecidedBySearch { states, .. } => {
            format!("exhaustive search ({states} states)")
        }
        CycleClass::Unknown => "undecided".into(),
    }
}
