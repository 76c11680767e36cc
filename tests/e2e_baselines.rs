//! Baseline algorithms end-to-end: Dally–Seitz-safe algorithms never
//! deadlock under any traffic we throw at them; the known-deadlockable
//! ring fails in every analysis layer consistently.

use cyclic_wormhole::cdg::Cdg;
use cyclic_wormhole::core::classify::{classify_algorithm, AlgorithmVerdict, ClassifyOptions};
use cyclic_wormhole::net::topology::{ring_unidirectional, ring_with_vcs, Hypercube, Mesh, Torus};
use cyclic_wormhole::route::algorithms::{
    clockwise_ring, dateline_ring, dateline_torus, dimension_order, ecube,
};
use cyclic_wormhole::route::TableRouting;
use cyclic_wormhole::sim::runner::{ArbitrationPolicy, Outcome, Runner};
use cyclic_wormhole::sim::{traffic, Sim};
use rand::SeedableRng;

fn assert_never_deadlocks(net: &cyclic_wormhole::net::Network, table: &TableRouting, seed: u64) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let specs = traffic::uniform_random(net, table, &mut rng, 0.15, 120, (2, 8));
    assert!(!specs.is_empty());
    // One-flit buffers, adversarial arbitration: the harshest setting.
    let sim = Sim::new(net, table, specs, Some(1)).expect("routed");
    let mut runner = Runner::new(&sim, ArbitrationPolicy::Adversarial);
    let outcome = runner.run(2_000_000);
    assert!(
        matches!(outcome, Outcome::Delivered { .. }),
        "expected delivery, got {outcome:?}"
    );
}

#[test]
fn xy_mesh_survives_adversarial_traffic() {
    let mesh = Mesh::new(&[5, 5]);
    let table = dimension_order(&mesh).unwrap();
    assert!(Cdg::build(mesh.network(), &table).is_acyclic());
    assert_never_deadlocks(mesh.network(), &table, 11);
}

#[test]
fn ecube_survives_adversarial_traffic() {
    let cube = Hypercube::new(4);
    let table = ecube(&cube).unwrap();
    assert!(Cdg::build(cube.network(), &table).is_acyclic());
    assert_never_deadlocks(cube.network(), &table, 12);
}

#[test]
fn dateline_ring_survives_adversarial_traffic() {
    let (net, nodes) = ring_with_vcs(7, 2);
    let table = dateline_ring(&net, &nodes).unwrap();
    assert!(Cdg::build(&net, &table).is_acyclic());
    assert_never_deadlocks(&net, &table, 13);
}

#[test]
fn dateline_torus_survives_adversarial_traffic() {
    let torus = Torus::new(&[4, 4], 2);
    let table = dateline_torus(&torus).unwrap();
    assert!(Cdg::build(torus.network(), &table).is_acyclic());
    assert_never_deadlocks(torus.network(), &table, 14);
}

/// The clockwise ring fails consistently across all layers: cyclic
/// CDG, classified deadlockable, and actually deadlocks in simulation.
#[test]
fn clockwise_ring_fails_everywhere() {
    let (net, nodes) = ring_unidirectional(5);
    let table = clockwise_ring(&net, &nodes).unwrap();
    assert!(!Cdg::build(&net, &table).is_acyclic());
    let verdict = classify_algorithm(&net, &table, &ClassifyOptions::default());
    assert!(matches!(verdict, AlgorithmVerdict::Deadlockable { .. }));

    // Saturating ring traffic under adversarial arbitration must
    // actually deadlock.
    let specs: Vec<_> = (0..5)
        .map(|i| cyclic_wormhole::sim::MessageSpec::new(nodes[i], nodes[(i + 3) % 5], 6))
        .collect();
    let sim = Sim::new(&net, &table, specs, Some(1)).unwrap();
    let mut runner = Runner::new(&sim, ArbitrationPolicy::Adversarial);
    assert!(runner.run(10_000).is_deadlock());
}

/// Torus without dateline lanes is deadlockable (the reason the lanes
/// exist), and the classifier proves it.
#[test]
fn single_lane_torus_is_deadlockable() {
    use cyclic_wormhole::net::NodeId;
    let torus = Torus::new(&[4], 1);
    let net = torus.network();
    let table = TableRouting::build(net, |path, s, d| {
        let k = 4;
        let (si, di) = (s.index(), d.index());
        let fwd = (di + k - si) % k;
        let step: isize = if fwd <= k - fwd { 1 } else { -1 };
        path.node(s);
        let mut i = si as isize;
        while i as usize != di {
            i = (i + step).rem_euclid(k as isize);
            path.node(NodeId::from_index(i as usize));
        }
        Some(())
    })
    .unwrap();
    let verdict = classify_algorithm(net, &table, &ClassifyOptions::default());
    assert!(
        matches!(verdict, AlgorithmVerdict::Deadlockable { .. }),
        "{verdict:?}"
    );
}
