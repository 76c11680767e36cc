//! Clock-skew end-to-end tests (Section 6's physical claim): the
//! paper's constructions tolerate bounded per-router skew, and skew
//! composes correctly with the rest of the machinery.

use cyclic_wormhole::core::paper::{fig1, generalized};
use cyclic_wormhole::net::topology::Mesh;
use cyclic_wormhole::route::algorithms::dimension_order;
use cyclic_wormhole::sim::runner::{ArbitrationPolicy, Outcome, Runner};
use cyclic_wormhole::sim::skew::SkewModel;
use cyclic_wormhole::sim::{MessageSpec, Sim};
use rand::SeedableRng;

#[test]
fn fig1_tolerates_random_bounded_skew() {
    let c = fig1::cyclic_dependency();
    for seed in 0..10u64 {
        let sim = Sim::new(&c.net, &c.table, c.message_specs(), Some(1)).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let skew = SkewModel::uniform_random(&c.net, &mut rng, 4);
        let mut runner = Runner::new(&sim, ArbitrationPolicy::Adversarial).with_skew(skew);
        let outcome = runner.run(50_000);
        assert!(
            matches!(outcome, Outcome::Delivered { .. }),
            "seed {seed}: {outcome:?}"
        );
    }
}

#[test]
fn generalized_family_tolerates_tight_skew() {
    for k in 1..=2 {
        let c = generalized::generalized(k);
        let sim = Sim::new(
            &c.net,
            &c.table,
            generalized::minimum_length_specs(&c),
            Some(1),
        )
        .unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        // Period 3 is the tightest *live* skew: with period 2, two
        // adjacent routers pausing on alternating phases never share
        // an active cycle and the link starves (a liveness artifact of
        // duty-cycled routers, not a deadlock). At period >= 3 any two
        // routers are jointly active at least one cycle in three.
        let skew = SkewModel::uniform_random(&c.net, &mut rng, 3);
        let mut runner = Runner::new(&sim, ArbitrationPolicy::Adversarial).with_skew(skew);
        let outcome = runner.run(100_000);
        assert!(
            matches!(outcome, Outcome::Delivered { .. }),
            "G({k}): {outcome:?}"
        );
    }
}

#[test]
fn skew_slows_but_does_not_break_mesh_traffic() {
    let mesh = Mesh::new(&[4, 4]);
    let table = dimension_order(&mesh).unwrap();
    let specs: Vec<MessageSpec> = mesh
        .network()
        .nodes()
        .filter_map(|n| {
            let c = mesh.coords(n);
            let d = [3 - c[0], 3 - c[1]];
            (c != d).then(|| MessageSpec::new(n, mesh.node(&d), 4))
        })
        .collect();

    let sim = Sim::new(mesh.network(), &table, specs, Some(1)).unwrap();
    let baseline = {
        let mut r = Runner::new(&sim, ArbitrationPolicy::OldestFirst);
        match r.run(100_000) {
            Outcome::Delivered { cycles } => cycles,
            o => panic!("{o:?}"),
        }
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let skew = SkewModel::uniform_random(mesh.network(), &mut rng, 3);
    let mut r = Runner::new(&sim, ArbitrationPolicy::OldestFirst).with_skew(skew);
    match r.run(100_000) {
        Outcome::Delivered { cycles } => {
            assert!(cycles > baseline, "skew must cost cycles");
            // One pause in three is at most a ~2x slowdown plus
            // second-order blocking effects; be generous.
            assert!(cycles < baseline * 4, "{cycles} vs {baseline}");
        }
        o => panic!("{o:?}"),
    }
}

#[test]
fn single_paused_router_delays_exactly_its_traffic() {
    // A message that avoids the paused router is unaffected.
    let mesh = Mesh::new(&[3, 1]);
    let table = dimension_order(&mesh).unwrap();
    let a = mesh.node(&[0, 0]);
    let b = mesh.node(&[1, 0]);
    let c = mesh.node(&[2, 0]);
    let specs = vec![MessageSpec::new(a, b, 2), MessageSpec::new(c, b, 2)];
    let sim = Sim::new(mesh.network(), &table, specs, Some(1)).unwrap();

    // Pause node a's queues: the c -> b message never touches them.
    let skew = SkewModel::none(mesh.network()).with_pause(a, 2, 0);
    let mut r = Runner::new(&sim, ArbitrationPolicy::OldestFirst).with_skew(skew);
    assert!(matches!(r.run(1_000), Outcome::Delivered { .. }));
    // Queues at `a` host only incoming channels; neither message
    // enters them, so latencies match the unskewed run.
    let lat_skewed: Vec<_> = (0..2)
        .map(|i| {
            r.stats()
                .latency(cyclic_wormhole::sim::MessageId::from_index(i))
        })
        .collect();
    let mut r2 = Runner::new(&sim, ArbitrationPolicy::OldestFirst);
    assert!(matches!(r2.run(1_000), Outcome::Delivered { .. }));
    let lat_plain: Vec<_> = (0..2)
        .map(|i| {
            r2.stats()
                .latency(cyclic_wormhole::sim::MessageId::from_index(i))
        })
        .collect();
    assert_eq!(lat_skewed, lat_plain);
}
