//! Larger-scale soak tests: the simulator at sizes well beyond the
//! paper's examples. Run in release (`cargo test --release`) — in
//! debug these take noticeably longer but still complete.

use cyclic_wormhole::cdg::Cdg;
use cyclic_wormhole::net::topology::{Mesh, Torus};
use cyclic_wormhole::route::algorithms::{dateline_torus, dimension_order};
use cyclic_wormhole::sim::runner::{ArbitrationPolicy, Outcome, Runner};
use cyclic_wormhole::sim::{traffic, Sim};
use rand::SeedableRng;

#[test]
fn mesh_12x12_heavy_uniform_traffic_delivers() {
    let mesh = Mesh::new(&[12, 12]);
    let table = dimension_order(&mesh).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
    let specs = traffic::uniform_random(mesh.network(), &table, &mut rng, 0.08, 150, (2, 10));
    assert!(specs.len() > 1_000, "heavy load: {}", specs.len());
    let sim = Sim::new(mesh.network(), &table, specs, Some(2)).unwrap();
    let mut runner = Runner::new(&sim, ArbitrationPolicy::OldestFirst);
    let outcome = runner.run(2_000_000);
    assert!(matches!(outcome, Outcome::Delivered { .. }), "{outcome:?}");
    let stats = runner.stats();
    assert_eq!(stats.delivered_count(), sim.message_count());
    assert!(
        stats.throughput() > 1.0,
        "throughput {}",
        stats.throughput()
    );
}

#[test]
fn torus_6x6_dateline_under_bit_complement_like_load() {
    let torus = Torus::new(&[6, 6], 2);
    let table = dateline_torus(&torus).unwrap();
    // Every node to its antipode.
    let specs: Vec<_> = torus
        .network()
        .nodes()
        .filter_map(|n| {
            let c = torus.coords(n);
            let d = [(c[0] + 3) % 6, (c[1] + 3) % 6];
            (c != d).then(|| cyclic_wormhole::sim::MessageSpec::new(n, torus.node(&d), 6))
        })
        .collect();
    let sim = Sim::new(torus.network(), &table, specs, Some(1)).unwrap();
    let mut runner = Runner::new(&sim, ArbitrationPolicy::Adversarial);
    let outcome = runner.run(1_000_000);
    assert!(
        matches!(outcome, Outcome::Delivered { .. }),
        "dateline torus must never deadlock: {outcome:?}"
    );
}

#[test]
fn cdg_scales_to_a_16x16_mesh() {
    let mesh = Mesh::new(&[16, 16]);
    let table = dimension_order(&mesh).unwrap();
    let cdg = Cdg::build(mesh.network(), &table);
    assert!(cdg.is_acyclic());
    assert!(cdg.numbering().is_some());
    // 16x16 mesh: 2*(15*16)*2 = 960 channels.
    assert_eq!(cdg.channel_count(), 960);
    assert!(cdg.edge_count() > 1_000);
}
