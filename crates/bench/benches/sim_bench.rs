//! BENCH-2: flit-level simulator throughput.
//!
//! Run with: `cargo bench -p wormbench --bench sim_bench`

use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use std::hint::black_box;
use wormbench::scenarios::sim_scenarios;
use wormnet::topology::Mesh;
use wormroute::algorithms::dimension_order;
use wormsim::runner::{ArbitrationPolicy, Runner};
use wormsim::{traffic, Sim};

/// Every named sim scenario (the `BENCH_sim.json` workloads: uniform
/// meshes 4x4..32x32, fig1 under the adversary and fig1 with `c_s`
/// down), so Criterion and the committed baselines measure the same
/// workloads.
fn bench_sim_scenarios(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_scenarios");
    group.sample_size(10);
    for s in sim_scenarios() {
        group.bench_function(s.name.as_str(), |b| {
            b.iter(|| black_box(&s).run(s.max_cycles, |outcome, _| outcome));
        });
    }
    group.finish();
}

fn bench_single_step(c: &mut Criterion) {
    let mesh = Mesh::new(&[8, 8]);
    let table = dimension_order(&mesh).expect("routes");
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let specs = traffic::uniform_random(mesh.network(), &table, &mut rng, 0.2, 50, (6, 6));
    let sim = Sim::new(mesh.network(), &table, specs, None).expect("routed");
    c.bench_function("runner_step_8x8_loaded", |b| {
        let mut runner = Runner::new(&sim, ArbitrationPolicy::OldestFirst);
        // Warm the network up so steps are representative.
        for _ in 0..20 {
            runner.step();
        }
        b.iter(|| runner.step());
    });
}

/// Adaptive vs oblivious engines on the same transpose workload.
fn bench_adaptive_vs_oblivious(c: &mut Criterion) {
    use wormroute::adaptive::fully_adaptive_minimal;
    use wormsim::adaptive::{AdaptivePolicy, AdaptiveRunner, AdaptiveSim};
    let mesh = Mesh::new(&[5, 5]);
    let specs = traffic::transpose(&mesh, 6);

    let mut group = c.benchmark_group("adaptive_vs_oblivious_transpose");
    group.sample_size(20);
    let table = dimension_order(&mesh).expect("routes");
    let sim = Sim::new(mesh.network(), &table, specs.clone(), None).expect("routed");
    group.bench_function("oblivious_dor", |b| {
        b.iter(|| {
            let mut runner = Runner::new(black_box(&sim), ArbitrationPolicy::OldestFirst);
            runner.run(1_000_000)
        });
    });
    let routing = fully_adaptive_minimal(&mesh);
    let asim = AdaptiveSim::new(mesh.network(), routing, specs, None).expect("routed");
    group.bench_function("fully_adaptive", |b| {
        b.iter(|| {
            let mut runner = AdaptiveRunner::new(black_box(&asim), AdaptivePolicy::FirstFree);
            runner.run(1_000_000)
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_sim_scenarios,
    bench_single_step,
    bench_adaptive_vs_oblivious
);
criterion_main!(benches);
