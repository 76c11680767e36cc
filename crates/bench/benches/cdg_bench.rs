//! BENCH-1: channel-dependency-graph construction and cycle
//! enumeration scaling.
//!
//! Run with: `cargo bench -p wormbench --bench cdg_bench`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use wormcdg::{enumerate_candidates, Cdg, Witnesses};
use wormnet::topology::{ring_unidirectional, Mesh};
use wormroute::algorithms::{clockwise_ring, dimension_order};

fn bench_cdg_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("cdg_build_mesh");
    for side in [4usize, 6, 8] {
        let mesh = Mesh::new(&[side, side]);
        let table = dimension_order(&mesh).expect("routes");
        group.bench_with_input(BenchmarkId::from_parameter(side), &side, |b, _| {
            b.iter(|| Cdg::build(black_box(mesh.network()), black_box(&table)));
        });
    }
    group.finish();
}

fn bench_numbering(c: &mut Criterion) {
    let mesh = Mesh::new(&[8, 8]);
    let table = dimension_order(&mesh).expect("routes");
    let cdg = Cdg::build(mesh.network(), &table);
    c.bench_function("dally_seitz_numbering_8x8", |b| {
        b.iter(|| black_box(&cdg).numbering());
    });
}

fn bench_cycle_enumeration(c: &mut Criterion) {
    let mut group = c.benchmark_group("cycle_enumeration_ring");
    for n in [4usize, 6, 8] {
        let (net, nodes) = ring_unidirectional(n);
        let table = clockwise_ring(&net, &nodes).expect("routes");
        let cdg = Cdg::build(&net, &table);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(&cdg).cycles());
        });
    }
    group.finish();
}

fn bench_candidates(c: &mut Criterion) {
    let mut group = c.benchmark_group("candidate_enumeration_ring");
    for n in [4usize, 5, 6] {
        let (net, nodes) = ring_unidirectional(n);
        let table = clockwise_ring(&net, &nodes).expect("routes");
        let cycle = Cdg::build(&net, &table).cycles().remove(0);
        let witnesses = Witnesses::of_cycles(&table, [&cycle]);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| enumerate_candidates(black_box(&witnesses), black_box(&cycle), 1_000_000));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_cdg_build,
    bench_numbering,
    bench_cycle_enumeration,
    bench_candidates
);
criterion_main!(benches);
