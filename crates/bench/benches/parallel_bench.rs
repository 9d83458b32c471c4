//! Criterion bench: multi-threaded initialization and sweeping vs thread
//! count (Fig. 6 in micro form).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use linkclust_core::coarse::CoarseConfig;
use linkclust_core::init::compute_similarities;
use linkclust_graph::generate::{barabasi_albert, WeightMode};
use linkclust_parallel::{compute_similarities_parallel, parallel_coarse_sweep};

fn bench_parallel(c: &mut Criterion) {
    let w = WeightMode::Uniform { lo: 0.2, hi: 2.0 };
    let g = barabasi_albert(800, 8, w, 4);

    let mut group = c.benchmark_group("parallel_init");
    for &threads in &[1usize, 2, 4, 6] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            b.iter(|| compute_similarities_parallel(&g, t));
        });
    }
    group.finish();

    let sims = Arc::new(compute_similarities(&g).into_sorted());
    let cfg = CoarseConfig {
        phi: 100,
        initial_chunk: (sims.incident_pair_count() / 500).max(16),
        ..Default::default()
    };
    let mut group = c.benchmark_group("parallel_sweep");
    for &threads in &[1usize, 2, 4, 6] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            b.iter(|| parallel_coarse_sweep(&g, &sims, cfg, t));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_parallel
}
criterion_main!(benches);
