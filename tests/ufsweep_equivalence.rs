//! Engine equivalence: every production sweep must be indistinguishable
//! from the Algorithm-2 oracle ([`sweep_with`] over core init and sort)
//! — the dendrogram (levels, left/right/into labels), the per-merge
//! scores (compared as bits), and every downstream cut must be
//! **identical**, not merely equal up to relabeling. That covers the
//! facade at every thread count on both graph backends, and the serial
//! union-find kernel on its own. Plus linearizable-equivalence property
//! tests for the lock-free concurrent union-find the parallel engine's
//! boundary stitch runs on.

use std::sync::Arc;

use linkclust::core::sweep::{sweep_with, union_find_sweep_with, SweepOutput};
use linkclust::core::telemetry::{
    Counter, Phase, RunRecorder, RunReport, Telemetry, TelemetrySink,
};
use linkclust::core::unionfind::{ConcurrentUnionFind, UnionFind};
use linkclust::graph::generate::{barabasi_albert, gnm, lfr_like, WeightMode};
use linkclust::parallel::pool::{partition_ranges, Task, WorkerPool};
use linkclust::{
    compute_similarities, CsrGraph, EdgeOrder, GraphBuilder, GraphView, LinkClustering,
    PairSimilarities, SweepConfig, WeightedGraph,
};
use proptest::prelude::*;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// One workload per generator family of the scale ladder.
fn workloads() -> Vec<(&'static str, WeightedGraph)> {
    let w = WeightMode::Uniform { lo: 0.2, hi: 2.0 };
    vec![
        ("gnm", gnm(60, 240, w, 7)),
        ("barabasi_albert", barabasi_albert(80, 4, w, 3)),
        ("lfr_like", lfr_like(120, 8, 0.2, 11).graph),
    ]
}

/// The sorted list `L` from the serial core init and sort.
fn sorted_sims<G: GraphView>(g: &G) -> PairSimilarities {
    compute_similarities(g).into_sorted()
}

/// The Algorithm-2 oracle for `g` under `config`.
fn oracle<G: GraphView>(g: &G, config: SweepConfig) -> SweepOutput {
    sweep_with(g, &sorted_sims(g), config, &Telemetry::disabled())
}

fn score_bits(out: &SweepOutput) -> Vec<u64> {
    out.merge_scores().iter().map(|s| s.to_bits()).collect()
}

/// Dendrogram, merge-score bits, and edge-to-slot permutation all equal.
fn assert_bit_identical(oracle: &SweepOutput, got: &SweepOutput, what: &str) {
    assert_eq!(
        oracle.dendrogram(),
        got.dendrogram(),
        "{what}: dendrogram diverged from the Alg-2 oracle"
    );
    assert_eq!(score_bits(oracle), score_bits(got), "{what}: merge scores diverged");
    assert_eq!(oracle.slot_of_edge(), got.slot_of_edge(), "{what}");
}

#[test]
fn ufsweep_dendrogram_is_bit_identical_to_serial_at_every_thread_count() {
    for (name, g) in workloads() {
        let expected = oracle(&g, SweepConfig::default());
        for threads in THREADS {
            let got = LinkClustering::new().threads(threads).run(&g).unwrap();
            assert_bit_identical(&expected, got.output(), &format!("{name} t={threads}"));
        }
    }
}

#[test]
fn ufsweep_is_bit_identical_on_the_csr_backend() {
    for (name, g) in workloads() {
        let csr = CsrGraph::from_weighted(&g);
        let expected = oracle(&csr, SweepConfig::default());
        for threads in THREADS {
            let got = LinkClustering::new().threads(threads).run(&csr).unwrap();
            assert_bit_identical(&expected, got.output(), &format!("{name} t={threads} via CSR"));
        }
    }
}

/// Cut paths (`edge_assignments_at_similarity` and level cuts) must
/// behave identically on dendrograms from every engine — checked at
/// several thresholds and levels, on all three ladder families, at every
/// thread count, on both backends.
#[test]
fn cuts_are_identical_across_engines_at_several_thresholds() {
    for (name, g) in workloads() {
        let expected = oracle(&g, SweepConfig::default());
        let csr = CsrGraph::from_weighted(&g);
        for threads in THREADS {
            let facade = LinkClustering::new().threads(threads);
            for (backend, got) in
                [("adjacency", facade.run(&g).unwrap()), ("csr", facade.run(&csr).unwrap())]
            {
                let got = got.output();
                let what = format!("{name} {backend} t={threads}");
                for theta in [0.2, 0.35, 0.5, 0.7, 0.9] {
                    assert_eq!(
                        expected.edge_assignments_at_similarity(theta),
                        got.edge_assignments_at_similarity(theta),
                        "{what} theta {theta}"
                    );
                }
                let levels = expected.dendrogram().merge_count();
                for level in [0, levels / 2, levels] {
                    assert_eq!(
                        expected.edge_assignments_at_level(level as u32),
                        got.edge_assignments_at_level(level as u32),
                        "{what} level {level}"
                    );
                }
                assert_eq!(expected.edge_assignments(), got.edge_assignments(), "{what}");
            }
        }
    }
}

/// Threshold configs must also agree with the oracle (the parallel
/// engine cuts the entry list before partitioning, the serial kernels
/// break at the first below-threshold entry — the same prefix either
/// way).
#[test]
fn min_similarity_configs_agree_across_engines() {
    let g = gnm(50, 200, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 23);
    for theta in [0.25, 0.5, 0.75] {
        let config = SweepConfig { min_similarity: Some(theta), ..Default::default() };
        let expected = oracle(&g, config);
        for threads in THREADS {
            let got = LinkClustering::new().threads(threads).min_similarity(theta).run(&g).unwrap();
            assert_bit_identical(&expected, got.output(), &format!("theta {theta} t={threads}"));
        }
    }
}

/// A graph for the kernel property: one of the three ladder families,
/// a graph with no edges, or a matching (edges but no incident pairs).
fn kernel_graph(family: usize, n: usize, seed: u64) -> WeightedGraph {
    let w = WeightMode::Uniform { lo: 0.2, hi: 2.0 };
    match family {
        0 => gnm(n, 3 * n, w, seed),
        1 => barabasi_albert(n, 3, w, seed),
        2 => lfr_like(n, 6, 0.25, seed).graph,
        3 => GraphBuilder::from_edges(n, &[]).unwrap().build(),
        _ => {
            let matching: Vec<(usize, usize, f64)> =
                (0..n / 2).map(|i| (2 * i, 2 * i + 1, 1.0)).collect();
            GraphBuilder::from_edges(n, &matching).unwrap().build()
        }
    }
}

/// The threshold under test: none, the middle entry's score, above the
/// largest score (no merges), or below the smallest (every merge).
fn kernel_threshold(sims: &PairSimilarities, pick: usize) -> Option<f64> {
    let scores: Vec<f64> = sims.entries().iter().map(|e| e.score).collect();
    let (Some(&max), Some(&min)) = (scores.first(), scores.last()) else {
        return [None, Some(0.5), Some(2.0), Some(0.0)][pick];
    };
    [None, Some(scores[scores.len() / 2]), Some(max + 1.0), Some(min / 2.0)][pick]
}

/// The serial kernel against the oracle on one backend.
fn check_kernel<G: GraphView>(g: &G, config: SweepConfig, what: &str) {
    let sims = sorted_sims(g);
    let off = Telemetry::disabled();
    let expected = sweep_with(g, &sims, config, &off);
    let got = union_find_sweep_with(g, &sims, config, &off);
    assert_bit_identical(&expected, &got, what);
    if config.min_similarity.is_some_and(|t| sims.entries().first().is_none_or(|e| e.score < t)) {
        assert_eq!(got.dendrogram().merge_count(), 0, "{what}: threshold above every score");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The union-find kernel reproduces Algorithm 2 bit for bit on every
    /// generator family and on degenerate graphs, on both backends,
    /// under every kind of threshold and both edge orders.
    #[test]
    fn union_find_kernel_matches_the_alg2_oracle(
        family in 0usize..5,
        n in 12usize..60,
        seed in 0u64..1000,
        threshold_pick in 0usize..4,
        shuffle in proptest::bool::ANY,
    ) {
        let g = kernel_graph(family, n, seed);
        let config = SweepConfig {
            edge_order: if shuffle { EdgeOrder::Shuffled { seed } } else { EdgeOrder::Insertion },
            min_similarity: kernel_threshold(&sorted_sims(&g), threshold_pick),
        };
        let what = format!("family {family} n {n} seed {seed} {config:?}");
        check_kernel(&g, config, &what);
        check_kernel(&CsrGraph::from_weighted(&g), config, &format!("{what} via CSR"));
    }
}

/// At one thread the facade runs the serial kernels inline: exactly one
/// `Sweep` span with the oracle's merge and pair counters, none of the
/// parallel engine's sub-phases, and no pooled init or pool task —
/// neither in `run` nor in `similarities`.
#[test]
fn one_thread_sweep_report_matches_alg2_and_has_no_engine_phases() {
    fn assert_no_pool_work(report: &RunReport, what: &str) {
        for phase in [Phase::InitShardFold, Phase::PoolQueueWait] {
            assert_eq!(report.phase_calls(phase), 0, "{what} {phase:?}");
        }
        for counter in [Counter::PoolTasks, Counter::ShardRecords] {
            assert_eq!(report.counter(counter), 0, "{what} {counter:?}");
        }
    }
    for (name, g) in workloads() {
        let (telemetry, recorder) = TelemetrySink::Stats.build();
        let sims = sorted_sims(&g);
        let _ = sweep_with(&g, &sims, SweepConfig::default(), &telemetry);
        let alg2 = recorder.expect("a stats sink records").report();
        let run = LinkClustering::new().threads(1).stats(true).run(&g).unwrap();
        let report = run.report().expect("stats(true) attaches a report");
        assert_eq!(report.phase_calls(Phase::Sweep), 1, "{name}");
        for counter in [Counter::MergesApplied, Counter::PairsProcessed] {
            assert_eq!(report.counter(counter), alg2.counter(counter), "{name} {counter:?}");
        }
        for phase in [Phase::SweepLocal, Phase::SweepStitch, Phase::SweepReplay] {
            assert_eq!(report.phase_calls(phase), 0, "{name} {phase:?}");
        }
        assert_no_pool_work(report, name);
        let sink = Arc::new(RunRecorder::new());
        let sims = LinkClustering::new().threads(1).recorder(sink.clone()).similarities(&g);
        assert_eq!(sims.unwrap(), sorted_sims(&g), "{name}");
        let report = sink.report();
        assert_eq!(report.phase_calls(Phase::Sort), 1, "{name}");
        assert_no_pool_work(&report, &format!("{name} similarities()"));
    }
}

/// Applies `ops` to a [`ConcurrentUnionFind`] from `threads` worker
/// threads (interleaved round-robin shards on a real [`WorkerPool`]) and
/// returns (final assignments, total number of successful unites).
fn concurrent_union(n: usize, ops: &[(u32, u32)], threads: usize) -> (Vec<u32>, usize) {
    let pool = WorkerPool::new(threads);
    let cuf = Arc::new(ConcurrentUnionFind::new(n));
    let ops: Arc<Vec<(u32, u32)>> = Arc::new(ops.to_vec());
    let successes: Vec<usize> = pool.run_tasks(
        (0..threads)
            .map(|t| {
                let cuf = Arc::clone(&cuf);
                let ops = Arc::clone(&ops);
                Box::new(move || {
                    // Round-robin sharding maximizes cross-thread
                    // contention on the same sets.
                    ops.iter().skip(t).step_by(threads).filter(|&&(a, b)| cuf.unite(a, b)).count()
                }) as Task<usize>
            })
            .collect(),
    );
    (cuf.assignments(), successes.iter().sum())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Linearizable equivalence against the serial oracle: whatever the
    /// interleaving, the final partition must equal the serial
    /// union-find's over the same operation set (set union is
    /// commutative), and exactly `n - set_count` unites may report
    /// success (each success is one component merge, exactly-once).
    #[test]
    fn concurrent_unionfind_is_linearizable_against_the_serial_oracle(
        n in 2usize..80,
        seed in 0u64..1000,
        threads_pick in 0usize..3,
    ) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let threads = [2usize, 4, 8][threads_pick];
        let mut rng = SmallRng::seed_from_u64(seed);
        let ops: Vec<(u32, u32)> = (0..n * 2)
            .map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)))
            .collect();

        let mut oracle = UnionFind::new(n);
        let mut oracle_successes = 0usize;
        for &(a, b) in &ops {
            if oracle.union(a as usize, b as usize) {
                oracle_successes += 1;
            }
        }

        let (got, successes) = concurrent_union(n, &ops, threads);
        prop_assert_eq!(got, oracle.assignments(), "partition diverged (threads {})", threads);
        prop_assert_eq!(successes, oracle_successes, "success count diverged");
    }

    /// Concurrent finds/same_set during a quiescent period agree with
    /// the serial oracle from any start element.
    #[test]
    fn concurrent_queries_agree_after_parallel_build(
        n in 4usize..60,
        seed in 0u64..500,
    ) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let ops: Vec<(u32, u32)> = (0..n)
            .map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)))
            .collect();
        let (got, _) = concurrent_union(n, &ops, 4);
        let mut oracle = UnionFind::new(n);
        for &(a, b) in &ops {
            oracle.union(a as usize, b as usize);
        }
        let cuf = ConcurrentUnionFind::new(n);
        for &(a, b) in &ops {
            let _ = cuf.unite(a, b);
        }
        for a in 0..n as u32 {
            for b in [0u32, (a + 1) % n as u32] {
                prop_assert_eq!(
                    cuf.same_set(a, b),
                    oracle.connected(a as usize, b as usize)
                );
            }
        }
        prop_assert_eq!(got, oracle.assignments());
    }
}

/// Pool-partitioned parallel finds while unites run on other workers:
/// no torn state, and the end partition is still the oracle's. This is
/// the mixed read/write interleaving the TSan lane chews on.
#[test]
fn concurrent_mixed_finds_and_unites_are_safe() {
    let n = 256usize;
    for threads in [2, 4, 8] {
        let pool = WorkerPool::new(threads + 1);
        let cuf = Arc::new(ConcurrentUnionFind::new(n));
        let ranges = partition_ranges(n - 1, threads);
        let mut tasks: Vec<Task<usize>> = ranges
            .into_iter()
            .map(|r| {
                let cuf = Arc::clone(&cuf);
                Box::new(move || r.filter(|&i| cuf.unite(i as u32, i as u32 + 1)).count())
                    as Task<usize>
            })
            .collect();
        tasks.push({
            let cuf = Arc::clone(&cuf);
            Box::new(move || {
                // Concurrent readers: finds must terminate and stay in
                // bounds whatever the unite interleaving.
                (0..n as u32).map(|i| cuf.find(i) as usize).filter(|&r| r < n).count()
            })
        });
        let results = pool.run_tasks(tasks);
        assert_eq!(results[threads], n, "a find escaped the element range");
        let unites: usize = results[..threads].iter().sum();
        assert_eq!(unites, n - 1, "chain unites must all succeed exactly once");
        assert_eq!(cuf.set_count(), 1);
        assert!(cuf.assignments().iter().all(|&m| m == 0));
    }
}
