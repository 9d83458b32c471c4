//! The clustering facade: one builder, one code path, every thread
//! count.
//!
//! [`LinkClustering`] is the only end-to-end entry point of the
//! workspace. Its run methods share one start step (thread check,
//! telemetry and tracer, one [`WorkerPool`]) and one finish step
//! (trace-drop accounting, trace file, report). The thread count picks
//! a kernel in two places only:
//!
//! * Phase I and the sort of `L` — the serial flat-accumulator init and
//!   the standard sort at one thread, the pooled owner-sharded init and
//!   the pooled merge sort otherwise;
//! * the coarse chunk processor — [`SerialChunkProcessor`] at one
//!   thread, the pooled [`ParallelChunkProcessor`] otherwise.
//!
//! The fine sweep is always [`ufsweep_with`], which runs the serial
//! union-find kernel inline on a one-thread pool. Every thread count
//! produces a dendrogram bit-identical to Algorithm 2. The paper's
//! coarse chunk pipeline remains available through
//! [`run_coarse`](LinkClustering::run_coarse) as the explicit
//! approximate mode.

use std::path::PathBuf;
use std::sync::Arc;

use linkclust_core::coarse::{
    coarse_sweep_instrumented, CoarseConfig, CoarseResult, SerialChunkProcessor,
};
use linkclust_core::init::compute_similarities_with;
use linkclust_core::sweep::{EdgeOrder, SweepConfig};
use linkclust_core::telemetry::{
    Counter, Phase, Recorder, RunRecorder, RunReport, Telemetry, TelemetrySink, TraceCollector,
};
use linkclust_core::{ClusteringResult, ConfigError, PairSimilarities};
use linkclust_graph::GraphView;

use crate::init::compute_similarities_pooled;
use crate::pool::WorkerPool;
use crate::sort::parallel_into_sorted_pooled;
use crate::sweep::ParallelChunkProcessor;
use crate::ufsweep::ufsweep_with;

/// End-to-end link clustering with a configurable thread count.
///
/// This is the facade the `linkclust` crate re-exports at its root. With
/// the default single thread every phase runs its serial kernel on the
/// calling thread; raising [`threads`](Self::threads) switches Phase I,
/// the sort, the sweep, and the coarse chunk processor to their pooled
/// counterparts while producing the same dendrogram.
///
/// # Examples
///
/// ```
/// use linkclust_graph::generate::{gnm, WeightMode};
/// use linkclust_parallel::LinkClustering;
///
/// let g = gnm(40, 160, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 3);
/// let serial = LinkClustering::new().run(&g)?;
/// let parallel = LinkClustering::new().threads(4).run(&g)?;
/// assert_eq!(serial.edge_assignments(), parallel.edge_assignments());
/// # Ok::<(), linkclust_core::ConfigError>(())
/// ```
#[derive(Clone, Debug)]
pub struct LinkClustering {
    threads: usize,
    edge_order: Option<EdgeOrder>,
    min_similarity: Option<f64>,
    sink: TelemetrySink,
    tracer: Option<Arc<TraceCollector>>,
    trace_path: Option<PathBuf>,
}

impl Default for LinkClustering {
    fn default() -> Self {
        LinkClustering {
            threads: 1,
            edge_order: None,
            min_similarity: None,
            sink: TelemetrySink::Off,
            tracer: None,
            trace_path: None,
        }
    }
}

impl LinkClustering {
    /// Creates the default pipeline: one thread, insertion edge order,
    /// no similarity threshold, no telemetry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker thread count. `1` (the default) runs the serial
    /// kernels on the calling thread, sweeping with the union-find kernel
    /// and still bit-identical to Algorithm 2; `0` is rejected by the run
    /// methods with [`ConfigError::ZeroThreads`].
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the edge-to-slot order of the sweep explicitly. An explicit
    /// setting takes priority over a default-valued
    /// [`CoarseConfig::edge_order`] in [`run_coarse`](Self::run_coarse)
    /// and conflicts with a non-default one.
    #[must_use]
    pub fn edge_order(mut self, order: EdgeOrder) -> Self {
        self.edge_order = Some(order);
        self
    }

    /// Stops sweeping below this similarity (cuts the dendrogram early).
    #[must_use]
    pub fn min_similarity(mut self, theta: f64) -> Self {
        self.min_similarity = Some(theta);
        self
    }

    /// Collect phase timings and counters into a [`RunReport`] attached
    /// to the result. Disabled by default — a disabled run skips all
    /// clock reads.
    #[must_use]
    pub fn stats(mut self, enabled: bool) -> Self {
        self.sink = if enabled { TelemetrySink::Stats } else { TelemetrySink::Off };
        self
    }

    /// Streams telemetry events into a caller-supplied [`Recorder`]
    /// instead of the built-in aggregation (the result then carries no
    /// report). Overrides [`stats`](Self::stats).
    pub fn recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.sink = TelemetrySink::Custom(recorder);
        self
    }

    /// Records a per-thread event trace of the run and writes it to
    /// `path` as Chrome trace-event JSON (open it in
    /// <https://ui.perfetto.dev> or `chrome://tracing`). Off by default;
    /// the traced run records phase spans and pool-task executions into
    /// lock-free per-thread ring buffers
    /// ([`TraceCollector`]), so the overhead is a
    /// clock read and three word-stores per event. If the write fails
    /// the run still completes and the run method returns
    /// [`ConfigError::TraceWrite`].
    #[must_use]
    pub fn trace(mut self, path: impl Into<PathBuf>) -> Self {
        self.trace_path = Some(path.into());
        self
    }

    /// Records the run's event trace into a caller-owned
    /// [`TraceCollector`] instead of (or in addition to) a
    /// [`trace`](Self::trace) file — drain it yourself with
    /// [`TraceCollector::events`] or
    /// [`TraceCollector::to_chrome_json`].
    #[must_use]
    pub fn tracer(mut self, collector: Arc<TraceCollector>) -> Self {
        self.tracer = Some(collector);
        self
    }

    fn sweep_config(&self) -> SweepConfig {
        SweepConfig {
            edge_order: self.edge_order.unwrap_or_default(),
            min_similarity: self.min_similarity,
        }
    }

    fn reconcile_coarse(&self, mut config: CoarseConfig) -> Result<CoarseConfig, ConfigError> {
        config.validate()?;
        if let Some(facade_order) = self.edge_order {
            if config.edge_order != EdgeOrder::default() && config.edge_order != facade_order {
                return Err(ConfigError::EdgeOrderConflict);
            }
            config.edge_order = facade_order;
        }
        Ok(config)
    }

    /// The start step every run method shares: rejects zero threads,
    /// picks the trace collector (the caller's, a fresh one when only a
    /// [`trace`](Self::trace) path was requested, none when tracing is
    /// off), builds the telemetry handle with it, and creates the run's
    /// one worker pool — which at one thread spawns no OS thread.
    fn start(&self) -> Result<RunContext, ConfigError> {
        if self.threads == 0 {
            return Err(ConfigError::ZeroThreads);
        }
        let collector = match (&self.tracer, &self.trace_path) {
            (Some(c), _) => Some(Arc::clone(c)),
            (None, Some(_)) => Some(Arc::new(TraceCollector::new())),
            (None, None) => None,
        };
        let (mut telemetry, recorder) = self.sink.build();
        if let Some(c) = &collector {
            telemetry = telemetry.with_tracer(Arc::clone(c));
        }
        let pool = Arc::new(WorkerPool::new(self.threads).with_telemetry(telemetry.clone()));
        Ok(RunContext { telemetry, recorder, collector, pool })
    }

    /// The finish step every run method shares: folds the collector's
    /// drop count into the telemetry (so reports carry
    /// `trace_events_dropped`), writes the Chrome trace file if a path
    /// was configured, and snapshots the report of a `stats(true)` run.
    fn finish(&self, ctx: RunContext) -> Result<Option<RunReport>, ConfigError> {
        if let Some(collector) = &ctx.collector {
            let dropped = collector.dropped();
            if dropped > 0 {
                ctx.telemetry.add(Counter::TraceEventsDropped, dropped);
            }
            if let Some(path) = &self.trace_path {
                std::fs::write(path, collector.to_chrome_json()).map_err(|e| {
                    ConfigError::TraceWrite {
                        path: path.display().to_string(),
                        message: e.to_string(),
                    }
                })?;
            }
        }
        Ok(ctx.recorder.map(|r| r.report()))
    }

    /// Phase I plus the sort: the list `L`, ready to sweep. Runs on the
    /// configured threads. Accepts any [`GraphView`] backend
    /// (adjacency-list or CSR) and yields bit-identical similarities
    /// from either, at every thread count.
    pub fn similarities<G>(&self, g: &G) -> Result<PairSimilarities, ConfigError>
    where
        G: GraphView + Clone + Send + Sync + 'static,
    {
        let ctx = self.start()?;
        let sims = ctx.sorted_similarities(g);
        self.finish(ctx)?;
        Ok(sims)
    }

    /// Runs both phases on `g`: initialization, sort, and the
    /// fine-grained sweep. Every thread count sweeps with an exact
    /// union-find engine ([`ufsweep_with`]): at one thread it runs the
    /// serial kernel inline, with no pool task, and at more threads the
    /// parallel engine of [`crate::ufsweep`]. Generic over the graph
    /// backend; adjacency-list and CSR inputs at every thread count
    /// produce dendrograms bit-identical to Algorithm 2.
    pub fn run<G>(&self, g: &G) -> Result<ClusteringResult, ConfigError>
    where
        G: GraphView + Clone + Send + Sync + 'static,
    {
        let ctx = self.start()?;
        let sims = Arc::new(ctx.sorted_similarities(g));
        let output = ufsweep_with(g, &sims, self.sweep_config(), &ctx.pool, &ctx.telemetry);
        let report = self.finish(ctx)?;
        // All worker clones are gone once the pool tasks rendezvoused;
        // the unwrap only clones if a tracer/recorder still holds one.
        let sims = Arc::try_unwrap(sims).unwrap_or_else(|shared| (*shared).clone());
        Ok(ClusteringResult::from_parts(sims, output, report))
    }

    /// Runs Phase I and the **coarse-grained** Phase II (§V), with
    /// chunks fanned out over the configured threads (§VI-B).
    ///
    /// Validates `config` first and reconciles its
    /// [`edge_order`](CoarseConfig::edge_order) with the facade's: an
    /// order set through [`edge_order`](Self::edge_order) wins over a
    /// default-valued config, and a **conflicting** non-default config
    /// value is rejected with [`ConfigError::EdgeOrderConflict`] instead
    /// of silently overwritten.
    pub fn run_coarse<G>(&self, g: &G, config: CoarseConfig) -> Result<CoarseResult, ConfigError>
    where
        G: GraphView + Clone + Send + Sync + 'static,
    {
        let ctx = self.start()?;
        let config = self.reconcile_coarse(config)?;
        let sims = ctx.sorted_similarities(g);
        let result = if self.threads == 1 {
            coarse_sweep_instrumented(g, &sims, config, &mut SerialChunkProcessor, &ctx.telemetry)
        } else {
            // The processor shares the run's pool and similarity list, so
            // chunk fan-out reuses the warm workers and reads the entries
            // zero-copy.
            let sims = Arc::new(sims);
            let mut processor = ParallelChunkProcessor::new(self.threads)?
                .telemetry(ctx.telemetry.clone())
                .with_pool(Arc::clone(&ctx.pool))
                .shared_entries(Arc::clone(&sims));
            coarse_sweep_instrumented(g, &sims, config, &mut processor, &ctx.telemetry)
        };
        Ok(match self.finish(ctx)? {
            Some(report) => result.with_report(report),
            None => result,
        })
    }
}

/// The state one run threads through its phases: the telemetry handle
/// (carrying the tracer, if any), the recorder behind `stats(true)`,
/// the trace collector, and the run's one worker pool, which serves the
/// init passes, the sort, the sweep and every coarse chunk.
struct RunContext {
    telemetry: Telemetry,
    recorder: Option<Arc<RunRecorder>>,
    collector: Option<Arc<TraceCollector>>,
    pool: Arc<WorkerPool>,
}

impl RunContext {
    /// Phase I plus the sort of `L` — the one place the thread count
    /// picks the init and sort kernels. One thread runs the serial
    /// flat-accumulator init and the standard sort on the borrowed
    /// graph; more threads share one `Arc` clone of the graph with the
    /// pooled owner-sharded init and the pooled merge sort. Both yield
    /// the same bits.
    fn sorted_similarities<G>(&self, g: &G) -> PairSimilarities
    where
        G: GraphView + Clone + Send + Sync + 'static,
    {
        if self.pool.threads() == 1 {
            let sims = compute_similarities_with(g, &self.telemetry);
            let _span = self.telemetry.span(Phase::Sort);
            return sims.into_sorted();
        }
        let sims = compute_similarities_pooled(&self.pool, &Arc::new(g.clone()), &self.telemetry);
        parallel_into_sorted_pooled(&self.pool, sims, &self.telemetry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkclust_core::init::compute_similarities;
    use linkclust_core::json;
    use linkclust_core::reference::canonical_labels;
    use linkclust_core::sweep::sweep;
    use linkclust_core::telemetry::{trace, Gauge, TraceLabel};
    use linkclust_graph::generate::{gnm, WeightMode};
    use linkclust_graph::GraphBuilder;

    fn canon(labels: &[u32]) -> Vec<usize> {
        canonical_labels(&labels.iter().map(|&x| x as usize).collect::<Vec<_>>())
    }

    #[test]
    fn one_thread_equals_serial_exactly() {
        for seed in 0..3 {
            let g = gnm(40, 170, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, seed);
            let sims = compute_similarities(&g).into_sorted();
            let serial = sweep(&g, &sims, SweepConfig::default());
            let unified = LinkClustering::new().run(&g).unwrap();
            assert_eq!(serial.edge_assignments(), unified.edge_assignments());
            assert_eq!(serial.dendrogram(), unified.dendrogram());
            assert_eq!(&sims, unified.similarities());
            assert!(unified.report().is_none(), "stats are off by default");
        }
    }

    #[test]
    fn threshold_propagates() {
        let g = GraphBuilder::from_edges(
            6,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (0, 2, 1.0),
                (3, 4, 1.0),
                (4, 5, 1.0),
                (3, 5, 1.0),
                (2, 3, 0.1),
            ],
        )
        .unwrap()
        .build();
        for threads in [1, 2] {
            let facade = LinkClustering::new().threads(threads);
            let high = facade.clone().min_similarity(0.9).run(&g).unwrap();
            let low = facade.run(&g).unwrap();
            assert!(high.dendrogram().merge_count() < low.dendrogram().merge_count());
        }
    }

    #[test]
    fn coarse_facade_rejects_bad_config() {
        let g = gnm(10, 20, WeightMode::Unit, 0);
        let bad = CoarseConfig { gamma: 0.5, ..Default::default() };
        for threads in [1, 2] {
            let facade = LinkClustering::new().threads(threads);
            assert_eq!(facade.run_coarse(&g, bad), Err(ConfigError::InvalidGamma(0.5)));
        }
    }

    #[test]
    fn edge_order_reconciliation() {
        let facade = LinkClustering::new().edge_order(EdgeOrder::Shuffled { seed: 7 });
        // Default-valued config: the facade's explicit order wins.
        let cfg = facade.reconcile_coarse(CoarseConfig::default()).unwrap();
        assert_eq!(cfg.edge_order, EdgeOrder::Shuffled { seed: 7 });
        // Matching explicit orders: fine.
        let cfg = facade
            .reconcile_coarse(CoarseConfig {
                edge_order: EdgeOrder::Shuffled { seed: 7 },
                ..Default::default()
            })
            .unwrap();
        assert_eq!(cfg.edge_order, EdgeOrder::Shuffled { seed: 7 });
        // Conflicting explicit orders: rejected.
        assert_eq!(
            facade.reconcile_coarse(CoarseConfig {
                edge_order: EdgeOrder::Shuffled { seed: 8 },
                ..Default::default()
            }),
            Err(ConfigError::EdgeOrderConflict)
        );
        // No facade order: the config's order is used untouched.
        let cfg = LinkClustering::new()
            .reconcile_coarse(CoarseConfig {
                edge_order: EdgeOrder::Shuffled { seed: 3 },
                ..Default::default()
            })
            .unwrap();
        assert_eq!(cfg.edge_order, EdgeOrder::Shuffled { seed: 3 });
    }

    #[test]
    fn custom_recorder_receives_events() {
        let g = gnm(20, 60, WeightMode::Unit, 4);
        for threads in [1, 2] {
            let sink = Arc::new(RunRecorder::new());
            let r = LinkClustering::new().threads(threads).recorder(sink.clone()).run(&g).unwrap();
            // Custom sinks get the events; the result carries no report.
            assert!(r.report().is_none());
            assert_eq!(sink.report().counter(Counter::MergesApplied), r.dendrogram().merge_count());
        }
    }

    #[test]
    fn tracer_records_phase_timeline_without_drops() {
        let g = gnm(20, 60, WeightMode::Unit, 4);
        for threads in [1, 2] {
            let collector = Arc::new(TraceCollector::new());
            let facade = LinkClustering::new().threads(threads);
            let r = facade.clone().tracer(Arc::clone(&collector)).run(&g).unwrap();
            // Tracing alone attaches no report.
            assert!(r.report().is_none());
            let events = collector.events();
            assert!(events.iter().any(|e| e.label == TraceLabel::Phase(Phase::Sort)));
            assert!(events.iter().any(|e| e.label == TraceLabel::Phase(Phase::Sweep)));
            trace::check_events(&events).unwrap();
            json::parse(&collector.to_chrome_json()).unwrap();
            // Tracing plus stats: the report exists and the small run
            // (deep rings, few events) dropped nothing.
            let collector = Arc::new(TraceCollector::new());
            let r = facade.stats(true).tracer(collector).run(&g).unwrap();
            let report = r.report().expect("report attached");
            assert_eq!(report.counter(Counter::TraceEventsDropped), 0, "threads {threads}");
        }
    }

    #[test]
    fn coarse_stats_report_counts_epochs() {
        let g = gnm(40, 170, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 3);
        let cfg = CoarseConfig { phi: 5, initial_chunk: 8, ..Default::default() };
        for threads in [1, 2] {
            let r = LinkClustering::new().threads(threads).stats(true).run_coarse(&g, cfg).unwrap();
            let report = r.report().expect("report attached");
            let b = r.epoch_breakdown();
            assert_eq!(
                report.counter(Counter::EpochsCommitted),
                (b.head_fresh + b.tail_fresh) as u64
            );
            assert_eq!(report.counter(Counter::Rollbacks), b.rollback as u64);
            assert_eq!(report.counter(Counter::EpochsReused), b.reused as u64);
            assert_eq!(report.counter(Counter::LevelsCommitted), r.levels().len() as u64);
            assert_eq!(report.counter(Counter::MergesApplied), r.dendrogram().merge_count());
            assert_eq!(
                report.phase_calls(Phase::CoarseEpoch) as usize,
                r.epochs().len() - b.reused
            );
        }
    }

    #[test]
    fn many_threads_match_serial_partition() {
        for seed in 0..3 {
            let g = gnm(40, 170, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, seed);
            let serial = LinkClustering::new().run(&g).unwrap();
            for threads in [2, 4] {
                let par = LinkClustering::new().threads(threads).run(&g).unwrap();
                assert_eq!(
                    canon(&serial.edge_assignments()),
                    canon(&par.edge_assignments()),
                    "seed {seed} threads {threads}"
                );
            }
        }
    }

    #[test]
    fn zero_threads_is_rejected_not_panicking() {
        let g = gnm(10, 20, WeightMode::Unit, 0);
        let facade = LinkClustering::new().threads(0);
        assert_eq!(facade.run(&g).unwrap_err(), ConfigError::ZeroThreads);
        assert_eq!(
            facade.run_coarse(&g, CoarseConfig::default()).unwrap_err(),
            ConfigError::ZeroThreads
        );
        assert_eq!(facade.similarities(&g).unwrap_err(), ConfigError::ZeroThreads);
    }

    #[test]
    fn coarse_edge_order_conflict_is_rejected() {
        let g = gnm(15, 40, WeightMode::Unit, 1);
        let facade = LinkClustering::new().threads(2).edge_order(EdgeOrder::Shuffled { seed: 1 });
        let cfg =
            CoarseConfig { edge_order: EdgeOrder::Shuffled { seed: 2 }, ..Default::default() };
        assert_eq!(facade.run_coarse(&g, cfg).unwrap_err(), ConfigError::EdgeOrderConflict);
    }

    #[test]
    fn parallel_coarse_matches_serial_levels() {
        let g = gnm(50, 220, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 7);
        let cfg = CoarseConfig { phi: 5, initial_chunk: 8, ..Default::default() };
        let serial = LinkClustering::new().run_coarse(&g, cfg).unwrap();
        let par = LinkClustering::new().threads(3).run_coarse(&g, cfg).unwrap();
        let sl: Vec<_> = serial.levels().iter().map(|l| (l.level, l.clusters)).collect();
        let pl: Vec<_> = par.levels().iter().map(|l| (l.level, l.clusters)).collect();
        assert_eq!(sl, pl);
    }

    #[test]
    fn parallel_stats_report_covers_every_phase() {
        let g = gnm(50, 220, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 2);
        let r = LinkClustering::new().threads(4).stats(true).run(&g).unwrap();
        let report = r.report().expect("stats(true) attaches a report");
        for phase in [Phase::InitPass1, Phase::InitPass2, Phase::InitShardFold, Phase::InitPass3] {
            assert_eq!(report.phase_calls(phase), 1, "{phase:?}");
        }
        assert_eq!(report.phase_calls(Phase::Sort), 1);
        assert_eq!(report.phase_calls(Phase::Sweep), 1);
        assert_eq!(report.counter(Counter::MergesApplied), r.dendrogram().merge_count());
        assert_eq!(
            report.counter(Counter::PairsK1),
            linkclust_graph::stats::count_common_neighbor_pairs(&g)
        );
        // Every (pair, common neighbor) record crossed the shard
        // exchange exactly once, so the routed volume is K₂.
        assert_eq!(
            report.counter(Counter::ShardRecords),
            linkclust_graph::stats::count_incident_edge_pairs(&g)
        );
        // Pass 2 reported a folded record count for every owner thread,
        // and every non-empty owner table sampled its occupancy.
        assert!(report.thread_items().len() >= 4);
        assert!(report.gauge(Gauge::TableOccupancy).count >= 1);
    }

    #[test]
    fn traced_run_produces_consistent_timeline_and_file() {
        let g = gnm(50, 220, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 9);
        // Caller-owned collector, parallel fine run.
        let collector = Arc::new(TraceCollector::new());
        let r = LinkClustering::new().threads(4).tracer(Arc::clone(&collector)).run(&g).unwrap();
        let serial = LinkClustering::new().run(&g).unwrap();
        assert_eq!(canon(&serial.edge_assignments()), canon(&r.edge_assignments()));
        let events = collector.events();
        trace::check_events(&events).unwrap();
        assert!(events.iter().any(|e| e.label == TraceLabel::Phase(Phase::InitPass1)));
        assert!(events.iter().any(|e| matches!(e.label, TraceLabel::PoolTask { .. })));
        json::parse(&collector.to_chrome_json()).unwrap();
        // .trace(path): the file lands on disk and is well-formed.
        let dir = std::env::temp_dir().join("linkclust-facade-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let cfg = CoarseConfig { phi: 5, initial_chunk: 8, ..Default::default() };
        let _ = LinkClustering::new().threads(2).trace(&path).run_coarse(&g, cfg).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        json::parse(&text).unwrap();
        assert!(text.contains("\"ph\":\"X\""));
        // threads(1) traces through the same path.
        let _ = LinkClustering::new().trace(&path).run(&g).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        json::parse(&text).unwrap();
        assert!(text.contains("\"name\":\"sweep\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_write_failure_is_reported_not_panicking() {
        let g = gnm(15, 40, WeightMode::Unit, 1);
        let err = LinkClustering::new()
            .threads(2)
            .trace("/nonexistent-dir-for-trace-test/trace.json")
            .run(&g)
            .unwrap_err();
        assert!(matches!(err, ConfigError::TraceWrite { .. }), "got {err:?}");
    }

    #[test]
    fn parallel_coarse_stats_count_chunks() {
        let g = gnm(50, 220, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 4);
        let cfg = CoarseConfig { phi: 5, initial_chunk: 8, ..Default::default() };
        let r = LinkClustering::new().threads(4).stats(true).run_coarse(&g, cfg).unwrap();
        let report = r.report().expect("report attached");
        assert!(report.counter(Counter::ChunksProcessed) > 0);
        assert!(report.phase_calls(Phase::CoarseEpoch) > 0);
        assert_eq!(report.counter(Counter::MergesApplied), r.dendrogram().merge_count());
    }
}
