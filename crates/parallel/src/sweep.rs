//! Parallel coarse-grained sweeping (§VI-B).
//!
//! Each coarse chunk is split into `T` contiguous entry ranges of
//! near-equal incident-pair count; each thread merges its range on its
//! own copy of array `C`; the copies are combined with the corrected
//! chain-union scheme in a hierarchical (pairwise) reduction. Because the
//! combination yields the join of the per-thread partitions — which
//! equals the partition the serial chunk would produce — the parallel
//! sweep commits the same levels, cluster counts, and mode transitions as
//! the serial coarse sweep.
//!
//! # Steady-state allocation discipline
//!
//! Chunks run as tasks on a persistent [`WorkerPool`], and the big
//! per-chunk buffers are owned by the processor and **resynced**, not
//! reallocated:
//!
//! * the base snapshot and the `T` per-thread scratch copies of `C` are
//!   refreshed in place via [`ClusterArray::sync_from`]
//!   (`copy_from_slice`), replacing the `T + 1` O(|E|) clones the old
//!   implementation paid per chunk;
//! * the entry-weight vector is a reused buffer;
//! * when the processor is wired to the run's similarity list
//!   ([`shared_entries`](ParallelChunkProcessor::shared_entries), as the
//!   facade does), chunk entries are shared with the workers zero-copy —
//!   a chunk is located inside the list by pointer offset; an unwired
//!   processor falls back to buffering the chunk's entries.

use std::ops::Range;
use std::sync::{Arc, Mutex, PoisonError};

use linkclust_core::cluster_array::{partition_diff, MergeOutcome};
use linkclust_core::coarse::{
    coarse_sweep_with, ChunkProcessor, CoarseConfig, CoarseResult, SerialChunkProcessor,
};
use linkclust_core::telemetry::{Counter, Phase, Telemetry};
use linkclust_core::{ClusterArray, ConfigError, PairSimilarities, SimilarityEntry};
use linkclust_graph::{EdgeIndex, GraphView};

use crate::merge::merge_cluster_arrays;
use crate::pool::{balanced_partition_with_loads, Task, WorkerPool};

/// Where a chunk's entries live for the worker tasks: shared zero-copy
/// inside the run's similarity list, or buffered into a processor-owned
/// vector.
#[derive(Clone)]
enum EntrySlice {
    /// The chunk is `sims.entries()[offset..offset + len]`.
    Shared(Arc<PairSimilarities>, usize),
    /// The chunk was copied into this buffer.
    Buffered(Arc<Vec<SimilarityEntry>>),
}

impl EntrySlice {
    fn get(&self, r: Range<usize>) -> &[SimilarityEntry] {
        match self {
            EntrySlice::Shared(sims, offset) => &sims.entries()[offset + r.start..offset + r.end],
            EntrySlice::Buffered(buf) => &buf[r],
        }
    }
}

/// If `sub` is a sub-slice of `full` (same allocation), returns its
/// element offset. Sound without comparing contents: the caller holds the
/// `Arc` keeping `full`'s allocation alive, so no other live allocation
/// can overlap its address range.
fn slice_offset_within(full: &[SimilarityEntry], sub: &[SimilarityEntry]) -> Option<usize> {
    let size = std::mem::size_of::<SimilarityEntry>();
    if sub.is_empty() {
        return None;
    }
    let base = full.as_ptr() as usize;
    let p = sub.as_ptr() as usize;
    if p < base
        || p + std::mem::size_of_val(sub) > base + std::mem::size_of_val(full)
        || !(p - base).is_multiple_of(size)
    {
        return None;
    }
    let offset = (p - base) / size;
    debug_assert!(std::ptr::eq(full[offset..].as_ptr(), sub.as_ptr()));
    Some(offset)
}

fn lock_scratch(slot: &Mutex<ClusterArray>) -> std::sync::MutexGuard<'_, ClusterArray> {
    // A poisoned slot is recoverable: the next chunk resyncs it from the
    // committed array before reading it.
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A [`ChunkProcessor`] that fans each chunk out over `threads` worker
/// threads (per-thread copies of `C`, hierarchical combination).
///
/// The processor owns its execution context and reuses it across chunks:
/// a persistent [`WorkerPool`] (wired by the facade via
/// [`with_pool`](Self::with_pool), or created lazily on the first
/// parallel chunk), per-thread scratch arrays resynced in place, and a
/// reused weight buffer — see the module docs for the full allocation
/// discipline.
#[derive(Debug)]
pub struct ParallelChunkProcessor {
    threads: usize,
    min_entries_per_thread: usize,
    telemetry: Telemetry,
    pool: Option<Arc<WorkerPool>>,
    shared: Option<Arc<PairSimilarities>>,
    slot_of_edge: Option<Arc<Vec<u32>>>,
    entry_buf: Arc<Vec<SimilarityEntry>>,
    base: Arc<ClusterArray>,
    scratch: Vec<Arc<Mutex<ClusterArray>>>,
    weights: Vec<u64>,
}

impl Clone for ParallelChunkProcessor {
    /// Clones the configuration and the shared read-only context (pool,
    /// similarity list) but gives the clone fresh scratch state, so two
    /// clones can process chunks concurrently.
    fn clone(&self) -> Self {
        ParallelChunkProcessor {
            threads: self.threads,
            min_entries_per_thread: self.min_entries_per_thread,
            telemetry: self.telemetry.clone(),
            pool: self.pool.clone(),
            shared: self.shared.clone(),
            slot_of_edge: self.slot_of_edge.clone(),
            entry_buf: Arc::new(Vec::new()),
            base: Arc::new(ClusterArray::new(0)),
            scratch: Vec::new(),
            weights: Vec::new(),
        }
    }
}

impl ParallelChunkProcessor {
    /// Creates a processor with `threads` worker threads; rejects
    /// `threads == 0` with [`ConfigError::ZeroThreads`].
    pub fn new(threads: usize) -> Result<Self, ConfigError> {
        if threads == 0 {
            return Err(ConfigError::ZeroThreads);
        }
        Ok(ParallelChunkProcessor {
            threads,
            min_entries_per_thread: 8,
            telemetry: Telemetry::disabled(),
            pool: None,
            shared: None,
            slot_of_edge: None,
            entry_buf: Arc::new(Vec::new()),
            base: Arc::new(ClusterArray::new(0)),
            scratch: Vec::new(),
            weights: Vec::new(),
        })
    }

    /// Chunks with fewer than `n` entries per thread fall back to serial
    /// processing (task dispatch overhead dominates tiny chunks). Default
    /// is 8.
    #[must_use]
    pub fn min_entries_per_thread(mut self, n: usize) -> Self {
        self.min_entries_per_thread = n.max(1);
        self
    }

    /// Attaches a telemetry handle: chunk fan-out and combination are
    /// timed ([`Phase::ChunkProcess`] / [`Phase::ChunkCombine`]), chunk
    /// and combine counters recorded, and per-thread incident-pair loads
    /// fed into the report's thread-item counts.
    #[must_use]
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Runs chunk tasks on `pool` instead of lazily creating a private
    /// one — how the facade makes one persistent pool serve init, sort,
    /// and every chunk of the sweep. Overrides the thread count given to
    /// [`new`](Self::new) with the pool's.
    #[must_use]
    pub fn with_pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.threads = pool.threads();
        self.pool = Some(pool);
        self
    }

    /// Declares the similarity list the sweep's chunks are slices of.
    /// Chunk entries are then shared with the worker tasks zero-copy (a
    /// chunk is located inside the list by pointer offset); without this,
    /// every parallel chunk's entries are copied into a buffer first.
    #[must_use]
    pub fn shared_entries(mut self, sims: Arc<PairSimilarities>) -> Self {
        self.shared = Some(sims);
        self
    }

    fn pool_ctx(&mut self) -> Arc<WorkerPool> {
        if let Some(pool) = &self.pool {
            return Arc::clone(pool);
        }
        let pool = Arc::new(WorkerPool::new(self.threads).with_telemetry(self.telemetry.clone()));
        self.pool = Some(Arc::clone(&pool));
        pool
    }

    /// The `Arc`-shared edge→slot permutation, re-copied only when its
    /// contents change (once per sweep).
    fn slot_ctx(&mut self, slot_of_edge: &[u32]) -> Arc<Vec<u32>> {
        if let Some(cached) = &self.slot_of_edge {
            if cached.as_slice() == slot_of_edge {
                return Arc::clone(cached);
            }
        }
        let fresh = Arc::new(slot_of_edge.to_vec());
        self.slot_of_edge = Some(Arc::clone(&fresh));
        fresh
    }

    /// Resolves where the chunk's entries live for the tasks: zero-copy
    /// inside the wired similarity list when possible, else buffered.
    fn entry_source(&mut self, entries: &[SimilarityEntry]) -> EntrySlice {
        if let Some(shared) = &self.shared {
            if let Some(offset) = slice_offset_within(shared.entries(), entries) {
                return EntrySlice::Shared(Arc::clone(shared), offset);
            }
        }
        let mut buf = Arc::get_mut(&mut self.entry_buf).map(std::mem::take).unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(entries);
        self.entry_buf = Arc::new(buf);
        EntrySlice::Buffered(Arc::clone(&self.entry_buf))
    }

    /// Refreshes the shared base snapshot from the committed array,
    /// stealing the previous snapshot's allocation when no task still
    /// holds it (the steady state).
    fn base_ctx(&mut self, c: &ClusterArray) -> Arc<ClusterArray> {
        let mut base = match Arc::get_mut(&mut self.base) {
            Some(prev) => std::mem::replace(prev, ClusterArray::new(0)),
            None => ClusterArray::new(0),
        };
        base.sync_from(c);
        self.base = Arc::new(base);
        Arc::clone(&self.base)
    }
}

impl ChunkProcessor for ParallelChunkProcessor {
    fn process_entries(
        &mut self,
        index: &Arc<EdgeIndex>,
        slot_of_edge: &[u32],
        entries: &[SimilarityEntry],
        c: &mut ClusterArray,
    ) -> Vec<MergeOutcome> {
        let telemetry = self.telemetry.clone();
        telemetry.add(Counter::ChunksProcessed, 1);
        if self.threads == 1 || entries.len() < self.threads * self.min_entries_per_thread {
            telemetry.add(Counter::SerialFallbackChunks, 1);
            let span = telemetry.span(Phase::ChunkProcess);
            let out = SerialChunkProcessor.process_entries(index, slot_of_edge, entries, c);
            span.finish();
            return out;
        }
        self.weights.clear();
        self.weights.extend(entries.iter().map(|e| e.pair_count() as u64));
        let (ranges, loads) = balanced_partition_with_loads(&self.weights, self.threads);
        if telemetry.is_enabled() {
            for (thread, &load) in loads.iter().enumerate() {
                telemetry.thread_items(thread, load);
            }
        }

        let pool = self.pool_ctx();
        let slot = self.slot_ctx(slot_of_edge);
        let source = self.entry_source(entries);
        let base = self.base_ctx(c);
        let k = ranges.len();
        while self.scratch.len() < k {
            self.scratch.push(Arc::new(Mutex::new(ClusterArray::new(0))));
        }

        // Step 1: every thread merges its entry range on its own scratch
        // copy, resynced in place from the base snapshot.
        let span = telemetry.span(Phase::ChunkProcess);
        let tasks: Vec<Task<()>> = ranges
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                let index = Arc::clone(index);
                let slot = Arc::clone(&slot);
                let base = Arc::clone(&base);
                let source = source.clone();
                let scratch = Arc::clone(&self.scratch[i]);
                Box::new(move || {
                    let mut local = lock_scratch(&scratch);
                    local.sync_from(&base);
                    SerialChunkProcessor.process_entries(&index, &slot, source.get(r), &mut local);
                }) as Task<()>
            })
            .collect();
        let _: Vec<()> = pool.run_tasks(tasks);
        span.finish();

        // Step 2: hierarchical pairwise combination, in place on the
        // scratch slots (disjoint pairs per round, so the locks never
        // contend), finishing with a short serial fold.
        let span = telemetry.span(Phase::ChunkCombine);
        telemetry.add(Counter::ArrayCombines, (k - 1) as u64);
        let mut alive: Vec<usize> = (0..k).collect();
        while alive.len() > 3 {
            let carry = if alive.len() % 2 == 1 { alive.pop() } else { None };
            let mut tasks: Vec<Task<usize>> = Vec::with_capacity(alive.len() / 2);
            let mut it = alive.into_iter();
            while let (Some(a), Some(b)) = (it.next(), it.next()) {
                let sa = Arc::clone(&self.scratch[a]);
                let sb = Arc::clone(&self.scratch[b]);
                tasks.push(Box::new(move || {
                    let mut target = lock_scratch(&sa);
                    let other = lock_scratch(&sb);
                    merge_cluster_arrays(&mut target, &other);
                    a
                }));
            }
            alive = pool.run_tasks(tasks);
            alive.extend(carry);
        }
        let mut merged = lock_scratch(&self.scratch[alive[0]]);
        for &j in &alive[1..] {
            let other = lock_scratch(&self.scratch[j]);
            merge_cluster_arrays(&mut merged, &other);
        }
        span.finish();

        // Debug builds verify the combined array is still a valid
        // descending-chain partition and only merged (never split) the
        // clusters of the pre-chunk state.
        linkclust_core::invariants::debug_check_cluster_array(&merged);
        linkclust_core::invariants::debug_check_refinement(&base, &merged);

        let outcomes = partition_diff(&base, &merged);
        c.sync_from(&merged);
        outcomes
    }
}

/// Runs the coarse-grained sweep with chunks processed by `threads`
/// worker threads. Produces the same partition trajectory (levels,
/// cluster counts, epoch decisions) as the serial
/// [`coarse_sweep`](linkclust_core::coarse::coarse_sweep). The chunk
/// workers read the entries zero-copy straight from the `Arc`-shared
/// `sorted` list.
///
/// # Panics
///
/// Panics if `threads == 0`, or under the same conditions as the serial
/// coarse sweep (unsorted input, degenerate config).
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
///
/// use linkclust_graph::generate::{gnm, WeightMode};
/// use linkclust_core::init::compute_similarities;
/// use linkclust_core::coarse::CoarseConfig;
/// use linkclust_parallel::parallel_coarse_sweep;
///
/// let g = gnm(30, 120, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 1);
/// let sims = Arc::new(compute_similarities(&g).into_sorted());
/// let cfg = CoarseConfig { phi: 10, initial_chunk: 16, ..Default::default() };
/// let r = parallel_coarse_sweep(&g, &sims, cfg, 4);
/// assert!(r.dendrogram().merge_count() > 0);
/// ```
#[must_use]
pub fn parallel_coarse_sweep<G: GraphView + ?Sized>(
    g: &G,
    sorted: &Arc<PairSimilarities>,
    config: CoarseConfig,
    threads: usize,
) -> CoarseResult {
    let mut processor = ParallelChunkProcessor::new(threads)
        .unwrap_or_else(|e| panic!("{e}"))
        .shared_entries(Arc::clone(sorted));
    coarse_sweep_with(g, sorted, config, &mut processor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkclust_core::coarse::coarse_sweep;
    use linkclust_core::init::compute_similarities;
    use linkclust_core::reference::canonical_labels;
    use linkclust_core::sweep::{sweep, SweepConfig};
    use linkclust_graph::generate::{barabasi_albert, gnm, WeightMode};

    fn canon(labels: &[u32]) -> Vec<usize> {
        canonical_labels(&labels.iter().map(|&x| x as usize).collect::<Vec<_>>())
    }

    #[test]
    fn matches_serial_coarse_trajectory() {
        for seed in 0..3 {
            let g = gnm(50, 220, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, seed);
            let sims = compute_similarities(&g).into_sorted();
            let cfg = CoarseConfig { phi: 5, initial_chunk: 8, ..Default::default() };
            let serial = coarse_sweep(&g, &sims, cfg);
            for threads in [2, 4] {
                // Force parallel processing even for small chunks so the
                // combination path is exercised.
                let mut proc =
                    ParallelChunkProcessor::new(threads).unwrap().min_entries_per_thread(1);
                let par = coarse_sweep_with(&g, &sims, cfg, &mut proc);
                // The partition trajectory must match level by level.
                let sl: Vec<_> = serial.levels().iter().map(|l| (l.level, l.clusters)).collect();
                let pl: Vec<_> = par.levels().iter().map(|l| (l.level, l.clusters)).collect();
                assert_eq!(sl, pl, "seed {seed} threads {threads}");
                assert_eq!(
                    canon(&serial.output().edge_assignments()),
                    canon(&par.output().edge_assignments()),
                    "seed {seed} threads {threads}"
                );
            }
        }
    }

    #[test]
    fn shared_entries_path_matches_buffered_path() {
        let g = gnm(50, 220, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 8);
        let sims = Arc::new(compute_similarities(&g).into_sorted());
        let cfg = CoarseConfig { phi: 5, initial_chunk: 8, ..Default::default() };
        let mut buffered = ParallelChunkProcessor::new(3).unwrap().min_entries_per_thread(1);
        let a = coarse_sweep_with(&g, &sims, cfg, &mut buffered);
        let mut shared = ParallelChunkProcessor::new(3)
            .unwrap()
            .min_entries_per_thread(1)
            .shared_entries(Arc::clone(&sims));
        let b = coarse_sweep_with(&g, &sims, cfg, &mut shared);
        assert_eq!(a.levels(), b.levels());
        assert_eq!(canon(&a.output().edge_assignments()), canon(&b.output().edge_assignments()));
    }

    #[test]
    fn processor_reuse_across_graphs_resyncs_context() {
        // A single processor must stay correct when reused across runs
        // over different graphs (the slot cache and scratch arrays are
        // per-chunk context that has to resync).
        let g1 = gnm(40, 170, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 1);
        let g2 = gnm(40, 170, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 2);
        let cfg = CoarseConfig { phi: 5, initial_chunk: 8, ..Default::default() };
        let mut proc = ParallelChunkProcessor::new(2).unwrap().min_entries_per_thread(1);
        for g in [&g1, &g2, &g1] {
            let sims = compute_similarities(g).into_sorted();
            let serial = coarse_sweep(g, &sims, cfg);
            let par = coarse_sweep_with(g, &sims, cfg, &mut proc);
            assert_eq!(serial.levels(), par.levels());
        }
    }

    #[test]
    fn power_law_graph_parallel_partition_is_correct() {
        let g = barabasi_albert(120, 5, WeightMode::Uniform { lo: 0.5, hi: 1.5 }, 4);
        let sims = compute_similarities(&g).into_sorted();
        let cfg = CoarseConfig { phi: 1, initial_chunk: 32, ..Default::default() };
        // phi = 1 processes everything: final partition must equal the
        // fine-grained single-linkage partition.
        let fine = sweep(&g, &sims, SweepConfig::default());
        let mut proc = ParallelChunkProcessor::new(3).unwrap().min_entries_per_thread(1);
        let par = coarse_sweep_with(&g, &sims, cfg, &mut proc);
        assert_eq!(canon(&fine.edge_assignments()), canon(&par.output().edge_assignments()));
    }

    #[test]
    fn single_thread_processor_is_serial() {
        let g = gnm(25, 80, WeightMode::Unit, 6);
        let sims = compute_similarities(&g).into_sorted();
        let cfg = CoarseConfig { phi: 3, initial_chunk: 4, ..Default::default() };
        let serial = coarse_sweep(&g, &sims, cfg);
        let par = parallel_coarse_sweep(&g, &Arc::new(sims), cfg, 1);
        assert_eq!(serial.levels(), par.levels());
    }

    #[test]
    fn dendrogram_cluster_accounting_is_exact() {
        let g = gnm(40, 170, WeightMode::Uniform { lo: 0.3, hi: 1.6 }, 2);
        let sims = compute_similarities(&g).into_sorted();
        let cfg = CoarseConfig { phi: 4, initial_chunk: 16, ..Default::default() };
        let mut proc = ParallelChunkProcessor::new(4).unwrap().min_entries_per_thread(1);
        let r = coarse_sweep_with(&g, &sims, cfg, &mut proc);
        // edge_count - merges == clusters at the last level.
        let last = r.levels().last().expect("at least one level");
        assert_eq!(r.dendrogram().final_cluster_count(), last.clusters);
    }
}

#[cfg(test)]
mod processor_equivalence_tests {
    use super::*;
    use linkclust_core::coarse::SerialChunkProcessor;
    use linkclust_core::init::compute_similarities;
    use linkclust_graph::generate::{gnm, WeightMode};

    #[test]
    fn processor_matches_serial_on_first_chunk() {
        let g = gnm(50, 220, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 0);
        let index = Arc::new(EdgeIndex::for_graph(&g));
        let sims = compute_similarities(&g).into_sorted();
        let entries = sims.entries();
        let slot: Vec<u32> = (0..g.edge_count() as u32).collect();
        // take first few entries as the chunk
        for take in [3usize, 5, 8, 12, 20] {
            let chunk = &entries[..take];
            let mut c_serial = ClusterArray::new(g.edge_count());
            SerialChunkProcessor.process_entries(&index, &slot, chunk, &mut c_serial);
            let mut c_par = ClusterArray::new(g.edge_count());
            let mut proc = ParallelChunkProcessor::new(2).unwrap().min_entries_per_thread(1);
            proc.process_entries(&index, &slot, chunk, &mut c_par);
            assert_eq!(c_serial.assignments(), c_par.assignments(), "take={take}");
            assert_eq!(c_serial.cluster_count(), c_par.cluster_count(), "take={take}");
            assert_eq!(c_par.cluster_count(), c_par.count_roots(), "live counter must stay exact");
        }
    }
}
