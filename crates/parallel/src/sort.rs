//! Parallel sorting of the similarity list.
//!
//! The paper parallelizes the initialization passes and the sweep but
//! leaves the O(K₁ log K₁) sort of list `L` serial. On large graphs the
//! sort is a visible fraction of Phase II, so this module adds a pooled
//! parallel merge sort: split into `T` runs, sort each as a task on the
//! persistent [`WorkerPool`], then merge pairwise with the same
//! hierarchical shape as the paper's map/array combination steps. The
//! merge rounds recycle the spent input vectors of the previous round as
//! output buffers (`merge_two_into`), so after the first round no merge
//! allocates. Documented as an extension in DESIGN.md.

use std::sync::Arc;

use linkclust_core::telemetry::{Phase, Telemetry};
use linkclust_core::{PairSimilarities, SimilarityEntry};

use crate::pool::{partition_ranges, Task, WorkerPool};

/// `true` when the input is too small for fan-out to pay off.
fn sort_serially(len: usize, threads: usize) -> bool {
    threads == 1 || len < 4 * threads || len < 64
}

/// What one pooled merge task returns: the merged run plus its two spent
/// input buffers (empty, capacity intact) for recycling.
type MergeRound<T> = (Vec<T>, Vec<T>, Vec<T>);

/// Sorts arbitrary data with a parallel merge sort on `pool`: `T` runs
/// sorted as pool tasks, then merged pairwise. `compare` must be a strict
/// weak ordering. Falls back to the standard library sort for small
/// inputs or a one-thread pool.
#[must_use]
pub fn parallel_sort_pooled<T, F>(pool: &WorkerPool, mut items: Vec<T>, compare: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(&T, &T) -> std::cmp::Ordering + Send + Sync + 'static,
{
    let threads = pool.threads();
    if sort_serially(items.len(), threads) {
        items.sort_by(compare);
        return items;
    }
    let ranges = partition_ranges(items.len(), threads);
    // Carve the vector into runs (preserving order).
    let mut runs: Vec<Vec<T>> = Vec::with_capacity(ranges.len());
    for range in ranges.into_iter().rev() {
        runs.push(items.split_off(range.start));
    }
    runs.reverse();
    let compare = Arc::new(compare);
    // Sort each run as a pool task.
    let sort_tasks: Vec<Task<Vec<T>>> = runs
        .into_iter()
        .map(|mut run| {
            let compare = Arc::clone(&compare);
            Box::new(move || {
                run.sort_by(|a, b| compare(a, b));
                run
            }) as Task<Vec<T>>
        })
        .collect();
    let mut runs = pool.run_tasks(sort_tasks);

    // Merge pairwise, hierarchically. Each merge returns its two spent
    // inputs (empty, capacity intact); they become the output buffers of
    // the next round, so only the first round allocates.
    let mut spare: Vec<Vec<T>> = Vec::new();
    while runs.len() > 1 {
        let carry = if runs.len() % 2 == 1 { runs.pop() } else { None };
        let mut merge_tasks: Vec<Task<MergeRound<T>>> = Vec::with_capacity(runs.len() / 2);
        let mut it = runs.into_iter();
        while let (Some(a), Some(b)) = (it.next(), it.next()) {
            let compare = Arc::clone(&compare);
            let out = spare.pop().unwrap_or_default();
            merge_tasks.push(Box::new(move || {
                let (mut a, mut b, mut out) = (a, b, out);
                merge_two_into(&mut a, &mut b, &mut out, &*compare);
                (out, a, b)
            }));
        }
        runs = Vec::with_capacity(merge_tasks.len() + 1);
        for (merged, spent_a, spent_b) in pool.run_tasks(merge_tasks) {
            runs.push(merged);
            spare.push(spent_a);
            spare.push(spent_b);
        }
        runs.extend(carry);
    }
    runs.pop().unwrap_or_default()
}

/// Merges two sorted vectors into `out` (cleared first), draining both
/// inputs; ties prefer `a`, keeping run order stable. The inputs come
/// back empty with their capacity intact, ready for reuse as future
/// output buffers.
fn merge_two_into<T, F>(a: &mut Vec<T>, b: &mut Vec<T>, out: &mut Vec<T>, compare: &F)
where
    F: Fn(&T, &T) -> std::cmp::Ordering,
{
    out.clear();
    out.reserve(a.len() + b.len());
    let mut ia = a.drain(..).peekable();
    let mut ib = b.drain(..).peekable();
    while let (Some(x), Some(y)) = (ia.peek(), ib.peek()) {
        if compare(x, y) != std::cmp::Ordering::Greater {
            out.extend(ia.next());
        } else {
            out.extend(ib.next());
        }
    }
    out.extend(ia);
    out.extend(ib);
}

/// Sorts a [`PairSimilarities`] into the list `L` (non-increasing score,
/// ties by vertex pair) using `threads` worker threads on a transient
/// pool. Produces exactly the same order as
/// [`PairSimilarities::into_sorted`]; an already sorted input is
/// returned without spawning a pool.
///
/// # Panics
///
/// Panics if `threads == 0` and `sims` is unsorted.
#[must_use]
pub fn parallel_into_sorted(sims: PairSimilarities, threads: usize) -> PairSimilarities {
    if sims.is_sorted() {
        return sims;
    }
    parallel_into_sorted_pooled(&WorkerPool::new(threads), sims, &Telemetry::disabled())
}

/// [`parallel_into_sorted`] on a caller-supplied [`WorkerPool`], under a
/// [`Phase::Sort`] span (recorded even when the input is already sorted,
/// so run reports always account for the phase).
#[must_use]
pub fn parallel_into_sorted_pooled(
    pool: &WorkerPool,
    sims: PairSimilarities,
    telemetry: &Telemetry,
) -> PairSimilarities {
    let _span = telemetry.span(Phase::Sort);
    if sims.is_sorted() {
        return sims;
    }
    let entries: Vec<SimilarityEntry> = sims.into_iter().collect();
    let sorted = parallel_sort_pooled(pool, entries, |a: &SimilarityEntry, b: &SimilarityEntry| {
        b.score.total_cmp(&a.score).then_with(|| a.pair.cmp(&b.pair))
    });
    PairSimilarities::from_sorted(sorted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkclust_core::init::compute_similarities;
    use linkclust_graph::generate::{gnm, WeightMode};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn sorts_like_std() {
        let mut rng = SmallRng::seed_from_u64(1);
        for n in [0usize, 1, 5, 63, 64, 100, 1000, 4097] {
            let items: Vec<u64> = (0..n).map(|_| rng.gen_range(0..10_000)).collect();
            let mut expected = items.clone();
            expected.sort();
            for threads in [1, 2, 3, 4, 7] {
                let got = parallel_sort_pooled(&WorkerPool::new(threads), items.clone(), u64::cmp);
                assert_eq!(got, expected, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn pooled_sort_reuses_one_pool_across_calls() {
        let pool = WorkerPool::new(4);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..5 {
            let items: Vec<u64> = (0..700).map(|_| rng.gen_range(0..10_000)).collect();
            let mut expected = items.clone();
            expected.sort();
            assert_eq!(parallel_sort_pooled(&pool, items, |a, b| a.cmp(b)), expected);
        }
    }

    #[test]
    fn stable_for_equal_keys_in_merge_order() {
        // merge_two_into prefers the left run on ties, so items with
        // equal keys keep run-relative order — verify output is sorted
        // and a permutation.
        let items: Vec<(u32, u32)> = (0..500).map(|i| (i % 7, i)).collect();
        let got = parallel_sort_pooled(&WorkerPool::new(4), items.clone(), |a, b| a.0.cmp(&b.0));
        assert!(got.windows(2).all(|w| w[0].0 <= w[1].0));
        let mut a = got;
        a.sort();
        let mut b = items;
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn merge_two_into_drains_and_recycles() {
        let mut a = vec![1u32, 3, 5];
        let mut b = vec![2u32, 3, 6];
        let mut out = Vec::new();
        merge_two_into(&mut a, &mut b, &mut out, &|x: &u32, y: &u32| x.cmp(y));
        assert_eq!(out, vec![1, 2, 3, 3, 5, 6]);
        assert!(a.is_empty() && b.is_empty());
        assert!(a.capacity() >= 3 && b.capacity() >= 3, "capacity must survive for reuse");
    }

    #[test]
    fn parallel_l_matches_serial_l() {
        for seed in 0..3 {
            let g = gnm(40, 200, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, seed);
            let serial = compute_similarities(&g).into_sorted();
            for threads in [1, 2, 4] {
                let parallel = parallel_into_sorted(compute_similarities(&g), threads);
                assert!(parallel.is_sorted());
                assert_eq!(serial.entries(), parallel.entries(), "threads {threads}");
            }
        }
    }

    #[test]
    fn already_sorted_is_noop() {
        let g = gnm(20, 60, WeightMode::Unit, 2);
        let sorted = compute_similarities(&g).into_sorted();
        let again = parallel_into_sorted(sorted.clone(), 4);
        assert_eq!(sorted, again);
    }
}
