//! The cluster array `C` of Algorithm 2.
//!
//! `C` maps every edge index to another edge index with `C[i] ≤ i`; the
//! chain `F(i) = {i} ∪ F(C[i])` (Eq. 4) descends to a self-pointing root,
//! and `min F(i)` — the root — is the cluster id of edge `i` (Theorem 1).
//!
//! The `MERGE` procedure rewrites every element of both chains to the
//! smaller root; the paper's complexity argument (Theorem 2's
//! `√K₂·|E|` term) bounds exactly these chain rewrites.

/// The array `C` over `n` edge indices, plus bookkeeping (live cluster
/// count and a write counter that backs Fig. 2(1)).
///
/// # Examples
///
/// ```
/// use linkclust_core::ClusterArray;
///
/// let mut c = ClusterArray::new(4);
/// assert_eq!(c.cluster_count(), 4);
/// let m = c.merge(1, 3).expect("distinct clusters merge");
/// assert_eq!((m.left, m.right, m.into), (1, 3, 1));
/// assert_eq!(c.cluster_count(), 3);
/// assert_eq!(c.root_of(3), 1);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ClusterArray {
    c: Vec<u32>,
    clusters: usize,
    changes: u64,
}

/// The outcome of a successful [`ClusterArray::merge`]: two distinct
/// clusters `left` and `right` became `into = min(left, right)` — the
/// dendrogram event of Eq. 5.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MergeOutcome {
    /// Root of the first cluster before the merge.
    pub left: u32,
    /// Root of the second cluster before the merge.
    pub right: u32,
    /// The surviving root, `min(left, right)`.
    pub into: u32,
}

impl ClusterArray {
    /// Creates `C` with every edge in its own cluster (`C[i] = i`).
    #[must_use]
    pub fn new(n: usize) -> Self {
        ClusterArray { c: (0..n as u32).collect(), clusters: n, changes: 0 }
    }

    /// Reconstructs a `ClusterArray` from a raw parent vector.
    ///
    /// Used by the parallel sweep when combining per-thread copies.
    ///
    /// # Panics
    ///
    /// Panics if any `c[i] > i` (chains must descend).
    #[must_use]
    pub fn from_parents(c: Vec<u32>) -> Self {
        for (i, &p) in c.iter().enumerate() {
            assert!(p as usize <= i, "C[{i}] = {p} violates the descending-chain invariant");
        }
        let clusters = c.iter().enumerate().filter(|&(i, &p)| p as usize == i).count();
        ClusterArray { c, clusters, changes: 0 }
    }

    /// Number of edges (the array length).
    #[must_use]
    pub fn len(&self) -> usize {
        self.c.len()
    }

    /// Returns `true` if the array is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.c.is_empty()
    }

    /// The raw parent of edge `i` (`C[i]`).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    #[must_use]
    pub fn parent(&self, i: usize) -> u32 {
        self.c[i]
    }

    /// Overwrites `C[i]`; exposed for the parallel array-merge scheme.
    /// The live cluster count tracks root creation/destruction exactly.
    ///
    /// # Panics
    ///
    /// Panics if `value > i` (the chain must descend) or `i` is out of
    /// bounds.
    #[inline]
    pub fn set_parent(&mut self, i: usize, value: u32) {
        assert!(
            value as usize <= i,
            "C[{i}] = {value} would violate the descending-chain invariant"
        );
        if self.c[i] != value {
            let was_root = self.c[i] as usize == i;
            let is_root = value as usize == i;
            self.c[i] = value;
            self.changes += 1;
            match (was_root, is_root) {
                (true, false) => self.clusters -= 1,
                (false, true) => self.clusters += 1,
                _ => {}
            }
        }
    }

    /// The chain `F(i)` of Eq. 4: `i, C[i], C[C[i]], …` down to the
    /// self-pointing root (inclusive).
    #[must_use]
    pub fn chain(&self, i: usize) -> Vec<u32> {
        let mut out = vec![i as u32];
        let mut cur = i;
        while self.c[cur] as usize != cur {
            cur = self.c[cur] as usize;
            out.push(cur as u32);
        }
        out
    }

    /// The cluster id of edge `i`: `min F(i)`, i.e. the chain's root
    /// (Theorem 1).
    #[must_use]
    pub fn root_of(&self, i: usize) -> u32 {
        let mut cur = i;
        while self.c[cur] as usize != cur {
            cur = self.c[cur] as usize;
        }
        cur as u32
    }

    /// The paper's `MERGE(i₁, i₂)`: rewrites both chains to the smaller
    /// root. Returns `Some(outcome)` if the edges were in distinct
    /// clusters (a dendrogram-level event), `None` otherwise.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn merge(&mut self, i1: usize, i2: usize) -> Option<MergeOutcome> {
        let c1 = self.root_of(i1);
        let c2 = self.root_of(i2);
        let cmin = c1.min(c2);
        // Rewriting F(i1) first cannot change which elements F(i2) must
        // rewrite: disjoint chains stay disjoint, and where the chains
        // meet, the rest of F(i2) is already cmin.
        self.rewrite_chain(i1, cmin);
        self.rewrite_chain(i2, cmin);
        if c1 != c2 {
            self.clusters -= 1;
            Some(MergeOutcome { left: c1, right: c2, into: cmin })
        } else {
            None
        }
    }

    /// Points every element of the chain `F(i)` at `root`, counting the
    /// writes that change a value. Each element's parent is read before
    /// it is overwritten, so the walk follows the chain as it was.
    fn rewrite_chain(&mut self, i: usize, root: u32) {
        let mut cur = i;
        loop {
            let next = self.c[cur] as usize;
            if self.c[cur] != root {
                self.c[cur] = root;
                self.changes += 1;
            }
            if next == cur {
                break;
            }
            cur = next;
        }
    }

    /// Makes `self` an exact copy of `other` — same parents, cluster
    /// count, and write counter — **without allocating** when `self`
    /// already has sufficient capacity.
    ///
    /// This is the resync primitive of the parallel chunk pipeline: each
    /// worker keeps a persistent scratch array that is resynced from the
    /// committed array before every chunk, replacing the per-chunk
    /// `clone()` (and its O(|E|) heap allocation) with a plain
    /// `copy_from_slice`.
    pub fn sync_from(&mut self, other: &ClusterArray) {
        if self.c.len() == other.c.len() {
            self.c.copy_from_slice(&other.c);
        } else {
            self.c.clear();
            self.c.extend_from_slice(&other.c);
        }
        self.clusters = other.clusters;
        self.changes = other.changes;
    }

    /// The current number of clusters (maintained incrementally by
    /// [`merge`](Self::merge)).
    #[must_use]
    pub fn cluster_count(&self) -> usize {
        self.clusters
    }

    /// Recounts clusters by scanning for self-pointing roots — the
    /// paper's "use array C to calculate the current number of clusters".
    #[must_use]
    pub fn count_roots(&self) -> usize {
        self.c.iter().enumerate().filter(|&(i, &p)| p as usize == i).count()
    }

    /// Resolves every edge to its cluster root.
    #[must_use]
    pub fn assignments(&self) -> Vec<u32> {
        (0..self.len()).map(|i| self.root_of(i)).collect()
    }

    /// Total number of element writes to `C` so far (backs Fig. 2(1)).
    #[must_use]
    pub fn changes(&self) -> u64 {
        self.changes
    }

    /// Resets the write counter and returns its previous value.
    pub fn take_changes(&mut self) -> u64 {
        std::mem::take(&mut self.changes)
    }

    /// The raw parent vector.
    #[must_use]
    pub fn parents(&self) -> &[u32] {
        &self.c
    }
}

/// Derives the merge events that turn the partition of `finer` into the
/// partition of `coarser`: for every cluster of `coarser` containing the
/// finer roots `r₁ < r₂ < … < r_k`, emits the k−1 events
/// `(r₁, r₂ → r₁), (r₁, r₃ → r₁), …`.
///
/// Used when a chunk's merges are performed out-of-order (parallel sweep)
/// or replayed from a saved rollback state: the dendrogram needs *some*
/// valid merge sequence with the right cluster counts, and the diff is the
/// canonical one.
///
/// # Panics
///
/// Panics if the arrays have different lengths or `coarser` is not a
/// coarsening of `finer` (two edges sharing a cluster in `finer` must
/// share one in `coarser`).
#[must_use]
pub fn partition_diff(finer: &ClusterArray, coarser: &ClusterArray) -> Vec<MergeOutcome> {
    assert_eq!(finer.len(), coarser.len(), "partitions must cover the same edges");
    let mut groups: std::collections::HashMap<u32, Vec<u32>> = std::collections::HashMap::new();
    let mut seen: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    for i in 0..finer.len() {
        let fr = finer.root_of(i);
        let cr = coarser.root_of(i);
        match seen.entry(fr) {
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(cr);
                groups.entry(cr).or_default().push(fr);
            }
            std::collections::hash_map::Entry::Occupied(o) => {
                assert_eq!(
                    *o.get(),
                    cr,
                    "coarser partition splits finer cluster {fr}: not a coarsening"
                );
            }
        }
    }
    let mut out = Vec::new();
    let mut roots: Vec<(u32, Vec<u32>)> = groups.into_iter().collect();
    roots.sort_unstable_by_key(|&(cr, _)| cr);
    for (_, mut members) in roots {
        members.sort_unstable();
        let target = members[0];
        for &r in &members[1..] {
            out.push(MergeOutcome { left: target, right: r, into: target });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_array_is_identity() {
        let c = ClusterArray::new(5);
        assert_eq!(c.parents(), &[0, 1, 2, 3, 4]);
        assert_eq!(c.cluster_count(), 5);
        assert_eq!(c.count_roots(), 5);
        assert_eq!(c.chain(3), vec![3]);
    }

    #[test]
    fn merge_points_to_smaller_root() {
        let mut c = ClusterArray::new(4);
        let m = c.merge(2, 3).unwrap();
        assert_eq!(m.into, 2);
        let m = c.merge(3, 0).unwrap();
        assert_eq!(m, MergeOutcome { left: 2, right: 0, into: 0 });
        assert_eq!(c.root_of(2), 0);
        assert_eq!(c.root_of(3), 0);
        assert_eq!(c.cluster_count(), 2);
    }

    #[test]
    fn merge_same_cluster_returns_none() {
        let mut c = ClusterArray::new(3);
        c.merge(0, 1).unwrap();
        assert!(c.merge(1, 0).is_none());
        assert_eq!(c.cluster_count(), 2);
    }

    #[test]
    fn merge_flattens_both_chains() {
        let mut c = ClusterArray::new(6);
        c.merge(4, 5);
        c.merge(2, 3);
        c.merge(5, 3); // chains {4,5}->4? actually roots 4 and 2
                       // After merging, every member of both chains points directly at 2.
        for i in [2, 3, 4, 5] {
            assert_eq!(c.parent(i), 2, "C[{i}]");
        }
    }

    #[test]
    fn changes_counts_only_real_writes() {
        let mut c = ClusterArray::new(4);
        c.merge(0, 1); // writes C[1] = 0
        assert_eq!(c.changes(), 1);
        c.merge(0, 1); // same cluster: C[0]=0, C[1]=0 already
        assert_eq!(c.changes(), 1);
        assert_eq!(c.take_changes(), 1);
        assert_eq!(c.changes(), 0);
    }

    #[test]
    fn assignments_resolve_roots() {
        let mut c = ClusterArray::new(5);
        c.merge(1, 3);
        c.merge(3, 4);
        assert_eq!(c.assignments(), vec![0, 1, 2, 1, 1]);
    }

    #[test]
    fn from_parents_validates_and_counts() {
        let c = ClusterArray::from_parents(vec![0, 0, 2, 2]);
        assert_eq!(c.cluster_count(), 2);
        assert_eq!(c.root_of(3), 2);
    }

    #[test]
    #[should_panic(expected = "descending-chain")]
    fn from_parents_rejects_ascending() {
        let _ = ClusterArray::from_parents(vec![1, 1]);
    }

    #[test]
    #[should_panic(expected = "descending-chain")]
    fn set_parent_rejects_ascending() {
        let mut c = ClusterArray::new(3);
        c.set_parent(0, 2);
    }

    #[test]
    fn long_chain_resolution() {
        // Build a chain 4 -> 3 -> 2 -> 1 -> 0 manually through merges that
        // never flatten the whole structure at once.
        let mut c = ClusterArray::new(5);
        c.merge(0, 1);
        c.merge(2, 3);
        c.merge(3, 4); // same cluster as 2 now
        c.merge(4, 1);
        assert_eq!(c.root_of(4), 0);
        assert_eq!(c.cluster_count(), 1);
        assert_eq!(c.count_roots(), 1);
    }

    #[test]
    fn partition_diff_emits_group_merges() {
        let mut fine = ClusterArray::new(6);
        fine.merge(0, 1); // {0,1} {2} {3} {4} {5}
        let mut coarse = fine.clone();
        coarse.merge(1, 2); // {0,1,2}
        coarse.merge(4, 5); // {4,5}
        let diff = partition_diff(&fine, &coarse);
        assert_eq!(
            diff,
            vec![
                MergeOutcome { left: 0, right: 2, into: 0 },
                MergeOutcome { left: 4, right: 5, into: 4 },
            ]
        );
    }

    #[test]
    fn partition_diff_of_identical_is_empty() {
        let mut c = ClusterArray::new(4);
        c.merge(0, 3);
        assert!(partition_diff(&c, &c.clone()).is_empty());
    }

    #[test]
    #[should_panic(expected = "coarsening")]
    fn partition_diff_rejects_non_coarsening() {
        let mut a = ClusterArray::new(3);
        a.merge(0, 1);
        let mut b = ClusterArray::new(3);
        b.merge(1, 2);
        let _ = partition_diff(&a, &b);
    }

    #[test]
    fn partition_diff_reduces_cluster_count_correctly() {
        let mut fine = ClusterArray::new(10);
        for i in (1..10).step_by(2) {
            fine.merge(i - 1, i);
        }
        let mut coarse = fine.clone();
        coarse.merge(0, 9);
        coarse.merge(2, 5);
        let diff = partition_diff(&fine, &coarse);
        assert_eq!(fine.cluster_count() - diff.len(), coarse.cluster_count());
    }

    #[test]
    fn sync_from_is_clone_without_allocation() {
        let mut src = ClusterArray::new(6);
        src.merge(0, 3);
        src.merge(2, 5);
        let mut dst = ClusterArray::new(6);
        dst.merge(1, 4); // diverge first: resync must overwrite
        dst.sync_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.changes(), src.changes());
        // Length-changing resync still works (falls back to extend).
        let mut short = ClusterArray::new(2);
        short.sync_from(&src);
        assert_eq!(short, src);
    }

    #[test]
    fn empty_array() {
        let c = ClusterArray::new(0);
        assert!(c.is_empty());
        assert_eq!(c.cluster_count(), 0);
        assert!(c.assignments().is_empty());
    }

    /// The original `MERGE`: collect both chains with [`ClusterArray::chain`]
    /// first, then rewrite every collected element.
    fn merge_by_collected_chains(
        c: &mut ClusterArray,
        i1: usize,
        i2: usize,
    ) -> Option<MergeOutcome> {
        let f1 = c.chain(i1);
        let f2 = c.chain(i2);
        let c1 = *f1.last().expect("chains are non-empty");
        let c2 = *f2.last().expect("chains are non-empty");
        let cmin = c1.min(c2);
        for &j in f1.iter().chain(&f2) {
            if c.c[j as usize] != cmin {
                c.c[j as usize] = cmin;
                c.changes += 1;
            }
        }
        if c1 == c2 {
            return None;
        }
        c.clusters -= 1;
        Some(MergeOutcome { left: c1, right: c2, into: cmin })
    }

    proptest::proptest! {
        /// The in-place `merge` leaves the same array, write count, and
        /// cluster count as the chain-collecting original, and reports
        /// the same outcome, after every step of a random sequence.
        #[test]
        fn in_place_merge_matches_collected_chains(
            n in 1usize..40,
            ops in proptest::collection::vec((0usize..40, 0usize..40), 0..120),
        ) {
            let mut fast = ClusterArray::new(n);
            let mut oracle = ClusterArray::new(n);
            for (a, b) in ops {
                let (a, b) = (a % n, b % n);
                proptest::prop_assert_eq!(
                    fast.merge(a, b),
                    merge_by_collected_chains(&mut oracle, a, b)
                );
                proptest::prop_assert_eq!(&fast, &oracle);
            }
        }
    }
}
