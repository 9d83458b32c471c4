//! Classic disjoint-set union-find (path compression + union by rank),
//! plus a lock-free concurrent variant for the parallel sweep engine.
//!
//! [`UnionFind`] backs the production sweep
//! ([`union_find_sweep_with`](crate::sweep::union_find_sweep_with)) and
//! the MST baseline ([`baseline::mst`](crate::baseline::mst)). It replaces
//! the paper's chain array `C` ([`ClusterArray`](crate::ClusterArray)):
//! union-find achieves near-O(1) amortized finds but does not preserve the
//! "min index is the cluster id" labelling that the paper's dendrogram
//! output relies on, so we track the minimum element per set explicitly.
//!
//! [`ConcurrentUnionFind`] is the CAS-based variant backing the boundary
//! stitch of the `ufsweep` engine (Anderson–Woll style: rank and parent
//! packed into one atomic word so the link CAS validates both, with path
//! splitting during finds). It intentionally does *not* track per-set
//! minima — the sweep engine recovers the paper's min-labelled merge
//! records in a separate exact serial replay over the surviving unions.

use std::sync::atomic::{AtomicU64, Ordering};

/// A disjoint-set forest over `n` elements, tracking each set's minimum
/// element (the cluster id convention of the paper).
///
/// # Examples
///
/// ```
/// use linkclust_core::unionfind::UnionFind;
///
/// let mut uf = UnionFind::new(5);
/// assert!(uf.union(1, 4));
/// assert!(!uf.union(4, 1)); // already joined
/// assert_eq!(uf.min_of(4), 1);
/// assert_eq!(uf.set_count(), 4);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
    min: Vec<u32>,
    sets: usize,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    #[must_use]
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
            min: (0..n as u32).collect(),
            sets: n,
        }
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Returns `true` if there are no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// The representative of `i`'s set (with path compression).
    pub fn find(&mut self, i: usize) -> u32 {
        let mut root = i;
        while self.parent[root] as usize != root {
            root = self.parent[root] as usize;
        }
        let mut cur = i;
        while cur != root {
            let next = self.parent[cur] as usize;
            self.parent[cur] = root as u32;
            cur = next;
        }
        root as u32
    }

    /// The smallest element in `i`'s set — the paper's cluster id.
    pub fn min_of(&mut self, i: usize) -> u32 {
        let r = self.find(i);
        self.min[r as usize]
    }

    /// Joins the sets of `a` and `b`. Returns `true` if they were
    /// distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        self.union_minima(a, b).is_some()
    }

    /// Joins the sets of `a` and `b` and returns both sets' minima from
    /// before the join — the `(left, right)` cluster ids of the paper's
    /// merge event, whose minimum is the surviving id — or `None` if
    /// they were already one set. Costs two finds.
    ///
    /// ```
    /// use linkclust_core::unionfind::UnionFind;
    ///
    /// let mut uf = UnionFind::new(5);
    /// assert_eq!(uf.union_minima(4, 2), Some((4, 2)));
    /// assert_eq!(uf.union_minima(1, 4), Some((1, 2)));
    /// assert_eq!(uf.union_minima(2, 1), None);
    /// ```
    pub fn union_minima(&mut self, a: usize, b: usize) -> Option<(u32, u32)> {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return None;
        }
        let (left, right) = (self.min[ra as usize], self.min[rb as usize]);
        let (hi, lo) =
            if self.rank[ra as usize] >= self.rank[rb as usize] { (ra, rb) } else { (rb, ra) };
        self.parent[lo as usize] = hi;
        if self.rank[hi as usize] == self.rank[lo as usize] {
            self.rank[hi as usize] += 1;
        }
        self.min[hi as usize] = left.min(right);
        self.sets -= 1;
        Some((left, right))
    }

    /// Returns `true` if `a` and `b` are in the same set.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// The number of disjoint sets.
    #[must_use]
    pub fn set_count(&self) -> usize {
        self.sets
    }

    /// Resolves every element to its set's minimum element (comparable
    /// with [`ClusterArray::assignments`](crate::ClusterArray::assignments)).
    pub fn assignments(&mut self) -> Vec<u32> {
        (0..self.len()).map(|i| self.min_of(i)).collect()
    }
}

/// A lock-free disjoint-set forest shared across threads by `&self`.
///
/// Each element stores `(rank, parent)` packed into a single
/// [`AtomicU64`]. Linking is a compare-exchange on the *child root's
/// whole word*, which simultaneously validates "still a root" and "rank
/// unchanged"; because ranks of roots only ever grow and a node's parent
/// never reverts to itself, two racing `unite` calls can never install a
/// parent cycle (the classic unpacked-rank hazard). Finds perform path
/// splitting: every visited node is CAS-pointed at its grandparent, so
/// chains halve on traversal without coordination.
///
/// Unlike [`UnionFind`] this structure does not track per-set minima —
/// concurrent min maintenance would need a second linked CAS. The sweep
/// engine that uses it derives min-labelled merge records afterwards by
/// replaying the surviving unions through a serial [`UnionFind`].
///
/// # Examples
///
/// ```
/// use linkclust_core::unionfind::ConcurrentUnionFind;
///
/// let uf = ConcurrentUnionFind::new(5);
/// assert!(uf.unite(1, 4));
/// assert!(!uf.unite(4, 1)); // already joined
/// assert!(uf.same_set(1, 4));
/// assert_eq!(uf.set_count(), 4);
/// ```
#[derive(Debug)]
pub struct ConcurrentUnionFind {
    /// `word = rank << 32 | parent`. Rank is only meaningful while the
    /// node is a root; it freezes once the node is linked under another.
    node: Vec<AtomicU64>,
}

const fn pack(parent: u32, rank: u32) -> u64 {
    ((rank as u64) << 32) | parent as u64
}

const fn parent_of(word: u64) -> u32 {
    word as u32 // cast: deliberate truncation — the low half is the parent
}

const fn rank_of(word: u64) -> u32 {
    (word >> 32) as u32 // cast: the high half is the rank; shift makes it exact
}

impl ConcurrentUnionFind {
    /// Creates `n` singleton sets.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds `u32::MAX` (element ids are 32-bit, matching
    /// the workspace-wide edge-id width).
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(u32::try_from(n).is_ok(), "ConcurrentUnionFind holds at most u32::MAX elements");
        ConcurrentUnionFind {
            node: (0..n as u32).map(|i| AtomicU64::new(pack(i, 0))).collect(), // cast: n <= u32::MAX asserted above
        }
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.node.len()
    }

    /// Returns `true` if there are no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.node.is_empty()
    }

    /// The representative of `i`'s set at some point during the call
    /// (with path splitting). Concurrent `unite`s may change the
    /// representative immediately after; within a quiescent phase the
    /// value is stable.
    #[must_use]
    pub fn find(&self, i: u32) -> u32 {
        let mut cur = i;
        loop {
            // cast: u32 id to index, lossless on 64-bit.
            // ordering: Acquire pairs with the link CAS in `unite`.
            let w = self.node[cur as usize].load(Ordering::Acquire);
            let p = parent_of(w);
            if p == cur {
                return cur;
            }
            // ordering: same Acquire pairing for the grandparent hop.
            // cast: u32 id to index, lossless on 64-bit.
            let gw = self.node[p as usize].load(Ordering::Acquire);
            let gp = parent_of(gw);
            if gp != p {
                // Path splitting: point `cur` at its grandparent. Failure
                // means someone else already re-pointed it — ignore.
                // cast: u32 id to index, lossless on 64-bit.
                let _ = self.node[cur as usize].compare_exchange_weak(
                    w,
                    pack(gp, rank_of(w)),
                    // ordering: AcqRel republishes the pointer we
                    // just Acquired on success.
                    Ordering::AcqRel,
                    // ordering: Relaxed on failure, value discarded.
                    Ordering::Relaxed,
                );
            }
            cur = p;
        }
    }

    /// Joins the sets of `a` and `b`. Returns `true` in exactly one
    /// caller per merged pair of sets: every `true` reduces the number of
    /// disjoint sets by one, so the total count of `true` results across
    /// all threads equals `n - set_count()` once quiescent.
    #[must_use]
    pub fn unite(&self, a: u32, b: u32) -> bool {
        let (mut a, mut b) = (a, b);
        loop {
            let ra = self.find(a);
            let rb = self.find(b);
            if ra == rb {
                return false;
            }
            // Re-read both candidate roots' words: the link CAS below
            // validates the child's word, and the `parent_of` checks here
            // make the direction decision from genuine root snapshots
            // (stale non-root words could invert the rank comparison).
            // ordering: Acquire pairs with the link CAS so a stale root
            // is reliably detected as non-root. cast: u32 id to index.
            let wa = self.node[ra as usize].load(Ordering::Acquire);
            // ordering: see above. cast: u32 id to index.
            let wb = self.node[rb as usize].load(Ordering::Acquire);
            if parent_of(wa) != ra || parent_of(wb) != rb {
                a = ra;
                b = rb;
                continue;
            }
            let (ka, kb) = (rank_of(wa), rank_of(wb));
            // Union by rank; ties link the larger id under the smaller.
            // The CAS on the child's full word validates (root, rank)
            // together, which is what makes racing opposite-direction
            // links impossible (one of them must observe a changed word).
            let (child, child_word, root) =
                if ka < kb || (ka == kb && ra > rb) { (ra, wa, rb) } else { (rb, wb, ra) };
            // cast: u32 id to index, lossless on 64-bit.
            if self.node[child as usize]
                .compare_exchange(
                    child_word,
                    pack(root, rank_of(child_word)),
                    // ordering: the Release half publishes the link
                    // (paired with the Acquire loads in `find`).
                    Ordering::AcqRel,
                    // ordering: Acquire on failure so the retry's
                    // re-reads start from the freshest words.
                    Ordering::Acquire,
                )
                .is_ok()
            {
                if ka == kb {
                    // Best-effort rank bump on the surviving root; a
                    // failure means the root was concurrently linked or
                    // bumped, and approximate ranks only cost balance,
                    // never correctness.
                    // cast: u32 id to index, lossless on 64-bit.
                    let _ = self.node[root as usize].compare_exchange(
                        pack(root, ka),
                        pack(root, ka + 1),
                        // ordering: AcqRel for the same publish pairing
                        // as the link CAS.
                        Ordering::AcqRel,
                        // ordering: Relaxed on failure, value discarded.
                        Ordering::Relaxed,
                    );
                }
                return true;
            }
            a = ra;
            b = rb;
        }
    }

    /// Returns `true` if `a` and `b` are in the same set. A `false`
    /// answer is witnessed by a representative of `a` that was still a
    /// root after `b`'s set was resolved, so under quiescence the answer
    /// is exact.
    #[must_use]
    pub fn same_set(&self, a: u32, b: u32) -> bool {
        let (mut a, mut b) = (a, b);
        loop {
            let ra = self.find(a);
            let rb = self.find(b);
            if ra == rb {
                return true;
            }
            // If no one linked `ra` since we resolved it, the two sets
            // were genuinely distinct at that instant.
            // ordering: Acquire pairs with the link CAS in `unite`.
            // cast: u32 id to index, lossless on 64-bit.
            if parent_of(self.node[ra as usize].load(Ordering::Acquire)) == ra {
                return false;
            }
            a = ra;
            b = rb;
        }
    }

    /// The number of disjoint sets. Intended for quiescent use (between
    /// parallel phases); concurrent `unite`s make the answer a snapshot.
    #[must_use]
    pub fn set_count(&self) -> usize {
        (0..self.node.len())
            // ordering: Acquire for the same link-publish pairing as
            // `find`. cast: u32 parent to index, lossless on 64-bit.
            .filter(|&i| parent_of(self.node[i].load(Ordering::Acquire)) as usize == i)
            .count()
    }

    /// Resolves every element to its set's minimum element, giving the
    /// same labelling as [`UnionFind::assignments`] /
    /// [`ClusterArray::assignments`](crate::ClusterArray::assignments).
    /// Intended for quiescent use.
    #[must_use]
    pub fn assignments(&self) -> Vec<u32> {
        let n = self.node.len();
        let mut min_of_root: Vec<u32> = (0..n as u32).collect(); // cast: n <= u32::MAX by construction
        let mut root_of: Vec<u32> = Vec::with_capacity(n);
        for i in 0..n {
            let r = self.find(i as u32); // cast: i < n <= u32::MAX
            root_of.push(r);
            let slot = &mut min_of_root[r as usize];
            *slot = (*slot).min(i as u32); // cast: i < n <= u32::MAX
        }
        root_of.iter().map(|&r| min_of_root[r as usize]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons() {
        let mut uf = UnionFind::new(3);
        assert_eq!(uf.set_count(), 3);
        for i in 0..3 {
            assert_eq!(uf.find(i) as usize, i);
            assert_eq!(uf.min_of(i) as usize, i);
        }
    }

    #[test]
    fn union_tracks_minimum() {
        let mut uf = UnionFind::new(6);
        uf.union(5, 3);
        uf.union(3, 4);
        assert_eq!(uf.min_of(5), 3);
        uf.union(4, 1);
        assert_eq!(uf.min_of(5), 1);
        assert_eq!(uf.set_count(), 3);
    }

    #[test]
    fn connected_after_transitive_unions() {
        let mut uf = UnionFind::new(8);
        uf.union(0, 1);
        uf.union(2, 3);
        assert!(!uf.connected(1, 2));
        uf.union(1, 3);
        assert!(uf.connected(0, 2));
    }

    #[test]
    fn assignments_match_cluster_array_semantics() {
        use crate::ClusterArray;
        let ops = [(0usize, 1usize), (2, 3), (3, 4), (1, 4), (6, 7)];
        let mut uf = UnionFind::new(8);
        let mut ca = ClusterArray::new(8);
        for &(a, b) in &ops {
            uf.union(a, b);
            ca.merge(a, b);
        }
        assert_eq!(uf.assignments(), ca.assignments());
        assert_eq!(uf.set_count(), ca.cluster_count());
    }

    #[test]
    fn empty() {
        let mut uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.set_count(), 0);
        assert!(uf.assignments().is_empty());
    }

    #[test]
    fn concurrent_matches_serial_single_threaded() {
        let ops = [(0u32, 1u32), (2, 3), (3, 4), (1, 4), (6, 7), (0, 2)];
        let cuf = ConcurrentUnionFind::new(8);
        let mut uf = UnionFind::new(8);
        for &(a, b) in &ops {
            assert_eq!(cuf.unite(a, b), uf.union(a as usize, b as usize));
        }
        assert_eq!(cuf.set_count(), uf.set_count());
        assert_eq!(cuf.assignments(), uf.assignments());
        assert!(cuf.same_set(0, 4));
        assert!(!cuf.same_set(0, 5));
    }

    #[test]
    fn concurrent_empty_and_singletons() {
        let empty = ConcurrentUnionFind::new(0);
        assert!(empty.is_empty());
        assert_eq!(empty.set_count(), 0);
        assert!(empty.assignments().is_empty());
        let uf = ConcurrentUnionFind::new(3);
        assert_eq!(uf.len(), 3);
        for i in 0..3 {
            assert_eq!(uf.find(i), i);
        }
        assert_eq!(uf.assignments(), vec![0, 1, 2]);
    }

    #[test]
    fn concurrent_path_splitting_preserves_sets() {
        // Build a deliberate chain 0 <- 1 <- 2 <- ... and make sure finds
        // from the tail still resolve and the forest stays consistent.
        let n: u32 = 64;
        let uf = ConcurrentUnionFind::new(n as usize);
        for i in 1..n {
            let _ = uf.unite(i - 1, i);
        }
        assert_eq!(uf.set_count(), 1);
        for i in 0..n {
            assert!(uf.same_set(0, i));
        }
        assert!(uf.assignments().iter().all(|&m| m == 0));
    }

    #[test]
    fn packed_word_round_trips() {
        let w = pack(0xDEAD_BEEF, 0x1234_5678);
        assert_eq!(parent_of(w), 0xDEAD_BEEF);
        assert_eq!(rank_of(w), 0x1234_5678);
    }
}
