//! The serialized dendrogram index.
//!
//! A [`DendrogramIndex`] freezes one clustering run — the merge forest,
//! per-merge similarities, the edge→slot permutation, edge endpoints,
//! and the precomputed partition-density profile — into a queryable,
//! versioned artifact. Every query it answers is **bit-identical** to
//! evaluating the live [`Dendrogram`]/[`SweepOutput`] pair it was built
//! from:
//!
//! * the threshold→level rule is the exact
//!   [`SweepOutput::edge_assignments_at_similarity`] partition-point,
//! * cut labels come from a binary-lifting walk over the merge forest
//!   whose node labels are the paper's min-slot cluster ids (the same
//!   labelling union-find replay produces),
//! * the density profile and best cut are stored from
//!   [`Dendrogram::density_profile`] at build time, and
//!   [`best_cut`](DendrogramIndex::best_cut) replays the same
//!   strict-`>` fold.
//!
//! # On-disk layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//!      0     8  magic  b"LNKCLSDX"
//!      8     4  format version (currently 1)
//!     12     4  flags (reserved, must be 0)
//!     16     8  vertex count n (u64)
//!     24     8  edge count m (u64)
//!     32     8  merge count k (u64)
//!     40     8  profile point count L (u64)
//!     48  12*k  merge records: u32 level, u32 left, u32 right
//!      +   8*k  merge similarities: f64 bit patterns
//!      +   4*m  slot of edge: u32 (a permutation of 0..m)
//!      +   8*m  edge endpoints: u32 source, u32 target
//!      +  16*L  profile points: u32 level, u32 cluster count, f64 density
//! ```
//!
//! Files are untrusted input: the loader validates *everything* — magic,
//! version, counts, merge liveness (each merge must reference two live
//! min-labelled clusters, which is what makes a loaded index safe for
//! [`export`](linkclust_core::export)-style traversals), score
//! monotonicity, the slot permutation, endpoint ranges, and the profile
//! shape — and reports failures as typed [`IndexError`] values, never a
//! panic.

use std::io::{Read, Write};

use linkclust_core::dendrogram::{Dendrogram, DensityCut, MergeRecord};
use linkclust_core::sweep::SweepOutput;
use linkclust_core::unionfind::UnionFind;
use linkclust_graph::{EdgeId, GraphView};

/// The 8-byte magic at offset 0.
pub const MAGIC: [u8; 8] = *b"LNKCLSDX";

/// The current format version.
pub const FORMAT_VERSION: u32 = 1;

/// Header length in bytes.
const HEADER_BYTES: usize = 48;

/// Bytes per merge record (level, left, right).
const MERGE_BYTES: usize = 12;

/// Bytes per profile point (level, cluster count, density).
const PROFILE_BYTES: usize = 16;

/// Records per streaming chunk (~1 MB at the largest record size).
const CHUNK_RECORDS: usize = 64 * 1024;

/// Errors raised while reading or building a dendrogram index.
#[derive(Debug)]
#[non_exhaustive]
pub enum IndexError {
    /// An I/O failure from the underlying reader or writer.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is newer than this reader.
    UnsupportedVersion(u32),
    /// The reserved flags field is non-zero.
    UnsupportedFlags(u32),
    /// The header declares an index too large for `u32` ids.
    TooLarge {
        /// Declared vertex count.
        vertices: u64,
        /// Declared edge count.
        edges: u64,
    },
    /// The stream ended before a declared section was fully read.
    Truncated {
        /// The section that came up short.
        section: &'static str,
        /// Records the header declared for it.
        declared: u64,
        /// Records actually read.
        read: u64,
    },
    /// Bytes remain after the declared sections.
    TrailingData,
    /// The sweep output carries no per-merge similarities (produced by a
    /// coarse sweep), so threshold queries would be unanswerable.
    NoMergeScores,
    /// A record is structurally invalid.
    Corrupt {
        /// The section containing the bad record.
        section: &'static str,
        /// 0-based record index within the section.
        index: u64,
        /// What was wrong with it.
        reason: String,
    },
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexError::Io(e) => write!(f, "i/o error while reading dendrogram index: {e}"),
            IndexError::BadMagic => write!(f, "not a dendrogram index file (bad magic)"),
            IndexError::UnsupportedVersion(v) => {
                write!(f, "unsupported index version {v} (reader supports {FORMAT_VERSION})")
            }
            IndexError::UnsupportedFlags(flags) => {
                write!(f, "reserved flags field is non-zero: {flags:#x}")
            }
            IndexError::TooLarge { vertices, edges } => {
                write!(f, "index too large for u32 ids: {vertices} vertices, {edges} edges")
            }
            IndexError::Truncated { section, declared, read } => {
                write!(f, "file truncated in section {section}: declared {declared}, read {read}")
            }
            IndexError::TrailingData => {
                write!(f, "trailing bytes after the declared index sections")
            }
            IndexError::NoMergeScores => {
                write!(
                    f,
                    "sweep output carries no per-merge similarities (coarse sweep) — \
                     an index cannot answer threshold queries from it"
                )
            }
            IndexError::Corrupt { section, index, reason } => {
                write!(f, "corrupt {section} record {index}: {reason}")
            }
        }
    }
}

impl std::error::Error for IndexError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IndexError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for IndexError {
    fn from(e: std::io::Error) -> Self {
        IndexError::Io(e)
    }
}

/// One community in a [`DendrogramIndex::top_communities`] answer:
/// the summary fields of
/// [`Community`](linkclust_core::communities::Community), in the same
/// (edge count descending, label ascending) order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TopCommunity {
    /// The cluster label (the community's smallest member slot).
    pub label: u32,
    /// Number of member edges (`m_c`).
    pub edge_count: u64,
    /// Number of induced vertices (`n_c`).
    pub vertex_count: u64,
}

/// A frozen, queryable clustering run. See the [module docs](self) for
/// the equivalence contract and the on-disk layout.
#[derive(Clone, PartialEq, Debug)]
pub struct DendrogramIndex {
    vertex_count: usize,
    edge_count: usize,
    merges: Vec<MergeRecord>,
    merge_scores: Vec<f64>,
    slot_of_edge: Vec<u32>,
    endpoints: Vec<(u32, u32)>,
    profile: Vec<DensityCut>,
    // Derived at load time, never serialized.
    /// Binary-lifting table, `lift[j * node_count + v]` = v's 2^j-th
    /// forest ancestor (self-loop at roots). Nodes `0..m` are leaf
    /// slots; node `m + i` is merge `i`.
    lift: Vec<u32>,
    /// Number of lifting rows (`lift.len() / node_count`).
    lift_rows: usize,
    /// Dendrogram level at which each forest node comes into existence
    /// (0 for leaves, the merge's level otherwise).
    node_level: Vec<u32>,
    /// The min-slot cluster label each forest node represents.
    node_label: Vec<u32>,
    /// CSR offsets into [`Self::incident_edges`], one slice per vertex.
    incident_start: Vec<u32>,
    /// Edge ids incident to each vertex, grouped by vertex.
    incident_edges: Vec<u32>,
}

impl DendrogramIndex {
    /// Builds an index for `output` over `g`, precomputing the density
    /// profile with [`Dendrogram::density_profile`].
    ///
    /// # Errors
    ///
    /// [`IndexError::NoMergeScores`] if the output tracks no per-merge
    /// similarities (coarse sweeps); [`IndexError::Corrupt`] if the
    /// output and graph disagree (never for outputs the clustering
    /// pipeline produced for `g`).
    ///
    /// # Panics
    ///
    /// Panics if `g` does not have exactly the output's edge count
    /// (the [`Dendrogram::density_profile`] contract).
    pub fn build<G: GraphView + ?Sized>(g: &G, output: &SweepOutput) -> Result<Self, IndexError> {
        let d = output.dendrogram();
        if output.merge_scores().len() as u64 != d.merge_count() {
            return Err(IndexError::NoMergeScores);
        }
        let endpoints = (0..g.edge_count())
            .map(|e| {
                let (s, t) = g.edge_endpoints(EdgeId::new(e));
                (u32::from(s), u32::from(t))
            })
            .collect();
        Self::from_parts(
            g.vertex_count(),
            d.edge_count(),
            d.merges().to_vec(),
            output.merge_scores().to_vec(),
            output.slot_of_edge().to_vec(),
            endpoints,
            d.density_profile(g),
        )
    }

    /// Assembles and fully validates an index from its stored parts,
    /// then derives the query structures. This is the single validation
    /// chokepoint: [`build`](Self::build) and [`read`](Self::read) both
    /// funnel through it.
    ///
    /// # Errors
    ///
    /// [`IndexError::Corrupt`] naming the offending section and record
    /// for any structural violation; see the [module docs](self) for
    /// the full rule list.
    ///
    /// # Panics
    ///
    /// Never panics in practice: edge ids fit `u32` whenever the slot
    /// permutation validates (slots are themselves `u32`).
    #[allow(clippy::too_many_lines)] // one linear validation pass per section
    pub fn from_parts(
        vertex_count: usize,
        edge_count: usize,
        merges: Vec<MergeRecord>,
        merge_scores: Vec<f64>,
        slot_of_edge: Vec<u32>,
        endpoints: Vec<(u32, u32)>,
        profile: Vec<DensityCut>,
    ) -> Result<Self, IndexError> {
        let m = edge_count;
        let corrupt = |section: &'static str, index: usize, reason: String| {
            Err(IndexError::Corrupt { section, index: index as u64, reason })
        };

        // --- merges: levels non-decreasing, operands live min-labels ---
        if !merges.is_empty() && merges.len() >= m {
            return corrupt(
                "header",
                0,
                format!("{} merges cannot arise from {m} edges", merges.len()),
            );
        }
        let mut uf = UnionFind::new(m);
        let mut prev_level = 0u32;
        for (i, rec) in merges.iter().enumerate() {
            if rec.level < prev_level {
                return corrupt(
                    "merges",
                    i,
                    format!("level {} decreases below {prev_level}", rec.level),
                );
            }
            prev_level = rec.level;
            if rec.left as usize >= m || rec.right as usize >= m {
                return corrupt(
                    "merges",
                    i,
                    format!("operand beyond the {m} slots: ({}, {})", rec.left, rec.right),
                );
            }
            if rec.into != rec.left.min(rec.right) {
                return corrupt(
                    "merges",
                    i,
                    format!("surviving id {} is not min({}, {})", rec.into, rec.left, rec.right),
                );
            }
            // Liveness: both operands must currently *be* the min label
            // of their cluster — a dead operand is the doubly-merged
            // defect that export traversals choke on.
            if uf.min_of(rec.left as usize) != rec.left {
                return corrupt(
                    "merges",
                    i,
                    format!("left operand {} was already consumed by an earlier merge", rec.left),
                );
            }
            if uf.min_of(rec.right as usize) != rec.right {
                return corrupt(
                    "merges",
                    i,
                    format!("right operand {} was already consumed by an earlier merge", rec.right),
                );
            }
            if rec.left == rec.right {
                return corrupt("merges", i, "operands are the same cluster".to_string());
            }
            uf.union(rec.left as usize, rec.right as usize);
        }

        // --- scores: aligned, finite, non-increasing -------------------
        if merge_scores.len() != merges.len() {
            return corrupt(
                "scores",
                0,
                format!("{} scores for {} merges", merge_scores.len(), merges.len()),
            );
        }
        let mut prev_score = f64::INFINITY;
        for (i, &s) in merge_scores.iter().enumerate() {
            if !s.is_finite() {
                return corrupt("scores", i, format!("non-finite similarity {s}"));
            }
            if s > prev_score {
                return corrupt(
                    "scores",
                    i,
                    format!("similarity {s} increases above {prev_score} (list must be sorted)"),
                );
            }
            prev_score = s;
        }

        // --- slot permutation ------------------------------------------
        if slot_of_edge.len() != m {
            return corrupt(
                "slots",
                0,
                format!("{} slot entries for {m} edges", slot_of_edge.len()),
            );
        }
        let mut seen = vec![false; m];
        for (e, &s) in slot_of_edge.iter().enumerate() {
            if s as usize >= m {
                return corrupt("slots", e, format!("slot {s} beyond the {m} slots"));
            }
            if std::mem::replace(&mut seen[s as usize], true) {
                return corrupt("slots", e, format!("slot {s} assigned twice"));
            }
        }

        // --- endpoints -------------------------------------------------
        if endpoints.len() != m {
            return corrupt(
                "endpoints",
                0,
                format!("{} endpoint records for {m} edges", endpoints.len()),
            );
        }
        for (e, &(s, t)) in endpoints.iter().enumerate() {
            if s as usize >= vertex_count || t as usize >= vertex_count {
                return corrupt(
                    "endpoints",
                    e,
                    format!("endpoint beyond the {vertex_count} vertices: ({s}, {t})"),
                );
            }
            if s == t {
                return corrupt("endpoints", e, format!("self-loop at vertex {s}"));
            }
        }

        // --- profile: one point per distinct merge level ---------------
        let mut expected: Vec<(u32, usize)> = Vec::new();
        {
            let mut i = 0;
            while i < merges.len() {
                let level = merges[i].level;
                while i < merges.len() && merges[i].level == level {
                    i += 1;
                }
                expected.push((level, m - i));
            }
        }
        if profile.len() != expected.len() {
            return corrupt(
                "profile",
                0,
                format!("{} points for {} distinct merge levels", profile.len(), expected.len()),
            );
        }
        for (j, (point, &(level, clusters))) in profile.iter().zip(&expected).enumerate() {
            if point.level != level {
                return corrupt(
                    "profile",
                    j,
                    format!("level {} does not match merge level {level}", point.level),
                );
            }
            if point.cluster_count != clusters {
                return corrupt(
                    "profile",
                    j,
                    format!(
                        "cluster count {} does not match the {clusters} clusters the merges leave",
                        point.cluster_count
                    ),
                );
            }
            if !point.density.is_finite() {
                return corrupt("profile", j, format!("non-finite density {}", point.density));
            }
        }

        // --- derive the query structures -------------------------------
        let node_count = m + merges.len();
        let mut parent: Vec<u32> = (0..node_count as u32).collect();
        let mut node_level = vec![0u32; node_count];
        let mut node_label: Vec<u32> = (0..m as u32).collect();
        node_label.resize(node_count, 0);
        // Current forest node of each live cluster, keyed by its label.
        let mut node_of: Vec<u32> = (0..m as u32).collect();
        for (i, rec) in merges.iter().enumerate() {
            let node = (m + i) as u32;
            parent[node_of[rec.left as usize] as usize] = node;
            parent[node_of[rec.right as usize] as usize] = node;
            node_level[node as usize] = rec.level;
            node_label[node as usize] = rec.into;
            node_of[rec.into as usize] = node;
        }
        let lift_rows = usize::BITS as usize - node_count.leading_zeros() as usize;
        let lift_rows = lift_rows.max(1);
        let mut lift = vec![0u32; lift_rows * node_count];
        lift[..node_count].copy_from_slice(&parent);
        for j in 1..lift_rows {
            for v in 0..node_count {
                let mid = lift[(j - 1) * node_count + v] as usize;
                lift[j * node_count + v] = lift[(j - 1) * node_count + mid];
            }
        }

        let mut incident_start = vec![0u32; vertex_count + 1];
        for &(s, t) in &endpoints {
            incident_start[s as usize + 1] += 1;
            incident_start[t as usize + 1] += 1;
        }
        for v in 0..vertex_count {
            incident_start[v + 1] += incident_start[v];
        }
        let mut cursor = incident_start.clone();
        let mut incident_edges = vec![0u32; 2 * m];
        for (e, &(s, t)) in endpoints.iter().enumerate() {
            let e32 = u32::try_from(e).expect("edge count fits u32 by the header check");
            incident_edges[cursor[s as usize] as usize] = e32;
            cursor[s as usize] += 1;
            incident_edges[cursor[t as usize] as usize] = e32;
            cursor[t as usize] += 1;
        }

        Ok(DendrogramIndex {
            vertex_count,
            edge_count: m,
            merges,
            merge_scores,
            slot_of_edge,
            endpoints,
            profile,
            lift,
            lift_rows,
            node_level,
            node_label,
            incident_start,
            incident_edges,
        })
    }

    /// Number of vertices in the indexed graph.
    #[must_use]
    pub fn vertex_count(&self) -> usize {
        self.vertex_count
    }

    /// Number of edges (= dendrogram leaves) in the indexed graph.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Number of merge events.
    #[must_use]
    pub fn merge_count(&self) -> u64 {
        self.merges.len() as u64
    }

    /// The precomputed density profile (one point per distinct level).
    #[must_use]
    pub fn profile(&self) -> &[DensityCut] {
        &self.profile
    }

    /// Endpoints `(source, target)` of edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e >= self.edge_count()`.
    #[must_use]
    pub fn endpoints(&self, e: usize) -> (u32, u32) {
        self.endpoints[e]
    }

    /// Number of clusters left after cutting at `level`: every merge at
    /// a level ≤ the cut consumes one cluster.
    #[must_use]
    pub fn cluster_count_at_level(&self, level: u32) -> usize {
        self.edge_count - self.merges.partition_point(|r| r.level <= level)
    }

    /// The dendrogram level a similarity threshold resolves to —
    /// the exact [`SweepOutput::edge_assignments_at_similarity`] rule:
    /// keep every merge with similarity ≥ `theta`.
    #[must_use]
    pub fn level_for_threshold(&self, theta: f64) -> u32 {
        let keep = self.merge_scores.partition_point(|&s| s >= theta);
        if keep == 0 {
            0
        } else {
            self.merges[keep - 1].level
        }
    }

    /// The min-slot cluster label of `slot` after replaying merges up to
    /// and including `level`: a max-jump binary-lifting walk (parent
    /// chains have non-decreasing levels, so the greedy high-to-low jump
    /// lands on the highest qualifying ancestor).
    fn label_at_level(&self, slot: u32, level: u32) -> u32 {
        let n = self.node_level.len();
        let mut v = slot as usize;
        for j in (0..self.lift_rows).rev() {
            let a = self.lift[j * n + v] as usize;
            if a != v && self.node_level[a] <= level {
                v = a;
            }
        }
        self.node_label[v]
    }

    /// Cluster label per **edge id** after cutting at `level` —
    /// bit-identical to [`SweepOutput::edge_assignments_at_level`].
    #[must_use]
    pub fn edge_labels_at_level(&self, level: u32) -> Vec<u32> {
        self.slot_of_edge.iter().map(|&s| self.label_at_level(s, level)).collect()
    }

    /// Cluster label per edge id after cutting at similarity `theta` —
    /// bit-identical to [`SweepOutput::edge_assignments_at_similarity`].
    #[must_use]
    pub fn edge_labels_at_threshold(&self, theta: f64) -> Vec<u32> {
        self.edge_labels_at_level(self.level_for_threshold(theta))
    }

    /// The community label of edge `e` after cutting at `level`, or
    /// `None` for an out-of-range edge id.
    #[must_use]
    pub fn edge_label_at_level(&self, e: usize, level: u32) -> Option<u32> {
        let slot = *self.slot_of_edge.get(e)?;
        Some(self.label_at_level(slot, level))
    }

    /// The community label of edge `e` at similarity `theta`, or `None`
    /// for an out-of-range edge id.
    #[must_use]
    pub fn membership_of_edge(&self, e: usize, theta: f64) -> Option<u32> {
        self.edge_label_at_level(e, self.level_for_threshold(theta))
    }

    /// The distinct community labels of the edges incident to vertex
    /// `v` after cutting at `level` (ascending), or `None` for an
    /// out-of-range vertex id.
    #[must_use]
    pub fn vertex_labels_at_level(&self, v: usize, level: u32) -> Option<Vec<u32>> {
        if v >= self.vertex_count {
            return None;
        }
        let (lo, hi) = (self.incident_start[v] as usize, self.incident_start[v + 1] as usize);
        let mut labels: Vec<u32> = self.incident_edges[lo..hi]
            .iter()
            .map(|&e| self.label_at_level(self.slot_of_edge[e as usize], level))
            .collect();
        labels.sort_unstable();
        labels.dedup();
        Some(labels)
    }

    /// The distinct community labels of the edges incident to vertex
    /// `v` at similarity `theta` (ascending), or `None` for an
    /// out-of-range vertex id. Vertices in several communities are the
    /// overlap structure link clustering exists to expose.
    #[must_use]
    pub fn membership_of_vertex(&self, v: usize, theta: f64) -> Option<Vec<u32>> {
        self.vertex_labels_at_level(v, self.level_for_threshold(theta))
    }

    /// The `k` largest communities at similarity `theta`, ordered by
    /// decreasing edge count (ties by ascending label) — the
    /// [`LinkCommunities`](linkclust_core::communities::LinkCommunities)
    /// ordering.
    #[must_use]
    pub fn top_communities(&self, theta: f64, k: usize) -> Vec<TopCommunity> {
        self.top_communities_at_level(self.level_for_threshold(theta), k)
    }

    /// The `k` largest communities after cutting at `level`, in the
    /// same ordering as [`top_communities`](Self::top_communities).
    #[must_use]
    pub fn top_communities_at_level(&self, level: u32, k: usize) -> Vec<TopCommunity> {
        let labels = self.edge_labels_at_level(level);
        let mut edges_of: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
        let mut verts_of: std::collections::HashMap<u32, std::collections::HashSet<u32>> =
            std::collections::HashMap::new();
        for (e, &label) in labels.iter().enumerate() {
            *edges_of.entry(label).or_default() += 1;
            let (s, t) = self.endpoints[e];
            let set = verts_of.entry(label).or_default();
            set.insert(s);
            set.insert(t);
        }
        let mut out: Vec<TopCommunity> = edges_of
            .into_iter()
            .map(|(label, edge_count)| TopCommunity {
                label,
                edge_count,
                vertex_count: verts_of[&label].len() as u64,
            })
            .collect();
        out.sort_by(|a, b| b.edge_count.cmp(&a.edge_count).then_with(|| a.label.cmp(&b.label)));
        out.truncate(k);
        out
    }

    /// The density-optimal cut — bit-identical to
    /// [`Dendrogram::best_density_cut`]: the strict-`>` fold over the
    /// stored profile from the implicit all-singletons starting point,
    /// `None` for an edgeless graph.
    #[must_use]
    pub fn best_cut(&self) -> Option<DensityCut> {
        if self.edge_count == 0 {
            return None;
        }
        let mut best = DensityCut { level: 0, density: 0.0, cluster_count: self.edge_count };
        for point in &self.profile {
            if point.density > best.density {
                best = *point;
            }
        }
        Some(best)
    }

    /// Reconstructs the live [`Dendrogram`] this index froze.
    #[must_use]
    pub fn to_dendrogram(&self) -> Dendrogram {
        Dendrogram::from_merges(self.edge_count, self.merges.clone())
    }

    /// Writes the index in the versioned binary format.
    ///
    /// # Errors
    ///
    /// Propagates writer failures.
    pub fn write<W: Write>(&self, mut writer: W) -> std::io::Result<()> {
        let mut header = [0u8; HEADER_BYTES];
        header[..8].copy_from_slice(&MAGIC);
        header[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        header[12..16].copy_from_slice(&0u32.to_le_bytes());
        header[16..24].copy_from_slice(&(self.vertex_count as u64).to_le_bytes());
        header[24..32].copy_from_slice(&(self.edge_count as u64).to_le_bytes());
        header[32..40].copy_from_slice(&(self.merges.len() as u64).to_le_bytes());
        header[40..48].copy_from_slice(&(self.profile.len() as u64).to_le_bytes());
        writer.write_all(&header)?;

        let mut buf: Vec<u8> = Vec::with_capacity(CHUNK_RECORDS * PROFILE_BYTES);
        let flush_if_full = |buf: &mut Vec<u8>, writer: &mut W| -> std::io::Result<()> {
            if buf.len() >= CHUNK_RECORDS * PROFILE_BYTES {
                writer.write_all(buf)?;
                buf.clear();
            }
            Ok(())
        };
        for rec in &self.merges {
            buf.extend_from_slice(&rec.level.to_le_bytes());
            buf.extend_from_slice(&rec.left.to_le_bytes());
            buf.extend_from_slice(&rec.right.to_le_bytes());
            flush_if_full(&mut buf, &mut writer)?;
        }
        for &s in &self.merge_scores {
            buf.extend_from_slice(&s.to_le_bytes());
            flush_if_full(&mut buf, &mut writer)?;
        }
        for &s in &self.slot_of_edge {
            buf.extend_from_slice(&s.to_le_bytes());
            flush_if_full(&mut buf, &mut writer)?;
        }
        for &(s, t) in &self.endpoints {
            buf.extend_from_slice(&s.to_le_bytes());
            buf.extend_from_slice(&t.to_le_bytes());
            flush_if_full(&mut buf, &mut writer)?;
        }
        for p in &self.profile {
            buf.extend_from_slice(&p.level.to_le_bytes());
            let clusters = u32::try_from(p.cluster_count).unwrap_or(u32::MAX);
            buf.extend_from_slice(&clusters.to_le_bytes());
            buf.extend_from_slice(&p.density.to_le_bytes());
            flush_if_full(&mut buf, &mut writer)?;
        }
        writer.write_all(&buf)?;
        writer.flush()
    }

    /// Reads and fully validates an index from the binary format,
    /// streaming each section through a fixed-size chunk buffer. The
    /// input is treated as untrusted; every structural violation is a
    /// typed [`IndexError`], never a panic.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError`] on I/O failure, a bad or unsupported
    /// header, short or overlong input, or any record that fails the
    /// [`from_parts`](Self::from_parts) validation rules.
    pub fn read<R: Read>(mut reader: R) -> Result<Self, IndexError> {
        let mut header = [0u8; HEADER_BYTES];
        reader.read_exact(&mut header).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                IndexError::BadMagic
            } else {
                IndexError::Io(e)
            }
        })?;
        if header[..8] != MAGIC {
            return Err(IndexError::BadMagic);
        }
        let version = le_u32(&header[8..12]);
        if version != FORMAT_VERSION {
            return Err(IndexError::UnsupportedVersion(version));
        }
        let flags = le_u32(&header[12..16]);
        if flags != 0 {
            return Err(IndexError::UnsupportedFlags(flags));
        }
        let n = le_u64(&header[16..24]);
        let m = le_u64(&header[24..32]);
        let k = le_u64(&header[32..40]);
        let profile_count = le_u64(&header[40..48]);
        if n > u64::from(u32::MAX) || m.saturating_mul(2) > u64::from(u32::MAX) {
            return Err(IndexError::TooLarge { vertices: n, edges: m });
        }
        // Bound the variable counts by what the fixed counts allow
        // *before* allocating: a hostile header must not drive a huge
        // reservation.
        if k >= m.max(1) {
            return Err(IndexError::Corrupt {
                section: "header",
                index: 0,
                reason: format!("{k} merges cannot arise from {m} edges"),
            });
        }
        if profile_count > k {
            return Err(IndexError::Corrupt {
                section: "header",
                index: 0,
                reason: format!("{profile_count} profile points for {k} merges"),
            });
        }
        let (n, m, k, profile_count) = (n as usize, m as usize, k as usize, profile_count as usize);

        let merges = read_section(&mut reader, "merges", k, MERGE_BYTES, |rec| MergeRecord {
            level: le_u32(&rec[..4]),
            left: le_u32(&rec[4..8]),
            right: le_u32(&rec[8..12]),
            into: le_u32(&rec[4..8]).min(le_u32(&rec[8..12])),
        })?;
        let merge_scores =
            read_section(&mut reader, "scores", k, 8, |rec| f64::from_bits(le_u64(rec)))?;
        let slot_of_edge = read_section(&mut reader, "slots", m, 4, le_u32)?;
        let endpoints = read_section(&mut reader, "endpoints", m, 8, |rec| {
            (le_u32(&rec[..4]), le_u32(&rec[4..8]))
        })?;
        let profile =
            read_section(&mut reader, "profile", profile_count, PROFILE_BYTES, |rec| DensityCut {
                level: le_u32(&rec[..4]),
                cluster_count: le_u32(&rec[4..8]) as usize,
                density: f64::from_bits(le_u64(&rec[8..16])),
            })?;
        if reader.read(&mut [0u8; 1])? != 0 {
            return Err(IndexError::TrailingData);
        }
        Self::from_parts(n, m, merges, merge_scores, slot_of_edge, endpoints, profile)
    }
}

/// Streams `count` fixed-size records of one section through a chunked
/// buffer and decodes each one. `count` comes from the untrusted header,
/// so the output grows chunk by chunk as records arrive instead of
/// reserving the claimed total up front: a short file that claims 2³¹
/// records fails with [`IndexError::Truncated`], in bounded memory.
fn read_section<R: Read, T>(
    reader: &mut R,
    section: &'static str,
    count: usize,
    record_bytes: usize,
    decode: impl Fn(&[u8]) -> T,
) -> Result<Vec<T>, IndexError> {
    let mut out = Vec::new();
    let mut buf = vec![0u8; CHUNK_RECORDS.min(count.max(1)) * record_bytes];
    while out.len() < count {
        let chunk = CHUNK_RECORDS.min(count - out.len());
        let bytes = &mut buf[..chunk * record_bytes];
        reader.read_exact(bytes).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                IndexError::Truncated { section, declared: count as u64, read: out.len() as u64 }
            } else {
                IndexError::Io(e)
            }
        })?;
        out.extend(bytes.chunks_exact(record_bytes).map(&decode));
    }
    Ok(out)
}

/// Little-endian u32 from the first 4 bytes of `b`.
#[inline]
fn le_u32(b: &[u8]) -> u32 {
    let mut a = [0u8; 4];
    for (dst, src) in a.iter_mut().zip(b) {
        *dst = *src;
    }
    u32::from_le_bytes(a)
}

/// Little-endian u64 from the first 8 bytes of `b`.
#[inline]
fn le_u64(b: &[u8]) -> u64 {
    let mut a = [0u8; 8];
    for (dst, src) in a.iter_mut().zip(b) {
        *dst = *src;
    }
    u64::from_le_bytes(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkclust_graph::generate::{gnm, WeightMode};
    use linkclust_parallel::LinkClustering;

    fn built(seed: u64) -> (linkclust_graph::WeightedGraph, SweepOutput, DendrogramIndex) {
        let g = gnm(40, 120, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, seed);
        let output = LinkClustering::new().run(&g).expect("default config").output().clone();
        let index = DendrogramIndex::build(&g, &output).unwrap();
        (g, output, index)
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let (_, _, index) = built(1);
        let mut bytes = Vec::new();
        index.write(&mut bytes).unwrap();
        let back = DendrogramIndex::read(bytes.as_slice()).unwrap();
        assert_eq!(back, index);
    }

    #[test]
    fn cut_labels_match_the_live_output() {
        let (_, output, index) = built(2);
        for theta in [0.0, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5] {
            assert_eq!(
                index.edge_labels_at_threshold(theta),
                output.edge_assignments_at_similarity(theta),
                "theta={theta}"
            );
        }
        assert_eq!(index.edge_labels_at_level(u32::MAX), output.edge_assignments());
    }

    #[test]
    fn best_cut_matches_the_live_dendrogram() {
        for seed in 0..4 {
            let (g, output, index) = built(seed);
            let live = output.dendrogram().best_density_cut(&g).unwrap();
            let ours = index.best_cut().unwrap();
            assert_eq!(ours.level, live.level);
            assert_eq!(ours.cluster_count, live.cluster_count);
            assert_eq!(ours.density.to_bits(), live.density.to_bits());
        }
    }

    #[test]
    fn vertex_membership_lists_incident_communities() {
        let (g, output, index) = built(3);
        use linkclust_graph::GraphView;
        let labels = output.edge_assignments_at_similarity(0.3);
        for v in 0..g.vertex_count() {
            let mut expected: Vec<u32> = (0..g.edge_count())
                .filter(|&e| {
                    let (s, t) = g.edge_endpoints(EdgeId::new(e));
                    s.index() == v || t.index() == v
                })
                .map(|e| labels[e])
                .collect();
            expected.sort_unstable();
            expected.dedup();
            assert_eq!(index.membership_of_vertex(v, 0.3).unwrap(), expected, "v={v}");
        }
        assert!(index.membership_of_vertex(g.vertex_count(), 0.3).is_none());
        assert!(index.membership_of_edge(g.edge_count(), 0.3).is_none());
    }

    #[test]
    fn top_communities_match_linkcommunities_ordering() {
        use linkclust_core::communities::LinkCommunities;
        let (g, output, index) = built(4);
        let theta = 0.25;
        let comms =
            LinkCommunities::from_edge_labels(&g, &output.edge_assignments_at_similarity(theta));
        let ours = index.top_communities(theta, 5);
        assert_eq!(ours.len(), comms.len().min(5));
        for (mine, live) in ours.iter().zip(comms.communities()) {
            assert_eq!(mine.label, live.label);
            assert_eq!(mine.edge_count as usize, live.edge_count());
            assert_eq!(mine.vertex_count as usize, live.vertex_count());
        }
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = linkclust_graph::GraphBuilder::new().build();
        let output = LinkClustering::new().run(&g).unwrap().output().clone();
        let index = DendrogramIndex::build(&g, &output).unwrap();
        assert!(index.best_cut().is_none());
        assert!(index.edge_labels_at_threshold(0.5).is_empty());
        let mut bytes = Vec::new();
        index.write(&mut bytes).unwrap();
        assert_eq!(DendrogramIndex::read(bytes.as_slice()).unwrap(), index);
    }

    #[test]
    fn coarse_output_is_rejected() {
        use linkclust_core::coarse::CoarseConfig;
        let g = gnm(30, 80, WeightMode::Unit, 9);
        let cfg = CoarseConfig::builder().phi(4).build().unwrap();
        let out = LinkClustering::new().run_coarse(&g, cfg).unwrap();
        assert!(matches!(DendrogramIndex::build(&g, out.output()), Err(IndexError::NoMergeScores)));
    }

    fn valid_bytes() -> Vec<u8> {
        let (_, _, index) = built(7);
        let mut bytes = Vec::new();
        index.write(&mut bytes).unwrap();
        bytes
    }

    #[test]
    fn bad_magic_and_short_input_are_rejected() {
        assert!(matches!(
            DendrogramIndex::read(&b"definitely not an index........."[..]),
            Err(IndexError::BadMagic)
        ));
        assert!(matches!(DendrogramIndex::read(&b"LNKCL"[..]), Err(IndexError::BadMagic)));
    }

    #[test]
    fn corrupt_header_fields_are_rejected() {
        let mut bad_version = valid_bytes();
        bad_version[8..12].copy_from_slice(&9u32.to_le_bytes());
        assert!(matches!(
            DendrogramIndex::read(bad_version.as_slice()),
            Err(IndexError::UnsupportedVersion(9))
        ));

        let mut bad_flags = valid_bytes();
        bad_flags[12..16].copy_from_slice(&3u32.to_le_bytes());
        assert!(matches!(
            DendrogramIndex::read(bad_flags.as_slice()),
            Err(IndexError::UnsupportedFlags(3))
        ));

        let mut too_large = valid_bytes();
        too_large[24..32].copy_from_slice(&(u64::from(u32::MAX)).to_le_bytes());
        assert!(matches!(
            DendrogramIndex::read(too_large.as_slice()),
            Err(IndexError::TooLarge { .. })
        ));

        // A merge count the edge count cannot support is caught before
        // any allocation.
        let mut hostile_k = valid_bytes();
        hostile_k[32..40].copy_from_slice(&(1u64 << 60).to_le_bytes());
        assert!(matches!(
            DendrogramIndex::read(hostile_k.as_slice()),
            Err(IndexError::Corrupt { section: "header", .. })
        ));
    }

    #[test]
    fn inflated_header_without_body_is_truncated_not_aborted() {
        let mut header = valid_bytes();
        header.truncate(HEADER_BYTES);
        let m = u64::from(u32::MAX) / 2;
        header[24..32].copy_from_slice(&m.to_le_bytes());
        header[32..40].copy_from_slice(&(m - 1).to_le_bytes());
        header[40..48].copy_from_slice(&(m - 1).to_le_bytes());
        match DendrogramIndex::read(header.as_slice()).unwrap_err() {
            IndexError::Truncated { section: "merges", declared, read: 0 } => {
                assert_eq!(declared, m - 1);
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn truncation_names_the_section() {
        let bytes = valid_bytes();
        // Chop mid-way through the file: some section comes up short.
        match DendrogramIndex::read(&bytes[..HEADER_BYTES + 5]).unwrap_err() {
            IndexError::Truncated { section: "merges", .. } => {}
            other => panic!("unexpected error {other}"),
        }
        match DendrogramIndex::read(&bytes[..bytes.len() - 1]).unwrap_err() {
            IndexError::Truncated { section: "profile", .. } => {}
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = valid_bytes();
        bytes.push(0x55);
        assert!(matches!(DendrogramIndex::read(bytes.as_slice()), Err(IndexError::TrailingData)));
    }

    #[test]
    fn dead_cluster_merges_are_rejected() {
        // Merge 1 re-references cluster 1, consumed by merge 0 — the
        // doubly-merged defect that export traversals choke on.
        let rec = |level, left: u32, right: u32| MergeRecord {
            level,
            left,
            right,
            into: left.min(right),
        };
        let err = DendrogramIndex::from_parts(
            4,
            3,
            vec![rec(1, 0, 1), rec(2, 1, 2)],
            vec![0.9, 0.8],
            vec![0, 1, 2],
            vec![(0, 1), (1, 2), (2, 3)],
            vec![],
        )
        .unwrap_err();
        match err {
            IndexError::Corrupt { section: "merges", index: 1, reason } => {
                assert!(reason.contains("already consumed"), "{reason}");
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn structural_corruption_is_rejected_per_section() {
        let rec = |level, left: u32, right: u32| MergeRecord {
            level,
            left,
            right,
            into: left.min(right),
        };
        let endpoints = vec![(0u32, 1u32), (1, 2), (2, 3)];
        let base_profile = vec![DensityCut { level: 1, density: 0.0, cluster_count: 2 }];

        // Decreasing levels.
        assert!(matches!(
            DendrogramIndex::from_parts(
                4,
                3,
                vec![rec(2, 0, 1), rec(1, 0, 2)],
                vec![0.9, 0.8],
                vec![0, 1, 2],
                endpoints.clone(),
                vec![],
            ),
            Err(IndexError::Corrupt { section: "merges", .. })
        ));
        // Increasing scores.
        assert!(matches!(
            DendrogramIndex::from_parts(
                4,
                3,
                vec![rec(1, 0, 1)],
                vec![f64::NAN],
                vec![0, 1, 2],
                endpoints.clone(),
                base_profile,
            ),
            Err(IndexError::Corrupt { section: "scores", .. })
        ));
        // Duplicate slot.
        assert!(matches!(
            DendrogramIndex::from_parts(
                4,
                3,
                vec![],
                vec![],
                vec![0, 0, 2],
                endpoints.clone(),
                vec![],
            ),
            Err(IndexError::Corrupt { section: "slots", .. })
        ));
        // Self-loop endpoint.
        assert!(matches!(
            DendrogramIndex::from_parts(
                4,
                3,
                vec![],
                vec![],
                vec![0, 1, 2],
                vec![(0, 1), (2, 2), (1, 3)],
                vec![],
            ),
            Err(IndexError::Corrupt { section: "endpoints", .. })
        ));
        // Profile point with the wrong cluster count.
        assert!(matches!(
            DendrogramIndex::from_parts(
                4,
                3,
                vec![rec(1, 0, 1)],
                vec![0.9],
                vec![0, 1, 2],
                endpoints,
                vec![DensityCut { level: 1, density: 0.0, cluster_count: 7 }],
            ),
            Err(IndexError::Corrupt { section: "profile", .. })
        ));
    }

    #[test]
    fn error_messages_render() {
        assert!(IndexError::BadMagic.to_string().contains("magic"));
        assert!(IndexError::NoMergeScores.to_string().contains("coarse"));
        let e = IndexError::Truncated { section: "slots", declared: 10, read: 3 };
        assert!(e.to_string().contains("slots"));
        let e = IndexError::Corrupt { section: "merges", index: 4, reason: "x".into() };
        assert!(e.to_string().contains("merges record 4"));
        let e = IndexError::Io(std::io::Error::other("boom"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
