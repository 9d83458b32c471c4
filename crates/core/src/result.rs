//! The outcome of one end-to-end clustering run.
//!
//! The builder that produces it is the unified `LinkClustering` facade
//! of `linkclust-parallel`, re-exported at the root of the `linkclust`
//! crate; this crate exposes the phases it composes as free functions
//! ([`compute_similarities`](crate::init::compute_similarities),
//! [`PairSimilarities::into_sorted`], [`sweep`](crate::sweep::sweep)).

use crate::dendrogram::Dendrogram;
use crate::similarity::PairSimilarities;
use crate::sweep::SweepOutput;
use crate::telemetry::RunReport;

/// The outcome of a clustering run: the sorted similarity list, the
/// sweep output, and (for stats-collecting runs) the telemetry report.
#[derive(Clone, PartialEq, Debug)]
pub struct ClusteringResult {
    similarities: PairSimilarities,
    output: SweepOutput,
    report: Option<RunReport>,
}

impl ClusteringResult {
    /// Assembles a result from its parts.
    #[must_use]
    pub fn from_parts(
        similarities: PairSimilarities,
        output: SweepOutput,
        report: Option<RunReport>,
    ) -> Self {
        ClusteringResult { similarities, output, report }
    }

    /// The sorted pair-similarity list `L` (exposed so callers can reuse
    /// the expensive Phase-I output — C-INTERMEDIATE).
    #[must_use]
    pub fn similarities(&self) -> &PairSimilarities {
        &self.similarities
    }

    /// The sweep output (dendrogram + slot permutation).
    #[must_use]
    pub fn output(&self) -> &SweepOutput {
        &self.output
    }

    /// The telemetry report, when the run collected stats; `None`
    /// otherwise.
    #[must_use]
    pub fn report(&self) -> Option<&RunReport> {
        self.report.as_ref()
    }

    /// The dendrogram.
    #[must_use]
    pub fn dendrogram(&self) -> &Dendrogram {
        self.output.dendrogram()
    }

    /// Consumes the result, returning the dendrogram.
    #[must_use]
    pub fn into_dendrogram(self) -> Dendrogram {
        self.output.into_dendrogram()
    }

    /// Final cluster label per edge id.
    #[must_use]
    pub fn edge_assignments(&self) -> Vec<u32> {
        self.output.edge_assignments()
    }
}
