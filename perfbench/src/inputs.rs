//! Seeded workload inputs.
//!
//! Each workload's files are generated from the seed alone, written to
//! a directory, and read back through the same loader the program uses,
//! so every later step sees exactly the bytes on disk. Generation also
//! runs the Algorithm-2 oracle (serial init, sort and
//! [`sweep_with`](linkclust_core::sweep::sweep_with)) once and records
//! its fingerprint; no metric includes this time.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use linkclust_core::init::compute_similarities;
use linkclust_core::sweep::{sweep_with, SweepConfig, SweepOutput};
use linkclust_core::telemetry::Telemetry;
use linkclust_graph::binfmt::GraphFile;
use linkclust_graph::generate::{barabasi_albert, gnm, lfr_like, WeightMode};
use linkclust_graph::io::{read_edge_list, write_edge_list};
use linkclust_graph::{CsrGraph, GraphView, WeightedGraph};
use linkclust_serve::DendrogramIndex;

use crate::{fingerprint, Obj};

/// The benchmark's workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// G(n,m) text edge list clustered at one thread.
    BatchGnmT1,
    /// Barabási–Albert LCGR file clustered at two threads.
    BatchBaT2,
    /// `linkclustd --threads 2` over an LFR-style LCGR file and index.
    ServeLfrMixed,
}

impl Workload {
    /// Parses a workload name as `BENCHMARK.json` spells it.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "batch-gnm-t1" => Some(Workload::BatchGnmT1),
            "batch-ba-t2" => Some(Workload::BatchBaT2),
            "serve-lfr-mixed" => Some(Workload::ServeLfrMixed),
            _ => None,
        }
    }

    /// Thread count the workload clusters with.
    #[must_use]
    pub fn threads(self) -> usize {
        match self {
            Workload::BatchGnmT1 => 1,
            Workload::BatchBaT2 | Workload::ServeLfrMixed => 2,
        }
    }

    /// File name of the graph input inside the workload directory.
    #[must_use]
    pub fn graph_file(self) -> &'static str {
        match self {
            Workload::BatchGnmT1 => "graph.txt",
            Workload::BatchBaT2 | Workload::ServeLfrMixed => "graph.lcgr",
        }
    }
}

/// File name of the prebuilt index (serve workload only).
pub const INDEX_FILE: &str = "graph.lnkclsdx";

/// A graph as loaded from either input format.
#[derive(Clone)]
pub enum Loaded {
    /// Parsed from a text edge list by `graph::io`.
    Text(WeightedGraph),
    /// Read from an LCGR file by `graph::binfmt`.
    Binary(CsrGraph),
}

impl Loaded {
    /// The layer that loads `path`, by the format's magic bytes —
    /// the same sniffing `linkclustd` does.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn layer_of(path: &Path) -> std::io::Result<&'static str> {
        let mut magic = [0u8; 8];
        let mut f = File::open(path)?;
        let n = std::io::Read::read(&mut f, &mut magic)?;
        Ok(if magic[..n].starts_with(&linkclust_graph::binfmt::MAGIC) {
            "graph.binfmt.read_streamed"
        } else {
            "graph.io.read_edge_list"
        })
    }

    /// Number of vertices.
    #[must_use]
    pub fn vertex_count(&self) -> usize {
        match self {
            Loaded::Text(g) => GraphView::vertex_count(g),
            Loaded::Binary(g) => GraphView::vertex_count(g),
        }
    }

    /// Loads `path` from disk through the layer named by
    /// [`layer_of`](Self::layer_of).
    ///
    /// # Errors
    ///
    /// I/O or format errors, rendered as strings.
    pub fn load(path: &Path) -> Result<Self, String> {
        let layer = Self::layer_of(path).map_err(|e| e.to_string())?;
        let reader = BufReader::new(File::open(path).map_err(|e| e.to_string())?);
        if layer == "graph.binfmt.read_streamed" {
            GraphFile::read_streamed(reader).map(Loaded::Binary).map_err(|e| e.to_string())
        } else {
            read_edge_list(reader).map(Loaded::Text).map_err(|e| e.to_string())
        }
    }
}

/// Runs `$body` with `$g` bound to the loaded graph, whichever backend.
#[macro_export]
macro_rules! with_graph {
    ($loaded:expr, $g:ident => $body:expr) => {
        match $loaded {
            $crate::inputs::Loaded::Text($g) => $body,
            $crate::inputs::Loaded::Binary($g) => $body,
        }
    };
}

/// The Algorithm-2 oracle: serial init, sort, and sweep.
#[must_use]
pub fn oracle<G: GraphView + ?Sized>(g: &G) -> (usize, SweepOutput) {
    let sims = compute_similarities(g).into_sorted();
    let k1 = sims.len();
    (k1, sweep_with(g, &sims, SweepConfig::default(), &Telemetry::disabled()))
}

fn write_file(
    path: &Path,
    f: impl FnOnce(&mut BufWriter<File>) -> std::io::Result<()>,
) -> Result<(), String> {
    let mut w = BufWriter::new(File::create(path).map_err(|e| e.to_string())?);
    f(&mut w).and_then(|()| w.flush()).map_err(|e| format!("{}: {e}", path.display()))
}

/// Generates the inputs of `workload` from `seed` into `dir` and
/// returns the input-properties document (n, m, K₁, max degree, oracle
/// fingerprint). `smoke` shrinks every input to a few hundred edges.
///
/// # Errors
///
/// I/O failures, rendered as strings.
pub fn generate(workload: Workload, seed: u64, dir: &Path, smoke: bool) -> Result<String, String> {
    let start = Instant::now();
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let graph_path = dir.join(workload.graph_file());
    let weights = WeightMode::Uniform { lo: 0.5, hi: 1.5 };
    match workload {
        Workload::BatchGnmT1 => {
            let (n, m) = if smoke { (300, 1_500) } else { (50_000, 250_000) };
            let g = gnm(n, m, weights, seed);
            write_file(&graph_path, |w| write_edge_list(&g, w))?;
        }
        Workload::BatchBaT2 => {
            let n = if smoke { 300 } else { 20_000 };
            let g = barabasi_albert(n, 5, weights, seed);
            write_file(&graph_path, |w| GraphFile::write(&g, w))?;
        }
        Workload::ServeLfrMixed => {
            let n = if smoke { 300 } else { 10_000 };
            let planted = lfr_like(n, 10, 0.2, seed);
            write_file(&graph_path, |w| GraphFile::write(&planted.graph, w))?;
        }
    }
    let loaded = Loaded::load(&graph_path)?;
    let doc = with_graph!(&loaded, g => {
        let (k1, out) = oracle(g);
        if workload == Workload::ServeLfrMixed {
            let index = DendrogramIndex::build(g, &out).map_err(|e| e.to_string())?;
            write_file(&dir.join(INDEX_FILE), |w| index.write(w))?;
        }
        Obj::new()
            .str("workload", workload_name(workload))
            .int("seed", seed)
            .boolean("smoke", smoke)
            .str("graph", workload.graph_file())
            .str("load_layer", Loaded::layer_of(&graph_path).map_err(|e| e.to_string())?)
            .int("threads", workload.threads() as u64)
            .int("n", g.vertex_count() as u64)
            .int("m", g.edge_count() as u64)
            .int("k1", k1 as u64)
            .int("max_degree", g.max_degree() as u64)
            .int("merges", out.dendrogram().merge_count())
            .str("oracle_fingerprint", &fingerprint(out.dendrogram(), out.merge_scores()))
            .num("generate_s", start.elapsed().as_secs_f64())
            .finish()
    });
    Ok(doc)
}

/// The `BENCHMARK.json` name of `workload`.
#[must_use]
pub fn workload_name(workload: Workload) -> &'static str {
    match workload {
        Workload::BatchGnmT1 => "batch-gnm-t1",
        Workload::BatchBaT2 => "batch-ba-t2",
        Workload::ServeLfrMixed => "serve-lfr-mixed",
    }
}
