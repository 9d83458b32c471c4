//! One batch run in a fresh process: the untraced end-to-end path.
//!
//! `setup_s` is the one load of the graph file a fresh process makes,
//! as a user's run does (`run.py` takes the median over processes);
//! `run_s` and `cpu_s` cover the facade's `LinkClustering::run`, the best
//! density cut, and the LNKCLSDX index written to disk. The outputs are
//! then checked, outside every timed interval:
//!
//! 1. the dendrogram fingerprint equals the Algorithm-2 oracle's;
//! 2. the index read back from disk equals the index built, and its
//!    dendrogram equals the live one;
//! 3. the index's `best_cut` equals `Dendrogram::best_density_cut`.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use linkclust_graph::GraphView;
use linkclust_parallel::LinkClustering;
use linkclust_serve::DendrogramIndex;

use crate::inputs::Loaded;
use crate::{fingerprint, peak_rss_mb, process_cpu_s, with_graph, Obj};

/// Settings of one batch run.
pub struct BatchArgs<'a> {
    /// The graph file.
    pub graph: &'a Path,
    /// Where the index is written.
    pub index_out: &'a Path,
    /// Facade thread count.
    pub threads: usize,
    /// The oracle fingerprint the dendrogram must equal.
    pub oracle: &'a str,
    /// Flip one byte of the written index before it is read back, so
    /// the checks must report a failure.
    pub corrupt: bool,
}

/// Runs one batch run and renders its result document.
///
/// # Errors
///
/// Load or I/O failures, rendered as strings.
pub fn run(args: &BatchArgs<'_>) -> Result<String, String> {
    let t = Instant::now();
    let loaded = Loaded::load(args.graph)?;
    let setup_s = t.elapsed().as_secs_f64();
    with_graph!(&loaded, g => run_loaded(g, args, setup_s))
}

fn run_loaded<G>(g: &G, args: &BatchArgs<'_>, setup_s: f64) -> Result<String, String>
where
    G: GraphView + Clone + Send + Sync + 'static,
{
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let result = LinkClustering::new().threads(args.threads).run(g).map_err(|e| e.to_string())?;
    let best = result.dendrogram().best_density_cut(g);
    let index = DendrogramIndex::build(g, result.output()).map_err(|e| e.to_string())?;
    {
        let mut w = BufWriter::new(File::create(args.index_out).map_err(|e| e.to_string())?);
        index.write(&mut w).and_then(|()| w.flush()).map_err(|e| e.to_string())?;
    }
    let run_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    let rss = peak_rss_mb(None);

    if args.corrupt {
        corrupt_file(args.index_out)?;
    }
    let fp = fingerprint(result.dendrogram(), result.output().merge_scores());
    let fingerprint_ok = fp == args.oracle;
    let read_back = File::open(args.index_out)
        .map_err(|e| e.to_string())
        .and_then(|f| DendrogramIndex::read(BufReader::new(f)).map_err(|e| e.to_string()));
    let (index_ok, index_error) = match &read_back {
        Ok(r) => (*r == index && r.to_dendrogram() == *result.dendrogram(), String::new()),
        Err(e) => (false, e.clone()),
    };
    let best_cut_ok =
        index.best_cut() == best && read_back.as_ref().is_ok_and(|r| r.best_cut() == best);

    Ok(Obj::new()
        .num("setup_s", setup_s)
        .num("run_s", run_s)
        .num("cpu_s", cpu_s)
        .num("peak_rss_mb", rss)
        .int("index_bytes", std::fs::metadata(args.index_out).map_or(0, |m| m.len()))
        .str("fingerprint", &fp)
        .boolean("fingerprint_ok", fingerprint_ok)
        .boolean("index_roundtrip_ok", index_ok)
        .str("index_error", &index_error)
        .boolean("best_cut_ok", best_cut_ok)
        .boolean("ok", fingerprint_ok && index_ok && best_cut_ok)
        .finish())
}

/// Flips every bit of one byte in the middle of `path`.
fn corrupt_file(path: &Path) -> Result<(), String> {
    let mut bytes = std::fs::read(path).map_err(|e| e.to_string())?;
    let at = bytes.len() / 2;
    bytes[at] ^= 0xff;
    std::fs::write(path, bytes).map_err(|e| e.to_string())
}
