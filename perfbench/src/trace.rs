//! The traced run: each layer's public function called from outside,
//! in the order the end-to-end path calls it, under an in-memory span.
//!
//! A span records its name, start, end and parent; spans stay in memory
//! and are rendered once at the end. A layer's self time is its span's
//! duration minus the part its child spans cover. Spans marked *on
//! path* are the steps the untraced `run_s` interval contains (for the
//! facade's engine at the workload's thread count); the others — the
//! second sweep engine, the index read, the served answers — are
//! measured beside it.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use linkclust_bench::alloc::{measure_alloc_traffic, measure_peak};
use linkclust_core::init::compute_similarities;
use linkclust_core::sweep::{sweep_with, SweepConfig};
use linkclust_core::telemetry::Telemetry;
use linkclust_graph::GraphView;
use linkclust_parallel::init::compute_similarities_pooled;
use linkclust_parallel::sort::parallel_into_sorted_pooled;
use linkclust_parallel::ufsweep::ufsweep_with;
use linkclust_parallel::WorkerPool;
use linkclust_serve::DendrogramIndex;

use crate::inputs::Loaded;
use crate::{fingerprint, mib, process_cpu_s, with_graph, Obj};

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer function the span wraps.
    pub name: String,
    /// Start, seconds since the tracer was created.
    pub start: f64,
    /// End, seconds since the tracer was created.
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Whether the untraced `run_s` interval contains this step.
    pub on_path: bool,
}

/// An in-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl Tracer {
    /// Runs `f` under a span named `name`; spans opened inside `f` are
    /// its children.
    pub fn span<T>(&mut self, name: &str, on_path: bool, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let start = self.epoch.elapsed().as_secs_f64();
        let parent = self.open.last().copied();
        self.spans.push(Span { name: name.to_string(), start, end: f64::NAN, parent, on_path });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.epoch.elapsed().as_secs_f64();
        out
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    #[must_use]
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.end - s.start;
            }
        }
        own
    }

    /// Checks that every span closed, lies inside its parent, and does
    /// not overlap an earlier sibling.
    ///
    /// # Errors
    ///
    /// The first violation.
    pub fn check_nesting(&self) -> Result<(), String> {
        let mut last_end_of_children: Vec<f64> = vec![f64::NEG_INFINITY; self.spans.len() + 1];
        for (i, s) in self.spans.iter().enumerate() {
            if s.end.is_nan() || s.end < s.start {
                return Err(format!("span {i} ({}) is not closed", s.name));
            }
            let slot = s.parent.map_or(self.spans.len(), |p| p);
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                if p >= i || s.start < parent.start || s.end > parent.end {
                    return Err(format!(
                        "span {i} ({}) escapes its parent {}",
                        s.name, parent.name
                    ));
                }
            }
            if s.start < last_end_of_children[slot] {
                return Err(format!("span {i} ({}) overlaps an earlier sibling", s.name));
            }
            last_end_of_children[slot] = s.end;
        }
        Ok(())
    }

    /// Renders the spans as a JSON array.
    #[must_use]
    pub fn to_json(&self) -> String {
        let own = self.self_times();
        let items: Vec<String> = self
            .spans
            .iter()
            .zip(own)
            .map(|(s, own)| {
                Obj::new()
                    .str("name", &s.name)
                    .num("start", s.start)
                    .num("end", s.end)
                    .num("self", own)
                    .int("parent", s.parent.map_or(u64::MAX, |p| p as u64))
                    .boolean("on_path", s.on_path)
                    .finish()
            })
            .collect();
        crate::array(&items)
    }
}

/// Wall, CPU, peak-heap and allocation figures of one measured call.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cost {
    /// Wall seconds.
    pub wall_s: f64,
    /// Process CPU seconds.
    pub cpu_s: f64,
    /// Peak live-heap growth over the call (MiB).
    pub peak_heap_mb: f64,
    /// Allocation calls.
    pub alloc_calls: f64,
}

/// Runs `f` under a span and measures its [`Cost`].
fn measured<T>(tr: &mut Tracer, name: &str, on_path: bool, f: impl FnOnce() -> T) -> (T, Cost) {
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let ((out, peak), _, calls) =
        tr.span(name, on_path, |_| measure_alloc_traffic(|| measure_peak(f)));
    let cost = Cost {
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: process_cpu_s() - cpu0,
        peak_heap_mb: mib(peak),
        alloc_calls: calls as f64,
    };
    (out, cost)
}

/// Per-layer figures of one traced pipeline pass.
#[derive(Clone, Debug, Default)]
pub struct PassFigures {
    /// Name of the load layer's span.
    pub load_layer: String,
    /// Graph load (s).
    pub load_s: f64,
    /// Init cost.
    pub init: Cost,
    /// K₁: pairs with a common neighbour.
    pub pairs_k1: f64,
    /// Sort cost.
    pub sort: Cost,
    /// Algorithm-2 sweep (s).
    pub alg2_s: f64,
    /// Union-find sweep at the workload's threads (s).
    pub ufsweep_s: f64,
    /// CPU of the sweep engine the facade runs at these threads (s).
    pub sweep_cpu_s: f64,
    /// Merges applied.
    pub merges: f64,
    /// Incident edge pairs processed (K₂).
    pub pairs_processed: f64,
    /// Best density cut cost.
    pub best_cut: Cost,
    /// Index build, write, read (s) and bytes.
    pub index_build_s: f64,
    /// Index write (s).
    pub index_write_s: f64,
    /// Index read (s).
    pub index_read_s: f64,
    /// Index size (bytes).
    pub index_bytes: f64,
    /// Summed self time of the on-path spans (s).
    pub on_path_s: f64,
    /// Output checks that failed in this pass.
    pub failures: Vec<String>,
}

/// Runs one traced pass over the graph file at `graph`: load, init,
/// sort, both sweep engines, best cut, index build/write/read — and
/// checks both engines' fingerprints against `oracle` and the index
/// round trip against the live dendrogram.
///
/// # Errors
///
/// Load or I/O failures, rendered as strings.
pub fn traced_pass(
    tr: &mut Tracer,
    graph: &Path,
    threads: usize,
    oracle: &str,
    index_out: &Path,
) -> Result<(PassFigures, DendrogramIndex), String> {
    let layer = Loaded::layer_of(graph).map_err(|e| e.to_string())?;
    let first = tr.spans().len();
    let result = tr.span("pipeline", false, |tr| {
        let t = Instant::now();
        let loaded = tr.span(layer, false, |_| Loaded::load(graph))?;
        let load_s = t.elapsed().as_secs_f64();
        let mut figures = with_graph!(&loaded, g => layers(tr, g, threads, oracle, index_out))?;
        figures.0.load_layer = layer.to_string();
        figures.0.load_s = load_s;
        Ok::<_, String>(figures)
    });
    let (mut figures, index) = result?;
    let own = tr.self_times();
    figures.on_path_s =
        (first..tr.spans().len()).filter(|&i| tr.spans()[i].on_path).map(|i| own[i]).sum();
    Ok((figures, index))
}

#[allow(clippy::too_many_lines)]
fn layers<G>(
    tr: &mut Tracer,
    g: &G,
    threads: usize,
    oracle: &str,
    index_out: &Path,
) -> Result<(PassFigures, DendrogramIndex), String>
where
    G: GraphView + Clone + Send + Sync + 'static,
{
    let tel = Telemetry::disabled();
    let mut f = PassFigures::default();
    // The facade builds one pool and an `Arc` of the graph per run at
    // two or more threads; at one thread it runs the serial path.
    let parallel = threads > 1;
    let (pool, shared) = tr.span("parallel.run_context", parallel, |_| {
        (Arc::new(WorkerPool::new(threads)), Arc::new(g.clone()))
    });

    let (sims, init) = measured(tr, "core.init", true, || {
        if parallel {
            compute_similarities_pooled(&pool, &shared, &tel)
        } else {
            compute_similarities(g)
        }
    });
    f.init = init;
    f.pairs_k1 = sims.len() as f64;

    let (sorted, sort) = measured(tr, "core.sort", true, || {
        if parallel {
            parallel_into_sorted_pooled(&pool, sims, &tel)
        } else {
            sims.into_sorted()
        }
    });
    f.sort = sort;
    let sorted = Arc::new(sorted);
    f.pairs_processed = sorted.incident_pair_count() as f64;

    let cpu0 = process_cpu_s();
    let (alg2, alg2_cost) = measured(tr, "core.sweep.sweep_with", !parallel, || {
        sweep_with(g, &sorted, SweepConfig::default(), &tel)
    });
    let cpu_alg2 = process_cpu_s() - cpu0;
    f.alg2_s = alg2_cost.wall_s;
    let cpu1 = process_cpu_s();
    let (uf, uf_cost) = measured(tr, "parallel.ufsweep.ufsweep_with", parallel, || {
        ufsweep_with(g, &sorted, SweepConfig::default(), &pool, &tel)
    });
    f.ufsweep_s = uf_cost.wall_s;
    f.sweep_cpu_s = if parallel { process_cpu_s() - cpu1 } else { cpu_alg2 };
    f.merges = alg2.dendrogram().merge_count() as f64;
    let output = if parallel { &uf } else { &alg2 };

    let (best, best_cost) = measured(tr, "core.dendrogram.best_density_cut", true, || {
        output.dendrogram().best_density_cut(g)
    });
    f.best_cut = best_cost;

    let t = Instant::now();
    let index = tr.span("serve.index.build", true, |_| DendrogramIndex::build(g, output));
    f.index_build_s = t.elapsed().as_secs_f64();
    let index = index.map_err(|e| e.to_string())?;
    let t = Instant::now();
    tr.span("serve.index.write", true, |_| {
        let mut w = BufWriter::new(File::create(index_out)?);
        index.write(&mut w).and_then(|()| w.flush())
    })
    .map_err(|e| e.to_string())?;
    f.index_write_s = t.elapsed().as_secs_f64();
    f.index_bytes = std::fs::metadata(index_out).map_or(0.0, |m| m.len() as f64);
    let t = Instant::now();
    let read = tr.span("serve.index.read", false, |_| {
        File::open(index_out)
            .map_err(|e| e.to_string())
            .and_then(|file| DendrogramIndex::read(BufReader::new(file)).map_err(|e| e.to_string()))
    })?;
    f.index_read_s = t.elapsed().as_secs_f64();

    // The output checks get a span of their own, so the pipeline span's
    // self time is only the glue between layer calls.
    f.failures = tr.span("perfbench.checks", false, |_| {
        let mut failures = Vec::new();
        for (engine, out) in [("sweep_with", &alg2), ("ufsweep_with", &uf)] {
            let fp = fingerprint(out.dendrogram(), out.merge_scores());
            if fp != oracle {
                failures.push(format!("{engine} fingerprint {fp} != oracle {oracle}"));
            }
        }
        if read != index || read.to_dendrogram() != *output.dendrogram() {
            failures.push("index read back differs from the live dendrogram".to_string());
        }
        if read.best_cut() != best {
            failures.push("index best_cut differs from best_density_cut".to_string());
        }
        failures
    });
    // Freeing the similarity list and both sweep outputs takes real
    // time; the untraced run pays it after its timed interval ends.
    tr.span("perfbench.free", false, |_| drop((sorted, alg2, uf, index)));
    Ok((f, read))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_check_and_self_times_add_up() {
        let mut tr = Tracer::default();
        tr.span("root", true, |tr| {
            tr.span("a", true, |_| std::thread::sleep(std::time::Duration::from_millis(2)));
            tr.span("b", false, |tr| tr.span("c", true, |_| ()));
        });
        tr.check_nesting().unwrap();
        let own = tr.self_times();
        let root = &tr.spans()[0];
        let total: f64 = own.iter().sum();
        assert!((total - (root.end - root.start)).abs() < 1e-9);
        assert!(own.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn overlapping_siblings_are_rejected() {
        let mut tr = Tracer::default();
        tr.span("root", true, |tr| {
            tr.span("a", true, |_| ());
            tr.span("b", true, |_| ());
        });
        tr.spans[2].start = tr.spans[1].start - 1.0;
        assert!(tr.check_nesting().is_err());
    }
}
