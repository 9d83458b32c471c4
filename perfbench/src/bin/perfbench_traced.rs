//! The traced run (counting allocator installed, so per-layer peak heap
//! and allocation counts are exact). `run.py --trace 1` drives it:
//!
//! ```text
//! perfbench-traced <graph> <index-out> <threads> <oracle> <seed> <seconds> <spans-out>
//! ```
//!
//! Repeats the traced pipeline pass while time remains from the first
//! two thirds of `seconds` (at least once), then answers the query mix
//! through an in-process `Server` over the pass's index for the rest.
//! Prints one JSON document of per-layer figures (medians over passes),
//! the self time of every layer summed over the spans, and the span
//! nesting check; writes every span to `<spans-out>`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use linkclust_perfbench::serve::{answer_in_process, KINDS};
use linkclust_perfbench::trace::{traced_pass, PassFigures, Tracer};
use linkclust_perfbench::{inputs::Loaded, median, quantile, Obj};

#[global_allocator]
static ALLOC: linkclust_bench::alloc::CountingAlloc = linkclust_bench::alloc::CountingAlloc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(doc) => {
            println!("{doc}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench-traced: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<String, String> {
    let usage = "usage: perfbench-traced <graph> <index-out> <threads> <oracle> <seed> <seconds> <spans-out>";
    let [graph, index_out, threads, oracle, seed, seconds, spans_out] = args else {
        return Err(usage.into());
    };
    let threads: usize = threads.parse().map_err(|_| usage)?;
    let seed: u64 = seed.parse().map_err(|_| usage)?;
    let seconds: f64 = seconds.parse().map_err(|_| usage)?;
    let (graph, index_out) = (Path::new(graph), Path::new(index_out));

    let start = Instant::now();
    let mut tr = Tracer::default();
    let mut passes: Vec<PassFigures> = Vec::new();
    let mut index = None;
    while passes.is_empty()
        || start.elapsed().as_secs_f64() + last_pass_s(&passes) < seconds * 2.0 / 3.0
    {
        let (figures, built) = traced_pass(&mut tr, graph, threads, oracle, index_out)?;
        passes.push(figures);
        index = Some(built);
    }
    let index = index.ok_or("no pass ran")?;
    let remaining = (seconds - start.elapsed().as_secs_f64()).max(seconds / 4.0);
    let answers = tr.span("serve.server.handle_line", false, |_| {
        answer_in_process(&Loaded::load(graph)?, &index, threads, seed, remaining, usize::MAX)
    })?;
    let nesting = tr.check_nesting();
    std::fs::write(spans_out, tr.to_json()).map_err(|e| e.to_string())?;
    let layers = layer_breakdown(&tr);

    let med = |f: &dyn Fn(&PassFigures) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let mut failures: Vec<String> = passes.iter().flat_map(|p| p.failures.clone()).collect();
    failures.extend(answers.errors.iter().cloned());
    let mut doc = Obj::new()
        .str("load_layer", &passes[0].load_layer)
        .int("passes", passes.len() as u64)
        .num("graph.load_s", med(&|p| p.load_s))
        .num("init.wall_s", med(&|p| p.init.wall_s))
        .num("init.cpu_s", med(&|p| p.init.cpu_s))
        .num("init.peak_heap_mb", med(&|p| p.init.peak_heap_mb))
        .num("init.alloc_calls", med(&|p| p.init.alloc_calls))
        .num("init.pairs_k1", med(&|p| p.pairs_k1))
        .num("sort.wall_s", med(&|p| p.sort.wall_s))
        .num("sort.cpu_s", med(&|p| p.sort.cpu_s))
        .num("sort.peak_heap_mb", med(&|p| p.sort.peak_heap_mb))
        .num("sweep.alg2_s", med(&|p| p.alg2_s))
        .num("sweep.ufsweep_s", med(&|p| p.ufsweep_s))
        .num("sweep.cpu_s", med(&|p| p.sweep_cpu_s))
        .num("sweep.merges", med(&|p| p.merges))
        .num("sweep.pairs_processed", med(&|p| p.pairs_processed))
        .num("sweep.merge_yield", med(&|p| p.merges / p.pairs_processed))
        .num("dendrogram.best_cut_s", med(&|p| p.best_cut.wall_s))
        .num("dendrogram.peak_heap_mb", med(&|p| p.best_cut.peak_heap_mb))
        .num("serve.index.build_s", med(&|p| p.index_build_s))
        .num("serve.index.write_s", med(&|p| p.index_write_s))
        .num("serve.index.bytes", med(&|p| p.index_bytes))
        .num("serve.index.read_s", med(&|p| p.index_read_s))
        .num("trace.on_path_s", med(&|p| p.on_path_s));
    for (k, kind) in KINDS.iter().enumerate() {
        let us = &answers.per_kind_us[k];
        doc = doc
            .num(&format!("serve.server.{kind}.service_p50_us"), median(us))
            .num(&format!("serve.server.{kind}.service_p99_us"), quantile(us, 0.99))
            .num(&format!("serve.json.response_bytes.{kind}"), median(&answers.per_kind_bytes[k]))
            .int(&format!("serve.server.{kind}.samples"), us.len() as u64);
    }
    let all_us = answers.all_us();
    Ok(doc
        .num("serve.server.service_p99_us", quantile(&all_us, 0.99))
        .num("serve.cache.hit_ratio_in_process", answers.hit_ratio)
        .int("answers", answers.queries)
        .num("answer_capacity_qps", answers.queries as f64 / answers.busy_s)
        .raw("layers_self_s", &layers.self_s)
        .str("largest_on_path_layer", &layers.largest_on_path)
        .num("passes_traced_s", layers.passes_traced_s)
        .num("layers_account_for", layers.account_for)
        .boolean("spans_nested", nesting.is_ok())
        .str("nesting_error", &nesting.err().unwrap_or_default())
        .int("attempted", passes.len() as u64 * 3 + answers.queries)
        .int("failed", failures.len() as u64 - answers.errors.len() as u64 + answers.failed)
        .raw("failures", &linkclust_perfbench::string_array(&failures))
        .finish())
}

/// Self time per layer, summed over every span of that name.
struct Layers {
    /// `{layer: seconds}`, rendered.
    self_s: String,
    /// The on-path layer with the most self time.
    largest_on_path: String,
    /// Traced time of the pipeline passes, less the output checks and the
    /// final frees (which the untraced run pays outside `run_s`).
    passes_traced_s: f64,
    /// Share of `passes_traced_s` the layer spans account for; the rest
    /// is the glue between layer calls.
    account_for: f64,
}

fn layer_breakdown(tr: &Tracer) -> Layers {
    let mut by_layer: BTreeMap<&str, (f64, bool)> = BTreeMap::new();
    for (span, own) in tr.spans().iter().zip(tr.self_times()) {
        let entry = by_layer.entry(span.name.as_str()).or_default();
        entry.0 += own;
        entry.1 |= span.on_path;
    }
    let self_of = |name: &str| by_layer.get(name).map_or(0.0, |e| e.0);
    let passes: f64 =
        tr.spans().iter().filter(|s| s.name == "pipeline").map(|s| s.end - s.start).sum();
    let passes_traced_s = passes - self_of("perfbench.checks") - self_of("perfbench.free");
    let largest_on_path = by_layer
        .iter()
        .filter(|(_, e)| e.1)
        .max_by(|a, b| a.1 .0.total_cmp(&b.1 .0))
        .map_or_else(String::new, |(name, _)| (*name).to_string());
    let mut self_s = Obj::new();
    for (name, e) in &by_layer {
        self_s = self_s.num(name, e.0);
    }
    Layers {
        self_s: self_s.finish(),
        largest_on_path,
        passes_traced_s,
        account_for: (passes_traced_s - self_of("pipeline")) / passes_traced_s,
    }
}

/// Wall time of the latest pass (s), so another pass starts only if it
/// fits the budget.
fn last_pass_s(passes: &[PassFigures]) -> f64 {
    passes.last().map_or(0.0, |p| p.load_s + p.on_path_s)
}
