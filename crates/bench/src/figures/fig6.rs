//! Fig. 6 — multi-threading speedups.
//!
//! The paper's workstation has 6 physical cores; the harness runs the
//! same thread sweep {1, 2, 4, 6} on whatever hardware is present and
//! reports honestly (on fewer cores, speedups saturate at the core
//! count; on one core they hover near or below 1.0 due to threading
//! overhead — the *correctness* of the parallel path is covered by the
//! test suite independently of speedup).

use std::io;
use std::sync::Arc;

use linkclust_core::init::compute_similarities;
use linkclust_parallel::{compute_similarities_parallel, parallel_coarse_sweep};

use crate::figures::fig5::coarse_config_for;
use crate::table::{fmt_f64, Table};
use crate::timing::time_runs;

use super::FigureContext;

/// The thread counts of Fig. 6.
pub const THREADS: [usize; 4] = [1, 2, 4, 6];

/// α values evaluated (the paper drops α = 0.0001 as trivially fast).
const FIG6_ALPHAS: [f64; 4] = [0.0005, 0.001, 0.005, 0.01];

/// Fig. 6(1): initialization-phase speedup vs thread count per α.
///
/// # Errors
///
/// Propagates CSV-write failures.
pub fn run_fig6_1(ctx: &FigureContext) -> io::Result<()> {
    let runs = ctx.scale().timing_runs();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut t = Table::new(
        &format!("Fig. 6(1): initialization speedup ({cores} hardware cores)"),
        &["alpha", "threads", "time_s", "speedup"],
    );
    for &alpha in &FIG6_ALPHAS {
        let g = ctx.workload().graph_for_alpha(alpha);
        let mut base = None;
        for &threads in &THREADS {
            let (_, stats) = time_runs(runs, || compute_similarities_parallel(&g, threads));
            let secs = stats.mean_secs();
            let base_secs = *base.get_or_insert(secs);
            t.row(vec![
                alpha.to_string(),
                threads.to_string(),
                fmt_f64(secs, 4),
                fmt_f64(base_secs / secs.max(1e-12), 2),
            ]);
        }
    }
    println!("(paper on 6 cores: ~2.0x at 2 threads, 3.5-4.0x at 4, 4.5-5.0x at 6)");
    t.emit(&ctx.csv_path("fig6_1_init_speedup.csv"))
}

/// Fig. 6(2): coarse-sweep speedup vs thread count per α (initialization
/// is shared; only the sweep is timed).
///
/// # Errors
///
/// Propagates CSV-write failures.
pub fn run_fig6_2(ctx: &FigureContext) -> io::Result<()> {
    let runs = ctx.scale().timing_runs();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut t = Table::new(
        &format!("Fig. 6(2): coarse-sweep speedup ({cores} hardware cores)"),
        &["alpha", "threads", "time_s", "speedup"],
    );
    for &alpha in &FIG6_ALPHAS {
        let g = ctx.workload().graph_for_alpha(alpha);
        let sims = Arc::new(compute_similarities(&g).into_sorted());
        let cfg = coarse_config_for(&g, sims.incident_pair_count());
        let mut base = None;
        for &threads in &THREADS {
            let (_, stats) = time_runs(runs, || parallel_coarse_sweep(&g, &sims, cfg, threads));
            let secs = stats.mean_secs();
            let base_secs = *base.get_or_insert(secs);
            t.row(vec![
                alpha.to_string(),
                threads.to_string(),
                fmt_f64(secs, 4),
                fmt_f64(base_secs / secs.max(1e-12), 2),
            ]);
        }
    }
    t.emit(&ctx.csv_path("fig6_2_sweep_speedup.csv"))
}
