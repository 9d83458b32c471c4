//! Untraced subcommands of the benchmark (system allocator). `run.py`
//! drives these; each prints one JSON document on stdout.
//!
//! ```text
//! perfbench gen <workload> <seed> <dir> [--smoke]
//! perfbench batch <graph> <index-out> <threads> <oracle> [--corrupt]
//! perfbench serve <graph> <index> <linkclustd> <seed> --threads T --spawns N --rate R
//!                 --nominal-s S --admit-every S --closed-n N --ladder R1,R2,.. --step-s S
//!                 [--corrupt]
//! ```
//!
//! Every `serve` option is required: `run.py` sets the workload's
//! traffic, and METRICS.md says where each figure comes from.

use std::path::Path;
use std::process::ExitCode;

use linkclust_perfbench::{batch, inputs, serve};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let opt = |name: &str| {
        args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
    };
    let pos = |i: usize| args.get(i).map(String::as_str).unwrap_or_default();
    let result = match pos(0) {
        "gen" => match (inputs::Workload::parse(pos(1)), pos(2).parse::<u64>()) {
            (Some(w), Ok(seed)) => inputs::generate(w, seed, Path::new(pos(3)), flag("--smoke")),
            _ => Err("usage: perfbench gen <workload> <seed> <dir> [--smoke]".into()),
        },
        "batch" => match pos(3).parse::<usize>() {
            Ok(threads) if threads > 0 => batch::run(&batch::BatchArgs {
                graph: Path::new(pos(1)),
                index_out: Path::new(pos(2)),
                threads,
                oracle: pos(4),
                corrupt: flag("--corrupt"),
            }),
            _ => Err("usage: perfbench batch <graph> <index-out> <threads> <oracle>".into()),
        },
        "serve" => {
            let num = |name: &str| {
                opt(name)
                    .and_then(|v| v.parse::<f64>().ok())
                    .ok_or_else(|| format!("perfbench serve: {name} <number> is required"))
            };
            let serve_args = || -> Result<serve::ServeArgs<'_>, String> {
                let ladder = opt("--ladder")
                    .ok_or("perfbench serve: --ladder <r1,r2,..> is required")?
                    .split(',')
                    .filter(|r| !r.is_empty())
                    .map(|r| r.parse::<f64>().map_err(|e| format!("--ladder {r}: {e}")))
                    .collect::<Result<Vec<f64>, String>>()?;
                Ok(serve::ServeArgs {
                    graph: Path::new(pos(1)),
                    index: Path::new(pos(2)),
                    daemon: Path::new(pos(3)),
                    seed: pos(4).parse::<u64>().map_err(|_| "perfbench serve: bad <seed>")?,
                    threads: num("--threads")? as usize,
                    spawns: num("--spawns")? as usize,
                    nominal: (num("--rate")?, num("--nominal-s")?),
                    admit_every: num("--admit-every")?,
                    closed_queries: num("--closed-n")? as usize,
                    ladder: (ladder, num("--step-s")?),
                    corrupt: flag("--corrupt"),
                })
            };
            serve_args().and_then(|a| serve::run(&a))
        }
        _ => Err("usage: perfbench <gen|batch|serve> ...".into()),
    };
    match result {
        Ok(doc) => {
            println!("{doc}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
