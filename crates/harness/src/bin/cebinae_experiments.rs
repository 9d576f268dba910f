//! CLI for regenerating the paper's tables and figures.
//!
//! ```text
//! cebinae-experiments <experiment>... [--full] [--rows 1,2,5] [--seed N] [--threads N]
//!                                     [--telemetry PATH] [--faults SPEC]
//! cebinae-experiments all [--full]
//! cebinae-experiments list
//! ```

use cebinae_harness::{select, Ctx, EXPERIMENTS};
use cebinae_par::TrialPool;

fn usage() -> ! {
    eprintln!(
        "usage: cebinae-experiments <experiment>... [--full] [--rows 1,2,5] [--seed N] [--threads N]\n\
                                    [--telemetry PATH] [--faults SPEC]\n\
         \n\
         experiments: {}\n\
         special:     all (every experiment), list (print names)\n\
         flags:       --full      paper-duration runs (100 s, 100 trials)\n\
                      --rows      table2 row filter (comma-separated ids)\n\
                      --seed      RNG seed / trial index (default 1)\n\
                      --threads   trial-pool workers (default: the machine's\n\
                                  cores; output is identical for any value)\n\
                      --telemetry append deterministic NDJSON telemetry to PATH\n\
                      --faults    fault plan for fault-aware experiments, e.g.\n\
                                  'burst:0.3,flap:500+200' (see the chaos\n\
                                  experiment)",
        EXPERIMENTS.iter().map(|(name, _)| *name).collect::<Vec<_>>().join(", ")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut ctx = Ctx::serial(false, 1).with_threads(TrialPool::default().threads());
    let mut rows: Option<Vec<usize>> = None;
    let mut experiments: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--full" => ctx.full = true,
            "--rows" => {
                let v = it.next().unwrap_or_else(|| usage());
                rows = Some(
                    v.split(',')
                        .map(|s| s.trim().parse().unwrap_or_else(|_| usage()))
                        .collect(),
                );
            }
            "--seed" => {
                ctx.seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--threads" => {
                ctx.threads = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage());
            }
            "--telemetry" => {
                ctx.telemetry = Some(it.next().unwrap_or_else(|| usage()));
            }
            "--faults" => {
                let spec = it.next().unwrap_or_else(|| usage());
                match cebinae_faults::FaultPlan::parse(&spec) {
                    Ok(plan) => ctx.faults = plan,
                    Err(e) => {
                        eprintln!("--faults: {e}");
                        std::process::exit(2);
                    }
                }
            }
            "list" => {
                for (name, _) in EXPERIMENTS {
                    println!("{name}");
                }
                return;
            }
            "all" => experiments.extend(EXPERIMENTS.iter().map(|(name, _)| name.to_string())),
            "-h" | "--help" => usage(),
            name => experiments.push(name.to_string()),
        }
    }
    if experiments.is_empty() {
        usage();
    }
    // Every name and row is checked before the first experiment runs.
    let picked = select(&experiments, rows.as_deref()).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    if let Some(path) = &ctx.telemetry {
        if let Err(e) = std::fs::OpenOptions::new().create(true).append(true).open(path) {
            eprintln!("--telemetry {path}: {e}");
            std::process::exit(2);
        }
    }
    for (name, run) in picked {
        println!("==== {name} {}====", if ctx.full { "(full) " } else { "" });
        let t0 = std::time::Instant::now();
        println!("{}", run(&ctx, rows.as_deref()));
        println!("[{name} took {:.1}s]\n", t0.elapsed().as_secs_f64());
        if let Some(e) = ctx.telemetry_error() {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
