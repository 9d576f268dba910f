//! `cebinae-ledger`: run one workload of the performance ledger.
//!
//! ```text
//! cebinae-ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` repeats the workload for `--seconds` seconds and prints the
//! end-to-end metrics; `--trace 1` makes the traced run and prints the
//! per-layer metrics (its work is fixed: one engine run per variant plus
//! the layer replays, whatever `--seconds` says). The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. The exit code is 0 only if the run was correct.

use std::path::PathBuf;
use std::process::ExitCode;

use cebinae_ledger::workloads::{self, WORKLOADS};
use cebinae_ledger::{timed, traced, END_TO_END, PER_LAYER};

struct Opts {
    workload: &'static workloads::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(problem: &str) -> ExitCode {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!("cebinae-ledger: {problem}");
    eprintln!("usage: cebinae-ledger --workload <name> [--seed N] [--seconds S] [--trace 0|1]");
    eprintln!("workloads: {}", names.join(", "));
    ExitCode::from(2)
}

fn parse_opts() -> Result<Opts, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workloads::find(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(format!("--seconds {value} out of range (0, 3600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Spans go next to the built binary (inside the build directory, which
/// is ignored), under `ledger/`.
fn spans_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|dir| dir.join("ledger")))
        .unwrap_or_else(|| PathBuf::from("target/ledger"))
}

fn main() -> ExitCode {
    let opts = match parse_opts() {
        Ok(opts) => opts,
        Err(problem) => return usage(&problem),
    };
    let inputs = opts.workload.inputs(opts.seed);
    let (report, expected) = if opts.trace {
        (
            traced::run(opts.workload, inputs, &spans_dir()),
            &PER_LAYER[..],
        )
    } else {
        (
            timed::run(opts.workload, &inputs, opts.seconds),
            &END_TO_END[..],
        )
    };
    for line in &report.lines {
        println!("{line}");
    }
    println!("{}", report.to_json(expected));
    if report.correct(expected) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
