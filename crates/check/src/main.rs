//! CLI for the scenario fuzzer.
//!
//! ```text
//! cebinae-check --smoke --seeds 32 [--base-seed S] [--threads N]
//! cebinae-check --chaos --seeds 8 [--base-seed S] [--threads N]
//! cebinae-check --replay SEED [--flows N] [--dur-ms M] [--faults FAMILY]
//! cebinae-check --corpus PATH [--threads N]
//! ```
//!
//! Exit codes: 0 all oracles green, 1 at least one violation, 2 usage
//! error. Output is deterministic for a given invocation — independent of
//! thread count, host, and wall clock.

use cebinae_check::shrink::{replay_line, Overrides};
use cebinae_check::{check_seed, parse_corpus, run_campaign, run_chaos_campaign, run_corpus};
use cebinae_par::TrialPool;

const USAGE: &str = "usage: cebinae-check --smoke --seeds N [--base-seed S] [--threads N]
       cebinae-check --chaos --seeds N [--base-seed S] [--threads N]
       cebinae-check --replay SEED [--flows N] [--dur-ms M] [--faults FAMILY]
       cebinae-check --corpus PATH [--threads N]
FAMILY: loss burst reorder dup corrupt flap stall mix";

struct Args {
    smoke: bool,
    chaos: bool,
    seeds: u64,
    base_seed: u64,
    replay: Option<u64>,
    overrides: Overrides,
    corpus: Option<String>,
    threads: Option<usize>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        smoke: false,
        chaos: false,
        seeds: 32,
        base_seed: 0,
        replay: None,
        overrides: Overrides::default(),
        corpus: None,
        threads: None,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--smoke" => a.smoke = true,
            "--chaos" => a.chaos = true,
            "--seeds" => a.seeds = value("--seeds")?.parse().map_err(|e| format!("--seeds: {e}"))?,
            "--base-seed" => {
                a.base_seed = value("--base-seed")?
                    .parse()
                    .map_err(|e| format!("--base-seed: {e}"))?;
            }
            "--replay" => {
                a.replay =
                    Some(value("--replay")?.parse().map_err(|e| format!("--replay: {e}"))?);
            }
            flag @ ("--flows" | "--dur-ms" | "--faults") => {
                let v = value(flag)?;
                a.overrides.set(flag, &v)?;
            }
            "--corpus" => a.corpus = Some(value("--corpus")?),
            "--threads" => {
                let n: usize = value("--threads")?.parse().map_err(|e| format!("--threads: {e}"))?;
                if n == 0 {
                    return Err("--threads: must be at least 1".into());
                }
                a.threads = Some(n);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cebinae-check: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let pool = args.threads.map_or_else(TrialPool::default, TrialPool::with_threads);

    if let Some(seed) = args.replay {
        let outcome = check_seed(seed, args.overrides);
        println!("replaying {}", outcome.desc);
        if outcome.passed() {
            println!("result: PASS");
            return;
        }
        for v in &outcome.violations {
            println!("  [{}] {}", v.oracle, v.detail);
        }
        let shrunk = outcome.shrunk.unwrap_or(args.overrides);
        println!("shrunk replay: {}", replay_line(seed, &shrunk));
        println!("result: FAIL");
        std::process::exit(1);
    }

    if let Some(path) = &args.corpus {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cebinae-check: cannot read corpus {path}: {e}");
                std::process::exit(2);
            }
        };
        let entries = match parse_corpus(&text) {
            Ok(e) => e,
            Err(e) => {
                eprintln!("cebinae-check: {e}");
                std::process::exit(2);
            }
        };
        let report = run_corpus(&entries, &pool);
        print!("{}", report.render());
        std::process::exit(if report.passed() { 0 } else { 1 });
    }

    if args.chaos {
        let report = run_chaos_campaign(args.base_seed, args.seeds, &pool);
        print!("{}", report.render());
        println!("fingerprint: {:016x}", report.fingerprint());
        std::process::exit(if report.passed() { 0 } else { 1 });
    }

    if args.smoke {
        let report = run_campaign(args.base_seed, args.seeds, &pool);
        print!("{}", report.render());
        println!("fingerprint: {:016x}", report.fingerprint());
        std::process::exit(if report.passed() { 0 } else { 1 });
    }

    eprintln!("{USAGE}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn threads_must_be_positive() {
        assert_eq!(parse(&["--smoke", "--threads", "2"]).unwrap().threads, Some(2));
        assert_eq!(parse(&["--smoke"]).unwrap().threads, None);
        assert!(parse(&["--smoke", "--threads", "0"]).is_err());
        assert!(parse(&["--smoke", "--threads", "-1"]).is_err());
        assert!(parse(&["--smoke", "--threads"]).is_err());
    }
}
