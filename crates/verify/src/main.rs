//! CLI for the workspace determinism pass.
//!
//! ```text
//! cargo run -p cebinae-verify                   # check the whole workspace
//! cargo run -p cebinae-verify -- --skip R5,R8
//! cargo run -p cebinae-verify -- --root path/to/tree
//! cargo run -p cebinae-verify -- --format json  # machine-readable report
//! cargo run -p cebinae-verify -- --explain R12  # rationale + fix example
//! ```
//!
//! Exit status 0 when clean, 1 on any violation, 2 on usage/IO errors.

use cebinae_verify::rules::RULES;
use cebinae_verify::{check_workspace, report, Config, Rule};
use std::process::ExitCode;

const USAGE: &str =
    "usage: cebinae-verify [--root DIR] [--skip RULE,..] [--format text|json] [--explain RULE]";

fn main() -> ExitCode {
    let mut cfg = Config::new(cebinae_verify::workspace_root());
    let mut json = false;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(p) => cfg.root = p.into(),
                None => return usage("--root needs a path"),
            },
            "--skip" => match args.next() {
                Some(list) => {
                    for part in list.split(',') {
                        match Rule::parse(part) {
                            Some(r) => cfg.disabled.push(r),
                            None => return usage(&format!("unknown rule `{part}`")),
                        }
                    }
                }
                None => return usage("--skip needs a rule list, e.g. R5,R6"),
            },
            "--format" => match args.next().as_deref() {
                Some("json") => json = true,
                Some("text") => json = false,
                Some(other) => return usage(&format!("unknown format `{other}`")),
                None => return usage("--format needs `text` or `json`"),
            },
            "--explain" => match args.next() {
                Some(r) => {
                    return match Rule::parse(&r) {
                        Some(rule) => {
                            print!("{}", rule.explain());
                            ExitCode::SUCCESS
                        }
                        None => usage(&format!("unknown rule `{r}`")),
                    }
                }
                None => return usage("--explain needs a rule id, e.g. R12"),
            },
            "--help" | "-h" => {
                eprintln!("{USAGE}\n\nrules ({}):", Rule::span());
                for i in &RULES {
                    eprintln!("  {:<4}{}", i.id, i.summary);
                }
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let report = match check_workspace(&cfg) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("cebinae-verify: IO error: {e}");
            return ExitCode::from(2);
        }
    };
    if json {
        print!("{}", report::render_json(&report.findings, &report.waivers_used));
    } else if report.findings.is_empty() {
        let skipped: Vec<String> = cfg.disabled.iter().map(|r| r.to_string()).collect();
        let used: Vec<String> =
            report.waivers_used.iter().map(|(r, n)| format!("{r} {n}")).collect();
        println!(
            "cebinae-verify: workspace clean ({}; waivers used: {})",
            if skipped.is_empty() {
                format!("rules {}", Rule::span())
            } else {
                format!("skipped: {}", skipped.join(","))
            },
            if used.is_empty() { "none".into() } else { used.join(", ") }
        );
    } else {
        for v in &report.findings {
            println!("{v}");
        }
        println!("cebinae-verify: {} violation(s)", report.findings.len());
    }
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("cebinae-verify: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}
