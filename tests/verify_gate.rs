//! Tier-1 gate: run `cebinae-verify`'s full determinism & dataplane-safety
//! pass (rules R1-R14) over the workspace from the root package, so a
//! plain `cargo test -q` fails on any unwaived violation. Uses the
//! incremental cache — warm runs re-lex only changed files, and the
//! findings are byte-identical to a cold run (pinned by
//! `crates/verify/tests/analysis.rs`).

use cebinae_verify::{check_workspace_cached, Config};

#[test]
fn workspace_passes_determinism_rules() {
    let cfg = Config::new(cebinae_verify::workspace_root());
    let (violations, _stats) =
        check_workspace_cached(&cfg, None).expect("workspace walk failed");
    if !violations.is_empty() {
        let listing: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
        panic!(
            "cebinae-verify found {} violation(s) (rules R1-R14):\n{}\n\n\
             Fix the code, or waive a line with `// det-ok: <reason>` if the\n\
             behavior is genuinely deterministic.",
            violations.len(),
            listing.join("\n")
        );
    }
}
