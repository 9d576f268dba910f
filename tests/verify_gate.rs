//! Tier-1 gate: run `cebinae-verify`'s full determinism & dataplane-safety
//! pass over the workspace from the root package, so a plain
//! `cargo test -q` fails on any unwaived violation.

use cebinae_verify::{check_workspace, Rule};

#[test]
fn workspace_passes_determinism_rules() {
    let violations = check_workspace(&cebinae_verify::workspace_root()).expect("workspace walk failed").findings;
    if !violations.is_empty() {
        let listing: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
        panic!(
            "cebinae-verify found {} violation(s) (rules {}):\n{}\n\n\
             Fix the code, or waive a line with `// det-ok: <reason>` if the\n\
             behavior is genuinely deterministic.",
            violations.len(),
            Rule::span(),
            listing.join("\n")
        );
    }
}
