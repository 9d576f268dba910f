//! The machine-readable report: [`render_json`] emits the stable
//! `cebinae-verify-report-v1` schema (the rule set, the waivers that
//! suppressed a finding per rule, and one object per finding: rule, file,
//! line, message, trace) that CI archives as a workflow artifact.

use crate::rules::{Rule, Violation};
use std::collections::BTreeMap;
use std::fmt::Write as _;

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render findings and used-waiver counts as the stable
/// `cebinae-verify-report-v1` document.
pub fn render_json(violations: &[Violation], waivers_used: &BTreeMap<Rule, usize>) -> String {
    let mut j = String::from("{\n");
    let _ = writeln!(j, "  \"schema\": \"cebinae-verify-report-v1\",");
    let _ = writeln!(j, "  \"rules\": \"{}\",", Rule::span());
    let _ = writeln!(j, "  \"count\": {},", violations.len());
    let used: Vec<String> = waivers_used.iter().map(|(r, n)| format!("\"{r}\": {n}")).collect();
    let _ = writeln!(j, "  \"waivers_used\": {{{}}},", used.join(", "));
    let _ = writeln!(j, "  \"findings\": [");
    for (i, v) in violations.iter().enumerate() {
        let _ = writeln!(j, "    {{");
        let _ = writeln!(j, "      \"rule\": \"{}\",", v.rule);
        let _ = writeln!(j, "      \"file\": \"{}\",", json_escape(&v.file));
        let _ = writeln!(j, "      \"line\": {},", v.line);
        let _ = writeln!(j, "      \"message\": \"{}\",", json_escape(&v.message));
        let trace: Vec<String> =
            v.trace.iter().map(|t| format!("\"{}\"", json_escape(t))).collect();
        let _ = writeln!(j, "      \"trace\": [{}]", trace.join(", "));
        let _ = writeln!(j, "    }}{}", if i + 1 < violations.len() { "," } else { "" });
    }
    j.push_str("  ]\n}\n");
    j
}
