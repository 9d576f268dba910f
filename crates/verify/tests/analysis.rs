//! Workspace-analysis self-tests: the item parser, the symbol index /
//! call graph (with reachability traces), the unit rules R10-R12, the
//! JSON report, waiver accounting (W1, used counts), the manifest-derived
//! crate relation, and the rule table.

use cebinae_verify::index::CrateDeps;
use cebinae_verify::parser::{self, CallKind};
use cebinae_verify::report::render_json;
use cebinae_verify::rules::RULES;
use cebinae_verify::{check_source, lexer, source_report, Rule, Violation};
use std::collections::BTreeMap;

const R10: &str = include_str!("fixtures/r10_units.rs");
const R11: &str = include_str!("fixtures/r11_narrowing.rs");
const R12: &str = include_str!("fixtures/r12_counters.rs");

fn rule_hits(path: &str, src: &str, rule: Rule) -> Vec<Violation> {
    check_source(path, src)
        .into_iter()
        .filter(|v| v.rule == rule)
        .collect()
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

#[test]
fn parser_recovers_generic_fns_and_trait_impls() {
    let src = r#"
pub trait Qd {
    fn enqueue(&mut self, x: u32);
}
struct Q {
    xs: Vec<u32>,
}
impl Qd for Q {
    fn enqueue(&mut self, x: u32) {
        self.xs.push(x);
        helper(&self.xs, 0);
    }
}
fn helper<T: Ord + Copy>(xs: &[T], i: usize) -> T {
    xs[i]
}
"#;
    let facts = parser::parse(&lexer::lex(src));
    let by_name = |n: &str| facts.fns.iter().filter(|f| f.name == n).collect::<Vec<_>>();

    // The body-less trait declaration and the impl method are distinct.
    let enqueues = by_name("enqueue");
    assert_eq!(enqueues.len(), 2, "{facts:?}");
    let decl = enqueues.iter().find(|f| f.self_ty.is_none()).expect("trait decl");
    assert_eq!(decl.trait_name.as_deref(), Some("Qd"));
    assert!(decl.calls.is_empty() && decl.panics.is_empty());
    let method = enqueues.iter().find(|f| f.self_ty.is_some()).expect("impl method");
    assert_eq!(method.self_ty.as_deref(), Some("Q"));
    assert_eq!(method.trait_name.as_deref(), Some("Qd"));
    assert!(
        method.calls.iter().any(|c| c.kind == CallKind::Free { name: "helper".into() }),
        "{method:?}"
    );

    // The generic free fn keeps its indexing panic site despite the
    // `<T: Ord + Copy>` parameter list.
    let helper = &by_name("helper")[0];
    assert!(helper.self_ty.is_none());
    assert_eq!(helper.panics.len(), 1, "{helper:?}");
    assert!(helper.panics[0].what.contains("indexing"));
}

#[test]
fn parser_classifies_method_chains_and_keeps_closure_sites() {
    let src = r#"
struct W {
    inner: Inner,
}
impl W {
    fn dequeue(&mut self) -> u32 {
        let v: Vec<u32> = (0..4).map(|i| self.inner.pick(i)).collect();
        self.inner.stats.refresh();
        self.reset();
        v.first().copied().unwrap_or(0)
    }
    fn reset(&mut self) {}
}
"#;
    let facts = parser::parse(&lexer::lex(src));
    let dequeue = facts.fns.iter().find(|f| f.name == "dequeue").expect("dequeue");
    // A chained receiver is not `self`, so the call resolves by name union;
    // the closure's call site belongs to the enclosing fn.
    assert!(dequeue
        .calls
        .iter()
        .any(|c| c.kind == CallKind::Method { name: "pick".into(), recv_self: false }));
    assert!(dequeue
        .calls
        .iter()
        .any(|c| c.kind == CallKind::Method { name: "refresh".into(), recv_self: false }));
    // A direct `self.reset()` keeps its receiver.
    assert!(dequeue
        .calls
        .iter()
        .any(|c| c.kind == CallKind::Method { name: "reset".into(), recv_self: true }));
    // `unwrap_or` is not `unwrap`.
    assert!(dequeue.panics.is_empty(), "{dequeue:?}");
}

#[test]
fn parser_excludes_test_regions_and_nested_fn_bodies() {
    let src = r#"
fn outer() -> u32 {
    fn inner(v: &[u32], i: usize) -> u32 {
        v[i]
    }
    inner(&[1, 2], 0)
}

#[cfg(test)]
mod tests {
    fn helper_in_tests(v: &[u32], i: usize) -> u32 {
        v[i]
    }
}
"#;
    let facts = parser::parse(&lexer::lex(src));
    let names: Vec<&str> = facts.fns.iter().map(|f| f.name.as_str()).collect();
    assert_eq!(names, vec!["outer", "inner"], "test-region fns are out of scope");
    let outer = &facts.fns[0];
    let inner = &facts.fns[1];
    // The nested fn's indexing belongs to it, not to `outer`; `outer`
    // still records the call edge.
    assert!(outer.panics.is_empty(), "{outer:?}");
    assert_eq!(inner.panics.len(), 1, "{inner:?}");
    assert!(outer.calls.iter().any(|c| c.kind == CallKind::Free { name: "inner".into() }));
}

// ---------------------------------------------------------------------------
// Transitive R5 (the mutation-style planted-panic check)
// ---------------------------------------------------------------------------

const PLANTED: &str = r#"
struct Q {
    backing: Vec<u32>,
}
impl Q {
    fn enqueue(&mut self, x: u32) {
        self.admit(x);
    }
    fn admit(&mut self, x: u32) {
        self.store(x);
    }
    fn store(&mut self, x: u32) {
        self.backing.last().unwrap();
        self.backing.push(x);
    }
}
"#;

#[test]
fn planted_panic_two_calls_below_enqueue_is_caught_with_trace() {
    let hits = rule_hits("crates/net/src/planted.rs", PLANTED, Rule::R5);
    assert_eq!(hits.len(), 1, "{hits:?}");
    let v = &hits[0];
    assert!(v.message.contains("unwrap"), "{v:?}");
    assert_eq!(v.trace.len(), 3, "{v:?}");
    assert!(v.trace[0].starts_with("enqueue ("), "{v:?}");
    assert!(v.trace[1].starts_with("admit ("), "{v:?}");
    assert!(v.trace[2].starts_with("store ("), "{v:?}");
    let rendered = v.to_string();
    assert!(rendered.contains("[reached via: enqueue"), "{rendered}");
}

#[test]
fn removing_the_planted_panic_clears_the_finding() {
    let fixed = PLANTED.replace(
        "self.backing.last().unwrap();",
        "let _ = self.backing.last();",
    );
    assert!(rule_hits("crates/net/src/planted.rs", &fixed, Rule::R5).is_empty());
}

#[test]
fn hot_entries_exist_only_in_dataplane_crates() {
    // The same source outside core/net/fq has no entry points, so the
    // planted panic is unreachable by definition.
    assert!(rule_hits("crates/engine/src/planted.rs", PLANTED, Rule::R5).is_empty());
    assert!(rule_hits("crates/harness/src/planted.rs", PLANTED, Rule::R5).is_empty());
}

// ---------------------------------------------------------------------------
// R10-R12 fixtures
// ---------------------------------------------------------------------------

#[test]
fn r10_flags_cross_unit_arithmetic() {
    let hits = rule_hits("crates/sim/src/fixture.rs", R10, Rule::R10);
    // ns+bytes, ns+=bytes, bytes<pkts, annotated bytes<ns, field-chain
    // ns+bytes; the same-unit, unitless, divided, waived, method-call,
    // and test-region cases never count.
    assert_eq!(hits.len(), 5, "{hits:?}");
    assert!(hits.iter().any(|v| v.message.contains("`+=`")), "{hits:?}");
    assert!(hits.iter().any(|v| v.message.contains("`budget` is bytes")), "{hits:?}");
}

#[test]
fn r10_ignores_crates_outside_scope() {
    assert!(rule_hits("crates/harness/src/fixture.rs", R10, Rule::R10).is_empty());
    assert!(rule_hits("crates/check/src/fixture.rs", R10, Rule::R10).is_empty());
}

#[test]
fn r11_flags_narrowing_casts() {
    let hits = rule_hits("crates/net/src/fixture.rs", R11, Rule::R11);
    // `as u32`, `as f32`, `as u16`; the literal, widening, waived, and
    // test-region casts never count.
    assert_eq!(hits.len(), 3, "{hits:?}");
    assert!(hits.iter().all(|v| v.message.contains("narrowing")), "{hits:?}");
}

#[test]
fn r11_ignores_crates_outside_scope() {
    assert!(rule_hits("crates/core/src/fixture.rs", R11, Rule::R11).is_empty());
    assert!(rule_hits("crates/metrics/src/fixture.rs", R11, Rule::R11).is_empty());
}

#[test]
fn r12_flags_bare_counter_ops_in_hot_reachable_fns() {
    let hits = rule_hits("crates/core/src/fixture.rs", R12, Rule::R12);
    // tx_pkts in enqueue itself, drop_bytes one call below; the waived
    // gauge, the unsuffixed scratch, and the cold fn never count.
    assert_eq!(hits.len(), 2, "{hits:?}");
    let below = hits.iter().find(|v| v.message.contains("drop_bytes")).expect("transitive hit");
    assert_eq!(below.trace.len(), 2, "{below:?}");
    assert!(below.trace[0].starts_with("enqueue ("), "{below:?}");
    assert!(below.trace[1].starts_with("note ("), "{below:?}");
}

#[test]
fn r12_is_silent_outside_hot_crates() {
    assert!(rule_hits("crates/telemetry/src/fixture.rs", R12, Rule::R12).is_empty());
}

// ---------------------------------------------------------------------------
// JSON report
// ---------------------------------------------------------------------------

#[test]
fn json_report_has_stable_schema_and_escaping() {
    let hits = rule_hits("crates/net/src/planted.rs", PLANTED, Rule::R5);
    let j = render_json(&hits, &BTreeMap::new());
    assert!(j.contains("\"schema\": \"cebinae-verify-report-v1\""), "{j}");
    assert!(j.contains("\"rules\": \"R1-R14,W0,W1\""), "{j}");
    assert!(j.contains("\"count\": 1"), "{j}");
    assert!(j.contains("\"rule\": \"R5\""), "{j}");
    assert!(j.contains("\"trace\": [\"enqueue ("), "{j}");

    let tricky = vec![Violation {
        file: "a\\b.rs".into(),
        line: 1,
        rule: Rule::R1,
        message: "quote \" and\nnewline".into(),
        trace: Vec::new(),
    }];
    let j = render_json(&tricky, &BTreeMap::new());
    assert!(j.contains(r#""file": "a\\b.rs""#), "{j}");
    assert!(j.contains(r#""message": "quote \" and\nnewline""#), "{j}");

    let empty = render_json(&[], &BTreeMap::new());
    assert!(empty.contains("\"count\": 0"), "{empty}");
    assert!(empty.contains("\"findings\": [\n  ]"), "{empty}");
}

// ---------------------------------------------------------------------------
// Waiver accounting
// ---------------------------------------------------------------------------

const DECORATIVE: &str = "fn f() {\n    let x = 1; // det-ok: nothing here to waive\n    let _ = x;\n}\n";

#[test]
fn w1_flags_a_waiver_that_suppresses_nothing() {
    let v = check_source("crates/core/src/w.rs", DECORATIVE);
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!((v[0].rule, v[0].line), (Rule::DeadWaiver, 2));
    assert_eq!(v[0].to_string().split(' ').nth(1), Some("[W1]"));

    // The fixtures' markers sit over real R11/R12 sites: used, not W1.
    assert!(rule_hits("crates/net/src/fixture.rs", R11, Rule::DeadWaiver).is_empty());
    assert!(rule_hits("crates/core/src/fixture.rs", R12, Rule::DeadWaiver).is_empty());
    // Out of R11's scope the same marker has nothing to suppress.
    assert_eq!(rule_hits("crates/core/src/fixture.rs", R11, Rule::DeadWaiver).len(), 1);
}

#[test]
fn w1_ignores_test_regions() {
    let in_test = format!("#[cfg(test)]\nmod tests {{\n{DECORATIVE}}}\n");
    let v = check_source("crates/core/src/w.rs", &in_test);
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn used_waivers_are_counted_per_suppressed_rule() {
    let r12 = source_report("crates/core/src/fixture.rs", R12);
    assert_eq!(r12.waivers_used, BTreeMap::from([(Rule::R12, 1)]));
    let r11 = source_report("crates/net/src/fixture.rs", R11);
    assert_eq!(r11.waivers_used, BTreeMap::from([(Rule::R11, 1)]));
    let j = render_json(&r11.findings, &r11.waivers_used);
    assert!(j.contains("\"waivers_used\": {\"R11\": 1}"), "{j}");
    // A marker that suppresses nothing is not a used waiver.
    assert!(source_report("crates/core/src/w.rs", DECORATIVE).waivers_used.is_empty());
}

// ---------------------------------------------------------------------------
// Crate relation and rule table
// ---------------------------------------------------------------------------

#[test]
fn crate_relation_is_read_from_the_manifests() {
    let deps = CrateDeps::from_manifests(&cebinae_verify::workspace_root());
    // engine -> ds directly and through net/sim/core/fq.
    assert!(deps.edge_ok(Some("engine"), Some("ds")));
    assert!(deps.edge_ok(Some("engine"), Some("sim")));
    assert!(!deps.edge_ok(Some("core"), Some("telemetry")));
    // ds has no dependencies; its dev-dependency on sim is not an edge.
    assert!(deps.edge_ok(Some("ds"), Some("ds")));
    for other in ["sim", "net", "core", "engine"] {
        assert!(!deps.edge_ok(Some("ds"), Some(other)), "ds -> {other}");
    }
    // Paths outside `crates/`, unknown crates and manifest-less trees
    // stay permissive.
    assert!(deps.edge_ok(None, Some("ds")));
    assert!(deps.edge_ok(Some("not-a-crate"), Some("ds")));
    assert!(CrateDeps::default().edge_ok(Some("ds"), Some("engine")));
}

#[test]
fn every_rule_round_trips_and_explains_itself() {
    for (i, info) in RULES.iter().enumerate() {
        let rule = info.rule;
        assert_eq!(rule as usize, i, "RULES is indexed by `Rule as usize`");
        assert_eq!(Rule::parse(&rule.to_string()), Some(rule));
        assert_eq!(Rule::parse(&format!(" {} ", info.id.to_lowercase())), Some(rule));
        for text in [info.summary, info.why, info.flagged, info.preferred] {
            assert!(!text.trim().is_empty(), "{rule}");
        }
        let explain = rule.explain();
        assert!(explain.starts_with(&format!("{rule}: ")), "{explain}");
        assert!(explain.contains(info.flagged) && explain.contains(info.preferred), "{explain}");
    }
    assert_eq!(Rule::parse("R99"), None);
    assert_eq!(Rule::span(), "R1-R14,W0,W1");
}
