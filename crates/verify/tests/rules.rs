//! Fixture self-tests: every rule is exercised with positive cases (the
//! violation is reported, with the right rule id and count) and negative
//! cases (waivers, test regions, allowlisted paths, and idiomatic
//! deterministic code produce no diagnostics).

use cebinae_verify::{check_source, Rule, Violation};

const R1: &str = include_str!("fixtures/r1_wall_clock.rs");
const R2: &str = include_str!("fixtures/r2_ambient_randomness.rs");
const R4: &str = include_str!("fixtures/r4_env_read.rs");
const R5: &str = include_str!("fixtures/r5_hot_path_panics.rs");
const R6: &str = include_str!("fixtures/r6_float_equality.rs");
const R7: &str = include_str!("fixtures/r7_threads.rs");
const R8: &str = include_str!("fixtures/r8_prints.rs");
const R9: &str = include_str!("fixtures/r9_oracle_mutation.rs");
const R13: &str = include_str!("fixtures/r13_std_hash.rs");
const R13_ITER: &str = include_str!("fixtures/r13_unordered_iteration.rs");
const R14: &str = include_str!("fixtures/r14_concrete_scheduler.rs");
const R14_ENUM: &str = include_str!("fixtures/r14_dispatch_enum.rs");
const R14_NAMED: &str = include_str!("fixtures/r14_named_backend.rs");
const CLEAN: &str = include_str!("fixtures/clean.rs");

fn rule_hits(path: &str, src: &str, rule: Rule) -> Vec<Violation> {
    check_source(path, src)
        .into_iter()
        .filter(|v| v.rule == rule)
        .collect()
}

#[test]
fn r1_flags_wall_clock_outside_allowlist() {
    let hits = rule_hits("crates/core/src/fixture.rs", R1, Rule::R1);
    assert_eq!(hits.len(), 2, "{hits:?}");
    assert!(hits.iter().any(|v| v.message.contains("Instant")));
    assert!(hits.iter().any(|v| v.message.contains("SystemTime")));
}

#[test]
fn r1_allows_harness_and_examples() {
    for path in [
        "crates/harness/src/fixture.rs",
        "examples/fixture.rs",
        "crates/engine/examples/fixture.rs",
    ] {
        assert!(rule_hits(path, R1, Rule::R1).is_empty(), "{path}");
    }
}

#[test]
fn r2_flags_ambient_entropy_everywhere_even_in_tests() {
    let hits = rule_hits("crates/traffic/src/fixture.rs", R2, Rule::R2);
    // thread_rng + rand::random + RandomState + thread_rng-in-test; the
    // waived call and the comment/string mentions never count.
    assert_eq!(hits.len(), 4, "{hits:?}");
}

#[test]
fn r4_flags_env_reads_in_dataplane() {
    let hits = rule_hits("crates/fq/src/fixture.rs", R4, Rule::R4);
    assert_eq!(hits.len(), 2, "{hits:?}");
}

#[test]
fn r4_ignores_control_tooling() {
    assert!(rule_hits("crates/harness/src/fixture.rs", R4, Rule::R4).is_empty());
    assert!(rule_hits("examples/fixture.rs", R4, Rule::R4).is_empty());
}

#[test]
fn r5_flags_panics_in_hot_paths() {
    let hits = rule_hits("crates/core/src/fixture.rs", R5, Rule::R5);
    assert_eq!(hits.len(), 3, "{hits:?}");
    assert!(hits.iter().any(|v| v.message.contains("unwrap")));
    assert!(hits.iter().any(|v| v.message.contains("expect")));
    assert!(hits.iter().any(|v| v.message.contains("panic")));
}

#[test]
fn r5_scopes_to_dataplane_crates() {
    assert!(rule_hits("crates/engine/src/fixture.rs", R5, Rule::R5).is_empty());
}

#[test]
fn r6_flags_float_literal_equality() {
    let hits = rule_hits("crates/metrics/src/fixture.rs", R6, Rule::R6);
    assert_eq!(hits.len(), 2, "{hits:?}");
    let hits_core = rule_hits("crates/core/src/fixture.rs", R6, Rule::R6);
    assert_eq!(hits_core.len(), 2, "{hits_core:?}");
}

#[test]
fn r6_ignores_crates_outside_scope() {
    assert!(rule_hits("crates/transport/src/fixture.rs", R6, Rule::R6).is_empty());
}

#[test]
fn r7_flags_threads_in_sim_crates() {
    // use std::thread; + std::thread::spawn + thread::scope +
    // thread::Builder. The waived available_parallelism call, the
    // `.thread` field access, the `pool.spawn` method call, and the
    // test-region spawn never count.
    for path in ["crates/sim/src/fixture.rs", "crates/engine/src/fixture.rs"] {
        let hits = rule_hits(path, R7, Rule::R7);
        assert_eq!(hits.len(), 4, "{path}: {hits:?}");
        assert!(hits.iter().all(|v| v.message.contains("TrialPool")), "{hits:?}");
    }
}

#[test]
fn r7_allows_par_harness_and_tooling() {
    for path in [
        "crates/par/src/fixture.rs",
        "crates/harness/src/fixture.rs",
        "crates/verify/src/fixture.rs",
    ] {
        assert!(rule_hits(path, R7, Rule::R7).is_empty(), "{path}");
    }
}

#[test]
fn r8_flags_raw_prints_in_instrumented_crates() {
    // println! + eprintln! + print! + eprint! + dbg!; the waived banner,
    // the writeln!-into-buffer, the `.println()` method call, the
    // string mention, and the test-region print never count.
    for path in [
        "crates/net/src/fixture.rs",
        "crates/core/src/fixture.rs",
        "crates/engine/src/fixture.rs",
        "crates/telemetry/src/fixture.rs",
    ] {
        let hits = rule_hits(path, R8, Rule::R8);
        assert_eq!(hits.len(), 5, "{path}: {hits:?}");
        assert!(
            hits.iter().all(|v| v.message.contains("cebinae-telemetry")),
            "{hits:?}"
        );
    }
}

#[test]
fn r8_allows_harness_core_and_tooling() {
    // The harness prints reports by design; verify itself prints
    // diagnostics. (`core` is in R8's scope: see the test above.)
    for path in [
        "crates/harness/src/fixture.rs",
        "crates/verify/src/fixture.rs",
        "crates/engine/examples/fixture.rs",
    ] {
        assert!(rule_hits(path, R8, Rule::R8).is_empty(), "{path}");
    }
}

#[test]
fn r9_flags_mutating_calls_in_oracle_modules() {
    // enqueue + dequeue + observe + rotate + classify + on_rotate +
    // set_pending_rate + record + merge; the waived control call, the
    // comment/string mentions, the bare ident, and the test-region
    // replica driving never count.
    for path in [
        "crates/check/src/oracle.rs",
        "crates/check/src/oracle/conservation.rs",
    ] {
        let hits = rule_hits(path, R9, Rule::R9);
        assert_eq!(hits.len(), 9, "{path}: {hits:?}");
        assert!(hits.iter().all(|v| v.message.contains("read-only judges")), "{hits:?}");
    }
}

#[test]
fn r9_scopes_to_oracle_modules_only() {
    // The model layer drives replicas by design, and nothing outside the
    // check crate is in scope.
    for path in [
        "crates/check/src/model.rs",
        "crates/check/src/lib.rs",
        "crates/core/src/fixture.rs",
        "crates/engine/src/fixture.rs",
    ] {
        assert!(rule_hits(path, R9, Rule::R9).is_empty(), "{path}");
    }
}

#[test]
fn r13_flags_std_hash_types_in_sim_crates() {
    // `use` + struct field + local HashSet::new(); the waived interop
    // line, the lookup without a type mention, the DetMap/DetSet usage,
    // and the test-region HashSet never count.
    for path in ["crates/fq/src/fixture.rs", "crates/sim/src/fixture.rs"] {
        let hits = rule_hits(path, R13, Rule::R13);
        assert_eq!(hits.len(), 3, "{path}: {hits:?}");
        assert!(hits.iter().any(|v| v.message.contains("DetMap")), "{hits:?}");
        assert!(hits.iter().any(|v| v.message.contains("DetSet")), "{hits:?}");
    }
}

#[test]
fn r13_rejects_unordered_iteration_at_each_declaration() {
    // Iterating a `HashMap`/`HashSet` needs one to be named first: the
    // `use` (both types), the two fields and the local binding are the
    // whole report, in every crate R13 covers. The test region never counts.
    for path in [
        "crates/sim/src/fixture.rs",
        "crates/net/src/fixture.rs",
        "crates/core/src/fixture.rs",
        "crates/engine/src/fixture.rs",
        "crates/transport/src/fixture.rs",
        "crates/fq/src/fixture.rs",
    ] {
        let v = check_source(path, R13_ITER);
        assert!(v.iter().all(|x| x.rule == Rule::R13), "{path}: {v:?}");
        let lines: Vec<usize> = v.iter().map(|x| x.line).collect();
        assert_eq!(lines, [5, 5, 8, 9, 40], "{path}: {v:?}");
    }
}

#[test]
fn r13_allows_tooling_and_check_crates() {
    for path in [
        "crates/harness/src/fixture.rs",
        "crates/check/src/fixture.rs",
        "crates/verify/src/fixture.rs",
    ] {
        assert!(rule_hits(path, R13, Rule::R13).is_empty(), "{path}");
    }
}

#[test]
fn r14_flags_concrete_backends_in_consumer_crates() {
    // The `use`, the struct field, and the BinaryHeap parameter; the
    // waived diagnostic probe, comment mentions, trait-bound/dyn usage,
    // `SchedulerKind::build()`, and the test region never count.
    for path in [
        "crates/engine/src/fixture.rs",
        "crates/transport/src/fixture.rs",
        "crates/traffic/src/fixture.rs",
    ] {
        let hits = rule_hits(path, R14, Rule::R14);
        assert_eq!(hits.len(), 3, "{path}: {hits:?}");
        assert!(hits.iter().any(|v| v.message.contains("HeapScheduler")), "{hits:?}");
        assert!(hits.iter().any(|v| v.message.contains("WheelScheduler")), "{hits:?}");
        assert!(hits.iter().any(|v| v.message.contains("BinaryHeap")), "{hits:?}");
    }
}

#[test]
fn r14_allows_sim_and_tooling_crates() {
    // `sim` defines the backends; harness/verify report on them.
    for path in [
        "crates/sim/src/fixture.rs",
        "crates/harness/src/fixture.rs",
        "crates/verify/src/fixture.rs",
    ] {
        assert!(rule_hits(path, R14, Rule::R14).is_empty(), "{path}");
    }
}

#[test]
fn r14_allows_the_dispatch_enum_but_not_a_named_backend() {
    let path = "crates/engine/src/world/mod.rs";
    let clean = check_source(path, R14_ENUM);
    assert!(clean.is_empty(), "{clean:?}");
    let hits = rule_hits(path, R14_NAMED, Rule::R14);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].message.contains("WheelScheduler"), "{hits:?}");
}

#[test]
fn clean_fixture_is_clean_under_every_rule() {
    for path in [
        "crates/core/src/clean.rs",
        "crates/metrics/src/clean.rs",
        "crates/sim/src/clean.rs",
    ] {
        let v = check_source(path, CLEAN);
        assert!(v.is_empty(), "{path}: {v:?}");
    }
}

#[test]
fn empty_waiver_reason_is_itself_a_violation() {
    let src = "fn f() {\n    let x = 1; // det-ok:\n    let _ = x;\n}\n";
    let v = check_source("crates/core/src/w.rs", src);
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, Rule::Waiver);
    assert_eq!(v[0].line, 2);
}

#[test]
fn diagnostics_carry_file_and_line() {
    let hits = rule_hits("crates/metrics/src/fixture.rs", R6, Rule::R6);
    for h in &hits {
        assert_eq!(h.file, "crates/metrics/src/fixture.rs");
        assert!(h.line > 0);
        let rendered = h.to_string();
        assert!(rendered.contains("crates/metrics/src/fixture.rs:"), "{rendered}");
        assert!(rendered.contains("[R6]"), "{rendered}");
    }
}
