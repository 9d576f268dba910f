//! Identity snapshot: a compact, deterministic digest of everything the
//! engine promises to keep byte-stable across refactors and scheduler
//! backends — delivered bytes, event counts, packet traces, telemetry
//! NDJSON, and the fuzzer's oracle verdicts.
//!
//! The expected output is committed as `examples/identity_snapshot.golden`,
//! and `tests/identity_snapshot.rs` diffs a fresh rendering against it, so
//! a plain `cargo test` fails when a simulated byte moves. A change that
//! deliberately moves simulated behaviour regenerates the golden file in
//! the same commit:
//!
//! ```text
//! cargo run --release --example identity_snapshot > examples/identity_snapshot.golden
//! ```
//!
//! Each scenario prints two telemetry digests: `tel_full` covers the raw
//! NDJSON export, `tel_stable` strips the `sys:engine` `sched_*` counters
//! — the only telemetry allowed to move when scheduler op counts change
//! (op-count refactors).
//! Everything else on a line must never change for these seeds.
//!
//! Each scenario is printed twice: as configured (unmanaged, unobserved
//! links served by the express path) and as a `ref:` row with
//! `express = false`, the full event-driven reference. A change to which
//! links are express-served moves only the first kind; a `ref:` row moves
//! only if the simulated behaviour itself did. The `single/*` scenarios
//! have one flow, so their two rows must agree on everything but `ev` and
//! the telemetry digests.

use cebinae_check::scenario::GenScenario;
use cebinae_ds::{fnv1a_bytes, FNV_OFFSET};
use cebinae_engine::Simulation;
use cebinae_faults::FaultFamily;
use cebinae_sim::SchedulerKind;

/// FNV-1a 64-bit, dependency-free: digest equality here is what "byte
/// identical" means for multi-megabyte artifacts.
fn fnv(bytes: &[u8]) -> u64 {
    fnv1a_bytes(FNV_OFFSET, bytes)
}

/// Drop the telemetry lines scheduler op-count changes may legitimately
/// alter: the API-op counters (`sched_scheduled` / `sched_cancelled` /
/// `sched_live`) in `sys:engine`.
fn stable_telemetry(nd: &str) -> String {
    nd.lines()
        .filter(|l| !(l.contains("\"scope\":\"sys:engine\"") && l.contains("\"name\":\"sched_")))
        .collect::<Vec<_>>()
        .join("\n")
}

/// One row of `sc`: its header line and the digests under it.
fn snapshot(tag: &str, sc: &GenScenario, express: bool) -> String {
    let (mut cfg, _) = sc.build();
    cfg.express = express;
    let r = Simulation::new(cfg).run();
    let delivered: Vec<String> = r.delivered.iter().map(|d| d.to_string()).collect();
    let trace: String = r.trace.records().map(|rec| format!("{rec:?};")).collect();
    let nd = r.telemetry.as_deref().unwrap_or("");
    let stable = stable_telemetry(nd);
    let series = format!(
        "{:?}|{:?}|{:?}|{:?}",
        r.link_tx_series, r.cebinae_series, r.completed_at, r.flow_starts
    );
    let mut out = format!("[{}{tag}] {}\n", if express { "" } else { "ref:" }, sc.describe());
    out += &format!(
        "  delivered={} ev={} trace_n={} trace_h={:016x} series_h={:016x}\n",
        delivered.join(","),
        r.events_processed,
        r.trace.records().count(),
        fnv(trace.as_bytes()),
        fnv(series.as_bytes()),
    );
    out += &format!(
        "  tel_full_h={:016x} tel_full_len={} tel_stable_h={:016x} tel_stable_len={}\n",
        fnv(nd.as_bytes()),
        nd.len(),
        fnv(stable.as_bytes()),
        stable.len(),
    );
    if !express {
        let violations = cebinae_check::judge_run(sc, &r);
        out += &format!(
            "  oracle: violations_h={:016x} n_viol={}\n",
            fnv(format!("{violations:?}").as_bytes()),
            violations.len(),
        );
        return out;
    }
    let (violations, fairness, check_events) = cebinae_check::check_scenario(sc);
    out += &format!(
        "  oracle: check_ev={} violations_h={:016x} n_viol={} fairness={:?}\n",
        check_events,
        fnv(format!("{violations:?}").as_bytes()),
        violations.len(),
        fairness,
    );
    out
}

/// Both rows of one scenario: as configured, then the reference path.
pub fn scenario_rows(tag: &str, sc: &GenScenario) -> String {
    snapshot(tag, sc, true) + &snapshot(tag, sc, false)
}

/// The `chaos/*` scenarios: one per fault family, on the default backend.
pub fn chaos_scenarios() -> impl Iterator<Item = (String, GenScenario)> {
    FaultFamily::ALL.iter().enumerate().map(|(seed, fam)| {
        let mut sc = GenScenario::generate(seed as u64);
        sc.duration_ms = sc.duration_ms.min(1000);
        sc.fault_family = Some(*fam);
        (format!("chaos/{fam}"), sc)
    })
}

/// The whole snapshot, as `identity_snapshot.golden` holds it.
pub fn render() -> String {
    let mut out = String::new();
    // Clean generated scenarios under both backends: the cross-backend
    // pairs must agree line for line within one snapshot, and every line
    // must survive engine refactors unchanged.
    for seed in 0..8u64 {
        for (kind, name) in [(SchedulerKind::Wheel, "wheel"), (SchedulerKind::Heap, "heap")] {
            let mut sc = GenScenario::generate(seed);
            sc.duration_ms = sc.duration_ms.min(1000);
            sc.scheduler = kind;
            out += &scenario_rows(&format!("clean/{name}"), &sc);
        }
    }
    // Chaos: every fault family, default backend.
    for (tag, sc) in chaos_scenarios() {
        out += &scenario_rows(&tag, &sc);
    }
    // One flow: nothing can tie, so express and reference rows must agree
    // on deliveries, trace and series — clean and under every family.
    for (seed, fam) in [None].into_iter().chain(FaultFamily::ALL.iter().map(Some)).enumerate() {
        let mut sc = GenScenario::generate(seed as u64);
        sc.duration_ms = sc.duration_ms.min(1000);
        sc.n_flows = 1;
        sc.fault_family = fam.copied();
        out += &scenario_rows(&format!("single/{}", fam.map_or("clean", |f| f.label())), &sc);
    }
    out
}

fn main() {
    print!("{}", render());
}
