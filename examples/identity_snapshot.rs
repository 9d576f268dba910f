//! Identity snapshot: a compact, deterministic digest of everything the
//! engine promises to keep byte-stable across refactors and scheduler
//! backends — delivered bytes, event counts, packet traces, telemetry
//! NDJSON, and the fuzzer's oracle verdicts.
//!
//! Run it before and after an engine change and diff the output:
//!
//! ```text
//! cargo run --release --example identity_snapshot > /tmp/pre.txt
//! # ... refactor ...
//! cargo run --release --example identity_snapshot > /tmp/post.txt
//! diff /tmp/pre.txt /tmp/post.txt
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
use cebinae_engine::Simulation;
use cebinae_faults::FaultFamily;
use cebinae_sim::SchedulerKind;

/// FNV-1a 64-bit, dependency-free: digest equality here is what "byte
/// identical" means for multi-megabyte artifacts.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
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

fn snapshot(tag: &str, sc: &GenScenario, express: bool) {
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
    println!("[{}{tag}] {}", if express { "" } else { "ref:" }, sc.describe());
    println!(
        "  delivered={} ev={} trace_n={} trace_h={:016x} series_h={:016x}",
        delivered.join(","),
        r.events_processed,
        r.trace.records().count(),
        fnv(trace.as_bytes()),
        fnv(series.as_bytes()),
    );
    println!(
        "  tel_full_h={:016x} tel_full_len={} tel_stable_h={:016x} tel_stable_len={}",
        fnv(nd.as_bytes()),
        nd.len(),
        fnv(stable.as_bytes()),
        stable.len(),
    );
    if !express {
        let violations = cebinae_check::judge_run(sc, &r);
        println!(
            "  oracle: violations_h={:016x} n_viol={}",
            fnv(format!("{violations:?}").as_bytes()),
            violations.len(),
        );
        return;
    }
    let (violations, fairness, check_events) = cebinae_check::check_scenario(sc);
    println!(
        "  oracle: check_ev={} violations_h={:016x} n_viol={} fairness={:?}",
        check_events,
        fnv(format!("{violations:?}").as_bytes()),
        violations.len(),
        fairness,
    );
}

/// Both rows of one scenario: as configured, then the reference path.
fn snapshot_pair(tag: &str, sc: &GenScenario) {
    snapshot(tag, sc, true);
    snapshot(tag, sc, false);
}

fn main() {
    // Clean generated scenarios under both backends: the cross-backend
    // pairs must agree line for line within one snapshot, and every line
    // must survive engine refactors unchanged.
    for seed in 0..8u64 {
        for (kind, name) in [(SchedulerKind::Wheel, "wheel"), (SchedulerKind::Heap, "heap")] {
            let mut sc = GenScenario::generate(seed);
            sc.duration_ms = sc.duration_ms.min(1000);
            sc.scheduler = kind;
            snapshot_pair(&format!("clean/{name}"), &sc);
        }
    }
    // Chaos: every fault family, default backend.
    for (seed, fam) in FaultFamily::ALL.iter().enumerate() {
        let mut sc = GenScenario::generate(seed as u64);
        sc.duration_ms = sc.duration_ms.min(1000);
        sc.fault_family = Some(*fam);
        snapshot_pair(&format!("chaos/{fam}"), &sc);
    }
    // One flow: nothing can tie, so express and reference rows must agree
    // on deliveries, trace and series — clean and under every family.
    for (seed, fam) in [None].into_iter().chain(FaultFamily::ALL.iter().map(Some)).enumerate() {
        let mut sc = GenScenario::generate(seed as u64);
        sc.duration_ms = sc.duration_ms.min(1000);
        sc.n_flows = 1;
        sc.fault_family = fam.copied();
        snapshot_pair(&format!("single/{}", fam.map_or("clean", |f| f.label())), &sc);
    }
}
