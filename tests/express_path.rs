//! Contract of the engine's express path (analytic service of unmanaged
//! FIFO links, `crates/engine/src/world/express.rs`).
//!
//! Eligibility is a per-link fact: a link that nothing manages, traces,
//! monitors or faults is served in closed form, whether or not the run
//! is observed. `express = false` forces full event-driven emulation on
//! every link — the reference path these tests compare against. The
//! contract:
//!
//! * **Single-flow runs are bit-exact** across the two paths: with one
//!   flow there are no cross-flow ties, and the analytic instants
//!   (`start = max(arrival, free)`, `free += tx_time`,
//!   `arrive = free + delay`) coincide with the event-driven ones
//!   nanosecond for nanosecond — so delivered bytes, completion times,
//!   and per-link stats all agree exactly. That extends to a faulted
//!   bottleneck: fault streams are private per `(link, family)`, and the
//!   packet an express segment hands over draws its fate exactly as a
//!   hop-by-hop arrival would.
//! * **Multi-flow runs agree on conserved quantities** (per-link packet
//!   and byte totals) exactly, and on timing-sensitive outcomes within a
//!   small tolerance — exact-nanosecond tie interleaving across flows is
//!   the one documented deviation.
//! * **Express runs do less scheduler work**: the per-packet event count
//!   drops well below the full-emulation stream.
//! * **Express runs stay deterministic and backend-invariant**: heap and
//!   wheel produce identical results, and repeated runs are identical.
//! * **Observed express runs export deterministically**: the telemetry
//!   NDJSON is byte-identical across thread counts and (minus the
//!   backend-specific `sys:sched` scope) across scheduler backends.

use cebinae_engine::Simulation;
use cebinae_engine::{dumbbell, Discipline, DumbbellFlow, ScenarioParams, SimResult};
use cebinae_faults::FaultPlan;
use cebinae_par::TrialPool;
use cebinae_sim::{Duration, SchedulerKind, Time};
use cebinae_transport::CcKind;

fn params(express: bool, kind: SchedulerKind) -> ScenarioParams {
    let mut p = ScenarioParams::new(20_000_000, 100, Discipline::FqCoDel);
    p.duration = Duration::from_secs(3);
    p.express = express;
    p.scheduler = kind;
    p
}

fn run_with(flows: &[DumbbellFlow], p: &ScenarioParams) -> SimResult {
    let (cfg, _) = dumbbell(flows, p);
    Simulation::new(cfg).run()
}

fn run(flows: &[DumbbellFlow], express: bool, kind: SchedulerKind) -> SimResult {
    run_with(flows, &params(express, kind))
}

#[test]
fn single_flow_express_is_bit_exact() {
    let flows = vec![DumbbellFlow::new(CcKind::NewReno, 20).with_bytes(2_000_000)];
    let full = run(&flows, false, SchedulerKind::default());
    let fast = run(&flows, true, SchedulerKind::default());
    assert_eq!(full.delivered, fast.delivered);
    assert_eq!(full.completed_at, fast.completed_at);
    // Per-link conserved counters agree exactly, whether the link was
    // event-emulated or served analytically.
    for (i, (a, b)) in full.link_stats.iter().zip(&fast.link_stats).enumerate() {
        assert_eq!(a.enq_pkts, b.enq_pkts, "link {i} enq_pkts");
        assert_eq!(a.tx_pkts, b.tx_pkts, "link {i} tx_pkts");
        assert_eq!(a.tx_bytes, b.tx_bytes, "link {i} tx_bytes");
        assert_eq!(a.drop_pkts, b.drop_pkts, "link {i} drop_pkts");
        assert_eq!(a.peak_queued_bytes, b.peak_queued_bytes, "link {i} peak");
    }
    // Goodput series sample the same delivered-byte trajectory.
    assert_eq!(
        full.goodputs_bps(Time::from_millis(500)),
        fast.goodputs_bps(Time::from_millis(500))
    );
}

#[test]
fn multi_flow_express_conserves_packets_and_tracks_goodput() {
    let flows = vec![
        DumbbellFlow::new(CcKind::NewReno, 20),
        DumbbellFlow::new(CcKind::Cubic, 40),
        DumbbellFlow::new(CcKind::NewReno, 80),
    ];
    let full = run(&flows, false, SchedulerKind::default());
    let fast = run(&flows, true, SchedulerKind::default());
    // Conserved totals are exact even when tie interleaving differs.
    let tx = |r: &SimResult| {
        (
            r.link_stats.iter().map(|s| s.tx_pkts).sum::<u64>(),
            r.link_stats.iter().map(|s| s.tx_bytes).sum::<u64>(),
        )
    };
    assert_eq!(tx(&full), tx(&fast));
    // Timing-sensitive outcomes stay within a few percent.
    let (a, b): (u64, u64) = (
        full.delivered.iter().sum(),
        fast.delivered.iter().sum(),
    );
    let ratio = a as f64 / b as f64;
    assert!(
        (0.97..=1.03).contains(&ratio),
        "total delivered diverged: full {a}, express {b}"
    );
}

#[test]
fn express_cuts_events_per_packet() {
    let flows = vec![
        DumbbellFlow::new(CcKind::NewReno, 20),
        DumbbellFlow::new(CcKind::Cubic, 40),
    ];
    let full = run(&flows, false, SchedulerKind::default());
    let fast = run(&flows, true, SchedulerKind::default());
    let epp = |r: &SimResult| {
        let tx: u64 = r.link_stats.iter().map(|s| s.tx_pkts).sum();
        r.events_processed as f64 / tx.max(1) as f64
    };
    let (full_epp, fast_epp) = (epp(&full), epp(&fast));
    assert!(
        full_epp / fast_epp >= 1.8,
        "express only cut events/packet from {full_epp:.3} to {fast_epp:.3} (< 1.8x)"
    );
}

#[test]
fn express_runs_are_deterministic_and_backend_invariant() {
    let flows = vec![
        DumbbellFlow::new(CcKind::NewReno, 20),
        DumbbellFlow::new(CcKind::Cubic, 40),
        DumbbellFlow::new(CcKind::NewReno, 80),
    ];
    let wheel = run(&flows, true, SchedulerKind::Wheel);
    let wheel2 = run(&flows, true, SchedulerKind::Wheel);
    let heap = run(&flows, true, SchedulerKind::Heap);
    assert_eq!(wheel.delivered, wheel2.delivered);
    assert_eq!(wheel.events_processed, wheel2.events_processed);
    assert_eq!(wheel.delivered, heap.delivered, "wheel vs heap deliveries");
    assert_eq!(
        wheel.events_processed, heap.events_processed,
        "wheel vs heap event counts"
    );
    let stats = |r: &SimResult| -> Vec<(u64, u64, u64)> {
        r.link_stats
            .iter()
            .map(|s| (s.tx_pkts, s.drop_pkts, s.peak_queued_bytes))
            .collect()
    };
    assert_eq!(stats(&wheel), stats(&heap));
}

/// The `sys:faults` rows of a telemetry export: every injection counter
/// at every sample instant.
fn fault_rows(r: &SimResult) -> Vec<&str> {
    let nd = r.telemetry.as_deref().expect("telemetry requested");
    nd.lines().filter(|l| l.contains("\"scope\":\"sys:faults\"")).collect()
}

/// A fault plan pins only the links it names — here the monitored
/// bottleneck — so the access links around it stay express, and every
/// packet an express segment hands to the faulted link must draw its fate
/// there exactly as a hop-by-hop arrival would. With one flow there are
/// no cross-flow ties, so the faulted run is bit-equal across the two
/// paths, injection counters included.
#[test]
fn single_flow_express_is_bit_exact_under_faults() {
    let flows = vec![DumbbellFlow::new(CcKind::NewReno, 20).with_bytes(2_000_000)];
    let run = |express: bool| {
        let mut p = params(express, SchedulerKind::default());
        p.faults = FaultPlan::parse("loss:0.02,dup:0.01,reorder:0.02").expect("valid spec");
        p.telemetry = true;
        run_with(&flows, &p)
    };
    let (full, fast) = (run(false), run(true));
    assert!(
        fast.events_processed < full.events_processed,
        "the faulted run did not take the express path ({} vs {} events)",
        fast.events_processed,
        full.events_processed
    );
    assert_eq!(full.delivered, fast.delivered);
    assert_eq!(full.completed_at, fast.completed_at);
    assert_eq!(full.link_stats, fast.link_stats);
    let (full_rows, fast_rows) = (fault_rows(&full), fault_rows(&fast));
    assert_eq!(full_rows, fast_rows, "sys:faults counters diverged");
    let injected = fast_rows
        .iter()
        .rev()
        .find(|l| l.contains("\"name\":\"injected_drop_pkts\""))
        .and_then(|l| l.rsplit_once("\"v\":"))
        .and_then(|(_, v)| v.trim_end_matches('}').parse::<u64>().ok())
        .expect("final injected_drop_pkts row");
    assert!(injected > 0, "the plan injected no loss");
}

/// An observed express run exports the same bytes whatever executed it:
/// one thread or eight, heap or wheel (minus the backend-specific
/// `sys:sched` scope).
#[test]
fn observed_express_ndjson_is_thread_and_backend_invariant() {
    let flows = vec![
        DumbbellFlow::new(CcKind::NewReno, 20),
        DumbbellFlow::new(CcKind::Cubic, 40),
        DumbbellFlow::new(CcKind::NewReno, 80),
    ];
    let export = |kind: SchedulerKind, threads: usize| -> String {
        let mut p = params(true, kind);
        p.telemetry = true;
        TrialPool::with_threads(threads)
            .map(vec![1u64, 2, 3, 4], |_, seed| {
                let mut p = p.clone();
                p.seed = seed;
                run_with(&flows, &p).telemetry.expect("telemetry requested")
            })
            .concat()
    };
    let strip = |nd: &str| -> String {
        nd.lines()
            .filter(|l| !l.contains("\"scope\":\"sys:sched\""))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let wheel_1 = export(SchedulerKind::Wheel, 1);
    assert!(
        wheel_1.contains("\"name\":\"express\",\"kind\":\"span\""),
        "the observed run did not take the express path"
    );
    assert_eq!(wheel_1, export(SchedulerKind::Wheel, 8), "NDJSON depends on thread count");
    assert_eq!(
        strip(&wheel_1),
        strip(&export(SchedulerKind::Heap, 1)),
        "NDJSON diverged beyond the sys:sched scope"
    );
}
