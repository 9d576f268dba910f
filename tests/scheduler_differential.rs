//! Backend-differential contract of the pluggable scheduler: the binary
//! heap and the hierarchical timing wheel are interchangeable, byte for
//! byte. Every simulation outcome — delivered bytes, event counts, the
//! fuzzer's oracle verdicts, rendered telemetry — must be a pure function
//! of (scenario, seed), never of which backend ordered the event loop.
//! The fuzzer's generated scenarios, clean and under every fault family,
//! are held to that in `tests/identity_snapshot.rs`; the tests here cover
//! the harness's trial pool and the telemetry export.

use cebinae_engine::{Discipline, DumbbellFlow, ScenarioParams};
use cebinae_harness::runner::{run_with_params, Ctx};
use cebinae_par::TrialPool;
use cebinae_sim::{Duration, SchedulerKind};
use cebinae_transport::CcKind;

/// The 20 Mbps, 2 s Cebinae dumbbell of the tests below, on `sched`.
fn cebinae_params(seed: u64, sched: SchedulerKind) -> ScenarioParams {
    let ctx = Ctx::serial(false, seed);
    let mut p = ctx.params(20_000_000, 100, Discipline::Cebinae, Duration::from_secs(2));
    p.scheduler = sched;
    p
}

fn backend_run(sched: SchedulerKind, threads: usize) -> Vec<String> {
    let flows = vec![
        DumbbellFlow::new(CcKind::NewReno, 20),
        DumbbellFlow::new(CcKind::Cubic, 40),
        DumbbellFlow::new(CcKind::Vegas, 80),
    ];
    TrialPool::with_threads(threads)
        .map(vec![1u64, 2, 3], |_, seed| run_with_params(&flows, &cebinae_params(seed, sched)))
        .iter()
        .map(|m| {
            let bits: Vec<String> =
                m.per_flow_bps.iter().map(|b| format!("{:016x}", b.to_bits())).collect();
            format!("{} ev={}", bits.join(","), m.result.events_processed)
        })
        .collect()
}

/// Heap on one thread vs wheel on eight: the cross product of backend and
/// thread count still lands on identical per-trial fingerprints.
#[test]
fn backends_and_thread_counts_commute() {
    let heap_1 = backend_run(SchedulerKind::Heap, 1);
    let wheel_8 = backend_run(SchedulerKind::Wheel, 8);
    let wheel_1 = backend_run(SchedulerKind::Wheel, 1);
    assert_eq!(heap_1, wheel_1, "backend leaked into trial results");
    assert_eq!(wheel_1, wheel_8, "thread count leaked into trial results");
}

/// Telemetry NDJSON under both backends is byte-identical, the
/// `sys:engine` scheduler counters (`sched_scheduled`/`sched_cancelled`/
/// `sched_live`) included: they count API-level traffic, not backend
/// mechanics.
#[test]
fn telemetry_ndjson_is_identical_across_backends() {
    let flows = vec![
        DumbbellFlow::new(CcKind::NewReno, 20),
        DumbbellFlow::new(CcKind::Cubic, 40),
    ];
    let run = |sched: SchedulerKind| {
        let mut p = cebinae_params(7, sched);
        p.telemetry = true;
        run_with_params(&flows, &p).result.telemetry.expect("telemetry requested")
    };
    let (nd_heap, nd_wheel) = (run(SchedulerKind::Heap), run(SchedulerKind::Wheel));
    assert!(
        nd_heap.contains("sched_scheduled"),
        "scheduler counters missing from sys:engine"
    );
    assert_eq!(nd_heap, nd_wheel, "telemetry diverged between backends");
}
