//! Backend-differential contract of the pluggable scheduler: the binary
//! heap and the hierarchical timing wheel are interchangeable, byte for
//! byte. Every simulation outcome — delivered bytes, event counts, the
//! fuzzer's oracle verdicts, rendered telemetry — must be a pure function
//! of (scenario, seed), never of which backend ordered the event loop.

use cebinae_check::scenario::GenScenario;
use cebinae_engine::{Discipline, DumbbellFlow, ScenarioParams, Simulation};
use cebinae_harness::runner::{run_with_params, Ctx};
use cebinae_par::TrialPool;
use cebinae_sim::{Duration, SchedulerKind};
use cebinae_transport::CcKind;

/// Bit-exact identity of one engine run.
fn run_fingerprint(sc: &GenScenario) -> String {
    let (cfg, _) = sc.build();
    let r = Simulation::new(cfg).run();
    let telemetry = r.telemetry.as_deref().unwrap_or("");
    let delivered: Vec<String> = r.delivered.iter().map(|d| d.to_string()).collect();
    format!(
        "delivered={} ev={} tel_len={}\n{telemetry}",
        delivered.join(","),
        r.events_processed,
        telemetry.len(),
    )
}

/// The fuzzer's generated corpus, replayed under both backends: same
/// deliveries, same event counts, same telemetry,
/// and the same oracle verdicts, across every sampled topology kind.
#[test]
fn check_corpus_is_byte_identical_across_backends() {
    for seed in 0..8u64 {
        let mut sc = GenScenario::generate(seed);
        sc.duration_ms = sc.duration_ms.min(1000);
        sc.scheduler = SchedulerKind::Heap;
        let heap_fp = run_fingerprint(&sc);
        let (heap_viol, heap_fair, heap_ev) = cebinae_check::check_scenario(&sc);
        sc.scheduler = SchedulerKind::Wheel;
        let wheel_fp = run_fingerprint(&sc);
        let (wheel_viol, wheel_fair, wheel_ev) = cebinae_check::check_scenario(&sc);
        assert_eq!(heap_fp, wheel_fp, "seed {seed}: engine runs diverged");
        assert_eq!(
            format!("{heap_viol:?}"),
            format!("{wheel_viol:?}"),
            "seed {seed}: oracle verdicts diverged"
        );
        assert_eq!(
            format!("{heap_fair:?}"),
            format!("{wheel_fair:?}"),
            "seed {seed}: fairness samples diverged"
        );
        assert_eq!(heap_ev, wheel_ev, "seed {seed}: event counts diverged");
    }
}

/// Chaos scenarios lean on the scheduler hardest — flaps park and
/// release links, reorder holdbacks and control stalls add timer churn
/// the clean corpus never generates. Every fault family must still be
/// backend-invariant, oracle verdicts included.
#[test]
fn chaos_scenarios_are_byte_identical_across_backends() {
    use cebinae_faults::FaultFamily;
    for (seed, fam) in FaultFamily::ALL.iter().enumerate() {
        let mut sc = GenScenario::generate(seed as u64);
        sc.duration_ms = sc.duration_ms.min(1000);
        sc.fault_family = Some(*fam);
        sc.scheduler = SchedulerKind::Heap;
        let heap_fp = run_fingerprint(&sc);
        let (heap_viol, ..) = cebinae_check::check_scenario(&sc);
        sc.scheduler = SchedulerKind::Wheel;
        let wheel_fp = run_fingerprint(&sc);
        let (wheel_viol, ..) = cebinae_check::check_scenario(&sc);
        assert_eq!(heap_fp, wheel_fp, "seed {seed} {fam}: chaos runs diverged");
        assert_eq!(
            format!("{heap_viol:?}"),
            format!("{wheel_viol:?}"),
            "seed {seed} {fam}: oracle verdicts diverged"
        );
    }
}

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
