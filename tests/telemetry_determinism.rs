//! Determinism contract of the telemetry layer: the NDJSON a run emits is
//! a pure function of (scenario, seed) — never of the thread count that
//! happened to execute the trial batch. Each `Simulation` owns its own
//! `Registry`, samples only at virtual-time boundaries, and renders with
//! `BTreeMap` ordering, so the rendered bytes must match exactly.

use cebinae_engine::{Discipline, DumbbellFlow};
use cebinae_harness::runner::DumbbellRun;
use cebinae_par::TrialPool;
use cebinae_sim::Duration;
use cebinae_transport::CcKind;

fn telemetry_run() -> DumbbellRun {
    DumbbellRun::new(20_000_000)
        .buffer_mtus(100)
        .discipline(Discipline::Cebinae)
        .duration(Duration::from_secs(2))
        .telemetry(true)
}

/// Concatenated NDJSON across the batch, in trial order.
fn batch_ndjson(batch: &[cebinae_harness::RunMetrics]) -> String {
    batch
        .iter()
        .map(|m| {
            m.result
                .telemetry
                .as_deref()
                .expect("telemetry was requested for every trial")
        })
        .collect()
}

#[test]
fn telemetry_ndjson_is_identical_across_thread_counts() {
    let flows = vec![
        DumbbellFlow::new(CcKind::NewReno, 20),
        DumbbellFlow::new(CcKind::Cubic, 40),
    ];
    let seeds = [1u64, 2, 3, 4];
    let run = |pool: TrialPool| telemetry_run().run_trials(pool, &flows, &seeds);
    let a = batch_ndjson(&run(TrialPool::with_threads(1)));
    let b = batch_ndjson(&run(TrialPool::with_threads(8)));
    assert!(!a.is_empty(), "telemetry-enabled run rendered no NDJSON");
    assert_eq!(a, b, "telemetry NDJSON depends on thread count");
}

#[test]
fn telemetry_ndjson_is_wellformed_and_scoped() {
    let flows = vec![
        DumbbellFlow::new(CcKind::NewReno, 20),
        DumbbellFlow::new(CcKind::Cubic, 40),
    ];
    let m = telemetry_run().seed(7).run(&flows);
    let nd = m.result.telemetry.as_deref().expect("telemetry requested");
    // Every line is one JSON object; no raw braces leak mid-line.
    let mut stamps = std::collections::BTreeSet::new();
    for line in nd.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "bad line: {line}");
        let t = line
            .strip_prefix("{\"t\":")
            .and_then(|rest| rest.split(',').next())
            .expect("every row leads with its virtual timestamp");
        stamps.insert(t.to_string());
    }
    assert!(
        stamps.len() >= 2,
        "expected periodic + final samples, got {} distinct timestamps",
        stamps.len()
    );
    // The instrumented subsystems all report under their scopes.
    for needle in ["port:", "flow:", "sys:engine", "enq_pkts", "cwnd", "span"] {
        assert!(nd.contains(needle), "NDJSON is missing {needle}:\n{nd}");
    }
}

#[test]
fn telemetry_off_yields_none_and_same_metrics() {
    let flows = vec![
        DumbbellFlow::new(CcKind::NewReno, 20),
        DumbbellFlow::new(CcKind::Cubic, 40),
    ];
    // `express = false` pins full event-driven emulation, isolating the
    // observation cost itself: a telemetry-off run must then be bit-exact
    // against the telemetry-on one (which always runs full emulation).
    let run_off = || {
        let mut run = telemetry_run().telemetry(false).seed(3);
        run.params_mut().express = false;
        run.run(&flows)
    };
    // Off -> on -> off in one process: whether a run observes is decided
    // by its own config alone, so an observed run in between leaves no
    // trace on the unobserved ones around it.
    let off = run_off();
    let on = telemetry_run().seed(3).run(&flows);
    let off_again = run_off();
    assert!(off.result.telemetry.is_none());
    assert!(on.result.telemetry.is_some());
    assert!(off_again.result.telemetry.is_none());
    // Observation must not perturb the simulation itself.
    assert_eq!(off.result.events_processed, on.result.events_processed);
    assert_eq!(off.result.events_processed, off_again.result.events_processed);
    let bits = |m: &cebinae_harness::RunMetrics| -> Vec<u64> {
        m.per_flow_bps.iter().map(|b| b.to_bits()).collect()
    };
    assert_eq!(bits(&off), bits(&on), "telemetry changed simulated goodput");
    assert_eq!(bits(&off), bits(&off_again), "an observed run changed the next unobserved one");
    // With express allowed (the default), the unobserved run serves the
    // access links analytically and does strictly less scheduler work;
    // its behavioral contract is pinned by tests/express_path.rs.
    let fast = telemetry_run().telemetry(false).seed(3).run(&flows);
    assert!(
        fast.result.events_processed < off.result.events_processed,
        "express run should dispatch fewer events ({} vs {})",
        fast.result.events_processed,
        off.result.events_processed
    );
}
