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
    // Default configuration on both sides: which links the engine serves
    // analytically is decided per link, never by whether the run is
    // observed, so switching telemetry on must leave the simulation —
    // down to its event count — exactly where it was.
    let run_off = || telemetry_run().telemetry(false).seed(3).run(&flows);
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
    let bits = |m: &cebinae_harness::RunMetrics| -> Vec<u64> {
        m.per_flow_bps.iter().map(|b| b.to_bits()).collect()
    };
    for (name, other) in [("observed", &on), ("second unobserved", &off_again)] {
        assert_eq!(
            off.result.events_processed, other.result.events_processed,
            "{name} run dispatched a different event stream"
        );
        assert_eq!(off.result.delivered, other.result.delivered, "{name} run: delivered");
        assert_eq!(bits(&off), bits(other), "{name} run: simulated goodput");
        assert_eq!(off.result.link_stats, other.result.link_stats, "{name} run: link stats");
    }
    // Full emulation (`express = false`, the reference path pinned by
    // tests/express_path.rs) does strictly more scheduler work, so the
    // equalities above were established on the express path.
    let mut full = telemetry_run().seed(3);
    full.params_mut().express = false;
    let full = full.run(&flows);
    assert!(
        on.result.events_processed < full.result.events_processed,
        "observed run should dispatch fewer events than full emulation ({} vs {})",
        on.result.events_processed,
        full.result.events_processed
    );
}
