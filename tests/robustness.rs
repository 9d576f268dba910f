//! Robustness and fault-injection integration tests, in the spirit of the
//! smoltcp examples' `--drop-chance`: the full stack (TCP + qdiscs +
//! Cebinae control plane) must stay correct under adverse conditions.
//!
//! The shared mixed-CCA dumbbell lives in [`support`]; faults are
//! declared as [`FaultPlan`]s.

mod support;

use cebinae_repro::prelude::*;
use cebinae_sim::rng::DetRng;
use support::{fault_family_plans, run_mixed};

#[test]
fn all_ccas_coexist_under_cebinae_with_random_loss() {
    let r = run_mixed(Discipline::Cebinae, &FaultPlan::parse("loss:0.005").unwrap(), 7, 10);
    for (i, &d) in r.delivered.iter().enumerate() {
        assert!(
            d > 200_000,
            "flow {i} starved under 0.5% random loss: {d} bytes"
        );
    }
}

#[test]
fn heavy_loss_degrades_gracefully() {
    let clean = run_mixed(Discipline::Cebinae, &FaultPlan::default(), 7, 10);
    let lossy = run_mixed(Discipline::Cebinae, &FaultPlan::parse("loss:0.05").unwrap(), 7, 10);
    // Every flow still moves data. Loss at the bottleneck costs each
    // loss-based flow (NewReno, Cubic, Bic: flows 0, 1 and 4); BBR ignores
    // loss and takes up the capacity they leave, so the total need not fall.
    assert!(lossy.delivered.iter().all(|&d| d > 0), "{:?}", lossy.delivered);
    for i in [0, 1, 4] {
        assert!(
            lossy.delivered[i] < clean.delivered[i],
            "5% loss must cost loss-based flow {i}: {} vs {}",
            lossy.delivered[i],
            clean.delivered[i]
        );
    }
}

/// Every fault family, under every discipline: the run completes, bytes
/// are conserved at each link, and no flow is starved outright by
/// bounded-intensity adversity — the integration-level face of the
/// cebinae-check graceful-degradation oracles.
#[test]
fn every_fault_family_is_survivable_across_disciplines() {
    for d in [Discipline::Fifo, Discipline::FqCoDel, Discipline::Cebinae] {
        for (name, plan) in fault_family_plans() {
            let r = run_mixed(d, &plan, 11, 5);
            let total: u64 = r.delivered.iter().sum();
            assert!(
                total > 2_000_000,
                "{}/{name}: barely any delivery: {total}",
                d.label()
            );
            for (i, &bytes) in r.delivered.iter().enumerate() {
                assert!(
                    bytes > 50_000,
                    "{}/{name}: flow {i} starved: {bytes} bytes",
                    d.label()
                );
            }
            for s in &r.link_stats {
                assert!(s.enq_bytes >= s.tx_bytes, "{}/{name}", d.label());
            }
        }
    }
}

/// A flap parks the bottleneck for 400 ms; delivery must keep growing
/// after the link returns, and the faulted run can never beat the clean
/// twin.
#[test]
fn traffic_resumes_after_a_link_flap() {
    let flap = fault_family_plans()
        .into_iter()
        .find(|(name, _)| *name == "flap")
        .map(|(_, plan)| plan)
        .unwrap();
    let clean = run_mixed(Discipline::Cebinae, &FaultPlan::default(), 11, 5);
    let flapped = run_mixed(Discipline::Cebinae, &flap, 11, 5);
    let sum = |r: &SimResult| r.delivered.iter().sum::<u64>();
    assert!(
        sum(&flapped) < sum(&clean),
        "a 400 ms outage must cost throughput: {} vs {}",
        sum(&flapped),
        sum(&clean)
    );
    // Everyone still finishes with real progress: the post-flap window
    // is long enough for every CCA to recover from its RTO backoff.
    for (i, &bytes) in flapped.delivered.iter().enumerate() {
        assert!(bytes > 50_000, "flow {i} never recovered from the flap: {bytes}");
    }
}

#[test]
fn ecn_enabled_endpoints_work_through_every_discipline() {
    for d in [Discipline::Fifo, Discipline::FqCoDel, Discipline::Cebinae] {
        let flows = vec![
            DumbbellFlow::new(CcKind::NewReno, 20),
            DumbbellFlow::new(CcKind::NewReno, 20),
        ];
        let mut p = ScenarioParams::new(20_000_000, 100, d);
        p.duration = Duration::from_secs(6);
        p.cebinae_p = Some(1);
        let (mut cfg, _) = dumbbell(&flows, &p);
        for f in &mut cfg.flows {
            f.tcp.ecn = true;
        }
        let r = Simulation::new(cfg).run();
        let total: u64 = r.delivered.iter().sum();
        assert!(total > 5_000_000, "{}: delivered {total}", d.label());
    }
}

/// Random CCA mixes, RTTs, and disciplines: the engine never panics,
/// conserves bytes, and delivers something. Eight seeded random cases,
/// each reproducible from its case index.
#[test]
fn random_scenarios_complete() {
    for case in 0..8u64 {
        let mut rng = DetRng::seed_from_u64(0x0b_0057 ^ case);
        let seed = rng.gen_range_u64(0, 1000);
        let n_flows = rng.gen_range_usize(2, 8);
        let d_idx = rng.gen_range_usize(0, 3);
        let rtt_base = rng.gen_range_u64(10, 80);
        let disciplines = [Discipline::Fifo, Discipline::FqCoDel, Discipline::Cebinae];
        let flows: Vec<_> = (0..n_flows)
            .map(|i| {
                DumbbellFlow::new(
                    CcKind::ALL[(seed as usize + i) % 5],
                    rtt_base + (i as u64 * 7) % 50,
                )
            })
            .collect();
        let mut p = ScenarioParams::new(15_000_000, 120, disciplines[d_idx]);
        p.duration = Duration::from_secs(4);
        p.seed = seed;
        p.cebinae_p = Some(1);
        let (cfg, _) = dumbbell(&flows, &p);
        let r = Simulation::new(cfg).run();
        let total: u64 = r.delivered.iter().sum();
        assert!(total > 500_000, "case {case}: barely any delivery: {total}");
        for s in &r.link_stats {
            assert!(s.enq_bytes >= s.tx_bytes, "case {case}");
        }
    }
}
