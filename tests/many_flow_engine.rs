//! Engine-level pin for the many-flow shape. The ledger's `many4096_*`
//! workloads are the only other runs with thousands of flows on one
//! dumbbell: 16 384 express access links, a packet stash and in-flight
//! rings thousands deep, and a bottleneck whose FQ-CoDel keeps a slot per
//! flow. `identity_snapshot` and `cebinae-check` stay at a few dozen
//! flows, so without this test a change that moved simulated bytes only
//! at this scale would surface only in the ledger's `sim_digest`.
//!
//! The recipe is the ledger's `many4096` one — 4096 NewReno/Cubic flows,
//! RTT 20-90 ms, shuffled by the seed-1 `DetRng`, 400 Mbps, 1024-MTU
//! buffer — shortened to one simulated second, under FQ-CoDel and under
//! Cebinae. Each pins the ledger's `sim_digest` and `events_processed`,
//! captured before the express link was compacted to one aligned block;
//! a speed-only change leaves both alone.

mod support;

use cebinae_engine::{dumbbell, Discipline, DumbbellFlow, ScenarioParams, SimResult, Simulation};
use cebinae_sim::rng::DetRng;
use cebinae_sim::Duration;
use cebinae_transport::CcKind;

/// The ledger's `many4096` run at seed 1, one second long.
fn many4096(discipline: Discipline) -> SimResult {
    let seed = 1;
    let mut flows: Vec<DumbbellFlow> = (0..4096u64)
        .map(|i| {
            let cc = if i % 2 == 0 { CcKind::NewReno } else { CcKind::Cubic };
            DumbbellFlow::new(cc, 20 + (i % 8) * 10)
        })
        .collect();
    DetRng::seed_from_u64(seed ^ 0x1ed6_e700_0000_0000).shuffle(&mut flows);
    let mut p = ScenarioParams::new(400_000_000, 1024, discipline);
    p.cebinae_p = Some(1);
    p.duration = Duration::from_secs(1);
    p.seed = seed;
    let (cfg, _) = dumbbell(&flows, &p);
    Simulation::new(cfg).run()
}

fn check(name: &str, discipline: Discipline, digest: u64, events: u64) {
    let r = many4096(discipline);
    let got = (support::sim_digest(&r), r.events_processed);
    assert!(
        got == (digest, events),
        "{name} moved: digest {:#018x}, events {}",
        got.0,
        got.1
    );
}

#[test]
fn many4096_fq_matches_the_recorded_digest() {
    check("many4096_fq", Discipline::FqCoDel, 0x7dfc_6487_9575_4346, 286_030);
}

#[test]
fn many4096_cebinae_matches_the_recorded_digest() {
    check("many4096_cebinae", Discipline::Cebinae, 0xecda_b292_1d36_140e, 158_620);
}
