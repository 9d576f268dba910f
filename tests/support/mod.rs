//! Shared helpers for the workspace integration tests.
//!
//! Every integration-test binary that needs these compiles its own copy
//! via `mod support;` (the standard Cargo pattern for cross-test
//! helpers), so everything here is self-contained, std-only, and
//! deterministic. Not every binary uses every helper, hence the
//! module-wide `dead_code` allowance.
#![allow(dead_code)]

use cebinae_repro::prelude::*;

/// The canonical mixed-CCA dumbbell shared by the robustness and
/// determinism suites: one flow per congestion-control family with
/// staggered RTTs behind a 25 Mbps / 150-MTU bottleneck, with an
/// arbitrary [`FaultPlan`] applied to the bottleneck.
pub fn run_mixed(discipline: Discipline, faults: &FaultPlan, seed: u64, secs: u64) -> SimResult {
    let flows = vec![
        DumbbellFlow::new(CcKind::NewReno, 20),
        DumbbellFlow::new(CcKind::Cubic, 30),
        DumbbellFlow::new(CcKind::Vegas, 40),
        DumbbellFlow::new(CcKind::Bbr, 25),
        DumbbellFlow::new(CcKind::Bic, 35),
    ];
    let mut p = ScenarioParams::new(25_000_000, 150, discipline);
    p.duration = Duration::from_secs(secs);
    p.seed = seed;
    p.cebinae_p = Some(1);
    p.faults = faults.clone();
    let (cfg, _) = dumbbell(&flows, &p);
    Simulation::new(cfg).run()
}

/// FNV-1a over `delivered`, `events_processed` and per-link enq/tx/drop:
/// the performance ledger's `sim_digest`, which the engine-level pins
/// compare against.
pub fn sim_digest(r: &SimResult) -> u64 {
    r.delivered
        .iter()
        .copied()
        .chain([r.events_processed])
        .chain(
            r.link_stats
                .iter()
                .flat_map(|s| [s.enq_pkts, s.tx_pkts, s.drop_pkts]),
        )
        .fold(cebinae_ds::FNV_OFFSET, |h, w| {
            cebinae_ds::fnv1a_bytes(h, &w.to_le_bytes())
        })
}

/// One handcrafted plan per scripted/stochastic fault family, each
/// scoped so a multi-second run has time to recover: bursty
/// (Gilbert–Elliott) loss, bounded-delay reordering, a link flap, and a
/// control-plane stall. Uniform loss, duplication, and corruption are
/// covered by the dedicated migration and engine tests.
pub fn fault_family_plans() -> Vec<(&'static str, FaultPlan)> {
    let on_bottleneck = |link: LinkFaultSpec| FaultPlan { link, ..FaultPlan::default() };
    vec![
        (
            "bursty-loss",
            on_bottleneck(LinkFaultSpec {
                loss: LossModel::GilbertElliott {
                    p_enter: 0.002,
                    p_exit: 0.2,
                    loss_good: 0.0,
                    loss_bad: 0.3,
                },
                ..LinkFaultSpec::default()
            }),
        ),
        (
            "reorder",
            on_bottleneck(LinkFaultSpec {
                reorder: Some(ReorderSpec {
                    p: 0.02,
                    min_hold: Duration::from_millis(1),
                    max_hold: Duration::from_millis(8),
                }),
                ..LinkFaultSpec::default()
            }),
        ),
        (
            "flap",
            on_bottleneck(LinkFaultSpec {
                timeline: vec![
                    LinkEvent { at: Time::from_secs(1), kind: LinkEventKind::Down },
                    LinkEvent {
                        at: Time(1_400_000_000),
                        kind: LinkEventKind::Up,
                    },
                ],
                ..LinkFaultSpec::default()
            }),
        ),
        (
            "control-stall",
            FaultPlan {
                stalls: vec![StallWindow { from: Time::from_secs(1), until: Time::from_secs(2) }],
                ..FaultPlan::default()
            },
        ),
    ]
}
