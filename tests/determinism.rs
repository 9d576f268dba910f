//! Bit-level determinism: two runs of the same seeded scenario must agree
//! not just on aggregate counters but on the *entire packet trace* at the
//! bottleneck — every enqueue, dequeue, and drop, at the same simulated
//! time, in the same order. This is the contract the R1-R7 rules in
//! `cebinae-verify` (and DESIGN.md's "Determinism invariants") exist to
//! protect, and it must hold with a fault plan armed: every fault draw
//! routes through forked `DetRng` streams, never host entropy.

use cebinae_repro::prelude::*;

fn traced_run(discipline: Discipline, faults: &FaultPlan, seed: u64) -> SimResult {
    let flows = vec![
        DumbbellFlow::new(CcKind::NewReno, 30),
        DumbbellFlow::new(CcKind::Cubic, 40),
        DumbbellFlow::new(CcKind::Vegas, 25),
        DumbbellFlow::new(CcKind::Bbr, 35).starting_at(Time::from_secs(2)),
    ];
    let mut p = ScenarioParams::new(25_000_000, 250, discipline);
    p.duration = Duration::from_secs(6);
    p.seed = seed;
    p.cebinae_p = Some(1);
    p.faults = faults.clone();
    let (mut cfg, bneck) = dumbbell(&flows, &p);
    cfg.traced_links = vec![bneck];
    cfg.trace_capacity = 500_000;
    Simulation::new(cfg).run()
}

fn assert_identical(a: &SimResult, b: &SimResult, label: &str) {
    assert_eq!(a.delivered, b.delivered, "{label}: delivered bytes diverged");
    assert_eq!(
        a.events_processed, b.events_processed,
        "{label}: event counts diverged"
    );
    assert_eq!(a.trace.len(), b.trace.len(), "{label}: trace lengths diverged");
    // Record-by-record equality, with a usable diff on failure.
    for (i, (ra, rb)) in a.trace.records().zip(b.trace.records()).enumerate() {
        assert_eq!(
            ra, rb,
            "{label}: traces first diverge at record {i}:\n  a: {ra}\n  b: {rb}"
        );
    }
    // And the rendered dump (covers formatting + truncation counters).
    assert_eq!(a.trace.dump(), b.trace.dump());
    assert!(
        !a.trace.is_empty(),
        "{label}: scenario must actually exercise the traced link"
    );
}

#[test]
fn identical_seeds_give_identical_packet_traces() {
    // Seeded uniform loss on the bottleneck: the trace must be
    // identical even when the random-drop draws are exercised.
    let plan = FaultPlan::parse("loss:0.005").unwrap();
    for discipline in [Discipline::Fifo, Discipline::Cebinae] {
        let a = traced_run(discipline, &plan, 0xceb1_7e57);
        let b = traced_run(discipline, &plan, 0xceb1_7e57);
        assert_identical(&a, &b, discipline.label());
    }
}

#[test]
fn chaos_plans_are_bit_deterministic() {
    // The full fault surface at once — bursty loss, reorder holdback,
    // duplication, corruption, a flap, and a control stall — replays to
    // the same trace bit-for-bit, because every draw forks off the
    // scenario seed.
    let plan = FaultPlan {
        link: LinkFaultSpec {
            loss: LossModel::GilbertElliott {
                p_enter: 0.002,
                p_exit: 0.2,
                loss_good: 0.0,
                loss_bad: 0.3,
            },
            reorder: Some(ReorderSpec {
                p: 0.02,
                min_hold: Duration::from_millis(1),
                max_hold: Duration::from_millis(8),
            }),
            duplicate: 0.005,
            corrupt: 0.002,
            timeline: vec![
                LinkEvent { at: Time::from_secs(1), kind: LinkEventKind::Down },
                LinkEvent { at: Time(1_300_000_000), kind: LinkEventKind::Up },
            ],
        },
        stalls: vec![StallWindow { from: Time::from_secs(3), until: Time::from_secs(4) }],
    };
    let a = traced_run(Discipline::Cebinae, &plan, 0xfa_0175);
    let b = traced_run(Discipline::Cebinae, &plan, 0xfa_0175);
    assert_identical(&a, &b, "chaos");
}

#[test]
fn different_seeds_give_different_traces() {
    // Guards against the opposite failure: a seed that is ignored would
    // make the identical-trace test vacuous.
    let plan = FaultPlan::parse("loss:0.005").unwrap();
    let a = traced_run(Discipline::Cebinae, &plan, 1);
    let b = traced_run(Discipline::Cebinae, &plan, 2);
    assert_ne!(
        a.trace.dump(),
        b.trace.dump(),
        "distinct seeds must perturb the packet schedule"
    );
}
