//! Engine-level pin for BBR. `identity_snapshot` and `cebinae-check` draw
//! their CCAs from NewReno/Cubic/Vegas/Bic only, so without this test a
//! change to BBR's model (`crates/transport/src/cc/bbr.rs`) or to how the
//! engine drives a paced sender would surface only in the ledger's
//! `sim_digest`. This runs the ledger's `t2r14_fifo` scenario — Table 2
//! row 14 under FIFO, 128 NewReno against one BBR flow in a 4 200-MTU
//! buffer — for its full three simulated seconds and pins the ledger's
//! seed-1 `sim_digest` of it. One second is not enough: the BBR flow is
//! still in startup then (1.1 MB delivered, against 148 MB by the end), so
//! a change to the ProbeBW model or the bandwidth window went unseen. The
//! expected value was captured on the commit before BBR's bandwidth filter
//! became a monotone deque; a speed-only change leaves it alone.

use cebinae_engine::{dumbbell, Discipline, ScenarioParams, SimResult, Simulation};
use cebinae_harness::table2;
use cebinae_sim::Duration;
use cebinae_transport::CcKind;

/// FNV-1a over `delivered`, `events_processed` and per-link enq/tx/drop:
/// the ledger's `sim_digest`.
fn sim_digest(r: &SimResult) -> u64 {
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

#[test]
fn t2r14_fifo_matches_the_recorded_digest() {
    let row = &table2::rows()[13];
    assert_eq!(
        row.mix.last(),
        Some(&(CcKind::Bbr, 1)),
        "row 14 is 128 NewReno + 1 BBR"
    );
    let mut p = ScenarioParams::new(row.rate_bps, row.buffer_mtus, Discipline::Fifo);
    p.cebinae_p = Some(1);
    p.duration = Duration::from_secs(3);
    p.seed = 1;
    let (cfg, _) = dumbbell(&row.flows(), &p);
    let r = Simulation::new(cfg).run();
    let digest = sim_digest(&r);
    assert!(
        digest == 0xbc90_f256_e7a0_58e7,
        "t2r14_fifo moved: digest {digest:#018x}, events {}, BBR delivered {:?}",
        r.events_processed,
        r.delivered.last()
    );
}
