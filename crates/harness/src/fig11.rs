//! Figure 11: the parking-lot multi-bottleneck scenario. 8 NewReno flows
//! cross three 100 Mbps segments, contending with 2 Bic (segment 1),
//! 8 Vegas (segment 2), and 4 Cubic (segment 3). Reports per-flow goodput
//! under FIFO and Cebinae against the ideal max-min allocation, plus the
//! max-min-normalized JFI of §5.3.

use cebinae_engine::{parking_lot, Discipline, ParkingLotGroup, Simulation};
use cebinae_metrics::{jfi_maxmin_normalized, water_filling, MaxMinFlow};
use cebinae_sim::{Duration, Time};
use cebinae_transport::CcKind;

use crate::runner::{Ctx, Table};

/// Goodput/wire ratio (1448-byte MSS in 1500-byte frames).
const GOODPUT_RATIO: f64 = 1448.0 / 1500.0;

pub struct ParkingLotSpec {
    pub groups: Vec<ParkingLotGroup>,
    pub segments: usize,
    pub rate_bps: u64,
}

pub fn paper_spec() -> ParkingLotSpec {
    ParkingLotSpec {
        segments: 3,
        rate_bps: 100_000_000,
        groups: vec![
            ParkingLotGroup {
                cc: CcKind::NewReno,
                count: 8,
                enter: 0,
                exit: 3,
                rtt: Duration::from_millis(60),
            },
            ParkingLotGroup {
                cc: CcKind::Bic,
                count: 2,
                enter: 0,
                exit: 1,
                rtt: Duration::from_millis(20),
            },
            ParkingLotGroup {
                cc: CcKind::Vegas,
                count: 8,
                enter: 1,
                exit: 2,
                rtt: Duration::from_millis(20),
            },
            ParkingLotGroup {
                cc: CcKind::Cubic,
                count: 4,
                enter: 2,
                exit: 3,
                rtt: Duration::from_millis(20),
            },
        ],
    }
}

/// Ideal goodputs via water-filling over the parking-lot capacities.
pub fn ideal_goodputs(spec: &ParkingLotSpec) -> Vec<f64> {
    let caps: Vec<f64> = (0..spec.segments).map(|_| spec.rate_bps as f64).collect();
    let mut flows = Vec::new();
    for g in &spec.groups {
        for _ in 0..g.count {
            flows.push(MaxMinFlow::through((g.enter..g.exit).collect::<Vec<_>>()));
        }
    }
    water_filling(&caps, &flows)
        .into_iter()
        .map(|r| r * GOODPUT_RATIO)
        .collect()
}

pub fn run(ctx: &Ctx) -> String {
    let spec = paper_spec();
    let duration = ctx.secs(40, 100);
    let ideal = ideal_goodputs(&spec);

    let mut per_disc = Vec::new();
    let mut exports = Vec::new();
    for d in [Discipline::Fifo, Discipline::Cebinae] {
        let p = ctx.params(spec.rate_bps, 850, d, duration);
        let (cfg, _links) = parking_lot(spec.segments, &spec.groups, &p);
        let r = Simulation::new(cfg).run();
        let g = r.goodputs_bps(Time::ZERO + duration / 10);
        per_disc.push(g);
        exports.push(r.telemetry);
    }
    ctx.export_telemetry("fig11", &exports);

    let mut t = Table::new(&["flow", "cca", "ideal[Mbps]", "FIFO[Mbps]", "Cebinae[Mbps]"]);
    let mut labels = Vec::new();
    for g in &spec.groups {
        for _ in 0..g.count {
            labels.push(g.cc.label());
        }
    }
    for i in 0..labels.len() {
        t.row(vec![
            i.to_string(),
            labels[i].into(),
            format!("{:.1}", ideal[i] / 1e6),
            format!("{:.1}", per_disc[0][i] / 1e6),
            format!("{:.1}", per_disc[1][i] / 1e6),
        ]);
    }
    let jfi_fifo = jfi_maxmin_normalized(&per_disc[0], &ideal);
    let jfi_ceb = jfi_maxmin_normalized(&per_disc[1], &ideal);
    format!(
        "{}\nmax-min-normalized JFI: FIFO {:.3} -> Cebinae {:.3} (paper: 0.852 -> 0.978)\n",
        t.render(),
        jfi_fifo,
        jfi_ceb
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_allocation_matches_hand_computation() {
        let ideal = ideal_goodputs(&paper_spec());
        assert_eq!(ideal.len(), 22);
        // Water-filling: segment 2 (8 long + 8 Vegas = 16 flows) saturates
        // first at 100/16 = 6.25 Mbps, freezing longs and Vegas. Segment 1
        // then leaves 100 − 8·6.25 = 50 for 2 Bic = 25 each; segment 3
        // leaves 50 for 4 Cubic = 12.5 each.
        let long = ideal[0] / GOODPUT_RATIO;
        assert!((long - 6.25e6).abs() < 1.0, "long flows: {long}");
        let bic = ideal[8] / GOODPUT_RATIO;
        assert!((bic - 25e6).abs() < 1.0, "bic flows: {bic}");
        let vegas = ideal[10] / GOODPUT_RATIO;
        assert!((vegas - 6.25e6).abs() < 1.0, "vegas flows: {vegas}");
        let cubic = ideal[18] / GOODPUT_RATIO;
        assert!((cubic - 12.5e6).abs() < 1.0, "cubic flows: {cubic}");
    }

    #[test]
    fn spec_matches_paper_counts() {
        let s = paper_spec();
        let total: usize = s.groups.iter().map(|g| g.count).sum();
        assert_eq!(total, 22, "8 NewReno + 2 Bic + 8 Vegas + 4 Cubic");
        assert_eq!(s.segments, 3);
    }
}
