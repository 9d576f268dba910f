//! Extension experiments beyond the paper's evaluation.
//!
//! `fct` quantifies the paper's Example 1 claim — "Cebinae instead chooses
//! to ensure that there is always room for new flows to grow" — by
//! measuring the flow-completion times of Poisson-arriving mice against a
//! backdrop of elephant flows, under each discipline. The τ-funded ⊥
//! headroom should buy new flows a faster start than a FIFO full of
//! elephant queue.

use cebinae_engine::{dumbbell, Discipline, DumbbellFlow, Simulation};
use cebinae_metrics::percentile;
use cebinae_sim::rng::experiment_rng;
use cebinae_sim::{Duration, Time};
use cebinae_traffic::MiceWorkload;
use cebinae_transport::CcKind;

use crate::runner::{mbps, Ctx, Table};

/// Mice FCT under elephant load, per discipline.
pub fn fct(ctx: &Ctx) -> String {
    let duration = ctx.secs(30, 100);
    let rate = 100_000_000u64;
    let mut t = Table::new(&[
        "discipline",
        "mice-p50[ms]",
        "mice-p95[ms]",
        "mice-p99[ms]",
        "mice-done",
        "elephant[Mbps]",
    ]);
    let disciplines = vec![Discipline::Fifo, Discipline::FqCoDel, Discipline::Cebinae];
    let rows = ctx.pool().map(disciplines, |_, d| {
        // 4 elephants with infinite demand.
        let mut flows: Vec<_> = (0..4).map(|_| DumbbellFlow::new(CcKind::Cubic, 40)).collect();
        // Poisson mice from t=3s on (NewReno, the common case). The same
        // seeded arrival process is rebuilt per discipline, so every job is
        // self-contained.
        let workload = MiceWorkload {
            arrivals_per_sec: 10.0,
            from: Time::from_secs(3),
            until: Time::ZERO + duration - Duration::from_secs(3),
        };
        let mut rng = experiment_rng("ext-fct", ctx.seed);
        let arrivals = workload.generate(&mut rng);
        let n_elephants = flows.len();
        for a in &arrivals {
            flows.push(
                DumbbellFlow::new(CcKind::NewReno, 40)
                    .starting_at(a.start)
                    .with_bytes(a.bytes),
            );
        }

        let (cfg, _) = dumbbell(&flows, &ctx.params(rate, 850, d, duration));
        let r = Simulation::new(cfg).run();

        let mut fcts_ms = Vec::new();
        let mut done = 0usize;
        for (i, a) in arrivals.iter().enumerate() {
            if let Some(at) = r.completed_at[n_elephants + i] {
                done += 1;
                fcts_ms.push(at.saturating_since(a.start).as_secs_f64() * 1e3);
            }
        }
        let elephant_bps: f64 = r.goodputs_bps(Time::from_secs(3))[..n_elephants]
            .iter()
            .sum();
        let cells = if fcts_ms.is_empty() {
            vec![
                d.label().into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "0".into(),
                mbps(elephant_bps),
            ]
        } else {
            vec![
                d.label().into(),
                format!("{:.1}", percentile(&fcts_ms, 50.0)),
                format!("{:.1}", percentile(&fcts_ms, 95.0)),
                format!("{:.1}", percentile(&fcts_ms, 99.0)),
                format!("{done}/{}", arrivals.len()),
                mbps(elephant_bps),
            ]
        };
        (cells, r.telemetry)
    });
    let exports: Vec<Option<&str>> = rows.iter().map(|(_, e)| e.as_deref()).collect();
    ctx.export_telemetry("ext-fct", &exports);
    for (row, _) in rows {
        t.row(row);
    }
    t.render()
}

/// Equation 1 scalability sweep: minimum AFQ/PCQ queue counts (at a fixed
/// BpR) across flow-buffer requirements, versus Cebinae's constant 2 — the
/// quantified version of §5.5's "1000× more flows" claim.
pub fn scalability() -> String {
    use cebinae::resources::scalability_point;
    use cebinae_fq::{AFQ_BPR, AFQ_N_QUEUES};
    let mut t = Table::new(&[
        "rtt", "rate", "buffer_req", "AFQ/PCQ queues @BpR=8MTU", "Cebinae",
    ]);
    for (rtt_ms, rate_gbps) in [
        (0.1f64, 10u64),
        (1.0, 10),
        (10.0, 10),
        (50.0, 10),
        (100.0, 10),
        (200.0, 100),
    ] {
        let buffer_req = (rate_gbps as f64 * 1e9 / 8.0 * rtt_ms / 1e3) as u64;
        let p = scalability_point(0, buffer_req, AFQ_BPR, AFQ_N_QUEUES);
        t.row(vec![
            format!("{rtt_ms}ms"),
            format!("{rate_gbps}G"),
            format!("{:.2}MB", buffer_req as f64 / 1e6),
            p.afq_queues_needed.to_string(),
            "2".into(),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mice_complete_and_are_timed() {
        // Miniature version: 1 elephant + a few mice on a small link.
        let flows = vec![
            DumbbellFlow::new(CcKind::Cubic, 20),
            DumbbellFlow::new(CcKind::NewReno, 20)
                .starting_at(Time::from_secs(2))
                .with_bytes(50_000),
            DumbbellFlow::new(CcKind::NewReno, 20)
                .starting_at(Time::from_secs(3))
                .with_bytes(200_000),
        ];
        let ctx = Ctx::serial(false, 1);
        let p = ctx.params(20_000_000, 100, Discipline::Cebinae, Duration::from_secs(8));
        let (cfg, _) = dumbbell(&flows, &p);
        let r = Simulation::new(cfg).run();
        assert!(r.completed_at[0].is_none(), "elephant never completes");
        for i in [1, 2] {
            let at = r.completed_at[i].unwrap_or_else(|| panic!("mouse {i} unfinished"));
            assert!(at > r.flow_starts[i]);
            let fct = at.saturating_since(r.flow_starts[i]);
            assert!(
                fct < Duration::from_secs(5),
                "mouse {i} took {fct}"
            );
        }
    }
}
