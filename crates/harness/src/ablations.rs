//! Ablations beyond the paper's tables: design-choice sensitivity studies
//! called out in DESIGN.md.
//!
//! * `p_sensitivity` — the recomputation period P (CP reaction speed vs.
//!   measurement smoothing);
//! * `per_flow_top` — the §7 future-work extension (one LBF per ⊤ flow)
//!   versus the aggregate ⊤ group;
//! * `disciplines` — all five disciplines (incl. AFQ) on one scenario;
//! * `ecn` — Cebinae's ECN marking path with ECN-enabled NewReno.

use cebinae_engine::{Discipline, DumbbellFlow, QdiscSpec};
use cebinae_transport::CcKind;

use crate::runner::{mbps, run_with_params, Ctx, Table};

fn contested_flows() -> Vec<DumbbellFlow> {
    // 4 Cubic @256 ms vs 4 Cubic @16 ms: the hardest (RTT-asymmetric)
    // scenario, where CP dynamics matter most.
    let mut flows: Vec<_> = (0..4).map(|_| DumbbellFlow::new(CcKind::Cubic, 256)).collect();
    flows.extend((0..4).map(|_| DumbbellFlow::new(CcKind::Cubic, 16)));
    flows
}

/// Sweep P — the number of dT rounds between CP recomputations.
pub fn p_sensitivity(ctx: &Ctx) -> String {
    let flows = contested_flows();
    let duration = ctx.secs(30, 100);
    let mut t = Table::new(&["P", "JFI", "goodput[Mbps]", "saturated-frac"]);
    const P_VALUES: [u32; 5] = [1, 2, 4, 8, 16];
    let results = ctx.pool().map(P_VALUES.to_vec(), |_, p_val| {
        let mut p = ctx.params(400_000_000, 2000, Discipline::Cebinae, duration);
        p.cebinae_p = Some(p_val);
        run_with_params(&flows, &p)
    });
    ctx.export_runs("ablation-p", &results);
    for (p_val, m) in P_VALUES.iter().zip(&results) {
        let series = &m.result.cebinae_series;
        let sat = series.iter().filter(|(_, s)| s[0].saturated).count() as f64
            / series.len().max(1) as f64;
        t.row(vec![
            p_val.to_string(),
            format!("{:.3}", m.jfi),
            mbps(m.goodput_bps),
            format!("{:.2}", sat),
        ]);
    }
    t.render()
}

/// Aggregate-⊤ vs per-flow-⊤ (the paper's §7 extension).
pub fn per_flow_top(ctx: &Ctx) -> String {
    let mut flows: Vec<_> = (0..16).map(|_| DumbbellFlow::new(CcKind::Vegas, 50)).collect();
    flows.push(DumbbellFlow::new(CcKind::NewReno, 50));
    let duration = ctx.secs(30, 100);
    let mut t = Table::new(&["variant", "JFI", "goodput[Mbps]", "hog[Mbps]"]);
    let variants = vec![Discipline::Cebinae, Discipline::CebinaePerFlowTop];
    let results = ctx.pool().map(variants.clone(), |_, d| {
        run_with_params(&flows, &ctx.params(100_000_000, 850, d, duration))
    });
    ctx.export_runs("ablation-perflow", &results);
    for (d, m) in variants.iter().zip(&results) {
        t.row(vec![
            d.label().into(),
            format!("{:.3}", m.jfi),
            mbps(m.goodput_bps),
            format!("{:.2}", m.per_flow_bps[16] / 1e6),
        ]);
    }
    t.render()
}

/// All five disciplines on the Figure 7 scenario, including the AFQ
/// comparator.
pub fn disciplines(ctx: &Ctx) -> String {
    let mut flows: Vec<_> = (0..16).map(|_| DumbbellFlow::new(CcKind::Vegas, 50)).collect();
    flows.push(DumbbellFlow::new(CcKind::NewReno, 50));
    let duration = ctx.secs(30, 100);
    let mut t = Table::new(&["discipline", "JFI", "tput[Mbps]", "goodput[Mbps]"]);
    let all = vec![
        Discipline::Fifo,
        Discipline::FqCoDel,
        Discipline::Afq,
        Discipline::Cebinae,
        Discipline::CebinaePerFlowTop,
    ];
    let results = ctx.pool().map(all.clone(), |_, d| {
        run_with_params(&flows, &ctx.params(100_000_000, 850, d, duration))
    });
    ctx.export_runs("ablation-disciplines", &results);
    for (d, m) in all.iter().zip(&results) {
        t.row(vec![
            d.label().into(),
            format!("{:.3}", m.jfi),
            mbps(m.throughput_bps),
            mbps(m.goodput_bps),
        ]);
    }
    t.render()
}

/// Cebinae with ECN marking + ECN-capable NewReno (the §4.3 "optionally
/// mark ECN bits" path) versus loss-only signaling.
pub fn ecn(ctx: &Ctx) -> String {
    let duration = ctx.secs(30, 100);
    let mut t = Table::new(&["mode", "JFI", "goodput[Mbps]", "marked-pkts", "lbf-drops"]);
    let rows = ctx.pool().map(vec![false, true], |_, enable_ecn| {
        let mut flows: Vec<_> = (0..8)
            .map(|_| DumbbellFlow::new(CcKind::NewReno, 40))
            .collect();
        flows.push(DumbbellFlow::new(CcKind::Cubic, 40));
        let p = ctx.params(100_000_000, 850, Discipline::Cebinae, duration);
        let (mut cfg, bneck) = cebinae_engine::dumbbell(&flows, &p);
        if let Some(QdiscSpec::Cebinae(ccfg)) = cfg.qdiscs.get_mut(&bneck) {
            ccfg.enable_ecn = enable_ecn;
        }
        // ECN-capable endpoints.
        if enable_ecn {
            for f in &mut cfg.flows {
                f.tcp.ecn = true;
            }
        }
        let r = cebinae_engine::Simulation::new(cfg).run();
        let warm = cebinae_sim::Time::ZERO + duration / 10;
        let g = r.goodputs_bps(warm);
        let stats = r.link_stats[bneck.index()];
        let ceb = r
            .cebinae_series
            .last()
            .map(|(_, s)| s[0])
            .unwrap_or_default();
        let cells = vec![
            if enable_ecn { "ECN" } else { "loss-only" }.into(),
            format!("{:.3}", cebinae_metrics::jfi(&g)),
            mbps(g.iter().sum()),
            stats.ecn_marked.to_string(),
            ceb.lbf_drops.to_string(),
        ];
        (cells, r.telemetry)
    });
    let exports: Vec<Option<&str>> = rows.iter().map(|(_, t)| t.as_deref()).collect();
    ctx.export_telemetry("ablation-ecn", &exports);
    for (row, _) in rows {
        t.row(row);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contested_flow_mix() {
        let f = contested_flows();
        assert_eq!(f.len(), 8);
        assert!(f[..4].iter().all(|x| x.rtt == cebinae_sim::Duration::from_millis(256)));
    }

    #[test]
    fn ecn_ablation_smoke() {
        // A very short run just exercising both paths end to end.
        let ctx = Ctx::serial(false, 1);
        let flows = vec![
            DumbbellFlow::new(CcKind::NewReno, 20),
            DumbbellFlow::new(CcKind::NewReno, 20),
        ];
        let duration = cebinae_sim::Duration::from_secs(3);
        let p = ctx.params(20_000_000, 100, Discipline::Cebinae, duration);
        let m = run_with_params(&flows, &p);
        assert!(m.goodput_bps > 1e6);
    }
}
