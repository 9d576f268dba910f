//! Figure experiments: 1, 7, 8a/8b, 9, 10, 12 (single-bottleneck) — each
//! regenerates the series/bars/CDFs the paper plots.

use cebinae_engine::{Discipline, DumbbellFlow};
use cebinae_metrics::{cdf, jfi};
use cebinae_sim::Time;
use cebinae_transport::CcKind;

use crate::runner::{mbps, run_with_params, Ctx, Table};

/// Figure 1: two NewReno flows (RTT 20.4 / 40 ms) over 1 Gbps, goodput
/// time series under FIFO and Cebinae, plus Cebinae's saturation state.
pub fn fig1(ctx: &Ctx) -> String {
    let flows = vec![
        DumbbellFlow::new(CcKind::NewReno, 20),
        DumbbellFlow::new(CcKind::NewReno, 40),
    ];
    let duration = ctx.secs(50, 50); // the paper plots 50 s
    let rate = 1_000_000_000;
    let buffer = 850;

    let mut runs = ctx.pool().map(vec![Discipline::Fifo, Discipline::Cebinae], |_, d| {
        run_with_params(&flows, &ctx.params(rate, buffer, d, duration))
    });
    ctx.export_runs("fig1", &runs);
    let ceb = runs.pop().expect("two runs");
    let fifo = runs.pop().expect("two runs");

    let mut t = Table::new(&[
        "t[s]", "FIFO-f0[MBps]", "FIFO-f1[MBps]", "Ceb-f0[MBps]", "Ceb-f1[MBps]", "Ceb-state",
    ]);
    let fifo_rates = fifo.result.goodput.rates();
    let ceb_rates = ceb.result.goodput.rates();
    for (i, ((ts, fr), (_, cr))) in fifo_rates.iter().zip(&ceb_rates).enumerate() {
        // One row per second (samples are 100 ms).
        if i % 10 != 9 {
            continue;
        }
        let sat = ceb
            .result
            .cebinae_series
            .iter()
            .rev()
            .find(|(st, _)| st <= ts)
            .is_some_and(|(_, s)| s[0].saturated);
        t.row(vec![
            format!("{:.0}", ts.as_secs_f64()),
            format!("{:.1}", fr[0] / 1e6),
            format!("{:.1}", fr[1] / 1e6),
            format!("{:.1}", cr[0] / 1e6),
            format!("{:.1}", cr[1] / 1e6),
            if sat { "saturated" } else { "unsat" }.into(),
        ]);
    }
    format!(
        "{}\nsummary: FIFO JFI {:.3}, Cebinae JFI {:.3}; FIFO goodput {} Mbps, Cebinae {} Mbps\n",
        t.render(),
        fifo.jfi,
        ceb.jfi,
        mbps(fifo.goodput_bps),
        mbps(ceb.goodput_bps)
    )
}

/// Figure 7: 16 Vegas + 1 NewReno over 100 Mbps — per-flow goodput bars
/// under FIFO and Cebinae.
pub fn fig7(ctx: &Ctx) -> String {
    let mut flows: Vec<_> = (0..16).map(|_| DumbbellFlow::new(CcKind::Vegas, 50)).collect();
    flows.push(DumbbellFlow::new(CcKind::NewReno, 50));
    let duration = ctx.secs(40, 100);
    let mut runs = ctx.pool().map(vec![Discipline::Fifo, Discipline::Cebinae], |_, d| {
        run_with_params(&flows, &ctx.params(100_000_000, 850, d, duration))
    });
    ctx.export_runs("fig7", &runs);
    let ceb = runs.pop().expect("two runs");
    let fifo = runs.pop().expect("two runs");
    let mut t = Table::new(&["flow", "cca", "FIFO[Mbps]", "Cebinae[Mbps]"]);
    for i in 0..flows.len() {
        t.row(vec![
            i.to_string(),
            flows[i].cc.label().into(),
            format!("{:.2}", fifo.per_flow_bps[i] / 1e6),
            format!("{:.2}", ceb.per_flow_bps[i] / 1e6),
        ]);
    }
    format!(
        "{}\nsummary: FIFO JFI {:.3} -> Cebinae JFI {:.3} (paper: 0.093 -> 0.984)\n",
        t.render(),
        fifo.jfi,
        ceb.jfi
    )
}

/// Figures 8a/8b: goodput CDFs. 8a: 128 NewReno vs 2 BBR @ 1 Gbps;
/// 8b: 128 NewReno (100 ms) vs 4 Vegas (64 ms) @ 1 Gbps.
pub fn fig8(ctx: &Ctx, variant_b: bool) -> String {
    let (flows, buffer, name) = if variant_b {
        let mut f: Vec<_> = (0..128)
            .map(|_| DumbbellFlow::new(CcKind::NewReno, 100))
            .collect();
        f.extend((0..4).map(|_| DumbbellFlow::new(CcKind::Vegas, 64)));
        (f, 8500, "8b: 128 NewReno vs 4 Vegas")
    } else {
        let mut f: Vec<_> = (0..128)
            .map(|_| DumbbellFlow::new(CcKind::NewReno, 50))
            .collect();
        f.extend((0..2).map(|_| DumbbellFlow::new(CcKind::Bbr, 50)));
        (f, 4200, "8a: 128 NewReno vs 2 BBR")
    };
    let duration = ctx.secs(15, 100);
    let mut runs = ctx.pool().map(vec![Discipline::Fifo, Discipline::Cebinae], |_, d| {
        run_with_params(&flows, &ctx.params(1_000_000_000, buffer, d, duration))
    });
    ctx.export_runs(if variant_b { "fig8b" } else { "fig8a" }, &runs);
    let ceb = runs.pop().expect("two runs");
    let fifo = runs.pop().expect("two runs");
    let mut out = format!("Figure {name} — goodput CDF [Mbps]\n");
    let mut t = Table::new(&["pct", "FIFO", "Cebinae"]);
    let f_cdf = cdf(&fifo.per_flow_bps);
    let c_cdf = cdf(&ceb.per_flow_bps);
    for q in [5, 25, 50, 75, 90, 99, 100] {
        let pick = |c: &[(f64, f64)]| {
            c.iter()
                .find(|(_, p)| *p * 100.0 >= q as f64)
                .map(|(v, _)| *v)
                .unwrap_or(c.last().unwrap().0)
        };
        t.row(vec![
            format!("p{q}"),
            format!("{:.2}", pick(&f_cdf) / 1e6),
            format!("{:.2}", pick(&c_cdf) / 1e6),
        ]);
    }
    out.push_str(&t.render());
    let agg = |m: &crate::runner::RunMetrics, n: usize| {
        m.per_flow_bps[m.per_flow_bps.len() - n..]
            .iter()
            .sum::<f64>()
            / 1e6
    };
    let minority = if variant_b { 4 } else { 2 };
    out.push_str(&format!(
        "minority-CCA aggregate: FIFO {:.1} Mbps -> Cebinae {:.1} Mbps\nJFI: FIFO {:.3} -> Cebinae {:.3}\n",
        agg(&fifo, minority),
        agg(&ceb, minority),
        fifo.jfi,
        ceb.jfi
    ));
    out
}

/// Figure 9: RTT-asymmetry sweep — 4 Cubic @256 ms vs 4 Cubic @{16..256} ms
/// over 400 Mbps / 3 MB buffer; JFI and goodput per discipline.
pub fn fig9(ctx: &Ctx) -> String {
    let duration = ctx.secs(40, 100);
    let buffer_mtus = 2000; // 3 MB
    let mut t = Table::new(&[
        "rtt2[ms]", "JFI-FIFO", "JFI-FQ", "JFI-Ceb", "good-FIFO", "good-FQ", "good-Ceb",
    ]);
    // One job per (rtt2, discipline) cell — the whole 5x3 grid runs at
    // once; rows are assembled in sweep order afterwards.
    const RTT2: [u64; 5] = [16, 32, 64, 128, 256];
    let mut jobs = Vec::new();
    for &rtt2 in &RTT2 {
        for &d in Discipline::PAPER.iter() {
            jobs.push((rtt2, d));
        }
    }
    let results = ctx.pool().map(jobs, |_, (rtt2, d)| {
        let mut flows: Vec<_> = (0..4).map(|_| DumbbellFlow::new(CcKind::Cubic, 256)).collect();
        flows.extend((0..4).map(|_| DumbbellFlow::new(CcKind::Cubic, rtt2)));
        run_with_params(&flows, &ctx.params(400_000_000, buffer_mtus, d, duration))
    });
    ctx.export_runs("fig9", &results);
    for (i, &rtt2) in RTT2.iter().enumerate() {
        let cells = &results[i * 3..i * 3 + 3];
        t.row(vec![
            rtt2.to_string(),
            format!("{:.3}", cells[0].jfi),
            format!("{:.3}", cells[1].jfi),
            format!("{:.3}", cells[2].jfi),
            mbps(cells[0].goodput_bps),
            mbps(cells[1].goodput_bps),
            mbps(cells[2].goodput_bps),
        ]);
    }
    t.render()
}

/// Figure 10: JFI time series as flows join — 32 Vegas stable, a NewReno
/// joins at ~5 s and a Cubic at ~25 s, 100 Mbps bottleneck.
pub fn fig10(ctx: &Ctx) -> String {
    let duration = ctx.secs(50, 50);
    let mut flows: Vec<_> = (0..32).map(|_| DumbbellFlow::new(CcKind::Vegas, 40)).collect();
    flows.push(DumbbellFlow::new(CcKind::NewReno, 40).starting_at(Time::from_secs(5)));
    flows.push(DumbbellFlow::new(CcKind::Cubic, 40).starting_at(Time::from_secs(25)));

    let runs = ctx.pool().map(Discipline::PAPER.to_vec(), |_, d| {
        run_with_params(&flows, &ctx.params(100_000_000, 850, d, duration))
    });
    ctx.export_runs("fig10", &runs);

    let mut t = Table::new(&["t[s]", "JFI-FIFO", "JFI-FQ", "JFI-Ceb"]);
    // Per-second JFI over flows that have started (the paper measures
    // goodput JFI per second).
    let series: Vec<Vec<(Time, f64)>> = runs
        .iter()
        .map(|r| {
            r.result
                .goodput
                .rates()
                .into_iter()
                .map(|(ts, rates)| {
                    let active: Vec<f64> = rates
                        .iter()
                        .zip(&flows)
                        .filter(|(_, f)| f.start + cebinae_sim::Duration::from_secs(1) < ts)
                        .map(|(r, _)| *r)
                        .collect();
                    (ts, jfi(&active))
                })
                .collect()
        })
        .collect();
    for i in (9..series[0].len()).step_by(10) {
        t.row(vec![
            format!("{:.0}", series[0][i].0.as_secs_f64()),
            format!("{:.3}", series[0][i].1),
            format!("{:.3}", series[1][i].1),
            format!("{:.3}", series[2][i].1),
        ]);
    }
    t.render()
}

/// Figure 12: sensitivity to δp = δf = τ for 16 NewReno vs 1 Cubic over
/// 100 Mbps; JFI and goodput vs the thresholds, with FIFO/FQ references.
pub fn fig12(ctx: &Ctx) -> String {
    let mut flows: Vec<_> = (0..16).map(|_| DumbbellFlow::new(CcKind::NewReno, 50)).collect();
    flows.push(DumbbellFlow::new(CcKind::Cubic, 50));
    let duration = ctx.secs(20, 100);
    let rate = 100_000_000;
    let buffer = 420;

    // References and the 8-point threshold sweep are all independent: one
    // job each, run as a single batch.
    const PCTS: [f64; 8] = [1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 75.0, 100.0];
    enum Spec {
        Reference(Discipline),
        Threshold(f64),
    }
    let mut specs = vec![
        Spec::Reference(Discipline::Fifo),
        Spec::Reference(Discipline::FqCoDel),
    ];
    specs.extend(PCTS.iter().map(|&pct| Spec::Threshold(pct)));
    let mut results = ctx.pool().map(specs, |_, spec| match spec {
        Spec::Reference(d) => run_with_params(&flows, &ctx.params(rate, buffer, d, duration)),
        Spec::Threshold(pct) => {
            let th = pct / 100.0;
            let mut p = ctx.params(rate, buffer, Discipline::Cebinae, duration);
            p.cebinae_thresholds = (th, th, th);
            run_with_params(&flows, &p)
        }
    });
    ctx.export_runs("fig12", &results);
    let sweep = results.split_off(2);
    let fq = results.pop().expect("two references");
    let fifo = results.pop().expect("two references");

    let mut t = Table::new(&["threshold[%]", "JFI", "goodput[Mbps]"]);
    for (pct, m) in PCTS.iter().zip(&sweep) {
        t.row(vec![
            format!("{pct}"),
            format!("{:.3}", m.jfi),
            mbps(m.goodput_bps),
        ]);
    }
    format!(
        "{}\nreferences: FIFO JFI {:.3} goodput {} | FQ JFI {:.3} goodput {}\n",
        t.render(),
        fifo.jfi,
        mbps(fifo.goodput_bps),
        fq.jfi,
        mbps(fq.goodput_bps)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ctx() -> Ctx {
        Ctx::serial(false, 1)
    }

    #[test]
    fn fig1_produces_table_and_summary() {
        // Run a miniature fig1 directly via the runner to keep it fast.
        let flows = vec![
            DumbbellFlow::new(CcKind::NewReno, 20),
            DumbbellFlow::new(CcKind::NewReno, 40),
        ];
        let duration = cebinae_sim::Duration::from_secs(4);
        let p = tiny_ctx().params(100_000_000, 350, Discipline::Cebinae, duration);
        let m = run_with_params(&flows, &p);
        assert_eq!(m.per_flow_bps.len(), 2);
        assert!(m.goodput_bps > 10e6);
    }

    #[test]
    fn fig8_cdf_structure() {
        let xs = vec![1.0, 2.0, 3.0, 10.0];
        let c = cdf(&xs);
        assert_eq!(c.len(), 4);
    }

    #[test]
    #[ignore = "several minutes; run with --ignored"]
    fn full_fig7_improves_fairness() {
        let out = fig7(&tiny_ctx());
        assert!(out.contains("summary"));
    }
}
