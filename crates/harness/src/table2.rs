//! Table 2: throughput, goodput, and JFI for 25 network configurations
//! (bandwidth × RTT set × buffer × CCA mix) under FIFO, FQ, and Cebinae.

use cebinae_engine::{cca_mix, Discipline, DumbbellFlow};
use cebinae_transport::CcKind;

use crate::runner::{mbps, run_with_params, Ctx, Table};

/// One Table 2 row specification.
#[derive(Clone, Debug)]
pub struct Row {
    pub id: usize,
    pub rate_bps: u64,
    pub rtts_ms: &'static [u64],
    pub buffer_mtus: u64,
    pub mix: &'static [(CcKind, usize)],
}

/// Number of Table 2 rows; ids run `1..=ROWS`.
pub const ROWS: usize = 25;

/// One row's rate, RTTs, buffer in MTUs and `(CCA, flow count)` groups.
type RowSpec = (u64, &'static [u64], u64, &'static [(CcKind, usize)]);

/// The paper's 25 configurations, row for row.
pub fn rows() -> Vec<Row> {
    use CcKind::*;
    const M100: u64 = 100_000_000;
    const G1: u64 = 1_000_000_000;
    const G10: u64 = 10_000_000_000;
    let specs: [RowSpec; ROWS] = [
        (M100, &[20, 28], 250, &[(NewReno, 2), (NewReno, 8)]),
        (M100, &[20, 40], 350, &[(Cubic, 8), (Cubic, 2)]),
        (M100, &[20, 60], 500, &[(Vegas, 2), (Vegas, 8)]),
        (M100, &[200], 1700, &[(NewReno, 16), (Cubic, 1)]),
        (M100, &[100], 850, &[(NewReno, 16), (Cubic, 1)]),
        (M100, &[50], 420, &[(NewReno, 16), (Cubic, 1)]),
        (M100, &[50], 420, &[(Vegas, 16), (Cubic, 1)]),
        (M100, &[100], 850, &[(Vegas, 16), (NewReno, 1)]),
        (M100, &[100], 850, &[(Vegas, 128), (NewReno, 1)]),
        (M100, &[60], 500, &[(Vegas, 8), (NewReno, 8), (Cubic, 2)]),
        (G1, &[5], 420, &[(NewReno, 32), (Cubic, 8)]),
        (G1, &[10], 850, &[(Vegas, 128), (Cubic, 1)]),
        (G1, &[10], 850, &[(Vegas, 1024), (Cubic, 2)]),
        (G1, &[50], 4200, &[(NewReno, 128), (Bbr, 1)]),
        (G1, &[50], 4200, &[(NewReno, 128), (Bbr, 2)]),
        (G1, &[50], 21000, &[(NewReno, 128), (Bbr, 2)]),
        (G1, &[100], 8350, &[(NewReno, 128), (Bbr, 2)]),
        (G1, &[10], 850, &[(Vegas, 64), (NewReno, 1)]),
        (G1, &[100], 8500, &[(Vegas, 4), (NewReno, 128)]),
        (G1, &[100, 64], 8500, &[(Vegas, 4), (NewReno, 128)]),
        (G1, &[100], 8500, &[(Vegas, 8), (NewReno, 128)]),
        (G1, &[10], 850, &[(Vegas, 128), (Bbr, 1)]),
        (G1, &[100], 8500, &[(Bic, 2), (Cubic, 32)]),
        (G10, &[50, 44], 41667, &[(NewReno, 128), (Cubic, 16)]),
        (G10, &[28, 28], 25000, &[(NewReno, 128), (Cubic, 128)]),
    ];
    specs
        .into_iter()
        .enumerate()
        .map(|(i, (rate_bps, rtts_ms, buffer_mtus, mix))| Row {
            id: i + 1,
            rate_bps,
            rtts_ms,
            buffer_mtus,
            mix,
        })
        .collect()
}

impl Row {
    pub fn flows(&self) -> Vec<DumbbellFlow> {
        cca_mix(self.mix, self.rtts_ms)
    }

    pub fn label(&self) -> String {
        let mix: Vec<String> = self
            .mix
            .iter()
            .map(|(cc, n)| format!("{}:{}", cc.label(), n))
            .collect();
        format!(
            "{} rtt{:?} buf{} {{{}}}",
            mbps(self.rate_bps as f64),
            self.rtts_ms,
            self.buffer_mtus,
            mix.join(",")
        )
    }

    /// Scaled simulation seconds for this row (paper: 100 s).
    pub fn scaled_secs(&self) -> u64 {
        let n_flows: usize = self.mix.iter().map(|(_, n)| n).sum();
        match self.rate_bps {
            r if r >= 10_000_000_000 => 4,
            r if r >= 1_000_000_000 => {
                if n_flows > 512 {
                    8
                } else {
                    12
                }
            }
            _ => 20,
        }
    }
}

/// One measured cell (per discipline).
pub struct Cell {
    pub throughput_bps: f64,
    pub goodput_bps: f64,
    pub jfi: f64,
    /// Telemetry export of the underlying run (when the ctx has a sink).
    pub telemetry: Option<String>,
}

/// Run one row under one discipline.
pub fn run_row(ctx: &Ctx, row: &Row, d: Discipline) -> Cell {
    let duration = ctx.secs(row.scaled_secs(), 100);
    let p = ctx.params(row.rate_bps, row.buffer_mtus, d, duration);
    let m = run_with_params(&row.flows(), &p);
    Cell {
        throughput_bps: m.throughput_bps,
        goodput_bps: m.goodput_bps,
        jfi: m.jfi,
        telemetry: m.result.telemetry,
    }
}

/// Regenerate Table 2 (optionally only `selected` row ids).
pub fn run(ctx: &Ctx, selected: Option<&[usize]>) -> String {
    let mut t = Table::new(&[
        "row", "config", "tput-FIFO", "tput-FQ", "tput-Ceb", "good-FIFO", "good-FQ", "good-Ceb",
        "JFI-FIFO", "JFI-FQ", "JFI-Ceb",
    ]);
    let selected_rows: Vec<Row> = rows()
        .into_iter()
        .filter(|row| selected.is_none_or(|sel| sel.contains(&row.id)))
        .collect();
    // Every (row, discipline) cell is an independent simulation: flatten
    // the whole table into one job batch and reassemble in row order.
    let mut jobs = Vec::new();
    for row in &selected_rows {
        for &d in Discipline::PAPER.iter() {
            jobs.push((row.clone(), d));
        }
    }
    let results = ctx.pool().map(jobs, |_, (row, d)| run_row(ctx, &row, d));
    let exports: Vec<Option<&str>> = results.iter().map(|c| c.telemetry.as_deref()).collect();
    ctx.export_telemetry("table2", &exports);
    let mut it = results.into_iter();
    for row in &selected_rows {
        let cells: Vec<Cell> = (0..Discipline::PAPER.len())
            .map(|_| it.next().expect("job/result count mismatch"))
            .collect();
        t.row(vec![
            row.id.to_string(),
            row.label(),
            mbps(cells[0].throughput_bps),
            mbps(cells[1].throughput_bps),
            mbps(cells[2].throughput_bps),
            mbps(cells[0].goodput_bps),
            mbps(cells[1].goodput_bps),
            mbps(cells[2].goodput_bps),
            format!("{:.3}", cells[0].jfi),
            format!("{:.3}", cells[1].jfi),
            format!("{:.3}", cells[2].jfi),
        ]);
        eprintln!("table2: row {} done", row.id);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_five_rows_matching_paper_structure() {
        let rs = rows();
        assert_eq!(rs.len(), ROWS);
        // Spot checks against the printed table.
        assert_eq!(rs[0].rate_bps, 100_000_000);
        assert_eq!(rs[8].mix, &[(CcKind::Vegas, 128), (CcKind::NewReno, 1)]);
        assert_eq!(rs[12].mix[0].1, 1024);
        assert_eq!(rs[23].rate_bps, 10_000_000_000);
        assert_eq!(rs[23].buffer_mtus, 41667);
        // All rows have at least 2 flows and a positive buffer.
        for r in &rs {
            assert!(r.flows().len() >= 2);
            assert!(r.buffer_mtus > 0);
            assert!(!r.rtts_ms.is_empty());
        }
    }

    #[test]
    fn scaled_secs_shrink_with_bandwidth() {
        let rs = rows();
        assert!(rs[0].scaled_secs() > rs[12].scaled_secs());
        assert!(rs[11].scaled_secs() > rs[24].scaled_secs());
    }

    #[test]
    fn smoke_run_one_cheap_row() {
        // Row 1 at a very short duration: just verify plumbing end-to-end.
        let ctx = Ctx::serial(false, 1);
        let row = &rows()[0];
        let duration = cebinae_sim::Duration::from_secs(2);
        let p = ctx.params(row.rate_bps, row.buffer_mtus, Discipline::Fifo, duration);
        let m = run_with_params(&row.flows(), &p);
        assert!(m.throughput_bps > 50e6, "row 1 must load the link");
    }
}
