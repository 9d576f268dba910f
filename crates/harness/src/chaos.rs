//! The chaos experiment: the paper's evaluation under adversity.
//!
//! The paper's tables run on clean links; this experiment replays the
//! standard mixed-CCA dumbbell under each fault family of
//! `cebinae-faults` (plus whatever plan the user armed via `--faults`)
//! and reports what the adversity costs:
//! goodput, fairness, and the injected-drop ledger scraped from the
//! `sys:faults` telemetry scope. Everything is seed-deterministic, so a
//! surprising row is a replayable row.

use cebinae_engine::{Discipline, DumbbellFlow};
use cebinae_faults::FaultPlan;
use cebinae_transport::CcKind;

use crate::runner::{mbps, run_with_params, Ctx, Table};

/// Last `sys:faults` value of `name` in a telemetry export, or 0.
fn fault_counter(ndjson: Option<&str>, name: &str) -> u64 {
    let Some(nd) = ndjson else { return 0 };
    let key = format!("\"name\":\"{name}\"");
    nd.lines()
        .filter(|l| l.contains("\"scope\":\"sys:faults\"") && l.contains(&key))
        .filter_map(|l| {
            let rest = &l[l.find("\"v\":")? + 4..];
            rest[..rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len())]
                .parse()
                .ok()
        })
        .next_back()
        .unwrap_or(0)
}

/// The fault plans swept by the experiment: always a clean baseline, then
/// either the user's armed plan or the default family sweep.
fn plans(ctx: &Ctx) -> Vec<(String, FaultPlan)> {
    let mut out = vec![("clean".to_string(), FaultPlan::default())];
    if !ctx.faults.is_empty() {
        out.push(("custom".to_string(), ctx.faults.clone()));
        return out;
    }
    for spec in ["loss:0.01", "burst:0.25", "reorder:0.02", "dup:0.01", "corrupt:0.005", "flap:500+200", "stall:400+300"] {
        let plan = FaultPlan::parse(spec).expect("built-in chaos spec parses");
        out.push((spec.to_string(), plan));
    }
    out
}

/// Mixed-CCA dumbbell under every fault plan, per discipline column set.
pub fn run(ctx: &Ctx) -> String {
    let duration = ctx.secs(5, 30);
    let flows = vec![
        DumbbellFlow::new(CcKind::NewReno, 20),
        DumbbellFlow::new(CcKind::Cubic, 30),
        DumbbellFlow::new(CcKind::Vegas, 40),
        DumbbellFlow::new(CcKind::Bbr, 25),
        DumbbellFlow::new(CcKind::Bic, 35),
    ];
    let mut t = Table::new(&[
        "faults",
        "goodput[Mbps]",
        "jfi",
        "min-flow[Mbps]",
        "inj-drops",
        "corrupt-rx",
        "dups",
    ]);
    let jobs = plans(ctx);
    let rows = ctx.pool().map(jobs, |_, (label, plan)| {
        // The fault ledger columns read the export, so every run observes.
        let mut p = ctx.params(25_000_000, 150, Discipline::Cebinae, duration);
        p.telemetry = true;
        p.faults = plan;
        let m = run_with_params(&flows, &p);
        let nd = m.result.telemetry.as_deref();
        let min_flow = m.per_flow_bps.iter().cloned().fold(f64::INFINITY, f64::min);
        let cells = vec![
            mbps(m.goodput_bps),
            format!("{:.4}", m.jfi),
            mbps(min_flow),
            fault_counter(nd, "injected_drop_pkts").to_string(),
            fault_counter(nd, "corrupt_rx_drops").to_string(),
            fault_counter(nd, "dup_pkts").to_string(),
        ];
        (label, cells, m.result.telemetry)
    });
    let exports: Vec<Option<&str>> = rows.iter().map(|(_, _, nd)| nd.as_deref()).collect();
    ctx.export_telemetry("chaos", &exports);
    for (label, cells, _) in rows {
        let mut row = vec![label];
        row.extend(cells);
        t.row(row);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_table_has_a_row_per_family_plus_clean() {
        let ctx = Ctx::serial(false, 1);
        let out = run(&ctx);
        for label in ["clean", "loss", "burst", "reorder", "dup", "corrupt", "flap", "stall"] {
            assert!(out.contains(label), "missing row {label}:\n{out}");
        }
        // The clean row injects nothing; the loss row must have a ledger.
        let clean_row = out.lines().find(|l| l.contains("clean")).unwrap();
        assert!(clean_row.split_whitespace().rev().take(3).all(|c| c == "0"), "{clean_row}");
    }

    #[test]
    fn armed_plan_replaces_the_family_sweep() {
        let ctx = Ctx::serial(false, 1).with_faults(FaultPlan::parse("loss:0.02").unwrap());
        let out = run(&ctx);
        assert!(out.contains("custom"), "{out}");
        assert!(!out.contains("burst"), "family sweep should be replaced:\n{out}");
    }

    #[test]
    fn fault_counter_scrapes_last_value() {
        let nd = "{\"t\":1,\"scope\":\"sys:faults\",\"name\":\"injected_drop_pkts\",\"kind\":\"counter\",\"v\":3}\n\
                  {\"t\":2,\"scope\":\"sys:faults\",\"name\":\"injected_drop_pkts\",\"kind\":\"counter\",\"v\":7}\n";
        assert_eq!(fault_counter(Some(nd), "injected_drop_pkts"), 7);
        assert_eq!(fault_counter(Some(nd), "dup_pkts"), 0);
        assert_eq!(fault_counter(None, "dup_pkts"), 0);
    }
}
