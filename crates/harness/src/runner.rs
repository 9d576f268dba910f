//! Shared experiment-running machinery: scaled-vs-full durations, dumbbell
//! runs with the standard metric set, and table formatting.

use cebinae_engine::{dumbbell, Discipline, DumbbellFlow, ScenarioParams, SimResult, Simulation};
use cebinae_faults::FaultPlan;
use cebinae_metrics::jfi;
use cebinae_par::TrialPool;
use cebinae_sim::{Duration, Time};

/// Global experiment context: scaled (default) or full paper durations,
/// trial-pool width, and the telemetry sink.
///
/// All environment reads live in [`Ctx::from_env`]; experiment modules
/// take a `&Ctx` instead of consulting `std::env` themselves.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// Run the paper's full 100 s experiments instead of scaled ones.
    pub full: bool,
    /// Base RNG seed / trial index.
    pub seed: u64,
    /// Worker threads for independent seeded trials (`CEBINAE_THREADS`).
    /// Experiment output is byte-identical for any value — trials are
    /// collected in job order, never completion order.
    pub threads: usize,
    /// NDJSON telemetry sink path (`CEBINAE_TELEMETRY` / `--telemetry`);
    /// `None` disables collection.
    pub telemetry: Option<String>,
    /// Fault plan applied by fault-aware experiments (`CEBINAE_FAULTS` /
    /// `--faults`, compact [`FaultPlan::parse`] syntax). Empty by default:
    /// the paper's tables and figures always run clean; only experiments
    /// that opt in (the `chaos` experiment) consult this.
    pub faults: FaultPlan,
}

impl Ctx {
    /// Context from the environment: `CEBINAE_FULL`, `CEBINAE_THREADS`,
    /// `CEBINAE_TELEMETRY` (sink path), and `CEBINAE_FAULTS` (compact
    /// fault spec; a malformed spec warns on stderr and runs clean rather
    /// than silently faulting the wrong thing).
    pub fn from_env() -> Ctx {
        Ctx {
            full: std::env::var_os("CEBINAE_FULL").is_some(),
            seed: 1,
            threads: cebinae_par::threads_from_env(),
            telemetry: std::env::var_os("CEBINAE_TELEMETRY")
                .map(|v| v.to_string_lossy().into_owned()),
            faults: std::env::var_os("CEBINAE_FAULTS")
                .map(|v| match FaultPlan::parse(&v.to_string_lossy()) {
                    Ok(plan) => plan,
                    Err(e) => {
                        eprintln!("CEBINAE_FAULTS ignored: {e}");
                        FaultPlan::default()
                    }
                })
                .unwrap_or_default(),
        }
    }

    /// Serial context with the given flags — the configuration every unit
    /// test uses, and the reproducibility reference for parallel runs.
    pub fn serial(full: bool, seed: u64) -> Ctx {
        Ctx {
            full,
            seed,
            threads: 1,
            telemetry: None,
            faults: FaultPlan::default(),
        }
    }

    pub fn with_threads(mut self, threads: usize) -> Ctx {
        self.threads = threads;
        self
    }

    /// Arm a fault plan for fault-aware experiments.
    pub fn with_faults(mut self, faults: FaultPlan) -> Ctx {
        self.faults = faults;
        self
    }

    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry.is_some()
    }

    /// Scenario parameters under the harness's run convention: seed and
    /// telemetry from this context, and the Cebinae recompute period
    /// pinned to P = 1.
    ///
    /// ```no_run
    /// use cebinae_engine::{Discipline, DumbbellFlow};
    /// use cebinae_harness::{run_with_params, Ctx};
    /// use cebinae_sim::Duration;
    /// use cebinae_transport::CcKind;
    ///
    /// let flows = vec![DumbbellFlow::new(CcKind::NewReno, 20); 2];
    /// let ctx = Ctx::serial(false, 7);
    /// let p = ctx.params(100_000_000, 420, Discipline::Cebinae, Duration::from_secs(10));
    /// let m = run_with_params(&flows, &p);
    /// ```
    pub fn params(
        &self,
        rate_bps: u64,
        buffer_mtus: u64,
        discipline: Discipline,
        duration: Duration,
    ) -> ScenarioParams {
        let mut p = ScenarioParams::new(rate_bps, buffer_mtus, discipline);
        p.duration = duration;
        p.seed = self.seed;
        p.telemetry = self.telemetry_enabled();
        p.cebinae_p = Some(1);
        p
    }

    /// The trial pool experiments fan their independent seeded jobs onto.
    pub fn pool(&self) -> TrialPool {
        TrialPool::with_threads(self.threads)
    }

    /// Choose the simulated duration: the paper's `full_secs` when running
    /// full, else `scaled_secs`.
    pub fn secs(&self, scaled_secs: u64, full_secs: u64) -> Duration {
        Duration::from_secs(if self.full { full_secs } else { scaled_secs })
    }

    /// Append per-trial telemetry exports to the configured sink, in job
    /// order (determinism: the file content depends only on the runs, not
    /// on thread scheduling). Each export is preceded by a header line
    /// naming the experiment and trial index. No-op without a sink.
    pub fn export_telemetry<S: AsRef<str>>(&self, label: &str, exports: &[Option<S>]) {
        let Some(path) = &self.telemetry else {
            return;
        };
        use std::io::Write;
        let mut file = match std::fs::OpenOptions::new().create(true).append(true).open(path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("telemetry sink {path}: {e}");
                return;
            }
        };
        for (trial, export) in exports.iter().enumerate() {
            if let Some(nd) = export {
                let _ = writeln!(file, "{{\"run\":{label:?},\"trial\":{trial}}}");
                let _ = file.write_all(nd.as_ref().as_bytes());
            }
        }
    }

    /// [`Ctx::export_telemetry`] over a batch of run metrics.
    pub fn export_runs(&self, label: &str, runs: &[RunMetrics]) {
        let exports: Vec<Option<&str>> =
            runs.iter().map(|m| m.result.telemetry.as_deref()).collect();
        self.export_telemetry(label, &exports);
    }
}

/// Standard single-bottleneck run outcome.
pub struct RunMetrics {
    /// Bottleneck throughput, bits/sec (paper "Throughput" columns).
    pub throughput_bps: f64,
    /// Sum of application goodputs, bits/sec (paper "Goodput" columns).
    pub goodput_bps: f64,
    /// Jain's index over per-flow goodputs.
    pub jfi: f64,
    /// Per-flow goodputs, bits/sec.
    pub per_flow_bps: Vec<f64>,
    pub result: SimResult,
}

/// Warmup excluded from averages (slow-start transient), as a fraction of
/// the run.
const WARMUP_FRACTION: u64 = 10;

/// Run with explicit parameters (threshold sweeps etc.).
pub fn run_with_params(flows: &[DumbbellFlow], p: &ScenarioParams) -> RunMetrics {
    let (cfg, bneck) = dumbbell(flows, p);
    let result = Simulation::new(cfg).run();
    let warmup = Time::ZERO + p.duration / WARMUP_FRACTION;
    let per_flow_bps = result.goodputs_bps(warmup);
    RunMetrics {
        throughput_bps: result.link_throughput_bps(bneck, warmup),
        goodput_bps: per_flow_bps.iter().sum(),
        jfi: jfi(&per_flow_bps),
        per_flow_bps,
        result,
    }
}

/// Render a rate in the paper's Table 2 style (Mbps with 4-5 significant
/// digits).
pub fn mbps(bps: f64) -> String {
    let m = bps / 1e6;
    if m >= 1000.0 {
        format!("{m:.0}")
    } else if m >= 100.0 {
        format!("{m:.1}")
    } else {
        format!("{m:.2}")
    }
}

/// A simple aligned text table.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cebinae_transport::CcKind;

    /// The small Fifo dumbbell the runner tests share.
    fn small(seed: u64, secs: u64) -> ScenarioParams {
        let duration = Duration::from_secs(secs);
        Ctx::serial(false, seed).params(10_000_000, 100, Discipline::Fifo, duration)
    }

    #[test]
    fn run_dumbbell_produces_consistent_metrics() {
        let flows = vec![
            DumbbellFlow::new(CcKind::NewReno, 20),
            DumbbellFlow::new(CcKind::NewReno, 20),
        ];
        let m = run_with_params(&flows, &small(1, 4));
        assert_eq!(m.per_flow_bps.len(), 2);
        assert!((m.goodput_bps - m.per_flow_bps.iter().sum::<f64>()).abs() < 1.0);
        assert!(m.goodput_bps < m.throughput_bps);
        assert!(m.jfi > 0.0 && m.jfi <= 1.0);
        assert!(m.result.telemetry.is_none(), "telemetry off by default");
    }

    #[test]
    fn ctx_scaling() {
        let scaled = Ctx::serial(false, 0);
        let full = Ctx::serial(true, 0);
        assert_eq!(scaled.secs(10, 100), Duration::from_secs(10));
        assert_eq!(full.secs(10, 100), Duration::from_secs(100));
        assert_eq!(scaled.pool().threads(), 1);
    }

    #[test]
    fn ctx_builder_chains() {
        let mut ctx = Ctx::serial(true, 9)
            .with_threads(3)
            .with_faults(FaultPlan::uniform_loss(0.01));
        ctx.telemetry = Some("t.ndjson".into());
        assert_eq!(ctx.seed, 9);
        assert_eq!(ctx.threads, 3);
        assert!(ctx.full);
        assert!(ctx.telemetry_enabled());
        assert!(!ctx.faults.is_empty());
        assert!(!Ctx::serial(false, 0).telemetry_enabled());
        assert!(Ctx::serial(false, 0).faults.is_empty(), "experiments run clean by default");
    }

    #[test]
    fn faulted_dumbbell_run_costs_throughput() {
        let flows = vec![
            DumbbellFlow::new(CcKind::NewReno, 20),
            DumbbellFlow::new(CcKind::NewReno, 20),
        ];
        let mut p = small(7, 3);
        let clean = run_with_params(&flows, &p);
        p.faults = FaultPlan::uniform_loss(0.03);
        let lossy = run_with_params(&flows, &p);
        assert!(
            lossy.goodput_bps < clean.goodput_bps,
            "3% loss must cost goodput: {} vs {}",
            lossy.goodput_bps,
            clean.goodput_bps
        );
    }

    #[test]
    fn mbps_formatting() {
        assert_eq!(mbps(98.95e6), "98.95");
        assert_eq!(mbps(989.8e6), "989.8");
        assert_eq!(mbps(9876e6), "9876");
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "bbbb"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["333".into(), "4".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains('a') && lines[0].contains("bbbb"));
        assert_eq!(lines[2].trim_start().split_whitespace().count(), 2);
    }

    #[test]
    fn table_with_zero_columns_renders() {
        // Regression: `2 * (widths.len() - 1)` underflowed with no columns.
        let t = Table::new(&[]);
        let s = t.render();
        assert_eq!(s, "\n\n");
    }

    #[test]
    fn trial_batch_matches_individual_runs() {
        let flows = vec![
            DumbbellFlow::new(CcKind::NewReno, 20),
            DumbbellFlow::new(CcKind::NewReno, 20),
        ];
        let seeds = [1u64, 2, 3];
        let batch = TrialPool::with_threads(4)
            .map(seeds.to_vec(), |_, seed| run_with_params(&flows, &small(seed, 2)));
        assert_eq!(batch.len(), seeds.len());
        for (m, &seed) in batch.iter().zip(&seeds) {
            let solo = run_with_params(&flows, &small(seed, 2));
            assert_eq!(m.per_flow_bps, solo.per_flow_bps, "seed {seed}");
            assert_eq!(
                m.result.events_processed, solo.result.events_processed,
                "seed {seed}"
            );
        }
    }
}
