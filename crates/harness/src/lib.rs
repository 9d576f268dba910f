//! # cebinae-harness
//!
//! The experiment harness: one module per table/figure of the paper's
//! evaluation, each regenerating the corresponding rows or series, plus
//! design-choice ablations. The `cebinae-experiments` binary is the CLI
//! front end; the library functions are also driven by the performance
//! ledger (`ledger/`).
//!
//! Durations are scaled by default (single-core friendly); set
//! `CEBINAE_FULL=1` or pass `--full` for the paper's 100 s runs and
//! 100-trial Figure 13 sweeps.
//!
//! Independent seeded trials fan out across a [`cebinae_par::TrialPool`]
//! sized by `CEBINAE_THREADS` (or `--threads`); results are always
//! collected in job order, so experiment output is byte-identical for any
//! thread count.

pub mod ablations;
pub mod chaos;
pub mod extensions;
pub mod fig11;
pub mod fig2;
pub mod fig13;
pub mod figures;
pub mod runner;
pub mod table2;
pub mod table3;

pub use runner::{run_with_params, Ctx, DumbbellRun, RunMetrics, Table};

/// All experiment names accepted by the CLI.
pub const EXPERIMENTS: &[&str] = &[
    "fig1", "fig2", "table2", "fig7", "fig8a", "fig8b", "fig9", "fig10", "fig11", "fig12", "table3",
    "fig13a", "fig13b", "ablation-p", "ablation-perflow", "ablation-disciplines", "ablation-ecn",
    "ext-fct", "ext-scalability", "chaos",
];

/// Dispatch one experiment by name.
pub fn run_experiment(name: &str, ctx: &Ctx, rows: Option<&[usize]>) -> Result<String, String> {
    Ok(match name {
        "fig1" => figures::fig1(ctx),
        "fig2" => fig2::run(),
        "table2" => table2::run(ctx, rows),
        "fig7" => figures::fig7(ctx),
        "fig8a" => figures::fig8(ctx, false),
        "fig8b" => figures::fig8(ctx, true),
        "fig9" => figures::fig9(ctx),
        "fig10" => figures::fig10(ctx),
        "fig11" => fig11::run(ctx),
        "fig12" => figures::fig12(ctx),
        "table3" => table3::run(ctx),
        "fig13a" => fig13::fig13a(ctx),
        "fig13b" => fig13::fig13b(ctx),
        "ablation-p" => ablations::p_sensitivity(ctx),
        "ablation-perflow" => ablations::per_flow_top(ctx),
        "ablation-disciplines" => ablations::disciplines(ctx),
        "ablation-ecn" => ablations::ecn(ctx),
        "ext-fct" => extensions::fct(ctx),
        "ext-scalability" => extensions::scalability(),
        "chaos" => chaos::run(ctx),
        other => return Err(format!("unknown experiment '{other}'; known: {EXPERIMENTS:?}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_experiment_is_an_error() {
        let ctx = Ctx::serial(false, 1);
        assert!(run_experiment("fig99", &ctx, None).is_err());
    }

    #[test]
    fn table3_runs_instantly() {
        let ctx = Ctx::serial(false, 1);
        let out = run_experiment("table3", &ctx, None).unwrap();
        assert!(out.contains("SRAM"));
    }

    #[test]
    fn experiment_list_is_complete() {
        for name in EXPERIMENTS {
            assert!(
                matches!(*name, "fig1" | "fig2" | "table2" | "fig7" | "fig8a" | "fig8b" | "fig9"
                    | "fig10" | "fig11" | "fig12" | "table3" | "fig13a" | "fig13b"
                    | "ablation-p" | "ablation-perflow" | "ablation-disciplines"
                    | "ablation-ecn" | "ext-fct" | "ext-scalability" | "chaos"),
                "{name} not handled"
            );
        }
    }
}
