//! # cebinae-harness
//!
//! The experiment harness: one module per table/figure of the paper's
//! evaluation, each regenerating the corresponding rows or series, plus
//! design-choice ablations. The `cebinae-experiments` binary is the CLI
//! front end; the library functions are also driven by the performance
//! ledger (`ledger/`).
//!
//! Durations are scaled by default (single-core friendly); pass `--full`
//! for the paper's 100 s runs and 100-trial Figure 13 sweeps.
//!
//! Independent seeded trials fan out across a [`cebinae_par::TrialPool`]
//! sized by `--threads` (default: the machine's cores); results are always
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

pub use runner::{run_with_params, Ctx, RunMetrics, Table};

/// An experiment's entry point; only `table2` reads the row filter.
pub type Runner = fn(&Ctx, Option<&[usize]>) -> String;

/// Every experiment the CLI accepts, by name, in `list` and `all` order.
pub const EXPERIMENTS: &[(&str, Runner)] = &[
    ("fig1", |ctx, _| figures::fig1(ctx)),
    ("fig2", |_, _| fig2::run()),
    ("table2", table2::run),
    ("fig7", |ctx, _| figures::fig7(ctx)),
    ("fig8a", |ctx, _| figures::fig8(ctx, false)),
    ("fig8b", |ctx, _| figures::fig8(ctx, true)),
    ("fig9", |ctx, _| figures::fig9(ctx)),
    ("fig10", |ctx, _| figures::fig10(ctx)),
    ("fig11", |ctx, _| fig11::run(ctx)),
    ("fig12", |ctx, _| figures::fig12(ctx)),
    ("table3", |ctx, _| table3::run(ctx)),
    ("fig13a", |ctx, _| fig13::fig13a(ctx)),
    ("fig13b", |ctx, _| fig13::fig13b(ctx)),
    ("ablation-p", |ctx, _| ablations::p_sensitivity(ctx)),
    ("ablation-perflow", |ctx, _| ablations::per_flow_top(ctx)),
    ("ablation-disciplines", |ctx, _| ablations::disciplines(ctx)),
    ("ablation-ecn", |ctx, _| ablations::ecn(ctx)),
    ("ext-fct", |ctx, _| extensions::fct(ctx)),
    ("ext-scalability", |_, _| extensions::scalability()),
    ("chaos", |ctx, _| chaos::run(ctx)),
];

/// Resolve a selection before anything runs: every name must be an
/// experiment, and a row filter must name Table 2 rows and come with
/// `table2`.
pub fn select<S: AsRef<str>>(names: &[S], rows: Option<&[usize]>) -> Result<Vec<(&'static str, Runner)>, String> {
    let picked = names
        .iter()
        .map(|name| {
            let name = name.as_ref();
            EXPERIMENTS.iter().find(|(n, _)| *n == name).copied().ok_or_else(|| {
                let known: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
                format!("unknown experiment '{name}'; known: {}", known.join(", "))
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    if let Some(rows) = rows {
        if !picked.iter().any(|(n, _)| *n == "table2") {
            return Err("a row filter applies only to table2, which is not selected".into());
        }
        let valid = 1..=table2::ROWS;
        if let Some(id) = rows.iter().find(|id| !valid.contains(*id)) {
            return Err(format!("table2 has no row {id}; valid rows are {valid:?}"));
        }
    }
    Ok(picked)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_experiment_is_an_error() {
        let err = select(&["table3", "fig99"], None).unwrap_err();
        assert!(err.contains("fig99"), "{err}");
    }

    #[test]
    fn unknown_table2_row_is_an_error() {
        let err = select(&["table2"], Some(&[99])).unwrap_err();
        assert!(err.contains("99") && err.contains("1..=25"), "{err}");
    }

    #[test]
    fn a_row_filter_needs_table2() {
        assert!(select(&["fig2"], Some(&[1])).is_err());
        assert!(select(&["table2", "fig2"], Some(&[0])).is_err());
        let picked = select(&["table2", "fig2"], Some(&[1, 25])).unwrap();
        assert_eq!(picked.iter().map(|(n, _)| *n).collect::<Vec<_>>(), ["table2", "fig2"]);
    }

    #[test]
    fn table3_runs_instantly() {
        let picked = select(&["table3"], None).unwrap();
        let out = (picked[0].1)(&Ctx::serial(false, 1), None);
        assert!(out.contains("SRAM"));
    }
}
