//! Thread-count invariance of the harness: the same experiment run on a
//! 1-thread and an 8-thread trial pool must render *byte-identical*
//! output. The pool collects results by job index and the harness folds
//! float accumulations in trial order, so nothing about scheduling may
//! leak into the tables. This is the parallel-executor counterpart of
//! `determinism.rs`'s single-simulation trace contract.

use cebinae_engine::{Discipline, DumbbellFlow};
use cebinae_harness::fig13;
use cebinae_harness::runner::{run_with_params, Ctx};
use cebinae_par::TrialPool;
use cebinae_sim::Duration;
use cebinae_transport::CcKind;

#[test]
fn fig13_sweep_is_identical_across_thread_counts() {
    let serial = Ctx::serial(false, 1);
    let parallel = serial.clone().with_threads(8);
    let sweep = |ctx: &Ctx| {
        fig13::interval_sweep(ctx, &[20], 64, 3, "par-det-fig13", fig13::light_trace_cfg)
    };
    let a = sweep(&serial);
    let b = sweep(&parallel);
    assert!(a.contains("FPR"), "sweep rendered no table:\n{a}");
    assert_eq!(a, b, "fig13 sweep output depends on thread count");
}

/// Per-seed fingerprint that is sensitive to any bit of float drift.
fn fingerprints(batch: &[cebinae_harness::RunMetrics]) -> Vec<String> {
    batch
        .iter()
        .map(|m| {
            let bits: Vec<String> = m
                .per_flow_bps
                .iter()
                .map(|b| format!("{:016x}", b.to_bits()))
                .collect();
            format!("{} ev={}", bits.join(","), m.result.events_processed)
        })
        .collect()
}

#[test]
fn dumbbell_trial_batch_is_identical_across_thread_counts() {
    let flows = vec![
        DumbbellFlow::new(CcKind::NewReno, 20),
        DumbbellFlow::new(CcKind::Cubic, 40),
    ];
    let seeds = [1u64, 2, 3, 4];
    let run = |pool: TrialPool| {
        pool.map(seeds.to_vec(), |_, seed| {
            let ctx = Ctx::serial(false, seed);
            let p = ctx.params(20_000_000, 100, Discipline::Cebinae, Duration::from_secs(2));
            run_with_params(&flows, &p)
        })
    };
    let a = fingerprints(&run(TrialPool::with_threads(1)));
    let b = fingerprints(&run(TrialPool::with_threads(8)));
    assert_eq!(a.len(), seeds.len());
    assert_eq!(a, b, "trial batch results depend on thread count");
}
