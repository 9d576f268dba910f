//! Figure 13: ⊤-flow detection accuracy (FPR/FNR) of the heavy-hitter
//! cache under a synthetic 10 Gbps ISP-backbone trace (the CAIDA
//! substitute), sweeping the round interval (13a) and the per-stage slot
//! count (13b), for 1/2/4-stage caches.

use cebinae::HeavyHitterCache;
use cebinae_sim::rng::experiment_rng;
use cebinae_sim::{Duration, Time};
use cebinae_traffic::{interval_packets, SyntheticTrace, TraceConfig};

use crate::runner::{Ctx, Table};

/// δf used for the ⊤ classification in this experiment (paper default 1%).
const DELTA_F: f64 = 0.01;

/// Accuracy of one (cache geometry, interval) configuration over a trace.
#[derive(Clone, Copy, Debug, Default)]
pub struct Accuracy {
    pub fpr: f64,
    pub fnr: f64,
    pub intervals: usize,
}

/// Classify the ⊤ set from (flow, bytes) counts: every flow within δf of
/// the maximum.
fn top_set(counts: &[(cebinae_net::FlowId, u64)]) -> Vec<cebinae_net::FlowId> {
    let max = counts.iter().map(|&(_, b)| b).max().unwrap_or(0);
    if max == 0 {
        return Vec::new();
    }
    let thr = max as f64 * (1.0 - DELTA_F);
    counts
        .iter()
        .filter(|&&(_, b)| b as f64 >= thr)
        .map(|&(f, _)| f)
        .collect()
}

/// Replay a trace through a cache at the given round interval and measure
/// detection FPR/FNR against exact ground truth.
pub fn measure(
    trace: &SyntheticTrace,
    stages: usize,
    slots: usize,
    round_interval: Duration,
    trial: u64,
) -> Accuracy {
    let mut rng = experiment_rng("fig13-replay", trial);
    let mut cache = HeavyHitterCache::new(stages, slots, 0xf13 ^ trial);
    let mut t = Time::ZERO;
    let end = Time::ZERO + trace.cfg.duration;
    let mut fp = 0u64;
    let mut fn_ = 0u64;
    let mut negatives = 0u64;
    let mut positives = 0u64;
    let mut intervals = 0usize;
    while t + round_interval <= end {
        let to = t + round_interval;
        let truth = trace.interval_flow_bytes(t, to);
        if truth.is_empty() {
            t = to;
            continue;
        }
        for (flow, size) in interval_packets(&truth, &mut rng) {
            cache.update(flow, size as u64);
        }
        let detected_counts = cache.poll_and_reset();
        let truth_top = top_set(&truth);
        let detected_top = top_set(&detected_counts);
        let truth_set: std::collections::HashSet<_> = truth_top.iter().collect();
        let det_set: std::collections::HashSet<_> = detected_top.iter().collect();
        fp += det_set.difference(&truth_set).count() as u64;
        fn_ += truth_set.difference(&det_set).count() as u64;
        positives += truth_set.len() as u64;
        negatives += (truth.len() - truth_set.len()) as u64;
        intervals += 1;
        t = to;
    }
    Accuracy {
        fpr: if negatives > 0 { fp as f64 / negatives as f64 } else { 0.0 },
        fnr: if positives > 0 { fn_ as f64 / positives as f64 } else { 0.0 },
        intervals,
    }
}

/// The paper's trace model: cover at least 10 measured intervals; keep the
/// >400k flows/min arrival rate with second-scale durations so thousands
/// of flows are concurrently active per interval (backbone-like
/// concurrency relative to the cache's slot count).
pub fn paper_trace_cfg(round_interval: Duration) -> TraceConfig {
    let duration = Duration(round_interval.as_nanos() * 10).max(Duration::from_secs(2));
    TraceConfig {
        duration,
        aggregate_rate_bps: 10e9,
        flows_per_minute: 400_000.0,
        min_duration: Duration::from_millis(50),
        max_duration: Duration::from_secs(8),
        ..TraceConfig::default()
    }
}

/// A ~100x lighter trace model with the same shape, for determinism tests
/// and the ledger's cache replay, where the paper-scale trace would dominate.
pub fn light_trace_cfg(round_interval: Duration) -> TraceConfig {
    let duration = Duration(round_interval.as_nanos() * 10).max(Duration::from_millis(500));
    TraceConfig {
        duration,
        aggregate_rate_bps: 1e9,
        flows_per_minute: 60_000.0,
        min_duration: Duration::from_millis(50),
        max_duration: Duration::from_secs(2),
        ..TraceConfig::default()
    }
}

/// Cache geometries swept by Figure 13 (number of stages).
const STAGES: [usize; 3] = [1, 2, 4];

/// Core of Figure 13a, parameterized over trace model and sweep size so
/// tests can run scaled-down versions: measure detection
/// accuracy for every (round interval, stages) cell, averaging `trials`
/// independent seeded trials per cell.
///
/// Each (interval, stages, trial) triple is one job on the ctx's trial
/// pool. Per-cell sums are folded **in trial order** during assembly, so
/// the float accumulation — and therefore the rendered table — is
/// byte-identical for any thread count.
pub fn interval_sweep<F>(
    ctx: &Ctx,
    intervals_ms: &[u64],
    slots: usize,
    trials: u64,
    trace_label: &str,
    cfg_for: F,
) -> String
where
    F: Fn(Duration) -> TraceConfig + Sync,
{
    let mut jobs = Vec::new();
    for &ms in intervals_ms {
        for &stages in &STAGES {
            for trial in 0..trials {
                jobs.push((ms, stages, trial));
            }
        }
    }
    let cfg_for = &cfg_for;
    let results = ctx.pool().map(jobs, |_, (ms, stages, trial)| {
        let interval = Duration::from_millis(ms);
        let mut rng = experiment_rng(trace_label, trial);
        let trace = SyntheticTrace::generate(cfg_for(interval), &mut rng);
        let flows = trace.active_flows(Time::ZERO, Time::ZERO + interval);
        let a = measure(&trace, stages, slots, interval, trial);
        (a.fpr, a.fnr, flows)
    });
    let mut t = Table::new(&[
        "interval[ms]", "stages", "FPR[1e-4]", "FNR", "flows/interval",
    ]);
    let mut it = results.into_iter();
    for &ms in intervals_ms {
        for &stages in &STAGES {
            let mut acc = Accuracy::default();
            let mut flows_per_interval = 0usize;
            for _ in 0..trials {
                let (fpr, fnr, flows) = it.next().expect("job/result count mismatch");
                acc.fpr += fpr;
                acc.fnr += fnr;
                flows_per_interval = flows;
            }
            t.row(vec![
                ms.to_string(),
                stages.to_string(),
                format!("{:.3}", acc.fpr / trials as f64 * 1e4),
                format!("{:.3}", acc.fnr / trials as f64),
                flows_per_interval.to_string(),
            ]);
        }
        eprintln!("fig13a-style sweep: interval {ms}ms done");
    }
    t.render()
}

/// Core of Figure 13b: sweep per-stage slot count at a fixed round
/// interval, parallelized and assembled exactly like [`interval_sweep`].
pub fn slot_sweep<F>(
    ctx: &Ctx,
    slot_counts: &[usize],
    interval_ms: u64,
    trials: u64,
    trace_label: &str,
    cfg_for: F,
) -> String
where
    F: Fn(Duration) -> TraceConfig + Sync,
{
    let interval = Duration::from_millis(interval_ms);
    let mut jobs = Vec::new();
    for &slots in slot_counts {
        for &stages in &STAGES {
            for trial in 0..trials {
                jobs.push((slots, stages, trial));
            }
        }
    }
    let cfg_for = &cfg_for;
    let results = ctx.pool().map(jobs, |_, (slots, stages, trial)| {
        let mut rng = experiment_rng(trace_label, trial);
        let trace = SyntheticTrace::generate(cfg_for(interval), &mut rng);
        let a = measure(&trace, stages, slots, interval, trial);
        (a.fpr, a.fnr)
    });
    let mut t = Table::new(&["slots", "stages", "FPR[1e-4]", "FNR"]);
    let mut it = results.into_iter();
    for &slots in slot_counts {
        for &stages in &STAGES {
            let mut acc = Accuracy::default();
            for _ in 0..trials {
                let (fpr, fnr) = it.next().expect("job/result count mismatch");
                acc.fpr += fpr;
                acc.fnr += fnr;
            }
            t.row(vec![
                slots.to_string(),
                stages.to_string(),
                format!("{:.3}", acc.fpr / trials as f64 * 1e4),
                format!("{:.3}", acc.fnr / trials as f64),
            ]);
        }
        eprintln!("fig13b-style sweep: slots {slots} done");
    }
    t.render()
}

/// Figure 13a: FPR/FNR vs round interval (2048 slots).
pub fn fig13a(ctx: &Ctx) -> String {
    let trials = if ctx.full { 100 } else { 10 };
    interval_sweep(
        ctx,
        &[10, 20, 40, 60, 80, 100],
        2048,
        trials,
        "fig13a-trace",
        paper_trace_cfg,
    )
}

/// Figure 13b: FPR/FNR vs slot count (100 ms interval).
pub fn fig13b(ctx: &Ctx) -> String {
    let trials = if ctx.full { 100 } else { 10 };
    slot_sweep(
        ctx,
        &[512, 1024, 2048, 4096],
        100,
        trials,
        "fig13b-trace",
        paper_trace_cfg,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_trace(trial: u64) -> SyntheticTrace {
        let mut rng = experiment_rng("fig13-test", trial);
        SyntheticTrace::generate(
            TraceConfig {
                duration: Duration::from_millis(500),
                aggregate_rate_bps: 1e9,
                flows_per_minute: 60_000.0, // 500 flows over 0.5 s
                ..TraceConfig::default()
            },
            &mut rng,
        )
    }

    #[test]
    fn perfect_cache_has_zero_error() {
        // A cache with far more slots than flows never misses.
        let trace = tiny_trace(0);
        let a = measure(&trace, 4, 1 << 14, Duration::from_millis(50), 0);
        assert!(a.intervals >= 9);
        assert_eq!(a.fnr, 0.0, "oversized cache cannot miss");
        assert_eq!(a.fpr, 0.0);
    }

    #[test]
    fn tiny_cache_has_high_fnr() {
        let trace = tiny_trace(1);
        let small = measure(&trace, 1, 16, Duration::from_millis(50), 1);
        let big = measure(&trace, 2, 1024, Duration::from_millis(50), 1);
        assert!(
            small.fnr > big.fnr,
            "fewer slots must miss more: {} vs {}",
            small.fnr,
            big.fnr
        );
    }

    #[test]
    fn more_stages_reduce_fnr() {
        let mut f1 = 0.0;
        let mut f4 = 0.0;
        for trial in 0..5 {
            let trace = tiny_trace(trial + 10);
            f1 += measure(&trace, 1, 64, Duration::from_millis(50), trial).fnr;
            f4 += measure(&trace, 4, 64, Duration::from_millis(50), trial).fnr;
        }
        assert!(f4 <= f1, "4 stages must not be worse: {f4} vs {f1}");
    }

    #[test]
    fn sweep_output_is_thread_count_invariant() {
        let serial = Ctx::serial(false, 1);
        let parallel = serial.clone().with_threads(4);
        let a = interval_sweep(&serial, &[20], 64, 3, "fig13-par-test", light_trace_cfg);
        let b = interval_sweep(&parallel, &[20], 64, 3, "fig13-par-test", light_trace_cfg);
        assert_eq!(a, b, "thread count leaked into rendered output");
    }

    #[test]
    fn top_set_applies_delta_f() {
        use cebinae_net::FlowId;
        let counts = vec![
            (FlowId(0), 1000u64),
            (FlowId(1), 995),
            (FlowId(2), 800),
        ];
        let t = top_set(&counts);
        assert_eq!(t.len(), 2, "995 >= 0.99 * 1000, 800 is not");
        assert!(top_set(&[]).is_empty());
    }
}
