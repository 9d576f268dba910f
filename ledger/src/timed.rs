//! The timed run (`--trace 0`): repeat one workload for the measuring
//! time and report the end-to-end metrics as medians over repetitions.

use cebinae_engine::Simulation;

use crate::host;
use crate::report::Report;
use crate::stats::Summary;
use crate::workloads::{Inputs, Outcome, Workload};

/// Fewest repetitions a run reports on, however long each one takes.
const MIN_REPS: usize = 3;

/// A set-up shorter than this is repeated until the batch lasts this
/// long, so sub-millisecond set-ups still resolve.
const SETUP_BATCH_SECS: f64 = 0.02;
const SETUP_BATCH_MAX: usize = 256;

/// One repetition: set-up (scenario builder + `Simulation::new`), then
/// `Simulation::run`, then the checks.
pub struct Rep {
    pub setup_s: f64,
    pub run_s: f64,
    pub outcome: Outcome,
}

/// Build and run `inputs` once. The set-up is timed over a batch of
/// `batch` identical builds (the last of which is then run) and reported
/// per build.
pub fn rep(inputs: &Inputs, batch: usize) -> Rep {
    let mut built = Vec::with_capacity(batch);
    let ((), batch_s) = host::timed(|| {
        for _ in 0..batch {
            let (cfg, bnecks) = inputs.build();
            built.push((Simulation::new(cfg), bnecks));
        }
    });
    let (sim, bnecks) = built.pop().expect("batch >= 1");
    drop(built);
    let (result, run_s) = host::timed(|| sim.run());
    Rep {
        setup_s: batch_s / batch as f64,
        run_s,
        outcome: Outcome::of(&result, &bnecks, inputs.params.bottleneck_bps),
    }
}

/// Builds per set-up batch, given what one unbatched set-up took.
pub fn setup_batch(probe_s: f64) -> usize {
    ((SETUP_BATCH_SECS / probe_s.max(1e-9)).ceil() as usize).clamp(1, SETUP_BATCH_MAX)
}

/// Repeat `inputs` (made from `w`, possibly shortened by a test) for
/// `seconds` and report the end-to-end metrics.
pub fn run(w: &Workload, inputs: &Inputs, seconds: f64) -> Report {
    let start = host::now();
    // Repetition 1 builds and runs exactly one simulation in a fresh
    // process: the high-water mark right after it is this workload's own
    // memory, not the allocator's history over however many repetitions
    // fit. Its set-up time sizes the batches of the later repetitions.
    let mut reps = vec![rep(inputs, 1)];
    let peak_rss_mb = host::peak_rss_mb();
    let batch = setup_batch(reps[0].setup_s);
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        reps.push(rep(inputs, batch));
    }

    let mut report = Report::new(w.name, inputs.params.seed);
    let first = &reps[0].outcome;
    for (i, r) in reps.iter().enumerate() {
        let why = r
            .outcome
            .differs_from(first)
            .or_else(|| r.outcome.failure(w.min_utilisation));
        report.attempt(why.map(|why| format!("rep {}: {why}", i + 1)));
    }
    report.note(format!(
        "closed loop, 1 simulation thread; {} reps in {:.1} s, set-up batch {batch}; sim_digest {:016x}; {} flows, {} events, {} link transmissions per rep",
        reps.len(),
        start.elapsed().as_secs_f64(),
        first.sim_digest,
        inputs.n_flows(),
        first.events,
        first.tx_pkts,
    ));

    let column = |f: &dyn Fn(&Rep) -> f64| -> Summary {
        let values: Vec<f64> = reps.iter().map(f).collect();
        Summary::of(&values).expect("at least MIN_REPS repetitions")
    };
    report.summary("run_s", column(&|r| r.run_s));
    report.summary(
        "ns_per_pkt",
        column(&|r| r.run_s * 1e9 / r.outcome.tx_pkts as f64),
    );
    report.summary("setup_s", column(&|r| r.setup_s));
    match peak_rss_mb {
        Some(mb) => report.value("peak_rss_mb", mb),
        None => report.fail("peak_rss_mb: /proc/self/status has no VmHWM".into()),
    }
    report.summary("goodput_mbps", column(&|r| r.outcome.goodput_mbps));
    report.summary("jfi", column(&|r| r.outcome.jfi));
    report
}
