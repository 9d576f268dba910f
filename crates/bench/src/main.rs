//! Bench baseline emitter: times representative experiments serial vs
//! parallel, verifies the two produce byte-identical output, and writes
//! the results to `BENCH_experiments.json`.
//!
//! ```text
//! cargo run --release -p cebinae-bench                    # full workload
//! cargo run --release -p cebinae-bench -- --smoke --check # CI gate
//! ```
//!
//! Flags:
//!
//! * `--smoke`   — small workloads (CI-friendly, seconds not minutes);
//! * `--check`   — exit 1 if any serial/parallel output pair differs, or
//!   (on machines with ≥4 cores, where two busy workers leave room for
//!   the rest of the host) if any parallel run is slower than its serial
//!   twin;
//! * `--reps N`  — timed repetitions per mode, median reported (default 3);
//! * `--out P`   — output path (default `BENCH_experiments.json`).
//!
//! Three experiments are measured, matching the tier-1 determinism tests:
//! the Figure 13 interval sweep (many independent trace trials), a seeded
//! dumbbell trial batch (many independent simulations) — the two fan-out
//! shapes the harness uses everywhere — and the `cebinae-check` fuzzer
//! smoke campaign, whose rendered report doubles as the byte-identity
//! probe for the oracle pipeline.

use std::fmt::Write as _;
use std::time::Instant;

use cebinae_engine::{dumbbell, Discipline, DumbbellFlow, ScenarioParams, Simulation};
use cebinae_harness::fig13;
use cebinae_harness::runner::{Ctx, DumbbellRun};
use cebinae_par::TrialPool;
use cebinae_sim::Duration;
use cebinae_transport::CcKind;

struct Opts {
    smoke: bool,
    check: bool,
    reps: u32,
    out: String,
}

/// One serial-vs-parallel measurement.
struct Outcome {
    name: &'static str,
    serial_ms: f64,
    parallel_ms: f64,
    identical: bool,
    /// Hot-path work items processed per serial run: simulator events for
    /// experiments that run the packet engine, cache updates for the
    /// trace-replay sweep. Every experiment threads its own count through,
    /// so events-per-second is never reported as zero.
    events_per_run: u64,
}

impl Outcome {
    fn speedup(&self) -> f64 {
        self.serial_ms / self.parallel_ms
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: cebinae-bench [--smoke] [--check] [--reps N] [--out PATH]"
    );
    std::process::exit(2);
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        smoke: false,
        check: false,
        reps: 3,
        out: "BENCH_experiments.json".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => opts.smoke = true,
            "--check" => opts.check = true,
            "--reps" => {
                opts.reps = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage());
            }
            "--out" => opts.out = it.next().unwrap_or_else(|| usage()),
            "-h" | "--help" => usage(),
            _ => usage(),
        }
    }
    opts
}

fn median_ms(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("wall times are finite"));
    xs[xs.len() / 2]
}

/// Run `f` `reps` times; return (median wall ms, last output).
fn time_reps<T>(reps: u32, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps as usize);
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        last = Some(f());
        times.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    (median_ms(times), last.expect("reps >= 1"))
}

/// Figure 13 interval sweep: the harness's widest trial fan-out.
fn bench_fig13(opts: &Opts, serial: &Ctx, parallel: &Ctx) -> Outcome {
    let (intervals, slots, trials): (&[u64], usize, u64) = if opts.smoke {
        (&[20], 256, 4)
    } else {
        (&[20, 40, 60], 1024, 8)
    };
    let run = |ctx: &Ctx| {
        fig13::interval_sweep_counted(
            ctx, intervals, slots, trials, "bench-fig13", fig13::light_trace_cfg,
        )
    };
    let (serial_ms, (out_s, updates)) = time_reps(opts.reps, || run(serial));
    let (parallel_ms, (out_p, _)) = time_reps(opts.reps, || run(parallel));
    Outcome {
        name: "fig13-interval-sweep",
        serial_ms,
        parallel_ms,
        identical: out_s == out_p,
        events_per_run: updates,
    }
}

/// Bit-exact fingerprint of a trial batch: per-flow goodput bit patterns
/// plus event counts, seed by seed.
fn batch_fingerprint(batch: &[cebinae_harness::RunMetrics]) -> String {
    let mut s = String::new();
    for m in batch {
        for &bps in &m.per_flow_bps {
            let _ = write!(s, "{:016x},", bps.to_bits());
        }
        let _ = writeln!(s, "ev={}", m.result.events_processed);
    }
    s
}

/// Seeded dumbbell batch: one full simulation per seed.
fn bench_dumbbell(opts: &Opts, serial: &Ctx, parallel: &Ctx) -> Outcome {
    let (n_seeds, rate_bps, secs) = if opts.smoke {
        (4u64, 20_000_000u64, 2u64)
    } else {
        (8, 50_000_000, 4)
    };
    let seeds: Vec<u64> = (1..=n_seeds).collect();
    let flows = vec![
        DumbbellFlow::new(CcKind::NewReno, 20),
        DumbbellFlow::new(CcKind::Cubic, 40),
        DumbbellFlow::new(CcKind::NewReno, 80),
    ];
    let run = |pool: TrialPool| {
        DumbbellRun::new(rate_bps)
            .buffer_mtus(200)
            .discipline(Discipline::Cebinae)
            .duration(Duration::from_secs(secs))
            .run_trials(pool, &flows, &seeds)
    };
    let (serial_ms, batch_s) = time_reps(opts.reps, || run(serial.pool()));
    let (parallel_ms, batch_p) = time_reps(opts.reps, || run(parallel.pool()));
    let events: u64 = batch_s.iter().map(|m| m.result.events_processed).sum();
    Outcome {
        name: "dumbbell-trial-batch",
        serial_ms,
        parallel_ms,
        identical: batch_fingerprint(&batch_s) == batch_fingerprint(&batch_p),
        events_per_run: events,
    }
}

/// Fuzzer smoke campaign: every seed runs the engine plus the full oracle
/// stack (conservation, trace replay, differential, fairness), so this
/// tracks the end-to-end cost of a checked trial and pins the campaign
/// report's thread-count invariance from the bench angle too.
fn bench_check_campaign(opts: &Opts, parallel_threads: usize) -> Outcome {
    let seeds: u64 = if opts.smoke { 8 } else { 32 };
    let run = |pool: &TrialPool| cebinae_check::run_campaign(0, seeds, pool);
    let serial_pool = TrialPool::with_threads(1);
    let parallel_pool = TrialPool::with_threads(parallel_threads);
    let (serial_ms, report_s) = time_reps(opts.reps, || run(&serial_pool));
    let (parallel_ms, report_p) = time_reps(opts.reps, || run(&parallel_pool));
    Outcome {
        name: "check-smoke-campaign",
        serial_ms,
        parallel_ms,
        identical: report_s.render() == report_p.render()
            && report_s.fingerprint() == report_p.fingerprint(),
        events_per_run: report_s.total_events(),
    }
}

/// Baselines for the many-flow macro experiment, pinned from the
/// pre-staged-dataplane engine (packets rode inside `Arrive` events; every
/// hop of every link was event-emulated) on the reference CI shape:
///
/// * smoke (2048 flows x 1 s): wall 631.7 ms, 584,311 events, 293,036
///   link transmissions -> 1.994 events per transmitted packet;
/// * full (4096 flows x 2 s): wall 1533.8 ms, 1,112,380 events, 549,468
///   link transmissions -> 2.024 events per transmitted packet.
///
/// `--check` gates the staged dataplane against the event counts, which
/// repeat exactly on any machine: scheduler events per transmitted packet
/// must be cut >= 1.8x (the express path collapses unmanaged-hop event
/// chains). The wall times are history, not a gate: wall time is the
/// performance ledger's to judge (`ledger/`), as a ratio to a parent run
/// on the same host.
const MANY_FLOW_BASE_EPP_SMOKE: f64 = 1.994;
const MANY_FLOW_BASE_EPP_FULL: f64 = 2.024;
/// Required reduction in scheduler events per transmitted packet.
const MANY_FLOW_MIN_EPP_REDUCTION: f64 = 1.8;

/// The many-flow macro experiment: thousands of concurrent flows through
/// one bottleneck running ideal FQ-CoDel (bucket = flow id), the shape
/// where per-packet cost dominates. Not an [`Outcome`]: a single
/// simulation has no serial/parallel twin, so the gates are (a) repeated
/// runs produce identical results and (b) the event-path diet holds —
/// events per transmitted packet is down >= 1.8x from the
/// pre-staged-dataplane engine.
struct ManyFlowOutcome {
    flows: usize,
    wall_ms: f64,
    events: u64,
    /// Packets transmitted across every link (managed qdiscs + express
    /// overlays) — the denominator of `events_per_packet`.
    tx_pkts: u64,
    /// Scheduler events dispatched per transmitted packet.
    events_per_packet: f64,
    /// Pre-change baseline EPP divided by measured EPP.
    epp_reduction: f64,
    identical: bool,
}

fn bench_many_flow(opts: &Opts) -> ManyFlowOutcome {
    let (n_flows, rate_bps, secs, base_epp) = if opts.smoke {
        (2048usize, 400_000_000u64, 1u64, MANY_FLOW_BASE_EPP_SMOKE)
    } else {
        (4096, 400_000_000, 2, MANY_FLOW_BASE_EPP_FULL)
    };
    // Mixed RTTs so flows desynchronize and the table sees a realistic
    // interleaving of hot and cold entries.
    let flows: Vec<DumbbellFlow> = (0..n_flows)
        .map(|i| {
            let cc = if i % 2 == 0 { CcKind::NewReno } else { CcKind::Cubic };
            DumbbellFlow::new(cc, 20 + (i % 8) as u64 * 10)
        })
        .collect();
    let mut p = ScenarioParams::new(rate_bps, 1024, Discipline::FqCoDel);
    p.duration = Duration::from_secs(secs);
    let fingerprint = |r: &cebinae_engine::SimResult| {
        let mut s = String::new();
        for &d in &r.delivered {
            let _ = write!(s, "{d},");
        }
        let _ = write!(s, "ev={}", r.events_processed);
        s
    };
    let mut prints: Vec<String> = Vec::new();
    let (wall_ms, result) = time_reps(opts.reps, || {
        let (cfg, _) = dumbbell(&flows, &p);
        let r = Simulation::new(cfg).run();
        prints.push(fingerprint(&r));
        r
    });
    let tx_pkts: u64 = result.link_stats.iter().map(|s| s.tx_pkts).sum();
    let events_per_packet = result.events_processed as f64 / tx_pkts.max(1) as f64;
    ManyFlowOutcome {
        flows: n_flows,
        wall_ms,
        events: result.events_processed,
        tx_pkts,
        events_per_packet,
        epp_reduction: base_epp / events_per_packet,
        identical: prints.windows(2).all(|w| w[0] == w[1]),
    }
}

/// Cost of the *disabled* telemetry guard on the event-loop hot path.
///
/// Deliberately not an [`Outcome`]: the guarded loop is expected to be
/// marginally slower (it does strictly more work), so the generic
/// "parallel must not be slower" check does not apply — the gate here is
/// overhead < 3%.
struct GuardOutcome {
    baseline_ms: f64,
    guarded_ms: f64,
}

impl GuardOutcome {
    fn overhead(&self) -> f64 {
        self.guarded_ms / self.baseline_ms - 1.0
    }
}

/// Event-queue push/pop loop, plain vs. with the `enabled()` guard each
/// pop — the exact shape the simulator's run loop uses. Interleaved
/// min-of-N sampling so frequency scaling and cache state hit both
/// variants alike.
fn bench_guard_overhead(opts: &Opts) -> GuardOutcome {
    use cebinae_sim::{HeapScheduler, Scheduler, Time};
    use std::hint::black_box;
    let n: u64 = if opts.smoke { 20_000 } else { 200_000 };
    let samples = if opts.smoke { 30 } else { 60 };
    let pass = |guarded: bool| {
        let t0 = Instant::now();
        let mut q = HeapScheduler::new();
        for i in 0..n {
            q.post(Time(i.wrapping_mul(0x9e37_79b9) >> 16), i);
        }
        let mut acc = 0u64;
        while let Some((_, e)) = q.pop() {
            if guarded && cebinae_telemetry::enabled() {
                acc = acc.wrapping_add(black_box(e));
            }
            acc = acc.wrapping_add(e);
        }
        black_box(acc);
        t0.elapsed().as_secs_f64() * 1e3
    };
    let (mut baseline_ms, mut guarded_ms) = (f64::MAX, f64::MAX);
    for _ in 0..samples {
        baseline_ms = baseline_ms.min(pass(false));
        guarded_ms = guarded_ms.min(pass(true));
    }
    GuardOutcome {
        baseline_ms,
        guarded_ms,
    }
}

/// Heap vs wheel scheduler on the two workloads where the O(1) claim
/// earns its keep: heavy cancellation (RTO timers that almost never
/// fire) and rearm churn (a deadline that moves on every packet).
/// Measured in-process so `--check` can gate the win without parsing
/// `BENCH_micro.json`; the gate is wheel >= 2x heap on both.
struct SchedulerOutcome {
    cancel_speedup: f64,
    rearm_speedup: f64,
}

fn bench_scheduler(opts: &Opts) -> SchedulerOutcome {
    use cebinae_sim::{SchedulerKind, Time};
    use std::hint::black_box;
    let samples = if opts.smoke { 20 } else { 40 };
    let rounds: u64 = if opts.smoke { 10 } else { 30 };

    // Cancel-80%: schedule 10k timers, cancel 4 of every 5, drain.
    let cancel_pass = |kind: SchedulerKind| {
        let t0 = Instant::now();
        for _ in 0..rounds {
            let mut q = kind.build();
            let ids: Vec<_> = (0..10_000u64)
                .map(|i| q.schedule(Time(i * 37 % 10_000), i))
                .collect();
            for (i, id) in ids.into_iter().enumerate() {
                if i % 5 != 0 {
                    black_box(q.cancel(id));
                }
            }
            while let Some(e) = q.pop() {
                black_box(e);
            }
        }
        t0.elapsed().as_secs_f64() * 1e3
    };
    // Rearm churn: 1k concurrent flows each holding a pending RTO, every
    // "ACK" round pushing each deadline later (the transport RTO
    // pattern), then drained. The standing population is what makes the
    // heap pay: O(log n) per re-arm plus a tombstone the drain must pop
    // through, vs O(1) bitmap ops on the wheel.
    let rearm_pass = |kind: SchedulerKind| {
        let t0 = Instant::now();
        for _ in 0..rounds {
            let mut q = kind.build();
            let mut ids: Vec<_> = (0..1_000u64)
                .map(|i| q.schedule(Time(1_000_000 + i * 100), i))
                .collect();
            for round in 1..=8u64 {
                for (i, id) in ids.iter_mut().enumerate() {
                    *id =
                        q.rearm(*id, Time(1_000_000 + round * 500_000 + i as u64 * 100), i as u64);
                }
            }
            while let Some(e) = q.pop() {
                black_box(e);
            }
        }
        t0.elapsed().as_secs_f64() * 1e3
    };

    // Interleaved min-of-N, like every in-process bench here.
    let mut mins = [f64::MAX; 4];
    for _ in 0..samples {
        mins[0] = mins[0].min(cancel_pass(SchedulerKind::Heap));
        mins[1] = mins[1].min(cancel_pass(SchedulerKind::Wheel));
        mins[2] = mins[2].min(rearm_pass(SchedulerKind::Heap));
        mins[3] = mins[3].min(rearm_pass(SchedulerKind::Wheel));
    }
    SchedulerOutcome {
        cancel_speedup: mins[0] / mins[1],
        rearm_speedup: mins[2] / mins[3],
    }
}

/// DetMap vs BTreeMap on the flow-table op mix, measured in-process so
/// `--check` can gate the O(1)-vs-O(log n) win without parsing
/// `BENCH_micro.json`. The gates: at 4k keys, DetMap get and
/// insert+remove are each >= 2x the BTreeMap rate, and the cached
/// sorted view (warm: the key set is stable between walks, the
/// control-plane pattern) is >= 2x in-order B-tree iteration.
struct FlowMapOutcome {
    keys: usize,
    get_speedup: f64,
    insert_remove_speedup: f64,
    sorted_view_speedup: f64,
}

fn bench_flow_map(opts: &Opts) -> FlowMapOutcome {
    use cebinae_ds::DetMap;
    use std::collections::BTreeMap;
    use std::hint::black_box;
    const KEYS: usize = 4096;
    let samples = if opts.smoke { 20 } else { 40 };
    // The key distribution the dataplane sees: dense arena ids, scattered
    // by a multiplicative hash so B-tree locality is not artificially
    // perfect.
    let keys: Vec<u64> = (0..KEYS as u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();

    let mut det: DetMap<u64, u64> = DetMap::new();
    let mut btree: BTreeMap<u64, u64> = BTreeMap::new();
    for &k in &keys {
        det.insert(k, k);
        btree.insert(k, k);
    }

    fn timed(f: impl FnOnce()) -> f64 {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_secs_f64() * 1e3
    }

    // Interleaved min-of-N so frequency scaling hits both variants alike
    // (the telemetry-guard bench's sampling pattern).
    let mut mins = [f64::MAX; 6];
    for _ in 0..samples {
        mins[0] = mins[0].min(timed(|| {
            let mut acc = 0u64;
            for &k in &keys {
                acc = acc.wrapping_add(*det.get(&k).expect("key present"));
            }
            black_box(acc);
        }));
        mins[1] = mins[1].min(timed(|| {
            let mut acc = 0u64;
            for &k in &keys {
                acc = acc.wrapping_add(*btree.get(&k).expect("key present"));
            }
            black_box(acc);
        }));
        mins[2] = mins[2].min(timed(|| {
            for &k in &keys {
                det.remove(&k);
                det.insert(k, k);
            }
            black_box(det.len());
        }));
        mins[3] = mins[3].min(timed(|| {
            for &k in &keys {
                btree.remove(&k);
                btree.insert(k, k);
            }
            black_box(btree.len());
        }));
        // Untimed warm-up: the churn pass above dirtied the cache, so the
        // first sorted walk pays the O(n log n) rebuild. The gate measures
        // the steady state — repeated walks over a stable key set.
        black_box(det.sorted_iter().count());
        mins[4] = mins[4].min(timed(|| {
            let mut acc = 0u64;
            for (&k, _) in det.sorted_iter() {
                acc = acc.wrapping_add(k);
            }
            black_box(acc);
        }));
        mins[5] = mins[5].min(timed(|| {
            let mut acc = 0u64;
            for (&k, _) in btree.iter() {
                acc = acc.wrapping_add(k);
            }
            black_box(acc);
        }));
    }
    FlowMapOutcome {
        keys: KEYS,
        get_speedup: mins[1] / mins[0],
        insert_remove_speedup: mins[3] / mins[2],
        sorted_view_speedup: mins[5] / mins[4],
    }
}

/// Cold `cebinae-verify` pass over the workspace. Like the telemetry
/// guard, this is not an [`Outcome`]: there is no serial/parallel twin —
/// the gate is an absolute wall-clock budget (cold run < 2 s), so the
/// static-analysis pass stays cheap enough to run on every `cargo test`.
struct VerifyOutcome {
    cold_ms: f64,
    files: usize,
    violations: usize,
}

fn bench_verify(opts: &Opts) -> VerifyOutcome {
    let cfg = cebinae_verify::Config::new(cebinae_verify::workspace_root());
    let mut violations = 0;
    let (cold_ms, ()) = time_reps(opts.reps, || {
        // `check_workspace` is the cacheless entry point, so every rep is
        // a true cold run regardless of target/ state.
        let found = cebinae_verify::check_workspace(&cfg).expect("workspace walk failed");
        violations = found.len();
    });
    // One cached pass purely for the file count in the report.
    let files = cebinae_verify::check_workspace_cached(&cfg, None)
        .map(|(_, stats)| stats.files)
        .unwrap_or(0);
    VerifyOutcome { cold_ms, files, violations }
}

fn render_json(
    opts: &Opts,
    cores: usize,
    threads: usize,
    outcomes: &[Outcome],
    many_flow: &ManyFlowOutcome,
    flow_map: &FlowMapOutcome,
    sched: &SchedulerOutcome,
    guard: &GuardOutcome,
    verify: &VerifyOutcome,
) -> String {
    let mut j = String::from("{\n");
    let _ = writeln!(j, "  \"schema\": \"cebinae-bench-experiments-v1\",");
    let _ = writeln!(j, "  \"cores\": {cores},");
    let _ = writeln!(j, "  \"threads_parallel\": {threads},");
    let _ = writeln!(j, "  \"smoke\": {},", opts.smoke);
    let _ = writeln!(j, "  \"reps\": {},", opts.reps);
    let _ = writeln!(j, "  \"experiments\": [");
    for (i, o) in outcomes.iter().enumerate() {
        let _ = writeln!(j, "    {{");
        let _ = writeln!(j, "      \"name\": \"{}\",", o.name);
        let _ = writeln!(j, "      \"serial_ms\": {:.3},", o.serial_ms);
        let _ = writeln!(j, "      \"parallel_ms\": {:.3},", o.parallel_ms);
        let _ = writeln!(j, "      \"speedup\": {:.3},", o.speedup());
        let _ = writeln!(j, "      \"identical\": {},", o.identical);
        let eps = if o.events_per_run > 0 {
            o.events_per_run as f64 / (o.serial_ms / 1e3)
        } else {
            0.0
        };
        let eps_par = if o.events_per_run > 0 {
            o.events_per_run as f64 / (o.parallel_ms / 1e3)
        } else {
            0.0
        };
        let _ = writeln!(j, "      \"events_per_sec_serial\": {eps:.0},");
        let _ = writeln!(j, "      \"events_per_sec_parallel\": {eps_par:.0}");
        let _ = writeln!(j, "    }}{}", if i + 1 < outcomes.len() { "," } else { "" });
    }
    let _ = writeln!(j, "  ],");
    let _ = writeln!(j, "  \"many_flow\": {{");
    let _ = writeln!(j, "    \"flows\": {},", many_flow.flows);
    let _ = writeln!(j, "    \"wall_ms\": {:.3},", many_flow.wall_ms);
    let _ = writeln!(j, "    \"events\": {},", many_flow.events);
    let _ = writeln!(j, "    \"tx_pkts\": {},", many_flow.tx_pkts);
    let _ = writeln!(j, "    \"events_per_packet\": {:.4},", many_flow.events_per_packet);
    let _ = writeln!(j, "    \"epp_reduction\": {:.3},", many_flow.epp_reduction);
    let _ = writeln!(j, "    \"identical\": {}", many_flow.identical);
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"flow_map\": {{");
    let _ = writeln!(j, "    \"keys\": {},", flow_map.keys);
    let _ = writeln!(j, "    \"get_speedup\": {:.3},", flow_map.get_speedup);
    let _ = writeln!(j, "    \"insert_remove_speedup\": {:.3},", flow_map.insert_remove_speedup);
    let _ = writeln!(j, "    \"sorted_view_speedup\": {:.3}", flow_map.sorted_view_speedup);
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"scheduler\": {{");
    let _ = writeln!(j, "    \"cancel_speedup\": {:.3},", sched.cancel_speedup);
    let _ = writeln!(j, "    \"rearm_speedup\": {:.3}", sched.rearm_speedup);
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"telemetry_guard\": {{");
    let _ = writeln!(j, "    \"baseline_ms\": {:.4},", guard.baseline_ms);
    let _ = writeln!(j, "    \"guarded_ms\": {:.4},", guard.guarded_ms);
    let _ = writeln!(j, "    \"overhead\": {:.4}", guard.overhead());
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"verify\": {{");
    let _ = writeln!(j, "    \"cold_ms\": {:.3},", verify.cold_ms);
    let _ = writeln!(j, "    \"files\": {},", verify.files);
    let _ = writeln!(j, "    \"violations\": {}", verify.violations);
    let _ = writeln!(j, "  }}");
    j.push_str("}\n");
    j
}

fn main() {
    let opts = parse_opts();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Even on one core the parallel twin runs with >=2 workers, so the
    // identity check always exercises the pool's cross-thread path.
    let threads = cebinae_par::threads_from_env().max(2);
    let serial = Ctx::serial(false, 1);
    let parallel = serial.clone().with_threads(threads);
    eprintln!(
        "cebinae-bench: cores={cores} threads_parallel={threads} reps={} {}",
        opts.reps,
        if opts.smoke { "(smoke)" } else { "(full)" },
    );

    // Measure the guard before any run could flip the one-way enable.
    let guard = bench_guard_overhead(&opts);
    let flow_map = bench_flow_map(&opts);
    let sched = bench_scheduler(&opts);
    let outcomes = vec![
        bench_fig13(&opts, &serial, &parallel),
        bench_dumbbell(&opts, &serial, &parallel),
        bench_check_campaign(&opts, threads),
    ];
    let many_flow = bench_many_flow(&opts);
    let verify = bench_verify(&opts);

    let json = render_json(
        &opts, cores, threads, &outcomes, &many_flow, &flow_map, &sched, &guard, &verify,
    );
    if let Err(e) = std::fs::write(&opts.out, &json) {
        eprintln!("cebinae-bench: cannot write {}: {e}", opts.out);
        std::process::exit(2);
    }
    print!("{json}");
    eprintln!("cebinae-bench: wrote {}", opts.out);

    if opts.check {
        let mut failed = false;
        for o in &outcomes {
            if !o.identical {
                eprintln!("CHECK FAILED: {} parallel output differs from serial", o.name);
                failed = true;
            }
            if cores >= 4 && o.speedup() < 1.0 {
                eprintln!(
                    "CHECK FAILED: {} parallel slower than serial ({:.3}x) on {cores} cores",
                    o.name,
                    o.speedup()
                );
                failed = true;
            }
        }
        if !many_flow.identical {
            eprintln!(
                "CHECK FAILED: many-flow experiment produced non-identical results across reps"
            );
            failed = true;
        }
        if many_flow.epp_reduction < MANY_FLOW_MIN_EPP_REDUCTION {
            eprintln!(
                "CHECK FAILED: many-flow events/packet only cut {:.2}x ({:.3} epp, {} events / {} tx pkts); need >= {MANY_FLOW_MIN_EPP_REDUCTION}x",
                many_flow.epp_reduction,
                many_flow.events_per_packet,
                many_flow.events,
                many_flow.tx_pkts
            );
            failed = true;
        }
        if flow_map.get_speedup < 2.0 {
            eprintln!(
                "CHECK FAILED: DetMap get only {:.2}x BTreeMap at {} keys (need >= 2x)",
                flow_map.get_speedup, flow_map.keys
            );
            failed = true;
        }
        if flow_map.insert_remove_speedup < 2.0 {
            eprintln!(
                "CHECK FAILED: DetMap insert+remove only {:.2}x BTreeMap at {} keys (need >= 2x)",
                flow_map.insert_remove_speedup, flow_map.keys
            );
            failed = true;
        }
        if flow_map.sorted_view_speedup < 2.0 {
            eprintln!(
                "CHECK FAILED: DetMap warm sorted view only {:.2}x BTreeMap at {} keys (need >= 2x)",
                flow_map.sorted_view_speedup, flow_map.keys
            );
            failed = true;
        }
        if sched.cancel_speedup < 2.0 {
            eprintln!(
                "CHECK FAILED: wheel scheduler only {:.2}x heap on cancel-80% (need >= 2x)",
                sched.cancel_speedup
            );
            failed = true;
        }
        if sched.rearm_speedup < 2.0 {
            eprintln!(
                "CHECK FAILED: wheel scheduler only {:.2}x heap on rearm churn (need >= 2x)",
                sched.rearm_speedup
            );
            failed = true;
        }
        if guard.overhead() > 0.03 {
            eprintln!(
                "CHECK FAILED: disabled-telemetry guard overhead {:.2}% >= 3%",
                guard.overhead() * 100.0
            );
            failed = true;
        }
        if verify.cold_ms >= 2000.0 {
            eprintln!(
                "CHECK FAILED: cold cebinae-verify workspace pass took {:.0} ms >= 2000 ms budget",
                verify.cold_ms
            );
            failed = true;
        }
        if verify.violations > 0 {
            eprintln!(
                "CHECK FAILED: cebinae-verify found {} violation(s) during the timing pass",
                verify.violations
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!("cebinae-bench: checks passed");
    }
}
