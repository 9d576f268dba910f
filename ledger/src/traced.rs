//! The traced run (`--trace 1`): the per-layer numbers of one workload.
//!
//! Separate from the timed repetitions, so the end-to-end metrics never
//! pay for it. The engine is run once per variant (as timed, heap
//! scheduler, express off, telemetry flipped, faults off) and once with
//! the bottleneck(s) traced and telemetry on; the captured packet stream
//! and counters are then replayed into standalone layer instances, timed
//! in batches from outside. Every phase and batch is a span.
//!
//! Counts taken from the traced run describe full emulation: telemetry
//! pins the express path off, so its event stream is the one every
//! oracle sees, not the one the timed repetitions run.

use std::collections::BTreeMap;
use std::path::Path;

use cebinae::CebinaeConfig;
use cebinae_check::{model, oracle};
use cebinae_engine::{Discipline, FaultPlan, QdiscSpec, SimResult, Simulation};
use cebinae_net::{LinkId, MSS};
use cebinae_par::TrialPool;
use cebinae_sim::{Duration, SchedulerKind};
use cebinae_transport::CcKind;

use crate::drivers::{self, QdiscCost, SchedMix};
use crate::host;
use crate::report::Report;
use crate::spans::{self, Tracer};
use crate::stats::median;
use crate::workloads::{Inputs, Outcome, Workload};

/// Records kept of the bottleneck trace (the ring keeps the most recent).
const TRACE_CAPACITY: usize = 1_500_000;

/// Telemetry rows grow with flows x samples; past this many flow-samples
/// the traced runs sample once a second instead of every 100 ms.
const MAX_FLOW_SAMPLES: u64 = 40_000;

/// One engine run, taken apart from outside.
struct EngineRun {
    build_s: f64,
    new_s: f64,
    run_s: f64,
    post_s: f64,
    outcome: Outcome,
    /// Share of link transmissions on links the express path served.
    express_tx_share: f64,
    /// `(rate, propagation delay)` of every link, indexed like
    /// `result.link_stats`.
    links: Vec<(u64, Duration)>,
    /// Size of the telemetry export, if the run made one.
    ndjson_bytes: usize,
    /// The packet trace and the export survive only in the run that is
    /// replayed (`keep_capture`).
    result: SimResult,
}

impl EngineRun {
    fn ns_per_pkt(&self) -> f64 {
        self.run_s * 1e9 / self.outcome.tx_pkts as f64
    }
}

fn engine_run(
    t: &mut Tracer,
    name: &'static str,
    inputs: &Inputs,
    keep_capture: bool,
) -> EngineRun {
    let (run, _) = t.span(name, |t| {
        let ((cfg, bnecks), build_s) = t.batch("engine.build", 1, || inputs.build());
        // Express serves a link when the run allows it at all and nothing
        // needs the link's real qdisc: see `Simulation::new`.
        let p = &inputs.params;
        let express_on = p.express && !p.telemetry && p.faults.is_empty();
        let express: Vec<bool> = (0..cfg.topology.links().len())
            .map(|i| {
                let id = LinkId::from(i);
                express_on
                    && !cfg.qdiscs.contains_key(&id)
                    && !cfg.traced_links.contains(&id)
                    && !cfg.monitored_links.contains(&id)
            })
            .collect();
        let links = cfg
            .topology
            .links()
            .iter()
            .map(|l| (l.rate_bps, l.delay))
            .collect();
        let (sim, new_s) = t.batch("engine.new", 1, || Simulation::new(cfg));
        let (mut result, run_s) = t.batch("engine.run", 1, || sim.run());
        let (outcome, post_s) = t.batch("metrics.post", 1, || {
            Outcome::of(&result, &bnecks, p.bottleneck_bps)
        });
        let express_tx: u64 = result
            .link_stats
            .iter()
            .zip(&express)
            .filter(|(_, &e)| e)
            .map(|(s, _)| s.tx_pkts)
            .sum();
        let express_tx_share = express_tx as f64 / outcome.tx_pkts.max(1) as f64;
        let ndjson_bytes = result.telemetry.as_ref().map_or(0, String::len);
        if !keep_capture {
            result.trace = Default::default();
            result.telemetry = None;
        }
        (
            EngineRun {
                build_s,
                new_s,
                run_s,
                post_s,
                outcome,
                express_tx_share,
                links,
                ndjson_bytes,
                result,
            },
            1,
        )
    });
    run
}

/// Final counter/gauge values of a telemetry export, summed (or maxed)
/// over scopes of one kind.
struct Scrape<'a> {
    /// (scope kind, name) -> sum over scopes of the last value seen.
    sums: BTreeMap<(&'static str, &'a str), u64>,
    /// Largest `flight` gauge any flow showed at any sample, bytes.
    max_flight_bytes: u64,
    /// Largest final `peak_queued_bytes / buffer_limit_bytes` of a port.
    peak_queue_share: f64,
}

impl<'a> Scrape<'a> {
    fn parse(ndjson: &'a str) -> Scrape<'a> {
        fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
            let rest = &line[line.find(key)? + key.len()..];
            Some(rest.split(['"', ',', '}']).next().unwrap_or(rest))
        }
        let mut last: BTreeMap<(&str, &str), u64> = BTreeMap::new();
        let mut max_flight_bytes = 0;
        for line in ndjson.lines() {
            let (Some(scope), Some(name), Some(kind)) = (
                field(line, "\"scope\":\""),
                field(line, "\"name\":\""),
                field(line, "\"kind\":\""),
            ) else {
                continue;
            };
            if kind != "counter" && kind != "gauge" {
                continue;
            }
            let Some(v) = field(line, "\"v\":").and_then(|v| v.parse::<u64>().ok()) else {
                continue;
            };
            if name == "flight" {
                max_flight_bytes = max_flight_bytes.max(v);
            }
            last.insert((scope, name), v);
        }
        let mut sums: BTreeMap<(&'static str, &str), u64> = BTreeMap::new();
        let mut peak_queue_share: f64 = 0.0;
        for (&(scope, name), &v) in &last {
            let kind = match scope.split(':').next() {
                Some("port") => "port",
                Some("flow") => "flow",
                _ if scope == "sys:engine" => "engine",
                _ if scope == "sys:faults" => "faults",
                _ => continue,
            };
            *sums.entry((kind, name)).or_insert(0) += v;
            if kind == "port" && name == "peak_queued_bytes" {
                if let Some(&limit) = last.get(&(scope, "buffer_limit_bytes")) {
                    peak_queue_share = peak_queue_share.max(v as f64 / limit.max(1) as f64);
                }
            }
        }
        Scrape {
            sums,
            max_flight_bytes,
            peak_queue_share,
        }
    }

    fn get(&self, kind: &'static str, name: &str) -> u64 {
        self.sums.get(&(kind, name)).copied().unwrap_or(0)
    }
}

fn share(part: u64, whole: u64) -> f64 {
    part as f64 / whole.max(1) as f64
}

/// The Cebinae configuration the scenario builder gives this workload's
/// bottleneck (built as if the discipline were Cebinae, for the twins).
fn cebinae_config(inputs: &Inputs) -> CebinaeConfig {
    let mut as_cebinae = inputs.clone();
    as_cebinae.params.discipline = Discipline::Cebinae;
    let (cfg, bnecks) = as_cebinae.build();
    match cfg.qdiscs.get(&bnecks[0]) {
        Some(QdiscSpec::Cebinae(c)) => c.clone(),
        _ => unreachable!("a Cebinae scenario installs Cebinae at its bottleneck"),
    }
}

/// The engine runs of one traced invocation, telemetry-free ones first:
/// the telemetry switch is process-wide and one-way, so none of those may
/// execute after a run that enabled it.
fn variants(inputs: &Inputs, telemetry_interval: Duration) -> Vec<(&'static str, Inputs)> {
    let variant = |f: &dyn Fn(&mut Inputs)| {
        let mut v = inputs.clone();
        f(&mut v);
        if v.params.telemetry {
            v.params.sample_interval = telemetry_interval;
        }
        v
    };
    let observed = inputs.params.telemetry;
    let mut variants = vec![
        ("engine.base", variant(&|_| {})),
        (
            "engine.heap",
            variant(&|v| v.params.scheduler = SchedulerKind::Heap),
        ),
        ("engine.express_off", variant(&|v| v.params.express = false)),
        (
            "engine.telemetry_flipped",
            variant(&|v| {
                v.params.telemetry = !observed;
                v.trace_bottlenecks = false;
            }),
        ),
        (
            "engine.traced",
            variant(&|v| {
                v.params.telemetry = true;
                v.trace_bottlenecks = true;
                v.trace_capacity = TRACE_CAPACITY;
            }),
        ),
    ];
    if !inputs.params.faults.is_empty() {
        variants.push((
            "engine.faults_off",
            variant(&|v| v.params.faults = FaultPlan::default()),
        ));
    }
    variants.sort_by_key(|(_, v)| v.params.telemetry);
    variants
}

/// `par`: dispatch cost of a no-op job, and four tenth-length runs of the
/// workload on one thread against two. Returns (µs per job, speed-up,
/// whether both batches simulated the same events).
fn par_costs(t: &mut Tracer, inputs: &Inputs) -> (f64, f64, bool) {
    const NOOP_JOBS: u64 = 2_000;
    let (_, noop_s) = t.batch("par.noop_jobs", NOOP_JOBS, || {
        TrialPool::with_threads(2).map((0..NOOP_JOBS).collect(), |_, x| std::hint::black_box(x + 1))
    });
    let mut short = inputs.clone();
    short.params.telemetry = false;
    short.trace_bottlenecks = false;
    short.params.duration = inputs.params.duration / 10;
    let batch = |threads: usize| {
        TrialPool::with_threads(threads).map(vec![short.clone(); 4], |_, v| {
            let (cfg, _) = v.build();
            Simulation::new(cfg).run().events_processed
        })
    };
    let (serial_events, serial_s) = t.batch("par.batch_serial", 4, || batch(1));
    let (parallel_events, parallel_s) = t.batch("par.batch_2_threads", 4, || batch(2));
    (
        noop_s * 1e6 / NOOP_JOBS as f64,
        serial_s / parallel_s,
        serial_events == parallel_events,
    )
}

/// Make the traced run of `inputs` (made from `w`, possibly shortened by a
/// test), report the per-layer metrics and write the spans to `spans_dir`.
pub fn run(w: &Workload, inputs: Inputs, spans_dir: &Path) -> Report {
    let seed = inputs.params.seed;
    let mut t = Tracer::new(w.name);
    let mut report = Report::new(w.name, seed);
    report.note(
        "traced run: counts marked (full) in the README come from the traced engine run, which is full \
         emulation (telemetry pins express off); the timed repetitions run the workload as configured"
            .into(),
    );
    let flows = inputs.n_flows();
    let observed = inputs.params.telemetry;

    let (calib_s, _) = t.batch("host.calib", 1, host::calib_s);

    // ---- engine variants -------------------------------------------------
    let samples = inputs.params.duration / inputs.params.sample_interval;
    let telemetry_interval = if flows as u64 * samples > MAX_FLOW_SAMPLES {
        Duration::from_secs(1)
    } else {
        inputs.params.sample_interval
    };
    let mut runs: BTreeMap<&'static str, EngineRun> = BTreeMap::new();
    for (name, v) in variants(&inputs, telemetry_interval) {
        let run = engine_run(&mut t, name, &v, name == "engine.traced");
        report.attempt(
            run.outcome
                .failure(w.min_utilisation)
                .map(|why| format!("{name}: {why}")),
        );
        runs.insert(name, run);
    }
    let base = &runs["engine.base"];
    let heap = &runs["engine.heap"];
    let traced = &runs["engine.traced"];
    let flipped = &runs["engine.telemetry_flipped"];
    let (tel_on, tel_off) = if observed {
        (base, flipped)
    } else {
        (flipped, base)
    };
    report.attempt(
        heap.outcome
            .differs_from(&base.outcome)
            .map(|why| format!("heap scheduler against the wheel: {why}")),
    );

    // ---- what the traced run captured -----------------------------------
    let ndjson = traced.result.telemetry.as_deref().unwrap_or("");
    let scrape = Scrape::parse(ndjson);
    let end_ns = inputs.params.duration.as_nanos();
    let (violations, conservation_s) = t.batch("check.conservation", 1, || {
        oracle::check_conservation(ndjson, end_ns)
    });
    report.attempt(violations.first().map(|v| {
        format!(
            "conservation oracle: {} (+{} more)",
            v.detail,
            violations.len() - 1
        )
    }));

    let trace = &traced.result.trace;
    let bnecks = traced.result.monitored_links.clone();
    let rate_bps = inputs.params.bottleneck_bps;
    let buffer = inputs.params.buffer;
    let ceb_cfg = cebinae_config(&inputs);
    let (_, check_replay_s) = t.batch("check.replay", 1, || {
        model::replay_cebinae(trace, bnecks[0], &ceb_cfg, rate_bps)
    });
    report.note(format!(
        "bottleneck trace: {} records kept, {} evicted, {} link(s); telemetry sampled every {} ms",
        trace.len(),
        trace.truncated,
        bnecks.len(),
        telemetry_interval.as_nanos() / 1_000_000
    ));

    // ---- layer replays ----------------------------------------------------
    let per_link = drivers::link_ops(trace, &bnecks);
    let (mut fifo, mut fqcodel, mut afq, mut ceb) = (
        QdiscCost::default(),
        QdiscCost::default(),
        QdiscCost::default(),
        QdiscCost::default(),
    );
    let mut lbf_ns = Vec::new();
    t.span("replay", |t| {
        for ops in &per_link {
            fifo.add(drivers::replay_qdisc(
                t,
                "net.fifo_replay",
                drivers::fifo(buffer),
                ops.clone(),
            ));
            fqcodel.add(drivers::replay_qdisc(
                t,
                "fq.fqcodel_replay",
                drivers::fqcodel(buffer),
                ops.clone(),
            ));
            afq.add(drivers::replay_qdisc(
                t,
                "fq.afq_replay",
                drivers::afq(buffer),
                ops.clone(),
            ));
            ceb.add(drivers::replay_qdisc(
                t,
                "core.qdisc_replay",
                drivers::cebinae(&ceb_cfg, rate_bps, seed),
                ops.clone(),
            ));
            lbf_ns.push(drivers::lbf_ns_per_classify(t, &ceb_cfg, rate_bps, ops));
        }
        ((), 0)
    });
    let mix = SchedMix {
        scheduled: scrape.get("engine", "sched_scheduled"),
        cancelled: scrape.get("engine", "sched_cancelled"),
        popped: scrape.get("engine", "events"),
        live: scrape.get("engine", "sched_live"),
        flows,
        delays: traced
            .links
            .iter()
            .zip(&traced.result.link_stats)
            .filter(|(_, s)| s.tx_pkts > 0)
            .flat_map(|(&(rate_bps, delay), s)| {
                [
                    (
                        cebinae_sim::tx_time(s.tx_bytes / s.tx_pkts, rate_bps),
                        s.tx_pkts,
                    ),
                    (delay, s.tx_pkts),
                ]
            })
            .collect(),
    };
    let sched_ns = drivers::sched_ns_per_op(&mut t, &mix, seed);
    let detmap = drivers::detmap_cost(&mut t, flows);
    let agent_ns = drivers::agent_ns_per_recompute(&mut t, &ceb_cfg, rate_bps, flows);
    let cache_ns = drivers::cache_ns_per_update(&mut t, seed);
    let sample_ns = drivers::telemetry_sample_ns(&mut t, bnecks.len(), flows);
    let (sweep, _) = t.span("sweep", |t| (drivers::scaling_sweep(t, seed), 0));
    let ((ack16, ack256, (ack4096, newreno_flight), ack_loss, (bbr_ack, bbr_flight), rx), _) = t
        .span("transport", |t| {
            (
                (
                    drivers::ack_ns(t, CcKind::NewReno, 16, 100_000).0,
                    drivers::ack_ns(t, CcKind::NewReno, 256, 100_000).0,
                    drivers::ack_ns(t, CcKind::NewReno, 4096, 200_000),
                    drivers::ack_ns_loss(t, 4096, 50_000),
                    drivers::ack_ns(t, CcKind::Bbr, 4096, 100_000),
                    drivers::rx_ns_per_seg(t),
                ),
                0,
            )
        });
    report.note(format!(
        "transport pipe: NewReno held {newreno_flight} segments in flight at w4096, BBR {bbr_flight}"
    ));

    let (job_overhead_us, batch_speedup, batches_agree) = par_costs(&mut t, &inputs);
    report.attempt(
        (!batches_agree).then(|| "2-thread batch differs from the serial batch".to_string()),
    );

    // ---- residual: what the outside replays cannot attribute -------------
    // The workload's own discipline at its bottleneck(s), plus the
    // scheduler mix, against the traced run they were captured from.
    let own_qdisc = match inputs.params.discipline {
        Discipline::Fifo => fifo,
        Discipline::FqCoDel => fqcodel,
        Discipline::Afq => afq,
        Discipline::Cebinae | Discipline::CebinaePerFlowTop => ceb,
    };
    let sched_total_s = sched_ns * (mix.scheduled + mix.cancelled + mix.popped) as f64 / 1e9;
    // A truncated trace replays only the packets kept; scale to all offered.
    let offered_full = scrape.get("port", "enq_pkts") + scrape.get("port", "drop_pkts")
        - scrape.get("port", "drop_queued_pkts");
    let qdisc_total_s = own_qdisc.ns_per_pkt() * offered_full as f64 / 1e9 + own_qdisc.control_secs;
    let residual_share = 1.0 - (sched_total_s + qdisc_total_s) / traced.run_s;

    // ---- report -----------------------------------------------------------
    let med = |f: &dyn Fn(&EngineRun) -> f64| {
        median(&runs.values().map(f).collect::<Vec<_>>()).expect("engine runs exist")
    };
    let port = |name: &str| scrape.get("port", name);
    let rotations = port("ceb_rotations");
    let rx_pkts: u64 = base.result.flow_debug.iter().map(|f| f.rx_pkts).sum();
    let retx: u64 = base.result.flow_debug.iter().map(|f| f.retx_count).sum();
    let rtos: u64 = base.result.flow_debug.iter().map(|f| f.rto_count).sum();
    let clean_ns_per_pkt = runs
        .get("engine.faults_off")
        .map_or(base.ns_per_pkt(), EngineRun::ns_per_pkt);

    let values = [
        (
            "sim.events_per_pkt",
            share(base.outcome.events, base.outcome.tx_pkts),
        ),
        (
            "sim.sched_cancel_share",
            share(mix.cancelled, mix.scheduled),
        ),
        ("sim.sched_ns_per_op", sched_ns),
        ("sim.heap_over_wheel", heap.run_s / base.run_s),
        ("ds.detmap_get_ns", detmap.get_ns),
        ("ds.detmap_churn_ns", detmap.churn_ns),
        ("ds.sorted_view_ns", detmap.sorted_view_ns),
        ("net.fifo_ns_per_pkt", fifo.ns_per_pkt()),
        (
            "net.bneck_drop_share",
            share(port("drop_pkts"), offered_full),
        ),
        ("net.bneck_peak_queue_share", scrape.peak_queue_share),
        ("fq.fqcodel_ns_per_pkt", fqcodel.ns_per_pkt()),
        ("fq.afq_ns_per_pkt", afq.ns_per_pkt()),
        ("core.qdisc_ns_per_pkt", ceb.ns_per_pkt()),
        ("core.control_ns_per_call", ceb.control_ns_per_call()),
        ("core.cache_ns_per_update", cache_ns),
        (
            "core.lbf_ns_per_classify",
            median(&lbf_ns).expect("one bottleneck at least"),
        ),
        ("core.agent_ns_per_recompute", agent_ns),
        (
            "core.lbf_drop_share",
            share(port("ceb_lbf_drops"), offered_full),
        ),
        (
            "core.delayed_share",
            share(port("ceb_delayed_pkts"), port("enq_pkts")),
        ),
        ("core.rotations", rotations as f64),
        (
            "core.saturated_share",
            share(port("ceb_saturated_rounds"), rotations),
        ),
        ("core.qdisc_ns_per_pkt.n64", sweep[0][0]),
        ("core.qdisc_ns_per_pkt.n4096", sweep[0][1]),
        ("core.qdisc_ns_per_pkt.n65536", sweep[0][2]),
        ("fq.fqcodel_ns_per_pkt.n64", sweep[1][0]),
        ("fq.fqcodel_ns_per_pkt.n4096", sweep[1][1]),
        ("fq.fqcodel_ns_per_pkt.n65536", sweep[1][2]),
        ("fq.afq_ns_per_pkt.n64", sweep[2][0]),
        ("fq.afq_ns_per_pkt.n4096", sweep[2][1]),
        ("fq.afq_ns_per_pkt.n65536", sweep[2][2]),
        ("transport.ack_ns.w16", ack16),
        ("transport.ack_ns.w256", ack256),
        ("transport.ack_ns.w4096", ack4096),
        ("transport.ack_ns_loss.w4096", ack_loss),
        ("transport.bbr_ack_ns.w4096", bbr_ack),
        ("transport.rx_ns_per_seg", rx.0),
        ("transport.rx_ns_per_seg_ooo", rx.1),
        ("transport.retx_share", share(retx, rx_pkts)),
        ("transport.rto_count", rtos as f64),
        (
            "transport.max_flight_segs",
            (scrape.max_flight_bytes / u64::from(MSS)) as f64,
        ),
        ("engine.build_s", med(&|r| r.build_s)),
        ("engine.new_s", med(&|r| r.new_s)),
        ("engine.events", base.outcome.events as f64),
        (
            "engine.ns_per_event",
            base.run_s * 1e9 / base.outcome.events as f64,
        ),
        ("engine.express_tx_share", base.express_tx_share),
        (
            "engine.express_off_ratio",
            runs["engine.express_off"].run_s / base.run_s,
        ),
        ("engine.residual_share", residual_share),
        ("telemetry.on_over_off", tel_on.run_s / tel_off.run_s),
        (
            "telemetry.events_ratio",
            share(tel_on.outcome.events, tel_off.outcome.events),
        ),
        ("telemetry.sample_ns", sample_ns),
        ("telemetry.ndjson_mb", tel_on.ndjson_bytes as f64 / 1e6),
        (
            "faults.injected_drop_pkts",
            scrape.get("faults", "injected_drop_pkts") as f64,
        ),
        ("faults.dup_pkts", scrape.get("faults", "dup_pkts") as f64),
        (
            "faults.held_pkts",
            scrape.get("faults", "reorder_held_pkts") as f64,
        ),
        (
            "faults.ns_per_pkt_over_clean",
            base.ns_per_pkt() / clean_ns_per_pkt,
        ),
        ("metrics.post_ms", med(&|r| r.post_s) * 1e3),
        ("check.conservation_ms", conservation_s * 1e3),
        ("check.replay_ms", check_replay_s * 1e3),
        ("par.job_overhead_us", job_overhead_us),
        ("par.batch_speedup_t2", batch_speedup),
        ("host.calib_s", calib_s),
        ("host.nproc", host::nproc() as f64),
        ("trace.overhead_ratio", traced.run_s / base.run_s),
    ];
    for (name, v) in values {
        report.value(name, v);
    }

    // ---- predictions beside measurements ---------------------------------
    let setup_s = base.build_s + base.new_s;
    report.note(format!(
        "prediction: per-ACK cost grows with the window, so transport dominates t2r14_*: \
         transport.ack_ns.w4096 / .w16 = {:.1} ({ack4096:.0} ns / {ack16:.0} ns) in order, \
         transport.ack_ns_loss.w4096 / .ack_ns.w4096 = {:.1} ({ack_loss:.0} ns) through SACK recovery; \
         base run {:.0} ns per transmission, retx share {:.3}",
        ack4096 / ack16,
        ack_loss / ack4096,
        base.ns_per_pkt(),
        share(retx, rx_pkts)
    ));
    report.note(format!(
        "prediction: FQ-CoDel costs more per packet than Cebinae on the many4096 traffic: \
         fq.fqcodel_ns_per_pkt / core.qdisc_ns_per_pkt = {:.2} replayed here ({:.0} ns / {:.0} ns); \
         n65536 sweep {:.0} ns / {:.0} ns",
        fqcodel.ns_per_pkt() / ceb.ns_per_pkt(),
        fqcodel.ns_per_pkt(),
        ceb.ns_per_pkt(),
        sweep[1][2],
        sweep[0][2]
    ));
    report.note(format!(
        "prediction: set-up matters only at many flows: setup_s share of setup+run = {:.3} here ({:.4} s of {:.3} s, {flows} flows)",
        setup_s / (setup_s + base.run_s),
        setup_s,
        setup_s + base.run_s
    ));
    report.note(format!(
        "engine.residual_share = 1 - (scheduler mix {sched_total_s:.3} s + own qdisc {qdisc_total_s:.3} s, replayed) / {:.3} s of the traced run; \
         the `replay` phase spent {:.3} s of self time rebuilding streams outside its batches",
        traced.run_s,
        spans::self_secs_of(t.spans(), "replay")
    ));

    // ---- spans out, at the end --------------------------------------------
    let path = spans_dir.join(format!("spans-{}.ndjson", w.name));
    match std::fs::create_dir_all(spans_dir).and_then(|()| std::fs::write(&path, t.to_ndjson())) {
        Ok(()) => report.note(format!(
            "{} spans written to {}",
            t.spans().len(),
            path.display()
        )),
        Err(e) => report.fail(format!("cannot write {}: {e}", path.display())),
    }
    report
}
