//! The oracle layer: read-only judges over completed runs.
//!
//! Three oracle families, per the conformance plan:
//!
//! 1. **Conservation** — invariants of the telemetry NDJSON export, each
//!    key's value carried forward from its last row: every enqueued byte
//!    is transmitted, dropped-from-queue, or still queued at each sample
//!    instant; occupancy never exceeds the buffer limit; counters never
//!    decrease; the per-kind `ev_*` event counters sum to `events`; sample
//!    time is monotone and never passes the configured end of the
//!    simulation; and no row repeats the value its key last wrote.
//! 2. **Trace replay / differential** — the packet trace of a
//!    never-saturated Cebinae run is replayed through a model filter that
//!    must agree drop-for-drop (see [`crate::model::replay_cebinae`]), and
//!    the quantized dataplane filter is diffed against the exact
//!    continuous-pace reference under the scenario's parameters
//!    (see [`crate::model::run_diff`]).
//! 3. **Fairness sanity** — on saturated symmetric dumbbells, long-run
//!    Jain's fairness index under Cebinae must not fall materially below
//!    plain FIFO.
//! 4. **Graceful degradation** — chaos scenarios (a non-empty
//!    [`cebinae_faults::FaultPlan`]) additionally demand that injected
//!    drops are accounted exactly between the packet trace and the
//!    `sys:faults` telemetry scope, that no flow is starved outright by
//!    bounded-intensity faults, and that once every scripted fault has
//!    cleared each flow resumes forward progress (with post-fault JFI
//!    clearing the collapse floor on symmetric scenarios).
//!
//! Everything here *reads* simulation output; all model state mutation
//! lives in `crate::model`. Verify rule R9 enforces this split by banning
//! mutating dataplane/telemetry calls from this module.

use std::collections::BTreeMap;

use cebinae_engine::{CebinaeSample, Discipline, SimResult};
use cebinae_faults::FaultPlan;
use cebinae_metrics::jfi;
use cebinae_net::{DropReason, PacketTrace, TraceEvent};
use cebinae_sim::{Duration, Time};

use crate::model::{replay_cebinae, run_diff, DiffParams, Mutation};
use crate::scenario::GenScenario;

/// Mean JFI degradation (FIFO minus Cebinae, averaged over a campaign's
/// symmetric seeds) tolerated before the fairness oracle fails. Per-seed
/// JFI on 1-2s symmetric runs swings hard — the controller perturbs an
/// already-fair allocation and individual seeds land anywhere between
/// "identical" and "one flow starved for a stretch" — but the campaign
/// mean is stable and is the property the paper actually claims
/// (calibrated over 192 seeds: observed mean ≈ 0.02).
const MEAN_FAIRNESS_TOLERANCE: f64 = 0.05;

/// Hard per-seed floor: whatever the controller does to a symmetric
/// scenario, fairness must never collapse outright (observed minimum over
/// the calibration survey: 0.53).
const JFI_COLLAPSE_FLOOR: f64 = 0.3;

/// One oracle failure. `oracle` names the family, `detail` is a stable,
/// deterministic description (no floats beyond fixed precision).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    pub oracle: &'static str,
    pub detail: String,
}

impl Violation {
    fn new(oracle: &'static str, detail: String) -> Violation {
        Violation { oracle, detail }
    }
}

/// Pull a `"key":<u64>` field out of an NDJSON row.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Pull a `"key":"<str>"` field out of an NDJSON row.
fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let rest = &line[line.find(&pat)? + pat.len()..];
    rest.split('"').next()
}

/// Every key's value as of the rows read so far: `(scope, name)` -> the
/// last `v` written (a histogram's `count`).
type Carried<'a> = BTreeMap<(&'a str, &'a str), u64>;

/// Judge the carried state of every key at sample instant `t`.
fn judge_instant(state: &Carried<'_>, t: u64, out: &mut Vec<Violation>) {
    const ORACLE: &str = "conservation";
    let mut ports: Vec<&str> = state
        .range(("port:", "")..)
        .map(|(&(scope, _), _)| scope)
        .take_while(|scope| scope.starts_with("port:"))
        .collect();
    ports.dedup();
    for scope in ports {
        let get = |name: &str| state.get(&(scope, name)).copied();
        // Byte conservation: accepted = sent + dropped-after-queueing
        // + still-queued, exactly, at every sample instant.
        if let (Some(enq), Some(tx), Some(dropq), Some(queued)) = (
            get("enq_bytes"),
            get("tx_bytes"),
            get("drop_queued_bytes"),
            get("queued_bytes"),
        ) {
            if enq != tx + dropq + queued {
                out.push(Violation::new(
                    ORACLE,
                    format!(
                        "t={t} {scope}: enq_bytes {enq} != tx {tx} + drop_queued {dropq} + queued {queued}"
                    ),
                ));
            }
        }
        // Occupancy bound: the peak never exceeds the configured limit.
        if let (Some(peak), Some(limit)) = (get("peak_queued_bytes"), get("buffer_limit_bytes")) {
            if limit > 0 && peak > limit {
                out.push(Violation::new(
                    ORACLE,
                    format!("t={t} {scope}: peak_queued_bytes {peak} > buffer_limit_bytes {limit}"),
                ));
            }
        }
    }
    // Event accounting: every dispatched event is counted under exactly
    // one kind.
    if let Some(&events) = state.get(&("sys:engine", "events")) {
        let by_kind: u64 = state
            .range(("sys:engine", "ev_")..)
            .take_while(|((scope, name), _)| *scope == "sys:engine" && name.starts_with("ev_"))
            .map(|(_, &v)| v)
            .sum();
        if by_kind != events {
            out.push(Violation::new(
                ORACLE,
                format!("t={t} sys:engine: ev_* counters sum to {by_kind}, events is {events}"),
            ));
        }
    }
}

/// Conservation oracle over one run's telemetry NDJSON export.
///
/// The export writes a key's row only when its value changed since the
/// key's last row, so the oracle carries every `(scope, name)` forward
/// across samples and judges the merged state at each sample instant. It
/// also holds the export to that contract: no row repeats the value its
/// key last wrote.
pub fn check_conservation(ndjson: &str, end_ns: u64) -> Vec<Violation> {
    const ORACLE: &str = "conservation";
    let mut out = Vec::new();
    let mut state = Carried::new();
    let mut last_t = 0u64;
    // The instant whose rows are being read.
    let mut block_t = None::<u64>;
    for line in ndjson.lines() {
        let Some(t) = field_u64(line, "t") else {
            continue;
        };
        if let Some(done) = block_t.filter(|&b| b != t) {
            judge_instant(&state, done, &mut out);
        }
        block_t = Some(t);
        if t < last_t {
            out.push(Violation::new(
                ORACLE,
                format!("sample time went backwards: {t} after {last_t}"),
            ));
        }
        if t > end_ns {
            out.push(Violation::new(
                ORACLE,
                format!("sample at t={t} past simulation end {end_ns}"),
            ));
        }
        last_t = last_t.max(t);
        let (Some(scope), Some(name), Some(kind)) = (
            field_str(line, "scope"),
            field_str(line, "name"),
            field_str(line, "kind"),
        ) else {
            continue;
        };
        let v = match kind {
            "counter" | "gauge" => field_u64(line, "v"),
            "hist" => field_u64(line, "count"),
            _ => None,
        };
        let Some(v) = v else {
            continue;
        };
        match state.insert((scope, name), v) {
            Some(prev) if prev == v => out.push(Violation::new(
                ORACLE,
                format!("t={t} {scope} {kind} {name} repeats its last written value {v}"),
            )),
            Some(prev) if kind == "counter" && v < prev => out.push(Violation::new(
                ORACLE,
                format!("t={t} {scope} counter {name} decreased: {prev} -> {v}"),
            )),
            _ => {}
        }
    }
    if let Some(done) = block_t {
        judge_instant(&state, done, &mut out);
    }
    out
}

/// Final Cebinae control-state sample per monitored link, if any.
fn final_samples(res: &SimResult) -> Option<&Vec<CebinaeSample>> {
    res.cebinae_series.last().map(|(_, s)| s)
}

/// Trace-replay oracle: for a Cebinae run that never left the unsaturated
/// regime, replay the offered stream through a model aggregate filter and
/// demand exact agreement with the qdisc's own drop/delay counters.
pub fn check_trace_replay(sc: &GenScenario, res: &SimResult) -> Vec<Violation> {
    const ORACLE: &str = "trace-replay";
    let mut out = Vec::new();
    if !matches!(
        sc.discipline,
        Discipline::Cebinae | Discipline::CebinaePerFlowTop
    ) {
        return out;
    }
    if res.trace.truncated > 0 {
        // Precondition unmet, not a failure: the offered stream is partial.
        return out;
    }
    let Some(samples) = final_samples(res) else {
        return out;
    };
    let rates = sc.bottleneck_rates();
    for (idx, link) in res.monitored_links.iter().enumerate() {
        let (Some(sample), Some(&rate)) = (samples.get(idx), rates.get(idx)) else {
            continue;
        };
        if sample.phase_changes != 0 {
            // Saturated at some point: verdicts came from the CP-driven
            // group filters, which the replica does not model.
            continue;
        }
        let cfg = sc.cebinae_config(rate);
        let counts = replay_cebinae(&res.trace, *link, &cfg, rate);
        if counts.verdict_conflicts != 0
            || counts.lbf_drops != sample.lbf_drops
            || counts.delayed_pkts != sample.delayed_pkts
        {
            out.push(Violation::new(
                ORACLE,
                format!(
                    "link {idx}: replica (delayed={}, drops={}, conflicts={}) vs qdisc (delayed={}, drops={}) over {} offered",
                    counts.delayed_pkts,
                    counts.lbf_drops,
                    counts.verdict_conflicts,
                    sample.delayed_pkts,
                    sample.lbf_drops,
                    counts.offered,
                ),
            ));
        }
    }
    out
}

/// Differential oracle: the quantized dataplane filter against the exact
/// continuous-pace reference, under this scenario's Cebinae parameters.
pub fn check_differential(sc: &GenScenario) -> Vec<Violation> {
    const ORACLE: &str = "differential";
    let cfg = sc.cebinae_config(sc.bottleneck_bps);
    let params = DiffParams::from_config(&cfg, sc.bottleneck_bps);
    let o = run_diff(sc.seed, params, Mutation::None);
    let mut out = Vec::new();
    if !o.within_envelope() {
        out.push(Violation::new(
            ORACLE,
            format!(
                "filter left vdT envelope: divergence {:.1} (allowed {:.1}), margin {:.1} (allowed {:.1}) over {} pkts",
                o.max_counter_divergence,
                o.counter_envelope(),
                o.max_disagreement_margin,
                o.margin_envelope(),
                o.packets,
            ),
        ));
    }
    out
}

/// Long-run JFI of one symmetric scenario under Cebinae and under FIFO —
/// the raw material of the fairness oracle.
#[derive(Clone, Copy, Debug)]
pub struct FairnessSample {
    pub seed: u64,
    pub jfi_ceb: f64,
    pub jfi_fifo: f64,
}

/// Measure the fairness sample for a symmetric scenario: JFI of per-flow
/// goodput past warm-up, under both disciplines.
pub fn fairness_sample(sc: &GenScenario, ceb: &SimResult, fifo: &SimResult) -> FairnessSample {
    let warmup = Time::from_millis(sc.duration_ms / 4);
    FairnessSample {
        seed: sc.seed,
        jfi_ceb: jfi(&ceb.goodputs_bps(warmup)),
        jfi_fifo: jfi(&fifo.goodputs_bps(warmup)),
    }
}

/// Per-seed fairness floor: the controller may perturb a symmetric
/// allocation, but an outright collapse (one flow effectively owning the
/// link) is a failure on its own.
pub fn check_fairness_collapse(s: &FairnessSample) -> Vec<Violation> {
    let mut out = Vec::new();
    if s.jfi_ceb < JFI_COLLAPSE_FLOOR {
        out.push(Violation::new(
            "fairness",
            format!(
                "JFI under Cebinae collapsed to {:.4} (floor {JFI_COLLAPSE_FLOOR}); FIFO reads {:.4}",
                s.jfi_ceb, s.jfi_fifo
            ),
        ));
    }
    out
}

/// Campaign-level fairness sanity: averaged over all symmetric seeds,
/// Cebinae must not systematically degrade JFI relative to FIFO.
///
/// The gap distribution is near-zero in the common case with rare heavy
/// outliers (a flow starved for a stretch; bounded above by
/// `1 - JFI_COLLAPSE_FLOOR` since outright collapse already fails per
/// seed). Small campaigns can land one such outlier by chance, so the
/// tolerance grants the mean one worst-case outlier's worth of headroom
/// on top of the systematic allowance.
pub fn check_fairness_mean(samples: &[FairnessSample]) -> Vec<Violation> {
    if samples.is_empty() {
        return Vec::new();
    }
    let mean_gap = samples
        .iter()
        .map(|s| s.jfi_fifo - s.jfi_ceb)
        .sum::<f64>()
        / samples.len() as f64;
    let tolerance =
        MEAN_FAIRNESS_TOLERANCE + (1.0 - JFI_COLLAPSE_FLOOR) / samples.len() as f64;
    let mut out = Vec::new();
    if mean_gap > tolerance {
        out.push(Violation::new(
            "fairness",
            format!(
                "mean JFI degradation {:.4} > {:.4} over {} symmetric seeds",
                mean_gap,
                tolerance,
                samples.len()
            ),
        ));
    }
    out
}

/// Shortest post-fault tail (run end minus the plan's quiesce instant)
/// the recovery checks require: below ~3 sample intervals the rate
/// series is too coarse to judge recovery at all.
const MIN_RECOVERY_TAIL_NS: u64 = 300_000_000;

/// Fault-accounting oracle: every fault-injected drop the engine wrote
/// into the packet trace must be reflected, exactly, in the final
/// `sys:faults` `injected_drop_pkts` telemetry counter. Valid under the
/// chaos generator's contract — the plan targets the bottlenecks, which
/// are exactly the traced links — and only when the trace is complete
/// (nothing evicted), mirroring the trace-replay precondition.
pub fn check_fault_accounting(trace: &PacketTrace, ndjson: &str) -> Vec<Violation> {
    const ORACLE: &str = "fault-accounting";
    if trace.truncated > 0 {
        // Precondition unmet, not a failure: evicted records make the
        // traced count a lower bound, so exact accounting is unjudgeable.
        return Vec::new();
    }
    let traced_pkts = trace
        .records()
        .filter(|r| r.event == TraceEvent::Drop(DropReason::Injected))
        .count() as u64;
    // Counters are cumulative; the last row wins.
    let mut reported_pkts = None;
    for line in ndjson.lines() {
        if field_str(line, "scope") == Some("sys:faults")
            && field_str(line, "name") == Some("injected_drop_pkts")
        {
            reported_pkts = field_u64(line, "v");
        }
    }
    let mut out = Vec::new();
    match reported_pkts {
        Some(reported_pkts) if reported_pkts != traced_pkts => out.push(Violation::new(
            ORACLE,
            format!(
                "sys:faults injected_drop_pkts {reported_pkts} != {traced_pkts} injected drops in the trace"
            ),
        )),
        None if traced_pkts > 0 => out.push(Violation::new(
            ORACLE,
            format!("{traced_pkts} injected drops traced but no sys:faults telemetry rows"),
        )),
        _ => {}
    }
    out
}

/// Graceful-degradation oracle over a chaos run. Faults may slow flows
/// down arbitrarily while active — and on 1-2s runs a legitimately
/// backed-off sender can stay silent past the end of the run (RTO
/// doubles from 200ms up to 60s), so per-flow silence alone is not
/// starvation; heavily contended clean runs show it too. What faults
/// must never do: (a) wedge a flow outright — zero bytes delivered with
/// nothing in flight and no RTO ever taken means the sender is not even
/// waiting on a timer, which bounded-intensity faults cannot
/// legitimately cause; (b) keep the whole link dark after every
/// scripted fault has cleared (plus a recovery grace) — waiting out a
/// timer can excuse one flow, not all of them at once — and any
/// individual flow still silent must actually be waiting (outstanding
/// data, whose armed RTO may legitimately overshoot a 1-2s run once
/// fault-inflated RTT variance feeds the estimator, or RTO backoff on
/// the books); (c) on symmetric scenarios whose plan carries no
/// persistent background noise, collapse post-fault JFI below the
/// floor.
pub fn check_degradation(sc: &GenScenario, res: &SimResult) -> Vec<Violation> {
    // A flow is "waiting" (excused from progress demands) when it took
    // RTOs or still has data in flight — `arm_rto` keeps a timer armed
    // whenever flight > 0, so such a sender will retry, just maybe past
    // the end of the run. Unlimited-demand fuzzer flows that are neither
    // have stopped trying altogether.
    let waiting: Vec<bool> = res
        .flow_debug
        .iter()
        .map(|f| f.rto_count > 0 || f.flight > 0)
        .collect();
    degradation_violations(
        &sc.fault_plan(),
        sc.symmetric,
        Duration::from_millis(sc.duration_ms).as_nanos(),
        &res.delivered,
        &waiting,
        &res.goodput.rates(),
    )
}

/// The pure core of [`check_degradation`], split out so tests can feed
/// synthetic rate series.
fn degradation_violations(
    plan: &FaultPlan,
    symmetric: bool,
    end_ns: u64,
    delivered: &[u64],
    waiting: &[bool],
    rates: &[(Time, Vec<f64>)],
) -> Vec<Violation> {
    const ORACLE: &str = "degradation";
    let mut out = Vec::new();
    if plan.is_empty() {
        return out;
    }
    // (a) Wedge detection: nothing delivered and not waiting on anything.
    for (i, d) in delivered.iter().enumerate() {
        if *d == 0 && !waiting.get(i).copied().unwrap_or(false) {
            out.push(Violation::new(
                ORACLE,
                format!("flow {i} delivered 0 bytes with nothing in flight and no RTO: wedged"),
            ));
        }
    }
    // (b, c) Post-fault recovery: judged only when the scripted faults
    // clear early enough to leave a meaningful tail. Plans that are pure
    // background noise (no timeline, no stall windows) have no quiesce
    // instant and are covered by (a) alone.
    let Some(q_ns) = plan.quiesce_ns() else {
        return out;
    };
    let tail_ns = end_ns.saturating_sub(q_ns);
    if tail_ns < MIN_RECOVERY_TAIL_NS {
        return out;
    }
    // Recovery (RTO expiry, slow-start regrowth) gets the first quarter
    // of the tail as grace before progress is demanded.
    let recover_from = Time(q_ns.saturating_add(tail_ns / 4));
    let n = delivered.len();
    let mut tail_rates = vec![0.0f64; n];
    let mut tail_samples = 0u64;
    for (t, rs) in rates {
        if *t <= recover_from {
            continue;
        }
        tail_samples += 1;
        for (i, r) in rs.iter().enumerate().take(n) {
            tail_rates[i] += r;
        }
    }
    if tail_samples == 0 {
        return out;
    }
    // The link as a whole must come back: all flows silent after the
    // grace means the fault never actually cleared (e.g. a lost link-Up
    // event) — waiting out timers can excuse one flow, not everyone.
    if tail_rates.iter().all(|sum| *sum <= 0.0) {
        out.push(Violation::new(
            ORACLE,
            format!("no flow made any progress after faults cleared at t={q_ns}"),
        ));
    } else {
        for (i, sum) in tail_rates.iter().enumerate() {
            if *sum <= 0.0 && !waiting.get(i).copied().unwrap_or(false) {
                out.push(Violation::new(
                    ORACLE,
                    format!(
                        "flow {i} made no progress after faults cleared at t={q_ns} and is not waiting on any timer"
                    ),
                ));
            }
        }
    }
    if symmetric && !plan.has_persistent_noise() {
        let means: Vec<f64> =
            tail_rates.iter().map(|s| s / tail_samples as f64).collect();
        let j = jfi(&means);
        if j < JFI_COLLAPSE_FLOOR {
            out.push(Violation::new(
                ORACLE,
                format!("post-fault JFI {j:.4} below collapse floor {JFI_COLLAPSE_FLOOR}"),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ndjson_field_extraction() {
        let line = "{\"t\":100,\"scope\":\"port:3\",\"name\":\"tx_bytes\",\"kind\":\"counter\",\"v\":42}";
        assert_eq!(field_u64(line, "t"), Some(100));
        assert_eq!(field_u64(line, "v"), Some(42));
        assert_eq!(field_str(line, "scope"), Some("port:3"));
        assert_eq!(field_str(line, "kind"), Some("counter"));
        assert_eq!(field_u64(line, "missing"), None);
    }

    fn row(t: u64, scope: &str, name: &str, kind: &str, v: u64) -> String {
        format!("{{\"t\":{t},\"scope\":\"{scope}\",\"name\":\"{name}\",\"kind\":\"{kind}\",\"v\":{v}}}\n")
    }

    #[test]
    fn conservation_accepts_balanced_export() {
        let mut s = String::new();
        for t in [100u64, 200] {
            s += &row(t, "port:0", "enq_bytes", "counter", 1000 * t);
            s += &row(t, "port:0", "tx_bytes", "counter", 900 * t);
            s += &row(t, "port:0", "drop_queued_bytes", "counter", 50 * t);
            s += &row(t, "port:0", "queued_bytes", "gauge", 50 * t);
            s += &row(t, "port:0", "peak_queued_bytes", "gauge", 60 * t);
            if t == 100 {
                // Unchanged at t=200, so written once.
                s += &row(t, "port:0", "buffer_limit_bytes", "gauge", 1 << 20);
            }
        }
        assert_eq!(check_conservation(&s, 200), Vec::new());
    }

    /// Re-expand a change-only export into full snapshots, as the renderer
    /// before it wrote them: at each instant, every key's last row so far.
    fn full_snapshots(delta: &str) -> String {
        let mut carried: BTreeMap<(String, String), String> = BTreeMap::new();
        let mut out = String::new();
        let mut lines = delta.lines().peekable();
        while let Some(first) = lines.peek() {
            let t = field_u64(first, "t").expect("row has t");
            while let Some(l) = lines.next_if(|l| field_u64(l, "t") == Some(t)) {
                let (scope, name) = (field_str(l, "scope"), field_str(l, "name"));
                let key = (scope.unwrap_or("").to_string(), name.unwrap_or("").to_string());
                let tail = l.split_once(',').map_or("", |(_, rest)| rest);
                carried.insert(key, tail.to_string());
            }
            for tail in carried.values() {
                out += &format!("{{\"t\":{t},{tail}\n");
            }
        }
        out
    }

    /// Mutation (a): a later block raises a port's `tx_bytes` and says
    /// nothing of `enq_bytes`. Judged block by block the second block
    /// holds no `enq_bytes` and would pass; carried forward, `enq_bytes`
    /// is still 1000 and the bytes do not add up.
    #[test]
    fn conservation_carries_unwritten_values_forward() {
        let mut s = String::new();
        s += &row(100, "port:0", "enq_bytes", "counter", 1000);
        s += &row(100, "port:0", "tx_bytes", "counter", 900);
        s += &row(100, "port:0", "drop_queued_bytes", "counter", 0);
        s += &row(100, "port:0", "queued_bytes", "gauge", 100);
        assert_eq!(check_conservation(&s, 300), Vec::new());
        // Honest: the queue drained, and both moving values were written.
        let mut drained = s.clone();
        drained += &row(200, "port:0", "tx_bytes", "counter", 1000);
        drained += &row(200, "port:0", "queued_bytes", "gauge", 0);
        assert_eq!(check_conservation(&drained, 300), Vec::new());
        // Planted: `tx_bytes` rises with nothing else written.
        s += &row(200, "port:0", "tx_bytes", "counter", 950);
        let v = check_conservation(&s, 300);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].detail.starts_with("t=200 port:0: enq_bytes 1000 != tx 950"), "{v:?}");
    }

    /// Mutation (b): the full-snapshot export the change-only renderer
    /// replaced repeats every unchanged key, and the new rule rejects it
    /// while the change-only export of the same run passes.
    #[test]
    fn full_snapshot_export_breaks_the_change_only_rule() {
        let mut delta = String::new();
        for t in [0u64, 100, 200] {
            delta += &row(t, "port:0", "enq_bytes", "counter", 10 * t);
            delta += &row(t, "port:0", "tx_bytes", "counter", 10 * t);
            if t == 0 {
                delta += &row(t, "port:0", "drop_queued_bytes", "counter", 0);
                delta += &row(t, "port:0", "queued_bytes", "gauge", 0);
                delta += &row(t, "port:0", "buffer_limit_bytes", "gauge", 4500);
            }
            delta += &row(t, "sys:engine", "ev_arrive", "counter", 2 * t + 1);
            delta += &row(t, "sys:engine", "events", "counter", 2 * t + 1);
        }
        assert_eq!(check_conservation(&delta, 200), Vec::new());
        let full = full_snapshots(&delta);
        assert_eq!(full.lines().count(), 3 * 7);
        let v = check_conservation(&full, 200);
        // The three keys written once repeat at t=100 and again at t=200.
        assert_eq!(v.len(), 6, "{v:?}");
        assert!(v.iter().all(|v| v.detail.contains("repeats its last written value")), "{v:?}");
        assert!(v[0].detail.starts_with("t=100 port:0 gauge buffer_limit_bytes"), "{v:?}");
    }

    #[test]
    fn conservation_flags_leaked_bytes() {
        let mut s = String::new();
        s += &row(100, "port:0", "enq_bytes", "counter", 1000);
        s += &row(100, "port:0", "tx_bytes", "counter", 800);
        s += &row(100, "port:0", "drop_queued_bytes", "counter", 0);
        s += &row(100, "port:0", "queued_bytes", "gauge", 100);
        let v = check_conservation(&s, 100);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].oracle, "conservation");
        assert!(v[0].detail.contains("enq_bytes 1000"));
    }

    #[test]
    fn conservation_flags_buffer_overrun_and_decrease() {
        let mut s = String::new();
        s += &row(100, "port:1", "peak_queued_bytes", "gauge", 2000);
        s += &row(100, "port:1", "buffer_limit_bytes", "gauge", 1500);
        s += &row(100, "port:1", "tx_pkts", "counter", 10);
        s += &row(200, "port:1", "tx_pkts", "counter", 9);
        let v = check_conservation(&s, 300);
        // The overrun is carried to t=200 and judged there again.
        assert_eq!(v.len(), 3, "{v:?}");
        let overruns: Vec<&str> = v
            .iter()
            .filter(|v| v.detail.contains("peak_queued_bytes 2000"))
            .map(|v| &v.detail[..5])
            .collect();
        assert_eq!(overruns, ["t=100", "t=200"], "{v:?}");
        assert!(v.iter().any(|v| v.detail.contains("decreased")), "{v:?}");
    }

    #[test]
    fn conservation_flags_event_counters_that_miss_the_total() {
        let export = |arrive: u64| {
            let mut s = String::new();
            s += &row(100, "sys:engine", "ev_arrive", "counter", arrive);
            s += &row(100, "sys:engine", "ev_sample", "counter", 4);
            s += &row(100, "sys:engine", "events", "counter", 10);
            s += &row(100, "sys:engine", "sched_live", "gauge", 3);
            s
        };
        assert_eq!(check_conservation(&export(6), 100), Vec::new());
        let v = check_conservation(&export(5), 100);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].detail.contains("sum to 9, events is 10"), "{v:?}");
    }

    #[test]
    fn conservation_flags_time_violations() {
        let mut s = String::new();
        s += &row(200, "port:0", "tx_pkts", "counter", 1);
        s += &row(100, "port:0", "tx_pkts", "counter", 1);
        let v = check_conservation(&s, 150);
        assert!(v.iter().any(|v| v.detail.contains("backwards")), "{v:?}");
        assert!(v.iter().any(|v| v.detail.contains("past simulation end")), "{v:?}");
    }

    #[test]
    fn duplicate_end_sample_is_tolerated() {
        // A second block at the last interval sample's `t` is not
        // "backwards"; under the change-only export it carries only rows
        // whose values moved. A row that did not move is a repeat.
        let mut s = String::new();
        s += &row(100, "port:0", "tx_pkts", "counter", 5);
        s += &row(100, "port:0", "tx_pkts", "counter", 6);
        assert_eq!(check_conservation(&s, 100), Vec::new());
        s += &row(100, "port:0", "tx_pkts", "counter", 6);
        let v = check_conservation(&s, 100);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].detail.contains("tx_pkts repeats its last written value 6"), "{v:?}");
    }

    use cebinae_faults::{LinkEvent, LinkEventKind, LinkFaultSpec};
    use cebinae_net::{FlowId, LinkId, TraceRecord};

    /// A trace holding `injected` fault drops plus one ordinary enqueue.
    fn trace_with_injected(injected: usize) -> PacketTrace {
        let mut tr = PacketTrace::with_capacity(64);
        let rec = |event| TraceRecord {
            at: Time(1),
            link: LinkId(0),
            flow: FlowId(0),
            seq: 0,
            size: 1500,
            is_ack: false,
            is_retx: false,
            event,
        };
        tr.push(rec(TraceEvent::Enqueue));
        for _ in 0..injected {
            tr.push(rec(TraceEvent::Drop(DropReason::Injected)));
        }
        tr
    }

    #[test]
    fn fault_accounting_matches_trace_and_telemetry() {
        let tr = trace_with_injected(3);
        let mut s = row(100, "sys:faults", "injected_drop_pkts", "counter", 1);
        s += &row(200, "sys:faults", "injected_drop_pkts", "counter", 3);
        assert_eq!(check_fault_accounting(&tr, &s), Vec::new());
    }

    #[test]
    fn fault_accounting_flags_undercounted_drops() {
        let tr = trace_with_injected(3);
        let s = row(200, "sys:faults", "injected_drop_pkts", "counter", 0);
        let v = check_fault_accounting(&tr, &s);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].oracle, "fault-accounting");
        assert!(v[0].detail.contains("0 != 3"), "{}", v[0].detail);

        // Drops traced but the scope absent entirely: also a failure.
        let v = check_fault_accounting(&tr, "");
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].detail.contains("no sys:faults"), "{}", v[0].detail);
    }

    #[test]
    fn fault_accounting_skips_truncated_traces() {
        let mut tr = PacketTrace::with_capacity(0);
        tr.push(TraceRecord {
            at: Time(1),
            link: LinkId(0),
            flow: FlowId(0),
            seq: 0,
            size: 1500,
            is_ack: false,
            is_retx: false,
            event: TraceEvent::Drop(DropReason::Injected),
        });
        assert!(tr.truncated > 0);
        let s = row(200, "sys:faults", "injected_drop_pkts", "counter", 0);
        assert_eq!(check_fault_accounting(&tr, &s), Vec::new());
    }

    /// A plan whose only fault is a scripted flap clearing at 400ms.
    fn flap_plan() -> FaultPlan {
        FaultPlan {
            link: LinkFaultSpec {
                timeline: vec![
                    LinkEvent { at: Time(300_000_000), kind: LinkEventKind::Down },
                    LinkEvent { at: Time(400_000_000), kind: LinkEventKind::Up },
                ],
                ..LinkFaultSpec::default()
            },
            ..FaultPlan::default()
        }
    }

    /// Per-100ms rate samples over a 1s run, constant per flow.
    fn flat_rates(per_flow: &[f64]) -> Vec<(Time, Vec<f64>)> {
        (1..=10u64)
            .map(|k| (Time(k * 100_000_000), per_flow.to_vec()))
            .collect()
    }

    #[test]
    fn degradation_is_silent_for_empty_plans() {
        // Even a fully starved flow is not this oracle's business when no
        // faults were injected (conservation/fairness judge clean runs).
        let v = degradation_violations(
            &FaultPlan::default(),
            true,
            1_000_000_000,
            &[0, 0],
            &[false, false],
            &flat_rates(&[0.0, 0.0]),
        );
        assert_eq!(v, Vec::new());
    }

    #[test]
    fn degradation_flags_a_wedged_flow() {
        // Flow 1 moved nothing and never took an RTO: it is not waiting
        // on any timer, so no fault intensity can excuse it.
        let plan = FaultPlan::parse("loss").unwrap();
        let v = degradation_violations(
            &plan,
            false,
            1_000_000_000,
            &[10_000, 0],
            &[false, false],
            &flat_rates(&[1e6, 0.0]),
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].oracle, "degradation");
        assert!(v[0].detail.contains("flow 1 delivered 0 bytes"), "{}", v[0].detail);

        // The same zero with RTO backoff on the books is legitimate
        // starvation-by-contention, which clean runs exhibit too.
        let v = degradation_violations(
            &plan,
            false,
            1_000_000_000,
            &[10_000, 0],
            &[false, true],
            &flat_rates(&[1e6, 0.0]),
        );
        assert_eq!(v, Vec::new());
    }

    #[test]
    fn degradation_flags_missing_post_fault_recovery() {
        // Flap clears at 400ms of a 1s run; flow 1 moved bytes early but
        // never again after the grace deadline (550ms) — and took no RTO,
        // so the backoff exemption does not apply.
        let plan = flap_plan();
        let rates: Vec<(Time, Vec<f64>)> = (1..=10u64)
            .map(|k| {
                let t = Time(k * 100_000_000);
                let f1 = if k <= 3 { 1e6 } else { 0.0 };
                (t, vec![1e6, f1])
            })
            .collect();
        let v = degradation_violations(&plan, false, 1_000_000_000, &[9, 9], &[false, false], &rates);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].detail.contains("flow 1 made no progress"), "{}", v[0].detail);

        // The same silent tail with RTO backoff on the books is excused:
        // the sender is waiting out its timer, not wedged.
        let v = degradation_violations(&plan, false, 1_000_000_000, &[9, 9], &[false, true], &rates);
        assert_eq!(v, Vec::new());

        // Same series judged with a healthy tail: green.
        let v = degradation_violations(
            &plan,
            false,
            1_000_000_000,
            &[9, 9],
            &[false, false],
            &flat_rates(&[1e6, 1e5]),
        );
        assert_eq!(v, Vec::new());
    }

    #[test]
    fn degradation_flags_a_link_that_never_recovers() {
        // Every flow silent after the flap clears: backoff cannot excuse
        // all of them at once — the link never actually came back.
        let plan = flap_plan();
        let rates: Vec<(Time, Vec<f64>)> = (1..=10u64)
            .map(|k| {
                let t = Time(k * 100_000_000);
                let r = if k <= 3 { 1e6 } else { 0.0 };
                (t, vec![r, r])
            })
            .collect();
        let v = degradation_violations(&plan, false, 1_000_000_000, &[9, 9], &[true, true], &rates);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].detail.contains("no flow made any progress"), "{}", v[0].detail);
    }

    #[test]
    fn degradation_flags_post_fault_jfi_collapse() {
        // Four symmetric flows; after the flap clears one flow owns the
        // link (JFI -> 0.25 < floor) while the rest trickle.
        let plan = flap_plan();
        let v = degradation_violations(
            &plan,
            true,
            1_000_000_000,
            &[9, 9, 9, 9],
            &[false; 4],
            &flat_rates(&[1e6, 1.0, 1.0, 1.0]),
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].detail.contains("post-fault JFI"), "{}", v[0].detail);

        // The same tail under a plan that also carries persistent noise
        // is exempt from the JFI clause (noise keeps perturbing flows).
        let mut noisy = flap_plan();
        noisy.link.loss = cebinae_faults::LossModel::Uniform { p: 0.01 };
        assert!(noisy.has_persistent_noise());
        let v = degradation_violations(
            &noisy,
            true,
            1_000_000_000,
            &[9, 9, 9, 9],
            &[false; 4],
            &flat_rates(&[1e6, 1.0, 1.0, 1.0]),
        );
        assert_eq!(v, Vec::new());
    }

    #[test]
    fn degradation_skips_recovery_on_short_tails() {
        // Quiesce at 900ms of a 1s run: tail shorter than the minimum,
        // only the liveness clause applies.
        let mut plan = flap_plan();
        plan.link.timeline[1].at = Time(900_000_000);
        assert_eq!(plan.quiesce_ns(), Some(900_000_000));
        let v = degradation_violations(
            &plan,
            false,
            1_000_000_000,
            &[9, 9],
            &[false, false],
            &flat_rates(&[1e6, 0.0]),
        );
        assert_eq!(v, Vec::new());
    }
}
