//! Control plane and observation: qdisc control events (Cebinae
//! rotations), periodic sampling, the telemetry scrape, and the result
//! types a run produces.

use cebinae::CebinaeQdisc;
use cebinae_ds::DetMap;
use cebinae_faults::{ControlVerdict, FaultsRt};
use cebinae_metrics::GoodputSeries;
use cebinae_net::{FlowId, LinkId, PacketTrace, Qdisc, QdiscStats};
use cebinae_sim::{Duration, Time};
use cebinae_telemetry::{Registry, Scope};

use super::links::{self, LinkPlane};
use super::{Ev, FlowPlane, SchedDyn};

/// Per-flow diagnostic snapshot at simulation end.
#[derive(Clone, Copy, Debug)]
pub struct FlowDebug {
    pub cwnd: u64,
    pub flight: u64,
    pub in_recovery: bool,
    pub retx_count: u64,
    pub rto_count: u64,
    pub srtt_ms: f64,
    pub rx_pkts: u64,
    pub dup_pkts: u64,
}

/// Sampled Cebinae control state of one monitored link.
#[derive(Clone, Copy, Debug, Default)]
pub struct CebinaeSample {
    pub saturated: bool,
    pub top_rate_bps: f64,
    pub bottom_rate_bps: f64,
    pub top_flows: usize,
    pub lbf_drops: u64,
    pub delayed_pkts: u64,
    /// Cumulative saturated<->unsaturated phase flips. A run whose final
    /// sample reads 0 spent its whole life under the single aggregate
    /// filter — the regime where the trace-replay oracle can demand exact
    /// agreement with a model LBF.
    pub phase_changes: u64,
    /// Cumulative queue rotations.
    pub rotations: u64,
}

/// Results of one simulation run.
pub struct SimResult {
    /// Per-flow in-order delivered bytes, sampled on the configured
    /// interval.
    pub goodput: GoodputSeries,
    /// Per-monitored-link cumulative tx bytes at each sample instant.
    pub link_tx_series: Vec<(Time, Vec<u64>)>,
    /// Cebinae saturation state per monitored link at each sample (false
    /// for non-Cebinae qdiscs) — Figure 1's background series.
    pub saturated_series: Vec<(Time, Vec<bool>)>,
    /// Full Cebinae control-state samples per monitored link (zeroed for
    /// non-Cebinae qdiscs).
    pub cebinae_series: Vec<(Time, Vec<CebinaeSample>)>,
    /// Final per-flow delivered bytes (receiver side).
    pub delivered: Vec<u64>,
    pub flow_starts: Vec<Time>,
    /// Completion time per flow (finite-demand flows only; `None` if the
    /// flow had unlimited demand or did not finish within the run).
    pub completed_at: Vec<Option<Time>>,
    /// Final stats of every link's qdisc (express-served links report
    /// their analytic overlay — the same counters the event-driven path
    /// would have produced).
    pub link_stats: Vec<QdiscStats>,
    /// Bytes still queued on every link when the run ended (indexed like
    /// `link_stats`; an express-served link reports its analytic
    /// backlog), closing the per-link conservation identity
    /// `enq_bytes == tx_bytes + drop_queued_bytes + queued`.
    pub link_queued_bytes: Vec<u64>,
    /// Hard buffer limit of every link's qdisc, bytes (indexed like
    /// `link_stats`) — the bound `peak_queued_bytes` must respect.
    pub link_limits: Vec<u64>,
    pub monitored_links: Vec<LinkId>,
    pub duration: Duration,
    pub events_processed: u64,
    pub flow_debug: Vec<FlowDebug>,
    /// Packet trace of the configured `traced_links` (empty otherwise).
    pub trace: PacketTrace,
    /// Rendered NDJSON telemetry export (`None` unless
    /// [`SimConfig::telemetry`](super::SimConfig::telemetry) was set).
    /// Byte-identical across thread counts: the registry is owned by this
    /// simulation and sampled only on virtual-time boundaries.
    pub telemetry: Option<String>,
}

impl SimResult {
    /// Average goodput (bits/sec) per flow over `[warmup, duration]`.
    pub fn goodputs_bps(&self, warmup: Time) -> Vec<f64> {
        self.goodput
            .average_rates(warmup)
            .into_iter()
            .map(|b| b * 8.0)
            .collect()
    }

    /// Average throughput (bits/sec) of a monitored link over
    /// `[warmup, duration]`.
    pub fn link_throughput_bps(&self, link: LinkId, warmup: Time) -> f64 {
        let idx = self
            .monitored_links
            .iter()
            .position(|&l| l == link)
            .expect("link not monitored");
        let first = self
            .link_tx_series
            .iter()
            .find(|(t, _)| *t >= warmup)
            .or_else(|| self.link_tx_series.first());
        let (Some((t0, a)), Some((t1, b))) = (first, self.link_tx_series.last()) else {
            return 0.0;
        };
        let dt = t1.saturating_since(*t0).as_secs_f64();
        if dt <= 0.0 {
            return 0.0;
        }
        (b[idx] - a[idx]) as f64 * 8.0 / dt
    }
}

/// Observation state: the sampled series, the telemetry registry, and the
/// bookkeeping both need. Updated only on virtual-time boundaries, which
/// is what keeps every export thread-count invariant.
pub(crate) struct ControlPlane {
    pub(crate) monitored: Vec<LinkId>,
    pub(crate) goodput: GoodputSeries,
    pub(crate) link_tx_series: Vec<(Time, Vec<u64>)>,
    pub(crate) saturated_series: Vec<(Time, Vec<bool>)>,
    pub(crate) cebinae_series: Vec<(Time, Vec<CebinaeSample>)>,
    /// Telemetry registry, owned per-simulation so parallel trials never
    /// share mutable state (the thread-count-invariance contract).
    pub(crate) tel: Option<Registry>,
    /// Virtual instant of the previously dispatched event; event-loop
    /// spans attribute the gap `[last_event_ns, now]` to the current
    /// event's phase.
    pub(crate) last_event_ns: u64,
    /// Last-seen sorted ⊤-flow sets per monitored-link index, for the
    /// membership-churn counter.
    pub(crate) prev_top: DetMap<usize, Vec<FlowId>>,
}

/// `Ev::QdiscControl { link }`: a discipline's control-plane moment
/// (Cebinae rotation/recompute), filtered through any scripted
/// control-plane faults.
pub(crate) fn on_qdisc_control(
    lp: &mut LinkPlane,
    fx: &mut FaultsRt,
    ev: &mut SchedDyn,
    now: Time,
    link: LinkId,
) {
    // Control-plane faults: inside a stall window the recompute is parked
    // at the window's end (one parked event per window; stragglers are
    // absorbed into it).
    match fx.control_verdict(link, now) {
        ControlVerdict::Park(at) => {
            ev.post(at, Ev::QdiscControl { link });
            return;
        }
        ControlVerdict::Swallow => return,
        ControlVerdict::Proceed => {}
    }
    if let Some(next) = lp.links[link.index()].qdisc.control(now) {
        // A stall window can leave the qdisc's recompute schedule behind
        // `now`; the missed rotations replay back-to-back at `now` (one
        // per dispatch) instead of being scheduled into the past.
        ev.post(next.max(now), Ev::QdiscControl { link });
    }
    // A control event may have made packets schedulable; kick the link if
    // it idles with a backlog.
    links::kick(lp, fx, ev, now, link);
}

/// Record one sample: goodput, monitored-link series, and (when enabled)
/// the full telemetry scrape.
pub(crate) fn take_sample(
    cp: &mut ControlPlane,
    lp: &LinkPlane,
    fp: &FlowPlane,
    fx: &FaultsRt,
    sched: &SchedDyn,
    events_processed: u64,
    now: Time,
) {
    let delivered: Vec<u64> = fp.flows.iter().map(|f| f.receiver.delivered()).collect();
    cp.goodput.record(now, delivered);
    if !cp.monitored.is_empty() {
        let tx: Vec<u64> = cp
            .monitored
            .iter()
            .map(|l| lp.links[l.index()].qdisc.stats().tx_bytes)
            .collect();
        cp.link_tx_series.push((now, tx));
        let samples: Vec<CebinaeSample> = cp
            .monitored
            .iter()
            .map(|l| {
                let q: &dyn Qdisc = lp.links[l.index()].qdisc.as_ref();
                as_cebinae(q)
                    .map(|c| {
                        let (saturated, top_rate_bps, bottom_rate_bps, top_flows) =
                            c.control_snapshot();
                        let x = c.xstats();
                        CebinaeSample {
                            saturated,
                            top_rate_bps,
                            bottom_rate_bps,
                            top_flows,
                            lbf_drops: x.lbf_drops,
                            delayed_pkts: x.delayed_pkts,
                            phase_changes: x.phase_changes,
                            rotations: x.rotations,
                        }
                    })
                    .unwrap_or_default()
            })
            .collect();
        cp.saturated_series
            .push((now, samples.iter().map(|s| s.saturated).collect()));
        cp.cebinae_series.push((now, samples));
    }
    if cp.tel.is_some() {
        scrape_telemetry(cp, lp, fp, fx, sched, events_processed, now);
    }
}

/// Scrape every instrumented subsystem into the registry and emit one
/// NDJSON sample block. Runs only on virtual-time sample boundaries (plus
/// the end-of-run sample), which is what makes the export independent of
/// host scheduling and thread count.
fn scrape_telemetry(
    cp: &mut ControlPlane,
    lp: &LinkPlane,
    fp: &FlowPlane,
    fx: &FaultsRt,
    sched: &SchedDyn,
    events_processed: u64,
    now: Time,
) {
    // Take the registry so scraping can borrow links/flows freely.
    let Some(mut tel) = cp.tel.take() else {
        return;
    };
    for l in &cp.monitored {
        let idx = l.index();
        let scope = Scope::Port(idx as u32); // det-ok: link count is far below u32::MAX; scope ids are u32 by schema
        let link = &lp.links[idx];
        let s = link.qdisc.stats();
        tel.set_counter(scope, "enq_pkts", s.enq_pkts);
        tel.set_counter(scope, "enq_bytes", s.enq_bytes);
        tel.set_counter(scope, "drop_pkts", s.drop_pkts);
        tel.set_counter(scope, "drop_bytes", s.drop_bytes);
        tel.set_counter(scope, "drop_queued_pkts", s.drop_queued_pkts);
        tel.set_counter(scope, "drop_queued_bytes", s.drop_queued_bytes);
        tel.set_counter(scope, "tx_pkts", s.tx_pkts);
        tel.set_counter(scope, "tx_bytes", s.tx_bytes);
        tel.set_counter(scope, "ecn_marked", s.ecn_marked);
        tel.set(scope, "peak_queued_bytes", s.peak_queued_bytes);
        tel.set(scope, "buffer_limit_bytes", lp.limits[idx]);
        let queued = link.qdisc.byte_len();
        tel.set(scope, "queued_bytes", queued);
        tel.set(scope, "queued_pkts", link.qdisc.pkt_len() as u64);
        tel.observe(scope, "occupancy_bytes", queued);
        if let Some(c) = as_cebinae(link.qdisc.as_ref()) {
            let x = c.xstats();
            tel.set_counter(scope, "ceb_rotations", x.rotations);
            tel.set_counter(scope, "ceb_recomputes", x.recomputes);
            tel.set_counter(scope, "ceb_phase_changes", x.phase_changes);
            tel.set_counter(scope, "ceb_lbf_drops", x.lbf_drops);
            tel.set_counter(scope, "ceb_delayed_pkts", x.delayed_pkts);
            tel.set_counter(scope, "ceb_saturated_rounds", x.saturated_rounds);
            tel.set(scope, "ceb_saturated", c.is_saturated() as u64);
            tel.set(scope, "ceb_top_flows", c.top_flow_count() as u64);
            // ⊤-group membership churn: symmetric difference against the
            // set seen at the previous sample.
            let mut top: Vec<FlowId> = c.top_flows().collect();
            top.sort_unstable();
            let prev = cp.prev_top.get_or_insert_with(idx, Vec::new);
            let changed = top.iter().filter(|f| !prev.contains(f)).count()
                + prev.iter().filter(|f| !top.contains(f)).count();
            tel.add(scope, "ceb_top_churn", changed as u64);
            *prev = top;
        }
    }
    for (i, f) in fp.flows.iter().enumerate() {
        let scope = Scope::Flow(i as u32); // det-ok: flow count is far below u32::MAX; scope ids are u32 by schema
        let snap = f.sender.telemetry_snapshot();
        tel.set(scope, "cwnd", snap.cwnd);
        tel.set(scope, "flight", snap.flight);
        tel.set(scope, "srtt_ns", snap.srtt_ns);
        tel.set(scope, "in_recovery", snap.in_recovery as u64);
        tel.set_counter(scope, "retx", snap.retx);
        tel.set_counter(scope, "rto", snap.rto);
        tel.set_counter(scope, "delivered_bytes", f.receiver.delivered());
    }
    let eng = Scope::Sys("engine");
    tel.set_counter(eng, "events", events_processed);
    tel.set_counter(eng, "rto_timer_cancels", fp.rto_cancels);
    tel.set_counter(eng, "pace_timer_cancels", fp.pace_cancels);
    // Backend-invariant scheduler counters: pure functions of the
    // schedule/cancel/pop history, so they must agree between the heap
    // and the wheel (the differential tests rely on that).
    tel.set_counter(eng, "sched_scheduled", sched.scheduled_total());
    tel.set_counter(eng, "sched_cancelled", sched.cancelled_total());
    tel.set(eng, "sched_live", sched.len() as u64);
    // Backend-*specific* diagnostics (lazy-discard timing, wheel cascades,
    // physical occupancy) live under their own scope so the differential
    // telemetry comparison can strip `sys:sched` lines.
    let sched_scope = Scope::Sys("sched");
    tel.set_counter(sched_scope, "discarded", sched.discarded_total());
    tel.set_counter(sched_scope, "cascades", sched.cascades_total());
    tel.set(sched_scope, "occupied", sched.occupied() as u64);
    // Fault-injection accounting, present only when a plan is active so
    // faultless exports stay byte-identical.
    if fx.any() {
        let fs = *fx.stats();
        let flt = Scope::Sys("faults");
        tel.set_counter(flt, "injected_drop_pkts", fs.injected_drop_pkts);
        tel.set_counter(flt, "injected_drop_bytes", fs.injected_drop_bytes);
        tel.set_counter(flt, "corrupt_pkts", fs.corrupt_pkts);
        tel.set_counter(flt, "corrupt_rx_drops", fs.corrupt_rx_drops);
        tel.set_counter(flt, "dup_pkts", fs.dup_pkts);
        tel.set_counter(flt, "reorder_held_pkts", fs.reorder_held_pkts);
        tel.set_counter(flt, "loss_bursts", fs.loss_bursts);
        tel.set_counter(flt, "link_down_events", fs.link_down_events);
        tel.set_counter(flt, "link_up_events", fs.link_up_events);
        tel.set_counter(flt, "rate_changes", fs.rate_changes);
        tel.set_counter(flt, "control_delayed", fs.control_delayed);
        tel.set_counter(flt, "control_skipped", fs.control_skipped);
        tel.set(flt, "links_down", fx.links_down() as u64);
    }
    tel.sample(now.0);
    cp.tel = Some(tel);
}

/// Downcast to the Cebinae qdisc for state sampling.
fn as_cebinae(q: &dyn Qdisc) -> Option<&CebinaeQdisc> {
    q.as_any().downcast_ref::<CebinaeQdisc>()
}
