//! The whole-network simulator: an event loop over links, queueing
//! disciplines, and TCP endpoints.
//!
//! Structure mirrors the paper's ns-3 setup: hosts run TCP stacks with
//! pluggable CCAs; switch egress ports run a queueing discipline (FIFO,
//! FQ-CoDel, AFQ, or Cebinae) attached traffic-control style; links model
//! serialization + propagation. Everything is arena-indexed and driven by
//! one deterministic [`Scheduler`] (backend chosen via
//! [`SimConfig::scheduler`]; the timing wheel by default).
//!
//! # Staged dataplane
//!
//! The engine is split into planes, each a module with its own state
//! struct; event handlers borrow the planes they need side by side, so
//! there is no god-object borrow in the hot path:
//!
//! | module      | state                      | owns                                   |
//! |-------------|----------------------------|----------------------------------------|
//! | [`links`]   | `LinkPlane`                | link service, in-flight rings, traces, |
//! |             |                            | the packet stash                       |
//! | [`express`] | `ExpressLink` (in `LinkPlane`) | analytic service of unmanaged FIFOs |
//! | [`endpoints`] | `FlowPlane`              | TCP endpoints, paths, RTO/pace timers  |
//! | [`control`] | `ControlPlane`             | sampling, telemetry scrape, qdisc      |
//! |             |                            | control events                         |
//! | [`faults`]  | (state in `cebinae-faults`) | enqueue fates, holdbacks, timelines   |
//!
//! # The slim event path
//!
//! Scheduler events are the small `Copy` [`Ev`] markers — packets never
//! ride inside events. In-flight packets live in per-link FIFO rings
//! (`Ev::Arrive` pops the head; see [`links`] for the ordering proof), and
//! parked packets (fault holdbacks, express handoffs) live in the
//! [`PacketStash`](links::PacketStash) addressed by a `u32` slot. On top
//! of that, FIFO links that nothing manages, traces or monitors skip
//! event-driven emulation entirely via the [`express`] path, collapsing
//! whole multi-hop segments into a single event. Which links those are is
//! decided per link at construction; whether the run is observed or
//! faulted plays no part (a fault plan lands on the monitored links,
//! which are event-driven anyway).

mod control;
mod endpoints;
mod express;
mod faults;
mod links;

pub use control::{CebinaeSample, FlowDebug, SimResult};
pub(crate) use endpoints::FlowPlane;

use cebinae::{CebinaeConfig, CebinaeQdisc};
use cebinae_ds::{DetMap, DetSet};
use cebinae_faults::{FaultsRt, FaultPlan};
use cebinae_fq::{AfqConfig, AfqQdisc, FqCoDelConfig, FqCoDelQdisc};
use cebinae_metrics::GoodputSeries;
use cebinae_net::{BufferConfig, FifoQdisc, FlowId, LinkId, PacketTrace, Qdisc, Topology};
use cebinae_sim::{Duration, Scheduler, SchedulerBackend, SchedulerKind, Time};
use cebinae_telemetry::Registry;
use cebinae_transport::{TcpConfig, TcpOutput, TcpReceiver, TcpSender};

use control::ControlPlane;
use endpoints::FlowRt;
use express::ExpressLink;
use links::{LinkPlane, LinkRt, PacketStash};

/// Which discipline to install on a link.
#[derive(Clone, Debug)]
pub enum QdiscSpec {
    Fifo { buffer: BufferConfig },
    FqCoDel(FqCoDelConfig),
    Afq(AfqConfig),
    Cebinae(CebinaeConfig),
}

impl QdiscSpec {
    fn build(&self, rate_bps: u64, seed: u64) -> Box<dyn Qdisc> {
        match self {
            QdiscSpec::Fifo { buffer } => Box::new(FifoQdisc::new(*buffer)),
            QdiscSpec::FqCoDel(cfg) => Box::new(FqCoDelQdisc::new(cfg.clone())),
            QdiscSpec::Afq(cfg) => Box::new(AfqQdisc::new(*cfg)),
            QdiscSpec::Cebinae(cfg) => Box::new(CebinaeQdisc::new(cfg.clone(), rate_bps, seed)),
        }
    }

    /// Hard buffer limit of the discipline, in bytes — the occupancy bound
    /// the conformance oracles check against.
    pub fn limit_bytes(&self) -> u64 {
        match self {
            QdiscSpec::Fifo { buffer } => buffer.bytes,
            QdiscSpec::FqCoDel(cfg) => cfg.limit_bytes,
            QdiscSpec::Afq(cfg) => cfg.limit_bytes,
            QdiscSpec::Cebinae(cfg) => cfg.buffer.bytes,
        }
    }
}

/// One flow to simulate, with the links its data and its ACKs cross, in
/// order. The ACK path must lead from the data path's last node back to
/// its first; [`Simulation::new`] checks both.
#[derive(Clone, Debug)]
pub struct FlowSpec {
    pub data_path: Vec<LinkId>,
    pub ack_path: Vec<LinkId>,
    pub tcp: TcpConfig,
    pub start: Time,
}

/// Complete simulation description.
pub struct SimConfig {
    pub topology: Topology,
    pub flows: Vec<FlowSpec>,
    /// Qdisc per link; links not present default to a large FIFO.
    pub qdiscs: DetMap<LinkId, QdiscSpec>,
    /// Links whose state/throughput should be sampled (the bottlenecks).
    pub monitored_links: Vec<LinkId>,
    pub duration: Duration,
    pub sample_interval: Duration,
    /// Declarative fault plan: one spec (loss/reorder/duplication/
    /// corruption models, link flaps and rate changes) and control-plane
    /// stall windows, applied to every one of the `monitored_links`.
    /// Empty by default; an empty plan is inert — no RNG draws, no
    /// scheduled events, byte-identical runs. [`FaultPlan::parse`] spells
    /// one (`loss:0.01` is plain uniform loss).
    pub faults: FaultPlan,
    pub seed: u64,
    /// Links to record a packet trace for (smoltcp-pcap style); empty
    /// disables tracing.
    pub traced_links: Vec<LinkId>,
    /// Maximum records retained per run.
    pub trace_capacity: usize,
    /// Collect deterministic telemetry (counters/gauges/histograms,
    /// sampled on virtual-time boundaries) into `SimResult::telemetry`.
    /// Observation only: the run dispatches the same event stream with
    /// this on as with it off, so exported event counts describe what
    /// every run of this configuration executes.
    pub telemetry: bool,
    /// `true` (the default): links that nothing manages, traces or
    /// monitors are served by the [`express`] path. `false` forces full
    /// event-driven emulation on every link — the reference path that
    /// differential tests compare express against.
    pub express: bool,
    /// Which [`Scheduler`] backend drives the event loop. Either backend
    /// produces the byte-identical run; the wheel is the default because
    /// its cancel/rearm path is O(1).
    pub scheduler: SchedulerKind,
}

impl SimConfig {
    pub fn new(topology: Topology, flows: Vec<FlowSpec>) -> SimConfig {
        SimConfig {
            topology,
            flows,
            qdiscs: DetMap::new(),
            monitored_links: Vec::new(),
            duration: Duration::from_secs(10),
            sample_interval: Duration::from_millis(100),
            faults: FaultPlan::default(),
            seed: 0,
            traced_links: Vec::new(),
            trace_capacity: 100_000,
            telemetry: false,
            express: true,
            scheduler: SchedulerKind::default(),
        }
    }
}

/// Default buffer for unmanaged (access/reverse) links: large enough to
/// never be the bottleneck.
fn default_fifo() -> QdiscSpec {
    QdiscSpec::Fifo {
        buffer: BufferConfig::mtus(4096),
    }
}

/// Scheduler event markers. Deliberately small and `Copy`: packets never
/// ride inside events (they live in the in-flight rings and the
/// [`PacketStash`](links::PacketStash)), so posting, cancelling, and
/// cascading events moves one machine word of payload. The compile-time
/// guards below keep it that way.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Ev {
    /// The head of `link`'s in-flight ring finished propagating.
    Arrive { link: LinkId },
    /// Link finished serializing; pull the next packet.
    TxDone { link: LinkId },
    /// An express segment ended; resume the stashed packet.
    Express { slot: u32 },
    /// Qdisc control-plane event (Cebinae rotations).
    QdiscControl { link: LinkId },
    FlowStart { flow: FlowId },
    Rto { flow: FlowId },
    Pace { flow: FlowId },
    Sample,
    /// A reorder-held packet (stashed) is released into its link's queue.
    FaultRelease { slot: u32 },
    /// The next scripted event on `link`'s fault timeline is due.
    FaultTimeline { link: LinkId },
}

// Payload-creep guards: the event type must stay a small `Copy` value.
// `Packet` is deliberately not `Copy`, so the `Copy` bound alone proves no
// packet — and no other owning payload — can sneak back into the
// scheduler.
const _: () = assert!(std::mem::size_of::<Ev>() <= 24, "Ev grew past 24 bytes");
const fn assert_copy<T: Copy>() {}
const _: () = assert_copy::<Ev>();
// An express hop reads one `ExpressLink`: keep it two whole cache lines.
const _: () = assert!(std::mem::size_of::<ExpressLink>() == 128, "ExpressLink left 128 bytes");
const _: () = assert!(std::mem::align_of::<ExpressLink>() == 64, "ExpressLink lost its line alignment");

impl Ev {
    /// This event's slot in [`EV_COUNTERS`].
    #[inline]
    fn kind(self) -> usize {
        match self {
            Ev::Arrive { .. } => 0,
            Ev::TxDone { .. } => 1,
            Ev::Express { .. } => 2,
            Ev::QdiscControl { .. } => 3,
            Ev::FlowStart { .. } => 4,
            Ev::Rto { .. } => 5,
            Ev::Pace { .. } => 6,
            Ev::Sample => 7,
            Ev::FaultRelease { .. } => 8,
            Ev::FaultTimeline { .. } => 9,
        }
    }
}

/// The `sys:engine` counter of each event kind, indexed by [`Ev::kind`]:
/// how many events of that kind the run has dispatched.
pub(crate) const EV_COUNTERS: [&str; 10] = [
    "ev_arrive",
    "ev_dequeue",
    "ev_express",
    "ev_qdisc_control",
    "ev_flow_start",
    "ev_transport_rto",
    "ev_transport_pace",
    "ev_sample",
    "ev_fault_release",
    "ev_fault_timeline",
];

/// The scheduler the event handlers post into: either backend, called by
/// `match` rather than through a vtable. Handlers take `&mut SchedDyn`
/// and name neither backend type, so they stay backend-agnostic (verify
/// rule R14).
pub(crate) type SchedDyn = SchedulerBackend<Ev>;

/// The simulator.
pub struct Simulation {
    lp: LinkPlane,
    fp: FlowPlane,
    cp: ControlPlane,
    events: SchedDyn,
    /// Resolved fault plan; inert (no state, no draws) when empty.
    faults: FaultsRt,
    cfg_duration: Duration,
    sample_interval: Duration,
}

impl Simulation {
    pub fn new(cfg: SimConfig) -> Simulation {
        let SimConfig {
            topology,
            flows,
            qdiscs,
            monitored_links,
            duration,
            sample_interval,
            faults,
            seed,
            traced_links,
            trace_capacity,
            telemetry,
            express,
            scheduler,
        } = cfg;
        let n_links = topology.links().len();
        let faults_rt = FaultsRt::resolve(&faults, n_links, &monitored_links, seed);

        let mut traced = vec![false; n_links];
        for l in &traced_links {
            traced[l.index()] = true;
        }
        let monitored_set: DetSet<LinkId> = monitored_links.iter().copied().collect();
        let mut limits = Vec::with_capacity(n_links);
        let mut express_on = Vec::with_capacity(n_links);
        let mut express_links = Vec::with_capacity(n_links);
        let links: Vec<LinkRt> = topology
            .links()
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let id = LinkId::from(i);
                let managed = qdiscs.contains_key(&id);
                let qspec = qdiscs.get(&id).cloned().unwrap_or_else(default_fifo);
                let limit = qspec.limit_bytes();
                limits.push(limit);
                // Express eligibility is a per-link fact: a link needs a
                // real qdisc object and real events only if something
                // manages, traces or samples *it* (the fault plan lands on
                // the sampled links). Whether the run is observed plays no
                // part.
                express_on.push(express && !managed && !traced[i] && !monitored_set.contains(&id));
                express_links.push(ExpressLink::new(spec.rate_bps, spec.delay, limit));
                LinkRt {
                    qdisc: qspec.build(spec.rate_bps, seed ^ (i as u64) << 8),
                    busy: false,
                    rate_bps: spec.rate_bps,
                    delay: spec.delay,
                    inflight: std::collections::VecDeque::new(),
                }
            })
            .collect();

        let mut events = scheduler.backend();
        let mut flow_rts = Vec::with_capacity(flows.len());
        let mut spans = Vec::with_capacity(flows.len());
        // Every path goes straight into one arena; `spans` keeps each
        // flow's two spans of it.
        let mut paths = Vec::new();
        let mut span = |path: &[LinkId]| {
            let start = paths.len();
            paths.extend_from_slice(path);
            let bound = |i: usize| u32::try_from(i).expect("path arena fits u32 indices");
            (bound(start), bound(paths.len()))
        };
        for (i, f) in flows.iter().enumerate() {
            let id = FlowId::from(i);
            let (src, dst) = topology
                .walk_ends(&f.data_path)
                .unwrap_or_else(|| panic!("flow {id}: the data path is not a walk"));
            assert_eq!(
                topology.walk_ends(&f.ack_path),
                Some((dst, src)),
                "flow {id}: the ACK path does not walk back to the data path's source"
            );
            // `Packet::hop` indexes the path with a `u8`.
            for (what, path) in [("data", &f.data_path), ("ACK", &f.ack_path)] {
                assert!(
                    path.len() <= usize::from(u8::MAX) + 1,
                    "flow {id}: the {what} path has {} links, more than the 256 a u8 hop index reaches",
                    path.len()
                );
            }
            let fwd = span(&f.data_path);
            let rev = span(&f.ack_path);
            events.post(f.start, Ev::FlowStart { flow: id });
            spans.push([fwd, rev]);
            flow_rts.push(FlowRt {
                sender: TcpSender::new(id, f.tcp.clone()),
                receiver: TcpReceiver::new(id),
                start: f.start,
                completed_at: None,
                rto_deadline: None,
                rto_timer: None,
                pace_timer: None,
            });
        }

        let flow_ids: Vec<FlowId> = (0..flow_rts.len()).map(FlowId::from).collect();
        let goodput = GoodputSeries::new(flow_ids, sample_interval);

        let mut sim = Simulation {
            lp: LinkPlane {
                links,
                limits,
                traced,
                trace: PacketTrace::with_capacity(trace_capacity),
                stash: PacketStash::default(),
                express_on,
                express: express_links,
            },
            fp: FlowPlane {
                flows: flow_rts,
                paths,
                spans,
                out: TcpOutput::default(),
                rto_cancels: 0,
                pace_cancels: 0,
            },
            cp: ControlPlane {
                monitored: monitored_links,
                goodput,
                link_tx_series: Vec::new(),
                cebinae_series: Vec::new(),
                events_processed: 0,
                ev_counts: [0; EV_COUNTERS.len()],
                tel: telemetry.then(Registry::default),
                prev_top: DetMap::new(),
            },
            events,
            faults: faults_rt,
            cfg_duration: duration,
            sample_interval,
        };

        // Activate qdiscs and schedule their control events.
        for i in 0..sim.lp.links.len() {
            if let Some(t) = sim.lp.links[i].qdisc.activate(Time::ZERO) {
                sim.events.post(t, Ev::QdiscControl { link: LinkId::from(i) });
            }
        }
        sim.events.post(Time::ZERO, Ev::Sample);
        // Scripted fault timelines (flaps, rate changes). An empty plan
        // posts nothing, leaving the event sequence byte-identical.
        for (at, link) in sim.faults.timeline_posts() {
            sim.events.post(at, Ev::FaultTimeline { link });
        }
        sim
    }

    /// Run to completion and return the results.
    pub fn run(mut self) -> SimResult {
        let end = Time::ZERO + self.cfg_duration;
        self.run_events(end);
        self.finish(end)
    }

    /// Dispatch every event due by `end`, in order.
    fn run_events(&mut self, end: Time) {
        while let Some(t) = self.events.peek_time() {
            if t > end {
                break;
            }
            let (now, ev) = self.events.pop().expect("peeked");
            self.cp.events_processed += 1;
            self.cp.ev_counts[ev.kind()] += 1;
            self.dispatch(now, ev);
        }
    }

    /// The events are done: sample `end` once more and build the result,
    /// giving back each plane of the working set once nothing left to
    /// build reads it, so the result is never allocated beside the whole
    /// run (see DESIGN §4c, *End of run*).
    fn finish(mut self, end: Time) -> SimResult {
        // Final sample at the end time for complete series: the only one
        // at `end`, taken after every event there (an `Ev::Sample` due at
        // `end` records nothing).
        control::take_sample(&mut self.cp, &self.lp, &self.fp, &self.faults, &self.events, end);
        let telemetry = self.cp.tel.take().map(Registry::into_ndjson);
        let Simulation {
            lp,
            fp,
            cp,
            events,
            faults,
            cfg_duration,
            sample_interval: _,
        } = self;
        // Still-pending events and the packets parked for them end here.
        drop(events);
        drop(faults);
        let LinkPlane {
            links,
            limits,
            trace,
            stash,
            express,
            ..
        } = lp;
        drop(stash);
        let flows = fp.flows;
        let flow_debug = flows.iter().map(FlowDebug::of).collect();
        let delivered = flows.iter().map(|f| f.receiver.delivered()).collect();
        let flow_starts = flows.iter().map(|f| f.start).collect();
        let completed_at = flows.iter().map(|f| f.completed_at).collect();
        drop(flows);
        // One pass that frees each link as it goes: retire everything its
        // express overlay had in service by `end`, then fold the overlay
        // into its qdisc's stats (exactly one side of each merge is
        // nonzero).
        let (link_stats, link_queued_bytes) = links
            .into_iter()
            .zip(express)
            .map(|(l, mut x)| {
                let (overlay, backlog) = x.settle(end);
                (express::merge_stats(l.qdisc.stats(), &overlay), l.qdisc.byte_len() + backlog)
            })
            .unzip();
        SimResult {
            flow_debug,
            delivered,
            flow_starts,
            completed_at,
            link_stats,
            link_queued_bytes,
            link_limits: limits,
            goodput: cp.goodput,
            link_tx_series: cp.link_tx_series,
            cebinae_series: cp.cebinae_series,
            monitored_links: cp.monitored,
            duration: cfg_duration,
            events_processed: cp.events_processed,
            trace,
            telemetry,
        }
    }

    fn dispatch(&mut self, now: Time, ev: Ev) {
        // Split the planes so handlers borrow them disjointly.
        let Simulation {
            lp,
            fp,
            cp,
            events: ev_q,
            faults: fx,
            cfg_duration,
            sample_interval,
        } = self;
        match ev {
            Ev::Arrive { link } => endpoints::on_arrive(lp, fp, fx, ev_q, now, link),
            Ev::TxDone { link } => links::on_tx_done(lp, fx, ev_q, now, link),
            Ev::Express { slot } => express::on_express(lp, fp, fx, ev_q, now, slot),
            Ev::QdiscControl { link } => control::on_qdisc_control(lp, fx, ev_q, now, link),
            Ev::FlowStart { flow } => endpoints::on_flow_start(lp, fp, fx, ev_q, now, flow),
            Ev::Rto { flow } => endpoints::on_rto(lp, fp, fx, ev_q, now, flow),
            Ev::Pace { flow } => endpoints::on_pace(lp, fp, fx, ev_q, now, flow),
            Ev::Sample => {
                // The instant `end` is recorded once, by the sample `run`
                // takes after every event at `end`.
                let end = Time::ZERO + *cfg_duration;
                if now < end {
                    control::take_sample(cp, lp, fp, fx, ev_q, now);
                    let next = now + *sample_interval;
                    if next <= end {
                        ev_q.post(next, Ev::Sample);
                    }
                }
            }
            Ev::FaultRelease { slot } => faults::on_release(lp, fx, ev_q, now, slot),
            Ev::FaultTimeline { link } => faults::on_timeline(lp, fx, ev_q, now, link),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::scenario::{
        dumbbell, parking_lot, Discipline, DumbbellFlow, ParkingLotGroup, ScenarioParams,
    };
    use cebinae_faults::{LinkFaultSpec, ReorderSpec};
    use cebinae_transport::CcKind;

    /// A run cut off while packets are still parked: 512 IW10 flows with
    /// RTTs of 1-4 ms and starts spread over the first millisecond, a
    /// 5 ms reorder holdback on half the bottleneck's arrivals, and
    /// `duration = 1 ms`. At `end` the stash holds both fault holdbacks
    /// and express handoffs; the result must still close every link's
    /// byte conservation and match the recorded digest.
    #[test]
    fn a_run_cut_off_with_packets_parked_keeps_its_result() {
        let flows: Vec<DumbbellFlow> = (0..512u64)
            .map(|i| {
                let cc = if i % 2 == 0 { CcKind::NewReno } else { CcKind::Cubic };
                DumbbellFlow::new(cc, 1 + i % 4).starting_at(Time(i * 1_953))
            })
            .collect();
        let mut p = ScenarioParams::new(400_000_000, 1024, Discipline::Cebinae);
        p.cebinae_p = Some(1);
        p.duration = Duration::from_millis(1);
        p.faults = FaultPlan {
            link: LinkFaultSpec {
                reorder: Some(ReorderSpec {
                    p: 0.5,
                    min_hold: Duration::from_millis(5),
                    max_hold: Duration::from_millis(5),
                }),
                ..LinkFaultSpec::default()
            },
            ..FaultPlan::default()
        };
        let (cfg, _) = dumbbell(&flows, &p);
        let mut sim = Simulation::new(cfg);
        let end = Time::ZERO + sim.cfg_duration;
        sim.run_events(end);
        let (held, handoffs) = sim.lp.stash.census();
        assert!(held > 0 && handoffs > 0, "parked at end: {held} held, {handoffs} handoffs");
        let r = sim.finish(end);

        for (i, (s, &queued)) in r.link_stats.iter().zip(&r.link_queued_bytes).enumerate() {
            assert_eq!(s.enq_bytes, s.tx_bytes + s.drop_queued_bytes + queued, "link {i}");
        }
        let words = r
            .delivered
            .iter()
            .copied()
            .chain(r.link_stats.iter().flat_map(|s| {
                [
                    s.enq_pkts,
                    s.enq_bytes,
                    s.drop_pkts,
                    s.drop_bytes,
                    s.tx_pkts,
                    s.tx_bytes,
                    s.ecn_marked,
                    s.drop_queued_pkts,
                    s.drop_queued_bytes,
                    s.peak_queued_bytes,
                ]
            }))
            .chain(r.link_queued_bytes.iter().copied())
            .chain(r.flow_debug.iter().flat_map(|f| {
                [
                    f.cwnd,
                    f.flight,
                    u64::from(f.in_recovery),
                    f.retx_count,
                    f.rto_count,
                    f.srtt_ns,
                    f.rx_pkts,
                    f.dup_pkts,
                ]
            }))
            .chain([r.events_processed]);
        let digest = words.fold(cebinae_ds::FNV_OFFSET, |h, w| {
            cebinae_ds::fnv1a_bytes(h, &w.to_le_bytes())
        });
        assert!(
            (digest, r.events_processed) == (0x2e73_9616_f816_8d30, 1_167),
            "moved: digest {digest:#018x}, events {}",
            r.events_processed
        );
    }

    /// A fault plan lands on the monitored links, which are event-driven
    /// anyway: arming every fault family leaves the express set as the
    /// clean run has it.
    #[test]
    fn a_fault_plan_leaves_the_express_set_alone() {
        let rtt = Duration::from_millis(20);
        let group =
            |enter, exit| ParkingLotGroup { cc: CcKind::NewReno, count: 2, enter, exit, rtt };
        let groups = [group(0, 2), group(0, 1), group(1, 2)];
        let express_on = |faults: FaultPlan| {
            let mut p = ScenarioParams::new(10_000_000, 100, Discipline::Cebinae);
            p.faults = faults;
            let (cfg, bnecks) = parking_lot(2, &groups, &p);
            (Simulation::new(cfg).lp.express_on, bnecks)
        };
        let (clean, bnecks) = express_on(FaultPlan::default());
        let plan = FaultPlan::parse("burst,reorder,dup,corrupt,flap,stall").expect("valid spec");
        let (faulted, _) = express_on(plan);
        assert_eq!(clean, faulted);
        assert!(bnecks.iter().all(|b| !faulted[b.index()]), "every bottleneck is event-driven");
        assert!(faulted.contains(&true), "access links still take the express path");
    }

    #[test]
    fn ev_is_one_word_of_payload() {
        // Discriminant + u32 payload: 8 bytes total, far under the
        // compile-time ceiling of 24.
        assert_eq!(std::mem::size_of::<Ev>(), 8);
    }
}
