//! Standalone layer drivers: each one feeds a layer's public functions a
//! stream — replayed from a traced engine run, or synthetic — and times
//! the calls in batches from outside. One copy of each driver lives here;
//! the traced run, the scaling sweep and the tests all call these.

use std::collections::VecDeque;
use std::hint::black_box;

use cebinae::{
    recompute, CebinaeConfig, CebinaeQdisc, GroupLbf, HeavyHitterCache, RecomputeInput, RoundClock,
};
use cebinae_ds::DetMap;
use cebinae_fq::{AfqConfig, AfqQdisc, FqCoDelConfig, FqCoDelQdisc};
use cebinae_harness::fig13;
use cebinae_net::{
    BufferConfig, DropReason, FlowId, LinkId, Packet, PacketKind, PacketTrace, Qdisc, TraceEvent,
    TraceRecord, DATA_FRAME_BYTES, HEADER_BYTES, MSS,
};
use cebinae_sim::rng::{experiment_rng, DetRng};
use cebinae_sim::{Duration, SchedulerKind, Time, TimerId};
use cebinae_telemetry::{Registry, Scope};
use cebinae_traffic::{interval_packets, SyntheticTrace};
use cebinae_transport::{CcKind, TcpConfig, TcpOutput, TcpReceiver, TcpSender};

use crate::host;
use crate::spans::Tracer;

fn ns_per(secs: f64, calls: u64) -> f64 {
    secs * 1e9 / calls.max(1) as f64
}

// ---------------------------------------------------------------------------
// sim: scheduler op mix
// ---------------------------------------------------------------------------

/// A workload's scheduler op mix, from the `sys:engine` telemetry counters
/// of its full-emulation run. A cancel in the engine is always a timer
/// being moved or retired (`Scheduler::rearm` is, by contract, a cancel
/// plus a schedule), so `cancelled` of the `scheduled` ops are replayed as
/// rearms of a standing per-flow timer and the rest as plain posts.
#[derive(Clone, Debug)]
pub struct SchedMix {
    pub scheduled: u64,
    pub cancelled: u64,
    pub popped: u64,
    /// Events pending at the end of the run: the standing population.
    pub live: u64,
    /// Flows, each holding one cancellable timer.
    pub flows: usize,
    /// How far ahead posts land, as `(delay, weight)`: every link
    /// transmission posts its serialization time and then its propagation
    /// delay, so the run's per-link transmission counts give the mix.
    pub delays: Vec<(Duration, u64)>,
}

/// Replays at most this many ops; a longer mix is scaled down in
/// proportion.
const SCHED_REPLAY_OPS: u64 = 2_000_000;

/// RTO-scale deadline of the standing timers.
const STANDING_DEADLINE: Duration = Duration(200_000_000);

#[derive(Clone, Copy)]
enum SchedOp {
    Post(Duration),
    Rearm,
    Pop,
}

/// Replay `mix` into the default scheduler backend; ns per op
/// (schedule, cancel and pop each count as one op).
pub fn sched_ns_per_op(t: &mut Tracer, mix: &SchedMix, seed: u64) -> f64 {
    let total = mix.scheduled + mix.cancelled + mix.popped;
    let scale = (SCHED_REPLAY_OPS as f64 / total.max(1) as f64).min(1.0);
    let scaled = |n: u64| (n as f64 * scale) as u64;
    let rearms = scaled(mix.cancelled.min(mix.scheduled));
    let posts = scaled(mix.scheduled) - rearms;
    let pops = scaled(mix.popped);
    let mut rng = DetRng::seed_from_u64(seed ^ 0x5c4e_d000);

    // Draw post delays from the weighted mix.
    let mut cumulative = Vec::with_capacity(mix.delays.len());
    let mut weight_sum = 0u64;
    for &(delay, weight) in &mix.delays {
        weight_sum += weight;
        cumulative.push((weight_sum, delay));
    }
    let draw_delay = |rng: &mut DetRng| {
        if weight_sum == 0 {
            return Duration(1_000);
        }
        let ticket = rng.gen_range_u64(0, weight_sum);
        cumulative[cumulative.partition_point(|&(upto, _)| upto <= ticket)].1
    };

    // Interleave the three op kinds evenly (largest remaining share next).
    let mut left = [posts, rearms, pops];
    let want = left;
    let mut ops = Vec::with_capacity((posts + rearms + pops) as usize);
    while left.iter().any(|&n| n > 0) {
        let k = (0..3)
            .filter(|&k| left[k] > 0)
            .max_by(|&a, &b| {
                let share = |k: usize| left[k] as f64 / want[k] as f64;
                share(a).total_cmp(&share(b))
            })
            .expect("some op is left");
        left[k] -= 1;
        ops.push(match k {
            0 => SchedOp::Post(draw_delay(&mut rng)),
            1 => SchedOp::Rearm,
            _ => SchedOp::Pop,
        });
    }

    const STANDING: u64 = u64::MAX;
    let mut q = SchedulerKind::default().build::<u64>();
    for _ in 0..mix.live {
        q.post(Time::ZERO + draw_delay(&mut rng), STANDING);
    }
    let flows = mix.flows.max(1);
    let mut timers: Vec<TimerId> = (0..flows)
        .map(|i| q.schedule(Time::ZERO + STANDING_DEADLINE, i as u64))
        .collect();

    let calls = posts + 2 * rearms + pops;
    let (_, secs) = t.batch("sim.sched_replay", calls, || {
        let mut now = Time::ZERO;
        let mut next = 0usize;
        for &op in &ops {
            match op {
                SchedOp::Post(delay) => q.post(now + delay, STANDING),
                SchedOp::Rearm => {
                    timers[next] = q.rearm(timers[next], now + STANDING_DEADLINE, next as u64);
                    next = (next + 1) % flows;
                }
                SchedOp::Pop => {
                    if let Some((at, who)) = q.pop() {
                        now = at;
                        if who != STANDING {
                            // A standing timer fired: its handle is spent,
                            // so give the flow a fresh one.
                            timers[who as usize] = q.schedule(now + STANDING_DEADLINE, who);
                        }
                    }
                }
            }
        }
        black_box(q.len())
    });
    ns_per(secs, calls)
}

// ---------------------------------------------------------------------------
// ds: the flow map at the workload's flow count
// ---------------------------------------------------------------------------

pub struct DetMapCost {
    pub get_ns: f64,
    pub churn_ns: f64,
    pub sorted_view_ns: f64,
}

/// `DetMap<FlowId, u64>` (the control plane's per-flow byte table) at
/// `n` keys: point lookups, remove+insert churn, and a walk of the warm
/// sorted view, each per key.
pub fn detmap_cost(t: &mut Tracer, n: usize) -> DetMapCost {
    let n = n.max(1);
    let passes = (400_000 / n).max(1);
    let keys: Vec<FlowId> = (0..n).map(FlowId::from).collect();
    let mut map: DetMap<FlowId, u64> = DetMap::new();
    for (i, &k) in keys.iter().enumerate() {
        map.insert(k, i as u64);
    }
    let calls = (passes * n) as u64;
    let (_, get_s) = t.batch("ds.detmap_get", calls, || {
        let mut acc = 0u64;
        for _ in 0..passes {
            for k in &keys {
                acc = acc.wrapping_add(*map.get(k).expect("key present"));
            }
        }
        black_box(acc)
    });
    let (_, churn_s) = t.batch("ds.detmap_churn", calls, || {
        for _ in 0..passes {
            for &k in &keys {
                let v = map.remove(&k).expect("key present");
                map.insert(k, v);
            }
        }
        black_box(map.len())
    });
    // The churn dirtied the sorted cache; the first walk rebuilds it. The
    // metric is the steady state: repeated walks over a stable key set.
    black_box(map.sorted_iter().count());
    let (_, sorted_s) = t.batch("ds.sorted_view", calls, || {
        let mut acc = 0u64;
        for _ in 0..passes {
            for (_, &v) in map.sorted_iter() {
                acc = acc.wrapping_add(v);
            }
        }
        black_box(acc)
    });
    DetMapCost {
        get_ns: ns_per(get_s, calls),
        churn_ns: ns_per(churn_s, calls),
        sorted_view_ns: ns_per(sorted_s, calls),
    }
}

// ---------------------------------------------------------------------------
// net / fq / core: qdisc replay
// ---------------------------------------------------------------------------

/// One step of a replayed link: offer a packet, or pull one.
#[derive(Clone)]
pub enum LinkOp {
    Enqueue(Time, Packet),
    Dequeue(Time),
}

impl LinkOp {
    fn at(&self) -> Time {
        match self {
            LinkOp::Enqueue(at, _) | LinkOp::Dequeue(at) => *at,
        }
    }
}

fn packet_of(r: &TraceRecord) -> Packet {
    if r.is_ack {
        Packet::ack(r.flow, r.seq, false, r.at, false, r.at)
    } else {
        let payload = r.size.saturating_sub(HEADER_BYTES).clamp(1, MSS);
        Packet::data(r.flow, r.seq, payload, r.is_retx, r.at)
    }
}

/// The ops each of `links` saw, from one pass over the trace: every
/// packet that reached the qdisc (enqueues and qdisc drops —
/// `offered_stream`'s definition) is offered again, and every dequeue is
/// pulled again.
pub fn link_ops(trace: &PacketTrace, links: &[LinkId]) -> Vec<Vec<LinkOp>> {
    let mut per_link: Vec<Vec<LinkOp>> = links.iter().map(|_| Vec::new()).collect();
    for r in trace.records() {
        let Some(i) = links.iter().position(|&l| l == r.link) else {
            continue;
        };
        match r.event {
            TraceEvent::Drop(DropReason::Injected) => {}
            TraceEvent::Enqueue | TraceEvent::Drop(_) => {
                per_link[i].push(LinkOp::Enqueue(r.at, packet_of(r)))
            }
            TraceEvent::Dequeue => per_link[i].push(LinkOp::Dequeue(r.at)),
        }
    }
    per_link
}

#[derive(Clone, Copy, Debug, Default)]
pub struct QdiscCost {
    /// Host seconds in `enqueue`/`dequeue`.
    pub secs: f64,
    /// Packets offered.
    pub offered: u64,
    /// Host seconds in `control`, and the number of calls.
    pub control_secs: f64,
    pub control_calls: u64,
}

impl QdiscCost {
    /// ns per offered packet: its enqueue plus its share of dequeues.
    pub fn ns_per_pkt(&self) -> f64 {
        ns_per(self.secs, self.offered)
    }

    pub fn control_ns_per_call(&self) -> f64 {
        ns_per(self.control_secs, self.control_calls)
    }

    pub fn add(&mut self, other: QdiscCost) {
        self.secs += other.secs;
        self.offered += other.offered;
        self.control_secs += other.control_secs;
        self.control_calls += other.control_calls;
    }
}

/// Replay `ops` into a fresh `qdisc`, calling `control` at the instants it
/// asks for. The batch span covers the whole replay; control calls are
/// rare and microseconds long, so each is timed on its own and subtracted.
pub fn replay_qdisc(
    t: &mut Tracer,
    name: &'static str,
    mut qdisc: Box<dyn Qdisc>,
    ops: Vec<LinkOp>,
) -> QdiscCost {
    let offered = ops
        .iter()
        .filter(|op| matches!(op, LinkOp::Enqueue(..)))
        .count() as u64;
    let mut control_secs = 0.0;
    let mut control_calls = 0u64;
    let (_, total_secs) = t.batch(name, ops.len() as u64, || {
        let mut next_control = qdisc.activate(Time::ZERO);
        for op in ops {
            while let Some(due) = next_control.filter(|&due| due <= op.at()) {
                let (next, secs) = host::timed(|| qdisc.control(due));
                next_control = next;
                control_secs += secs;
                control_calls += 1;
            }
            match op {
                LinkOp::Enqueue(at, pkt) => {
                    let _ = black_box(qdisc.enqueue(pkt, at));
                }
                LinkOp::Dequeue(at) => {
                    black_box(qdisc.dequeue(at));
                }
            }
        }
        black_box(qdisc.stats().tx_pkts)
    });
    QdiscCost {
        secs: (total_secs - control_secs).max(0.0),
        offered,
        control_secs,
        control_calls,
    }
}

pub fn fifo(buffer: BufferConfig) -> Box<dyn Qdisc> {
    Box::new(cebinae_net::FifoQdisc::new(buffer))
}

pub fn fqcodel(buffer: BufferConfig) -> Box<dyn Qdisc> {
    Box::new(FqCoDelQdisc::new(FqCoDelConfig::ideal_with_limit(
        buffer.bytes,
    )))
}

pub fn afq(buffer: BufferConfig) -> Box<dyn Qdisc> {
    Box::new(AfqQdisc::new(AfqConfig {
        limit_bytes: buffer.bytes,
        ..AfqConfig::default()
    }))
}

pub fn cebinae(cfg: &CebinaeConfig, rate_bps: u64, seed: u64) -> Box<dyn Qdisc> {
    Box::new(CebinaeQdisc::new(cfg.clone(), rate_bps, seed))
}

/// The aggregate leaky-bucket filter alone, over the offered packets of
/// `ops`: ns per `classify`, rotations applied at the round boundaries.
pub fn lbf_ns_per_classify(
    t: &mut Tracer,
    cfg: &CebinaeConfig,
    rate_bps: u64,
    ops: &[LinkOp],
) -> f64 {
    let offered: Vec<(Time, u32)> = ops
        .iter()
        .filter_map(|op| match op {
            LinkOp::Enqueue(at, pkt) => Some((*at, pkt.size)),
            LinkOp::Dequeue(_) => None,
        })
        .collect();
    let calls = offered.len() as u64;
    let (_, secs) = t.batch("core.lbf_classify", calls, || {
        let mut clock = RoundClock::new(cfg.dt, cfg.vdt, Time::ZERO);
        let mut grp = GroupLbf::new(rate_bps as f64);
        let mut headq = 0usize;
        let mut next_rotation = clock.next_rotation();
        for &(at, size) in &offered {
            while next_rotation <= at {
                grp.on_rotate(headq, cfg.dt);
                clock.rotate();
                headq = 1 - headq;
                next_rotation = clock.next_rotation();
            }
            clock.observe(at);
            black_box(grp.classify(size, &clock, headq));
        }
    });
    ns_per(secs, calls)
}

/// The control-plane recompute (paper Fig. 4) over a per-flow byte table
/// of `flows` entries: ns per call.
pub fn agent_ns_per_recompute(
    t: &mut Tracer,
    cfg: &CebinaeConfig,
    rate_bps: u64,
    flows: usize,
) -> f64 {
    let window = cfg.window();
    let port_bytes = (rate_bps as f64 / 8.0 * window.as_secs_f64()) as u64;
    // A mildly skewed table that sums to a saturated window, so the
    // bottleneck-set search and the rate split both run.
    let mut flow_bytes: DetMap<FlowId, u64> = DetMap::new();
    let weight_sum: u64 = (0..flows as u64).map(|i| 1 + i % 7).sum();
    for i in 0..flows {
        flow_bytes.insert(
            FlowId::from(i),
            port_bytes * (1 + i as u64 % 7) / weight_sum.max(1),
        );
    }
    let input = RecomputeInput {
        port_bytes,
        capacity_bps: rate_bps,
        window,
        flow_bytes: &flow_bytes,
    };
    let calls = (200_000 / flows.max(1)).clamp(16, 4096) as u64;
    let (_, secs) = t.batch("core.agent_recompute", calls, || {
        for _ in 0..calls {
            black_box(recompute(cfg, black_box(&input)));
        }
    });
    ns_per(secs, calls)
}

/// The heavy-hitter cache on the Figure 13 light trace model: ns per
/// `update`, with a poll-and-reset at each round interval as the qdisc
/// does. Workload-independent.
pub fn cache_ns_per_update(t: &mut Tracer, seed: u64) -> f64 {
    let interval = Duration::from_millis(20);
    let trace = SyntheticTrace::generate(
        fig13::light_trace_cfg(interval),
        &mut experiment_rng("ledger-cache-trace", seed),
    );
    let mut rng = experiment_rng("ledger-cache-replay", seed);
    let end = Time::ZERO + trace.cfg.duration;
    let mut rounds = Vec::new();
    let mut from = Time::ZERO;
    while from + interval <= end {
        let truth = trace.interval_flow_bytes(from, from + interval);
        rounds.push(interval_packets(&truth, &mut rng));
        from += interval;
    }
    let calls: u64 = rounds.iter().map(|r| r.len() as u64).sum();
    let defaults = CebinaeConfig::default();
    let mut cache = HeavyHitterCache::new(defaults.cache_stages, defaults.cache_slots, seed);
    let (_, secs) = t.batch("core.cache_update", calls, || {
        for round in &rounds {
            for &(flow, size) in round {
                cache.update(flow, u64::from(size));
            }
            black_box(cache.poll_and_reset());
        }
    });
    ns_per(secs, calls)
}

// ---------------------------------------------------------------------------
// scaling sweep: qdisc cost against flow count
// ---------------------------------------------------------------------------

pub const SWEEP_FLOWS: [usize; 3] = [64, 4096, 65536];
const SWEEP_PKTS: usize = 4 * 65536;
const SWEEP_RATE_BPS: u64 = 10_000_000_000;
const SWEEP_BUFFER_MTUS: u64 = 4096;

/// A synthetic round-robin stream over `flows` flows at line rate: a
/// backlog of up to 2048 packets builds first, then every arrival is
/// matched by a departure, then the backlog drains.
fn sweep_ops(flows: usize) -> Vec<LinkOp> {
    let gap = cebinae_sim::tx_time(u64::from(DATA_FRAME_BYTES), SWEEP_RATE_BPS);
    let backlog = flows.min(2048);
    let mut ops = Vec::with_capacity(2 * SWEEP_PKTS);
    let mut at = Time::ZERO;
    for i in 0..SWEEP_PKTS {
        at += gap;
        let seq = (i / flows) as u64 * u64::from(MSS);
        ops.push(LinkOp::Enqueue(
            at,
            Packet::data(FlowId::from(i % flows), seq, MSS, false, at),
        ));
        if i >= backlog {
            ops.push(LinkOp::Dequeue(at));
        }
    }
    for _ in 0..backlog {
        at += gap;
        ops.push(LinkOp::Dequeue(at));
    }
    ops
}

/// ns per packet of Cebinae, FQ-CoDel and AFQ at each of [`SWEEP_FLOWS`]:
/// the measured companion to the paper's Eq. 1 / Table 3 scaling argument.
pub fn scaling_sweep(t: &mut Tracer, seed: u64) -> [[f64; 3]; 3] {
    let buffer = BufferConfig::mtus(SWEEP_BUFFER_MTUS);
    let mut cfg = CebinaeConfig::for_link(SWEEP_RATE_BPS, buffer, Duration::from_millis(50));
    cfg.p = 1;
    let mut out = [[0.0; 3]; 3];
    for (col, &flows) in SWEEP_FLOWS.iter().enumerate() {
        out[0][col] = replay_qdisc(
            t,
            "sweep.cebinae",
            cebinae(&cfg, SWEEP_RATE_BPS, seed),
            sweep_ops(flows),
        )
        .ns_per_pkt();
        out[1][col] =
            replay_qdisc(t, "sweep.fqcodel", fqcodel(buffer), sweep_ops(flows)).ns_per_pkt();
        out[2][col] = replay_qdisc(t, "sweep.afq", afq(buffer), sweep_ops(flows)).ns_per_pkt();
    }
    out
}

// ---------------------------------------------------------------------------
// transport: a sender/receiver pair in a fixed-delay pipe
// ---------------------------------------------------------------------------

/// One-way delay of the pipe (so the RTT is 20 ms).
const PIPE_DELAY: Duration = Duration(10_000_000);

/// A `TcpSender`/`TcpReceiver` pair joined by a lossless (unless told to
/// drop) fixed-delay pipe with no bottleneck: the receiver window pins the
/// flight at `window_segs`, so per-ACK cost is measured at a known window.
/// Time advances a window at a time: the receiver turns every segment in
/// flight into an ACK (one batch), then the sender consumes every ACK
/// (one batch), which puts the next window in flight.
pub struct Pipe {
    sender: TcpSender,
    receiver: TcpReceiver,
    /// Segments in flight toward the receiver, in send order.
    data: VecDeque<Packet>,
    pace_at: Option<Time>,
    now: Time,
    /// Host seconds and calls of the sender batches, while timing is on.
    pub ack_secs: f64,
    pub acks: u64,
    pub max_flight_segs: u64,
}

impl Pipe {
    pub fn new(cc: CcKind, window_segs: u64) -> Pipe {
        let mut cfg = TcpConfig::with_cc(cc);
        cfg.rwnd = window_segs * u64::from(MSS);
        let flow = FlowId::from(0usize);
        let mut pipe = Pipe {
            sender: TcpSender::new(flow, cfg),
            receiver: TcpReceiver::new(flow),
            data: VecDeque::new(),
            pace_at: None,
            now: Time::ZERO,
            ack_secs: 0.0,
            acks: 0,
            max_flight_segs: 0,
        };
        let out = pipe.sender.start(Time::ZERO);
        pipe.absorb(out);
        pipe
    }

    fn absorb(&mut self, out: TcpOutput) {
        self.data.extend(out.packets);
        if out.pace_at.is_some() {
            self.pace_at = out.pace_at;
        }
    }

    /// Fire the pace timer for as long as it is due by `until`.
    fn pace_until(&mut self, until: Time) {
        while let Some(at) = self.pace_at.filter(|&at| at <= until) {
            self.pace_at = None;
            let out = self.sender.on_pace_timer(at);
            self.absorb(out);
        }
    }

    pub fn flight_segs(&self) -> u64 {
        self.sender.flight() / u64::from(MSS)
    }

    /// Move one window through the pipe. `drop_every` loses every n-th
    /// segment of this window on the way to the receiver. Sender time is
    /// added to `ack_secs`/`acks` when `timed`, inside a span of `t`.
    pub fn round(&mut self, t: &mut Tracer, drop_every: Option<u64>, timed: bool) {
        if self.data.is_empty() {
            // Everything is waiting on the pacer.
            let until = self.pace_at.unwrap_or(self.now);
            self.pace_until(until);
        }
        let mut acks = Vec::with_capacity(self.data.len());
        for (i, pkt) in self.data.drain(..).enumerate() {
            if drop_every.is_some_and(|n| (i as u64 + 1).is_multiple_of(n)) {
                continue;
            }
            let arrives = pkt.sent_at + PIPE_DELAY;
            acks.push(self.receiver.on_data(&pkt, arrives));
        }
        let calls = acks.len() as u64;
        let (_, secs) = t.batch("transport.ack_batch", calls, || {
            for ack in acks {
                let PacketKind::Ack {
                    ack_seq,
                    ece,
                    echo_ts,
                    echo_retx,
                    sack,
                } = ack.kind
                else {
                    unreachable!("receivers emit ACKs");
                };
                let at = ack.sent_at + PIPE_DELAY;
                self.pace_until(at);
                self.now = at;
                let out = self
                    .sender
                    .on_ack(ack_seq, ece, echo_ts, echo_retx, &sack, at);
                self.absorb(out);
            }
        });
        if timed {
            self.ack_secs += secs;
            self.acks += calls;
        }
        self.max_flight_segs = self.max_flight_segs.max(self.flight_segs());
    }

    /// Run untimed rounds until the flight fills the window (or `rounds`
    /// pass).
    pub fn ramp_up(&mut self, t: &mut Tracer, window_segs: u64, rounds: usize) {
        for _ in 0..rounds {
            if self.flight_segs() >= window_segs {
                break;
            }
            self.round(t, None, false);
        }
    }
}

/// ns per ACK of a `cc` sender holding `window_segs` segments in flight,
/// over about `target_acks` ACKs.
pub fn ack_ns(t: &mut Tracer, cc: CcKind, window_segs: u64, target_acks: u64) -> (f64, u64) {
    let mut pipe = Pipe::new(cc, window_segs);
    pipe.ramp_up(t, window_segs, 64);
    while pipe.acks < target_acks {
        pipe.round(t, None, true);
    }
    (ns_per(pipe.ack_secs, pipe.acks), pipe.max_flight_segs)
}

/// ns per ACK through loss recovery: a fresh sender ramps to the window,
/// then one window loses every 100th segment and the ACKs of that window
/// and of the next (SACK blocks, scoreboard marking, retransmissions) are
/// timed. Repeated until about `target_acks` ACKs are timed.
pub fn ack_ns_loss(t: &mut Tracer, window_segs: u64, target_acks: u64) -> f64 {
    let (mut secs, mut acks) = (0.0, 0u64);
    while acks < target_acks {
        let mut pipe = Pipe::new(CcKind::NewReno, window_segs);
        pipe.ramp_up(t, window_segs, 64);
        pipe.round(t, Some(100), true);
        pipe.round(t, None, true);
        secs += pipe.ack_secs;
        acks += pipe.acks.max(1);
    }
    ns_per(secs, acks)
}

/// ns per segment at the receiver, in order and with every block of eight
/// segments arriving back to front (the out-of-order buffer path).
pub fn rx_ns_per_seg(t: &mut Tracer) -> (f64, f64) {
    const SEGS: u64 = 1 << 17;
    let flow = FlowId::from(0usize);
    let seg = |i: u64| Packet::data(flow, i * u64::from(MSS), MSS, false, Time(i * 1_000));
    let in_order: Vec<Packet> = (0..SEGS).map(seg).collect();
    let reversed_blocks: Vec<Packet> = (0..SEGS).map(|i| seg(i / 8 * 8 + (7 - i % 8))).collect();
    let mut cost = |name: &'static str, pkts: &[Packet]| {
        let mut rx = TcpReceiver::new(flow);
        let (_, secs) = t.batch(name, SEGS, || {
            for (i, pkt) in pkts.iter().enumerate() {
                black_box(rx.on_data(pkt, Time(i as u64 * 1_000)));
            }
        });
        assert_eq!(
            rx.delivered(),
            SEGS * u64::from(MSS),
            "receiver must reassemble the whole stream"
        );
        ns_per(secs, SEGS)
    };
    (
        cost("transport.rx_in_order", &in_order),
        cost("transport.rx_out_of_order", &reversed_blocks),
    )
}

// ---------------------------------------------------------------------------
// telemetry: one scrape + sample at the workload's size
// ---------------------------------------------------------------------------

/// ns per `Registry::sample` carrying what the engine scrapes for `ports`
/// monitored ports and `flows` flows.
pub fn telemetry_sample_ns(t: &mut Tracer, ports: usize, flows: usize) -> f64 {
    const PORT_COUNTERS: [&str; 9] = [
        "enq_pkts",
        "enq_bytes",
        "drop_pkts",
        "drop_bytes",
        "drop_queued_pkts",
        "drop_queued_bytes",
        "tx_pkts",
        "tx_bytes",
        "ecn_marked",
    ];
    const FLOW_GAUGES: [&str; 4] = ["cwnd", "flight", "srtt_ns", "in_recovery"];
    const FLOW_COUNTERS: [&str; 3] = ["retx", "rto", "delivered_bytes"];
    let calls = (2_000 / flows.max(1)).clamp(2, 64) as u64;
    let (_, secs) = t.batch("telemetry.sample", calls, || {
        let mut tel = Registry::new();
        for s in 0..calls {
            for p in 0..ports {
                let scope = Scope::Port(p as u32);
                for name in PORT_COUNTERS {
                    tel.set_counter(scope, name, s);
                }
                tel.set(scope, "queued_bytes", s);
                tel.observe(scope, "occupancy_bytes", s);
            }
            for f in 0..flows {
                let scope = Scope::Flow(f as u32);
                for name in FLOW_GAUGES {
                    tel.set(scope, name, s);
                }
                for name in FLOW_COUNTERS {
                    tel.set_counter(scope, name, s);
                }
            }
            tel.sample(s * 100_000_000);
        }
        black_box(tel.ndjson().len())
    });
    ns_per(secs, calls)
}
