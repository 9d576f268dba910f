//! Behaviour pin for the TCP endpoints: `TcpSender`/`TcpReceiver` pairs
//! driven through a seeded lossy, reordering, duplicating pipe, with the
//! whole `TcpOutput` stream fingerprinted.
//!
//! The engine-level digests (check corpus, `identity_snapshot`) only see
//! what the sender does on the paper's scenarios. This drives the sender
//! through what those rarely reach — flights of 12 000 segments with
//! hundreds of holes, ACK loss and reordering, spurious RTOs whose late
//! ACKs overtake the rewound `snd_nxt`, back-to-back RTOs — and hashes
//! every packet, timer action and counter it produces. The expected
//! values were captured on the `BTreeMap` scoreboard (the commit before
//! `crates/transport/src/scoreboard.rs` existed); a change to the
//! scoreboard's data structures must leave every one of them alone.

use std::collections::BTreeMap;

use cebinae_ds::{fnv1a_bytes, FNV_OFFSET};
use cebinae_repro::net::{Ecn, FlowId, Packet, PacketKind, MSS};
use cebinae_repro::sim::rng::DetRng;
use cebinae_repro::sim::{Duration, Time};
use cebinae_repro::transport::{
    CcKind, TcpConfig, TcpOutput, TcpReceiver, TcpSender, TimerAction,
};

/// One-way delay of the pipe: a 20 ms RTT.
const ONE_WAY: Duration = Duration(10_000_000);
const RTT_NS: u64 = 2 * ONE_WAY.0;

/// Sender calls after which a session stops wherever its timeline is. Only
/// BBR at 12 000 segments gets here (it holds the window full
/// through every clean stretch): it stops after the blackout's RTOs and
/// the second lossy span.
const MAX_CALLS: u64 = 400_000;

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(FNV_OFFSET)
    }

    fn word(&mut self, w: u64) {
        self.0 = fnv1a_bytes(self.0, &w.to_le_bytes());
    }
}

/// What the pipe does to traffic sent at a given instant.
#[derive(Clone, Copy, Default)]
struct Weather {
    data_loss: f64,
    ack_loss: f64,
    /// Probability a packet (either way) is held back by up to one RTT.
    reorder: f64,
    dup: f64,
    /// Probability a data packet arrives CE-marked.
    ce: f64,
    /// Extra delay on everything sent now (a spurious-RTO maker).
    spike: Duration,
}

/// Lengths, in RTTs, of the timeline's stretches for one window size.
#[derive(Clone, Copy)]
struct Timeline {
    /// Clean RTTs that let slow start reach the window.
    ramp: u64,
    /// Length of each lossy span.
    span: u64,
}

impl Timeline {
    /// Enough ACKs at small windows to see many recoveries, few enough at
    /// 12 000 segments that an unoptimised build finishes.
    fn for_window(window_segs: u64) -> Timeline {
        match window_segs {
            0..=64 => Timeline { ramp: 4, span: 60 },
            65..=2048 => Timeline { ramp: 10, span: 20 },
            _ => Timeline { ramp: 14, span: 6 },
        }
    }

    /// RTTs until the last lossy span ends.
    fn rtts(self) -> u64 {
        self.ramp + self.span + 25 + (25 + self.ramp) + self.span + 1 + (20 + self.ramp) + self.span
    }
}

/// The timeline, in RTTs since the start: clean ramp-ups separate three
/// lossy spans, a delay spike and a data blackout. An RTO needs 10 RTTs of
/// silence (`rto_min` is 200 ms), so the spike and the blackout are that
/// long whatever the window.
fn weather(rtt_index: u64, Timeline { ramp, span }: Timeline) -> Weather {
    let mut at = ramp;
    let mut within = |len: u64| {
        let hit = (at..at + len).contains(&rtt_index);
        at += len;
        hit
    };
    let clean = Weather::default();
    if within(span) {
        // The t2r14_fifo regime: one in ten segments dropped.
        return Weather { data_loss: 0.10, reorder: 0.01, ..clean };
    }
    if within(25) {
        // Blackout: two RTOs with backoff (200 ms, then 400 ms).
        return Weather { data_loss: 1.0, ..clean };
    }
    if within(25 + ramp) {
        return clean;
    }
    if within(span) {
        return Weather {
            data_loss: 0.03,
            ack_loss: 0.01,
            reorder: 0.02,
            dup: 0.01,
            ce: 1.0 / 64.0,
            ..clean
        };
    }
    if within(1) {
        // One RTT of traffic arrives 350 ms late: the sender times out,
        // goes back N, and is then overtaken by ACKs for the old flight.
        return Weather { spike: Duration::from_millis(350), ..clean };
    }
    if within(20 + ramp) {
        return clean;
    }
    if within(span) {
        return Weather { data_loss: 0.02, ack_loss: 0.20, reorder: 0.10, dup: 0.05, ..clean };
    }
    clean
}

struct Session {
    sender: TcpSender,
    receiver: TcpReceiver,
    rng: DetRng,
    /// Packets in the pipe, by arrival time then send order.
    pipe: BTreeMap<(u64, u64), Packet>,
    sent: u64,
    rto_at: Option<Time>,
    pace_at: Option<Time>,
    timeline: Timeline,
    hash: Fnv,
    calls: u64,
    max_flight: u64,
    /// A second sender driven the engine's way, through one `TcpOutput`
    /// reused across every call: start, ACKs, pace wake-ups and RTOs all
    /// write into it (`TcpSender::*_into`). See [`Session::mirror`].
    twin: Option<(TcpSender, TcpOutput)>,
}

/// An ECN sender whose receiver window is `window_segs` segments.
fn sender(cc: CcKind, window_segs: u64) -> TcpSender {
    let mut cfg = TcpConfig::with_cc(cc);
    cfg.rwnd = window_segs * u64::from(MSS);
    cfg.ecn = true;
    TcpSender::new(FlowId(0), cfg)
}

impl Session {
    fn new(cc: CcKind, window_segs: u64, seed: u64) -> Session {
        Session {
            sender: sender(cc, window_segs),
            receiver: TcpReceiver::new(FlowId(0)),
            rng: DetRng::seed_from_u64(seed),
            pipe: BTreeMap::new(),
            sent: 0,
            rto_at: None,
            pace_at: None,
            timeline: Timeline::for_window(window_segs),
            hash: Fnv::new(),
            calls: 0,
            max_flight: 0,
            twin: None,
        }
    }

    /// Make the call `out` answered on the twin too, into its reused
    /// buffer, and require the same packets and timer requests. The buffer
    /// is drained as the engine drains it; its `rto`/`pace_at` are left
    /// for the next call to reset.
    fn mirror(&mut self, out: &TcpOutput, call: impl FnOnce(&mut TcpSender, &mut TcpOutput)) {
        let Some((twin, buf)) = &mut self.twin else { return };
        call(twin, buf);
        let wire = |p: &Packet| (p.flow, p.size, p.kind, p.ecn, p.sent_at, p.hop, p.corrupted);
        assert!(
            buf.packets.iter().map(wire).eq(out.packets.iter().map(wire)),
            "call {}: packets differ",
            self.calls
        );
        assert_eq!((buf.rto, buf.pace_at), (out.rto, out.pace_at), "call {}", self.calls);
        buf.packets.clear();
    }

    /// Put `pkt`, sent at `now`, into the pipe under the current weather.
    fn launch(&mut self, pkt: &Packet, now: Time) {
        let w = weather(now.as_nanos() / RTT_NS, self.timeline);
        let mut pkt = pkt.clone();
        let loss = if pkt.is_data() {
            if self.rng.gen_bool(w.ce) {
                pkt.ecn = Ecn::CongestionExperienced;
            }
            w.data_loss
        } else {
            w.ack_loss
        };
        if self.rng.gen_bool(loss) {
            return;
        }
        let copies = if self.rng.gen_bool(w.dup) { 2 } else { 1 };
        for _ in 0..copies {
            let mut delay = ONE_WAY.0 + w.spike.0;
            if self.rng.gen_bool(w.reorder) {
                delay += self.rng.gen_range_u64(0, RTT_NS);
            }
            self.sent += 1;
            self.pipe.insert((now.as_nanos() + delay, self.sent), pkt.clone());
        }
    }

    /// Fingerprint one sender call and act on what it asked for.
    fn absorb(&mut self, tag: u64, out: TcpOutput, now: Time) {
        self.calls += 1;
        self.hash.word(tag);
        self.hash.word(now.as_nanos());
        self.hash.word(out.packets.len() as u64);
        for pkt in &out.packets {
            let PacketKind::Data { seq, is_retx } = pkt.kind else {
                panic!("senders emit data");
            };
            self.hash.word(seq);
            self.hash.word(u64::from(is_retx));
            self.hash.word(u64::from(pkt.size));
            self.hash.word(u64::from(pkt.ecn == Ecn::Capable));
            self.hash.word(pkt.sent_at.as_nanos());
        }
        match out.rto {
            None => self.hash.word(0),
            Some(TimerAction::Cancel) => {
                self.hash.word(1);
                self.rto_at = None;
            }
            Some(TimerAction::Set(t)) => {
                self.hash.word(2);
                self.hash.word(t.as_nanos());
                self.rto_at = Some(t);
            }
        }
        match out.pace_at {
            None => self.hash.word(0),
            Some(t) => {
                self.hash.word(1);
                self.hash.word(t.as_nanos());
                self.pace_at = Some(t);
            }
        }
        let s = &self.sender;
        for w in [
            s.delivered(),
            s.retx_count,
            s.rto_count,
            s.flight(),
            s.cwnd(),
            u64::from(s.in_recovery()),
            s.srtt().map_or(0, |d| d.as_nanos()),
        ] {
            self.hash.word(w);
        }
        self.max_flight = self.max_flight.max(s.flight() / u64::from(MSS));
        for pkt in &out.packets {
            self.launch(pkt, now);
        }
    }

    /// Run the timeline and `tail` clean RTTs after it.
    fn run(&mut self, tail: u64) {
        let end = (self.timeline.rtts() + tail) * RTT_NS;
        let out = self.sender.start(Time::ZERO);
        self.mirror(&out, |s, buf| s.start_into(Time::ZERO, buf));
        self.absorb(1, out, Time::ZERO);
        loop {
            let arrival = self.pipe.first_key_value().map(|(&(t, _), _)| t);
            // Earliest of: a packet arriving, the pacer, the RTO (ties in
            // that order).
            let timers = [arrival, self.pace_at.map(Time::as_nanos), self.rto_at.map(Time::as_nanos)];
            let Some((which, at)) = timers
                .iter()
                .enumerate()
                .filter_map(|(i, t)| t.map(|t| (i, t)))
                .min_by_key(|&(i, t)| (t, i))
            else {
                break;
            };
            if at >= end || self.calls >= MAX_CALLS {
                break;
            }
            let now = Time(at);
            match which {
                0 => {
                    let (_, pkt) = self.pipe.pop_first().expect("peeked");
                    self.deliver(&pkt, now);
                }
                1 => {
                    self.pace_at = None;
                    let out = self.sender.on_pace_timer(now);
                    self.mirror(&out, |s, buf| s.on_pace_timer_into(now, buf));
                    self.absorb(3, out, now);
                }
                _ => {
                    self.rto_at = None;
                    let mut out = TcpOutput::default();
                    self.sender.on_rto_timer_into(now, &mut out);
                    self.mirror(&out, |s, buf| s.on_rto_timer_into(now, buf));
                    self.absorb(4, out, now);
                }
            }
        }
    }

    fn deliver(&mut self, pkt: &Packet, now: Time) {
        match pkt.kind {
            PacketKind::Data { .. } => {
                let ack = self.receiver.on_data(pkt, now);
                self.launch(&ack, now);
            }
            PacketKind::Ack { ack_seq, ece, echo_ts, echo_retx, sack } => {
                let out = self.sender.on_ack(ack_seq, ece, echo_ts, echo_retx, &sack, now);
                self.mirror(&out, |s, buf| {
                    s.on_ack_into(ack_seq, ece, echo_ts, echo_retx, &sack, now, buf)
                });
                self.absorb(2, out, now);
            }
        }
    }
}

struct Case {
    /// Offset of the session's seed from `0xceb1`. Each session was
    /// recorded beside a non-SACK twin that took the odd offset; keeping
    /// the even ones keeps the fingerprints the recorded literals.
    seed: u64,
    cc: CcKind,
    window_segs: u64,
    fingerprint: u64,
}

const fn case(seed: u64, cc: CcKind, window_segs: u64, fingerprint: u64) -> Case {
    Case { seed, cc, window_segs, fingerprint }
}

const CASES: [Case; 9] = [
    case(0, CcKind::NewReno, 16, 0x8329be6efdb278a2),
    case(2, CcKind::NewReno, 1024, 0xd5faf5d07327ee93),
    case(4, CcKind::NewReno, 12_000, 0x687a5f1317ffa894),
    case(6, CcKind::Cubic, 16, 0xb130f61272950db4),
    case(8, CcKind::Cubic, 1024, 0xdf91f13a7b97aea2),
    case(10, CcKind::Cubic, 12_000, 0xa5693e17e159a65a),
    case(12, CcKind::Bbr, 16, 0x0d69f9963cb74b0d),
    case(14, CcKind::Bbr, 1024, 0x0a3e99aa50e0e2f4),
    case(16, CcKind::Bbr, 12_000, 0xc1e9ec774902eebb),
];

fn run_case(c: &Case) -> Session {
    let mut s = Session::new(c.cc, c.window_segs, 0xceb1 + c.seed);
    s.run(2);
    s
}

/// The engine's calling convention — one `TcpOutput` reused by every call,
/// drained between them — answers every call of every session exactly as
/// the by-value methods do: a stale `rto` or `pace_at` would differ on the
/// first dup-ACK or unpaced call after one that set it.
#[test]
fn reused_output_buffer_matches_by_value_calls() {
    for c in &CASES {
        let mut s = Session::new(c.cc, c.window_segs, 0xceb1 + c.seed);
        s.twin = Some((sender(c.cc, c.window_segs), TcpOutput::default()));
        s.run(2);
    }
}

/// One test, so each session runs once: every fingerprint must match, and
/// — the pin is only worth something if the sessions reach the states the
/// scoreboard is built for — every session must have filled its window,
/// repaired losses and taken the forced RTOs.
#[test]
fn sender_transcripts_match_the_recorded_fingerprints() {
    let mut wrong = Vec::new();
    for c in &CASES {
        let s = run_case(c);
        let label = format!("{:?}/{}", c.cc, c.window_segs);
        assert!(s.sender.rto_count >= 2, "{label}: forced RTOs must fire");
        assert!(s.sender.retx_count > 0, "{label}: losses must be repaired");
        assert!(
            s.max_flight * 10 >= c.window_segs * 9,
            "{label}: flight {} never filled the {}-segment window",
            s.max_flight,
            c.window_segs
        );
        assert!(s.receiver.delivered() > 0 && s.receiver.dup_pkts > 0, "{label}");
        if s.hash.0 != c.fingerprint {
            wrong.push(format!(
                "    case({}, CcKind::{:?}, {}, {:#018x}), // calls {} retx {} rto {}",
                c.seed, c.cc, c.window_segs, s.hash.0, s.calls, s.sender.retx_count, s.sender.rto_count,
            ));
        }
    }
    assert!(wrong.is_empty(), "sender behaviour moved; measured:\n{}", wrong.join("\n"));
}
