//! The TCP sender state machine.
//!
//! Responsibilities: sequence-space bookkeeping, loss detection and
//! recovery (SACK-based pipe accounting per RFC 6675, matching the paper's
//! ns-3.35 stack), RTO with exponential backoff and go-back-N, RTT sampling
//! under Karn's rule, delivery-rate samples for BBR, optional pacing, and
//! ECN reaction (once per window, RFC 3168 style). Window *policy* is
//! delegated to the pluggable [`CongestionControl`]; the per-segment
//! SACK/loss state lives in the `scoreboard` module.
//!
//! The sender is callback-free: every entry point returns a [`TcpOutput`]
//! describing packets to transmit and timer adjustments, which the engine
//! applies. This keeps the state machine purely functional with respect to
//! the simulator and directly unit-testable. The per-event calls (`on_ack`,
//! `on_pace_timer`) also have `_into` forms writing into a caller-owned
//! `TcpOutput`, which the engine reuses across events.

use cebinae_net::{Ecn, FlowId, Packet, SackBlocks, MSS};
use cebinae_sim::{Duration, Time};

use crate::cc::{AckEvent, CcKind, CongestionControl, RateSample, MSS_BYTES};
use crate::rtt::RttEstimator;
use crate::scoreboard::{Scoreboard, SendStamp};

const RTO_MIN: Duration = Duration(200_000_000);
const RTO_MAX: Duration = Duration(60_000_000_000);
/// Duplicate-ACK threshold for fast retransmit.
const DUPACK_THRESHOLD: u32 = 3;

/// Transport configuration for one flow.
#[derive(Clone, Debug)]
pub struct TcpConfig {
    pub cc: CcKind,
    /// Negotiate ECN: data packets are sent ECT and the sender reacts to
    /// ECE once per window.
    pub ecn: bool,
    /// Application demand in bytes; `None` = unlimited (the paper's
    /// "infinite demand" long-lived flows).
    pub app_bytes: Option<u64>,
    /// Receiver window: hard cap on unacknowledged bytes (the advertised
    /// window of a real connection). At most [`MAX_RWND`]: a receiver's
    /// SACK blocks end at most about `rwnd` above its cumulative ACK, and
    /// [`SackBlocks`] carries them as 32-bit offsets from it.
    pub rwnd: u64,
}

/// Largest [`TcpConfig::rwnd`] (2 GiB): half the 32-bit SACK offset
/// range, so no block can reach 4 GiB above the ACK it rides on.
pub const MAX_RWND: u64 = 1 << 31;

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            cc: CcKind::NewReno,
            ecn: false,
            app_bytes: None,
            rwnd: 16 * 1024 * 1024,
        }
    }
}

impl TcpConfig {
    pub fn with_cc(cc: CcKind) -> TcpConfig {
        TcpConfig {
            cc,
            ..TcpConfig::default()
        }
    }
}

/// Timer adjustment requested by the sender.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimerAction {
    /// (Re)arm the RTO to fire at this absolute time.
    Set(Time),
    /// Disarm (no data outstanding).
    Cancel,
}

/// Result of processing one sender event.
#[derive(Debug, Default)]
pub struct TcpOutput {
    /// Packets to inject at the host's egress, in order.
    pub packets: Vec<Packet>,
    /// RTO timer adjustment, if any.
    pub rto: Option<TimerAction>,
    /// If set, the sender is pacing and wants a wakeup at this time.
    pub pace_at: Option<Time>,
}

impl TcpOutput {
    /// Forget the previous event's timer requests (the `_into` entry rule).
    fn reset_timers(&mut self) {
        self.rto = None;
        self.pace_at = None;
    }
}

/// Where the sender stands with respect to loss.
#[derive(Clone, Copy, PartialEq, Eq)]
enum State {
    /// No loss episode in progress.
    Open,
    /// Fast recovery, until a cumulative ACK reaches `recover` (`snd_nxt`
    /// when it was entered).
    Recovery { recover: u64 },
    /// Go-back-N after an RTO, until `snd_una` reaches `recover` (`snd_nxt`
    /// when the timer fired): dup-ACKs and SACKs from the pre-RTO flight
    /// must not start a fast-recovery episode (they describe losses the
    /// go-back-N already answered).
    Loss { recover: u64 },
}

/// One TCP sender endpoint.
pub struct TcpSender {
    flow: FlowId,
    cfg: TcpConfig,
    cc: Box<dyn CongestionControl>,
    rtt: RttEstimator,

    /// Oldest unacknowledged byte.
    snd_una: u64,
    /// Next byte to send.
    snd_nxt: u64,
    /// Unacknowledged segments and the SACK/loss accounting over them.
    sb: Scoreboard,

    dup_acks: u32,
    state: State,

    /// Total bytes known delivered — advanced by cumulative ACKs *and* by
    /// SACKs as they arrive (Linux `tp->delivered` semantics). Counting
    /// SACKed bytes at SACK time keeps delivery-rate samples smooth: a
    /// healed hole then contributes only its own bytes, not the megabytes
    /// of buffered out-of-order data behind it.
    delivered: u64,
    delivered_time: Time,

    /// ECN: sequence before which further ECE signals are ignored
    /// (one reduction per window).
    ecn_reacted_until: u64,

    /// RTO backoff exponent.
    rto_backoff: u32,

    /// Earliest time the pacer allows the next transmission.
    next_send_time: Time,

    /// Send time anchoring the current rate-sample window (Linux
    /// `first_tx_mstamp`): reset when the pipe empties, advanced to each
    /// newest-delivered packet's send time.
    first_sent_time: Time,

    /// Retransmissions emitted (diagnostic).
    pub retx_count: u64,
    /// RTO events taken (diagnostic).
    pub rto_count: u64,

    started: bool,
}

impl TcpSender {
    pub fn new(flow: FlowId, cfg: TcpConfig) -> TcpSender {
        assert!(
            cfg.rwnd <= MAX_RWND,
            "flow {flow}: rwnd {} exceeds {MAX_RWND}, the bound of 32-bit SACK offsets",
            cfg.rwnd
        );
        TcpSender {
            flow,
            cc: cfg.cc.build(),
            cfg,
            rtt: RttEstimator::new(RTO_MIN, RTO_MAX),
            snd_una: 0,
            snd_nxt: 0,
            sb: Scoreboard::new(MSS),
            dup_acks: 0,
            state: State::Open,
            delivered: 0,
            delivered_time: Time::ZERO,
            ecn_reacted_until: 0,
            rto_backoff: 0,
            next_send_time: Time::ZERO,
            first_sent_time: Time::ZERO,
            retx_count: 0,
            rto_count: 0,
            started: false,
        }
    }

    /// Begin transmitting (flow start event).
    pub fn start(&mut self, now: Time) -> TcpOutput {
        let mut out = TcpOutput::default();
        self.start_into(now, &mut out);
        out
    }

    /// [`start`](Self::start) into a caller-owned buffer (see
    /// [`on_ack_into`](Self::on_ack_into)).
    pub fn start_into(&mut self, now: Time, out: &mut TcpOutput) {
        out.reset_timers();
        debug_assert!(!self.started, "start called twice");
        self.started = true;
        self.delivered_time = now;
        self.maybe_send(now, out);
        self.arm_rto(now, out);
    }

    /// Process an incoming cumulative ACK.
    pub fn on_ack(
        &mut self,
        ack_seq: u64,
        ece: bool,
        echo_ts: Time,
        echo_retx: bool,
        sack: &SackBlocks,
        now: Time,
    ) -> TcpOutput {
        let mut out = TcpOutput::default();
        self.on_ack_into(ack_seq, ece, echo_ts, echo_retx, sack, now, &mut out);
        out
    }

    /// [`on_ack`](Self::on_ack) into a caller-owned buffer. The `_into`
    /// form of every sender call lets a caller that keeps one `TcpOutput`
    /// allocate nothing per event: each resets `rto` and `pace_at` on entry
    /// and *appends* to `packets`, which the caller drains before the next
    /// call.
    #[allow(clippy::too_many_arguments)] // `on_ack`'s six, plus the buffer
    pub fn on_ack_into(
        &mut self,
        ack_seq: u64,
        ece: bool,
        echo_ts: Time,
        echo_retx: bool,
        sack: &SackBlocks,
        now: Time,
        out: &mut TcpOutput,
    ) {
        out.reset_timers();
        if !self.started {
            return;
        }

        // RTT sample (Karn: never from an ACK triggered by a retransmission).
        let rtt_sample = if !echo_retx && echo_ts != Time::ZERO && now >= echo_ts {
            let s = now.saturating_since(echo_ts);
            self.rtt.on_sample(s);
            Some(s)
        } else {
            None
        };

        let newly_acked = ack_seq.saturating_sub(self.snd_una);
        let mut rate_sample = None;

        if newly_acked > 0 {
            self.rto_backoff = 0;
            // Remove fully-acked segments; remember the newest for the rate
            // sample. Bytes already counted at SACK time count only once.
            let (fresh, newest) = self.sb.cum_ack(self.snd_una, ack_seq);
            self.delivered += fresh;
            self.snd_una = ack_seq;
            self.delivered_time = now;
            if let Some(m) = newest {
                // tcp_rate semantics: the sample interval is the longer of
                // the ack-side and send-side intervals, so burst deliveries
                // of data that was *sent* over a long span cannot inflate
                // the bandwidth estimate.
                let ack_int = now.saturating_since(m.stamp.delivered_time);
                let snd_int = m.stamp.sent_at.saturating_since(m.stamp.first_sent_at);
                let elapsed = ack_int.max(snd_int);
                self.first_sent_time = m.stamp.sent_at;
                // Karn's rule for rate samples: a retransmission-anchored
                // sample attributes a whole healed chunk to a short
                // interval, wildly inflating the bandwidth estimate.
                if !m.retx && elapsed.as_nanos() > 0 {
                    rate_sample = Some(RateSample {
                        delivery_rate: (self.delivered - m.stamp.delivered) as f64
                            / elapsed.as_secs_f64(),
                        is_app_limited: m.app_limited,
                        delivered_total: self.delivered,
                        delivered_at_send: m.stamp.delivered,
                    });
                }
            }
        }

        // SACK processing.
        let mut newly_lost = 0;
        if !sack.is_empty() {
            let reo_wnd = self.rtt.srtt().unwrap_or(Duration::from_millis(100));
            let (fresh, lost) = self.sb.apply_sack(sack.iter(ack_seq), self.snd_una, now, reo_wnd);
            self.delivered += fresh;
            newly_lost = lost;
        }

        if newly_acked > 0 {
            match self.state {
                State::Recovery { recover } if ack_seq >= recover => self.exit_recovery(),
                // A partial ACK: the pipe loop retransmits the next hole.
                State::Recovery { .. } => {}
                State::Open | State::Loss { .. } => self.dup_acks = 0,
            }
        } else if ack_seq == self.snd_una && self.sb.flight() > 0 {
            self.dup_acks += 1;
        }
        // Checked on every ACK, not only those that advance: a late ACK for
        // a pre-RTO flight can carry `snd_una` past the rewound `snd_nxt`,
        // and an RTO taken then records a mark already behind `snd_una`.
        if matches!(self.state, State::Loss { recover } if self.snd_una >= recover) {
            self.state = State::Open;
        }
        // Dup-ACKs, or SACKs even while cumulative ACKs advance, reveal loss.
        if self.state == State::Open && self.loss_detected() {
            self.enter_recovery();
        }

        // ECN reaction, once per window of data.
        if ece && self.cfg.ecn && self.snd_una >= self.ecn_reacted_until {
            self.ecn_reacted_until = self.snd_nxt;
            self.cc.on_ecn();
        }

        self.cc.on_ack(&AckEvent {
            now,
            newly_acked,
            rtt: rtt_sample,
            min_rtt: self.rtt.min_rtt(),
            newly_lost,
            flight: self.sb.pipe(),
            in_recovery: self.in_recovery(),
            rate: rate_sample,
        });

        self.maybe_send(now, out);
        // RFC 6298 (5.3): restart the RTO only when new data is acked (or
        // everything is acked — cancel). Dup-ACKs must NOT push the timer,
        // or a lost retransmission could evade it forever.
        if newly_acked > 0 || self.sb.flight() == 0 {
            self.arm_rto(now, out);
        }
    }

    /// The retransmission timer fired; writes into a caller-owned buffer
    /// (see [`on_ack_into`](Self::on_ack_into)).
    pub fn on_rto_timer_into(&mut self, now: Time, out: &mut TcpOutput) {
        out.reset_timers();
        if !self.started || self.sb.flight() == 0 {
            return;
        }
        self.rto_count += 1;
        // Go-back-N: everything outstanding is presumed lost.
        self.state = State::Loss { recover: self.snd_nxt };
        self.cc.on_rto(self.sb.flight());
        self.sb.clear(self.snd_una);
        self.snd_nxt = self.snd_una;
        self.dup_acks = 0;
        self.rto_backoff = (self.rto_backoff + 1).min(10);
        self.next_send_time = now;
        self.maybe_send(now, out);
        self.arm_rto(now, out);
    }

    /// Pacing wakeup.
    pub fn on_pace_timer(&mut self, now: Time) -> TcpOutput {
        let mut out = TcpOutput::default();
        self.on_pace_timer_into(now, &mut out);
        out
    }

    /// [`on_pace_timer`](Self::on_pace_timer) into a caller-owned buffer
    /// (see [`on_ack_into`](Self::on_ack_into)).
    pub fn on_pace_timer_into(&mut self, now: Time, out: &mut TcpOutput) {
        out.reset_timers();
        if !self.started {
            return;
        }
        self.maybe_send(now, out);
        // Known deviation (DESIGN §4d): this restarts a running RTO on every
        // pace wake-up, which RFC 6298 §5.1 does not.
        self.arm_rto(now, out);
    }

    // ----- internals -----

    /// RFC 6675's entry condition: the dup-ACK threshold, or as much
    /// SACKed data above a hole.
    fn loss_detected(&self) -> bool {
        self.dup_acks >= DUPACK_THRESHOLD
            || (self.sb.lost_bytes() > 0
                && self.sb.sacked_bytes() >= u64::from(DUPACK_THRESHOLD) * MSS_BYTES)
    }

    fn enter_recovery(&mut self) {
        self.state = State::Recovery { recover: self.snd_nxt };
        self.cc.on_loss();
        if self.sb.lost_bytes() == 0 {
            // Dup-ACK-triggered without SACK evidence: mark the front
            // segment lost so the pipe loop retransmits it.
            self.sb.mark_lost_at(self.snd_una);
        }
    }

    fn exit_recovery(&mut self) {
        self.state = State::Open;
        self.dup_acks = 0;
    }

    /// What a segment leaving at `now` records for its rate sample.
    fn stamp(&self, now: Time) -> SendStamp {
        SendStamp {
            delivered: self.delivered,
            delivered_time: self.delivered_time,
            sent_at: now,
            first_sent_at: self.first_sent_time,
        }
    }

    fn emit(&self, seq: u64, len: u32, is_retx: bool, now: Time, out: &mut TcpOutput) {
        let mut pkt = Packet::data(self.flow, seq, len, is_retx, now);
        if self.cfg.ecn {
            pkt.ecn = Ecn::Capable;
        }
        out.packets.push(pkt);
    }

    /// Remaining unsent application bytes.
    fn app_remaining(&self) -> u64 {
        match self.cfg.app_bytes {
            Some(total) => total.saturating_sub(self.snd_nxt),
            None => u64::MAX,
        }
    }

    fn maybe_send(&mut self, now: Time, out: &mut TcpOutput) {
        let pacing = self.cc.pacing_rate();
        loop {
            // A retransmission takes priority over new data.
            let retx_seq = self.sb.next_lost(self.snd_una);
            let remaining = self.app_remaining();
            if retx_seq.is_none() && remaining == 0 {
                break;
            }
            // The window charges the SACK pipe; an empty pipe may always
            // send one segment.
            let pipe = self.sb.pipe();
            if pipe + MSS_BYTES > self.cc.cwnd() && pipe != 0 {
                break;
            }
            // Advertised-window cap on raw unacked bytes (bounds memory when
            // the pipe drains via SACK while a front hole persists).
            if retx_seq.is_none() && self.sb.flight() + MSS_BYTES > self.cfg.rwnd {
                break;
            }
            if let Some(rate) = pacing {
                if now < self.next_send_time {
                    out.pace_at = Some(self.next_send_time);
                    break;
                }
                if rate > 0.0 {
                    // Clamp the inter-packet gap: a transiently tiny rate
                    // estimate must not push the pacer into the far future.
                    let delta = Duration::from_secs_f64(MSS as f64 / rate)
                        .min(Duration::from_millis(100));
                    let base = if self.next_send_time > now {
                        self.next_send_time
                    } else {
                        now
                    };
                    self.next_send_time = base + delta;
                }
            }
            if let Some(seq) = retx_seq {
                let len = self.sb.retransmit(seq, self.stamp(now));
                self.retx_count += 1;
                self.emit(seq, len, true, now, out);
                continue;
            }
            // New data.
            let len = (remaining.min(MSS_BYTES)) as u32; // det-ok: min() clamps to mss, which is u32
            let app_limited = remaining <= MSS_BYTES && self.cfg.app_bytes.is_some();
            let seq = self.snd_nxt;
            if self.sb.flight() == 0 {
                self.first_sent_time = now;
            }
            self.sb.push(seq, len, self.stamp(now), app_limited);
            self.snd_nxt += len as u64;
            self.emit(seq, len, false, now, out);
        }
    }

    fn arm_rto(&mut self, now: Time, out: &mut TcpOutput) {
        if self.sb.flight() == 0 {
            out.rto = Some(TimerAction::Cancel);
        } else {
            let rto = Duration(self.rtt.rto().as_nanos() << self.rto_backoff).min(RTO_MAX);
            out.rto = Some(TimerAction::Set(now + rto));
        }
    }

    // ----- accessors for the engine and metrics -----

    pub fn flow(&self) -> FlowId {
        self.flow
    }

    pub fn cwnd(&self) -> u64 {
        self.cc.cwnd()
    }

    pub fn flight(&self) -> u64 {
        self.sb.flight()
    }

    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    pub fn srtt(&self) -> Option<Duration> {
        self.rtt.srtt()
    }

    pub fn min_rtt(&self) -> Option<Duration> {
        self.rtt.min_rtt()
    }

    pub fn in_recovery(&self) -> bool {
        matches!(self.state, State::Recovery { .. })
    }

    /// All application data sent and acknowledged.
    pub fn is_complete(&self) -> bool {
        match self.cfg.app_bytes {
            Some(total) => self.snd_una >= total,
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cebinae_net::PacketKind;

    const NOSACK: &SackBlocks = &SackBlocks::EMPTY;

    fn sender(cc: CcKind) -> TcpSender {
        TcpSender::new(FlowId(0), TcpConfig::with_cc(cc))
    }

    fn data_seq(p: &Packet) -> (u64, bool) {
        match p.kind {
            PacketKind::Data { seq, is_retx } => (seq, is_retx),
            _ => panic!("expected data packet"),
        }
    }

    fn sack1(ack_seq: u64, start: u64, end: u64) -> SackBlocks {
        SackBlocks::new(ack_seq, &[(start, end)])
    }

    /// The scoreboard's invariants, plus those that span calls: `delivered`
    /// never goes back, nothing SACKed is retransmitted, and a call that
    /// sent anything left the pipe within the window (`flight()` may exceed
    /// it: that gauge counts SACKed and lost bytes too).
    fn check(s: &TcpSender, delivered_before: u64, out: &TcpOutput) {
        s.sb.check_invariants();
        assert!(s.delivered >= delivered_before, "delivered went backwards");
        for (seq, is_retx) in out.packets.iter().map(data_seq) {
            assert!(!(is_retx && s.sb.is_sacked(seq)), "retransmitted SACKed segment {seq}");
        }
        if !out.packets.is_empty() {
            let cap = s.cc.cwnd().max(MSS_BYTES);
            assert!(s.sb.pipe() <= cap, "pipe {} over the window {cap}", s.sb.pipe());
        }
    }

    /// `on_ack`, then [`check`].
    fn ack(
        s: &mut TcpSender,
        ack_seq: u64,
        ece: bool,
        echo_ts: Time,
        echo_retx: bool,
        sack: &SackBlocks,
        now: Time,
    ) -> TcpOutput {
        let before = s.delivered;
        let out = s.on_ack(ack_seq, ece, echo_ts, echo_retx, sack, now);
        check(s, before, &out);
        out
    }

    /// `on_rto_timer_into`, then [`check`].
    fn rto(s: &mut TcpSender, now: Time) -> TcpOutput {
        let before = s.delivered;
        let mut out = TcpOutput::default();
        s.on_rto_timer_into(now, &mut out);
        check(s, before, &out);
        out
    }

    #[test]
    fn delivered_never_double_counts_across_rto() {
        // Sack some data, then RTO (clearing the seg map), then let the
        // cumulative ack cover the same bytes: delivered must count each
        // byte once.
        let m = MSS as u64;
        let mut s = sender(CcKind::NewReno);
        s.start(Time::from_millis(1));
        // SACK segments 2..5 (3 segs counted via SACK).
        ack(&mut s, 0, false, Time::ZERO, false, &sack1(0, 2 * m, 5 * m), Time::from_millis(20));
        let after_sack = s.delivered();
        assert_eq!(after_sack, 3 * m);
        // RTO clears everything.
        rto(&mut s, Time::from_secs(1));
        // Cumulative ack to 5 segs: only segs 0,1 are new bytes.
        ack(&mut s, 5 * m, false, Time::ZERO, false, NOSACK, Time::from_secs(1) + Duration::from_millis(20));
        assert_eq!(s.delivered(), 5 * m, "each byte counted exactly once");
    }

    #[test]
    fn start_sends_initial_window() {
        let mut s = sender(CcKind::NewReno);
        let out = s.start(Time::from_millis(1));
        assert_eq!(out.packets.len(), 10, "IW10");
        assert!(matches!(out.rto, Some(TimerAction::Set(_))));
        for (i, p) in out.packets.iter().enumerate() {
            assert_eq!(data_seq(p).0, i as u64 * MSS as u64);
        }
        assert_eq!(s.flight(), 10 * MSS as u64);
    }

    #[test]
    fn acks_advance_and_release_new_data() {
        let mut s = sender(CcKind::NewReno);
        s.start(Time::from_millis(1));
        let now = Time::from_millis(21);
        let out = ack(&mut s, MSS as u64, false, Time::from_millis(1), false, NOSACK, now);
        assert_eq!(out.packets.len(), 2, "slow start releases 2 per ack");
        assert_eq!(s.delivered(), MSS as u64);
        assert_eq!(s.srtt(), Some(Duration::from_millis(20)));
    }

    #[test]
    fn sack_triggers_selective_retransmissions() {
        let mut s = sender(CcKind::NewReno);
        s.start(Time::from_millis(1));
        // Segment 0 lost; receiver sacks [1..5) MSS via dup ACKs.
        let m = MSS as u64;
        let mut retx = Vec::new();
        for i in 1..5u64 {
            let out = ack(&mut s, 
                0,
                false,
                Time::ZERO,
                false,
                &sack1(0, i * m, (i + 1) * m),
                Time::from_millis(20 + i),
            );
            retx.extend(out.packets.iter().filter(|p| data_seq(p).1).map(|p| data_seq(p).0));
        }
        assert_eq!(retx, vec![0], "hole 0 retransmitted exactly once");
        assert!(s.in_recovery());
    }

    #[test]
    fn sack_multiple_holes_retransmit_within_pipe() {
        let mut s = sender(CcKind::NewReno);
        s.start(Time::from_millis(1));
        let m = MSS as u64;
        // Segments 0..10 outstanding; receiver got 3, 5, and 7..10 only.
        let blocks = SackBlocks::new(0, &[(3 * m, 4 * m), (5 * m, 6 * m), (7 * m, 10 * m)]);
        let out = ack(&mut s, 0, false, Time::ZERO, false, &blocks, Time::from_millis(21));
        let retx: Vec<_> = out
            .packets
            .iter()
            .filter(|p| data_seq(p).1)
            .map(|p| data_seq(p).0)
            .collect();
        // Holes below high_sacked: 0,1,2,4,6 — pipe has plenty of room
        // (5 of 10 segs sacked, cwnd at least halved from 10).
        assert!(retx.contains(&0), "retx {retx:?}");
        assert!(retx.contains(&(4 * m)), "retx {retx:?}");
        assert!(retx.contains(&(6 * m)), "retx {retx:?}");
        assert!(s.in_recovery());
    }

    #[test]
    fn sack_burst_loss_recovers_without_rto() {
        // Half a large window dropped at once: recovery completes purely
        // via fast retransmissions (no RTO) and without spurious retransmits.
        let mut s = sender(CcKind::NewReno);
        let mut r = crate::receiver::TcpReceiver::new(FlowId(0));
        let mut now = Time::from_millis(100);
        let mut net: std::collections::VecDeque<Packet> = s.start(now).packets.into();
        let m = MSS as u64;

        let mut delivered_pkts = 0u64;
        let mut dropped = 0u64;
        let mut rto_fired = false;
        let mut rto_at: Option<Time> = None;
        let mut steps = 0;
        while steps < 20_000 {
            steps += 1;
            now += Duration::from_millis(1);
            if let Some(pkt) = net.pop_front() {
                delivered_pkts += 1;
                // Drop every 2nd first-transmission in the 100..200 packet
                // range: a ~50-segment burst loss mid-window.
                let (seq, is_retx) = data_seq(&pkt);
                let idx = seq / m;
                if !is_retx && (100..200).contains(&idx) && idx.is_multiple_of(2) {
                    dropped += 1;
                    continue;
                }
                let PacketKind::Ack { ack_seq, ece, echo_ts, echo_retx, sack } =
                    r.on_data(&pkt, now).kind
                else { unreachable!() };
                let out = ack(&mut s, ack_seq, ece, echo_ts, echo_retx, &sack, now);
                net.extend(out.packets);
                match out.rto {
                    Some(TimerAction::Set(t)) => rto_at = Some(t),
                    Some(TimerAction::Cancel) => rto_at = None,
                    None => {}
                }
                if r.delivered() >= 400 * m {
                    break;
                }
            } else if let Some(t) = rto_at {
                now = now.max(t);
                rto_fired = true;
                let out = rto(&mut s, now);
                net.extend(out.packets);
                match out.rto {
                    Some(TimerAction::Set(t)) => rto_at = Some(t),
                    Some(TimerAction::Cancel) => rto_at = None,
                    None => {}
                }
            } else {
                break;
            }
        }
        assert!(dropped >= 40, "burst must have happened: {dropped}");
        assert!(r.delivered() >= 400 * m, "session must progress past the burst");
        assert!(!rto_fired, "SACK recovery must not need an RTO");
        assert!(
            s.retx_count <= dropped + 5,
            "retransmissions ({}) should be ≈ drops ({dropped})",
            s.retx_count
        );
        let _ = delivered_pkts;
    }

    #[test]
    fn full_ack_exits_recovery() {
        let mut s = sender(CcKind::NewReno);
        s.start(Time::from_millis(1));
        let m = MSS as u64;
        for i in 1..5u64 {
            ack(&mut s, 
                0,
                false,
                Time::ZERO,
                false,
                &sack1(0, i * m, (i + 1) * m),
                Time::from_millis(20 + i),
            );
        }
        assert!(s.in_recovery());
        let State::Recovery { recover } = s.state else { unreachable!() };
        ack(&mut s, recover, false, Time::ZERO, false, NOSACK, Time::from_millis(40));
        assert!(!s.in_recovery());
    }

    #[test]
    fn rto_goes_back_n() {
        let mut s = sender(CcKind::NewReno);
        s.start(Time::from_millis(1));
        assert!(s.flight() > 0);
        let out = rto(&mut s, Time::from_secs(2));
        assert_eq!(out.packets.len(), 1);
        assert_eq!(data_seq(&out.packets[0]).0, 0);
        assert_eq!(s.flight(), MSS as u64);
        assert_eq!(s.cwnd(), MSS as u64);
    }

    #[test]
    fn rto_backoff_doubles() {
        let mut s = sender(CcKind::NewReno);
        s.start(Time::from_millis(1));
        let out1 = rto(&mut s, Time::from_secs(1));
        let Some(TimerAction::Set(t1)) = out1.rto else { panic!() };
        let d1 = t1.saturating_since(Time::from_secs(1));
        let out2 = rto(&mut s, Time::from_secs(10));
        let Some(TimerAction::Set(t2)) = out2.rto else { panic!() };
        let d2 = t2.saturating_since(Time::from_secs(10));
        assert_eq!(d2.as_nanos(), d1.as_nanos() * 2);
    }

    #[test]
    fn finite_demand_completes() {
        let mut cfg = TcpConfig::with_cc(CcKind::NewReno);
        cfg.app_bytes = Some(3 * MSS as u64 + 100);
        let mut s = TcpSender::new(FlowId(0), cfg);
        let out = s.start(Time::from_millis(1));
        assert_eq!(out.packets.len(), 4, "3 full + 1 partial segment");
        assert_eq!(out.packets[3].payload_bytes(), 100);
        let fin = 3 * MSS as u64 + 100;
        let out = ack(&mut s, fin, false, Time::from_millis(1), false, NOSACK, Time::from_millis(10));
        assert!(s.is_complete());
        assert!(out.packets.is_empty());
        assert_eq!(out.rto, Some(TimerAction::Cancel));
    }

    #[test]
    fn karn_rule_skips_retx_samples() {
        let mut s = sender(CcKind::NewReno);
        s.start(Time::from_millis(1));
        ack(&mut s, MSS as u64, false, Time::ZERO, true, NOSACK, Time::from_millis(500));
        assert_eq!(s.srtt(), None, "retx-triggered ACK must not sample RTT");
    }

    #[test]
    fn ecn_reduces_once_per_window() {
        let mut cfg = TcpConfig::with_cc(CcKind::NewReno);
        cfg.ecn = true;
        let mut s = TcpSender::new(FlowId(0), cfg);
        s.start(Time::from_millis(1));
        let w0 = s.cwnd();
        ack(&mut s, MSS as u64, true, Time::from_millis(1), false, NOSACK, Time::from_millis(20));
        let w1 = s.cwnd();
        assert!(w1 < w0, "ECE must reduce cwnd");
        ack(&mut s, 2 * MSS as u64, true, Time::from_millis(1), false, NOSACK, Time::from_millis(21));
        assert!(s.cwnd() >= w1, "second ECE in-window must not reduce again");
    }

    #[test]
    fn bbr_sender_paces() {
        let mut s = sender(CcKind::Bbr);
        let out = s.start(Time::from_millis(1));
        assert!(!out.packets.is_empty());
        let mut now = Time::from_millis(1);
        let mut acked = 0u64;
        let mut saw_pace = false;
        for _ in 0..200 {
            now += Duration::from_millis(5);
            acked += MSS as u64;
            let out = ack(&mut s, acked, false, now - Duration::from_millis(5), false, NOSACK, now);
            saw_pace |= out.pace_at.is_some();
        }
        assert!(saw_pace, "BBR should eventually request pacing wakeups");
    }

    /// ROADMAP's `transport.max_flight_segs` lead: BBR's 2×BDP window is
    /// applied to the pipe, so `flight()` (every unacknowledged byte, SACKed
    /// and lost included) may pass it while holes are open; `check` holds
    /// the pipe itself to the window on every step.
    #[test]
    fn bbr_window_caps_the_pipe_while_flight_exceeds_it() {
        // A 1000-segment BDP: 20 ms RTT behind a link serving one segment
        // per 20 µs. Both directions are FIFO, so deques stay time-ordered.
        let (one_way, per_seg) = (Duration::from_millis(10), Duration::from_micros(20));
        let lossy = Time::from_millis(200)..Time::from_millis(210);
        let mut s = sender(CcKind::Bbr);
        let mut r = crate::receiver::TcpReceiver::new(FlowId(0));
        let mut data = std::collections::VecDeque::<(Time, Packet)>::new();
        let mut acks = std::collections::VecDeque::<(Time, Packet)>::new();
        let (mut link_free, mut pace_at, mut rto_at) = (Time::ZERO, None, None);
        let mut now = Time::from_millis(1);
        let mut out = s.start(now);
        let mut widest_excess = 0;
        while now < Time::from_millis(260) {
            for pkt in out.packets.drain(..) {
                link_free = link_free.max(now) + per_seg;
                // Every other first transmission sent in the lossy span.
                let (seq, is_retx) = data_seq(&pkt);
                if !(lossy.contains(&now) && !is_retx && (seq / MSS_BYTES).is_multiple_of(2)) {
                    data.push_back((link_free + one_way, pkt));
                }
            }
            match out.rto {
                Some(TimerAction::Set(t)) => rto_at = Some(t),
                Some(TimerAction::Cancel) => rto_at = None,
                None => {}
            }
            pace_at = out.pace_at.or(pace_at);
            if s.flight() > s.cwnd() {
                widest_excess = widest_excess.max(s.cwnd());
            }

            let arrivals = [data.front().map(|d| d.0), acks.front().map(|a| a.0), pace_at, rto_at];
            let (which, at) = (0..4)
                .filter_map(|i| arrivals[i].map(|t| (i, t)))
                .min_by_key(|&(i, t)| (t, i))
                .expect("the RTO is armed while data is outstanding");
            now = at;
            let before = s.delivered;
            out = match which {
                0 => {
                    let (_, pkt) = data.pop_front().expect("peeked");
                    acks.push_back((now + one_way, r.on_data(&pkt, now)));
                    out = TcpOutput::default();
                    continue;
                }
                1 => {
                    let PacketKind::Ack { ack_seq, ece, echo_ts, echo_retx, sack } =
                        acks.pop_front().expect("peeked").1.kind
                    else { unreachable!() };
                    s.on_ack(ack_seq, ece, echo_ts, echo_retx, &sack, now)
                }
                2 => {
                    pace_at = None;
                    s.on_pace_timer(now)
                }
                _ => {
                    let mut out = TcpOutput::default();
                    s.on_rto_timer_into(now, &mut out);
                    out
                }
            };
            check(&s, before, &out);
        }
        assert!(s.retx_count >= 100, "the holes were repaired: {} retransmissions", s.retx_count);
        assert!(
            widest_excess >= 1024 * MSS_BYTES,
            "flight passed a window of {} segments",
            widest_excess / MSS_BYTES
        );
    }

    #[test]
    fn accounting_invariants_hold() {
        // Mixed clean acks and sacks, half of them landing mid-segment;
        // `ack` checks the scoreboard after every one.
        let mut s = sender(CcKind::Cubic);
        s.start(Time::from_millis(1));
        let m = MSS as u64;
        let mut now = Time::from_millis(1);
        for i in 0..50u64 {
            now += Duration::from_millis(10);
            let ack_seq = i * m / 2;
            let sack = sack1(ack_seq, ack_seq + 2 * m, ack_seq + 3 * m);
            ack(&mut s, ack_seq, false, now - Duration::from_millis(10), false, &sack, now);
        }
    }

    #[test]
    fn sacked_segments_are_never_retransmitted() {
        let mut s = sender(CcKind::NewReno);
        s.start(Time::from_millis(1));
        let m = MSS as u64;
        let blocks = sack1(0, m, 4 * m);
        let mut retx = Vec::new();
        for i in 0..6 {
            let out = ack(&mut s, 0, false, Time::ZERO, false, &blocks, Time::from_millis(20 + i));
            retx.extend(out.packets.iter().filter(|p| data_seq(p).1).map(|p| data_seq(p).0));
        }
        for seq in &retx {
            assert!(
                !(m..4 * m).contains(seq),
                "sacked range retransmitted: {seq}"
            );
        }
    }

    #[test]
    fn rwnd_up_to_the_sack_offset_bound_is_accepted() {
        let cfg = TcpConfig { rwnd: MAX_RWND, ..TcpConfig::default() };
        TcpSender::new(FlowId(0), cfg);
    }

    #[test]
    #[should_panic(expected = "flow f3: rwnd 2147483649 exceeds 2147483648")]
    fn rwnd_past_the_sack_offset_bound_panics() {
        let cfg = TcpConfig { rwnd: MAX_RWND + 1, ..TcpConfig::default() };
        TcpSender::new(FlowId(3), cfg);
    }
}
