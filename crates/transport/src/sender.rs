//! The TCP sender state machine.
//!
//! Responsibilities: sequence-space bookkeeping, loss detection and
//! recovery (SACK-based pipe accounting per RFC 6675 by default — matching
//! the paper's ns-3.35 stack — with a NewReno RFC 6582 fallback when SACK
//! is disabled), RTO with exponential backoff and go-back-N, RTT sampling
//! under Karn's rule, delivery-rate samples for BBR, optional pacing, and
//! ECN reaction (once per window, RFC 3168 style). Window *policy* is
//! delegated to the pluggable [`CongestionControl`]; the per-segment
//! SACK/loss state lives in the `scoreboard` module.
//!
//! The sender is callback-free: every entry point returns a [`TcpOutput`]
//! describing packets to transmit and timer adjustments, which the engine
//! applies. This keeps the state machine purely functional with respect to
//! the simulator and directly unit-testable.

use cebinae_net::{Ecn, FlowId, Packet, SackBlocks, MSS};
use cebinae_sim::{Duration, Time};

use crate::cc::{AckEvent, CcKind, CongestionControl, RateSample};
use crate::rtt::RttEstimator;
use crate::scoreboard::{Scoreboard, SendStamp};

/// Transport configuration for one flow.
#[derive(Clone, Debug)]
pub struct TcpConfig {
    pub cc: CcKind,
    /// Maximum segment size (payload bytes per packet).
    pub mss: u32,
    /// Initial window in segments (RFC 6928 default).
    pub init_cwnd_segs: u32,
    pub rto_min: Duration,
    pub rto_max: Duration,
    /// Negotiate ECN: data packets are sent ECT and the sender reacts to
    /// ECE once per window.
    pub ecn: bool,
    /// Use SACK-based recovery (RFC 6675-style pipe). Default on, as in
    /// ns-3.35 and every modern OS stack.
    pub sack: bool,
    /// Application demand in bytes; `None` = unlimited (the paper's
    /// "infinite demand" long-lived flows).
    pub app_bytes: Option<u64>,
    /// Duplicate-ACK threshold for fast retransmit.
    pub dupack_threshold: u32,
    /// Receiver window: hard cap on unacknowledged bytes (the advertised
    /// window of a real connection).
    pub rwnd: u64,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            cc: CcKind::NewReno,
            mss: MSS,
            init_cwnd_segs: 10,
            rto_min: Duration::from_millis(200),
            rto_max: Duration::from_secs(60),
            ecn: false,
            sack: true,
            app_bytes: None,
            dupack_threshold: 3,
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
    in_recovery: bool,
    /// Recovery point: `snd_nxt` when recovery was entered.
    recover: u64,
    /// High-water mark at the last RTO: until cumulatively acked, dup-ACKs
    /// from the pre-RTO flight must not trigger a fresh fast-recovery
    /// episode (they describe losses the go-back-N already answered).
    rto_recover: u64,
    /// RFC 6582 window inflation (non-SACK mode only).
    recovery_inflation: u64,

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
        let init_cwnd = cfg.init_cwnd_segs as u64 * cfg.mss as u64;
        let cc = cfg.cc.build(cfg.mss, init_cwnd);
        let rtt = RttEstimator::new(cfg.rto_min, cfg.rto_max);
        let sb = Scoreboard::new(cfg.mss);
        TcpSender {
            flow,
            cfg,
            cc,
            rtt,
            snd_una: 0,
            snd_nxt: 0,
            sb,
            dup_acks: 0,
            in_recovery: false,
            recover: 0,
            rto_recover: 0,
            recovery_inflation: 0,
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
        debug_assert!(!self.started, "start called twice");
        self.started = true;
        self.delivered_time = now;
        let mut out = TcpOutput::default();
        self.maybe_send(now, &mut out);
        self.arm_rto(now, &mut out);
        out
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
        if !self.started {
            return out;
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
                        delivered: newly_acked,
                        delivered_total: self.delivered,
                        delivered_at_send: m.stamp.delivered,
                    });
                }
            }
        }

        // SACK processing.
        let mut newly_lost = 0;
        if self.cfg.sack && !sack.is_empty() {
            let reo_wnd = self.rtt.srtt().unwrap_or(Duration::from_millis(100));
            let (fresh, lost) = self.sb.apply_sack(sack, self.snd_una, now, reo_wnd);
            self.delivered += fresh;
            newly_lost = lost;
        }

        if newly_acked > 0 {
            if self.in_recovery {
                if ack_seq >= self.recover {
                    self.exit_recovery(now);
                } else if !self.cfg.sack {
                    // NewReno partial ACK (RFC 6582): the next hole is also
                    // lost; retransmit it and deflate the inflated window.
                    self.recovery_inflation = self
                        .recovery_inflation
                        .saturating_sub(newly_acked)
                        + self.cfg.mss as u64;
                    self.retransmit_front(now, &mut out);
                }
            } else {
                self.dup_acks = 0;
            }
        } else if ack_seq == self.snd_una && self.sb.flight() > 0 {
            // Duplicate ACK.
            self.dup_acks += 1;
            if self.in_recovery {
                if !self.cfg.sack {
                    // RFC 6582 inflation, bounded by the flight.
                    self.recovery_inflation = (self.recovery_inflation
                        + self.cfg.mss as u64)
                        .min(self.sb.flight());
                }
            } else if self.loss_detected() && self.snd_una >= self.rto_recover {
                self.enter_recovery(now, &mut out);
            }
        }
        // SACK can reveal loss even while cumulative ACKs advance.
        if self.cfg.sack
            && !self.in_recovery
            && self.snd_una >= self.rto_recover
            && self.loss_detected()
        {
            self.enter_recovery(now, &mut out);
        }

        // ECN reaction, once per window of data.
        if ece && self.cfg.ecn && self.snd_una >= self.ecn_reacted_until {
            self.ecn_reacted_until = self.snd_nxt;
            self.cc.on_ecn(now, self.sb.flight());
        }

        self.cc.on_ack(&AckEvent {
            now,
            newly_acked,
            rtt: rtt_sample,
            min_rtt: self.rtt.min_rtt(),
            newly_lost,
            flight: self.sb.pipe(),
            in_recovery: self.in_recovery,
            rate: rate_sample,
            ece,
        });

        self.maybe_send(now, &mut out);
        // RFC 6298 (5.3): restart the RTO only when new data is acked (or
        // everything is acked — cancel). Dup-ACKs must NOT push the timer,
        // or a lost retransmission could evade it forever.
        if newly_acked > 0 || self.sb.flight() == 0 {
            self.arm_rto(now, &mut out);
        }
        out
    }

    /// The retransmission timer fired.
    pub fn on_rto_timer(&mut self, now: Time) -> TcpOutput {
        let mut out = TcpOutput::default();
        if !self.started || self.sb.flight() == 0 {
            return out;
        }
        self.rto_count += 1;
        // Go-back-N: everything outstanding is presumed lost.
        self.rto_recover = self.snd_nxt;
        self.cc.on_rto(now, self.sb.flight());
        self.sb.clear(self.snd_una);
        self.snd_nxt = self.snd_una;
        self.dup_acks = 0;
        self.in_recovery = false;
        self.recovery_inflation = 0;
        self.rto_backoff = (self.rto_backoff + 1).min(10);
        self.next_send_time = now;
        self.maybe_send(now, &mut out);
        self.arm_rto(now, &mut out);
        out
    }

    /// Pacing wakeup.
    pub fn on_pace_timer(&mut self, now: Time) -> TcpOutput {
        let mut out = TcpOutput::default();
        if !self.started {
            return out;
        }
        self.maybe_send(now, &mut out);
        self.arm_rto(now, &mut out);
        out
    }

    // ----- internals -----

    fn loss_detected(&self) -> bool {
        if self.dup_acks >= self.cfg.dupack_threshold {
            return true;
        }
        if self.cfg.sack {
            // RFC 6675 entry condition: enough SACKed data above a hole.
            return self.sb.lost_bytes() > 0
                && self.sb.sacked_bytes()
                    >= (self.cfg.dupack_threshold as u64) * self.cfg.mss as u64;
        }
        false
    }

    fn enter_recovery(&mut self, now: Time, out: &mut TcpOutput) {
        self.in_recovery = true;
        self.recover = self.snd_nxt;
        // RFC 6582 initial inflation (non-SACK mode).
        self.recovery_inflation = 3 * self.cfg.mss as u64;
        self.cc.on_loss(now, self.sb.flight());
        if !self.cfg.sack {
            self.retransmit_front(now, out);
        } else if self.sb.lost_bytes() == 0 {
            // Dup-ACK-triggered without SACK evidence: mark the front
            // segment lost so the pipe loop retransmits it.
            self.sb.mark_lost_at(self.snd_una);
        }
    }

    fn exit_recovery(&mut self, now: Time) {
        self.in_recovery = false;
        self.dup_acks = 0;
        self.recovery_inflation = 0;
        self.cc.on_recovery_exit(now);
    }

    /// Retransmit the segment at `snd_una` (non-SACK fast retransmit /
    /// partial-ACK path).
    fn retransmit_front(&mut self, now: Time, out: &mut TcpOutput) {
        let Some(len) = self.sb.restamp(self.snd_una, self.stamp(now)) else {
            return;
        };
        self.retx_count += 1;
        self.emit(self.snd_una, len, true, now, out);
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

    /// Effective congestion window for admission decisions.
    fn effective_window(&self) -> u64 {
        let mut w = self.cc.cwnd();
        if self.in_recovery && !self.cfg.sack && self.cc.reduces_on_loss() {
            w += self.recovery_inflation;
        }
        w
    }

    /// Bytes the window currently charges: the SACK pipe (accurate) or the
    /// raw flight (non-SACK mode, where lost data cannot be distinguished).
    fn outstanding(&self) -> u64 {
        if self.cfg.sack {
            self.sb.pipe()
        } else {
            self.sb.flight()
        }
    }

    /// Remaining unsent application bytes.
    fn app_remaining(&self) -> u64 {
        match self.cfg.app_bytes {
            Some(total) => total.saturating_sub(self.snd_nxt),
            None => u64::MAX,
        }
    }

    /// First lost, not-yet-retransmitted segment (SACK mode).
    fn next_lost_seg(&self) -> Option<u64> {
        if !self.cfg.sack {
            return None;
        }
        self.sb.next_lost(self.snd_una)
    }

    fn maybe_send(&mut self, now: Time, out: &mut TcpOutput) {
        let pacing = self.cc.pacing_rate();
        loop {
            // A SACK-driven retransmission takes priority over new data.
            let retx_seq = self.next_lost_seg();
            let remaining = self.app_remaining();
            if retx_seq.is_none() && remaining == 0 {
                break;
            }
            let window = self.effective_window();
            let outstanding = self.outstanding();
            let deadlocked = outstanding == 0;
            if outstanding + self.cfg.mss as u64 > window && !deadlocked {
                break;
            }
            // Advertised-window cap on raw unacked bytes (bounds memory when
            // the pipe drains via SACK while a front hole persists).
            if retx_seq.is_none() && self.sb.flight() + self.cfg.mss as u64 > self.cfg.rwnd {
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
                    let delta = Duration::from_secs_f64(self.cfg.mss as f64 / rate)
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
            let len = (remaining.min(self.cfg.mss as u64)) as u32; // det-ok: min() clamps to mss, which is u32
            let app_limited = remaining <= self.cfg.mss as u64 && self.cfg.app_bytes.is_some();
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
            let rto = Duration(self.rtt.rto().as_nanos() << self.rto_backoff)
                .min(self.cfg.rto_max);
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
        self.in_recovery
    }

    pub fn cc_name(&self) -> &'static str {
        self.cc.name()
    }

    /// All application data sent and acknowledged.
    pub fn is_complete(&self) -> bool {
        match self.cfg.app_bytes {
            Some(total) => self.snd_una >= total,
            None => false,
        }
    }

    /// One-call congestion-state scrape for the telemetry layer: the
    /// engine samples this on virtual-time boundaries instead of polling
    /// the individual accessors.
    pub fn telemetry_snapshot(&self) -> SenderSnapshot {
        SenderSnapshot {
            cwnd: self.cc.cwnd(),
            flight: self.sb.flight(),
            in_recovery: self.in_recovery,
            retx: self.retx_count,
            rto: self.rto_count,
            srtt_ns: self.rtt.srtt().map(|d| d.as_nanos()).unwrap_or(0),
        }
    }
}

/// Telemetry snapshot of a sender's congestion state (see
/// [`TcpSender::telemetry_snapshot`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SenderSnapshot {
    pub cwnd: u64,
    pub flight: u64,
    pub in_recovery: bool,
    /// Cumulative fast retransmits.
    pub retx: u64,
    /// Cumulative RTO firings.
    pub rto: u64,
    /// Smoothed RTT in simulated nanoseconds; 0 before the first sample.
    pub srtt_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use cebinae_net::PacketKind;

    const NOSACK: &SackBlocks = &SackBlocks::EMPTY;

    fn sender(cc: CcKind) -> TcpSender {
        TcpSender::new(FlowId(0), TcpConfig::with_cc(cc))
    }

    fn sender_nosack(cc: CcKind) -> TcpSender {
        let mut cfg = TcpConfig::with_cc(cc);
        cfg.sack = false;
        TcpSender::new(FlowId(0), cfg)
    }

    fn data_seq(p: &Packet) -> (u64, bool) {
        match p.kind {
            PacketKind::Data { seq, is_retx } => (seq, is_retx),
            _ => panic!("expected data packet"),
        }
    }

    fn sack1(start: u64, end: u64) -> SackBlocks {
        SackBlocks([Some((start, end)), None, None])
    }

    /// The scoreboard's invariants, plus the two that span calls:
    /// `delivered` never goes back, and nothing SACKed is retransmitted.
    fn check(s: &TcpSender, delivered_before: u64, out: &TcpOutput) {
        s.sb.check_invariants(s.cfg.sack);
        assert!(s.delivered >= delivered_before, "delivered went backwards");
        for (seq, is_retx) in out.packets.iter().map(data_seq) {
            assert!(!(is_retx && s.sb.is_sacked(seq)), "retransmitted SACKed segment {seq}");
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

    /// `on_rto_timer`, then [`check`].
    fn rto(s: &mut TcpSender, now: Time) -> TcpOutput {
        let before = s.delivered;
        let out = s.on_rto_timer(now);
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
        ack(&mut s, 0, false, Time::ZERO, false, &sack1(2 * m, 5 * m), Time::from_millis(20));
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
    fn nosack_triple_dupack_fast_retransmit_once() {
        let mut s = sender_nosack(CcKind::NewReno);
        s.start(Time::from_millis(1));
        let mut retx = Vec::new();
        for i in 0..5 {
            let now = Time::from_millis(20 + i);
            let out = ack(&mut s, 0, false, Time::ZERO, true, NOSACK, now);
            retx.extend(
                out.packets
                    .iter()
                    .filter(|p| data_seq(p).1)
                    .map(|p| data_seq(p).0),
            );
        }
        assert_eq!(retx, vec![0], "exactly one fast retransmit of seq 0");
        assert!(s.in_recovery());
    }

    #[test]
    fn nosack_partial_ack_retransmits_next_hole() {
        let mut s = sender_nosack(CcKind::NewReno);
        s.start(Time::from_millis(1));
        for i in 0..3 {
            ack(&mut s, 0, false, Time::ZERO, true, NOSACK, Time::from_millis(20 + i));
        }
        assert!(s.in_recovery());
        let out = ack(&mut s, MSS as u64, false, Time::ZERO, true, NOSACK, Time::from_millis(30));
        let retx: Vec<_> = out
            .packets
            .iter()
            .filter(|p| data_seq(p).1)
            .map(|p| data_seq(p).0)
            .collect();
        assert_eq!(retx, vec![MSS as u64]);
        assert!(s.in_recovery(), "partial ack keeps recovery open");
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
                &sack1(i * m, (i + 1) * m),
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
        let blocks =
            SackBlocks([Some((3 * m, 4 * m)), Some((5 * m, 6 * m)), Some((7 * m, 10 * m))]);
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
        // The scenario that cripples non-SACK NewReno: half a large window
        // dropped at once. With SACK, recovery completes purely via fast
        // retransmissions (no RTO) and without spurious retransmits.
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
                if !is_retx && (100..200).contains(&idx) && idx % 2 == 0 {
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
                &sack1(i * m, (i + 1) * m),
                Time::from_millis(20 + i),
            );
        }
        assert!(s.in_recovery());
        let recover_point = s.recover;
        ack(&mut s, recover_point, false, Time::ZERO, false, NOSACK, Time::from_millis(40));
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
            let sack = sack1(ack_seq + 2 * m, ack_seq + 3 * m);
            ack(&mut s, ack_seq, false, now - Duration::from_millis(10), false, &sack, now);
        }
    }

    #[test]
    fn sacked_segments_are_never_retransmitted() {
        let mut s = sender(CcKind::NewReno);
        s.start(Time::from_millis(1));
        let m = MSS as u64;
        let blocks = SackBlocks([Some((m, 4 * m)), None, None]);
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
}
