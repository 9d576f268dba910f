//! BBRv1 (Cardwell et al., 2016): model-based congestion control that
//! estimates the bottleneck bandwidth and propagation RTT and paces at the
//! model, ignoring loss. The paper highlights BBR's converged unfairness —
//! a couple of BBR flows can take a large fixed share from many loss-based
//! flows (Figure 8a) — which stems from exactly the mechanisms implemented
//! here (bandwidth-probe pacing with a 2×BDP inflight cap).

use std::cmp::Ordering;
use std::collections::VecDeque;

use cebinae_sim::{Duration, Time};

use super::{AckEvent, CongestionControl, INIT_CWND, MSS_BYTES};

/// 2/ln(2): startup/drain gain.
const HIGH_GAIN: f64 = 2.885;
/// ProbeBW pacing-gain cycle.
const CYCLE: [f64; 8] = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
/// cwnd gain outside startup.
const CWND_GAIN: f64 = 2.0;
/// Rounds of non-growth before declaring the pipe full.
const FULL_BW_ROUNDS: u32 = 3;
/// Growth threshold for the full-pipe estimator.
const FULL_BW_THRESH: f64 = 1.25;
/// Windowed-max filter length for bottleneck bandwidth, in rounds.
const BW_WINDOW_ROUNDS: u64 = 10;
/// min_rtt filter window.
const MIN_RTT_WINDOW: Duration = Duration(10 * 1_000_000_000);
/// Time spent at minimal cwnd in ProbeRTT.
const PROBE_RTT_DURATION: Duration = Duration(200 * 1_000_000);
/// Long-term (policer) sampling: minimum interval length in rounds.
const LT_INTVL_MIN_RTTS: u32 = 4;
/// Long-term sampling: discard intervals longer than this (unreliable).
const LT_INTVL_MAX_RTTS: u32 = 16;
/// Loss fraction that marks an interval as policer-limited.
const LT_LOSS_THRESH: f64 = 0.2;
/// Two interval estimates within this ratio confirm a policer.
const LT_BW_RATIO: f64 = 0.125;
/// Rounds to honor a detected policer rate before re-probing.
const LT_BW_MAX_RTTS: u32 = 48;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    Startup,
    Drain,
    ProbeBw,
    ProbeRtt,
}

/// Windowed max filter over (round, value) samples: an exact monotone
/// deque, O(1) amortised per update and O(1) per read.
///
/// Invariant, front to back: rounds non-decreasing, values strictly
/// decreasing (`front.v > next.v`), so the front is the window's max.
/// `update` evicts every sample that is not `>` the new one — equal values
/// included — before pushing it, and rounds only grow, so expiry removes a
/// prefix. This holds exactly the samples of the `retain(v > value)` list
/// it replaced, in the same order, so `0.0.max(front)` equals that list's
/// `fold(0.0, f64::max)` bit for bit, NaN included (a NaN sample evicts
/// everything before it and is evicted by whatever comes next). Linux's
/// 3-sample `minmax` is deliberately not used: it approximates, and would
/// move every BBR result.
#[derive(Clone, Debug, Default)]
struct MaxFilter {
    samples: VecDeque<(u64, f64)>,
}

impl MaxFilter {
    fn update(&mut self, round: u64, value: f64) {
        self.expire(round);
        // NaN on either side is not greater: it evicts, or is evicted.
        while self
            .samples
            .back()
            .is_some_and(|&(_, v)| v.partial_cmp(&value) != Some(Ordering::Greater))
        {
            self.samples.pop_back();
        }
        self.samples.push_back((round, value));
    }

    fn expire(&mut self, round: u64) {
        while self
            .samples
            .front()
            .is_some_and(|&(r, _)| r + BW_WINDOW_ROUNDS <= round)
        {
            self.samples.pop_front();
        }
    }

    fn get(&self) -> f64 {
        self.samples.front().map_or(0.0, |&(_, v)| 0.0_f64.max(v))
    }
}

pub struct Bbr {
    mode: Mode,
    /// Bottleneck bandwidth estimate filter (bytes/sec).
    btl_bw: MaxFilter,
    /// Propagation RTT estimate.
    min_rtt: Option<Duration>,
    min_rtt_stamp: Time,
    /// Round counting via the delivered-bytes watermark.
    round_count: u64,
    next_round_delivered: u64,
    round_start: bool,
    /// Full-pipe (startup exit) estimator.
    full_bw: f64,
    full_bw_count: u32,
    filled_pipe: bool,
    /// ProbeBW gain cycling.
    cycle_index: usize,
    cycle_stamp: Time,
    /// ProbeRTT bookkeeping.
    probe_rtt_done: Option<Time>,
    min_rtt_expired: bool,
    prior_cwnd: u64,
    cwnd: u64,
    pacing_rate: Option<f64>,

    /// Long-term ("lt") bandwidth sampling — BBRv1's token-bucket-policer
    /// detection (Cardwell et al. §4; Linux `bbr_lt_bw_sampling`). When a
    /// sustained ≥20% loss rate brackets two consistent delivery-rate
    /// intervals, BBR pins its model to the policed rate instead of
    /// endlessly probing into drops.
    lt_is_sampling: bool,
    lt_use: bool,
    lt_bw: f64,
    lt_prev_bw: Option<f64>,
    lt_rtt_cnt: u32,
    lt_last_delivered: u64,
    lt_last_lost: u64,
    lt_last_stamp: Time,
    /// Cumulative bytes marked lost (SACK evidence + RTO flights).
    lost_total: u64,
    /// Latest delivered_total seen from rate samples.
    delivered_total: u64,
}

impl Bbr {
    pub(crate) fn new() -> Bbr {
        Bbr {
            mode: Mode::Startup,
            btl_bw: MaxFilter::default(),
            min_rtt: None,
            min_rtt_stamp: Time::ZERO,
            round_count: 0,
            next_round_delivered: 0,
            round_start: false,
            full_bw: 0.0,
            full_bw_count: 0,
            filled_pipe: false,
            cycle_index: 0,
            cycle_stamp: Time::ZERO,
            probe_rtt_done: None,
            min_rtt_expired: false,
            prior_cwnd: INIT_CWND,
            cwnd: INIT_CWND,
            pacing_rate: None,
            lt_is_sampling: false,
            lt_use: false,
            lt_bw: 0.0,
            lt_prev_bw: None,
            lt_rtt_cnt: 0,
            lt_last_delivered: 0,
            lt_last_lost: 0,
            lt_last_stamp: Time::ZERO,
            lost_total: 0,
            delivered_total: 0,
        }
    }

    /// The bandwidth the model currently honors: the policed (long-term)
    /// rate when one is detected, else the windowed-max filter.
    fn bw(&self) -> f64 {
        if self.lt_use {
            self.lt_bw
        } else {
            self.btl_bw.get()
        }
    }

    fn lt_reset_sampling(&mut self, ev: &AckEvent) {
        self.lt_is_sampling = false;
        self.lt_prev_bw = None;
        self.lt_last_delivered = self.delivered_total;
        self.lt_last_lost = self.lost_total;
        self.lt_last_stamp = ev.now;
        self.lt_rtt_cnt = 0;
    }

    fn lt_start_interval(&mut self, ev: &AckEvent) {
        self.lt_last_delivered = self.delivered_total;
        self.lt_last_lost = self.lost_total;
        self.lt_last_stamp = ev.now;
        self.lt_rtt_cnt = 0;
    }

    /// Linux-style long-term bandwidth sampling, simplified: intervals are
    /// bracketed by loss events; two consecutive qualifying intervals with
    /// agreeing delivery rates switch the model to the policed rate for
    /// `LT_BW_MAX_RTTS` rounds.
    fn lt_sampling(&mut self, ev: &AckEvent) {
        if self.lt_use {
            // Honor the policed rate for a while, then re-probe.
            if self.mode == Mode::ProbeBw && self.round_start {
                self.lt_rtt_cnt += 1;
                if self.lt_rtt_cnt > LT_BW_MAX_RTTS {
                    self.lt_use = false;
                    self.lt_is_sampling = false;
                    self.lt_prev_bw = None;
                    self.lt_rtt_cnt = 0;
                }
            }
            return;
        }
        if !self.lt_is_sampling {
            if ev.newly_lost == 0 {
                return;
            }
            // A loss starts a sampling interval.
            self.lt_is_sampling = true;
            self.lt_start_interval(ev);
            return;
        }
        if self.round_start {
            self.lt_rtt_cnt += 1;
        }
        if self.lt_rtt_cnt > LT_INTVL_MAX_RTTS {
            self.lt_reset_sampling(ev);
            return;
        }
        // An interval ends at the next loss after the minimum length.
        if ev.newly_lost == 0 || self.lt_rtt_cnt < LT_INTVL_MIN_RTTS {
            return;
        }
        let delivered = self.delivered_total.saturating_sub(self.lt_last_delivered);
        let lost = self.lost_total.saturating_sub(self.lt_last_lost);
        let elapsed = ev.now.saturating_since(self.lt_last_stamp).as_secs_f64();
        if delivered == 0 || elapsed <= 0.0 {
            self.lt_reset_sampling(ev);
            return;
        }
        if (lost as f64) < LT_LOSS_THRESH * (lost + delivered) as f64 {
            // Loss rate too low to be a policer; keep normal probing.
            self.lt_reset_sampling(ev);
            return;
        }
        let bw = delivered as f64 / elapsed;
        match self.lt_prev_bw {
            Some(prev) if (bw - prev).abs() <= LT_BW_RATIO * prev => {
                self.lt_bw = (bw + prev) / 2.0;
                self.lt_use = true;
                self.lt_rtt_cnt = 0;
                self.lt_is_sampling = false;
                self.lt_prev_bw = None;
            }
            _ => {
                self.lt_prev_bw = Some(bw);
                self.lt_start_interval(ev);
            }
        }
    }

    fn pacing_gain(&self) -> f64 {
        match self.mode {
            Mode::Startup => HIGH_GAIN,
            Mode::Drain => 1.0 / HIGH_GAIN,
            Mode::ProbeBw => CYCLE[self.cycle_index],
            Mode::ProbeRtt => 1.0,
        }
    }

    fn cwnd_gain(&self) -> f64 {
        match self.mode {
            Mode::Startup | Mode::Drain => HIGH_GAIN,
            Mode::ProbeBw => CWND_GAIN,
            Mode::ProbeRtt => 1.0,
        }
    }

    /// Bandwidth-delay product at the current model, in bytes.
    fn bdp(&self, gain: f64) -> u64 {
        let bw = self.bw();
        let Some(rtt) = self.min_rtt else {
            return INIT_CWND;
        };
        if bw <= 0.0 {
            return INIT_CWND;
        }
        (bw * rtt.as_secs_f64() * gain) as u64
    }

    fn min_probe_rtt_cwnd(&self) -> u64 {
        4 * MSS_BYTES
    }

    fn update_round(&mut self, ev: &AckEvent) {
        let Some(rate) = ev.rate else {
            self.round_start = false;
            return;
        };
        if rate.delivered_at_send >= self.next_round_delivered {
            self.round_count += 1;
            self.next_round_delivered = rate.delivered_total;
            self.round_start = true;
        } else {
            self.round_start = false;
        }
    }

    fn update_bw(&mut self, ev: &AckEvent) {
        let Some(rate) = ev.rate else { return };
        if rate.delivery_rate <= 0.0 {
            return;
        }
        // App-limited samples can only raise the estimate (Linux rule).
        if !rate.is_app_limited || rate.delivery_rate >= self.btl_bw.get() {
            self.btl_bw.update(self.round_count, rate.delivery_rate);
        }
        self.btl_bw.expire(self.round_count);
    }

    fn check_full_pipe(&mut self) {
        if self.filled_pipe || !self.round_start {
            return;
        }
        let bw = self.btl_bw.get();
        if bw >= self.full_bw * FULL_BW_THRESH {
            self.full_bw = bw;
            self.full_bw_count = 0;
            return;
        }
        self.full_bw_count += 1;
        if self.full_bw_count >= FULL_BW_ROUNDS {
            self.filled_pipe = true;
        }
    }

    fn update_min_rtt(&mut self, ev: &AckEvent) {
        // Compute expiry *before* refreshing the filter: an expired window
        // both accepts the new (possibly larger) sample and triggers
        // ProbeRTT (Linux `bbr_update_min_rtt` semantics).
        self.min_rtt_expired = self.min_rtt.is_some()
            && ev.now.saturating_since(self.min_rtt_stamp) > MIN_RTT_WINDOW;
        if let Some(rtt) = ev.rtt {
            if self.min_rtt.is_none()
                || self.min_rtt_expired
                || rtt <= self.min_rtt.expect("checked")
            {
                self.min_rtt = Some(rtt);
                self.min_rtt_stamp = ev.now;
            }
        }
    }

    fn advance_mode(&mut self, ev: &AckEvent) {
        match self.mode {
            Mode::Startup => {
                if self.filled_pipe {
                    self.mode = Mode::Drain;
                }
            }
            Mode::Drain => {
                if ev.flight <= self.bdp(1.0) {
                    self.enter_probe_bw(ev.now);
                }
            }
            Mode::ProbeBw => {
                let Some(min_rtt) = self.min_rtt else { return };
                let phase_over = ev.now.saturating_since(self.cycle_stamp) > min_rtt;
                // The 0.75 phase may end early once inflight has drained.
                let drained_early = CYCLE[self.cycle_index] < 1.0 && ev.flight <= self.bdp(1.0);
                if phase_over || drained_early {
                    self.cycle_index = (self.cycle_index + 1) % CYCLE.len();
                    self.cycle_stamp = ev.now;
                }
            }
            Mode::ProbeRtt => {
                if self.probe_rtt_done.is_none() && ev.flight <= self.min_probe_rtt_cwnd() {
                    self.probe_rtt_done = Some(ev.now + PROBE_RTT_DURATION);
                }
                if let Some(done) = self.probe_rtt_done {
                    if ev.now >= done {
                        self.min_rtt_stamp = ev.now;
                        self.cwnd = self.prior_cwnd.max(self.cwnd);
                        if self.filled_pipe {
                            self.enter_probe_bw(ev.now);
                        } else {
                            self.mode = Mode::Startup;
                        }
                        self.probe_rtt_done = None;
                    }
                }
            }
        }
        // ProbeRTT entry check (from any mode but ProbeRtt itself).
        if self.mode != Mode::ProbeRtt && self.min_rtt_expired {
            self.mode = Mode::ProbeRtt;
            self.prior_cwnd = self.cwnd;
            self.probe_rtt_done = None;
        }
    }

    fn enter_probe_bw(&mut self, now: Time) {
        self.mode = Mode::ProbeBw;
        // Start in a randomly-rotated phase in real BBR; deterministically
        // start past the 1.25 probe to avoid synchronized probing here.
        self.cycle_index = 2;
        self.cycle_stamp = now;
    }

    fn update_control(&mut self, ev: &AckEvent) {
        let bw = self.bw();
        if bw > 0.0 {
            // A detected policer is paced at exactly the policed rate.
            let gain = if self.lt_use { 1.0 } else { self.pacing_gain() };
            let rate = gain * bw;
            // Before the pipe is filled, never let the pacing rate drop
            // below the current estimate (Linux rule).
            let rate = match self.pacing_rate {
                Some(prev) if !self.filled_pipe && rate < prev => prev,
                _ => rate,
            };
            self.pacing_rate = Some(rate);
        }
        // cwnd: move toward gain * BDP.
        let target = match self.mode {
            Mode::ProbeRtt => self.min_probe_rtt_cwnd(),
            _ => self.bdp(self.cwnd_gain()).max(4 * MSS_BYTES),
        };
        if self.mode == Mode::ProbeRtt {
            self.cwnd = self.cwnd.min(target);
        } else if self.filled_pipe {
            self.cwnd = (self.cwnd + ev.newly_acked).min(target);
        } else {
            // Startup: grow like slow start, never shrink.
            if self.cwnd < target {
                self.cwnd += ev.newly_acked;
            }
        }
        self.cwnd = self.cwnd.max(4 * MSS_BYTES);
    }
}

impl CongestionControl for Bbr {
    fn on_ack(&mut self, ev: &AckEvent) {
        self.lost_total += ev.newly_lost;
        if let Some(rate) = ev.rate {
            self.delivered_total = self.delivered_total.max(rate.delivered_total);
        }
        self.update_round(ev);
        self.update_bw(ev);
        self.lt_sampling(ev);
        self.check_full_pipe();
        self.update_min_rtt(ev);
        self.advance_mode(ev);
        self.update_control(ev);
    }

    fn on_loss(&mut self) {
        // BBRv1 deliberately does not reduce its model on isolated losses;
        // this is the source of its unfairness against loss-based CCAs.
    }

    fn on_rto(&mut self, flight: u64) {
        // Severe signal even for BBR: conservatively restart from a small
        // window (Linux bbr sets cwnd to 1 packet on RTO, restoring later;
        // we restore via normal growth). The lost flight feeds the policer
        // detector.
        self.lost_total += flight;
        self.prior_cwnd = self.cwnd;
        self.cwnd = 4 * MSS_BYTES;
    }

    fn on_ecn(&mut self) {
        // BBRv1 ignores ECN.
    }

    fn cwnd(&self) -> u64 {
        self.cwnd
    }

    fn pacing_rate(&self) -> Option<f64> {
        self.pacing_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::RateSample;

    const M: u64 = MSS_BYTES;

    struct Driver {
        now: Time,
        delivered: u64,
        rtt: Duration,
        bw: f64, // bytes/sec delivered
    }

    impl Driver {
        fn new(rtt_ms: u64, bw_bps: f64) -> Driver {
            Driver {
                now: Time::from_millis(1),
                delivered: 0,
                rtt: Duration::from_millis(rtt_ms),
                bw: bw_bps / 8.0,
            }
        }

        /// Simulate one round worth of ACKs at the pipe's delivery rate.
        fn round(&mut self, cc: &mut Bbr) {
            let acks = 10;
            let bytes_per_ack = (self.bw * self.rtt.as_secs_f64() / acks as f64) as u64 + 1;
            let round_start_delivered = self.delivered;
            // Inflight hovers just under one BDP once the pipe is draining,
            // as it would for a paced sender at gain 1.0.
            let bdp = (self.bw * self.rtt.as_secs_f64()) as u64;
            for _ in 0..acks {
                self.now += self.rtt / acks as u64;
                self.delivered += bytes_per_ack;
                cc.on_ack(&AckEvent {
                    now: self.now,
                    newly_acked: bytes_per_ack,
                    rtt: Some(self.rtt),
                    min_rtt: Some(self.rtt),
                    newly_lost: 0,
                    flight: (cc.cwnd() / 2).min(bdp * 9 / 10),
                    in_recovery: false,
                    rate: Some(RateSample {
                        delivery_rate: self.bw,
                        is_app_limited: false,
                        delivered_total: self.delivered,
                        delivered_at_send: round_start_delivered,
                    }),
                });
            }
        }
    }

    #[test]
    fn startup_exits_when_bw_plateaus() {
        let mut cc = Bbr::new();
        let mut d = Driver::new(20, 100e6);
        assert_eq!(cc.mode, Mode::Startup);
        for _ in 0..20 {
            d.round(&mut cc);
        }
        assert!(cc.filled_pipe, "pipe should be declared full");
        assert!(
            matches!(cc.mode, Mode::ProbeBw | Mode::Drain),
            "mode = {:?}",
            cc.mode
        );
    }

    #[test]
    fn bw_estimate_tracks_delivery_rate() {
        let mut cc = Bbr::new();
        let mut d = Driver::new(20, 100e6);
        for _ in 0..15 {
            d.round(&mut cc);
        }
        let est = cc.btl_bw.get();
        assert!(
            (est - 100e6 / 8.0).abs() / (100e6 / 8.0) < 0.05,
            "btl_bw {est} vs expected {}",
            100e6 / 8.0
        );
    }

    #[test]
    fn cwnd_converges_to_two_bdp() {
        let mut cc = Bbr::new();
        let mut d = Driver::new(20, 100e6);
        for _ in 0..60 {
            d.round(&mut cc);
        }
        let bdp = 100e6 / 8.0 * 0.020;
        let cwnd = cc.cwnd() as f64;
        assert!(
            cwnd > 1.5 * bdp && cwnd < 3.0 * bdp,
            "cwnd {cwnd} vs bdp {bdp}"
        );
    }

    #[test]
    fn pacing_rate_cycles_in_probe_bw() {
        let mut cc = Bbr::new();
        let mut d = Driver::new(20, 100e6);
        for _ in 0..30 {
            d.round(&mut cc);
        }
        assert_eq!(cc.mode, Mode::ProbeBw);
        let mut gains = std::collections::HashSet::new();
        for _ in 0..20 {
            d.round(&mut cc);
            gains.insert((cc.pacing_gain() * 100.0) as u64);
        }
        assert!(gains.contains(&125), "must probe at 1.25x: {gains:?}");
        assert!(gains.contains(&100), "must cruise at 1.0x: {gains:?}");
    }

    #[test]
    fn loss_is_ignored() {
        let mut cc = Bbr::new();
        let mut d = Driver::new(20, 100e6);
        for _ in 0..30 {
            d.round(&mut cc);
        }
        let w = cc.cwnd();
        cc.on_loss();
        assert_eq!(cc.cwnd(), w, "BBRv1 must not reduce cwnd on loss");
    }

    #[test]
    fn probe_rtt_entered_after_window_expiry() {
        let mut cc = Bbr::new();
        let mut d = Driver::new(20, 100e6);
        for _ in 0..30 {
            d.round(&mut cc);
        }
        // Advance past the 10s min_rtt window with slightly higher RTTs so
        // the filter cannot refresh.
        d.rtt = Duration::from_millis(21);
        let rounds = (11_000 / 21) as usize;
        let mut seen_probe_rtt = false;
        for _ in 0..rounds {
            d.round(&mut cc);
            seen_probe_rtt |= cc.mode == Mode::ProbeRtt;
        }
        assert!(seen_probe_rtt, "ProbeRTT must trigger within 11s");
    }

    #[test]
    fn rto_collapses_cwnd() {
        let mut cc = Bbr { cwnd: 100 * M, ..Bbr::new() };
        cc.on_rto(0);
        assert_eq!(cc.cwnd(), 4 * M);
    }

    #[test]
    fn max_filter_window_expires() {
        let mut f = MaxFilter::default();
        f.update(0, 100.0);
        f.update(1, 50.0);
        assert_eq!(f.get(), 100.0);
        f.expire(BW_WINDOW_ROUNDS); // round 10: sample from round 0 expires
        assert_eq!(f.get(), 50.0);
        f.expire(BW_WINDOW_ROUNDS + 5);
        assert_eq!(f.get(), 0.0);
    }

    /// The list the deque replaced: every update `retain`s, every read folds.
    #[derive(Default)]
    struct RetainFilter {
        samples: Vec<(u64, f64)>,
    }

    impl RetainFilter {
        fn update(&mut self, round: u64, value: f64) {
            self.samples
                .retain(|&(r, v)| r + BW_WINDOW_ROUNDS > round && v > value);
            self.samples.push((round, value));
        }

        fn expire(&mut self, round: u64) {
            self.samples.retain(|&(r, _)| r + BW_WINDOW_ROUNDS > round);
        }

        fn get(&self) -> f64 {
            self.samples.iter().map(|&(_, v)| v).fold(0.0, f64::max)
        }
    }

    /// The deque holds the list's samples and reads its max bit for bit,
    /// under frequent ties (an equal value evicts), signed zeros, NaN,
    /// expire-only steps and window-wiping round jumps.
    #[test]
    fn max_filter_matches_the_retain_list() {
        const VALUES: [f64; 9] = [1.0, 2.0, 3.0, 5.0, 8.0, 0.0, -0.0, -1.0, f64::NAN];
        fn bits<'a>(s: impl Iterator<Item = &'a (u64, f64)>) -> Vec<(u64, u64)> {
            s.map(|&(r, v)| (r, v.to_bits())).collect()
        }
        let mut boundary_hits = 0u64;
        for case in 0..256u64 {
            let mut rng = cebinae_sim::rng::DetRng::seed_from_u64(0xbb2_f17e ^ case);
            let (mut deque, mut list) = (MaxFilter::default(), RetainFilter::default());
            let mut round = rng.gen_range_u64(0, 4);
            for op in 0..2_000 {
                round += if rng.gen_bool(0.02) {
                    BW_WINDOW_ROUNDS + rng.gen_range_u64(0, 3)
                } else {
                    rng.gen_range_u64(0, 4)
                };
                // Most draws come from the first five values: ties galore.
                let pool = if rng.gen_bool(0.9) { 5 } else { VALUES.len() };
                let value = VALUES[rng.gen_range_usize(0, pool)];
                if list
                    .samples
                    .iter()
                    .any(|&(r, _)| r + BW_WINDOW_ROUNDS == round)
                {
                    boundary_hits += 1;
                }
                if rng.gen_bool(0.25) {
                    deque.expire(round);
                    list.expire(round);
                } else {
                    deque.update(round, value);
                    list.update(round, value);
                }
                assert_eq!(
                    bits(deque.samples.iter()),
                    bits(list.samples.iter()),
                    "case {case} op {op}: sample sequences differ"
                );
                assert_eq!(
                    deque.get().to_bits(),
                    list.get().to_bits(),
                    "case {case} op {op}"
                );
            }
        }
        assert!(
            boundary_hits > 1_000,
            "the r + {BW_WINDOW_ROUNDS} == round edge: {boundary_hits}"
        );
    }
}
