//! BIC (Binary Increase Congestion control, Xu et al., INFOCOM 2004) —
//! Cubic's predecessor, used in the paper's Figure 11 parking-lot scenario
//! and one Table 2 row. Binary-searches toward the last loss window, then
//! probes additively beyond it.

use cebinae_sim::Time;

use super::{AckEvent, CongestionControl};

/// Maximum increment per RTT, in segments (Linux `smax` default).
const S_MAX: f64 = 16.0;
/// Minimum increment per RTT, in segments.
const S_MIN: f64 = 0.01;
/// Multiplicative decrease factor (Linux bictcp uses 819/1024 ≈ 0.8).
const BETA: f64 = 0.8;
/// Window (in segments) below which plain Reno behavior is used.
const LOW_WINDOW: f64 = 14.0;

pub struct Bic {
    mss: u64,
    cwnd: u64,
    ssthresh: u64,
    /// Target window of the binary search (bytes).
    w_max: f64,
    /// Last w_max, for fast convergence.
    prior_w_max: f64,
    /// Fractional accumulator of acked bytes for sub-MSS increments.
    acked_accum: f64,
    min_cwnd: u64,
}

impl Bic {
    pub fn new(mss: u32, init_cwnd: u64) -> Bic {
        let mss = mss as u64;
        Bic {
            mss,
            cwnd: init_cwnd,
            ssthresh: u64::MAX,
            w_max: 0.0,
            prior_w_max: 0.0,
            acked_accum: 0.0,
            min_cwnd: 2 * mss,
        }
    }

    fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }

    /// Per-RTT window increment in segments, per the BIC update rule.
    fn increment_per_rtt(&self) -> f64 {
        let cwnd_seg = self.cwnd as f64 / self.mss as f64;
        let wmax_seg = self.w_max / self.mss as f64;
        if cwnd_seg < LOW_WINDOW {
            // Small windows: behave like Reno.
            return 1.0;
        }
        if cwnd_seg < wmax_seg {
            // Binary search region: jump half the distance, clamped.
            let dist = (wmax_seg - cwnd_seg) / 2.0;
            dist.clamp(S_MIN, S_MAX)
        } else {
            // Max probing: slow start away from w_max, then additive.
            let dist = cwnd_seg - wmax_seg;
            if dist < 1.0 {
                S_MIN.max(dist / 4.0 + 0.125)
            } else {
                dist.min(S_MAX)
            }
        }
    }
}

impl CongestionControl for Bic {
    fn on_ack(&mut self, ev: &AckEvent) {
        if ev.newly_acked == 0 || ev.in_recovery {
            return;
        }
        if self.in_slow_start() {
            let room = self.ssthresh.saturating_sub(self.cwnd);
            self.cwnd += ev.newly_acked.min(room);
            return;
        }
        // Spread the per-RTT increment across the window's worth of acks:
        // each acked byte contributes inc/cwnd bytes of growth.
        let inc_bytes = self.increment_per_rtt() * self.mss as f64;
        self.acked_accum += ev.newly_acked as f64 * inc_bytes / self.cwnd as f64;
        if self.acked_accum >= 1.0 {
            let whole = self.acked_accum.floor();
            self.cwnd += whole as u64;
            self.acked_accum -= whole;
        }
    }

    fn on_loss(&mut self, _now: Time, _flight: u64) {
        let base = self.cwnd as f64;
        // Fast convergence.
        if base < self.prior_w_max {
            self.w_max = base * (1.0 + BETA) / 2.0;
        } else {
            self.w_max = base;
        }
        self.prior_w_max = self.w_max;
        self.cwnd = ((base * BETA) as u64).max(self.min_cwnd);
        self.ssthresh = self.cwnd;
        self.acked_accum = 0.0;
    }

    fn on_rto(&mut self, _now: Time, _flight: u64) {
        let base = self.cwnd as f64;
        self.w_max = base;
        self.prior_w_max = base;
        self.ssthresh = ((base * BETA) as u64).max(self.min_cwnd);
        self.cwnd = self.mss;
        self.acked_accum = 0.0;
    }

    fn cwnd(&self) -> u64 {
        self.cwnd
    }

    fn ssthresh(&self) -> u64 {
        self.ssthresh
    }

    fn name(&self) -> &'static str {
        "bic"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cebinae_sim::Duration;

    const MSS: u32 = 1448;

    fn ack(newly: u64) -> AckEvent {
        AckEvent {
            now: Time::ZERO,
            newly_acked: newly,
            rtt: Some(Duration::from_millis(10)),
            min_rtt: Some(Duration::from_millis(10)),
            newly_lost: 0,
            flight: 0,
            in_recovery: false,
            rate: None,
            ece: false,
        }
    }

    #[test]
    fn loss_uses_beta_08() {
        let mut cc = Bic::new(MSS, 100 * MSS as u64);
        cc.on_loss(Time::ZERO, 100 * MSS as u64);
        assert_eq!(cc.cwnd(), (100.0 * MSS as f64 * BETA) as u64);
    }

    #[test]
    fn binary_search_halves_distance_per_rtt() {
        let mut cc = Bic::new(MSS, 100 * MSS as u64);
        cc.on_loss(Time::ZERO, 100 * MSS as u64); // cwnd=80, wmax=100 MSS
        let cwnd0_seg = cc.cwnd() as f64 / MSS as f64;
        let dist0 = 100.0 - cwnd0_seg;
        // One window of acks.
        let acks = (cc.cwnd() / MSS as u64) as usize;
        for _ in 0..acks {
            cc.on_ack(&ack(MSS as u64));
        }
        let cwnd1_seg = cc.cwnd() as f64 / MSS as f64;
        let grew = cwnd1_seg - cwnd0_seg;
        // The increment re-halves continuously as cwnd closes the distance
        // within the RTT, so realized growth lands between dist0/4 (pure
        // continuous halving) and dist0/2 (single jump).
        let hi = (dist0 / 2.0).min(S_MAX) + 0.5;
        let lo = dist0 / 4.0;
        assert!(
            grew > lo && grew <= hi,
            "grew {grew:.2} seg, expected in ({lo:.2}, {hi:.2}]"
        );
    }

    #[test]
    fn bic_outruns_reno_far_from_wmax() {
        // Far below w_max, BIC's jump (up to S_MAX segments/RTT) beats
        // Reno's 1 segment/RTT.
        let mut cc = Bic::new(MSS, 200 * MSS as u64);
        cc.on_loss(Time::ZERO, 200 * MSS as u64); // cwnd = 160 MSS, wmax = 200
        let inc = cc.increment_per_rtt();
        assert!(inc > 1.0, "inc = {inc}");
        assert!(inc <= S_MAX);
    }

    #[test]
    fn growth_slows_near_wmax() {
        let mut cc = Bic::new(MSS, 100 * MSS as u64);
        cc.on_loss(Time::ZERO, 100 * MSS as u64);
        // Drive until cwnd is within 2 segments of wmax.
        for _ in 0..20_000 {
            if cc.w_max / MSS as f64 - cc.cwnd() as f64 / (MSS as f64) < 2.0 {
                break;
            }
            cc.on_ack(&ack(MSS as u64));
        }
        let inc = cc.increment_per_rtt();
        assert!(inc <= 1.0, "near wmax increment should be small: {inc}");
    }

    #[test]
    fn slow_start_then_ca() {
        let mut cc = Bic::new(MSS, 4 * MSS as u64);
        for _ in 0..4 {
            cc.on_ack(&ack(MSS as u64));
        }
        assert_eq!(cc.cwnd(), 8 * MSS as u64, "slow start doubles");
        cc.on_rto(Time::ZERO, 8 * MSS as u64);
        assert_eq!(cc.cwnd(), MSS as u64);
    }
}
