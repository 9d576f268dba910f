//! TCP Cubic (RFC 8312): cubic window growth anchored at the last loss
//! window, with the TCP-friendly region and fast convergence. The current
//! default on Linux and Windows Server, and the protocol the paper cites as
//! able to take ~80% of a bottleneck from NewReno.

use cebinae_sim::{Duration, Time};

use super::{AckEvent, CongestionControl};

/// RFC 8312 constants.
const C: f64 = 0.4; // cubic scaling factor (window in MSS, time in seconds)
const BETA: f64 = 0.7; // multiplicative decrease factor

pub struct Cubic {
    mss: u64,
    cwnd: u64,
    ssthresh: u64,
    /// Window size (bytes) just before the last reduction.
    w_max: f64,
    /// Start of the current congestion-avoidance epoch.
    epoch_start: Option<Time>,
    /// Time offset at which the cubic reaches `w_max` again.
    k: f64,
    /// cwnd estimate of an "equivalent Reno flow" for the TCP-friendly
    /// region, maintained incrementally (RFC 8312 §4.2).
    w_est: f64,
    min_cwnd: u64,
}

impl Cubic {
    pub fn new(mss: u32, init_cwnd: u64) -> Cubic {
        let mss = mss as u64;
        Cubic {
            mss,
            cwnd: init_cwnd,
            ssthresh: u64::MAX,
            w_max: 0.0,
            epoch_start: None,
            k: 0.0,
            w_est: 0.0,
            min_cwnd: 2 * mss,
        }
    }

    fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }

    fn begin_epoch(&mut self, now: Time) {
        self.epoch_start = Some(now);
        let cwnd_mss = self.cwnd as f64 / self.mss as f64;
        let wmax_mss = self.w_max / self.mss as f64;
        if wmax_mss > cwnd_mss {
            self.k = ((wmax_mss - cwnd_mss) / C).cbrt();
        } else {
            // We are already above the previous maximum: probe from here.
            self.k = 0.0;
            self.w_max = self.cwnd as f64;
        }
        self.w_est = self.cwnd as f64;
    }

    /// Target window from the cubic function at elapsed time `t` (seconds).
    fn w_cubic(&self, t: f64) -> f64 {
        let wmax_mss = self.w_max / self.mss as f64;
        let w = C * (t - self.k).powi(3) + wmax_mss;
        w * self.mss as f64
    }
}

impl CongestionControl for Cubic {
    fn on_ack(&mut self, ev: &AckEvent) {
        if ev.newly_acked == 0 || ev.in_recovery {
            return;
        }
        if self.in_slow_start() {
            // HyStart (delay variant, on by default as in ns-3.35 and
            // Linux): leave slow start when the RTT has risen a threshold
            // above the propagation floor, instead of overshooting the
            // whole buffer by 2x.
            if let (Some(rtt), Some(min_rtt)) = (ev.rtt, ev.min_rtt) {
                let eta = (min_rtt / 8)
                    .max(Duration::from_millis(4))
                    .min(Duration::from_millis(16));
                if rtt > min_rtt + eta && self.cwnd >= 16 * self.mss {
                    self.ssthresh = self.cwnd;
                    return;
                }
            }
            let room = self.ssthresh.saturating_sub(self.cwnd);
            self.cwnd += ev.newly_acked.min(room);
            return;
        }
        let rtt = ev.rtt.unwrap_or(Duration::from_millis(100));
        if self.epoch_start.is_none() {
            self.begin_epoch(ev.now);
        }
        let t = ev
            .now
            .saturating_since(self.epoch_start.expect("epoch set above"))
            .as_secs_f64();

        // TCP-friendly region estimate (RFC 8312 §4.2): grows like Reno with
        // a slope adjusted for beta.
        let alpha = 3.0 * (1.0 - BETA) / (1.0 + BETA);
        self.w_est += alpha * (ev.newly_acked as f64 / self.cwnd as f64) * self.mss as f64;

        let target = self.w_cubic(t + rtt.as_secs_f64()).max(self.w_est);
        if target > self.cwnd as f64 {
            // cwnd += (target - cwnd)/cwnd per acked segment, scaled to the
            // bytes actually acked.
            let segs = ev.newly_acked as f64 / self.mss as f64;
            let inc = (target - self.cwnd as f64) / (self.cwnd as f64 / self.mss as f64) * segs;
            // Cap growth at 1.5x per RTT worth of acks (RFC 8312 max probing).
            self.cwnd += inc.min(ev.newly_acked as f64 / 2.0).max(0.0) as u64;
        } else {
            // Minimal growth to stay responsive (1 MSS per 100 windows).
            let segs = ev.newly_acked as f64 / self.mss as f64;
            self.cwnd += (segs * self.mss as f64 / (100.0 * self.cwnd as f64 / self.mss as f64))
                .max(0.0) as u64;
        }
    }

    fn on_loss(&mut self, _now: Time, _flight: u64) {
        let base = self.cwnd as f64;
        // Fast convergence (RFC 8312 §4.6): if the loss happened below the
        // previous w_max, release bandwidth faster.
        if base < self.w_max {
            self.w_max = base * (1.0 + BETA) / 2.0;
        } else {
            self.w_max = base;
        }
        self.cwnd = ((base * BETA) as u64).max(self.min_cwnd);
        self.ssthresh = self.cwnd;
        self.epoch_start = None;
    }

    fn on_rto(&mut self, _now: Time, _flight: u64) {
        let base = self.cwnd as f64;
        self.w_max = base;
        self.ssthresh = ((base * BETA) as u64).max(self.min_cwnd);
        self.cwnd = self.mss;
        self.epoch_start = None;
    }

    fn cwnd(&self) -> u64 {
        self.cwnd
    }

    fn ssthresh(&self) -> u64 {
        self.ssthresh
    }

    fn name(&self) -> &'static str {
        "cubic"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: u32 = 1448;

    fn ack_at(now: Time, newly: u64, rtt_ms: u64) -> AckEvent {
        AckEvent {
            now,
            newly_acked: newly,
            rtt: Some(Duration::from_millis(rtt_ms)),
            min_rtt: Some(Duration::from_millis(rtt_ms)),
            newly_lost: 0,
            flight: 0,
            in_recovery: false,
            rate: None,
            ece: false,
        }
    }

    #[test]
    fn slow_start_until_ssthresh() {
        let mut cc = Cubic::new(MSS, 10 * MSS as u64);
        for _ in 0..10 {
            cc.on_ack(&ack_at(Time::from_millis(1), MSS as u64, 10));
        }
        assert_eq!(cc.cwnd(), 20 * MSS as u64);
    }

    #[test]
    fn loss_reduces_by_beta() {
        let mut cc = Cubic::new(MSS, 100 * MSS as u64);
        cc.on_loss(Time::from_secs(1), 100 * MSS as u64);
        let expect = (100.0 * MSS as f64 * BETA) as u64;
        assert_eq!(cc.cwnd(), expect);
    }

    #[test]
    fn concave_growth_toward_wmax() {
        let mut cc = Cubic::new(MSS, 100 * MSS as u64);
        cc.on_loss(Time::from_secs(1), 100 * MSS as u64);
        let w_after_loss = cc.cwnd();
        // Feed acks over simulated seconds; cwnd should grow back toward
        // w_max ~ 100 MSS but not wildly exceed it quickly.
        let mut now = Time::from_secs(1);
        for _ in 0..2000 {
            now += Duration::from_millis(5);
            cc.on_ack(&ack_at(now, MSS as u64, 10));
        }
        assert!(cc.cwnd() > w_after_loss, "cubic must grow after loss");
        assert!(
            cc.cwnd() > 90 * MSS as u64,
            "after 10s cubic should have recovered most of w_max, got {} MSS",
            cc.cwnd() / MSS as u64
        );
    }

    #[test]
    fn growth_accelerates_past_wmax() {
        // The convex (probing) region beyond w_max grows faster over time.
        let mut cc = Cubic::new(MSS, 50 * MSS as u64);
        cc.on_loss(Time::from_secs(1), 50 * MSS as u64);
        let mut now = Time::from_secs(1);
        let mut w_prev = cc.cwnd();
        let mut deltas = Vec::new();
        for _ in 0..10 {
            for _ in 0..400 {
                now += Duration::from_millis(5);
                cc.on_ack(&ack_at(now, MSS as u64, 10));
            }
            deltas.push(cc.cwnd() as i64 - w_prev as i64);
            w_prev = cc.cwnd();
        }
        // The last growth interval should be at least as fast as the first
        // (plateau then accelerate).
        assert!(
            deltas.last().unwrap() >= deltas.first().unwrap(),
            "deltas: {deltas:?}"
        );
    }

    #[test]
    fn fast_convergence_shrinks_wmax() {
        let mut cc = Cubic::new(MSS, 100 * MSS as u64);
        cc.on_loss(Time::from_secs(1), 100 * MSS as u64);
        let wmax1 = cc.w_max;
        let w_after = cc.cwnd() as f64; // 70 MSS
        // Second loss below previous w_max triggers fast convergence.
        cc.on_loss(Time::from_secs(2), 0);
        assert!(cc.w_max < wmax1);
        assert!((cc.w_max - w_after * (1.0 + BETA) / 2.0).abs() < 1.0);
    }

    #[test]
    fn rto_collapses_window() {
        let mut cc = Cubic::new(MSS, 100 * MSS as u64);
        cc.on_rto(Time::from_secs(1), 100 * MSS as u64);
        assert_eq!(cc.cwnd(), MSS as u64);
        assert!(cc.ssthresh() < 100 * MSS as u64);
    }
}
