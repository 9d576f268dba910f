//! TCP Vegas (Brakmo & Peterson, 1994): delay-based congestion avoidance.
//! Vegas keeps between `alpha` and `beta` packets queued in the network by
//! comparing expected vs. actual throughput once per RTT. In the paper,
//! Vegas flows are the canonical victims — against loss-based competitors
//! they back off first and can be starved (Figures 7, 8b) — which is
//! exactly the behavior this implementation reproduces.

use cebinae_sim::{Duration, Time};

use super::{AckEvent, CongestionControl};

/// Lower bound on queued segments (Linux default 2).
const ALPHA: f64 = 2.0;
/// Upper bound on queued segments (Linux default 4).
const BETA: f64 = 4.0;
/// Slow-start threshold on queued segments (Linux default 1).
const GAMMA: f64 = 1.0;

pub struct Vegas {
    mss: u64,
    cwnd: u64,
    ssthresh: u64,
    /// Minimum RTT observed during the *current* adjustment epoch.
    epoch_min_rtt: Option<Duration>,
    /// RTT samples seen this epoch.
    epoch_samples: u32,
    /// End of the current epoch (one adjustment per RTT).
    epoch_end: Time,
    /// In Vegas slow start the window grows every *other* RTT.
    ss_grow_this_epoch: bool,
    min_cwnd: u64,
}

impl Vegas {
    pub fn new(mss: u32, init_cwnd: u64) -> Vegas {
        let mss = mss as u64;
        Vegas {
            mss,
            cwnd: init_cwnd,
            ssthresh: u64::MAX,
            epoch_min_rtt: None,
            epoch_samples: 0,
            epoch_end: Time::ZERO,
            ss_grow_this_epoch: true,
            min_cwnd: 2 * mss,
        }
    }

    fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }

    /// Estimated segments queued in the network: `cwnd·(rtt−base)/rtt`
    /// converted to segments ("diff" in the Vegas paper).
    fn diff_segments(&self, base_rtt: Duration, rtt: Duration) -> f64 {
        if rtt.as_nanos() == 0 {
            return 0.0;
        }
        let cwnd_seg = self.cwnd as f64 / self.mss as f64;
        let excess = rtt.as_secs_f64() - base_rtt.as_secs_f64();
        cwnd_seg * excess / rtt.as_secs_f64()
    }
}

impl CongestionControl for Vegas {
    fn on_ack(&mut self, ev: &AckEvent) {
        if ev.newly_acked == 0 || ev.in_recovery {
            return;
        }
        let (Some(rtt), Some(base_rtt)) = (ev.rtt, ev.min_rtt) else {
            return;
        };
        self.epoch_min_rtt = Some(match self.epoch_min_rtt {
            Some(m) => m.min(rtt),
            None => rtt,
        });
        self.epoch_samples += 1;

        if ev.now < self.epoch_end {
            return;
        }
        // One adjustment per RTT, using the epoch's minimum RTT as the
        // congestion indicator (filters ack compression), as in the Vegas
        // paper and the Linux implementation.
        let epoch_rtt = self.epoch_min_rtt.take().unwrap_or(rtt);
        let enough_samples = self.epoch_samples >= 3;
        self.epoch_samples = 0;
        self.epoch_end = ev.now + rtt;

        if !enough_samples {
            // Too few samples to judge delay: grow cautiously like Reno
            // slow start does (Linux vegas falls back to Reno here).
            if self.in_slow_start() {
                self.cwnd += self.mss;
            }
            return;
        }

        let diff = self.diff_segments(base_rtt, epoch_rtt);
        if self.in_slow_start() {
            if diff > GAMMA {
                // Leave slow start and settle (cwnd == ssthresh afterwards
                // so `in_slow_start()` is false).
                self.cwnd = self.cwnd.saturating_sub(self.mss).max(self.min_cwnd);
                self.ssthresh = self.ssthresh.min(self.cwnd);
            } else if self.ss_grow_this_epoch {
                // Double every other RTT.
                self.cwnd = (self.cwnd * 2).min(self.ssthresh.max(self.cwnd));
                self.ss_grow_this_epoch = false;
            } else {
                self.ss_grow_this_epoch = true;
            }
            return;
        }
        if diff < ALPHA {
            self.cwnd += self.mss;
        } else if diff > BETA {
            self.cwnd = self.cwnd.saturating_sub(self.mss).max(self.min_cwnd);
            // Keep ssthresh at or below cwnd so a deliberate delay-based
            // decrease never re-enters slow start.
            self.ssthresh = self.ssthresh.min(self.cwnd);
        }
        // else: hold — the operating point is inside [alpha, beta].
    }

    fn on_loss(&mut self, _now: Time, _flight: u64) {
        // Vegas reacts to loss like Reno (halve), per the original paper's
        // loss recovery and Linux behavior.
        let base = self.cwnd;
        self.ssthresh = (base / 2).max(self.min_cwnd);
        self.cwnd = self.ssthresh;
    }

    fn on_rto(&mut self, _now: Time, _flight: u64) {
        let base = self.cwnd;
        self.ssthresh = (base / 2).max(self.min_cwnd);
        self.cwnd = self.mss;
    }

    fn cwnd(&self) -> u64 {
        self.cwnd
    }

    fn ssthresh(&self) -> u64 {
        self.ssthresh
    }

    fn name(&self) -> &'static str {
        "vegas"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: u32 = 1448;

    fn ack_at(now: Time, rtt_ms: f64, base_ms: f64) -> AckEvent {
        AckEvent {
            now,
            newly_acked: MSS as u64,
            rtt: Some(Duration::from_secs_f64(rtt_ms / 1e3)),
            min_rtt: Some(Duration::from_secs_f64(base_ms / 1e3)),
            newly_lost: 0,
            flight: 0,
            in_recovery: false,
            rate: None,
            ece: false,
        }
    }

    /// Drive a full epoch (several samples then cross the epoch boundary).
    fn epoch(cc: &mut Vegas, now: &mut Time, rtt_ms: f64, base_ms: f64) {
        for _ in 0..5 {
            cc.on_ack(&ack_at(*now, rtt_ms, base_ms));
            *now += Duration::from_millis(1);
        }
        *now += Duration::from_secs_f64(rtt_ms / 1e3);
        cc.on_ack(&ack_at(*now, rtt_ms, base_ms));
        *now += Duration::from_millis(1);
    }

    #[test]
    fn grows_when_queue_below_alpha() {
        // cwnd small, rtt == base: diff = 0 < alpha -> grow.
        let mut cc = Vegas::new(MSS, 20 * MSS as u64);
        cc.ssthresh = 10 * MSS as u64; // force CA
        let w0 = cc.cwnd();
        let mut now = Time::from_millis(1);
        epoch(&mut cc, &mut now, 10.0, 10.0);
        epoch(&mut cc, &mut now, 10.0, 10.0);
        assert!(cc.cwnd() > w0);
    }

    #[test]
    fn shrinks_when_queue_above_beta() {
        // 50 segments, rtt 20ms vs base 10ms: diff = 50*10/20 = 25 > beta.
        let mut cc = Vegas::new(MSS, 50 * MSS as u64);
        cc.ssthresh = 10 * MSS as u64;
        let w0 = cc.cwnd();
        let mut now = Time::from_millis(1);
        epoch(&mut cc, &mut now, 20.0, 10.0);
        epoch(&mut cc, &mut now, 20.0, 10.0);
        assert!(cc.cwnd() < w0);
    }

    #[test]
    fn holds_inside_band() {
        // Find an operating point with alpha < diff < beta:
        // cwnd=30seg, base=10ms, rtt s.t. diff=3: 30*(r-10)/r=3 -> r=11.11ms
        let mut cc = Vegas::new(MSS, 30 * MSS as u64);
        cc.ssthresh = 10 * MSS as u64;
        let w0 = cc.cwnd();
        let mut now = Time::from_millis(1);
        epoch(&mut cc, &mut now, 11.11, 10.0);
        epoch(&mut cc, &mut now, 11.11, 10.0);
        assert_eq!(cc.cwnd(), w0, "diff inside [alpha,beta] must hold cwnd");
    }

    #[test]
    fn converges_to_stable_operating_point() {
        // Simple closed loop: model queue delay as proportional to
        // cwnd beyond BDP. BDP = 10ms * 10Mbps = 12.5KB ≈ 8.6 segs.
        let mut cc = Vegas::new(MSS, 4 * MSS as u64);
        cc.ssthresh = u64::MAX;
        let mut now = Time::from_millis(1);
        let bdp_segs = 8.6;
        for _ in 0..200 {
            let cwnd_segs = cc.cwnd() as f64 / MSS as f64;
            let queued = (cwnd_segs - bdp_segs).max(0.0);
            let rtt_ms = 10.0 * (1.0 + queued / bdp_segs);
            epoch(&mut cc, &mut now, rtt_ms, 10.0);
        }
        // Stable point keeps between ~alpha and ~beta segments queued.
        let cwnd_segs = cc.cwnd() as f64 / MSS as f64;
        let queued = cwnd_segs - bdp_segs;
        assert!(
            queued > 0.5 && queued < 8.0,
            "queued {queued:.2} segments at convergence (cwnd {cwnd_segs:.1})"
        );
    }

    #[test]
    fn loss_halves() {
        let mut cc = Vegas::new(MSS, 40 * MSS as u64);
        cc.on_loss(Time::ZERO, 40 * MSS as u64);
        assert_eq!(cc.cwnd(), 20 * MSS as u64);
        cc.on_rto(Time::ZERO, 20 * MSS as u64);
        assert_eq!(cc.cwnd(), MSS as u64);
    }

    #[test]
    fn slow_start_exits_on_queue_buildup() {
        let mut cc = Vegas::new(MSS, 64 * MSS as u64);
        let mut now = Time::from_millis(1);
        // rtt well above base: diff large -> exit slow start immediately.
        epoch(&mut cc, &mut now, 30.0, 10.0);
        epoch(&mut cc, &mut now, 30.0, 10.0);
        assert!(!cc.in_slow_start());
    }
}
