//! TCP NewReno (RFC 6582 window dynamics): slow start, AIMD congestion
//! avoidance, halve-on-loss. The "classic approach to loss-based congestion
//! control" in the paper's CCA mix.

use super::{AckEvent, CongestionControl, INIT_CWND, MIN_CWND, MSS_BYTES};

pub struct NewReno {
    cwnd: u64,
    ssthresh: u64,
    /// Fractional-cwnd accumulator for congestion avoidance (bytes acked
    /// since the last full-MSS window increment).
    acked_accum: u64,
}

impl NewReno {
    pub(crate) fn new() -> NewReno {
        NewReno {
            cwnd: INIT_CWND,
            ssthresh: u64::MAX,
            acked_accum: 0,
        }
    }

    fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }
}

impl CongestionControl for NewReno {
    fn on_ack(&mut self, ev: &AckEvent) {
        if ev.newly_acked == 0 || ev.in_recovery {
            // Dup-ACKs and recovery ACKs do not grow the window; recovery
            // sending is governed by the sender's window inflation.
            return;
        }
        if self.in_slow_start() {
            // Exponential growth: cwnd += bytes acked (capped at ssthresh
            // boundary so we don't overshoot into CA).
            let room = self.ssthresh.saturating_sub(self.cwnd);
            let ss_inc = ev.newly_acked.min(room);
            self.cwnd += ss_inc;
            let leftover = ev.newly_acked - ss_inc;
            self.acked_accum += leftover;
        } else {
            self.acked_accum += ev.newly_acked;
        }
        // Congestion avoidance: +1 MSS per cwnd bytes acked.
        if !self.in_slow_start() {
            while self.acked_accum >= self.cwnd {
                self.acked_accum -= self.cwnd;
                self.cwnd += MSS_BYTES;
            }
        }
    }

    fn on_loss(&mut self) {
        // Halve cwnd, not RFC 6582's FlightSize: during SACK recovery the
        // raw flight legitimately exceeds cwnd (EXPERIMENTS.md finding 5).
        let base = self.cwnd;
        self.ssthresh = (base / 2).max(MIN_CWND);
        self.cwnd = self.ssthresh;
        self.acked_accum = 0;
    }

    fn on_rto(&mut self, _flight: u64) {
        let base = self.cwnd;
        self.ssthresh = (base / 2).max(MIN_CWND);
        self.cwnd = MSS_BYTES;
        self.acked_accum = 0;
    }

    fn cwnd(&self) -> u64 {
        self.cwnd
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::testutil::feed_clean_acks;
    use cebinae_sim::{Duration, Time};

    const M: u64 = MSS_BYTES;

    fn ack(newly: u64, flight: u64) -> AckEvent {
        AckEvent {
            now: Time::ZERO,
            newly_acked: newly,
            rtt: Some(Duration::from_millis(10)),
            min_rtt: Some(Duration::from_millis(10)),
            newly_lost: 0,
            flight,
            in_recovery: false,
            rate: None,
        }
    }

    #[test]
    fn slow_start_doubles_per_window() {
        let mut cc = NewReno::new();
        // Ack one full window: cwnd should double.
        for _ in 0..10 {
            cc.on_ack(&ack(M, 0));
        }
        assert_eq!(cc.cwnd(), 20 * M);
    }

    #[test]
    fn congestion_avoidance_is_linear() {
        let mut cc = NewReno { cwnd: 20 * M, ..NewReno::new() };
        cc.on_loss(); // ssthresh = cwnd/2 = 10 MSS
        assert_eq!(cc.cwnd(), 10 * M);
        let before = cc.cwnd();
        // One full window of ACKs in CA -> +1 MSS.
        for _ in 0..10 {
            cc.on_ack(&ack(M, 0));
        }
        assert_eq!(cc.cwnd(), before + M);
    }

    #[test]
    fn loss_halves_and_rto_collapses() {
        let mut cc = NewReno { cwnd: 100 * M, ..NewReno::new() };
        cc.on_loss();
        assert_eq!(cc.cwnd(), 50 * M);
        assert_eq!(cc.ssthresh, 50 * M);
        cc.on_rto(50 * M);
        assert_eq!(cc.cwnd(), M);
        assert_eq!(cc.ssthresh, 25 * M);
    }

    #[test]
    fn cwnd_never_below_floor_on_loss() {
        let mut cc = NewReno { cwnd: 2 * M, ..NewReno::new() };
        cc.on_loss();
        assert!(cc.cwnd() >= 2 * M);
    }

    #[test]
    fn dup_acks_do_not_grow_window() {
        let mut cc = NewReno::new();
        let w = cc.cwnd();
        for _ in 0..50 {
            cc.on_ack(&ack(0, 0));
        }
        assert_eq!(cc.cwnd(), w);
    }

    #[test]
    fn sustained_acks_grow_monotonically_without_loss() {
        let mut cc = NewReno::new();
        let mut last = cc.cwnd();
        for _ in 0..5 {
            feed_clean_acks(&mut cc, 100, 10);
            assert!(cc.cwnd() >= last);
            last = cc.cwnd();
        }
    }

    #[test]
    fn slow_start_exit_is_exact_at_ssthresh() {
        let mut cc = NewReno { cwnd: 30 * M, ..NewReno::new() };
        cc.on_loss(); // ssthresh = cwnd/2 = 15 MSS
        // After the halving, cwnd == ssthresh: growth is linear immediately.
        let w0 = cc.cwnd();
        assert_eq!(w0, 15 * M);
        for _ in 0..15 {
            cc.on_ack(&ack(M, 0));
        }
        assert_eq!(cc.cwnd(), w0 + M);
    }
}
