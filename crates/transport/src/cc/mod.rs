//! Pluggable congestion-control algorithms.
//!
//! The paper evaluates Cebinae against a representative mix of Internet
//! CCAs (§5): NewReno (classic loss-based), Cubic (current Linux/Windows
//! default) and its predecessor Bic, Vegas (delay-based), and BBRv1
//! (model-based, loss-agnostic). Each is implemented here against a single
//! trait so the TCP sender machinery is shared.
//!
//! The split of responsibilities follows the usual stack layering: the
//! sender (in [`crate::sender`]) owns sequence-space bookkeeping, loss
//! *detection* (dup-ACKs, RTO) and retransmission; the CCA owns the window
//! and pacing-rate *response*.

mod bbr;
mod bic;
mod cubic;
mod newreno;
mod vegas;

pub use bbr::Bbr;
pub use bic::Bic;
pub use cubic::Cubic;
pub use newreno::NewReno;
pub use vegas::Vegas;

use cebinae_sim::{Duration, Time};

/// Delivery-rate sample for model-based CCAs (BBR), in the spirit of
/// `tcp_rate_sample`: how fast data was delivered over the interval covered
/// by the most recently acked packet.
#[derive(Clone, Copy, Debug)]
pub struct RateSample {
    /// Estimated delivery rate in bytes/sec.
    pub delivery_rate: f64,
    /// True if the sender was application-limited over the sample interval.
    pub is_app_limited: bool,
    /// Bytes newly marked delivered by this ACK.
    pub delivered: u64,
    /// The total delivered count at this ACK (round tracking).
    pub delivered_total: u64,
    /// The `delivered_total` value recorded when the acked packet was sent.
    pub delivered_at_send: u64,
}

/// Everything a CCA may want to know about an arriving ACK.
#[derive(Clone, Copy, Debug)]
pub struct AckEvent {
    pub now: Time,
    /// Bytes newly cumulatively acknowledged by this ACK (0 for dup-ACKs).
    pub newly_acked: u64,
    /// RTT sample from this ACK, if one was available (Karn-filtered).
    pub rtt: Option<Duration>,
    /// Minimum RTT observed over the connection lifetime.
    pub min_rtt: Option<Duration>,
    /// Bytes newly marked lost by this ACK's SACK evidence (RTOs are
    /// reported via `on_rto`).
    pub newly_lost: u64,
    /// Bytes in flight *after* processing this ACK.
    pub flight: u64,
    /// Whether the sender is currently in fast recovery.
    pub in_recovery: bool,
    /// Delivery-rate sample, when computable.
    pub rate: Option<RateSample>,
    /// ECN-echo seen on this ACK.
    pub ece: bool,
}

/// A congestion-control algorithm. All window quantities are in bytes.
pub trait CongestionControl: Send {
    /// Process an acknowledgement (including dup-ACKs, which carry
    /// `newly_acked == 0`).
    fn on_ack(&mut self, ev: &AckEvent);

    /// The sender detected loss via duplicate ACKs and is entering fast
    /// recovery (called once per recovery episode). `flight` is the bytes
    /// in flight at detection time.
    fn on_loss(&mut self, now: Time, flight: u64);

    /// Retransmission timeout fired.
    fn on_rto(&mut self, now: Time, flight: u64);

    /// Fast recovery completed (the recovery point was acked).
    fn on_recovery_exit(&mut self, _now: Time) {}

    /// An ECN congestion signal should be treated as a (once-per-window)
    /// loss-equivalent (RFC 3168). Default: same as loss.
    fn on_ecn(&mut self, now: Time, flight: u64) {
        self.on_loss(now, flight);
    }

    /// Current congestion window in bytes.
    fn cwnd(&self) -> u64;

    /// Slow-start threshold in bytes (`u64::MAX` when not meaningful).
    fn ssthresh(&self) -> u64 {
        u64::MAX
    }

    /// If `Some`, the sender paces packets at this rate (bytes/sec) instead
    /// of bursting on ACK clocking. BBR uses this.
    fn pacing_rate(&self) -> Option<f64> {
        None
    }

    fn name(&self) -> &'static str;
}

/// Selector for constructing CCAs from experiment configs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CcKind {
    NewReno,
    Cubic,
    Bic,
    Vegas,
    Bbr,
}

impl CcKind {
    /// Instantiate the algorithm. `mss` is the sender's segment size and
    /// `init_cwnd` the initial window, both in bytes.
    pub fn build(self, mss: u32, init_cwnd: u64) -> Box<dyn CongestionControl> {
        match self {
            CcKind::NewReno => Box::new(NewReno::new(mss, init_cwnd)),
            CcKind::Cubic => Box::new(Cubic::new(mss, init_cwnd)),
            CcKind::Bic => Box::new(Bic::new(mss, init_cwnd)),
            CcKind::Vegas => Box::new(Vegas::new(mss, init_cwnd)),
            CcKind::Bbr => Box::new(Bbr::new(mss, init_cwnd)),
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            CcKind::NewReno => "NewReno",
            CcKind::Cubic => "Cubic",
            CcKind::Bic => "Bic",
            CcKind::Vegas => "Vegas",
            CcKind::Bbr => "BBR",
        }
    }

    /// The paper's headline CCA mix (Table 2 / §5).
    pub const ALL: [CcKind; 5] = [
        CcKind::NewReno,
        CcKind::Cubic,
        CcKind::Bic,
        CcKind::Vegas,
        CcKind::Bbr,
    ];
}

impl std::str::FromStr for CcKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "newreno" | "reno" => Ok(CcKind::NewReno),
            "cubic" => Ok(CcKind::Cubic),
            "bic" => Ok(CcKind::Bic),
            "vegas" => Ok(CcKind::Vegas),
            "bbr" | "bbrv1" => Ok(CcKind::Bbr),
            other => Err(format!("unknown congestion control algorithm: {other}")),
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// Drive a CCA with `n` full-MSS clean ACKs at a fixed RTT.
    pub fn feed_clean_acks(cc: &mut dyn CongestionControl, n: usize, mss: u32, rtt_ms: u64) {
        let rtt = Duration::from_millis(rtt_ms);
        let mut now = Time::ZERO;
        let mut delivered = 0u64;
        for _ in 0..n {
            now += Duration::from_millis(1);
            delivered += mss as u64;
            cc.on_ack(&AckEvent {
                now,
                newly_acked: mss as u64,
                rtt: Some(rtt),
                min_rtt: Some(rtt),
                newly_lost: 0,
                flight: cc.cwnd() / 2,
                in_recovery: false,
                rate: Some(RateSample {
                    delivery_rate: 1e7,
                    is_app_limited: false,
                    delivered: mss as u64,
                    delivered_total: delivered,
                    delivered_at_send: delivered.saturating_sub(cc.cwnd()),
                }),
                ece: false,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_parsing() {
        assert_eq!("newreno".parse::<CcKind>().unwrap(), CcKind::NewReno);
        assert_eq!("CUBIC".parse::<CcKind>().unwrap(), CcKind::Cubic);
        assert_eq!("bbrv1".parse::<CcKind>().unwrap(), CcKind::Bbr);
        assert!("quic".parse::<CcKind>().is_err());
    }

    #[test]
    fn all_kinds_build_with_sane_initial_windows() {
        for kind in CcKind::ALL {
            let cc = kind.build(1448, 10 * 1448);
            assert_eq!(cc.cwnd(), 10 * 1448, "{}", kind.label());
            assert!(!cc.name().is_empty());
        }
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            CcKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), CcKind::ALL.len());
    }

    #[test]
    fn every_kind_builds_and_parses() {
        for kind in CcKind::ALL {
            let cc = kind.build(1448, 10 * 1448);
            assert_eq!(cc.cwnd(), 10 * 1448, "{}", kind.label());
            let lowered = kind.label().to_ascii_lowercase().replace('-', "");
            let reparsed: Result<CcKind, _> = lowered.parse();
            assert!(reparsed.is_ok(), "{lowered} must parse");
        }
    }
}
