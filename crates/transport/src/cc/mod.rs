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

use cebinae_net::MSS;
use cebinae_sim::{Duration, Time};

/// Segment size in bytes: every segment but a flow's last is this long.
pub(crate) const MSS_BYTES: u64 = MSS as u64;
/// Initial window (RFC 6928's IW10).
const INIT_CWND: u64 = 10 * MSS_BYTES;
/// Floor of a loss-based CCA's reduced window.
const MIN_CWND: u64 = 2 * MSS_BYTES;

/// Delivery-rate sample for model-based CCAs (BBR), in the spirit of
/// `tcp_rate_sample`: how fast data was delivered over the interval covered
/// by the most recently acked packet.
#[derive(Clone, Copy, Debug)]
pub struct RateSample {
    /// Estimated delivery rate in bytes/sec.
    pub delivery_rate: f64,
    /// True if the sender was application-limited over the sample interval.
    pub is_app_limited: bool,
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
}

/// A congestion-control algorithm. All window quantities are in bytes.
pub trait CongestionControl: Send {
    /// Process an acknowledgement (including dup-ACKs, which carry
    /// `newly_acked == 0`).
    fn on_ack(&mut self, ev: &AckEvent);

    /// The sender detected loss via duplicate ACKs and is entering fast
    /// recovery (called once per recovery episode).
    fn on_loss(&mut self);

    /// Retransmission timeout fired with `flight` bytes outstanding, all of
    /// which the go-back-N presumes lost.
    fn on_rto(&mut self, flight: u64);

    /// An ECN congestion signal should be treated as a (once-per-window)
    /// loss-equivalent (RFC 3168). Default: same as loss.
    fn on_ecn(&mut self) {
        self.on_loss();
    }

    /// Current congestion window in bytes.
    fn cwnd(&self) -> u64;

    /// If `Some`, the sender paces packets at this rate (bytes/sec) instead
    /// of bursting on ACK clocking. BBR uses this.
    fn pacing_rate(&self) -> Option<f64> {
        None
    }
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
    /// Instantiate the algorithm at the IW10 initial window.
    pub fn build(self) -> Box<dyn CongestionControl> {
        match self {
            CcKind::NewReno => Box::new(NewReno::new()),
            CcKind::Cubic => Box::new(Cubic::new()),
            CcKind::Bic => Box::new(Bic::new()),
            CcKind::Vegas => Box::new(Vegas::new()),
            CcKind::Bbr => Box::new(Bbr::new()),
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

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// Drive a CCA with `n` full-MSS clean ACKs at a fixed RTT.
    pub fn feed_clean_acks(cc: &mut dyn CongestionControl, n: usize, rtt_ms: u64) {
        let rtt = Duration::from_millis(rtt_ms);
        let mut now = Time::ZERO;
        let mut delivered = 0u64;
        for _ in 0..n {
            now += Duration::from_millis(1);
            delivered += MSS_BYTES;
            cc.on_ack(&AckEvent {
                now,
                newly_acked: MSS_BYTES,
                rtt: Some(rtt),
                min_rtt: Some(rtt),
                newly_lost: 0,
                flight: cc.cwnd() / 2,
                in_recovery: false,
                rate: Some(RateSample {
                    delivery_rate: 1e7,
                    is_app_limited: false,
                    delivered_total: delivered,
                    delivered_at_send: delivered.saturating_sub(cc.cwnd()),
                }),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_build_with_sane_initial_windows() {
        for kind in CcKind::ALL {
            let cc = kind.build();
            assert_eq!(cc.cwnd(), INIT_CWND, "{}", kind.label());
        }
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            CcKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), CcKind::ALL.len());
    }
}
