//! # cebinae-transport
//!
//! TCP endpoints and congestion-control algorithms for the Cebinae
//! reproduction.
//!
//! The paper's premise is that Internet flows bring *heterogeneous* CCAs —
//! loss-based (NewReno, Cubic, Bic), delay-based (Vegas), and model-based
//! (BBRv1) — whose interactions produce persistent unfairness that the
//! network must police. This crate implements that CCA zoo behind one trait
//! ([`cc::CongestionControl`]) on top of a shared sender/receiver state
//! machine, mirroring the paper's ns-3 host stacks.
//!
//! Intentional simplifications (documented for reviewers):
//!
//! * SACK (RFC 2018/6675) is always on, as in the paper's ns-3.35 stack
//!   (EXPERIMENTS.md, substrate finding 1: Table 2 is unreachable without).
//! * ACK-per-packet (no delayed ACKs) for even ACK clocking.
//! * ECN echo is per-packet rather than latched-until-CWR; the sender's
//!   once-per-window reaction makes the two equivalent for window dynamics.

pub mod cc;
mod range_set;
pub mod receiver;
pub mod rtt;
mod scoreboard;
pub mod sender;

pub use cc::{AckEvent, CcKind, CongestionControl, RateSample};
pub use receiver::TcpReceiver;
pub use rtt::RttEstimator;
pub use sender::{TcpConfig, TcpOutput, TcpSender, TimerAction};

// Property tests driven by the workspace's seeded generator (32 random
// cases per property, reproducible from the case index alone).
#[cfg(test)]
mod proptests {
    use super::*;
    use cebinae_net::{FlowId, PacketKind, MSS};
    use cebinae_sim::rng::DetRng;
    use cebinae_sim::{Duration, Time};

    /// Replay arbitrary (lossy) delivery patterns through a sender/receiver
    /// pair connected by an explicit in-flight queue and check end-to-end
    /// invariants.
    fn lossy_session(cc: CcKind, drops: &[bool], max_steps: usize) -> (u64, u64, u64) {
        let mut s = TcpSender::new(FlowId(0), TcpConfig::with_cc(cc));
        let mut r = TcpReceiver::new(FlowId(0));
        let mut now = Time::from_millis(1);
        let mut inflight: std::collections::VecDeque<cebinae_net::Packet> =
            s.start(now).packets.into();
        let mut drop_iter = drops.iter().cycle();
        let mut steps = 0;
        let mut rto_at: Option<Time> = None;

        while steps < max_steps {
            steps += 1;
            now += Duration::from_millis(1);
            if let Some(pkt) = inflight.pop_front() {
                if *drop_iter.next().unwrap() {
                    continue; // dropped in the network
                }
                let ack = r.on_data(&pkt, now);
                let PacketKind::Ack {
                    ack_seq,
                    ece,
                    echo_ts,
                    echo_retx,
                    sack,
                } = ack.kind
                else {
                    unreachable!()
                };
                let out = s.on_ack(ack_seq, ece, echo_ts, echo_retx, &sack, now);
                inflight.extend(out.packets);
                match out.rto {
                    Some(TimerAction::Set(t)) => rto_at = Some(t),
                    Some(TimerAction::Cancel) => rto_at = None,
                    None => {}
                }
            } else if let Some(t) = rto_at {
                // Nothing in flight toward the receiver: fire the RTO.
                now = now.max(t);
                let mut out = TcpOutput::default();
                s.on_rto_timer_into(now, &mut out);
                inflight.extend(out.packets);
                match out.rto {
                    Some(TimerAction::Set(t)) => rto_at = Some(t),
                    Some(TimerAction::Cancel) => rto_at = None,
                    None => {}
                }
            } else {
                break;
            }
        }
        (s.delivered(), r.delivered(), r.ooo_bytes())
    }

    /// Under arbitrary loss patterns, the sender's delivered count
    /// (cumulative + SACKed, so it may lead the receiver's *in-order*
    /// count by the out-of-order buffer) stays consistent with the
    /// receiver's state.
    #[test]
    fn sender_receiver_delivery_consistency() {
        for case in 0..32u64 {
            let mut rng = DetRng::seed_from_u64(0x7c9_0001 ^ case);
            let n = rng.gen_range_usize(8, 64);
            let drops: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.2)).collect();
            let cc = CcKind::ALL[rng.gen_range_usize(0, 5)];
            let (snd, rcv_in_order, rcv_ooo) = lossy_session(cc, &drops, 2_000);
            assert!(
                snd <= rcv_in_order + rcv_ooo,
                "case {case}: sender delivered {snd} > receiver {rcv_in_order} (+{rcv_ooo} ooo)"
            );
        }
    }

    /// With a loss-free network every CCA delivers all data promptly.
    #[test]
    fn lossless_sessions_make_progress() {
        for cc in CcKind::ALL {
            let (snd, rcv, ooo) = lossy_session(cc, &[false], 500);
            assert!(snd > 0);
            assert_eq!(snd, rcv);
            assert_eq!(ooo, 0);
        }
    }

    /// cwnd stays within sane bounds (>= 1 MSS, < 2^32) under random
    /// ack/loss sequences fed directly to each CCA.
    #[test]
    fn cc_windows_stay_bounded() {
        for case in 0..32u64 {
            let mut rng = DetRng::seed_from_u64(0x7c9_0003 ^ case);
            let n = rng.gen_range_usize(1, 400);
            let kind = CcKind::ALL[rng.gen_range_usize(0, 5)];
            let mut cc = kind.build();
            let mut now = Time::from_millis(1);
            let mut delivered = 0u64;
            for _ in 0..n {
                now += Duration::from_millis(3);
                match rng.gen_range_u64(0, 10) {
                    0 => cc.on_loss(),
                    1 => cc.on_rto(cc.cwnd()),
                    2 => cc.on_ecn(),
                    _ => {
                        delivered += MSS as u64;
                        cc.on_ack(&AckEvent {
                            now,
                            newly_acked: MSS as u64,
                            rtt: Some(Duration::from_millis(10)),
                            min_rtt: Some(Duration::from_millis(5)),
                            newly_lost: 0,
                            flight: cc.cwnd() / 2,
                            in_recovery: false,
                            rate: Some(RateSample {
                                delivery_rate: 1e6,
                                is_app_limited: false,
                                delivered_total: delivered,
                                delivered_at_send: delivered.saturating_sub(10 * MSS as u64),
                            }),
                        });
                    }
                }
                assert!(cc.cwnd() >= MSS as u64, "case {case}: {} cwnd collapsed", kind.label());
                assert!(cc.cwnd() < u32::MAX as u64, "case {case}: {} cwnd exploded", kind.label());
            }
        }
    }
}
