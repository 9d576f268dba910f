//! # cebinae-fq
//!
//! Fair-queuing baselines for the Cebinae reproduction:
//!
//! * [`fqcodel`] — FQ-CoDel (RFC 8290), the paper's "FQ" comparison point,
//!   defaulting to the idealized one-queue-per-flow configuration the paper
//!   uses (queue count 2³²−1 in its ns-3 setup);
//! * [`codel`] — the CoDel control law (RFC 8289) used inside FQ-CoDel;
//! * [`afq`] — an AFQ-style calendar queue (NSDI '18), the calendar-queue
//!   scalability comparator of the paper's §2, including the Equation 1
//!   sizing model. PCQ (NSDI '20), the paper's other calendar-queue
//!   citation (§5.5), obeys the same sizing model and is cited, not built.

pub mod afq;
pub mod codel;
pub mod fqcodel;

pub use afq::{afq_min_bpr, AfqConfig, AfqQdisc};
pub use codel::{Codel, CodelVerdict};
pub use fqcodel::{FqCoDelConfig, FqCoDelQdisc};

// Property tests driven by the workspace's seeded generator (64 random
// cases per property, reproducible from the case index alone).
#[cfg(test)]
mod proptests {
    use super::*;
    use cebinae_net::{FlowId, Packet, Qdisc, MSS};
    use cebinae_sim::rng::DetRng;
    use cebinae_sim::Time;

    /// FQ-CoDel conservation: every enqueued packet is eventually either
    /// transmitted or counted as dropped, regardless of arrival pattern.
    #[test]
    fn fqcodel_conservation() {
        for case in 0..64u64 {
            let mut rng = DetRng::seed_from_u64(0xf9c0 ^ case);
            let n = rng.gen_range_usize(1, 300);
            let mut q = FqCoDelQdisc::new(FqCoDelConfig {
                limit_bytes: 20 * 1500,
                ..FqCoDelConfig::default()
            });
            let mut now = Time::ZERO;
            for _ in 0..n {
                let flow = rng.gen_range_u64(0, 8) as u32;
                let gap_ms = rng.gen_range_u64(0, 3);
                now = now + cebinae_sim::Duration::from_millis(gap_ms);
                let _ = q.enqueue(Packet::data(FlowId(flow), 0, MSS, false, now), now);
            }
            let mut tx = 0u64;
            while q.dequeue(now).is_some() {
                tx += 1;
            }
            let s = q.stats();
            assert_eq!(s.tx_pkts, tx, "case {case}");
            assert_eq!(s.enq_pkts, tx + s.drop_pkts, "case {case}");
            assert_eq!(q.byte_len(), 0, "case {case}");
        }
    }

    /// FQ-CoDel never exceeds its configured byte limit.
    #[test]
    fn fqcodel_respects_limit() {
        for case in 0..64u64 {
            let mut rng = DetRng::seed_from_u64(0xf9c1 ^ case);
            let n = rng.gen_range_usize(1, 400);
            let limit_mtus = rng.gen_range_u64(2, 32);
            let mut q = FqCoDelQdisc::new(FqCoDelConfig {
                limit_bytes: limit_mtus * 1500,
                ..FqCoDelConfig::default()
            });
            for i in 0..n {
                let _ = q.enqueue(
                    Packet::data(FlowId((i % 5) as u32), i as u64, MSS, false, Time::ZERO),
                    Time::ZERO,
                );
                assert!(q.byte_len() <= limit_mtus * 1500, "case {case}");
            }
        }
    }

    /// AFQ per-flow service bound: over any backlogged drain, no flow
    /// receives more than one BpR of service more than another
    /// backlogged flow (the approximate-fairness guarantee).
    #[test]
    fn afq_service_gap_bounded() {
        for case in 0..64u64 {
            let mut rng = DetRng::seed_from_u64(0xaf90 ^ case);
            let per_flow = rng.gen_range_usize(8, 40);
            let cfg = AfqConfig {
                n_queues: 64,
                bpr: 2 * 1500,
                limit_bytes: 1 << 30,
            };
            let mut q = AfqQdisc::new(cfg);
            for f in 0..4u32 {
                for i in 0..per_flow {
                    let _ = q.enqueue(
                        Packet::data(FlowId(f), i as u64, MSS, false, Time::ZERO),
                        Time::ZERO,
                    );
                }
            }
            // Drain half the backlog and compare service.
            let total = q.pkt_len();
            let mut served = [0u64; 4];
            for _ in 0..total / 2 {
                let p = q.dequeue(Time::ZERO).unwrap();
                served[p.flow.0 as usize] += p.size as u64;
            }
            let max = *served.iter().max().unwrap();
            let min = *served.iter().min().unwrap();
            // Bound: one round of BpR plus one packet of slack per flow.
            assert!(
                max - min <= cfg.bpr + 1500,
                "case {case}: service gap {} exceeds BpR bound",
                max - min
            );
        }
    }
}
