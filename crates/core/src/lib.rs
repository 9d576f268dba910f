//! # cebinae
//!
//! A from-scratch Rust implementation of **Cebinae: Scalable In-network
//! Fairness Augmentation** (Yu, Sonchack, Liu — SIGCOMM 2022).
//!
//! Cebinae augments a network of legacy, heterogeneous congestion-
//! controlled hosts with pressure toward max-min fairness. Each router
//! independently (1) detects *saturated* ports, (2) identifies the
//! *bottlenecked* (⊤) flows on them — the flows at the local maximum rate,
//! per the paper's Definition 2 — and (3) *taxes* those flows by a small
//! fraction τ through a two-queue approximated leaky-bucket filter, letting
//! all other flows grow into the reclaimed headroom. With responsive flows,
//! the network converges toward the max-min allocation without per-flow
//! queues, end-host changes, or coordination between routers.
//!
//! ## Crate layout
//!
//! * [`config`] — the Table 1 parameter set and §4.4 auto-configuration;
//! * [`lbf`] — the Figure 5 leaky-bucket-filter data plane (round clock,
//!   per-group state, virtual pacing);
//! * [`cache`] — the §4.2 passive heavy-hitter flow cache;
//! * [`agent`] — the Figure 4 control-plane recomputation;
//! * [`qdisc`] — [`CebinaeQdisc`], the full per-port state machine
//!   (Figure 6 timeline: ROTATE / apply windows, phase changes);
//! * [`resources`] — the Table 3 hardware resource model and Equation 1
//!   scalability comparison.
//!
//! ## Quick start
//!
//! ```
//! use cebinae::{CebinaeConfig, CebinaeQdisc};
//! use cebinae_net::{BufferConfig, FlowId, Packet, Qdisc, MSS};
//! use cebinae_sim::{Duration, Time};
//!
//! // A 100 Mbps port with a 420-MTU buffer serving RTTs up to 50 ms.
//! let cfg = CebinaeConfig::for_link(
//!     100_000_000,
//!     BufferConfig::mtus(420),
//!     Duration::from_millis(50),
//! );
//! let mut port = CebinaeQdisc::new(cfg, 100_000_000, /*seed=*/ 0);
//!
//! // The engine activates the port and then delivers control events at the
//! // times the qdisc requests (rotations, membership windows).
//! let mut next_ctl = port.activate(Time::ZERO).unwrap();
//!
//! // Data path: enqueue on arrival, dequeue when the link is free.
//! let pkt = Packet::data(FlowId(7), 0, MSS, false, Time::ZERO);
//! port.enqueue(pkt, Time::ZERO).unwrap();
//! assert!(port.dequeue(Time::from_micros(5)).is_some());
//!
//! // Control path (normally driven by the simulator's event loop):
//! next_ctl = port.control(next_ctl).unwrap();
//! # let _ = next_ctl;
//! ```

pub mod agent;
pub mod cache;
pub mod config;
pub mod convergence;
pub mod lbf;
pub mod qdisc;
pub mod resources;

pub use agent::{recompute, RecomputeDecision, RecomputeInput};
pub use convergence::{rounds_to_converge, FluidFlow, FluidModel};
pub use cache::HeavyHitterCache;
pub use config::{min_dt, CebinaeConfig};
pub use lbf::{GroupLbf, LbfVerdict, RoundClock};
pub use qdisc::{CebinaeQdisc, CebinaeXstats};
pub use resources::{model_usage, scalability_point, ResourceUsage, SwitchProfile};

// Property tests driven by the workspace's seeded generator (24 random
// cases per property, reproducible from the case index alone).
#[cfg(test)]
mod proptests {
    use super::*;
    use cebinae_net::{BufferConfig, FlowId, Packet, Qdisc, MSS};
    use cebinae_sim::rng::DetRng;
    use cebinae_sim::{Duration, Time};
    use std::collections::HashMap;

    /// Conservation and buffer invariants hold for arbitrary arrival
    /// patterns interleaved with the control schedule.
    #[test]
    fn qdisc_invariants_under_random_load() {
        for case in 0..24u64 {
            let mut rng = DetRng::seed_from_u64(0xceb_0001 ^ case);
            let n_ops = rng.gen_range_usize(50, 600);
            let rate = 100_000_000u64;
            let cfg = CebinaeConfig::for_link(
                rate,
                BufferConfig::mtus(64),
                Duration::from_millis(20),
            );
            let buffer = cfg.buffer.bytes;
            let mut q = qdisc::CebinaeQdisc::new(cfg, rate, 9);
            let mut next_ctl = q.activate(Time::ZERO).unwrap();
            let mut now = Time::ZERO;
            let mut seq = 0u64;
            for _ in 0..n_ops {
                let op = rng.gen_range_u64(0, 4) as u8;
                let flow = rng.gen_range_u64(0, 6) as u32;
                now += Duration::from_micros(200);
                while now >= next_ctl {
                    next_ctl = q.control(next_ctl).unwrap();
                }
                match op {
                    0 | 1 => {
                        let _ = q.enqueue(
                            Packet::data(FlowId(flow), seq, MSS, false, now),
                            now,
                        );
                        seq += 1;
                    }
                    _ => {
                        let _ = q.dequeue(now);
                    }
                }
                assert!(q.byte_len() <= buffer, "case {case}");
                let s = q.stats();
                assert_eq!(s.enq_bytes, s.tx_bytes + q.byte_len(), "case {case}");
            }
        }
    }

    /// The LBF never reorders packets *within a flow group*: dequeue
    /// order of a single flow's packets preserves enqueue order.
    #[test]
    fn no_intra_flow_reordering() {
        for case in 0..24u64 {
            let mut rng = DetRng::seed_from_u64(0xceb_0002 ^ case);
            let n_bursts = rng.gen_range_usize(4, 40);
            let bursts: Vec<usize> =
                (0..n_bursts).map(|_| rng.gen_range_usize(1, 30)).collect();
            let rate = 100_000_000u64;
            let cfg = CebinaeConfig::for_link(
                rate,
                BufferConfig::mtus(256),
                Duration::from_millis(20),
            );
            let mut q = qdisc::CebinaeQdisc::new(cfg, rate, 5);
            let mut next_ctl = q.activate(Time::ZERO).unwrap();
            let mut now = Time::ZERO;
            let mut seq = 0u64;
            let mut last_seen: HashMap<u32, u64> = HashMap::new();
            for burst in bursts {
                for _ in 0..burst {
                    let _ = q.enqueue(Packet::data(FlowId(0), seq, MSS, false, now), now);
                    seq += 1;
                }
                // Drain a bit, crossing control events as time advances.
                for _ in 0..burst {
                    now += Duration::from_micros(120);
                    while now >= next_ctl {
                        next_ctl = q.control(next_ctl).unwrap();
                    }
                    if let Some(p) = q.dequeue(now) {
                        if let cebinae_net::PacketKind::Data { seq: s, .. } = p.kind {
                            let last = last_seen.entry(p.flow.0).or_insert(0);
                            assert!(
                                s >= *last,
                                "case {case}: flow {} reordered: {} after {}",
                                p.flow.0,
                                s,
                                last
                            );
                            *last = s;
                        }
                    }
                }
            }
        }
    }

    /// Per burst round, total admission (head + tail) never exceeds two
    /// rounds of line rate plus the vdT catch-up allowance — the §4.3
    /// worst-case burst bound that guarantees queue drain.
    #[test]
    fn admission_bounded_per_round() {
        for case in 0..24u64 {
            let mut rng = DetRng::seed_from_u64(0xceb_0003 ^ case);
            let load_factor = rng.gen_range_f64(1.0, 4.0);
            let rate = 100_000_000u64;
            let cfg = CebinaeConfig::for_link(
                rate,
                BufferConfig::mtus(400),
                Duration::from_millis(20),
            );
            let dt = cfg.dt;
            let vdt = cfg.vdt;
            let mut q = qdisc::CebinaeQdisc::new(cfg, rate, 3);
            let mut next_ctl = q.activate(Time::ZERO).unwrap();
            let line_per_round = rate as f64 / 8.0 * dt.as_secs_f64();
            let pkts = (line_per_round * load_factor / MSS as f64) as usize;
            let mut seq = 0;
            for _round in 0..3 {
                let start = next_ctl - dt;
                let mut admitted = 0u64;
                for i in 0..pkts {
                    let t = start + Duration((dt.as_nanos() * i as u64) / pkts as u64);
                    if q
                        .enqueue(Packet::data(FlowId(0), seq, MSS, false, t), t)
                        .is_ok()
                    {
                        admitted += 1;
                    }
                    seq += 1;
                }
                let bound =
                    2.0 * line_per_round + (rate as f64 / 8.0 * vdt.as_secs_f64()) + 3000.0;
                assert!(
                    (admitted * MSS as u64) as f64 <= bound,
                    "case {case}: admitted {} bytes > bound {}",
                    admitted * MSS as u64,
                    bound
                );
                // Drain and rotate.
                while q.dequeue(next_ctl).is_some() {}
                next_ctl = q.control(next_ctl).unwrap(); // rotate
                next_ctl = q.control(next_ctl).unwrap(); // apply
            }
        }
    }
}
