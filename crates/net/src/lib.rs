//! # cebinae-net
//!
//! Network substrate for the Cebinae reproduction: packets, typed ids, the
//! queueing-discipline trait, the FIFO drop-tail baseline, and static
//! topologies with shortest-path routing.
//!
//! Everything here is *mechanism-free* with respect to fairness: the
//! interesting disciplines (Cebinae itself, FQ-CoDel, AFQ) live in their own
//! crates and plug in through [`qdisc::Qdisc`].

pub mod fifo;
pub mod ids;
pub mod packet;
pub mod qdisc;
pub mod topology;
pub mod tracing;

pub use fifo::FifoQdisc;
pub use ids::{FlowId, LinkId, NodeId};
pub use packet::{Ecn, Packet, PacketKind, SackBlocks, ACK_FRAME_BYTES, DATA_FRAME_BYTES, HEADER_BYTES, MSS};
pub use qdisc::{BufferConfig, DropReason, Qdisc, QdiscStats};
pub use topology::{LinkSpec, NodeKind, Routes, Topology};
pub use tracing::{PacketTrace, TraceEvent, TraceRecord};

// Property tests driven by the workspace's seeded generator: a fixed
// number of deterministically derived random cases per property, so every
// failure reproduces from the case index alone.
#[cfg(test)]
mod proptests {
    use super::*;
    use cebinae_sim::rng::DetRng;
    use cebinae_sim::Time;

    /// Model-based test of FIFO drop-tail: compare against a trivially
    /// correct reference (a Vec with the same byte limit).
    #[test]
    fn fifo_matches_reference_model() {
        for case in 0..128u64 {
            let mut rng = DetRng::seed_from_u64(0xf1f0_0001 ^ case);
            let cap_mtus = rng.gen_range_u64(1, 16);
            let n = rng.gen_range_usize(1, 200);
            let sizes: Vec<u32> =
                (0..n).map(|_| rng.gen_range_u64(52, 1501) as u32).collect();
            let cap_bytes = cap_mtus * 1500;
            let mut q = FifoQdisc::new(BufferConfig::mtus(cap_mtus));
            let mut model: Vec<u32> = Vec::new();
            let mut model_bytes = 0u64;
            for (i, &sz) in sizes.iter().enumerate() {
                let payload = sz.saturating_sub(HEADER_BYTES).clamp(1, MSS);
                let pkt = Packet::data(FlowId(0), i as u64, payload, false, Time::ZERO);
                let size = pkt.size;
                let accepted = q.enqueue(pkt, Time::ZERO).is_ok();
                let model_accepts = model_bytes + size as u64 <= cap_bytes;
                assert_eq!(accepted, model_accepts, "case {case}");
                if model_accepts {
                    model.push(size);
                    model_bytes += size as u64;
                }
                assert_eq!(q.byte_len(), model_bytes, "case {case}");
                assert_eq!(q.pkt_len(), model.len(), "case {case}");
            }
            // Drain: order and sizes must match the model exactly.
            for &expect in &model {
                let got = q.dequeue(Time::ZERO).unwrap();
                assert_eq!(got.size, expect, "case {case}");
            }
            assert!(q.dequeue(Time::ZERO).is_none(), "case {case}");
        }
    }

    /// Conservation: enq = tx + still-queued, in packets and bytes.
    #[test]
    fn fifo_conservation() {
        for case in 0..128u64 {
            let mut rng = DetRng::seed_from_u64(0xf1f0_0002 ^ case);
            let n_ops = rng.gen_range_usize(1, 300);
            let mut q = FifoQdisc::new(BufferConfig::mtus(8));
            let mut seq = 0u64;
            for _ in 0..n_ops {
                if rng.gen_bool(0.5) {
                    let _ = q.enqueue(
                        Packet::data(FlowId(0), seq, MSS, false, Time::ZERO),
                        Time::ZERO,
                    );
                    seq += 1;
                } else {
                    let _ = q.dequeue(Time::ZERO);
                }
                let s = q.stats();
                assert_eq!(s.enq_pkts, s.tx_pkts + q.pkt_len() as u64, "case {case}");
                assert_eq!(s.enq_bytes, s.tx_bytes + q.byte_len(), "case {case}");
            }
        }
    }
}
