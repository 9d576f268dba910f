//! The TCP receiver: in-order reassembly, cumulative ACK generation
//! (every packet — no delayed ACKs, for even ACK clocking), duplicate-ACK
//! emission for out-of-order arrivals, and ECN echo.

use cebinae_sim::Time;
use cebinae_net::{Ecn, FlowId, Packet, PacketKind, SackBlocks};

use crate::range_set::RangeSet;

/// One TCP receiver endpoint.
pub struct TcpReceiver {
    flow: FlowId,
    /// Next expected in-order byte (== total in-order bytes delivered to
    /// the application, our goodput numerator).
    rcv_nxt: u64,
    /// Bytes received above `rcv_nxt` (out of order).
    ooo: RangeSet,
    /// Data packets received (including duplicates).
    pub rx_pkts: u64,
    /// Duplicate (already-delivered) data packets seen.
    pub dup_pkts: u64,
    /// The OOO range containing the most recent arrival (reported first,
    /// per RFC 2018).
    last_block: Option<(u64, u64)>,
}

impl TcpReceiver {
    pub fn new(flow: FlowId) -> TcpReceiver {
        TcpReceiver {
            flow,
            rcv_nxt: 0,
            ooo: RangeSet::default(),
            rx_pkts: 0,
            dup_pkts: 0,
            last_block: None,
        }
    }

    /// In-order bytes delivered to the application.
    pub fn delivered(&self) -> u64 {
        self.rcv_nxt
    }

    /// Bytes buffered out of order.
    pub fn ooo_bytes(&self) -> u64 {
        self.ooo.iter().map(|(s, e)| e - s).sum()
    }

    /// Process an arriving data packet and produce the ACK to send back.
    pub fn on_data(&mut self, pkt: &Packet, now: Time) -> Packet {
        let PacketKind::Data { seq, is_retx } = pkt.kind else {
            panic!("receiver got a non-data packet");
        };
        self.rx_pkts += 1;
        let len = pkt.payload_bytes() as u64;
        let end = seq + len;

        if end <= self.rcv_nxt {
            self.dup_pkts += 1;
        } else if seq <= self.rcv_nxt {
            // In-order (possibly partially duplicate): advance and drain
            // any now-contiguous buffered segments.
            self.rcv_nxt = self.ooo.take_through(end);
        } else {
            // Out of order: buffer, and remember the (merged) range
            // containing this arrival.
            self.ooo.insert(seq, end);
            self.last_block = self.ooo.containing(seq);
        }

        let ece = pkt.ecn == Ecn::CongestionExperienced;
        let sack = self.sack_blocks();
        Packet::ack_with_sack(self.flow, self.rcv_nxt, ece, pkt.sent_at, is_retx, sack, now)
    }

    /// Build the SACK option: the most recently updated block first, then
    /// the lowest remaining ranges (RFC 2018's repetition rule spreads
    /// knowledge of all holes across consecutive ACKs).
    fn sack_blocks(&self) -> SackBlocks {
        let mut blocks = [(0, 0); 3];
        let mut n = 0;
        if let Some((s, e)) = self.last_block {
            // The range may since have been delivered or re-merged.
            if self.ooo.containing(s) == Some((s, e)) && s >= self.rcv_nxt {
                blocks[0] = (s, e);
                n = 1;
            }
        }
        for (s, e) in self.ooo.iter() {
            if n == 3 {
                break;
            }
            if n > 0 && blocks[0] == (s, e) {
                continue;
            }
            blocks[n] = (s, e);
            n += 1;
        }
        SackBlocks::new(self.rcv_nxt, &blocks[..n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cebinae_net::MSS;
    use cebinae_sim::rng::DetRng;

    const M: u64 = MSS as u64;

    fn data(seq: u64, now_ms: u64) -> Packet {
        Packet::data(FlowId(0), seq, MSS, false, Time::from_millis(now_ms))
    }

    fn ack_seq(p: &Packet) -> u64 {
        match p.kind {
            PacketKind::Ack { ack_seq, .. } => ack_seq,
            _ => panic!("expected ack"),
        }
    }

    #[test]
    fn in_order_delivery() {
        let mut r = TcpReceiver::new(FlowId(0));
        for i in 0..5 {
            let a = r.on_data(&data(i * M, i), Time::from_millis(i + 1));
            assert_eq!(ack_seq(&a), (i + 1) * M);
        }
        assert_eq!(r.delivered(), 5 * M);
        assert_eq!(r.ooo_bytes(), 0);
    }

    #[test]
    fn gap_generates_dup_acks_then_heals() {
        let mut r = TcpReceiver::new(FlowId(0));
        r.on_data(&data(0, 0), Time::from_millis(1));
        // Segment 1 lost; segments 2..5 arrive out of order.
        for i in 2..5 {
            let a = r.on_data(&data(i * M, 0), Time::from_millis(2));
            assert_eq!(ack_seq(&a), M, "dup acks at the hole");
        }
        assert_eq!(r.ooo_bytes(), 3 * M);
        // Retransmission of segment 1 heals everything.
        let a = r.on_data(&data(M, 0), Time::from_millis(3));
        assert_eq!(ack_seq(&a), 5 * M);
        assert_eq!(r.ooo_bytes(), 0);
    }

    #[test]
    fn duplicates_are_counted_not_delivered() {
        let mut r = TcpReceiver::new(FlowId(0));
        r.on_data(&data(0, 0), Time::from_millis(1));
        let a = r.on_data(&data(0, 0), Time::from_millis(2));
        assert_eq!(ack_seq(&a), M);
        assert_eq!(r.dup_pkts, 1);
        assert_eq!(r.delivered(), M);
    }

    #[test]
    fn ooo_merge_of_overlapping_ranges() {
        let mut r = TcpReceiver::new(FlowId(0));
        // Leave a hole at [0, M); buffer [2M,3M) and [3M,4M) and re-buffer
        // [2M,3M) again — should coalesce to one range.
        r.on_data(&data(2 * M, 0), Time::from_millis(1));
        r.on_data(&data(3 * M, 0), Time::from_millis(1));
        r.on_data(&data(2 * M, 0), Time::from_millis(1));
        assert_eq!(r.ooo.iter().count(), 1);
        assert_eq!(r.ooo_bytes(), 2 * M);
    }

    #[test]
    fn ecn_echoed_only_for_marked_packets() {
        let mut r = TcpReceiver::new(FlowId(0));
        let mut p = data(0, 0);
        p.ecn = Ecn::CongestionExperienced;
        let a = r.on_data(&p, Time::from_millis(1));
        match a.kind {
            PacketKind::Ack { ece, .. } => assert!(ece),
            _ => unreachable!(),
        }
        let a2 = r.on_data(&data(M, 0), Time::from_millis(2));
        match a2.kind {
            PacketKind::Ack { ece, .. } => assert!(!ece),
            _ => unreachable!(),
        }
    }

    #[test]
    fn ack_echoes_timestamp_and_retx_flag() {
        let mut r = TcpReceiver::new(FlowId(0));
        let mut p = Packet::data(FlowId(0), 0, MSS, true, Time::from_millis(7));
        p.sent_at = Time::from_millis(7);
        let a = r.on_data(&p, Time::from_millis(9));
        match a.kind {
            PacketKind::Ack {
                echo_ts, echo_retx, ..
            } => {
                assert_eq!(echo_ts, Time::from_millis(7));
                assert!(echo_retx);
            }
            _ => unreachable!(),
        }
    }

    /// The SACK option as absolute blocks, built the way the receiver
    /// built it before blocks travelled as offsets: the reference for the
    /// wire encoding.
    fn reference_sack_blocks(r: &TcpReceiver) -> Vec<(u64, u64)> {
        let mut blocks: [Option<(u64, u64)>; 3] = [None; 3];
        let mut n = 0;
        if let Some((s, e)) = r.last_block {
            if r.ooo.containing(s) == Some((s, e)) && s >= r.rcv_nxt {
                blocks[n] = Some((s, e));
                n += 1;
            }
        }
        for (s, e) in r.ooo.iter() {
            if n == 3 {
                break;
            }
            if blocks[0] == Some((s, e)) {
                continue;
            }
            blocks[n] = Some((s, e));
            n += 1;
        }
        blocks.into_iter().flatten().collect()
    }

    /// In-order, out-of-order, duplicate and gap-filling arrivals, some of
    /// them short or straddling `rcv_nxt`: every ACK decodes to exactly the
    /// reference blocks, in the same order.
    #[test]
    fn sack_offsets_decode_to_the_reference_blocks() {
        let mut with_blocks = 0;
        for case in 0..32u64 {
            let mut rng = DetRng::seed_from_u64(0x5ac0_0000 + case);
            let mut r = TcpReceiver::new(FlowId(0));
            let mut snd_max = 0u64;
            for step in 0..500 {
                let rcv_nxt = r.delivered();
                let seq = match rng.gen_range_u64(0, 10) {
                    // The next new segment, or a skip ahead past a loss.
                    0..=3 => snd_max + rng.gen_range_u64(0, 3) * M,
                    // Fill (part of) a gap, or straddle `rcv_nxt`.
                    4..=6 => rng.gen_range_u64(rcv_nxt.saturating_sub(M / 2), snd_max.max(rcv_nxt) + 1),
                    // A duplicate of delivered bytes.
                    7 => rng.gen_range_u64(rcv_nxt.saturating_sub(4 * M), rcv_nxt + 1),
                    // Out of order, far ahead.
                    _ => snd_max + rng.gen_range_u64(3, 40) * M,
                };
                let len = if rng.gen_bool(0.8) { MSS } else { rng.gen_range_u64(1, u64::from(MSS)) as u32 };
                snd_max = snd_max.max(seq + u64::from(len));
                let pkt = Packet::data(FlowId(0), seq, len, false, Time::from_millis(step));
                let ack = r.on_data(&pkt, Time::from_millis(step + 1));
                let PacketKind::Ack { ack_seq, sack, .. } = ack.kind else {
                    panic!("expected ack");
                };
                let want = reference_sack_blocks(&r);
                assert_eq!(sack.iter(ack_seq).collect::<Vec<_>>(), want, "case {case} step {step}");
                assert_eq!(sack.is_empty(), want.is_empty(), "case {case} step {step}");
                with_blocks += usize::from(!want.is_empty());
            }
        }
        assert!(with_blocks > 1000, "the walk must exercise SACK blocks: {with_blocks} ACKs carried any");
    }
}
