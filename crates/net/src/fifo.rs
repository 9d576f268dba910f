//! FIFO drop-tail — the baseline discipline of every Table 2 / figure
//! comparison ("FIFO" columns) and the default for non-bottleneck links.

use std::collections::VecDeque;

use cebinae_sim::Time;

use crate::packet::Packet;
use crate::qdisc::{BufferConfig, DropReason, Qdisc, QdiscStats};

/// A single shared-buffer FIFO queue with tail drop.
pub struct FifoQdisc {
    queue: VecDeque<Packet>,
    queued_bytes: u64,
    capacity_bytes: u64,
    stats: QdiscStats,
}

impl FifoQdisc {
    pub fn new(buffer: BufferConfig) -> FifoQdisc {
        FifoQdisc {
            queue: VecDeque::new(),
            queued_bytes: 0,
            capacity_bytes: buffer.bytes,
            stats: QdiscStats::default(),
        }
    }

    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }
}

impl Qdisc for FifoQdisc {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn enqueue(&mut self, pkt: Packet, _now: Time) -> Result<(), (Packet, DropReason)> {
        if self.queued_bytes + pkt.size as u64 > self.capacity_bytes {
            self.stats.on_drop(pkt.size);
            return Err((pkt, DropReason::BufferFull));
        }
        self.stats.on_enqueue(pkt.size);
        self.queued_bytes += pkt.size as u64; // det-ok: occupancy gauge, decremented in dequeue; admission check above bounds it
        self.stats.note_queued(self.queued_bytes);
        self.queue.push_back(pkt);
        Ok(())
    }

    fn dequeue(&mut self, _now: Time) -> Option<Packet> {
        let pkt = self.queue.pop_front()?;
        self.queued_bytes -= pkt.size as u64; // det-ok: occupancy gauge; every queued packet was added in enqueue, so underflow is impossible
        self.stats.on_tx(pkt.size);
        Some(pkt)
    }

    fn byte_len(&self) -> u64 {
        self.queued_bytes
    }

    fn pkt_len(&self) -> usize {
        self.queue.len()
    }

    fn stats(&self) -> &QdiscStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::FlowId;
    use crate::packet::{DATA_FRAME_BYTES, MSS};

    fn pkt(flow: u32, seq: u64) -> Packet {
        Packet::data(FlowId(flow), seq, MSS, false, Time::ZERO)
    }

    #[test]
    fn fifo_order_preserved() {
        let mut q = FifoQdisc::new(BufferConfig::mtus(10));
        for i in 0..5 {
            q.enqueue(pkt(0, i * MSS as u64), Time::ZERO).unwrap();
        }
        for i in 0..5 {
            let p = q.dequeue(Time::ZERO).unwrap();
            match p.kind {
                crate::packet::PacketKind::Data { seq, .. } => {
                    assert_eq!(seq, i * MSS as u64)
                }
                _ => panic!("expected data"),
            }
        }
        assert!(q.dequeue(Time::ZERO).is_none());
    }

    #[test]
    fn drop_tail_when_full() {
        let mut q = FifoQdisc::new(BufferConfig::mtus(2));
        assert!(q.enqueue(pkt(0, 0), Time::ZERO).is_ok());
        assert!(q.enqueue(pkt(0, 1), Time::ZERO).is_ok());
        let res = q.enqueue(pkt(0, 2), Time::ZERO);
        assert!(matches!(res, Err((_, DropReason::BufferFull))));
        assert_eq!(q.stats().drop_pkts, 1);
        assert_eq!(q.pkt_len(), 2);
        assert_eq!(q.byte_len(), 2 * DATA_FRAME_BYTES as u64);
    }

    #[test]
    fn partial_space_still_rejects_oversize() {
        // 1 full frame queued in a 1.5-frame buffer: a second full frame
        // must be rejected even though some bytes remain.
        let mut q = FifoQdisc::new(BufferConfig::bytes(2250));
        assert!(q.enqueue(pkt(0, 0), Time::ZERO).is_ok());
        assert!(q.enqueue(pkt(0, 1), Time::ZERO).is_err());
        // But a small ACK fits.
        let ack = Packet::ack(FlowId(0), 0, false, Time::ZERO, false, Time::ZERO);
        assert!(q.enqueue(ack, Time::ZERO).is_ok());
    }

    #[test]
    fn byte_accounting_balances() {
        let mut q = FifoQdisc::new(BufferConfig::mtus(100));
        for i in 0..20 {
            q.enqueue(pkt(i % 3, i as u64), Time::ZERO).unwrap();
        }
        let mut out_bytes = 0u64;
        while let Some(p) = q.dequeue(Time::ZERO) {
            out_bytes += p.size as u64;
        }
        assert_eq!(out_bytes, q.stats().enq_bytes);
        assert_eq!(q.byte_len(), 0);
        assert_eq!(q.stats().tx_bytes, out_bytes);
    }
}
