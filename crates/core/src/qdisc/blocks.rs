//! One of Cebinae's two physical queues: a packet FIFO stored in
//! fixed-size blocks.
//!
//! Blocks are allocated as the queue grows and released as it drains, so
//! a queue holds about as many packet slots as it has packets queued
//! (plus a partly used block at each end and one spare), and pops walk
//! each block in order. At a rotation the retiring queue's leftovers move
//! in front of the new head queue block by block: a block's packets are
//! its slots `start..end`, so a partly used block can sit anywhere in the
//! queue.

use std::collections::VecDeque;

use cebinae_net::Packet;

/// Packets per block: 2 304 bytes of slots.
const BLOCK: usize = 32;

type Slots = Box<[Option<Packet>; BLOCK]>;

/// A block and the range of its slots that hold packets; never empty
/// while it is in a queue.
struct Block {
    slots: Slots,
    start: usize,
    end: usize,
}

#[derive(Default)]
pub(super) struct BlockQueue {
    blocks: VecDeque<Block>,
    /// One drained block, taken before allocating, so a queue that fills
    /// and drains reuses its own memory.
    spare: Option<Slots>,
    len: usize,
}

impl BlockQueue {
    pub(super) fn len(&self) -> usize {
        self.len
    }

    pub(super) fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub(super) fn push_back(&mut self, pkt: Packet) {
        if self.blocks.back().is_none_or(|b| b.end == BLOCK) {
            let slots = self.spare.take().unwrap_or_else(|| Box::new([const { None }; BLOCK]));
            self.blocks.push_back(Block { slots, start: 0, end: 0 });
        }
        // The back block has a free slot at `end`: it is new, or not full.
        if let Some(b) = self.blocks.back_mut() {
            if let Some(slot) = b.slots.get_mut(b.end) {
                *slot = Some(pkt);
                b.end += 1;
                self.len += 1;
            }
        }
    }

    pub(super) fn pop_front(&mut self) -> Option<Packet> {
        let b = self.blocks.front_mut()?;
        let pkt = b.slots.get_mut(b.start)?.take()?;
        b.start += 1;
        self.len -= 1;
        if b.start == b.end {
            let drained = self.blocks.pop_front().map(|b| b.slots);
            if self.spare.is_none() {
                self.spare = drained;
            }
        }
        Some(pkt)
    }

    /// Move every packet of `front` ahead of this queue's, in order,
    /// leaving `front` empty. Whole blocks move; no packet is copied.
    pub(super) fn splice_front(&mut self, front: &mut BlockQueue) {
        while let Some(b) = front.blocks.pop_back() {
            self.blocks.push_front(b);
        }
        self.len += std::mem::take(&mut front.len);
    }

    /// Blocks in use: the queue's memory, for tests.
    #[cfg(test)]
    pub(super) fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// The queued packets, head first.
    #[cfg(test)]
    pub(super) fn packets(&self) -> impl Iterator<Item = &Packet> {
        self.blocks
            .iter()
            .flat_map(|b| b.slots.get(b.start..b.end).into_iter().flatten().flatten())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use cebinae_net::{FlowId, PacketKind, MSS};
    use cebinae_sim::rng::DetRng;
    use cebinae_sim::Time;

    fn pkt(seq: u64) -> Packet {
        Packet::data(FlowId(0), seq, MSS, false, Time::ZERO)
    }

    fn seq(p: &Packet) -> u64 {
        match p.kind {
            PacketKind::Data { seq, .. } => seq,
            PacketKind::Ack { ack_seq, .. } => ack_seq,
        }
    }

    /// Two queues against two `VecDeque`s, fed one seeded stream of
    /// pushes, pops and splices: the same packets in the same order, and
    /// without splices no more blocks than the packets fill plus one.
    #[test]
    fn blocks_match_a_vecdeque_model() {
        const CASES: u64 = 64;
        const OPS: u64 = 2000;
        for case in 0..CASES {
            let mut rng = DetRng::seed_from_u64(0xB10C_C4A1 ^ case);
            let mut queues: [BlockQueue; 2] = Default::default();
            let mut model: [VecDeque<u64>; 2] = Default::default();
            // Cases range from draining to filling; some never splice.
            let push_p = rng.gen_range_u64(30, 70) as f64 / 100.0;
            let splices = case % 4 != 0;
            for op in 0..OPS {
                let q = rng.gen_range_usize(0, 2);
                if splices && rng.gen_bool(0.01) {
                    let [a, b] = &mut queues;
                    let (to, from) = if q == 0 { (a, b) } else { (b, a) };
                    to.splice_front(from);
                    let moved = std::mem::take(&mut model[1 - q]);
                    for s in moved.into_iter().rev() {
                        model[q].push_front(s);
                    }
                } else if rng.gen_bool(push_p) {
                    queues[q].push_back(pkt(op));
                    model[q].push_back(op);
                } else {
                    let got = queues[q].pop_front().map(|p| seq(&p));
                    assert_eq!(got, model[q].pop_front(), "case {case} op {op}");
                }
                for (b, m) in queues.iter().zip(&model) {
                    assert_eq!(b.len(), m.len(), "case {case} op {op}");
                    assert_eq!(b.is_empty(), m.is_empty());
                    if !splices {
                        let most = b.len().div_ceil(BLOCK) + 1;
                        assert!(b.block_count() <= most, "case {case} op {op}");
                    }
                }
            }
            for (b, m) in queues.iter().zip(&model) {
                let got: Vec<u64> = b.packets().map(seq).collect();
                assert_eq!(got, m.iter().copied().collect::<Vec<_>>(), "case {case}");
            }
        }
    }

    #[test]
    fn a_drained_queue_keeps_one_spare_block() {
        let mut q = BlockQueue::default();
        for s in 0..3 * BLOCK as u64 {
            q.push_back(pkt(s));
        }
        assert_eq!(q.block_count(), 3);
        for s in 0..3 * BLOCK as u64 {
            assert_eq!(q.pop_front().map(|p| seq(&p)), Some(s));
        }
        assert!(q.is_empty() && q.pop_front().is_none());
        assert_eq!((q.block_count(), q.spare.is_some()), (0, true));
        q.push_back(pkt(7));
        assert_eq!((q.block_count(), q.spare.is_some()), (1, false));
    }
}
