//! One packet store for a discipline with many queues.
//!
//! FQ-CoDel's per-flow queues and AFQ's calendar buckets keep their
//! packets as [`Chain`]s in one [`Arena`] per port: nodes are chained
//! head to tail per queue and recycled through an intrusive LIFO free
//! list, so the arena holds as many nodes as the port ever had packets
//! queued at once, however they were spread over its queues. A queue owns
//! no buffer of its own, so an idle or short queue costs 12 bytes.

use cebinae_sim::Time;

use crate::packet::Packet;

/// "No node": the end of a chain or of the free list. As a `usize` index
/// it is out of range of any arena.
const NIL: u32 = u32::MAX;

/// One packet slot of the [`Arena`]. A queued node links to the next
/// packet of its chain; a free node (`pkt: None`) links to the next free
/// node.
struct Node {
    pkt: Option<Packet>,
    enq: Time,
    next: u32,
}

// A node is a packet, its enqueue time and a link: a layout change that
// grows it grows every port's queue memory.
const _: () = assert!(std::mem::size_of::<Node>() == 88);

/// Every queued packet of one port, with an intrusive LIFO free list
/// threaded through the free nodes' `next`. The packet paths are marked
/// `#[inline]`: the disciplines that call them live in other crates.
pub struct Arena {
    nodes: Vec<Node>,
    free: u32,
}

impl Default for Arena {
    fn default() -> Arena {
        Arena::new()
    }
}

impl Arena {
    pub fn new() -> Arena {
        Arena { nodes: Vec::new(), free: NIL }
    }

    /// Nodes ever allocated: the peak number of packets queued at once.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Store a packet in a free node (or a new one) and return its index.
    #[inline]
    fn alloc(&mut self, pkt: Packet, enq: Time) -> u32 {
        let node = Node { pkt: Some(pkt), enq, next: NIL };
        match self.nodes.get_mut(self.free as usize) {
            Some(n) => {
                let i = self.free;
                self.free = n.next;
                *n = node;
                i
            }
            None => {
                // det-ok: nodes never outnumber queued packets, far below u32::MAX
                let i = self.nodes.len() as u32;
                self.nodes.push(node);
                i
            }
        }
    }

    /// Free node `i`: its packet, enqueue time and successor.
    #[inline]
    fn release(&mut self, i: u32) -> Option<(Packet, Time, u32)> {
        let n = self.nodes.get_mut(i as usize)?;
        let pkt = n.pkt.take()?;
        let next = std::mem::replace(&mut n.next, self.free);
        self.free = i;
        Some((pkt, n.enq, next))
    }

    /// Point node `i` at `next` (no-op for `NIL`).
    #[inline]
    fn set_next(&mut self, i: u32, next: u32) {
        if let Some(n) = self.nodes.get_mut(i as usize) {
            n.next = next;
        }
    }

    /// The packets of `chain`, head first.
    pub fn iter<'a>(&'a self, chain: &Chain) -> impl Iterator<Item = &'a Packet> + 'a {
        let mut i = chain.head;
        std::iter::from_fn(move || {
            let n = self.nodes.get(i as usize)?;
            i = n.next;
            n.pkt.as_ref()
        })
    }

    /// Panic unless `chains` and the free list partition the arena: every
    /// node on exactly one of them, each chain's `len` and `tail` true to
    /// its links, queued nodes holding a packet and free ones not. A check
    /// for tests; the packet paths never call it.
    pub fn assert_partition<'a>(&self, chains: impl IntoIterator<Item = &'a Chain>) {
        let mut seen = vec![false; self.nodes.len()];
        let mut visit = |i: u32| {
            let Some(s) = seen.get_mut(i as usize) else { panic!("node {i} out of range") };
            assert!(!std::mem::replace(s, true), "node {i} reached twice");
            &self.nodes[i as usize]
        };
        let mut live = 0;
        for c in chains {
            let (mut i, mut last, mut len) = (c.head, NIL, 0);
            while i != NIL {
                let n = visit(i);
                assert!(n.pkt.is_some(), "queued node {i} holds no packet");
                (last, i, len) = (i, n.next, len + 1);
            }
            assert_eq!((len, last), (c.len, c.tail), "chain length and tail");
            live += len as usize;
        }
        let (mut i, mut free) = (self.free, 0);
        while i != NIL {
            let n = visit(i);
            assert!(n.pkt.is_none(), "free node {i} holds a packet");
            (i, free) = (n.next, free + 1);
        }
        assert_eq!(live + free, self.nodes.len(), "live + free == nodes");
    }
}

/// One queue's packets in an [`Arena`]: first and last node (`NIL`
/// while empty) and the packet count. A chain is only meaningful with the
/// arena its packets were pushed into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Chain {
    head: u32,
    tail: u32,
    len: u32,
}

impl Chain {
    pub const EMPTY: Chain = Chain { head: NIL, tail: NIL, len: 0 };

    #[inline]
    pub fn len(&self) -> u32 {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append a packet enqueued at `enq`.
    #[inline]
    pub fn push_back(&mut self, arena: &mut Arena, pkt: Packet, enq: Time) {
        let i = arena.alloc(pkt, enq);
        match self.tail {
            NIL => self.head = i,
            t => arena.set_next(t, i),
        }
        self.tail = i;
        self.len += 1;
    }

    /// Remove the head packet with its enqueue time.
    #[inline]
    pub fn pop_front(&mut self, arena: &mut Arena) -> Option<(Packet, Time)> {
        let (pkt, enq, next) = arena.release(self.head)?;
        self.head = next;
        self.len -= 1;
        if self.len == 0 {
            self.tail = NIL;
        }
        Some((pkt, enq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    use cebinae_sim::rng::DetRng;

    use crate::FlowId;

    fn pkt(seq: u64) -> Packet {
        Packet::data(FlowId(0), seq, crate::MSS, false, Time::ZERO)
    }

    fn seq(p: &Packet) -> u64 {
        match p.kind {
            crate::PacketKind::Data { seq, .. } => seq,
            crate::PacketKind::Ack { ack_seq, .. } => ack_seq,
        }
    }

    fn seqs(arena: &Arena, c: &Chain) -> Vec<u64> {
        arena.iter(c).map(seq).collect()
    }

    /// Four chains in one arena against four `VecDeque`s, fed one seeded
    /// stream of pushes and pops: same packets in the same order with
    /// their enqueue times, the free list recycling every released node,
    /// and never more nodes than packets were ever queued at once.
    #[test]
    fn chains_match_a_vecdeque_model() {
        const CASES: u64 = 64;
        const OPS: u64 = 2000;
        const QUEUES: usize = 4;
        for case in 0..CASES {
            let mut rng = DetRng::seed_from_u64(0xA4E4_C4A1 ^ case);
            let mut arena = Arena::new();
            let mut chains = [Chain::EMPTY; QUEUES];
            let mut model: [VecDeque<(u64, Time)>; QUEUES] = Default::default();
            let (mut live, mut peak) = (0usize, 0usize);
            // Cases range from draining to filling, so both the free list
            // and fresh growth get exercised.
            let push_p = rng.gen_range_u64(30, 70) as f64 / 100.0;
            for op in 0..OPS {
                let q = rng.gen_range_usize(0, QUEUES);
                if rng.gen_bool(push_p) {
                    chains[q].push_back(&mut arena, pkt(op), Time(op));
                    model[q].push_back((op, Time(op)));
                    live += 1;
                } else {
                    let got = chains[q].pop_front(&mut arena).map(|(p, t)| (seq(&p), t));
                    assert_eq!(got, model[q].pop_front(), "case {case} op {op}");
                    live -= got.is_some() as usize;
                }
                peak = peak.max(live);
                assert!(arena.node_count() <= peak, "case {case} op {op}: nodes above peak");
                for (c, m) in chains.iter().zip(&model) {
                    assert_eq!(c.len() as usize, m.len(), "case {case} op {op}");
                }
            }
            arena.assert_partition(&chains);
            assert_eq!(arena.node_count(), peak, "case {case}: the arena grows to the peak");
            for (c, m) in chains.iter().zip(&model) {
                let want: Vec<u64> = m.iter().map(|e| e.0).collect();
                assert_eq!(seqs(&arena, c), want, "case {case}");
            }
        }
    }
}
