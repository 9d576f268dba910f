//! FQ-CoDel (RFC 8290): Deficit Round Robin across hashed per-flow queues,
//! each policed by CoDel. This is the paper's "FQ" baseline — its ns-3
//! evaluation runs FQ-CoDel with the queue count raised to 2³²−1 so every
//! flow gets a dedicated queue ("ideal per-flow queue"). We default to the
//! same idealization (bucket = flow id) and allow a finite bucket count for
//! realistic configurations.
//!
//! # Layout
//!
//! Per-flow cost is memory traffic, so the state is laid out for it:
//!
//! * a [`FlowSlab`] maps each bucket to a dense slot, and per-flow state
//!   lives in one `Vec<FlowQueue>` indexed by slot — the scheduling lists
//!   hold slots, so the per-packet path does no hashing;
//! * every queued packet of every flow sits in one [`Arena`] of nodes,
//!   chained head to tail per flow and recycled through an intrusive free
//!   list, so the arena stays as large as the peak queued-packet count and
//!   no flow owns a buffer;
//! * the overflow victim is the root of a [`FatHeap`] over the non-empty
//!   queues, ordered by `(bytes, bucket)` — the fattest queue, byte ties
//!   going to the highest bucket id.

use std::collections::VecDeque;

use cebinae_ds::FlowSlab;
use cebinae_sim::Time;
use cebinae_net::{DropReason, Packet, Qdisc, QdiscStats};

use crate::codel::{Codel, CodelVerdict};

#[cfg(test)]
mod model;

/// Configuration for [`FqCoDelQdisc`].
#[derive(Clone, Debug)]
pub struct FqCoDelConfig {
    /// Shared buffer limit in bytes.
    pub limit_bytes: u64,
    /// DRR quantum per round, bytes (RFC suggests one MTU).
    pub quantum: u32,
    /// Number of hash buckets. `None` = one bucket per flow id (the paper's
    /// idealized setting).
    pub buckets: Option<u32>,
    pub codel_target: cebinae_sim::Duration,
    pub codel_interval: cebinae_sim::Duration,
    /// Mark ECN-capable packets instead of dropping them.
    pub ecn: bool,
}

impl Default for FqCoDelConfig {
    fn default() -> Self {
        FqCoDelConfig {
            limit_bytes: 10 * 1024 * 1500,
            quantum: 1500,
            buckets: None,
            codel_target: cebinae_sim::Duration::from_millis(5),
            codel_interval: cebinae_sim::Duration::from_millis(100),
            ecn: false,
        }
    }
}

impl FqCoDelConfig {
    pub fn ideal_with_limit(limit_bytes: u64) -> FqCoDelConfig {
        FqCoDelConfig {
            limit_bytes,
            ..FqCoDelConfig::default()
        }
    }
}

/// "No node" in a chain or on the free list, and "not in the heap" in
/// [`FatHeap::pos`]. As a `usize` index it is out of range of any arena.
const NIL: u32 = u32::MAX;

/// One packet slot of the [`Arena`]. A queued node links to the next
/// packet of its flow; a free node (`pkt: None`) links to the next free
/// node.
struct Node {
    pkt: Option<Packet>,
    enq: Time,
    next: u32,
}

/// Every queued packet of every flow, with an intrusive LIFO free list
/// threaded through the free nodes' `next`.
struct Arena {
    nodes: Vec<Node>,
    free: u32,
}

impl Arena {
    /// Store a packet in a free node (or a new one) and return its index.
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
    fn release(&mut self, i: u32) -> Option<(Packet, Time, u32)> {
        let n = self.nodes.get_mut(i as usize)?;
        let pkt = n.pkt.take()?;
        let next = std::mem::replace(&mut n.next, self.free);
        self.free = i;
        Some((pkt, n.enq, next))
    }
}

/// A heap entry: `(bytes, bucket, slot)`, the first two being the key.
type Entry = (u64, u32, u32);

fn key(e: &Entry) -> (u64, u32) {
    (e.0, e.1)
}

/// Max-heap of the non-empty queues by `(bytes, bucket)`, so the root is
/// the overflow victim. Bucket ids are unique, so the key is a total order
/// (byte ties break toward the highest bucket). Keys sit inline, so a sift
/// never touches a [`FlowQueue`]; `pos[slot]` is the slot's heap index
/// (`NIL` while its queue is empty), so re-keying one queue is one
/// O(log n) sift.
#[derive(Default)]
struct FatHeap {
    heap: Vec<Entry>,
    pos: Vec<u32>,
}

impl FatHeap {
    /// The slot of the fattest queue.
    fn top(&self) -> Option<u32> {
        self.heap.first().map(|e| e.2)
    }

    /// Write `e` at index `i` and record where its slot now sits.
    fn place(&mut self, i: usize, e: Entry) {
        if let (Some(h), Some(p)) = (self.heap.get_mut(i), self.pos.get_mut(e.2 as usize)) {
            *h = e;
            *p = i as u32; // det-ok: one entry per slot, and FlowSlab numbers slots in u32
        }
    }

    /// `slot`'s queue grew to `bytes`, entering the heap if it was empty.
    fn raise(&mut self, slot: u32, bytes: u64, bucket: u32) {
        let e = (bytes, bucket, slot);
        let i = match self.pos.get(slot as usize) {
            Some(&NIL) => {
                self.heap.push(e);
                self.heap.len() - 1
            }
            Some(&i) => i as usize,
            None => return,
        };
        self.sift_up(i, e);
    }

    /// `slot`'s queue shrank to `bytes` and is still non-empty.
    fn lower(&mut self, slot: u32, bytes: u64, bucket: u32) {
        if let Some(&i) = self.pos.get(slot as usize) {
            self.sift_down(i as usize, (bytes, bucket, slot));
        }
    }

    /// `slot`'s queue emptied: the last entry fills its hole and moves
    /// whichever way its key says.
    fn remove(&mut self, slot: u32) {
        let Some(p) = self.pos.get_mut(slot as usize) else { return };
        let i = std::mem::replace(p, NIL) as usize;
        if i == NIL as usize {
            return;
        }
        let Some(last) = self.heap.pop() else { return };
        if i < self.heap.len() && self.sift_up(i, last) == i {
            self.sift_down(i, last);
        }
    }

    /// Move the hole at `i` up until `e` fits; returns where `e` landed.
    fn sift_up(&mut self, mut i: usize, e: Entry) -> usize {
        while i > 0 {
            let parent = (i - 1) / 2;
            match self.heap.get(parent) {
                Some(&p) if key(&p) < key(&e) => {
                    self.place(i, p);
                    i = parent;
                }
                _ => break,
            }
        }
        self.place(i, e);
        i
    }

    /// Move the hole at `i` down until `e` fits.
    fn sift_down(&mut self, mut i: usize, e: Entry) {
        loop {
            let l = 2 * i + 1;
            let Some(&a) = self.heap.get(l) else { break };
            let (c, child) = match self.heap.get(l + 1) {
                Some(&b) if key(&b) > key(&a) => (l + 1, b),
                _ => (l, a),
            };
            if key(&child) < key(&e) {
                break;
            }
            self.place(i, child);
            i = c;
        }
        self.place(i, e);
    }
}

/// One bucket's queue: its DRR and CoDel state and its packet chain in
/// the [`Arena`].
struct FlowQueue {
    bucket: u32,
    /// First and last node of the chain (`NIL` while empty).
    head: u32,
    tail: u32,
    len: u32,
    bytes: u64,
    deficit: i64,
    codel: Codel,
    /// Queue appears in exactly one scheduling list while set.
    scheduled: bool,
}

impl FlowQueue {
    /// Append a packet, keeping `bytes` and this slot's heap entry in step.
    fn push(&mut self, slot: u32, pkt: Packet, now: Time, arena: &mut Arena, heap: &mut FatHeap) {
        // occupancy gauge, decremented in pop_head; admission cap bounds it
        self.bytes += pkt.size as u64;
        let i = arena.alloc(pkt, now);
        match arena.nodes.get_mut(self.tail as usize) {
            Some(t) => t.next = i,
            None => self.head = i,
        }
        self.tail = i;
        self.len += 1;
        heap.raise(slot, self.bytes, self.bucket);
    }

    /// Remove the head packet, keeping `bytes` and this slot's heap entry
    /// in step.
    fn pop_head(
        &mut self,
        slot: u32,
        arena: &mut Arena,
        heap: &mut FatHeap,
    ) -> Option<(Packet, Time)> {
        let (pkt, enq, next) = arena.release(self.head)?;
        self.head = next;
        self.len -= 1;
        // occupancy gauge; the popped packet's bytes were added in push
        self.bytes -= pkt.size as u64;
        if self.len == 0 {
            self.tail = NIL;
            heap.remove(slot);
        } else {
            heap.lower(slot, self.bytes, self.bucket);
        }
        Some((pkt, enq))
    }
}

/// FQ-CoDel queueing discipline.
pub struct FqCoDelQdisc {
    cfg: FqCoDelConfig,
    /// Bucket → dense slot. Slots are never freed, so a slot names one
    /// bucket for the qdisc's life.
    slots: FlowSlab,
    /// Per-bucket queues, indexed by slot.
    queues: Vec<FlowQueue>,
    arena: Arena,
    /// Invariant: exactly `{(q.bytes, q.bucket, slot)}` over the non-empty
    /// queues, held by `FlowQueue::{push, pop_head}`, the only two places a
    /// queue's contents change.
    heap: FatHeap,
    /// DRR scheduling lists, of slots.
    new_list: VecDeque<u32>,
    old_list: VecDeque<u32>,
    total_bytes: u64,
    total_pkts: usize,
    stats: QdiscStats,
}

impl FqCoDelQdisc {
    pub fn new(cfg: FqCoDelConfig) -> FqCoDelQdisc {
        FqCoDelQdisc {
            cfg,
            slots: FlowSlab::new(),
            queues: Vec::new(),
            arena: Arena { nodes: Vec::new(), free: NIL },
            heap: FatHeap::default(),
            new_list: VecDeque::new(),
            old_list: VecDeque::new(),
            total_bytes: 0,
            total_pkts: 0,
            stats: QdiscStats::default(),
        }
    }

    fn bucket_of(&self, pkt: &Packet) -> u32 {
        match self.cfg.buckets {
            // det-ok: the remainder is below n, itself a u32
            Some(n) => (cebinae_sim::rng::splitmix64(pkt.flow.0 as u64) % n as u64) as u32,
            None => pkt.flow.0,
        }
    }

    /// RFC 8290 overload behavior: drop from the head of the fattest queue.
    /// Returns whether a packet was dropped.
    fn drop_head(&mut self, slot: u32) -> bool {
        let Some(q) = self.queues.get_mut(slot as usize) else {
            return false; // victims come from the non-empty queues (cannot happen, but no panic)
        };
        let Some((pkt, _)) = q.pop_head(slot, &mut self.arena, &mut self.heap) else {
            return false;
        };
        // The evicted packet was already admitted and counted by
        // on_enqueue — record it as a post-admission drop.
        self.stats.on_drop_queued(pkt.size);
        // det-ok: aggregate occupancy gauges; the popped packet was counted on enqueue
        self.total_bytes -= pkt.size as u64;
        self.total_pkts -= 1; // det-ok: same conservation argument, packet count
        true
    }

    /// Pull the next deliverable packet from one slot's queue, applying
    /// CoDel, and charge it to the queue's deficit. Returns None if the
    /// queue emptied.
    fn codel_dequeue(&mut self, slot: u32, now: Time) -> Option<Packet> {
        let ecn_mode = self.cfg.ecn;
        let q = self.queues.get_mut(slot as usize)?;
        loop {
            let (mut pkt, enq_time) = q.pop_head(slot, &mut self.arena, &mut self.heap)?;
            // det-ok: aggregate occupancy gauges mirroring enqueue; conservation checked by the fq invariant tests
            self.total_bytes -= pkt.size as u64;
            self.total_pkts -= 1; // det-ok: same argument, packet count
            let deliver = match q.codel.on_dequeue(enq_time, now, q.bytes) {
                CodelVerdict::Deliver => true,
                // Mark instead of dropping (RFC 8290 §4.2).
                CodelVerdict::Drop if ecn_mode && pkt.try_mark_ce() => {
                    self.stats.ecn_marked = self.stats.ecn_marked.saturating_add(1);
                    true
                }
                CodelVerdict::Drop => false,
            };
            if deliver {
                self.stats.on_tx(pkt.size);
                q.deficit -= pkt.size as i64;
                return Some(pkt);
            }
            self.stats.on_drop_queued(pkt.size);
            // loop: consider the next head packet
        }
    }

    fn pop_list(&mut self, from_new: bool) {
        if from_new {
            self.new_list.pop_front();
        } else {
            self.old_list.pop_front();
        }
    }
}

impl Qdisc for FqCoDelQdisc {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn enqueue(&mut self, pkt: Packet, now: Time) -> Result<(), (Packet, DropReason)> {
        let bucket = self.bucket_of(&pkt);
        let size = pkt.size;
        let slot = self.slots.slot_of(bucket);
        if slot as usize == self.queues.len() {
            self.queues.push(FlowQueue {
                bucket,
                head: NIL,
                tail: NIL,
                len: 0,
                bytes: 0,
                deficit: 0,
                codel: Codel::new(self.cfg.codel_target, self.cfg.codel_interval),
                scheduled: false,
            });
            self.heap.pos.push(NIL);
        }
        let Some(q) = self.queues.get_mut(slot as usize) else {
            // FlowSlab hands out slots densely, so this cannot happen.
            self.stats.on_drop(size);
            return Err((pkt, DropReason::BufferFull));
        };
        q.push(slot, pkt, now, &mut self.arena, &mut self.heap);
        if !q.scheduled {
            q.scheduled = true;
            q.deficit = self.cfg.quantum as i64;
            self.new_list.push_back(slot);
        }
        // det-ok: aggregate occupancy gauges, decremented on dequeue/drop; admission cap bounds them
        self.total_bytes += size as u64;
        self.total_pkts += 1; // det-ok: same argument, packet count
        self.stats.on_enqueue(size);
        // Enforce the shared limit by dropping from the fattest queue
        // (which may be the one we just fed).
        while self.total_bytes > self.cfg.limit_bytes {
            match self.heap.top() {
                Some(victim) if self.drop_head(victim) => {}
                _ => break,
            }
        }
        // Record occupancy only after the limit is enforced: the transient
        // overshoot inside this call is not an observable queue state, and
        // the peak gauge must respect `buffer_limit_bytes`.
        self.stats.note_queued(self.total_bytes);
        Ok(())
    }

    fn dequeue(&mut self, now: Time) -> Option<Packet> {
        loop {
            // Prefer new flows, then old flows (RFC 8290 scheduling).
            let (slot, from_new) = match self.new_list.front() {
                Some(&s) => (s, true),
                None => (*self.old_list.front()?, false),
            };
            let quantum = self.cfg.quantum as i64;
            // The scheduling lists only hold slots that have a queue.
            let q = self.queues.get_mut(slot as usize)?;
            if q.deficit <= 0 {
                // Exhausted its quantum: move to the back of old list with a
                // fresh quantum.
                q.deficit += quantum;
                self.pop_list(from_new);
                self.old_list.push_back(slot);
                continue;
            }
            if let Some(pkt) = self.codel_dequeue(slot, now) {
                return Some(pkt);
            }
            // Queue emptied. A new flow that empties moves to the old list
            // once (RFC 8290) — approximated by simple removal, which
            // matches ns-3's behavior closely enough for long-lived flows.
            if let Some(q) = self.queues.get_mut(slot as usize) {
                q.scheduled = false;
            }
            self.pop_list(from_new);
        }
    }

    fn byte_len(&self) -> u64 {
        self.total_bytes
    }

    fn pkt_len(&self) -> usize {
        self.total_pkts
    }

    fn stats(&self) -> &QdiscStats {
        &self.stats
    }

    fn name(&self) -> &'static str {
        "fq-codel"
    }
}

#[cfg(test)]
impl FqCoDelQdisc {
    /// The bucket of the overflow victim, read off the heap.
    fn fattest(&self) -> Option<u32> {
        self.heap.heap.first().map(|e| e.1)
    }

    /// The O(flows) victim selection the heap replaced.
    fn fattest_by_scan(&self) -> Option<u32> {
        self.queues.iter().filter(|q| q.len > 0).map(|q| (q.bytes, q.bucket)).max().map(|k| k.1)
    }

    fn depth(&self, bucket: u32) -> u32 {
        self.slots.get(bucket).map_or(0, |s| self.queues[s as usize].len)
    }

    fn check_invariants(&self) {
        // The heap: ordered, positioned, and keyed by its queues.
        let h = &self.heap;
        assert_eq!(h.pos.len(), self.queues.len());
        for (i, e) in h.heap.iter().enumerate() {
            assert_eq!(h.pos[e.2 as usize] as usize, i, "pos[slot] is the entry's index");
            let q = &self.queues[e.2 as usize];
            assert_eq!(key(e), (q.bytes, q.bucket), "entry key == (q.bytes, q.bucket)");
            if i > 0 {
                assert!(key(&h.heap[(i - 1) / 2]) > key(e), "max-heap order");
            }
        }
        assert_eq!(self.fattest(), self.fattest_by_scan());
        // Every node is on exactly one chain or on the free list.
        let mut seen = vec![false; self.arena.nodes.len()];
        let mut visit = |i: u32| {
            assert!(!std::mem::replace(&mut seen[i as usize], true), "node {i} reached twice");
            &self.arena.nodes[i as usize]
        };
        let (mut total_bytes, mut total_pkts) = (0, 0);
        for (slot, q) in self.queues.iter().enumerate() {
            assert_eq!(self.slots.key_at(slot as u32), Some(q.bucket));
            assert_eq!(h.pos[slot] == NIL, q.len == 0, "in the heap iff non-empty");
            let (mut i, mut last, mut len, mut bytes) = (q.head, NIL, 0, 0);
            while i != NIL {
                let n = visit(i);
                bytes += n.pkt.as_ref().expect("queued node holds a packet").size as u64;
                (last, i, len) = (i, n.next, len + 1);
            }
            assert_eq!((len, bytes, last), (q.len, q.bytes, q.tail), "chain of slot {slot}");
            total_bytes += q.bytes;
            total_pkts += q.len as usize;
        }
        let (mut i, mut free) = (self.arena.free, 0);
        while i != NIL {
            let n = visit(i);
            assert!(n.pkt.is_none(), "free node {i} holds a packet");
            (i, free) = (n.next, free + 1);
        }
        assert_eq!(total_pkts + free, self.arena.nodes.len(), "live + free == nodes");
        assert_eq!(self.total_bytes, total_bytes);
        assert_eq!(self.total_pkts, total_pkts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cebinae_net::{FlowId, PacketKind, MSS};
    use cebinae_sim::rng::DetRng;

    fn pkt(flow: u32, seq: u64) -> Packet {
        Packet::data(FlowId(flow), seq, MSS, false, Time::ZERO)
    }

    fn flow_of(p: &Packet) -> u32 {
        p.flow.0
    }

    #[test]
    fn round_robin_across_flows() {
        let mut q = FqCoDelQdisc::new(FqCoDelConfig::default());
        // Backlog 6 packets from flow 0, then 6 from flow 1.
        for i in 0..6 {
            q.enqueue(pkt(0, i), Time::ZERO).unwrap();
        }
        for i in 0..6 {
            q.enqueue(pkt(1, i), Time::ZERO).unwrap();
        }
        let order: Vec<u32> = (0..12)
            .map(|_| flow_of(&q.dequeue(Time::from_micros(10)).unwrap()))
            .collect();
        // With quantum == 1 MTU the flows must alternate (after the initial
        // new-flow passes).
        let first_half_f0 = order[..6].iter().filter(|&&f| f == 0).count();
        assert!(
            (2..=4).contains(&first_half_f0),
            "fair interleaving expected, got {order:?}"
        );
    }

    #[test]
    fn fair_shares_with_unequal_backlogs() {
        let mut q = FqCoDelQdisc::new(FqCoDelConfig::default());
        // Flow 0 has a huge backlog, flows 1..4 have small ones.
        for i in 0..100 {
            q.enqueue(pkt(0, i), Time::ZERO).unwrap();
        }
        for f in 1..4 {
            for i in 0..10 {
                q.enqueue(pkt(f, i), Time::ZERO).unwrap();
            }
        }
        // Dequeue 40 packets: each flow should get ≈10.
        let mut counts = [0usize; 4];
        for _ in 0..40 {
            let p = q.dequeue(Time::from_micros(1)).unwrap();
            counts[flow_of(&p) as usize] += 1;
        }
        for (f, &c) in counts.iter().enumerate() {
            assert!((8..=12).contains(&c), "flow {f} got {c}/40: {counts:?}");
        }
    }

    #[test]
    fn overload_drops_from_fattest_flow() {
        let mut q = FqCoDelQdisc::new(FqCoDelConfig {
            limit_bytes: 10 * 1500,
            ..FqCoDelConfig::default()
        });
        for i in 0..9 {
            q.enqueue(pkt(0, i), Time::ZERO).unwrap();
        }
        // Flow 1 arrives; the shared limit forces drops from flow 0 (the
        // fattest), never from flow 1.
        for i in 0..3 {
            q.enqueue(pkt(1, i), Time::ZERO).unwrap();
        }
        assert!(q.stats().drop_pkts > 0);
        // All of flow 1's packets must still be present.
        let mut f1 = 0;
        while let Some(p) = q.dequeue(Time::from_micros(1)) {
            if flow_of(&p) == 1 {
                f1 += 1;
            }
        }
        assert_eq!(f1, 3);
    }

    #[test]
    fn codel_drops_under_standing_queue() {
        let mut q = FqCoDelQdisc::new(FqCoDelConfig::default());
        // Build a standing queue and dequeue slowly (sojourn > target).
        let mut now = Time::ZERO;
        let mut seq = 0;
        let mut delivered = 0u64;
        for _ in 0..400 {
            now = now + cebinae_sim::Duration::from_millis(2);
            for _ in 0..2 {
                q.enqueue(pkt(0, seq), now).unwrap();
                seq += 1;
            }
            // Serve 1 packet per 2ms: queue grows, sojourn rises.
            if q.dequeue(now).is_some() {
                delivered += 1;
            }
        }
        assert!(
            q.stats().drop_pkts > 0,
            "CoDel must engage on a standing queue (delivered {delivered})"
        );
    }

    #[test]
    fn ecn_marks_instead_of_dropping() {
        let mut q = FqCoDelQdisc::new(FqCoDelConfig {
            ecn: true,
            ..FqCoDelConfig::default()
        });
        let mut now = Time::ZERO;
        let mut seq = 0;
        for _ in 0..400 {
            now = now + cebinae_sim::Duration::from_millis(2);
            for _ in 0..2 {
                let mut p = pkt(0, seq);
                p.ecn = cebinae_net::Ecn::Capable;
                q.enqueue(p, now).unwrap();
                seq += 1;
            }
            q.dequeue(now);
        }
        assert!(q.stats().ecn_marked > 0, "ECN-capable packets get marked");
        assert_eq!(q.stats().drop_pkts, 0, "no drops when marking suffices");
    }

    #[test]
    fn finite_buckets_hash_flows_together() {
        let mut q = FqCoDelQdisc::new(FqCoDelConfig {
            buckets: Some(1),
            ..FqCoDelConfig::default()
        });
        q.enqueue(pkt(0, 0), Time::ZERO).unwrap();
        q.enqueue(pkt(1, 0), Time::ZERO).unwrap();
        assert_eq!(q.queues.len(), 1, "both flows share the single bucket");
    }

    #[test]
    fn conservation() {
        let mut q = FqCoDelQdisc::new(FqCoDelConfig::default());
        for f in 0..5 {
            for i in 0..20 {
                q.enqueue(pkt(f, i), Time::ZERO).unwrap();
            }
        }
        let mut tx = 0u64;
        while q.dequeue(Time::from_micros(1)).is_some() {
            tx += 1;
        }
        let s = q.stats();
        assert_eq!(s.enq_pkts, tx + s.drop_pkts);
        // Every FQ-CoDel drop happens post-admission, so the uniform
        // identity holds with the queued split: enq = tx + drop_queued.
        assert_eq!(s.drop_pkts, s.drop_queued_pkts);
        assert_eq!(s.enq_bytes, s.tx_bytes + s.drop_queued_bytes);
        assert_eq!(q.byte_len(), 0);
        assert_eq!(q.pkt_len(), 0);
        q.check_invariants();
        // Ack packets aren't data but should flow through fine too.
        let a = Packet::ack(FlowId(9), 0, false, Time::ZERO, false, Time::ZERO);
        q.enqueue(a, Time::ZERO).unwrap();
        assert!(matches!(
            q.dequeue(Time::from_micros(2)).unwrap().kind,
            PacketKind::Ack { .. }
        ));
    }

    #[test]
    fn byte_ties_evict_the_highest_bucket() {
        let mut q = FqCoDelQdisc::new(FqCoDelConfig {
            limit_bytes: 6 * (MSS + cebinae_net::HEADER_BYTES) as u64,
            ..FqCoDelConfig::default()
        });
        // Insertion order 5, 9, 2 so neither first nor last inserted wins.
        for f in [5, 9, 2] {
            for i in 0..2 {
                q.enqueue(pkt(f, i), Time::ZERO).unwrap();
            }
        }
        q.check_invariants();
        // Exactly at the limit, three queues tied at two packets each.
        assert_eq!(q.stats().drop_pkts, 0);
        assert_eq!(q.fattest(), Some(9));
        // A 52 B ACK to a fresh flow overflows: of the tied queues the
        // highest bucket id pays, whatever the insertion order.
        let a = Packet::ack(FlowId(1), 0, false, Time::ZERO, false, Time::ZERO);
        q.enqueue(a, Time::ZERO).unwrap();
        assert_eq!((q.depth(2), q.depth(5), q.depth(9), q.depth(1)), (2, 2, 1, 1));
        assert_eq!(q.stats().drop_pkts, 1);
        // With 9 out of the tie, 5 is next.
        assert_eq!(q.fattest(), Some(5));
        q.check_invariants();
    }

    #[test]
    fn eviction_can_empty_a_queue() {
        let mut q = FqCoDelQdisc::new(FqCoDelConfig {
            limit_bytes: 1000,
            ..FqCoDelConfig::default()
        });
        // One full-size packet is over the limit on its own: it is admitted,
        // evicted, and its queue leaves the index.
        q.enqueue(pkt(3, 0), Time::ZERO).unwrap();
        assert_eq!((q.byte_len(), q.pkt_len()), (0, 0));
        assert!(q.heap.heap.is_empty());
        assert_eq!(q.fattest(), None);
        assert_eq!(q.stats().drop_queued_pkts, 1);
        q.check_invariants();
        // The emptied queue is still on the new list; dequeue retires it.
        assert!(q.dequeue(Time::from_micros(1)).is_none());
        // An ACK fits, and the bucket re-enters the index.
        let a = Packet::ack(FlowId(3), 0, false, Time::ZERO, false, Time::ZERO);
        q.enqueue(a, Time::ZERO).unwrap();
        assert_eq!(q.fattest(), Some(3));
        q.check_invariants();
        assert!(q.dequeue(Time::from_micros(2)).is_some());
        q.check_invariants();
    }

    /// The dense slots, the arena and the heap against the design they
    /// replaced ([`model::MapModel`]: a hash map of per-bucket `VecDeque`s
    /// and a linear victim scan), fed one seeded op stream: the two must be
    /// indistinguishable from outside, and every structural invariant must
    /// hold after every op.
    #[test]
    fn indexed_eviction_matches_linear_scan() {
        const CASES: u64 = 64;
        const OPS: usize = 2000;
        let (mut arrivals, mut overflows) = (0u64, 0u64);
        for case in 0..CASES {
            let mut rng = DetRng::seed_from_u64(0x00F0_C0DE ^ case);
            let n_flows = rng.gen_range_u64(2, 200) as u32;
            let cfg = FqCoDelConfig {
                limit_bytes: rng.gen_range_u64(3_000, 40_000),
                buckets: if case % 2 == 0 { None } else { Some(7) },
                ecn: case % 4 >= 2,
                ..FqCoDelConfig::default()
            };
            let mut q = FqCoDelQdisc::new(cfg.clone());
            let mut model = model::MapModel::new(cfg);
            let mut now = Time::ZERO;
            for seq in 0..OPS as u64 {
                now += cebinae_sim::Duration::from_micros(rng.gen_range_u64(1, 3_000));
                if rng.gen_bool(0.7) {
                    let flow = FlowId(rng.gen_range_u64(0, n_flows as u64) as u32);
                    let mut p = if rng.gen_bool(0.2) {
                        Packet::ack(flow, seq, false, now, false, now)
                    } else {
                        let size = rng.gen_range_u64(64, 1501) as u32;
                        Packet::data(flow, seq, size - cebinae_net::HEADER_BYTES, false, now)
                    };
                    if rng.gen_bool(0.5) {
                        p.ecn = cebinae_net::Ecn::Capable;
                    }
                    let drops_before = q.stats().drop_pkts;
                    model.offer(p.clone(), now);
                    q.enqueue(p, now).unwrap();
                    arrivals += 1;
                    overflows += (q.stats().drop_pkts > drops_before) as u64;
                } else {
                    let (a, b) = (q.dequeue(now), model.serve(now));
                    assert_eq!(format!("{a:?}"), format!("{b:?}"), "case {case} op {seq}");
                }
                assert_eq!(q.stats(), &model.stats, "case {case} op {seq}");
                assert_eq!(q.byte_len(), model.total_bytes, "case {case} op {seq}");
                assert_eq!(q.pkt_len(), model.total_pkts, "case {case} op {seq}");
                q.check_invariants();
            }
            // Drain: dequeue order to the last packet.
            now += cebinae_sim::Duration::from_millis(1);
            loop {
                let (a, b) = (q.dequeue(now), model.serve(now));
                assert_eq!(format!("{a:?}"), format!("{b:?}"), "case {case} drain");
                if a.is_none() {
                    break;
                }
            }
            assert_eq!(q.stats(), &model.stats);
            assert_eq!((q.byte_len(), q.pkt_len()), (0, 0));
            q.check_invariants();
        }
        assert!(
            overflows * 10 >= arrivals * 3,
            "limits must be tight enough to exercise eviction: {overflows}/{arrivals} arrivals overflowed"
        );
    }
}
