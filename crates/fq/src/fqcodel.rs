//! FQ-CoDel (RFC 8290): Deficit Round Robin across hashed per-flow queues,
//! each policed by CoDel. This is the paper's "FQ" baseline — its ns-3
//! evaluation runs FQ-CoDel with the queue count raised to 2³²−1 so every
//! flow gets a dedicated queue ("ideal per-flow queue"). We default to the
//! same idealization (bucket = flow id) and allow a finite bucket count for
//! realistic configurations.

use std::collections::{BTreeSet, VecDeque};

use cebinae_ds::DetMap;
use cebinae_sim::Time;
use cebinae_net::{DropReason, Packet, Qdisc, QdiscStats};

use crate::codel::{Codel, CodelVerdict};

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

struct FlowQueue {
    queue: VecDeque<(Packet, Time)>,
    bytes: u64,
    deficit: i64,
    codel: Codel,
    /// Queue appears in exactly one scheduling list while non-idle.
    scheduled: bool,
    new_flow: bool,
}

impl FlowQueue {
    /// Append a packet, keeping `bytes` and this queue's `by_size` entry in
    /// step.
    fn push(&mut self, bucket: u64, pkt: Packet, now: Time, by_size: &mut BTreeSet<(u64, u64)>) {
        if !self.queue.is_empty() {
            by_size.remove(&(self.bytes, bucket));
        }
        // occupancy gauge, decremented in pop_head; admission cap bounds it
        self.bytes += pkt.size as u64;
        self.queue.push_back((pkt, now));
        by_size.insert((self.bytes, bucket));
    }

    /// Remove the head packet, keeping `bytes` and this queue's `by_size`
    /// entry in step.
    fn pop_head(
        &mut self,
        bucket: u64,
        by_size: &mut BTreeSet<(u64, u64)>,
    ) -> Option<(Packet, Time)> {
        let (pkt, enq_time) = self.queue.pop_front()?;
        by_size.remove(&(self.bytes, bucket));
        // occupancy gauge; the popped packet's bytes were added in push
        self.bytes -= pkt.size as u64;
        if !self.queue.is_empty() {
            by_size.insert((self.bytes, bucket));
        }
        Some((pkt, enq_time))
    }
}

/// FQ-CoDel queueing discipline.
pub struct FqCoDelQdisc {
    cfg: FqCoDelConfig,
    /// Per-bucket queues; DetMap gives O(1) per-packet lookup with
    /// deterministic layout. Nothing reads its iteration order: the one
    /// order-sensitive choice, the overflow victim, is read off `by_size`.
    flows: DetMap<u64, FlowQueue>,
    /// The non-empty queues ordered by the eviction key, so the fattest is
    /// `last()`. Invariant: `by_size` is exactly `{(q.bytes, bucket)}` over
    /// the queues with a packet in them, held by `FlowQueue::{push,
    /// pop_head}`, the only two places a queue's contents change.
    by_size: BTreeSet<(u64, u64)>,
    new_list: VecDeque<u64>,
    old_list: VecDeque<u64>,
    total_bytes: u64,
    total_pkts: usize,
    stats: QdiscStats,
}

impl FqCoDelQdisc {
    pub fn new(cfg: FqCoDelConfig) -> FqCoDelQdisc {
        FqCoDelQdisc {
            cfg,
            flows: DetMap::new(),
            by_size: BTreeSet::new(),
            new_list: VecDeque::new(),
            old_list: VecDeque::new(),
            total_bytes: 0,
            total_pkts: 0,
            stats: QdiscStats::default(),
        }
    }

    fn bucket_of(&self, pkt: &Packet) -> u64 {
        match self.cfg.buckets {
            Some(n) => cebinae_sim::rng::splitmix64(pkt.flow.0 as u64) % n as u64,
            None => pkt.flow.0 as u64,
        }
    }

    /// The overflow victim: the non-empty queue with the greatest
    /// `(bytes, bucket)`. Bucket ids are unique, so the key is a total order
    /// and byte-count ties break toward the highest bucket id.
    fn fattest(&self) -> Option<u64> {
        self.by_size.last().map(|&(_, bucket)| bucket)
    }

    /// RFC 8290 overload behavior: drop from the head of the fattest queue.
    fn drop_head(&mut self, bucket: u64) {
        let Some(q) = self.flows.get_mut(&bucket) else {
            return; // victims come from the non-empty queues (cannot happen, but no panic)
        };
        if let Some((pkt, _)) = q.pop_head(bucket, &mut self.by_size) {
            // The evicted packet was already admitted and counted by
            // on_enqueue — record it as a post-admission drop.
            self.stats.on_drop_queued(pkt.size);
            // det-ok: aggregate occupancy gauges; the popped packet was counted on enqueue
            self.total_bytes -= pkt.size as u64;
            self.total_pkts -= 1; // det-ok: same conservation argument, packet count
        }
    }

    /// `Qdisc::enqueue`, with the overflow victim chosen by `victim` so the
    /// tests can run the linear scan this index replaced against it.
    fn admit(&mut self, pkt: Packet, now: Time, victim: impl Fn(&Self) -> Option<u64>) {
        let bucket = self.bucket_of(&pkt);
        let size = pkt.size;
        let target = self.cfg.codel_target;
        let interval = self.cfg.codel_interval;
        let q = self.flows.get_or_insert_with(bucket, || FlowQueue {
            queue: VecDeque::new(),
            bytes: 0,
            deficit: 0,
            codel: Codel::new(target, interval),
            scheduled: false,
            new_flow: false,
        });
        q.push(bucket, pkt, now, &mut self.by_size);
        // det-ok: aggregate occupancy gauges, decremented on dequeue/drop; admission cap bounds them
        self.total_bytes += size as u64;
        self.total_pkts += 1; // det-ok: same argument, packet count
        self.stats.on_enqueue(size);
        if !q.scheduled {
            q.scheduled = true;
            q.new_flow = true;
            q.deficit = self.cfg.quantum as i64;
            self.new_list.push_back(bucket);
        }
        // Enforce the shared limit by dropping from the fattest queue
        // (which may be the one we just fed).
        while self.total_bytes > self.cfg.limit_bytes {
            let Some(bucket) = victim(self) else {
                break;
            };
            self.drop_head(bucket);
        }
        // Record occupancy only after the limit is enforced: the transient
        // overshoot inside this call is not an observable queue state, and
        // the peak gauge must respect `buffer_limit_bytes`.
        self.stats.note_queued(self.total_bytes);
    }

    /// Pull the next deliverable packet from a specific flow queue,
    /// applying CoDel. Returns None if the queue emptied.
    fn codel_dequeue(&mut self, bucket: u64, now: Time) -> Option<Packet> {
        loop {
            let ecn_mode = self.cfg.ecn;
            let q = self.flows.get_mut(&bucket)?;
            let (mut pkt, enq_time) = q.pop_head(bucket, &mut self.by_size)?;
            // det-ok: aggregate occupancy gauges mirroring enqueue; conservation checked by the fq invariant tests
            self.total_bytes -= pkt.size as u64;
            self.total_pkts -= 1; // det-ok: same argument, packet count
            match q.codel.on_dequeue(enq_time, now, q.bytes) {
                CodelVerdict::Deliver => {
                    self.stats.on_tx(pkt.size);
                    return Some(pkt);
                }
                CodelVerdict::Drop => {
                    if ecn_mode && pkt.try_mark_ce() {
                        // Mark instead of dropping (RFC 8290 §4.2).
                        self.stats.ecn_marked = self.stats.ecn_marked.saturating_add(1);
                        self.stats.on_tx(pkt.size);
                        return Some(pkt);
                    }
                    self.stats.on_drop_queued(pkt.size);
                    // loop: consider the next head packet
                }
            }
        }
    }
}

impl Qdisc for FqCoDelQdisc {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn enqueue(&mut self, pkt: Packet, now: Time) -> Result<(), (Packet, DropReason)> {
        self.admit(pkt, now, Self::fattest);
        Ok(())
    }

    fn dequeue(&mut self, now: Time) -> Option<Packet> {
        loop {
            // Prefer new flows, then old flows (RFC 8290 scheduling).
            let (bucket, from_new) = if let Some(&b) = self.new_list.front() {
                (b, true)
            } else if let Some(&b) = self.old_list.front() {
                (b, false)
            } else {
                return None;
            };

            // det-ok: scheduling lists only hold buckets present in `flows`
            let q = self.flows.get_mut(&bucket).expect("scheduled bucket");
            if q.deficit <= 0 {
                // Exhausted its quantum: move to the back of old list with a
                // fresh quantum.
                q.deficit += self.cfg.quantum as i64;
                if from_new {
                    self.new_list.pop_front();
                } else {
                    self.old_list.pop_front();
                }
                q.new_flow = false;
                self.old_list.push_back(bucket);
                continue;
            }

            match self.codel_dequeue(bucket, now) {
                Some(pkt) => {
                    // det-ok: codel_dequeue just returned a packet from this bucket
                    let q = self.flows.get_mut(&bucket).expect("bucket exists");
                    q.deficit -= pkt.size as i64;
                    return Some(pkt);
                }
                None => {
                    // Queue emptied. A new flow that empties moves to the old
                    // list once (RFC 8290) — approximated by simple removal,
                    // which matches ns-3's behavior closely enough for
                    // long-lived flows.
                    // det-ok: the bucket came off a scheduling list, so it is in `flows`
                    let q = self.flows.get_mut(&bucket).expect("bucket exists");
                    q.scheduled = false;
                    q.new_flow = false;
                    if from_new {
                        self.new_list.pop_front();
                    } else {
                        self.old_list.pop_front();
                    }
                    continue;
                }
            }
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
    /// The O(flows) victim selection `by_size` replaced, kept as the
    /// reference the index is tested against.
    fn fattest_by_scan(&self) -> Option<u64> {
        self.flows
            .iter()
            .filter(|(_, q)| !q.queue.is_empty())
            .max_by_key(|&(&b, q)| (q.bytes, b))
            .map(|(&b, _)| b)
    }

    fn check_invariants(&self) {
        let nonempty: BTreeSet<(u64, u64)> = self
            .flows
            .iter()
            .filter(|(_, q)| !q.queue.is_empty())
            .map(|(&b, q)| (q.bytes, b))
            .collect();
        assert_eq!(self.by_size, nonempty, "index == non-empty queues");
        assert_eq!(self.fattest(), self.fattest_by_scan());
        for q in self.flows.values() {
            let bytes: u64 = q.queue.iter().map(|(p, _)| p.size as u64).sum();
            assert_eq!(q.bytes, bytes);
        }
        let total_bytes: u64 = self.flows.values().map(|q| q.bytes).sum();
        assert_eq!(self.total_bytes, total_bytes);
        let total_pkts: usize = self.flows.values().map(|q| q.queue.len()).sum();
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
        assert_eq!(q.flows.len(), 1, "both flows share the single bucket");
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
        let depth = |f: u64| q.flows.get(&f).unwrap().queue.len();
        assert_eq!((depth(2), depth(5), depth(9), depth(1)), (2, 2, 1, 1));
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
        assert!(q.by_size.is_empty());
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

    /// The indexed victim against the linear scan it replaced: two qdiscs
    /// fed one seeded op stream must be indistinguishable from outside.
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
            let mut indexed = FqCoDelQdisc::new(cfg.clone());
            let mut scanned = FqCoDelQdisc::new(cfg);
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
                    let drops_before = indexed.stats().drop_pkts;
                    indexed.admit(p.clone(), now, |q| {
                        let victim = q.fattest();
                        assert_eq!(victim, q.fattest_by_scan(), "case {case} op {seq}");
                        victim
                    });
                    scanned.admit(p, now, FqCoDelQdisc::fattest_by_scan);
                    arrivals += 1;
                    overflows += (indexed.stats().drop_pkts > drops_before) as u64;
                } else {
                    let (a, b) = (indexed.dequeue(now), scanned.dequeue(now));
                    assert_eq!(format!("{a:?}"), format!("{b:?}"), "case {case} op {seq}");
                }
                assert_eq!(indexed.stats(), scanned.stats(), "case {case} op {seq}");
                assert_eq!(indexed.byte_len(), scanned.byte_len());
                assert_eq!(indexed.pkt_len(), scanned.pkt_len());
                indexed.check_invariants();
            }
            // Drain: dequeue order to the last packet.
            now += cebinae_sim::Duration::from_millis(1);
            loop {
                let (a, b) = (indexed.dequeue(now), scanned.dequeue(now));
                assert_eq!(format!("{a:?}"), format!("{b:?}"), "case {case} drain");
                if a.is_none() {
                    break;
                }
            }
            assert_eq!(indexed.stats(), scanned.stats());
            assert_eq!((indexed.byte_len(), indexed.pkt_len()), (0, 0));
            indexed.check_invariants();
        }
        assert!(
            overflows * 10 >= arrivals * 3,
            "limits must be tight enough to exercise eviction: {overflows}/{arrivals} arrivals overflowed"
        );
    }
}
