//! AFQ-style approximate fair queuing (Sharma et al., NSDI 2018): a
//! calendar queue of [`AFQ_N_QUEUES`] FIFO priorities, each representing
//! one round of [`AFQ_BPR`] (Bytes-per-Round) service per flow.
//!
//! This is the comparator the paper argues against on scalability grounds
//! (§2, Equation 1): AFQ must track every flow's bytes and give each flow
//! `buffer_req ≤ BpR × Nq` of schedulable horizon, so its parameters grow
//! with flow count, RTT, and burstiness. We implement it (with idealized
//! exact per-flow counters, which is *generous* to AFQ) both as an extra
//! baseline and to quantify Equation 1 (`ext-scalability`).

use cebinae_ds::FlowSlab;
use cebinae_sim::Time;
use cebinae_net::{Arena, Chain, DropReason, Packet, Qdisc, QdiscStats};

/// Number of calendar queues (priority levels dedicated to AFQ): the NSDI
/// paper's canonical configuration, with [`AFQ_BPR`].
pub const AFQ_N_QUEUES: u64 = 32;

/// Bytes each flow may send per round: 8 MTUs.
pub const AFQ_BPR: u64 = 8 * 1500;

/// Configuration for [`AfqQdisc`]: its buffer. The calendar itself is
/// [`AFQ_N_QUEUES`] × [`AFQ_BPR`].
#[derive(Clone, Copy, Debug)]
pub struct AfqConfig {
    /// Shared buffer limit in bytes.
    pub limit_bytes: u64,
}

impl Default for AfqConfig {
    fn default() -> Self {
        AfqConfig { limit_bytes: 10 * 1024 * 1500 }
    }
}

/// AFQ calendar-queue discipline.
pub struct AfqQdisc {
    /// Shared buffer limit in bytes (`AfqConfig::limit_bytes`).
    limit_bytes: u64,
    /// Calendar queues, as chains in one packet arena; index = round %
    /// AFQ_N_QUEUES.
    arena: Arena,
    queues: Vec<Chain>,
    /// Current service round.
    round: u64,
    /// Per-flow cumulative byte counters (idealized exact table; the
    /// hardware version uses a count-min sketch). Flow ids are dense arena
    /// indices, so a slab-backed Vec makes the per-packet counter update a
    /// direct load/store — no tree walk, no hashing.
    flow_slots: FlowSlab,
    flow_bytes: Vec<u64>,
    total_bytes: u64,
    stats: QdiscStats,
}

impl AfqQdisc {
    pub fn new(cfg: AfqConfig) -> AfqQdisc {
        AfqQdisc {
            arena: Arena::new(),
            queues: vec![Chain::EMPTY; AFQ_N_QUEUES as usize],
            round: 0,
            flow_slots: FlowSlab::new(),
            flow_bytes: Vec::new(),
            total_bytes: 0,
            stats: QdiscStats::default(),
            limit_bytes: cfg.limit_bytes,
        }
    }

    pub fn round(&self) -> u64 {
        self.round
    }
}

impl Qdisc for AfqQdisc {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn enqueue(&mut self, pkt: Packet, now: Time) -> Result<(), (Packet, DropReason)> {
        if self.total_bytes + pkt.size as u64 > self.limit_bytes {
            self.stats.on_drop(pkt.size);
            return Err((pkt, DropReason::BufferFull));
        }
        let slot = self.flow_slots.slot_of(pkt.flow.0) as usize;
        if slot == self.flow_bytes.len() {
            self.flow_bytes.push(0);
        }
        let counter = &mut self.flow_bytes[slot]; // det-ok: slot < len — FlowSlab hands out dense slots, and a fresh tail slot was just pushed
        // A flow restarting after idling shouldn't be scheduled in the past.
        let floor = self.round * AFQ_BPR;
        if *counter < floor {
            *counter = floor;
        }
        let bid_round = *counter / AFQ_BPR;
        if bid_round >= self.round + AFQ_N_QUEUES {
            // Beyond the calendar horizon (Equation 1 violated for this
            // flow): drop.
            self.stats.on_drop(pkt.size);
            return Err((pkt, DropReason::CalendarHorizon));
        }
        *counter += pkt.size as u64; // per-flow bid counter, reset each epoch; u64 cannot overflow within a run
        let qi = (bid_round % AFQ_N_QUEUES) as usize;
        self.total_bytes += pkt.size as u64; // det-ok: aggregate occupancy gauge, decremented in dequeue
        self.stats.on_enqueue(pkt.size);
        self.stats.note_queued(self.total_bytes);
        self.queues[qi].push_back(&mut self.arena, pkt, now); // det-ok: qi < AFQ_N_QUEUES by the modulo above
        Ok(())
    }

    fn dequeue(&mut self, _now: Time) -> Option<Packet> {
        if self.total_bytes == 0 {
            return None;
        }
        // Serve the current round's queue; advance rounds past empty queues.
        loop {
            let qi = (self.round % AFQ_N_QUEUES) as usize;
            let q = self.queues.get_mut(qi)?;
            if let Some((pkt, _)) = q.pop_front(&mut self.arena) {
                // det-ok: aggregate occupancy gauge mirroring enqueue; every popped packet's bytes were added there
                self.total_bytes -= pkt.size as u64;
                self.stats.on_tx(pkt.size);
                return Some(pkt);
            }
            self.round += 1;
        }
    }

    fn byte_len(&self) -> u64 {
        self.total_bytes
    }

    fn pkt_len(&self) -> usize {
        self.queues.iter().map(|q| q.len() as usize).sum()
    }

    fn stats(&self) -> &QdiscStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, VecDeque};

    use cebinae_net::{FlowId, DATA_FRAME_BYTES, MSS};
    use cebinae_sim::rng::DetRng;

    fn pkt(flow: u32, seq: u64) -> Packet {
        Packet::data(FlowId(flow), seq, MSS, false, Time::ZERO)
    }

    #[test]
    fn equal_backlogs_served_fairly() {
        let mut q = AfqQdisc::new(AfqConfig::default());
        for f in 0..4 {
            for i in 0..32 {
                q.enqueue(pkt(f, i), Time::ZERO).unwrap();
            }
        }
        let mut counts = [0usize; 4];
        for _ in 0..64 {
            let p = q.dequeue(Time::ZERO).unwrap();
            counts[p.flow.0 as usize] += 1;
        }
        for &c in &counts {
            assert!((12..=20).contains(&c), "{counts:?}");
        }
    }

    #[test]
    fn horizon_drop_for_oversending_flow() {
        let mut q = AfqQdisc::new(AfqConfig { limit_bytes: 1 << 30 });
        // One flow offers twice the calendar's horizon: Equation 1's
        // `BpR × Nq` bytes get in, every packet past them is dropped.
        let horizon = AFQ_N_QUEUES * AFQ_BPR / DATA_FRAME_BYTES as u64;
        let mut accepted = 0;
        for i in 0..2 * horizon {
            if q.enqueue(pkt(0, i), Time::ZERO).is_ok() {
                accepted += 1;
            }
        }
        assert_eq!(accepted, horizon, "horizon must cap backlog at BpR x Nq");
        assert_eq!(q.stats().drop_pkts, horizon);
    }

    #[test]
    fn idle_flow_is_not_scheduled_in_the_past() {
        let mut q = AfqQdisc::new(AfqConfig { limit_bytes: 1 << 30 });
        // Flow 0 sends one packet and flow 1 three rounds' worth; draining
        // them all advances the round to 2.
        let per_round = AFQ_BPR / DATA_FRAME_BYTES as u64;
        q.enqueue(pkt(0, 0), Time::ZERO).unwrap();
        for i in 0..3 * per_round {
            q.enqueue(pkt(1, i), Time::ZERO).unwrap();
        }
        while q.dequeue(Time::ZERO).is_some() {}
        assert_eq!(q.round(), 2);
        // Flow 1 bids into round 3. Flow 0 (idle) and flow 2 (new) must
        // land in the current round, not in a past one that the calendar
        // would only reach again after wrapping around.
        q.enqueue(pkt(1, 100), Time::ZERO).unwrap();
        q.enqueue(pkt(0, 100), Time::ZERO).unwrap();
        q.enqueue(pkt(2, 0), Time::ZERO).unwrap();
        let order: Vec<u32> =
            std::iter::from_fn(|| q.dequeue(Time::ZERO)).map(|p| p.flow.0).collect();
        assert_eq!(order, vec![0, 2, 1]);
    }

    #[test]
    fn buffer_limit_enforced() {
        let mut q = AfqQdisc::new(AfqConfig { limit_bytes: 3 * 1500 });
        assert!(q.enqueue(pkt(0, 0), Time::ZERO).is_ok());
        assert!(q.enqueue(pkt(0, 1), Time::ZERO).is_ok());
        assert!(q.enqueue(pkt(0, 2), Time::ZERO).is_ok());
        assert!(matches!(
            q.enqueue(pkt(0, 3), Time::ZERO),
            Err((_, DropReason::BufferFull))
        ));
    }

    /// The calendar as it was before the packet arena: one `VecDeque` per
    /// queue and a map of per-flow bids. Entry points are `offer`/`serve`,
    /// so `cebinae-verify` does not take this test-only code for a qdisc
    /// hot path.
    struct DequeModel {
        cfg: AfqConfig,
        queues: Vec<VecDeque<Packet>>,
        round: u64,
        bids: BTreeMap<u32, u64>,
        total_bytes: u64,
        stats: QdiscStats,
    }

    impl DequeModel {
        fn new(cfg: AfqConfig) -> DequeModel {
            let queues = vec![VecDeque::new(); AFQ_N_QUEUES as usize];
            let stats = QdiscStats::default();
            DequeModel { cfg, queues, round: 0, bids: BTreeMap::new(), total_bytes: 0, stats }
        }

        fn offer(&mut self, pkt: Packet) -> Result<(), DropReason> {
            if self.total_bytes + pkt.size as u64 > self.cfg.limit_bytes {
                self.stats.on_drop(pkt.size);
                return Err(DropReason::BufferFull);
            }
            let bid = self.bids.entry(pkt.flow.0).or_insert(0);
            *bid = (*bid).max(self.round * AFQ_BPR);
            let bid_round = *bid / AFQ_BPR;
            if bid_round >= self.round + AFQ_N_QUEUES {
                self.stats.on_drop(pkt.size);
                return Err(DropReason::CalendarHorizon);
            }
            *bid += pkt.size as u64;
            self.total_bytes += pkt.size as u64;
            self.stats.on_enqueue(pkt.size);
            self.stats.note_queued(self.total_bytes);
            self.queues[(bid_round % AFQ_N_QUEUES) as usize].push_back(pkt);
            Ok(())
        }

        fn serve(&mut self) -> Option<Packet> {
            if self.total_bytes == 0 {
                return None;
            }
            loop {
                let qi = (self.round % AFQ_N_QUEUES) as usize;
                if let Some(pkt) = self.queues[qi].pop_front() {
                    self.total_bytes -= pkt.size as u64;
                    self.stats.on_tx(pkt.size);
                    return Some(pkt);
                }
                self.round += 1;
            }
        }
    }

    /// The arena-backed calendar against [`DequeModel`], fed one seeded
    /// op stream per case: same verdicts, same packets out in the same
    /// order, same counters, and never more arena nodes than packets were
    /// queued at once.
    #[test]
    fn calendar_chains_match_a_vecdeque_model() {
        const CASES: u64 = 64;
        const OPS: u64 = 2000;
        let mut horizon_drops = 0;
        for case in 0..CASES {
            let mut rng = DetRng::seed_from_u64(0xAF0_C0DE ^ case);
            // Buffers up to twice the calendar's horizon of 256 MTUs, and
            // a hog (flow 0) taking a per-case share of enqueue-heavy
            // traffic, so that some cases outrun the horizon.
            let cfg = AfqConfig { limit_bytes: rng.gen_range_u64(5, 512) * 1500 };
            let n_flows = rng.gen_range_u64(1, 64);
            let (p_enqueue, p_hog) = (rng.gen_range_f64(0.5, 0.9), rng.gen_range_f64(0.0, 0.9));
            let (mut q, mut model) = (AfqQdisc::new(cfg), DequeModel::new(cfg));
            let mut peak = 0;
            for seq in 0..OPS {
                if rng.gen_bool(p_enqueue) {
                    let hog = rng.gen_bool(p_hog);
                    let flow = FlowId(if hog { 0 } else { rng.gen_range_u64(0, n_flows) as u32 });
                    let payload = rng.gen_range_u64(12, 1449) as u32;
                    let p = Packet::data(flow, seq, payload, false, Time::ZERO);
                    let want = model.offer(p.clone());
                    let got = q.enqueue(p, Time::ZERO).map_err(|(_, why)| why);
                    assert_eq!(got, want, "case {case} op {seq}");
                    horizon_drops += (want == Err(DropReason::CalendarHorizon)) as u32;
                } else {
                    let (a, b) = (q.dequeue(Time::ZERO), model.serve());
                    assert_eq!(format!("{a:?}"), format!("{b:?}"), "case {case} op {seq}");
                }
                assert_eq!(q.stats(), &model.stats, "case {case} op {seq}");
                assert_eq!((q.byte_len(), q.round()), (model.total_bytes, model.round));
                let queued: usize = model.queues.iter().map(VecDeque::len).sum();
                assert_eq!(q.pkt_len(), queued, "case {case} op {seq}");
                peak = peak.max(queued);
                assert!(q.arena.node_count() <= peak, "case {case} op {seq}: nodes above peak");
            }
            q.arena.assert_partition(&q.queues);
            while let Some(p) = q.dequeue(Time::ZERO) {
                assert_eq!(format!("{:?}", Some(p)), format!("{:?}", model.serve()), "case {case}");
            }
            assert!(model.serve().is_none(), "case {case}");
        }
        assert!(horizon_drops > 0, "the cases must exercise the calendar horizon");
    }

    #[test]
    fn conservation() {
        let mut q = AfqQdisc::new(AfqConfig::default());
        for f in 0..8 {
            for i in 0..10 {
                let _ = q.enqueue(pkt(f, i), Time::ZERO);
            }
        }
        let mut tx = 0;
        while q.dequeue(Time::ZERO).is_some() {
            tx += 1;
        }
        let s = q.stats();
        assert_eq!(s.enq_pkts, tx);
        assert_eq!(s.enq_pkts + s.drop_pkts, 80);
        assert_eq!(q.byte_len(), 0);
    }
}
