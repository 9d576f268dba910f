//! AFQ-style approximate fair queuing (Sharma et al., NSDI 2018): a
//! calendar queue of `n_queues` FIFO priorities, each representing one
//! round of `bpr` (Bytes-per-Round) service per flow.
//!
//! This is the comparator the paper argues against on scalability grounds
//! (§2, Equation 1): AFQ must track every flow's bytes and give each flow
//! `buffer_req ≤ BpR × Nq` of schedulable horizon, so its parameters grow
//! with flow count, RTT, and burstiness. We implement it (with idealized
//! exact per-flow counters, which is *generous* to AFQ) both as an extra
//! baseline and to quantify Equation 1 (`ext-scalability`).

use std::collections::VecDeque;

use cebinae_ds::FlowSlab;
use cebinae_sim::Time;
use cebinae_net::{DropReason, Packet, Qdisc, QdiscStats};

/// Configuration for [`AfqQdisc`].
#[derive(Clone, Copy, Debug)]
pub struct AfqConfig {
    /// Number of calendar queues (priority levels dedicated to AFQ).
    pub n_queues: usize,
    /// Bytes each flow may send per round.
    pub bpr: u64,
    /// Shared buffer limit in bytes.
    pub limit_bytes: u64,
}

impl Default for AfqConfig {
    fn default() -> Self {
        // The NSDI paper's canonical configuration.
        AfqConfig {
            n_queues: 32,
            bpr: 8 * 1500,
            limit_bytes: 10 * 1024 * 1500,
        }
    }
}

/// AFQ calendar-queue discipline.
pub struct AfqQdisc {
    cfg: AfqConfig,
    /// Calendar queues; index = round % n_queues.
    queues: Vec<VecDeque<Packet>>,
    queue_bytes: Vec<u64>,
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
        assert!(cfg.n_queues >= 2, "AFQ needs at least two queues");
        assert!(cfg.bpr > 0);
        AfqQdisc {
            queues: (0..cfg.n_queues).map(|_| VecDeque::new()).collect(),
            queue_bytes: vec![0; cfg.n_queues],
            round: 0,
            flow_slots: FlowSlab::new(),
            flow_bytes: Vec::new(),
            total_bytes: 0,
            stats: QdiscStats::default(),
            cfg,
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

    fn enqueue(&mut self, pkt: Packet, _now: Time) -> Result<(), (Packet, DropReason)> {
        if self.total_bytes + pkt.size as u64 > self.cfg.limit_bytes {
            self.stats.on_drop(pkt.size);
            return Err((pkt, DropReason::BufferFull));
        }
        let slot = self.flow_slots.slot_of(pkt.flow.0) as usize;
        if slot == self.flow_bytes.len() {
            self.flow_bytes.push(0);
        }
        let counter = &mut self.flow_bytes[slot]; // det-ok: slot < len — FlowSlab hands out dense slots, and a fresh tail slot was just pushed
        // A flow restarting after idling shouldn't be scheduled in the past.
        let floor = self.round * self.cfg.bpr;
        if *counter < floor {
            *counter = floor;
        }
        let bid_round = *counter / self.cfg.bpr;
        if bid_round >= self.round + self.cfg.n_queues as u64 {
            // Beyond the calendar horizon (Equation 1 violated for this
            // flow): drop.
            self.stats.on_drop(pkt.size);
            return Err((pkt, DropReason::CalendarHorizon));
        }
        *counter += pkt.size as u64; // per-flow bid counter, reset each epoch; u64 cannot overflow within a run
        let qi = (bid_round % self.cfg.n_queues as u64) as usize;
        // det-ok: qi < n_queues by the modulo; queue_bytes is an occupancy gauge mirrored in dequeue
        self.queue_bytes[qi] += pkt.size as u64;
        self.total_bytes += pkt.size as u64; // det-ok: aggregate occupancy gauge, decremented in dequeue
        self.stats.on_enqueue(pkt.size);
        self.stats.note_queued(self.total_bytes);
        self.queues[qi].push_back(pkt); // det-ok: qi < n_queues by the modulo above
        Ok(())
    }

    fn dequeue(&mut self, _now: Time) -> Option<Packet> {
        if self.total_bytes == 0 {
            return None;
        }
        // Serve the current round's queue; advance rounds past empty queues.
        loop {
            let qi = (self.round % self.cfg.n_queues as u64) as usize;
            if let Some(pkt) = self.queues[qi].pop_front() { // det-ok: qi < n_queues by the modulo
                // det-ok: occupancy gauges mirroring enqueue; every popped packet's bytes were added there
                self.queue_bytes[qi] -= pkt.size as u64;
                self.total_bytes -= pkt.size as u64; // det-ok: aggregate gauge, same argument
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
        self.queues.iter().map(|q| q.len()).sum()
    }

    fn stats(&self) -> &QdiscStats {
        &self.stats
    }
}

/// Equation 1 of the paper: the buffer a flow's protocol requires must not
/// exceed `BpR × Nq`. Given a worst-case per-flow buffer requirement
/// (bandwidth-delay product) and a queue budget, returns the minimum BpR.
pub fn afq_min_bpr(buffer_req_bytes: u64, n_queues: usize) -> u64 {
    buffer_req_bytes.div_ceil(n_queues as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cebinae_net::{FlowId, MSS};

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
        let cfg = AfqConfig {
            n_queues: 4,
            bpr: 1500,
            limit_bytes: 1 << 30,
        };
        let mut q = AfqQdisc::new(cfg);
        // One flow sends far more than 4 rounds × 1 MTU of backlog.
        let mut accepted = 0;
        for i in 0..16 {
            if q.enqueue(pkt(0, i), Time::ZERO).is_ok() {
                accepted += 1;
            }
        }
        assert!(accepted <= 5, "horizon must cap backlog, got {accepted}");
        assert!(q.stats().drop_pkts >= 11);
    }

    #[test]
    fn idle_flow_is_not_scheduled_in_the_past() {
        let cfg = AfqConfig {
            n_queues: 8,
            bpr: 1500,
            limit_bytes: 1 << 30,
        };
        let mut q = AfqQdisc::new(cfg);
        // Flow 0 sends a burst, gets drained; round advances.
        for i in 0..6 {
            q.enqueue(pkt(0, i), Time::ZERO).unwrap();
        }
        for _ in 0..6 {
            q.dequeue(Time::ZERO).unwrap();
        }
        assert!(q.round() > 0);
        // Flow 1 (new) and flow 0 (idle) both enqueue; both must be accepted
        // at the current round, not in the past.
        q.enqueue(pkt(1, 0), Time::ZERO).unwrap();
        q.enqueue(pkt(0, 100), Time::ZERO).unwrap();
        assert_eq!(q.pkt_len(), 2);
        assert!(q.dequeue(Time::ZERO).is_some());
        assert!(q.dequeue(Time::ZERO).is_some());
    }

    #[test]
    fn buffer_limit_enforced() {
        let cfg = AfqConfig {
            n_queues: 32,
            bpr: 100 * 1500,
            limit_bytes: 3 * 1500,
        };
        let mut q = AfqQdisc::new(cfg);
        assert!(q.enqueue(pkt(0, 0), Time::ZERO).is_ok());
        assert!(q.enqueue(pkt(0, 1), Time::ZERO).is_ok());
        assert!(q.enqueue(pkt(0, 2), Time::ZERO).is_ok());
        assert!(matches!(
            q.enqueue(pkt(0, 3), Time::ZERO),
            Err((_, DropReason::BufferFull))
        ));
    }

    #[test]
    fn min_bpr_matches_equation_1() {
        // 100ms RTT at 10 Gbps => 125 MB buffer_req; 32 queues.
        let req = 125_000_000u64;
        assert_eq!(afq_min_bpr(req, 32), 3_906_250);
        // Exact division.
        assert_eq!(afq_min_bpr(32 * 1500, 32), 1500);
        // Rounds up.
        assert_eq!(afq_min_bpr(32 * 1500 + 1, 32), 1501);
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
