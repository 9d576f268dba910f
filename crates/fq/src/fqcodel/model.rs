//! Reference model for the differential test: FQ-CoDel as a `DetMap` of
//! per-bucket `VecDeque`s with the overflow victim found by a linear scan
//! — the design the dense slots, the packet arena and the eviction heap
//! replaced, kept so they can be held to it op for op. Its entry points
//! are `offer`/`serve`, not `enqueue`/`dequeue`, so `cebinae-verify` does
//! not take this test-only code for a qdisc hot path.

use std::collections::VecDeque;

use cebinae_ds::DetMap;
use cebinae_net::{Packet, QdiscStats};
use cebinae_sim::Time;

use super::FqCoDelConfig;
use crate::codel::{Codel, CodelVerdict};

struct Queue {
    pkts: VecDeque<(Packet, Time)>,
    bytes: u64,
    deficit: i64,
    codel: Codel,
    scheduled: bool,
}

pub(super) struct MapModel {
    cfg: FqCoDelConfig,
    flows: DetMap<u64, Queue>,
    new_list: VecDeque<u64>,
    old_list: VecDeque<u64>,
    pub(super) total_bytes: u64,
    pub(super) total_pkts: usize,
    pub(super) stats: QdiscStats,
}

impl MapModel {
    pub(super) fn new(cfg: FqCoDelConfig) -> MapModel {
        MapModel {
            cfg,
            flows: DetMap::new(),
            new_list: VecDeque::new(),
            old_list: VecDeque::new(),
            total_bytes: 0,
            total_pkts: 0,
            stats: QdiscStats::default(),
        }
    }

    /// The non-empty queue with the greatest `(bytes, bucket)`.
    fn victim(&self) -> Option<u64> {
        self.flows
            .iter()
            .filter(|(_, q)| !q.pkts.is_empty())
            .max_by_key(|&(&b, q)| (q.bytes, b))
            .map(|(&b, _)| b)
    }

    fn take_head(&mut self, bucket: u64) -> Option<(Packet, Time)> {
        let q = self.flows.get_mut(&bucket)?;
        let (pkt, t) = q.pkts.pop_front()?;
        q.bytes -= pkt.size as u64;
        self.total_bytes -= pkt.size as u64;
        self.total_pkts -= 1;
        Some((pkt, t))
    }

    pub(super) fn offer(&mut self, pkt: Packet, now: Time) {
        let bucket = match self.cfg.buckets {
            Some(n) => cebinae_sim::rng::splitmix64(pkt.flow.0 as u64) % n as u64,
            None => pkt.flow.0 as u64,
        };
        let (target, interval) = (self.cfg.codel_target, self.cfg.codel_interval);
        let q = self.flows.get_or_insert_with(bucket, || Queue {
            pkts: VecDeque::new(),
            bytes: 0,
            deficit: 0,
            codel: Codel::new(target, interval),
            scheduled: false,
        });
        q.bytes += pkt.size as u64;
        self.total_bytes += pkt.size as u64;
        self.total_pkts += 1;
        self.stats.on_enqueue(pkt.size);
        q.pkts.push_back((pkt, now));
        if !q.scheduled {
            q.scheduled = true;
            q.deficit = self.cfg.quantum as i64;
            self.new_list.push_back(bucket);
        }
        while self.total_bytes > self.cfg.limit_bytes {
            let Some((pkt, _)) = self.victim().and_then(|b| self.take_head(b)) else { break };
            self.stats.on_drop_queued(pkt.size);
        }
        self.stats.note_queued(self.total_bytes);
    }

    pub(super) fn serve(&mut self, now: Time) -> Option<Packet> {
        loop {
            let from_new = !self.new_list.is_empty();
            let list = if from_new { &mut self.new_list } else { &mut self.old_list };
            let bucket = *list.front()?;
            let q = self.flows.get_mut(&bucket)?;
            if q.deficit <= 0 {
                q.deficit += self.cfg.quantum as i64;
                list.pop_front();
                self.old_list.push_back(bucket);
                continue;
            }
            while let Some((mut pkt, enq)) = self.take_head(bucket) {
                let q = self.flows.get_mut(&bucket)?;
                match q.codel.on_dequeue(enq, now, q.bytes) {
                    CodelVerdict::Drop if !(self.cfg.ecn && pkt.try_mark_ce()) => {
                        self.stats.on_drop_queued(pkt.size);
                    }
                    verdict => {
                        if verdict == CodelVerdict::Drop {
                            self.stats.ecn_marked += 1;
                        }
                        self.stats.on_tx(pkt.size);
                        q.deficit -= pkt.size as i64;
                        return Some(pkt);
                    }
                }
            }
            self.flows.get_mut(&bucket)?.scheduled = false;
            if from_new { &mut self.new_list } else { &mut self.old_list }.pop_front();
        }
    }
}
