//! The express path: analytic service of unmanaged FIFO links.
//!
//! Most links in the paper's topologies are plain access links — default
//! drop-tail FIFOs that are provisioned to never be the bottleneck and
//! that nobody traces, monitors, or faults. Emulating them event by event
//! costs two scheduler ops per packet per hop (`TxDone` + `Arrive`) for
//! state nobody observes. The express path computes the same drop-tail
//! service *in closed form* at injection time: for each consecutive
//! eligible hop, service starts at `max(arrival, link free)`, the line
//! frees after one serialization time, and the packet reaches the far end
//! one propagation delay later — exactly the instants the event-driven
//! path would produce. One `Ev::Express` marker per segment replaces the
//! whole per-hop event chain; the packet itself waits in the
//! [`PacketStash`](super::links::PacketStash).
//!
//! Eligibility is static and purely per link, decided at construction: the
//! link must carry the default (unmanaged) FIFO, must not be traced or
//! monitored, and must not be touched by the fault plan
//! ([`FaultsRt::touches`]). Nothing about the run as a whole enters into
//! it. Telemetry scrapes only monitored ports and flows, so an observed
//! run dispatches the same event stream as an unobserved one; fault RNG
//! streams are private per `(link, family)`, so an express hop on an
//! untouched link cannot perturb a draw, and a plan keeps only the links
//! it names on the event-driven path. `SimConfig::express = false` makes
//! no link eligible: the reference path differential tests compare
//! against.
//!
//! With one flow express is bit-exact against that reference, faulted
//! bottleneck included (`tests/express_path.rs`). Two documented
//! properties differ from it:
//!
//! * A *shared* express link serves packets in the order their segments
//!   started ([`walk`] claims every hop of a segment at once), the
//!   reference in the order they arrive. The orders differ only for
//!   packets of different flows that reach the link within the difference
//!   of their upstream latencies of each other — the same nanosecond on a
//!   dumbbell. Express runs are deterministic and backend/thread
//!   invariant, conserved per-link totals are exact, but timing-sensitive
//!   outcomes can drift; `crates/check/tests/express_differential.rs`
//!   measures and bounds the drift under every oracle.
//! * For the same reason an express link's admission counters (`enq_*`,
//!   tail `drop_*`), backlog and peak gauge run ahead of virtual time by
//!   the packets already walked onto it, so at end of run they include
//!   packets still on their way there. `tx_*` is settled against the end
//!   time, and `enq == tx + drop_queued + queued` holds regardless.

use std::collections::VecDeque;

use cebinae_faults::FaultsRt;
use cebinae_net::{LinkId, Packet, QdiscStats};
use cebinae_sim::{tx_time, Duration, Time};

use super::links::{LinkPlane, Stash};
use super::{endpoints, links, Ev, FlowPlane, SchedDyn};

/// Analytic per-link express state. Every link has one; only those marked
/// in `LinkPlane::express_on` ever use it, and the rest stay all zero.
pub(crate) struct ExpressLink {
    /// The link's rate, propagation delay and buffer limit, copied here so
    /// a hop touches one struct. Scripted rate changes rewrite only
    /// `LinkRt::rate_bps`, and only on fault-touched links, which are never
    /// express.
    rate_bps: u64,
    delay: Duration,
    cap: u64,
    /// Instant the line finishes its last accepted serialization.
    free_at: Time,
    /// Service start of the newest `queue` entry.
    last_start: Time,
    /// Accepted-but-not-yet-serializing packets as `(service_start,
    /// size)`, drained lazily as virtual time passes each start. Entries
    /// are pushed with non-decreasing `service_start`, so the head is
    /// always the next to leave.
    queue: VecDeque<(Time, u32)>,
    queued_bytes: u64,
    /// Stats overlay standing in for the untouched qdisc object; merged
    /// into `SimResult::link_stats` at end of run.
    stats: QdiscStats,
}

impl ExpressLink {
    pub(crate) fn new(rate_bps: u64, delay: Duration, cap: u64) -> ExpressLink {
        ExpressLink {
            rate_bps,
            delay,
            cap,
            free_at: Time::ZERO,
            last_start: Time::ZERO,
            queue: VecDeque::new(),
            queued_bytes: 0,
            stats: QdiscStats::default(),
        }
    }

    /// Retire every packet whose serialization has started by `now`:
    /// the analytic mirror of the event-driven dequeue. Starts are
    /// non-decreasing, so once the newest has started the whole backlog
    /// retires at once, without reading it.
    fn drain(&mut self, now: Time) {
        if self.last_start > now {
            return self.drain_by_scan(now);
        }
        // The same saturating sums `on_tx` would reach entry by entry.
        self.stats.tx_pkts = self.stats.tx_pkts.saturating_add(self.queue.len() as u64);
        self.stats.tx_bytes = self.stats.tx_bytes.saturating_add(self.queued_bytes);
        self.queued_bytes = 0;
        self.queue.clear();
    }

    /// [`drain`](Self::drain) entry by entry, for a backlog whose tail has
    /// not started yet.
    fn drain_by_scan(&mut self, now: Time) {
        while let Some(&(start, size)) = self.queue.front() {
            if start > now {
                break;
            }
            self.queue.pop_front();
            self.queued_bytes -= size as u64; // occupancy gauge; every entry was added on admission below, so underflow is impossible
            self.stats.on_tx(size);
        }
    }

    /// Exact drop-tail admission at `t`, mirroring `FifoQdisc::enqueue`
    /// (the caller has drained to `t`). `None` is a tail drop; otherwise
    /// the instant the packet reaches the far end of the link.
    fn admit(&mut self, t: Time, size: u32) -> Option<Time> {
        if self.queued_bytes + size as u64 > self.cap {
            self.stats.on_drop(size);
            return None;
        }
        self.stats.on_enqueue(size);
        self.queued_bytes += size as u64; // occupancy gauge, decremented in drain; admission check above bounds it
        self.stats.note_queued(self.queued_bytes);
        let start = t.max(self.free_at);
        self.free_at = start + tx_time(size as u64, self.rate_bps);
        self.queue.push_back((start, size));
        self.last_start = start;
        Some(self.free_at + self.delay)
    }
}

/// Walk a packet through consecutive express hops starting at
/// `path[pkt.hop]` (the caller has checked that link is eligible). The
/// segment ends at the destination endpoint or at the first non-express
/// link; either way exactly one `Ev::Express` marker is posted, at the
/// instant the event-driven path would have reached that point.
pub(crate) fn walk(
    lp: &mut LinkPlane,
    ev: &mut SchedDyn,
    path: &[LinkId],
    now: Time,
    mut pkt: Packet,
) {
    let mut t = now;
    loop {
        let link = path[pkt.hop as usize];
        let li = link.index();
        if !lp.express_on[li] {
            // Event-driven hop: hand over at the arrival instant (the
            // previous hop's propagation end).
            let slot = lp.stash.put(Stash::Enqueue { link, pkt });
            ev.post(t, Ev::Express { slot });
            return;
        }
        let x = &mut lp.express[li];
        x.drain(t);
        let Some(arrive) = x.admit(t, pkt.size) else {
            return;
        };
        t = arrive;
        if (pkt.hop as usize) + 1 < path.len() {
            pkt.hop += 1;
            continue;
        }
        // Final hop: the packet reaches its endpoint at `t`.
        let slot = lp.stash.put(Stash::Deliver { pkt });
        ev.post(t, Ev::Express { slot });
        return;
    }
}

/// An `Ev::Express` marker fired: resume the stashed packet where its
/// segment ended.
pub(crate) fn on_express(
    lp: &mut LinkPlane,
    fp: &mut FlowPlane,
    fx: &mut FaultsRt,
    ev: &mut SchedDyn,
    now: Time,
    slot: u32,
) {
    match lp.stash.take(slot) {
        Some(Stash::Enqueue { link, pkt }) => links::offer(lp, fx, ev, now, link, pkt),
        Some(Stash::Deliver { pkt }) => endpoints::deliver(lp, fp, fx, ev, now, pkt),
        Some(Stash::Release { .. }) | None => {
            debug_assert!(false, "express marker resolved to a foreign stash slot")
        }
    }
}

/// End of run: retire everything that started serializing by `end` (the
/// event-driven path only dequeues while events still fire), then return
/// each link's overlay stats and analytic backlog (bytes admitted but not
/// yet serializing) to merge into the per-link results. Express links
/// report their overlay; all other links report zeroes here and their
/// real qdisc state elsewhere.
pub(crate) fn final_stats(lp: &mut LinkPlane, end: Time) -> Vec<(QdiscStats, u64)> {
    lp.express
        .iter_mut()
        .map(|x| {
            x.drain(end);
            (x.stats, x.queued_bytes)
        })
        .collect()
}

/// Merge an express overlay into a qdisc's own stats. Exactly one side is
/// ever live: express links never touch their qdisc, managed links never
/// touch their overlay.
pub(crate) fn merge_stats(qdisc: &QdiscStats, overlay: &QdiscStats) -> QdiscStats {
    QdiscStats {
        enq_pkts: qdisc.enq_pkts + overlay.enq_pkts,
        enq_bytes: qdisc.enq_bytes + overlay.enq_bytes,
        drop_pkts: qdisc.drop_pkts + overlay.drop_pkts,
        drop_bytes: qdisc.drop_bytes + overlay.drop_bytes,
        tx_pkts: qdisc.tx_pkts + overlay.tx_pkts,
        tx_bytes: qdisc.tx_bytes + overlay.tx_bytes,
        ecn_marked: qdisc.ecn_marked + overlay.ecn_marked,
        drop_queued_pkts: qdisc.drop_queued_pkts + overlay.drop_queued_pkts,
        drop_queued_bytes: qdisc.drop_queued_bytes + overlay.drop_queued_bytes,
        peak_queued_bytes: qdisc.peak_queued_bytes.max(overlay.peak_queued_bytes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cebinae_sim::rng::DetRng;

    /// `drain`'s whole-backlog retire against the per-entry loop, on two
    /// links fed one seeded admission stream. Arrival times sometimes go
    /// backwards (a reverse link shared by paths of different latencies)
    /// and sometimes equal the newest entry's service start exactly.
    #[test]
    fn fast_retire_matches_per_entry_drain() {
        let (mut bulk, mut partial, mut exact) = (0u32, 0u32, 0u32);
        for case in 0..32u64 {
            let mut rng = DetRng::seed_from_u64(0xe4a5 ^ case);
            let rate = rng.gen_range_u64(1_000_000, 1_000_000_000);
            let cap = rng.gen_range_u64(3_000, 60_000);
            let delay = Duration::from_micros(rng.gen_range_u64(1, 500));
            let mut fast = ExpressLink::new(rate, delay, cap);
            let mut scan = ExpressLink::new(rate, delay, cap);
            let mut t = Time::ZERO;
            for op in 0..2_000 {
                t = match rng.gen_range_u64(0, 10) {
                    0 | 1 => Time(t.0.saturating_sub(rng.gen_range_u64(0, 200_000))),
                    2 => fast.last_start,
                    _ => t + Duration(rng.gen_range_u64(0, 100_000)),
                };
                if !fast.queue.is_empty() {
                    bulk += (fast.last_start < t) as u32;
                    exact += (fast.last_start == t) as u32;
                    partial += (fast.last_start > t) as u32;
                }
                fast.drain(t);
                scan.drain_by_scan(t);
                let size = rng.gen_range_u64(52, 1501) as u32;
                assert_eq!(fast.admit(t, size), scan.admit(t, size), "case {case} op {op}");
                assert_eq!(fast.stats, scan.stats, "case {case} op {op}");
                assert_eq!(fast.queued_bytes, scan.queued_bytes, "case {case} op {op}");
                assert_eq!(fast.queue, scan.queue, "case {case} op {op}");
            }
            // `final_stats`' drain at the end of the run.
            let end = t + Duration::from_micros(rng.gen_range_u64(0, 5_000));
            fast.drain(end);
            scan.drain_by_scan(end);
            assert_eq!(fast.stats, scan.stats, "case {case} end");
            assert_eq!(fast.queued_bytes, scan.queued_bytes, "case {case} end");
        }
        assert!(
            bulk > 1_000 && partial > 1_000 && exact > 100,
            "every drain shape must occur: bulk {bulk}, partial {partial}, exact {exact}"
        );
    }
}
