//! The express path: analytic service of unmanaged FIFO links.
//!
//! Most links in the paper's topologies are plain access links — default
//! drop-tail FIFOs that are provisioned to never be the bottleneck and
//! that nobody traces or monitors. Emulating them event by event
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
//! link must carry the default (unmanaged) FIFO and must not be traced or
//! monitored. Nothing about the run as a whole enters into it. Telemetry
//! scrapes only monitored ports and flows, so an observed run dispatches
//! the same event stream as an unobserved one; a fault plan lands only on
//! the monitored links, and its RNG streams are private per `(link,
//! family)`, so an express hop cannot perturb a draw.
//! `SimConfig::express = false` makes no link eligible: the reference
//! path differential tests compare against.
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
//!   packets still on their way there. `tx_*` is derived at the end time
//!   as admitted less still waiting, so `enq == tx + drop_queued + queued`
//!   holds regardless.

use std::collections::VecDeque;

use cebinae_faults::FaultsRt;
use cebinae_net::{LinkId, Packet, QdiscStats};
use cebinae_sim::{tx_time, Duration, Scheduler, Time};

use super::links::{LinkPlane, Stash};
use super::{endpoints, links, Ev, FlowPlane, SchedDyn};

/// Analytic per-link express state. Every link has one; only those marked
/// in `LinkPlane::express_on` ever use it, and the rest stay all zero.
///
/// One 128-byte, line-aligned block (two cache lines, which the adjacent
/// line prefetcher fetches together) that touches no heap memory unless
/// the line is backlogged: the newest admitted entry lives inline, and
/// `older` holds entries only while two or more packets wait.
#[repr(align(64))]
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
    /// Bytes admitted but not yet serializing. The newest entry waits
    /// exactly while this is nonzero; then it counts `last_size` plus
    /// everything in `older`.
    queued_bytes: u64,
    /// Service start and size of the newest admitted entry.
    last_start: Time,
    last_size: u32,
    /// Entries admitted before the newest that had not started when it
    /// arrived, as `(service_start, size)`, drained lazily as virtual time
    /// passes each start. Starts strictly increase, so the head is always
    /// the next to leave.
    older: VecDeque<(Time, u32)>,
    /// The admission counters and peak gauge a qdisc would keep; `tx_*`
    /// is derived from them in [`stats`](Self::stats).
    enq_pkts: u64,
    enq_bytes: u64,
    drop_pkts: u64,
    drop_bytes: u64,
    peak_queued_bytes: u64,
}

impl ExpressLink {
    pub(crate) fn new(rate_bps: u64, delay: Duration, cap: u64) -> ExpressLink {
        ExpressLink {
            rate_bps,
            delay,
            cap,
            free_at: Time::ZERO,
            queued_bytes: 0,
            last_start: Time::ZERO,
            last_size: 0,
            older: VecDeque::new(),
            enq_pkts: 0,
            enq_bytes: 0,
            drop_pkts: 0,
            drop_bytes: 0,
            peak_queued_bytes: 0,
        }
    }

    /// Retire every packet whose serialization has started by `now`: the
    /// analytic mirror of the event-driven dequeue. An idle line returns
    /// at once; starts strictly increase, so once the newest has started
    /// the whole backlog retires without reading `older`'s buffer.
    fn drain(&mut self, now: Time) {
        if self.queued_bytes == 0 {
            return;
        }
        if self.last_start <= now {
            self.queued_bytes = 0;
            self.older.clear();
            return;
        }
        while let Some(&(start, size)) = self.older.front() {
            if start > now {
                break;
            }
            self.older.pop_front();
            self.queued_bytes -= size as u64; // occupancy gauge; every entry was added on admission below, so underflow is impossible
        }
    }

    /// Exact drop-tail admission at `t`, mirroring `FifoQdisc::enqueue`
    /// (the caller has drained to `t`). `None` is a tail drop; otherwise
    /// the instant the packet reaches the far end of the link.
    fn admit(&mut self, t: Time, size: u32) -> Option<Time> {
        if self.queued_bytes + size as u64 > self.cap {
            self.drop_pkts = self.drop_pkts.saturating_add(1);
            self.drop_bytes = self.drop_bytes.saturating_add(size as u64);
            return None;
        }
        self.enq_pkts = self.enq_pkts.saturating_add(1);
        self.enq_bytes = self.enq_bytes.saturating_add(size as u64);
        if self.queued_bytes > 0 {
            // The previous newest entry has not started: it keeps waiting.
            self.older.push_back((self.last_start, self.last_size));
        }
        self.queued_bytes += size as u64; // occupancy gauge, decremented in drain; admission check above bounds it
        self.peak_queued_bytes = self.peak_queued_bytes.max(self.queued_bytes);
        let start = t.max(self.free_at);
        self.free_at = start + tx_time(size as u64, self.rate_bps);
        self.last_start = start;
        self.last_size = size;
        Some(self.free_at + self.delay)
    }

    /// The counters a drop-tail qdisc would report. Every admitted packet
    /// either still waits (the inline newest while `queued_bytes > 0`, and
    /// each `older` entry) or has started serializing, so `tx_*` is what
    /// was admitted less what waits.
    fn stats(&self) -> QdiscStats {
        let pending_pkts = self.older.len() as u64 + u64::from(self.queued_bytes > 0);
        QdiscStats {
            enq_pkts: self.enq_pkts,
            enq_bytes: self.enq_bytes,
            drop_pkts: self.drop_pkts,
            drop_bytes: self.drop_bytes,
            tx_pkts: self.enq_pkts - pending_pkts,
            tx_bytes: self.enq_bytes - self.queued_bytes,
            peak_queued_bytes: self.peak_queued_bytes,
            ..QdiscStats::default()
        }
    }

    /// End of run: retire what started by `end` (the event-driven path
    /// only dequeues while events still fire), then report the overlay
    /// stats and the bytes still waiting, to merge into the link's
    /// result. A link that is not express reports zeroes here and its
    /// real qdisc state elsewhere.
    pub(crate) fn settle(&mut self, end: Time) -> (QdiscStats, u64) {
        self.drain(end);
        (self.stats(), self.queued_bytes)
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

    /// Reference model of an express link's backlog: every admitted entry
    /// waits in one deque until its service start passes, and `tx_*` is
    /// counted entry by entry as it leaves.
    struct PerEntryLink {
        rate_bps: u64,
        delay: Duration,
        cap: u64,
        free_at: Time,
        queue: VecDeque<(Time, u32)>,
        queued_bytes: u64,
        stats: QdiscStats,
    }

    impl PerEntryLink {
        fn new(rate_bps: u64, delay: Duration, cap: u64) -> PerEntryLink {
            PerEntryLink {
                rate_bps,
                delay,
                cap,
                free_at: Time::ZERO,
                queue: VecDeque::new(),
                queued_bytes: 0,
                stats: QdiscStats::default(),
            }
        }

        fn drain(&mut self, now: Time) {
            while let Some(&(start, size)) = self.queue.front() {
                if start > now {
                    break;
                }
                self.queue.pop_front();
                self.queued_bytes -= size as u64;
                self.stats.on_tx(size);
            }
        }

        fn admit(&mut self, t: Time, size: u32) -> Option<Time> {
            if self.queued_bytes + size as u64 > self.cap {
                self.stats.on_drop(size);
                return None;
            }
            self.stats.on_enqueue(size);
            self.queued_bytes += size as u64;
            self.stats.note_queued(self.queued_bytes);
            let start = t.max(self.free_at);
            self.free_at = start + tx_time(size as u64, self.rate_bps);
            self.queue.push_back((start, size));
            Some(self.free_at + self.delay)
        }
    }

    /// Every waiting entry of the compact backlog, oldest first.
    fn backlog(x: &ExpressLink) -> VecDeque<(Time, u32)> {
        let newest = (x.queued_bytes > 0).then_some((x.last_start, x.last_size));
        x.older.iter().copied().chain(newest).collect()
    }

    /// The compact backlog (inline newest entry, `older` only while
    /// backlogged, derived `tx_*`) against the per-entry queue, on one
    /// seeded admission stream per case. Arrival times sometimes go
    /// backwards (a reverse link shared by paths of different latencies)
    /// and sometimes equal the newest entry's service start exactly; the
    /// small buffers of some cases force tail drops.
    #[test]
    fn compact_backlog_matches_per_entry_queue() {
        let (mut idle, mut full, mut partial, mut ties) = (0u32, 0u32, 0u32, 0u32);
        let (mut drops, mut waiting_at_end) = (0u64, 0u32);
        for case in 0..32u64 {
            let mut rng = DetRng::seed_from_u64(0xe4a5 ^ case);
            let rate = rng.gen_range_u64(1_000_000, 1_000_000_000);
            let cap = if case % 4 == 0 {
                rng.gen_range_u64(1_500, 4_500)
            } else {
                rng.gen_range_u64(3_000, 60_000)
            };
            let delay = Duration::from_micros(rng.gen_range_u64(1, 500));
            // Arrivals step forward by up to `gap`: from a quarter of one
            // full frame's serialization time (overload) to two frames'
            // (mostly idle).
            let gap = tx_time(3_000, rate).0 * rng.gen_range_u64(1, 9) / 8;
            let mut x = ExpressLink::new(rate, delay, cap);
            let mut m = PerEntryLink::new(rate, delay, cap);
            let mut t = Time::ZERO;
            for op in 0..2_000 {
                t = match rng.gen_range_u64(0, 10) {
                    0 | 1 => Time(t.0.saturating_sub(rng.gen_range_u64(0, 2 * gap))),
                    2 => x.last_start,
                    _ => t + Duration(rng.gen_range_u64(0, gap)),
                };
                if x.queued_bytes == 0 {
                    idle += 1;
                } else if x.last_start <= t {
                    full += 1;
                    ties += (x.last_start == t) as u32;
                } else {
                    partial += 1;
                }
                x.drain(t);
                m.drain(t);
                // Every admission drains first, so only a drain without
                // one (the end-of-run settle) can leave the line idle for
                // the next; stand in for it now and then.
                if rng.gen_range_u64(0, 8) != 0 {
                    let size = rng.gen_range_u64(52, 1501) as u32;
                    assert_eq!(x.admit(t, size), m.admit(t, size), "case {case} op {op}");
                }
                assert_eq!(x.stats(), m.stats, "case {case} op {op}");
                assert_eq!(x.queued_bytes, m.queued_bytes, "case {case} op {op}");
                assert_eq!(backlog(&x), m.queue, "case {case} op {op}");
            }
            // The end-of-run settle, sometimes before the newest entry
            // starts.
            let end = t + Duration(rng.gen_range_u64(0, 4 * gap));
            m.drain(end);
            assert_eq!(x.settle(end), (m.stats, m.queued_bytes), "case {case} end");
            assert_eq!(backlog(&x), m.queue, "case {case} end");
            drops += m.stats.drop_pkts;
            waiting_at_end += !m.queue.is_empty() as u32;
        }
        assert!(
            idle > 1_000 && full > 1_000 && partial > 1_000 && ties > 100,
            "every drain shape must occur: idle {idle}, full {full}, partial {partial}, ties {ties}"
        );
        assert!(drops > 1_000, "tail drops must occur: {drops}");
        assert!(waiting_at_end > 8, "a backlog must outlive the end: {waiting_at_end}");
    }
}
