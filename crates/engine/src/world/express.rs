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
use cebinae_sim::{tx_time, Time};

use super::links::{LinkPlane, Stash};
use super::{endpoints, links, Ev, FlowPlane, SchedDyn};

/// Analytic per-link express state. Inert (`eligible = false`, all zero)
/// for managed/traced/monitored/fault-touched links.
pub(crate) struct ExpressLink {
    pub(crate) eligible: bool,
    /// Instant the line finishes its last accepted serialization.
    free_at: Time,
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
    pub(crate) fn inert() -> ExpressLink {
        ExpressLink {
            eligible: false,
            free_at: Time::ZERO,
            queue: VecDeque::new(),
            queued_bytes: 0,
            stats: QdiscStats::default(),
        }
    }

    pub(crate) fn eligible() -> ExpressLink {
        ExpressLink {
            eligible: true,
            ..ExpressLink::inert()
        }
    }

    /// Retire every packet whose serialization has started by `now`:
    /// the analytic mirror of the event-driven dequeue.
    fn drain(&mut self, now: Time) {
        while let Some(&(start, size)) = self.queue.front() {
            if start > now {
                break;
            }
            self.queue.pop_front();
            self.queued_bytes -= size as u64; // occupancy gauge; every entry was added on admission below, so underflow is impossible
            self.stats.on_tx(size);
        }
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
        if !lp.express[li].eligible {
            // Event-driven hop: hand over at the arrival instant (the
            // previous hop's propagation end).
            let slot = lp.stash.put(Stash::Enqueue { link, pkt });
            ev.post(t, Ev::Express { slot });
            return;
        }
        let rate_bps = lp.links[li].rate_bps;
        let delay = lp.links[li].delay;
        let cap = lp.limits[li];
        let x = &mut lp.express[li];
        x.drain(t);
        // Exact drop-tail admission, mirroring `FifoQdisc::enqueue`.
        if x.queued_bytes + pkt.size as u64 > cap {
            x.stats.on_drop(pkt.size);
            return;
        }
        x.stats.on_enqueue(pkt.size);
        x.queued_bytes += pkt.size as u64; // occupancy gauge, decremented in drain; admission check above bounds it
        x.stats.note_queued(x.queued_bytes);
        let start = t.max(x.free_at);
        x.free_at = start + tx_time(pkt.size as u64, rate_bps);
        x.queue.push_back((start, pkt.size));
        t = x.free_at + delay;
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
