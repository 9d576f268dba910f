//! Fault-injection hooks on the packet path: per-enqueue fate draws
//! (loss / corruption / duplication / reorder holdback) and the scripted
//! link timelines. The models themselves live in `cebinae-faults`; this
//! module is the engine-side plumbing.

use cebinae_faults::{FaultsRt, LinkEventKind};
use cebinae_net::{LinkId, Packet, TraceEvent, TraceRecord};
use cebinae_sim::Time;

use super::links::{self, LinkPlane, Stash};
use super::{Ev, SchedDyn};

/// Apply the link's fault model to an offered packet. Returns the packet
/// to enqueue, or `None` if it was dropped or held back (a held packet is
/// stashed and re-enters via `Ev::FaultRelease`; its fate was already
/// drawn here, at the original enqueue instant). Reached only through
/// [`links::offer`], once per arrival at an event-driven link, whether
/// the packet came hop by hop or out of an express segment; links the
/// plan does not touch draw nothing.
pub(crate) fn apply_fate(
    lp: &mut LinkPlane,
    fx: &mut FaultsRt,
    ev: &mut SchedDyn,
    now: Time,
    link: LinkId,
    mut pkt: Packet,
) -> Option<Packet> {
    let fate = fx.on_enqueue(link, pkt.size);
    if fate.drop {
        if lp.traced[link.index()] {
            lp.trace.push(TraceRecord::from_packet(
                now,
                link,
                &pkt,
                TraceEvent::Drop(cebinae_net::DropReason::Injected),
            ));
        }
        return None; // injected loss
    }
    if fate.corrupt {
        pkt.corrupted = true;
    }
    if fate.duplicate {
        links::deliver_to_qdisc(lp, fx, ev, now, link, pkt.clone());
    }
    if let Some(hold) = fate.hold {
        let slot = lp.stash.put(Stash::Release { link, pkt });
        ev.post(now + hold, Ev::FaultRelease { slot });
        return None;
    }
    Some(pkt)
}

/// `Ev::FaultRelease { slot }`: a reorder-held packet re-enters its
/// link's queue.
pub(crate) fn on_release(
    lp: &mut LinkPlane,
    fx: &mut FaultsRt,
    ev: &mut SchedDyn,
    now: Time,
    slot: u32,
) {
    match lp.stash.take(slot) {
        Some(Stash::Release { link, pkt }) => links::deliver_to_qdisc(lp, fx, ev, now, link, pkt),
        Some(_) | None => debug_assert!(false, "release marker resolved to a foreign stash slot"),
    }
}

/// `Ev::FaultTimeline { link }`: the next scripted event on the link's
/// timeline is due.
pub(crate) fn on_timeline(
    lp: &mut LinkPlane,
    fx: &mut FaultsRt,
    ev: &mut SchedDyn,
    now: Time,
    link: LinkId,
) {
    match fx.next_timeline(link) {
        Some(LinkEventKind::Rate(bps)) => {
            lp.links[link.index()].rate_bps = bps;
        }
        // A revived link resumes draining its backlog. (A packet already
        // serializing when the link went down completes — the down state
        // gates new dequeues, not propagation.)
        Some(LinkEventKind::Up) => links::kick(lp, fx, ev, now, link),
        Some(LinkEventKind::Down) | None => {}
    }
}
