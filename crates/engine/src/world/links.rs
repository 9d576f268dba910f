//! Link service and in-flight delivery: the per-packet hot path.
//!
//! A link serializes at `rate_bps` and then propagates for `delay`.
//! Packets never ride inside scheduler events — each link keeps a FIFO
//! *in-flight ring* of the packets it is currently propagating, and the
//! scheduler carries only the small `Copy` [`Ev`] markers. The pairing is
//! sound because a link's arrival instants are non-decreasing: dequeues
//! are serialized (`done` strictly increases) and the propagation delay is
//! constant per link, so `arrive = done + delay` is monotone and the ring
//! pops in exactly the order the `Ev::Arrive` events fire — including
//! equal-instant ties, which the [`Scheduler`] contract resolves in
//! insertion (= push) order.

use std::collections::VecDeque;

use cebinae_net::{LinkId, Packet, PacketTrace, Qdisc, TraceEvent, TraceRecord};
use cebinae_faults::FaultsRt;
use cebinae_sim::{tx_time, Duration, Time};

use super::express::{self, ExpressLink};
use super::{faults, Ev, SchedDyn};

/// Per-link runtime state.
pub(crate) struct LinkRt {
    pub(crate) qdisc: Box<dyn Qdisc>,
    pub(crate) busy: bool,
    pub(crate) rate_bps: u64,
    pub(crate) delay: Duration,
    /// Packets serialized onto the wire and now propagating, in arrival
    /// order. `Ev::Arrive { link }` pops the head.
    pub(crate) inflight: VecDeque<Packet>,
}

/// A parked packet plus what to do with it when its event fires. Packets
/// held out of the scheduler (fault holdbacks, express-path handoffs)
/// live here; the event carries only the `u32` slot.
pub(crate) enum Stash {
    /// `Ev::FaultRelease`: a reorder-held packet re-enters `link`'s queue.
    Release { link: LinkId, pkt: Packet },
    /// `Ev::Express`: an express segment ended at an event-driven link;
    /// offer the packet there.
    Enqueue { link: LinkId, pkt: Packet },
    /// `Ev::Express`: an express segment ended at the destination host.
    Deliver { pkt: Packet },
}

/// Slot arena for [`Stash`] entries with a free list, so slot numbers are
/// dense, reuse is deterministic (LIFO on the free list), and the event
/// payload stays one word.
#[derive(Default)]
pub(crate) struct PacketStash {
    slots: Vec<Option<Stash>>,
    free: Vec<u32>,
}

impl PacketStash {
    pub(crate) fn put(&mut self, entry: Stash) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(entry);
                slot
            }
            None => {
                let slot = self.slots.len() as u32; // det-ok: live slots are bounded by packets in flight, far below u32::MAX
                self.slots.push(Some(entry));
                slot
            }
        }
    }

    pub(crate) fn take(&mut self, slot: u32) -> Option<Stash> {
        let entry = self.slots.get_mut(slot as usize)?.take();
        if entry.is_some() {
            self.free.push(slot);
        }
        entry
    }

    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }
}

/// Everything the per-packet path touches about links: the link array,
/// trace state, the packet stash, and the express-path overlay. This is
/// the narrow hot-path context the `world` submodules share — handlers
/// borrow it alongside (never through) the flow and control planes.
pub(crate) struct LinkPlane {
    pub(crate) links: Vec<LinkRt>,
    /// Hard qdisc buffer limit per link (bytes), indexed by `LinkId`.
    pub(crate) limits: Vec<u64>,
    /// Per-link trace flag, indexed by `LinkId` — the per-packet path does
    /// an O(1) load here instead of scanning the configured link list.
    pub(crate) traced: Vec<bool>,
    pub(crate) trace: PacketTrace,
    pub(crate) stash: PacketStash,
    /// Express-path state per link (`eligible = false` entries are inert).
    pub(crate) express: Vec<ExpressLink>,
}

/// Offer a packet to `link` (`= path[pkt.hop]`): take the express path if
/// the link is eligible, otherwise apply the link's fault model and
/// enqueue on its qdisc.
pub(crate) fn enqueue_link(
    lp: &mut LinkPlane,
    fx: &mut FaultsRt,
    ev: &mut SchedDyn,
    path: &[LinkId],
    now: Time,
    link: LinkId,
    pkt: Packet,
) {
    if lp.express[link.index()].eligible {
        express::walk(lp, ev, path, now, pkt);
        return;
    }
    offer(lp, fx, ev, now, link, pkt);
}

/// A packet reaches an event-driven link's queue for the first time: draw
/// its fate from the link's fault model, then enqueue what survives. Both
/// ways of getting here — hop by hop, or at the end of an express segment
/// — go through this, so a link's fault stream sees every arrival once.
#[inline]
pub(crate) fn offer(
    lp: &mut LinkPlane,
    fx: &mut FaultsRt,
    ev: &mut SchedDyn,
    now: Time,
    link: LinkId,
    pkt: Packet,
) {
    // An inert plan goes straight to the queue: the gate sits here, not
    // in `apply_fate`, so the common case never moves the packet through
    // the fate step.
    if !fx.any() {
        return deliver_to_qdisc(lp, fx, ev, now, link, pkt);
    }
    if let Some(pkt) = faults::apply_fate(lp, fx, ev, now, link, pkt) {
        deliver_to_qdisc(lp, fx, ev, now, link, pkt);
    }
}

/// Enqueue a packet on a link's qdisc and start transmission if idle.
pub(crate) fn deliver_to_qdisc(
    lp: &mut LinkPlane,
    fx: &mut FaultsRt,
    ev: &mut SchedDyn,
    now: Time,
    link: LinkId,
    pkt: Packet,
) {
    if lp.traced[link.index()] {
        // Record the offered packet; overwrite with the drop verdict if
        // the qdisc rejects it.
        let rec = TraceRecord::from_packet(now, link, &pkt, TraceEvent::Enqueue);
        let l = &mut lp.links[link.index()];
        match l.qdisc.enqueue(pkt, now) {
            Ok(()) => lp.trace.push(rec),
            Err((dropped, reason)) => lp.trace.push(TraceRecord::from_packet(
                now,
                link,
                &dropped,
                TraceEvent::Drop(reason),
            )),
        }
    } else {
        let l = &mut lp.links[link.index()];
        let _ = l.qdisc.enqueue(pkt, now);
    }
    kick(lp, fx, ev, now, link);
}

/// If the link is idle and has queued packets, begin serializing: push the
/// packet onto the in-flight ring and post the two `Copy` markers —
/// `TxDone` at serialization end, `Arrive` at propagation end.
pub(crate) fn kick(lp: &mut LinkPlane, fx: &FaultsRt, ev: &mut SchedDyn, now: Time, link: LinkId) {
    if fx.is_down(link) {
        return; // scripted down: backlog waits in the qdisc
    }
    let l = &mut lp.links[link.index()];
    if l.busy {
        return;
    }
    let Some(pkt) = l.qdisc.dequeue(now) else {
        return;
    };
    if lp.traced[link.index()] {
        lp.trace
            .push(TraceRecord::from_packet(now, link, &pkt, TraceEvent::Dequeue));
    }
    let l = &mut lp.links[link.index()];
    l.busy = true;
    let done = now + tx_time(pkt.size as u64, l.rate_bps);
    let arrive = done + l.delay;
    l.inflight.push_back(pkt);
    ev.post(done, Ev::TxDone { link });
    ev.post(arrive, Ev::Arrive { link });
}

/// Serialization finished: free the line and pull the next packet.
pub(crate) fn on_tx_done(
    lp: &mut LinkPlane,
    fx: &FaultsRt,
    ev: &mut SchedDyn,
    now: Time,
    link: LinkId,
) {
    lp.links[link.index()].busy = false;
    kick(lp, fx, ev, now, link);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cebinae_faults::{FaultPlan, FaultTarget, LinkFaultSpec, ReorderSpec};
    use cebinae_net::{BufferConfig, FifoQdisc, FlowId, PacketKind, DATA_FRAME_BYTES, MSS};
    use cebinae_sim::{Scheduler, SchedulerKind};

    fn pkt(flow: u32, seq: u64) -> Packet {
        Packet::data(FlowId(flow), seq, MSS, false, Time::ZERO)
    }

    fn seq_of(p: &Packet) -> u64 {
        match p.kind {
            PacketKind::Data { seq, .. } => seq,
            _ => panic!("expected data"),
        }
    }

    /// One 10 Mbps / 1 ms link with a 16-MTU FIFO and no faults.
    fn plane() -> (LinkPlane, FaultsRt, Box<dyn Scheduler<Ev> + Send>) {
        let lp = LinkPlane {
            links: vec![LinkRt {
                qdisc: Box::new(FifoQdisc::new(BufferConfig::mtus(16))),
                busy: false,
                rate_bps: 10_000_000,
                delay: Duration::from_millis(1),
                inflight: VecDeque::new(),
            }],
            limits: vec![BufferConfig::mtus(16).bytes],
            traced: vec![false],
            trace: PacketTrace::with_capacity(16),
            stash: PacketStash::default(),
            express: vec![ExpressLink::inert()],
        };
        let fx = FaultsRt::resolve(&FaultPlan::default(), 1, &[], 0);
        (lp, fx, SchedulerKind::default().build())
    }

    #[test]
    fn inflight_ring_pops_in_arrival_order() {
        let (mut lp, mut fx, mut ev) = plane();
        let link = LinkId(0);
        for i in 0..5u64 {
            enqueue_link(&mut lp, &mut fx, &mut *ev, &[link], Time::ZERO, link, pkt(0, i));
        }
        // Drain the scheduler; every Arrive must pop the matching head.
        let mut arrived = Vec::new();
        while let Some((now, e)) = ev.pop() {
            match e {
                Ev::TxDone { link } => on_tx_done(&mut lp, &fx, &mut *ev, now, link),
                Ev::Arrive { link } => {
                    let p = lp.links[link.index()].inflight.pop_front().expect("ring head");
                    arrived.push((now, seq_of(&p)));
                }
                _ => panic!("unexpected event"),
            }
        }
        assert_eq!(
            arrived.iter().map(|&(_, s)| s).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4],
            "ring order must equal event order"
        );
        // Arrival instants are non-decreasing — the ring/event pairing
        // invariant.
        assert!(arrived.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(lp.links[0].inflight.is_empty());
    }

    #[test]
    fn busy_period_serves_back_to_back() {
        let (mut lp, mut fx, mut ev) = plane();
        let link = LinkId(0);
        for i in 0..3u64 {
            enqueue_link(&mut lp, &mut fx, &mut *ev, &[link], Time::ZERO, link, pkt(0, i));
        }
        // Only the head is serializing; the rest wait in the qdisc.
        assert_eq!(lp.links[0].inflight.len(), 1);
        assert_eq!(lp.links[0].qdisc.pkt_len(), 2);
        let mut tx_dones = Vec::new();
        while let Some((now, e)) = ev.pop() {
            match e {
                Ev::TxDone { link } => {
                    tx_dones.push(now);
                    on_tx_done(&mut lp, &fx, &mut *ev, now, link);
                }
                Ev::Arrive { link } => {
                    lp.links[link.index()].inflight.pop_front().expect("ring head");
                }
                _ => panic!("unexpected event"),
            }
        }
        // Back-to-back: each serialization starts exactly when the
        // previous one ends, so TxDone instants are spaced by one frame
        // time.
        let frame = tx_time(DATA_FRAME_BYTES as u64, 10_000_000);
        assert_eq!(tx_dones.len(), 3);
        assert_eq!(tx_dones[1], tx_dones[0] + frame);
        assert_eq!(tx_dones[2], tx_dones[1] + frame);
        assert_eq!(lp.links[0].qdisc.stats().tx_pkts, 3);
    }

    #[test]
    fn fault_holdback_releases_through_stash() {
        // A plan that holds every packet back 5 ms: enqueue stashes the
        // packet and posts `FaultRelease { slot }`; firing the slot must
        // re-deliver exactly that packet, and duplication must not leak
        // stash slots.
        let (mut lp, _, mut ev) = plane();
        let link = LinkId(0);
        let plan = FaultPlan {
            links: vec![(
                FaultTarget::AllLinks,
                LinkFaultSpec {
                    reorder: Some(ReorderSpec {
                        p: 1.0,
                        min_hold: Duration::from_millis(5),
                        max_hold: Duration::from_millis(5),
                    }),
                    ..LinkFaultSpec::default()
                },
            )],
            control: Vec::new(),
        };
        let mut fx = FaultsRt::resolve(&plan, 1, &[], 7);
        enqueue_link(&mut lp, &mut fx, &mut *ev, &[link], Time::ZERO, link, pkt(0, 42));
        // Held: nothing on the qdisc yet, one stashed packet, one event.
        assert_eq!(lp.links[0].qdisc.pkt_len() + lp.links[0].inflight.len(), 0);
        assert_eq!(lp.stash.live(), 1);
        let (now, e) = ev.pop().expect("release event");
        assert_eq!(now, Time::ZERO + Duration::from_millis(5));
        let Ev::FaultRelease { slot } = e else {
            panic!("expected FaultRelease")
        };
        faults::on_release(&mut lp, &mut fx, &mut *ev, now, slot);
        assert_eq!(lp.stash.live(), 0, "slot freed on release");
        // The packet is now serializing (ring head), with its TxDone and
        // Arrive markers posted.
        assert_eq!(lp.links[0].inflight.len(), 1);
        assert_eq!(seq_of(&lp.links[0].inflight[0]), 42);
        assert_eq!(ev.len(), 2);
    }
}
