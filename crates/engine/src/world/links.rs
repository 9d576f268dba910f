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
use cebinae_sim::{tx_time, Duration, Scheduler, Time};

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

// A slot is a packet, its link and the tag, stored unpadded: 80 bytes.
const _: () = assert!(std::mem::size_of::<Option<Stash>>() == 80, "stash slot left 80 bytes");

/// Slot arena for [`Stash`] entries, so the event payload stays one word.
/// `put` hands out the *lowest* free slot: live entries stay packed at the
/// front of the arena however far a start-up burst grew it, where a LIFO
/// free list would spread reuse over every slot the burst ever touched.
/// Slot numbers never reach the event order (the scheduler breaks ties by
/// insertion), so the policy is invisible to the simulation.
///
/// Because live entries stay packed, the arena also gives a burst back:
/// freeing the top slot pops every free slot above the highest live one,
/// and once that leaves the buffer three-quarters empty the live prefix
/// moves into a fresh one of twice its length. A trimmed slot was above
/// every free slot that survives it, so `put` hands out the same slot
/// sequence as an arena that never shrinks.
#[derive(Default)]
pub(crate) struct PacketStash {
    slots: Vec<Option<Stash>>,
    /// Bit `s % 64` of `free[s / 64]` is set iff slot `s` is free. Holds
    /// `slots.len().div_ceil(64)` words, so no bit is set at or past the
    /// top slot.
    free: Vec<u64>,
    /// Bit `w % 64` of `summary[w / 64]` is set iff `free[w] != 0`.
    summary: Vec<u64>,
}

/// The smallest slot buffer [`PacketStash`] moves to a fresh one: below
/// it, the buffer is too small for the copy to pay.
const STASH_SHRINK_FLOOR: usize = 4096;

impl PacketStash {
    pub(crate) fn put(&mut self, entry: Stash) -> u32 {
        let s = match self.lowest_free() {
            Some(s) => {
                let w = s / 64;
                self.free[w] &= !(1 << (s % 64));
                if self.free[w] == 0 {
                    self.summary[w / 64] &= !(1 << (w % 64));
                }
                self.slots[s] = Some(entry);
                s
            }
            None => {
                let s = self.slots.len();
                self.slots.push(Some(entry));
                if s.is_multiple_of(64) {
                    self.free.push(0);
                    if s.is_multiple_of(64 * 64) {
                        self.summary.push(0);
                    }
                }
                s
            }
        };
        u32::try_from(s).expect("live stash entries are bounded by packets in flight")
    }

    pub(crate) fn take(&mut self, slot: u32) -> Option<Stash> {
        let s = slot as usize;
        let entry = self.slots.get_mut(s)?.take();
        if entry.is_some() {
            if s + 1 == self.slots.len() {
                self.trim();
            } else {
                self.free[s / 64] |= 1 << (s % 64);
                self.summary[s / (64 * 64)] |= 1 << (s / 64 % 64);
            }
        }
        entry
    }

    /// The top slot was just emptied: pop it and every free slot below it
    /// down to the highest live one, drop their bits, and move a buffer
    /// left three-quarters empty into a fresh one. A few percent of
    /// `take`s land here, so it stays out of `take`'s inlined body.
    #[cold]
    fn trim(&mut self) {
        while let Some(None) = self.slots.last() {
            self.slots.pop();
        }
        let len = self.slots.len();
        let words = len.div_ceil(64);
        self.free.truncate(words);
        self.summary.truncate(words.div_ceil(64));
        if let Some(last) = self.free.last_mut() {
            if !len.is_multiple_of(64) {
                *last &= (1 << (len % 64)) - 1;
            }
            let w = words - 1;
            let top = self.summary.last_mut().expect("a free word has a summary word");
            // Keep the bits of the words below `w`; `w`'s own follows its
            // word.
            *top &= (1 << (w % 64)) - 1;
            if *last != 0 {
                *top |= 1 << (w % 64);
            }
        }
        let cap = self.slots.capacity();
        if cap >= STASH_SHRINK_FLOOR && len < cap / 4 {
            // A fresh buffer, not `shrink_to`, which read slower (DESIGN
            // §4c, *Tried and left out*).
            let mut fresh = Vec::with_capacity(2 * len);
            fresh.append(&mut self.slots);
            self.slots = fresh;
        }
    }

    fn lowest_free(&self) -> Option<usize> {
        let (sw, bits) = self.summary.iter().enumerate().find(|&(_, &b)| b != 0)?;
        let w = sw * 64 + bits.trailing_zeros() as usize;
        Some(w * 64 + self.free[w].trailing_zeros() as usize)
    }

    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Live entries as (fault holdbacks, express handoffs).
    #[cfg(test)]
    pub(crate) fn census(&self) -> (usize, usize) {
        let held = self.slots.iter().filter(|s| matches!(s, Some(Stash::Release { .. }))).count();
        (held, self.live() - held)
    }

    /// Both bitmaps describe exactly the free slots below the top: a
    /// `free` bit on each `None` slot, a `summary` bit on each nonzero
    /// `free` word, and no bit at or past the top slot.
    #[cfg(test)]
    fn assert_consistent(&self) {
        let len = self.slots.len();
        assert_eq!(self.free.len(), len.div_ceil(64), "free words for {len} slots");
        assert_eq!(self.summary.len(), len.div_ceil(64 * 64), "summary words for {len} slots");
        assert!(len == 0 || self.slots[len - 1].is_some(), "the top slot is live");
        for (w, &word) in self.free.iter().enumerate() {
            for b in 0..64 {
                let s = w * 64 + b;
                let free = s < len && self.slots[s].is_none();
                assert_eq!(word >> b & 1 == 1, free, "free bit of slot {s}");
            }
        }
        for (sw, &word) in self.summary.iter().enumerate() {
            for b in 0..64 {
                let w = sw * 64 + b;
                let nonzero = w < self.free.len() && self.free[w] != 0;
                assert_eq!(word >> b & 1 == 1, nonzero, "summary bit of word {w}");
            }
        }
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
    /// Per-link express eligibility, indexed by `LinkId` (see [`express`]).
    pub(crate) express_on: Vec<bool>,
    /// Express-path state per link; used only where `express_on` is set.
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
    if lp.express_on[link.index()] {
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
    use cebinae_faults::{FaultPlan, LinkFaultSpec, ReorderSpec};
    use cebinae_net::{BufferConfig, FifoQdisc, FlowId, PacketKind, DATA_FRAME_BYTES, MSS};
    use cebinae_sim::SchedulerKind;

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
    fn plane() -> (LinkPlane, FaultsRt, SchedDyn) {
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
            express_on: vec![false],
            express: vec![ExpressLink::new(
                10_000_000,
                Duration::from_millis(1),
                BufferConfig::mtus(16).bytes,
            )],
        };
        let fx = FaultsRt::resolve(&FaultPlan::default(), 1, &[], 0);
        (lp, fx, SchedulerKind::default().backend())
    }

    #[test]
    fn inflight_ring_pops_in_arrival_order() {
        let (mut lp, mut fx, mut ev) = plane();
        let link = LinkId(0);
        for i in 0..5u64 {
            enqueue_link(&mut lp, &mut fx, &mut ev, &[link], Time::ZERO, link, pkt(0, i));
        }
        // Drain the scheduler; every Arrive must pop the matching head.
        let mut arrived = Vec::new();
        while let Some((now, e)) = ev.pop() {
            match e {
                Ev::TxDone { link } => on_tx_done(&mut lp, &fx, &mut ev, now, link),
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
            enqueue_link(&mut lp, &mut fx, &mut ev, &[link], Time::ZERO, link, pkt(0, i));
        }
        // Only the head is serializing; the rest wait in the qdisc.
        assert_eq!(lp.links[0].inflight.len(), 1);
        assert_eq!(lp.links[0].qdisc.pkt_len(), 2);
        let mut tx_dones = Vec::new();
        while let Some((now, e)) = ev.pop() {
            match e {
                Ev::TxDone { link } => {
                    tx_dones.push(now);
                    on_tx_done(&mut lp, &fx, &mut ev, now, link);
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
            link: LinkFaultSpec {
                reorder: Some(ReorderSpec {
                    p: 1.0,
                    min_hold: Duration::from_millis(5),
                    max_hold: Duration::from_millis(5),
                }),
                ..LinkFaultSpec::default()
            },
            ..FaultPlan::default()
        };
        let mut fx = FaultsRt::resolve(&plan, 1, &[link], 7);
        enqueue_link(&mut lp, &mut fx, &mut ev, &[link], Time::ZERO, link, pkt(0, 42));
        // Held: nothing on the qdisc yet, one stashed packet, one event.
        assert_eq!(lp.links[0].qdisc.pkt_len() + lp.links[0].inflight.len(), 0);
        assert_eq!(lp.stash.live(), 1);
        let (now, e) = ev.pop().expect("release event");
        assert_eq!(now, Time::ZERO + Duration::from_millis(5));
        let Ev::FaultRelease { slot } = e else {
            panic!("expected FaultRelease")
        };
        faults::on_release(&mut lp, &mut fx, &mut ev, now, slot);
        assert_eq!(lp.stash.live(), 0, "slot freed on release");
        // The packet is now serializing (ring head), with its TxDone and
        // Arrive markers posted.
        assert_eq!(lp.links[0].inflight.len(), 1);
        assert_eq!(seq_of(&lp.links[0].inflight[0]), 42);
        assert_eq!(ev.len(), 2);
    }

    /// A stash driven beside a `BTreeSet` of its free slots and a record
    /// of what each live slot holds.
    struct StashRef {
        stash: PacketStash,
        free: std::collections::BTreeSet<u32>,
        /// slot -> seq of the packet parked there
        held: Vec<Option<u64>>,
        live: usize,
        seq: u64,
        ops: u64,
    }

    impl StashRef {
        /// Every 97 operations, check the stash's bitmaps in full.
        fn tick(&mut self) {
            self.ops += 1;
            if self.ops.is_multiple_of(97) {
                self.stash.assert_consistent();
            }
        }

        fn put(&mut self) -> u32 {
            self.tick();
            self.seq += 1;
            let slot = self.stash.put(Stash::Deliver { pkt: pkt(0, self.seq) });
            let want = self.free.pop_first().unwrap_or(self.held.len() as u32);
            assert_eq!(slot, want, "put must return the lowest free slot");
            if slot as usize == self.held.len() {
                self.held.push(None);
            }
            self.held[slot as usize] = Some(self.seq);
            self.live += 1;
            slot
        }

        fn take(&mut self, slot: u32) {
            self.tick();
            let Some(Stash::Deliver { pkt }) = self.stash.take(slot) else {
                panic!("slot {slot} lost its entry")
            };
            assert_eq!(Some(seq_of(&pkt)), self.held[slot as usize].take(), "entry intact");
            assert!(self.stash.take(slot).is_none(), "a taken slot is empty");
            self.free.insert(slot);
            self.live -= 1;
        }

        fn take_any(&mut self, rng: &mut cebinae_sim::rng::DetRng) {
            loop {
                let s = rng.gen_range_usize(0, self.held.len());
                if self.held[s].is_some() {
                    return self.take(s as u32);
                }
            }
        }
    }

    /// `put` hands out the lowest free slot (or appends), checked against
    /// a `BTreeSet` of free slots, and both bitmaps stay exact as the top
    /// is trimmed; then a start-up-sized burst, whose drain gives its
    /// buffer back, and a bounded steady mix, after which every slot
    /// handed out sits below the steady state's peak live count and the
    /// buffer holds at most twice that count.
    #[test]
    fn stash_hands_out_the_lowest_free_slot() {
        let mut r = StashRef {
            stash: PacketStash::default(),
            free: Default::default(),
            held: Vec::new(),
            live: 0,
            seq: 0,
            ops: 0,
        };
        let mut rng = cebinae_sim::rng::DetRng::seed_from_u64(0x57a5);
        for op in 0..20_000 {
            if r.live == 0 || rng.gen_bool(0.55) {
                r.put();
            } else {
                r.take_any(&mut rng);
            }
            if op % 97 == 0 {
                assert_eq!(r.stash.live(), r.live);
            }
        }
        while r.live > 0 {
            r.take_any(&mut rng);
        }
        // A 40 960-entry burst (an IW10 start at 4096 flows), drained in
        // seeded order.
        for _ in 0..40_960 {
            r.put();
        }
        assert_eq!(r.stash.live(), 40_960);
        while r.live > 0 {
            r.take_any(&mut rng);
        }
        assert_eq!(r.stash.live(), 0);
        r.stash.assert_consistent();
        let cap = r.stash.slots.capacity();
        assert!(cap < STASH_SHRINK_FLOOR, "the drained burst kept {cap} slots");
        // Steady state with at most 5 000 live entries.
        let (mut peak, mut high_slot) = (0, 0);
        for op in 0..50_000 {
            if r.live < 5_000 && (r.live == 0 || rng.gen_bool(0.5)) {
                high_slot = high_slot.max(r.put());
                peak = peak.max(r.live);
            } else {
                r.take_any(&mut rng);
            }
            if op % 997 == 0 {
                assert_eq!(r.stash.live(), r.live);
            }
        }
        assert!((high_slot as usize) < peak, "slot {high_slot} handed out with at most {peak} live");
        assert_eq!(r.stash.live(), r.live);
        r.stash.assert_consistent();
        let cap = r.stash.slots.capacity();
        assert!(cap <= 2 * peak, "{cap} slots kept for at most {peak} live");
    }
}
