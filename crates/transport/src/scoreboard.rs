//! The sender's SACK scoreboard: every unacknowledged segment, what is
//! believed about it (in flight / selectively acknowledged / lost), and the
//! byte counters RFC 6675's pipe is computed from.
//!
//! Every per-ACK operation costs O(segments whose state changes) plus
//! O(log) lookups — never O(flight) or O(holes) — and each shortcut is
//! exact, not approximate:
//!
//! * **Dense ring.** Unacknowledged segments are contiguous in sequence
//!   space and MSS-sized except possibly the newest (asserted on `push`),
//!   so they sit in a [`BlockDeque`] and a sequence number maps to an
//!   index by arithmetic. A cumulative ACK pops the front; an RTO clears
//!   the ring. The ring parks one freed block and reuses it before
//!   allocating, so a sliding window does not allocate at all.
//! * **Loss-mark cursor.** A never-retransmitted segment is marked lost
//!   the first time `high_sacked` passes it, and nothing behind that point
//!   can become never-retransmitted-and-in-flight again (`Sacked` is
//!   final, `retx` is never unset, new segments are appended ahead), so a
//!   cursor examines each segment once in its lifetime.
//! * **Retransmission age queue.** Retransmitted segments are re-marked
//!   lost once a reordering window has passed since they left. They leave
//!   in time order, so a FIFO of them is sorted by age and the ones to
//!   re-mark are a prefix of it under whatever window the current ACK uses.
//! * **Lost index.** A sorted deque of the `Lost` segments' sequence
//!   numbers answers "lowest lost segment" without walking SACKed runs.
//!   Segments are mostly marked in ascending order (appended) and
//!   retransmitted lowest first (popped from the front); a SACK, a
//!   cumulative ACK or an age re-mark inserts or removes by binary search.
//! * **SACKed-run hints.** A `Sacked` entry remembers how many `Sacked`
//!   entries are known to follow it, so re-applying a block the receiver
//!   repeats on every ACK jumps its run in one step. Entries only leave at
//!   the front (or all at once), so an offset between two entries that are
//!   both still in the ring never changes.

use std::collections::VecDeque;

use cebinae_ds::BlockDeque;
use cebinae_sim::{Duration, Time};

use crate::range_set::RangeSet;

/// Where an unacknowledged segment currently stands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SegState {
    /// Presumed in the network.
    InFlight,
    /// Selectively acknowledged: received, awaiting cumulative ACK.
    Sacked,
    /// Presumed lost; not yet retransmitted.
    Lost,
}

/// Sender state captured each time a segment leaves, for the delivery-rate
/// sample its acknowledgement will produce.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SendStamp {
    /// `delivered` counter and its timestamp when this transmission left.
    pub(crate) delivered: u64,
    pub(crate) delivered_time: Time,
    /// When this (re)transmission left.
    pub(crate) sent_at: Time,
    /// Snapshot of the flight's first-send time (Linux `first_tx_mstamp`):
    /// the send-side interval of a rate sample, guarding against
    /// ack-compression inflating delivery-rate estimates.
    pub(crate) first_sent_at: Time,
}

/// Metadata retained per unacknowledged segment. Neither the sequence
/// number nor the length is stored: both follow from the ring position.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SegMeta {
    /// While `Sacked`: this many entries from here on (itself included)
    /// are known to be `Sacked`. A lower bound; 1 when nothing is known.
    sacked_run: u32,
    pub(crate) retx: bool,
    state: SegState,
    pub(crate) app_limited: bool,
    pub(crate) stamp: SendStamp,
}

// The ring holds a flight's worth of these (11 586 on Table 2 row 14),
// each in an `Option` slot that must cost nothing extra.
const _: () = assert!(std::mem::size_of::<SegMeta>() <= 40);
const _: () = assert!(std::mem::size_of::<Option<SegMeta>>() <= std::mem::size_of::<SegMeta>());

/// Segments per scoreboard block (160 bytes). Small on purpose: 4096
/// flows with two-segment windows hold a block or two each, and at 8 per
/// block they cost 2% of that run's peak memory more than the B-tree
/// leaves this replaced; per-ACK time is the same at 4, 8 and 16.
const BLOCK: usize = 4;

/// The scoreboard proper. See the module docs for the design.
#[derive(Debug)]
pub(crate) struct Scoreboard {
    mss: u32,
    /// Unacknowledged segments in sequence order, contiguous from
    /// `front_seq`; all `mss` long except the back, which is `tail_len`.
    ring: BlockDeque<SegMeta, BLOCK>,
    front_seq: u64,
    tail_len: u32,
    /// Total bytes in the ring (all states), and those Sacked / Lost.
    flight_bytes: u64,
    sacked_bytes: u64,
    lost_bytes: u64,
    /// Highest sequence selectively acknowledged.
    high_sacked: u64,
    /// Byte ranges above `snd_una` already counted as delivered (via
    /// SACK); survives `clear` so nothing is counted twice.
    delivered_counted: RangeSet,
    /// Start of the first segment the loss-marking pass has not yet found
    /// wholly below `high_sacked`.
    mark_cursor: u64,
    /// `(seq, sent_at)` of every retransmission, oldest first.
    /// An entry is stale once its segment is gone, no longer in flight, or
    /// has left again since (`sent_at` differs).
    retx_age: VecDeque<(u64, Time)>,
    /// Start sequence of every `Lost` segment, ascending.
    lost: VecDeque<u64>,
}

impl Scoreboard {
    /// An empty scoreboard; allocates nothing until data is sent.
    pub(crate) fn new(mss: u32) -> Scoreboard {
        Scoreboard {
            mss,
            ring: BlockDeque::default(),
            front_seq: 0,
            tail_len: 0,
            flight_bytes: 0,
            sacked_bytes: 0,
            lost_bytes: 0,
            high_sacked: 0,
            delivered_counted: RangeSet::default(),
            mark_cursor: 0,
            retx_age: VecDeque::new(),
            lost: VecDeque::new(),
        }
    }

    /// Unacknowledged bytes, whatever their state.
    pub(crate) fn flight(&self) -> u64 {
        self.flight_bytes
    }

    pub(crate) fn sacked_bytes(&self) -> u64 {
        self.sacked_bytes
    }

    pub(crate) fn lost_bytes(&self) -> u64 {
        self.lost_bytes
    }

    /// Bytes believed to actually be in the network.
    pub(crate) fn pipe(&self) -> u64 {
        self.flight_bytes - self.sacked_bytes - self.lost_bytes
    }

    // ----- ring arithmetic -----

    fn len_at(&self, i: usize) -> u32 {
        if i + 1 == self.ring.len() {
            self.tail_len
        } else {
            self.mss
        }
    }

    /// Start sequence and length of the segment at `i`.
    fn span(&self, i: usize) -> (u64, u64) {
        (self.front_seq + i as u64 * u64::from(self.mss), u64::from(self.len_at(i)))
    }

    /// One past the last unacknowledged byte.
    fn end_seq(&self) -> u64 {
        match self.ring.len() {
            0 => self.front_seq,
            n => self.span(n - 1).0 + u64::from(self.tail_len),
        }
    }

    /// Index of the first segment starting at or after `seq`
    /// (`ring.len()` if there is none).
    fn index_at_or_after(&self, seq: u64) -> usize {
        let segs = seq.saturating_sub(self.front_seq).div_ceil(u64::from(self.mss));
        usize::try_from(segs).map_or(self.ring.len(), |i| i.min(self.ring.len()))
    }

    /// Index of the segment starting exactly at `seq`.
    fn index_of(&self, seq: u64) -> Option<usize> {
        let i = self.index_at_or_after(seq);
        (i < self.ring.len() && self.span(i).0 == seq).then_some(i)
    }

    /// Move the in-flight segment at `i` to `Lost`; returns its length.
    fn mark_lost(&mut self, i: usize) -> u64 {
        let (seq, len) = self.span(i);
        debug_assert_eq!(self.ring[i].state, SegState::InFlight);
        self.ring[i].state = SegState::Lost;
        self.lost_bytes += len;
        if self.lost.back().is_none_or(|&last| last < seq) {
            self.lost.push_back(seq);
        } else {
            let at = self.lost.partition_point(|&s| s < seq);
            self.lost.insert(at, seq);
        }
        len
    }

    /// Account for the `Lost` segment `[seq, seq + len)` leaving that state.
    fn unmark_lost(&mut self, seq: u64, len: u64) {
        self.lost_bytes -= len;
        if self.lost.front() == Some(&seq) {
            self.lost.pop_front();
        } else if let Ok(at) = self.lost.binary_search(&seq) {
            self.lost.remove(at);
        }
    }

    // ----- transmissions -----

    /// Append a first transmission of `[seq, seq + len)`.
    pub(crate) fn push(&mut self, seq: u64, len: u32, stamp: SendStamp, app_limited: bool) {
        if self.ring.is_empty() {
            self.front_seq = seq;
        } else {
            assert!(
                seq == self.end_seq() && self.tail_len == self.mss,
                "segments are contiguous and only the newest may be short"
            );
        }
        assert!(0 < len && len <= self.mss, "segment length within (0, mss]");
        self.tail_len = len;
        self.flight_bytes += u64::from(len);
        self.ring.push_back(SegMeta {
            sacked_run: 1,
            retx: false,
            state: SegState::InFlight,
            app_limited,
            stamp,
        });
    }

    /// Lowest `Lost` segment below `max(high_sacked, snd_una + 1)`: the
    /// next retransmission.
    pub(crate) fn next_lost(&self, snd_una: u64) -> Option<u64> {
        let below = self.high_sacked.max(snd_una + 1);
        self.lost.front().copied().filter(|&seq| seq < below)
    }

    /// Retransmit the `Lost` segment at `seq`: back in flight under a fresh
    /// stamp, and queued for age-based re-marking. Returns its length.
    pub(crate) fn retransmit(&mut self, seq: u64, stamp: SendStamp) -> u32 {
        let i = self.index_of(seq).expect("lost segment is in the ring");
        let len = self.len_at(i);
        let seg = &mut self.ring[i];
        debug_assert_eq!(seg.state, SegState::Lost, "only lost segments are retransmitted");
        seg.state = SegState::InFlight;
        seg.retx = true;
        seg.stamp = stamp;
        self.unmark_lost(seq, u64::from(len));
        self.retx_age.push_back((seq, stamp.sent_at));
        len
    }

    /// Mark the in-flight segment starting exactly at `seq` lost without
    /// SACK evidence (the dup-ACK-triggered front segment).
    pub(crate) fn mark_lost_at(&mut self, seq: u64) {
        if let Some(i) = self.index_of(seq).filter(|&i| self.ring[i].state == SegState::InFlight) {
            self.mark_lost(i);
        }
    }

    // ----- acknowledgements -----

    /// Cumulative ACK moving `snd_una` to `ack_seq`: drop the segments it
    /// covers whole. Returns the bytes newly delivered (those not already
    /// counted at SACK time) and the newest segment dropped.
    pub(crate) fn cum_ack(&mut self, snd_una: u64, ack_seq: u64) -> (u64, Option<SegMeta>) {
        let mut newest = None;
        while !self.ring.is_empty() {
            let (seg, (seq, len)) = (self.ring[0], self.span(0));
            if seq + len > ack_seq {
                break;
            }
            self.ring.pop_front();
            self.front_seq += len;
            self.flight_bytes -= len;
            match seg.state {
                SegState::Sacked => self.sacked_bytes -= len,
                SegState::Lost => self.unmark_lost(seq, len),
                SegState::InFlight => {}
            }
            newest = Some(seg);
        }
        let already = self.delivered_counted.overlap(snd_una, ack_seq);
        self.delivered_counted.prune(ack_seq);
        ((ack_seq - snd_una) - already, newest)
    }

    /// Apply an ACK's SACK blocks, then reclassify unsacked segments below
    /// `high_sacked` as lost (RFC 6675's IsLost, with the dup-threshold
    /// folded into the highest-sacked heuristic): never-retransmitted ones
    /// at once, retransmitted ones RACK-style once `reo_wnd` has elapsed
    /// since the retransmission — without that, a front hole whose
    /// retransmission is also dropped can only be recovered by an RTO.
    /// Returns the bytes newly delivered and the bytes newly marked lost.
    pub(crate) fn apply_sack(
        &mut self,
        sack: impl IntoIterator<Item = (u64, u64)>,
        snd_una: u64,
        now: Time,
        reo_wnd: Duration,
    ) -> (u64, u64) {
        let mut newly_delivered = 0;
        for (start, end) in sack {
            if end <= snd_una {
                continue;
            }
            newly_delivered += self.sack_block(start, end);
            self.high_sacked = self.high_sacked.max(end);
        }
        let newly_lost = self.mark_passed() + self.mark_aged(now, reo_wnd);
        (newly_delivered, newly_lost)
    }

    /// Mark every segment wholly inside `[start, end)` `Sacked`, in
    /// ascending order; returns the bytes newly counted as delivered
    /// (Linux `tp->delivered` semantics: SACKed data is delivered, but
    /// each byte only the first time it is ever seen).
    fn sack_block(&mut self, start: u64, end: u64) -> u64 {
        let first = self.index_at_or_after(start);
        let mut newly_delivered = 0;
        let mut i = first;
        while i < self.ring.len() {
            let (seq, len) = self.span(i);
            if seq + len > end {
                break;
            }
            match self.ring[i].state {
                SegState::Sacked => {
                    i += self.ring[i].sacked_run as usize;
                    continue;
                }
                SegState::Lost => self.unmark_lost(seq, len),
                SegState::InFlight => {}
            }
            self.ring[i].state = SegState::Sacked;
            self.ring[i].sacked_run = 1;
            self.sacked_bytes += len;
            newly_delivered += self.delivered_counted.insert(seq, seq + len);
            i += 1;
        }
        if i > first {
            // Everything in `first..i` is Sacked now; a hint that saturates
            // is still a lower bound.
            self.ring[first].sacked_run = u32::try_from(i - first).unwrap_or(u32::MAX);
        }
        newly_delivered
    }

    /// Advance the loss-mark cursor over every segment now wholly below
    /// `high_sacked`, marking the never-retransmitted in-flight ones lost.
    /// Returns the bytes marked.
    fn mark_passed(&mut self) -> u64 {
        let mut newly_lost = 0;
        let mut i = self.index_at_or_after(self.mark_cursor);
        while i < self.ring.len() {
            let (seq, len) = self.span(i);
            if seq + len > self.high_sacked {
                break;
            }
            let seg = &self.ring[i];
            if seg.state == SegState::InFlight && !seg.retx {
                newly_lost += self.mark_lost(i);
            }
            i += 1;
        }
        self.mark_cursor = if i < self.ring.len() { self.span(i).0 } else { self.end_seq() };
        newly_lost
    }

    /// Re-mark lost every retransmitted in-flight segment wholly below
    /// `high_sacked` that left more than `reo_wnd` ago. Returns the bytes
    /// marked.
    fn mark_aged(&mut self, now: Time, reo_wnd: Duration) -> u64 {
        let mut newly_lost = 0;
        // Old enough but not yet below `high_sacked`: only a front segment
        // marked lost without SACK evidence can be, so at most a handful;
        // they keep their place at the head of the queue.
        let mut not_passed = Vec::new();
        while let Some(&(seq, sent_at)) = self.retx_age.front() {
            let live = self.index_of(seq).filter(|&i| {
                let seg = &self.ring[i];
                seg.state == SegState::InFlight && seg.retx && seg.stamp.sent_at == sent_at
            });
            if let Some(i) = live {
                if now.saturating_since(sent_at) <= reo_wnd {
                    // Everything behind left later still.
                    break;
                }
                if seq + self.span(i).1 <= self.high_sacked {
                    newly_lost += self.mark_lost(i);
                } else {
                    not_passed.push((seq, sent_at));
                }
            }
            self.retx_age.pop_front();
        }
        for entry in not_passed.into_iter().rev() {
            self.retx_age.push_front(entry);
        }
        newly_lost
    }

    /// Go-back-N: forget every segment. Only the delivered-byte ranges
    /// survive.
    pub(crate) fn clear(&mut self, snd_una: u64) {
        self.ring.clear();
        self.lost.clear();
        self.retx_age.clear();
        self.front_seq = snd_una;
        self.flight_bytes = 0;
        self.sacked_bytes = 0;
        self.lost_bytes = 0;
        self.high_sacked = snd_una;
        self.mark_cursor = snd_una;
    }
}

#[cfg(test)]
impl Scoreboard {
    /// Everything the counters, the lost index, the age queue, the cursor
    /// and the run hints claim, recomputed from the ring by brute force.
    pub(crate) fn check_invariants(&self) {
        let segs: Vec<(u64, u64, SegMeta)> = (0..self.ring.len())
            .map(|i| (self.span(i).0, self.span(i).1, self.ring[i]))
            .collect();
        let bytes = |state| -> u64 {
            segs.iter().filter(|(_, _, m)| m.state == state).map(|(_, len, _)| len).sum()
        };
        assert_eq!(self.flight_bytes, segs.iter().map(|(_, len, _)| len).sum::<u64>());
        assert_eq!(self.sacked_bytes, bytes(SegState::Sacked));
        assert_eq!(self.lost_bytes, bytes(SegState::Lost));
        assert!(self.pipe() <= self.flight());
        assert_eq!(segs.last().map_or(self.front_seq, |(seq, len, _)| seq + len), self.end_seq());

        assert!(
            self.lost.iter().zip(self.lost.iter().skip(1)).all(|(a, b)| a < b),
            "lost index is strictly increasing: {:?}",
            self.lost
        );
        let lost: Vec<u64> =
            segs.iter().filter(|(_, _, m)| m.state == SegState::Lost).map(|(seq, ..)| *seq).collect();
        assert!(self.lost.iter().eq(&lost), "lost index = the Lost segments");

        assert!(
            self.retx_age.iter().zip(self.retx_age.iter().skip(1)).all(|(a, b)| a.1 <= b.1),
            "age queue is sorted by send time"
        );
        for (i, (seq, _, m)) in segs.iter().enumerate() {
            if m.state == SegState::InFlight && m.retx {
                assert!(
                    self.retx_age.contains(&(*seq, m.stamp.sent_at)),
                    "retransmitted in-flight segment {seq} is queued for ageing"
                );
            }
            if m.state == SegState::InFlight && !m.retx {
                assert!(*seq >= self.mark_cursor, "cursor passed in-flight segment {seq}");
            }
            if m.state == SegState::Sacked {
                let run = m.sacked_run as usize;
                assert!(run >= 1 && i + run <= segs.len(), "run hint stays inside the ring");
                assert!(segs[i..i + run].iter().all(|(_, _, m)| m.state == SegState::Sacked));
            }
        }
        assert!(self.mark_cursor <= self.end_seq());
    }

    pub(crate) fn is_sacked(&self, seq: u64) -> bool {
        self.index_of(seq).is_some_and(|i| self.ring[i].state == SegState::Sacked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cebinae_sim::rng::DetRng;
    use std::collections::BTreeSet;

    const M: u64 = 100;

    fn stamp(ms: u64) -> SendStamp {
        SendStamp {
            delivered: 0,
            delivered_time: Time::ZERO,
            sent_at: Time::from_millis(ms),
            first_sent_at: Time::ZERO,
        }
    }

    /// `n` full segments from sequence 0, sent at t = 0.
    fn board(n: u64) -> Scoreboard {
        let mut sb = Scoreboard::new(100);
        for i in 0..n {
            sb.push(i * M, 100, stamp(0), false);
        }
        sb
    }

    /// One letter per segment: `f`light, `s`acked, `l`ost; upper case once
    /// retransmitted.
    fn states(sb: &Scoreboard) -> String {
        (0..sb.ring.len())
            .map(|i| {
                let c = match sb.ring[i].state {
                    SegState::InFlight => 'f',
                    SegState::Sacked => 's',
                    SegState::Lost => 'l',
                };
                if sb.ring[i].retx { c.to_ascii_uppercase() } else { c }
            })
            .collect()
    }

    fn sack(sb: &mut Scoreboard, block: (u64, u64), snd_una: u64, now_ms: u64, reo_ms: u64) -> (u64, u64) {
        let out = sb.apply_sack([block], snd_una, Time::from_millis(now_ms), Duration::from_millis(reo_ms));
        sb.check_invariants();
        out
    }

    #[test]
    fn cursor_waits_at_a_segment_straddling_high_sacked() {
        let mut sb = board(8);
        // [150, 450): segments 2 and 3 whole; 1 and 4 only in part.
        assert_eq!(sack(&mut sb, (150, 450), 0, 10, 5), (200, 200));
        assert_eq!(states(&sb), "llssffff", "segment 4 straddles high_sacked = 450");
        assert_eq!(sb.mark_cursor, 400);
        // The same block again changes nothing.
        assert_eq!(sack(&mut sb, (150, 450), 0, 11, 5), (0, 0));
        // Once passed, segment 4 is marked, once.
        assert_eq!(sack(&mut sb, (500, 600), 0, 12, 5), (100, 100));
        assert_eq!(states(&sb), "llsslsff");
        assert_eq!(sack(&mut sb, (500, 600), 0, 13, 5), (0, 0));
        assert_eq!(sb.next_lost(0), Some(0));
    }

    #[test]
    fn aged_retransmissions_are_a_prefix_whatever_the_window() {
        let mut sb = board(6);
        sack(&mut sb, (400, 500), 0, 1, 50);
        assert_eq!(states(&sb), "llllsf");
        // Retransmit 0 at t=10, 100 at t=20, 200 at t=30.
        for (seq, at) in [(0, 10), (100, 20), (200, 30)] {
            assert_eq!(sb.next_lost(0), Some(seq));
            sb.retransmit(seq, stamp(at));
        }
        assert_eq!(states(&sb), "FFFlsf");
        // t=45, window 30: only the first is old enough.
        assert_eq!(sack(&mut sb, (400, 500), 0, 45, 30).1, 100);
        assert_eq!(states(&sb), "LFFlsf");
        // srtt rose: at t=55 a 40 ms window still spares the second...
        assert_eq!(sack(&mut sb, (400, 500), 0, 55, 40).1, 0);
        // ...and at t=75 takes it and the third together.
        assert_eq!(sack(&mut sb, (400, 500), 0, 75, 40).1, 200);
        assert_eq!(states(&sb), "LLLlsf");
        // A re-retransmission makes the old queue entry stale, not a match.
        sb.retransmit(0, stamp(80));
        assert_eq!(sack(&mut sb, (400, 500), 0, 100, 40).1, 0);
        assert_eq!(sack(&mut sb, (400, 500), 0, 121, 40).1, 100);
    }

    #[test]
    fn front_segment_marked_above_high_sacked_does_not_block_the_queue() {
        // snd_una = 300 with segments 0..3 still in the ring (an ACK
        // overtook the post-RTO snd_nxt), and a block ending inside the
        // segment at snd_una: high_sacked = 350 passes only what is below.
        let mut sb = board(6);
        assert_eq!(sack(&mut sb, (200, 350), 300, 1, 50), (100, 200));
        assert_eq!(states(&sb), "llsfff");
        sb.retransmit(0, stamp(5));
        sb.retransmit(100, stamp(5));
        // Three dup-ACKs with nothing left marked lost: the sender marks
        // the segment at snd_una, SACK evidence or not, and resends it.
        sb.mark_lost_at(300);
        sb.retransmit(300, stamp(10));
        assert_eq!(sack(&mut sb, (200, 350), 300, 70, 50).1, 200);
        assert_eq!(states(&sb), "LLsFff", "300 is old enough but not below high_sacked");
        sb.retransmit(0, stamp(80));
        // 300 stays queued ahead of the younger entry for 0 and must not
        // hide it.
        assert_eq!(sack(&mut sb, (200, 350), 300, 140, 50).1, 100);
        assert_eq!(states(&sb), "LLsFff");
        // When SACKs pass it, it is re-marked like any other.
        assert_eq!(sack(&mut sb, (500, 600), 300, 141, 50), (100, 200));
        assert_eq!(states(&sb), "LLsLls");
    }

    #[test]
    fn rto_clears_everything_but_the_delivered_ranges() {
        let mut sb = board(8);
        assert_eq!(sack(&mut sb, (300, 600), 0, 1, 50), (300, 300));
        sb.retransmit(0, stamp(2));
        assert_eq!(states(&sb), "Fllsssff");
        sb.clear(0);
        sb.check_invariants();
        assert_eq!((sb.flight(), sb.sacked_bytes(), sb.lost_bytes()), (0, 0, 0));
        assert_eq!((sb.ring.len(), sb.retx_age.len(), sb.lost.len()), (0, 0, 0));
        assert_eq!((sb.high_sacked, sb.mark_cursor), (0, 0));
        // Go-back-N resends the lot; the receiver still holds [300, 600).
        for i in 0..8 {
            sb.push(i * M, 100, stamp(10), false);
        }
        assert_eq!(sack(&mut sb, (300, 600), 0, 11, 50), (0, 300), "SACKed again, delivered once");
        assert_eq!(states(&sb), "lllsssff");
        // The cumulative ACK counts only what SACK never did.
        assert_eq!(sb.cum_ack(0, 800).0, 500);
        sb.check_invariants();
    }

    /// The behaviour the scoreboard must reproduce, written as plain scans
    /// over a vector: what `TcpSender` did when it kept its segments in a
    /// map and walked all of them on every ACK.
    #[derive(Default)]
    struct Spec {
        segs: Vec<SpecSeg>,
        high_sacked: u64,
        /// Every byte above `snd_una` already counted as delivered.
        counted: BTreeSet<u64>,
    }

    #[derive(Clone, Copy, Debug, PartialEq)]
    struct SpecSeg {
        seq: u64,
        len: u64,
        state: SegState,
        retx: bool,
        sent_at: Time,
    }

    impl Spec {
        fn bytes(&self, state: SegState) -> u64 {
            self.segs.iter().filter(|s| s.state == state).map(|s| s.len).sum()
        }

        fn cum_ack(&mut self, snd_una: u64, ack_seq: u64) -> (u64, Option<Time>) {
            let mut newest = None;
            while self.segs.first().is_some_and(|s| s.seq + s.len <= ack_seq) {
                newest = Some(self.segs.remove(0).sent_at);
            }
            let fresh = (snd_una..ack_seq).filter(|b| !self.counted.contains(b)).count() as u64;
            self.counted.retain(|&b| b >= ack_seq);
            (fresh, newest)
        }

        fn apply_sack(&mut self, sack: &[Option<(u64, u64)>; 3], snd_una: u64, now: Time, reo_wnd: Duration) -> (u64, u64) {
            let mut fresh = 0;
            for (start, end) in sack.iter().flatten().copied() {
                if end <= snd_una {
                    continue;
                }
                for s in &mut self.segs {
                    if s.seq >= start && s.seq + s.len <= end && s.state != SegState::Sacked {
                        s.state = SegState::Sacked;
                        fresh += (s.seq..s.seq + s.len).filter(|&b| self.counted.insert(b)).count() as u64;
                    }
                }
                self.high_sacked = self.high_sacked.max(end);
            }
            let mut newly_lost = 0;
            for s in &mut self.segs {
                if s.seq + s.len <= self.high_sacked
                    && s.state == SegState::InFlight
                    && (!s.retx || now.saturating_since(s.sent_at) > reo_wnd)
                {
                    s.state = SegState::Lost;
                    newly_lost += s.len;
                }
            }
            (fresh, newly_lost)
        }

        fn next_lost(&self, snd_una: u64) -> Option<u64> {
            self.segs
                .iter()
                .find(|s| s.state == SegState::Lost && s.seq < self.high_sacked.max(snd_una + 1))
                .map(|s| s.seq)
        }

        fn at(&mut self, seq: u64) -> Option<&mut SpecSeg> {
            self.segs.iter_mut().find(|s| s.seq == seq)
        }
    }

    /// Random pushes, cumulative ACKs (stale, mid-segment, beyond
    /// `snd_nxt`), SACK blocks (repeated, unaligned, out of range),
    /// retransmissions, dup-ACK front marks and RTOs, with the scoreboard
    /// compared against [`Spec`] after every step.
    #[test]
    fn scoreboard_matches_the_plain_scan_spec() {
        for case in 0..64u64 {
            let mut rng = DetRng::seed_from_u64(0x5b0a_0000 + case);
            let mut sb = Scoreboard::new(100);
            let mut spec = Spec::default();
            let (mut snd_una, mut snd_nxt, mut now) = (0u64, 0u64, 0u64);
            let mut short_tail = false;
            let mut last_blocks = [None; 3];
            for step in 0..400 {
                now += rng.gen_range_u64(0, 4);
                let at = Time::from_millis(now);
                match rng.gen_range_u64(0, 10) {
                    0..=2 if !short_tail => {
                        for _ in 0..rng.gen_range_u64(1, 7) {
                            short_tail = rng.gen_bool(0.02);
                            let len = if short_tail { 37 } else { M };
                            sb.push(snd_nxt, len as u32, stamp(now), false);
                            spec.segs.push(SpecSeg {
                                seq: snd_nxt,
                                len,
                                state: SegState::InFlight,
                                retx: false,
                                sent_at: at,
                            });
                            snd_nxt += len;
                            if short_tail {
                                break;
                            }
                        }
                    }
                    3 | 4 => {
                        let to = rng.gen_range_u64(snd_una, snd_nxt.max(snd_una) + 3 * M);
                        let to = if rng.gen_bool(0.8) { to / M * M } else { to };
                        if to > snd_una {
                            let (fresh, newest) = sb.cum_ack(snd_una, to);
                            let (want_fresh, want_newest) = spec.cum_ack(snd_una, to);
                            assert_eq!(fresh, want_fresh, "case {case} step {step}");
                            assert_eq!(newest.map(|m| m.stamp.sent_at), want_newest);
                            snd_una = to;
                        }
                    }
                    5..=7 => {
                        if rng.gen_bool(0.5) {
                            for b in &mut last_blocks {
                                let start =
                                    rng.gen_range_u64(snd_una.saturating_sub(2 * M), snd_nxt.max(snd_una) + 2 * M);
                                let (start, len) = if rng.gen_bool(0.9) {
                                    (start / M * M, rng.gen_range_u64(1, 6) * M)
                                } else {
                                    (start, rng.gen_range_u64(1, 500))
                                };
                                *b = rng.gen_bool(0.7).then_some((start, start + len));
                            }
                        }
                        let reo = Duration::from_millis(rng.gen_range_u64(1, 12));
                        let got = sb.apply_sack(last_blocks.iter().flatten().copied(), snd_una, at, reo);
                        assert_eq!(got, spec.apply_sack(&last_blocks, snd_una, at, reo), "case {case} step {step}");
                    }
                    8 => {
                        if sb.lost_bytes() == 0 {
                            sb.mark_lost_at(snd_una);
                            if let Some(s) = spec.at(snd_una).filter(|s| s.state == SegState::InFlight) {
                                s.state = SegState::Lost;
                            }
                        }
                        for _ in 0..rng.gen_range_u64(0, 5) {
                            let next = sb.next_lost(snd_una);
                            assert_eq!(next, spec.next_lost(snd_una), "case {case} step {step}");
                            let Some(seq) = next else { break };
                            let s = spec.at(seq).expect("lost segment exists");
                            (s.state, s.retx, s.sent_at) = (SegState::InFlight, true, at);
                            assert_eq!(u64::from(sb.retransmit(seq, stamp(now))), s.len);
                        }
                    }
                    _ if rng.gen_bool(0.15) => {
                        sb.clear(snd_una);
                        spec.segs.clear();
                        spec.high_sacked = snd_una;
                        snd_nxt = snd_una;
                        short_tail = false;
                    }
                    _ => {}
                }
                sb.check_invariants();
                let got: Vec<SpecSeg> = (0..sb.ring.len())
                    .map(|i| SpecSeg {
                        seq: sb.span(i).0,
                        len: sb.span(i).1,
                        state: sb.ring[i].state,
                        retx: sb.ring[i].retx,
                        sent_at: sb.ring[i].stamp.sent_at,
                    })
                    .collect();
                assert_eq!(got, spec.segs, "case {case} step {step}");
                assert_eq!(sb.high_sacked, spec.high_sacked);
                assert_eq!(sb.sacked_bytes(), spec.bytes(SegState::Sacked));
                assert_eq!(sb.lost_bytes(), spec.bytes(SegState::Lost));
                assert_eq!(sb.next_lost(snd_una), spec.next_lost(snd_una));
            }
        }
    }
}
