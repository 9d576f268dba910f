//! The hierarchical timing-wheel [`Scheduler`] backend.
//!
//! A Varghese/Lauck-style hashed hierarchical wheel specialised for the
//! simulator's nanosecond clock: 11 levels of 64 slots each (6 bits per
//! level, 66 bits ≥ the full `u64` time range), so **schedule, cancel and
//! rearm are O(1)** — the operations the transport layer's RTO/pace timer
//! churn hammers, and exactly where the binary heap's O(log n) +
//! tombstone-compaction costs concentrate.
//!
//! ## Placement
//!
//! The wheel keeps a `cursor`: the lower bound of all stored deadlines
//! (everything before it has been drained). An entry for time `t` lives at
//! level `k` = index of the highest 6-bit group in which `t` differs from
//! the cursor, in slot `(t >> 6k) & 63`. Level 0 slots are exact
//! nanoseconds; higher levels are power-of-two buckets that get **cascaded**
//! (re-filed one or more levels down) when the cursor reaches them. Each
//! entry cascades at most 10 times over its lifetime, so the amortised cost
//! stays constant.
//!
//! ## Determinism
//!
//! Pop order must be byte-identical to the heap backend's `(time, seq)`
//! ordering. Two properties deliver that:
//!
//! * a level-0 slot holds events of exactly one nanosecond, so draining it
//!   and sorting by insertion sequence reproduces FIFO tie-breaking;
//! * cascades only move entries *down* levels and never reorder distinct
//!   times relative to each other (placement is a pure function of
//!   `(t, cursor)`).
//!
//! The drained slot is staged in a `ready` queue; a small `pre` stash
//! catches the peek-then-schedule pattern where the caller schedules an
//! event *behind* the already-advanced cursor (but never behind `now`).
//! Cancellation is lazy exactly like the heap: tombstoned sequence numbers
//! are discarded when their entry surfaces, with the same
//! outnumber-the-live-entries compaction sweep so cancelled far-future
//! timers cannot pin memory.

use std::collections::VecDeque;

use cebinae_ds::DetSet;

use crate::sched::{Scheduler, TimerId, COMPACT_MIN_TOMBSTONES};
use crate::time::Time;

/// Bits of time resolved per level.
const LEVEL_BITS: usize = 6;
/// Slots per level (`1 << LEVEL_BITS`).
const SLOTS: usize = 64;
/// Levels: `ceil(64 / LEVEL_BITS)` covers the whole `u64` range.
const LEVELS: usize = 11;

/// A hierarchical timing wheel: O(1) schedule/cancel/rearm, pop order
/// byte-identical to [`HeapScheduler`](crate::heap::HeapScheduler).
pub struct WheelScheduler<E> {
    /// `LEVELS * SLOTS` buckets, indexed `level * SLOTS + slot`. Each
    /// bucket holds `(deadline_ns, seq, event)` in insertion order.
    slots: Vec<Vec<(u64, u64, E)>>,
    /// Per-level occupancy bitmap: bit `s` set iff `slots[k*SLOTS+s]` is
    /// non-empty. Turns find-next-slot into a trailing_zeros.
    occ: [u64; LEVELS],
    /// Lower bound (ns) of every deadline stored in `slots`; advances
    /// monotonically as slots are drained.
    cursor: u64,
    now: Time,
    next_seq: u64,
    /// Physical entries across `slots` + `ready` + `pre`, tombstones
    /// included.
    stored: usize,
    /// The drained level-0 slot, sorted by seq; all share `ready_at`.
    ready: VecDeque<(u64, E)>,
    ready_at: Time,
    /// Entries scheduled behind the cursor (only possible between a peek
    /// that advanced the wheel and the pops that drain `ready`); always
    /// strictly earlier than `ready_at`, so they pop first.
    pre: Vec<(Time, u64, E)>,
    /// Sequence numbers of cancelled-but-still-stored entries.
    cancelled: DetSet<u64>,
    cancelled_total: u64,
    discarded_total: u64,
    cascades_total: u64,
}

impl<E> Default for WheelScheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> WheelScheduler<E> {
    pub fn new() -> Self {
        WheelScheduler {
            slots: std::iter::repeat_with(Vec::new).take(LEVELS * SLOTS).collect(),
            occ: [0; LEVELS],
            cursor: 0,
            now: Time::ZERO,
            next_seq: 0,
            stored: 0,
            ready: VecDeque::new(),
            ready_at: Time::ZERO,
            pre: Vec::new(),
            cancelled: DetSet::new(),
            cancelled_total: 0,
            discarded_total: 0,
            cascades_total: 0,
        }
    }

    /// Level of deadline `t` relative to `cursor`: the highest 6-bit group
    /// where they differ (0 when equal or within the same 64 ns window).
    #[inline]
    fn level_for(t: u64, cursor: u64) -> usize {
        let diff = t ^ cursor;
        if diff < SLOTS as u64 {
            0
        } else {
            // diff >= 64 so leading_zeros <= 57 and the subtraction
            // cannot underflow; result is a level index in 1..=10.
            (63 - diff.leading_zeros() as usize) / LEVEL_BITS
        }
    }

    /// File a live entry (deadline `t >= self.cursor`) into its slot.
    #[inline]
    fn file(&mut self, t: u64, seq: u64, event: E) {
        debug_assert!(t >= self.cursor);
        let k = Self::level_for(t, self.cursor);
        let s = ((t >> (LEVEL_BITS * k)) & (SLOTS as u64 - 1)) as usize;
        self.slots[k * SLOTS + s].push((t, seq, event));
        self.occ[k] |= 1u64 << s;
    }

    /// Empty `slots[k*SLOTS+s]`, dropping tombstones and re-filing live
    /// entries against the *current* cursor. By construction every re-filed
    /// entry lands strictly below level `k`.
    fn cascade_slot(&mut self, k: usize, s: usize) {
        let entries = std::mem::take(&mut self.slots[k * SLOTS + s]);
        self.occ[k] &= !(1u64 << s);
        for (t, seq, event) in entries {
            if self.cancelled.remove(&seq) {
                self.discarded_total += 1;
                self.stored -= 1;
                continue;
            }
            self.file(t, seq, event);
        }
    }

    /// Advance the wheel until the next level-0 slot with a live entry has
    /// been drained into `ready` (sorted by seq), or everything left was a
    /// tombstone and `stored` hit zero. Precondition: `pre` and `ready`
    /// are empty.
    fn fill_ready(&mut self) {
        debug_assert!(self.pre.is_empty() && self.ready.is_empty());
        while self.stored > 0 {
            // Level-0 slots at or after the cursor's index. Slots before it
            // are necessarily empty (every stored time is >= cursor, and a
            // level-0 time shares the cursor's upper 58 bits).
            // det-ok: masked to 0..64 by `& (SLOTS - 1)`, so u32 cannot truncate
            let c0 = (self.cursor & (SLOTS as u64 - 1)) as u32;
            let m0 = self.occ[0] & (u64::MAX << c0);
            if m0 != 0 {
                let s = m0.trailing_zeros() as usize;
                let tt = (self.cursor & !(SLOTS as u64 - 1)) | s as u64;
                self.cursor = tt;
                let mut entries = std::mem::take(&mut self.slots[s]);
                self.occ[0] &= !(1u64 << s);
                // One level-0 slot == one nanosecond; seq order is FIFO.
                entries.sort_unstable_by_key(|e| e.1);
                self.ready_at = Time(tt);
                let mut any_live = false;
                for (t, seq, event) in entries {
                    debug_assert_eq!(t, tt);
                    if self.cancelled.remove(&seq) {
                        self.discarded_total += 1;
                        self.stored -= 1;
                        continue;
                    }
                    self.ready.push_back((seq, event));
                    any_live = true;
                }
                if any_live {
                    return;
                }
                continue;
            }
            // Level 0 empty: advance the cursor to the lowest occupied
            // higher-level slot's window start and cascade it down.
            let Some(k) = (1..LEVELS).find(|&k| self.occ[k] != 0) else {
                debug_assert_eq!(self.stored, 0, "stored entries but empty wheel");
                return;
            };
            let s = self.occ[k].trailing_zeros() as usize;
            // Keep the cursor bits above level k, set level k to `s`, zero
            // everything below: the window start of the slot being drained.
            // det-ok: at most LEVEL_BITS * LEVELS = 66, far below u32::MAX
            let shift = (LEVEL_BITS * (k + 1)) as u32;
            let keep = if shift >= 64 { 0 } else { u64::MAX << shift };
            self.cursor = (self.cursor & keep) | ((s as u64) << (LEVEL_BITS * k));
            self.cascades_total += 1;
            self.cascade_slot(k, s);
        }
    }

    /// Index of the earliest `(time, seq)` entry in `pre`, if any.
    fn pre_min(&self) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, (t, seq, _)) in self.pre.iter().enumerate() {
            match best {
                Some(b) if (self.pre[b].0, self.pre[b].1) <= (*t, *seq) => {}
                _ => best = Some(i),
            }
        }
        best
    }

    /// One O(n) sweep dropping every tombstoned entry, run when cancelled
    /// entries outnumber live ones (and there are enough to matter) — the
    /// same policy as the heap backend.
    fn maybe_compact(&mut self) {
        if self.cancelled.len() < COMPACT_MIN_TOMBSTONES
            || self.cancelled.len() * 2 <= self.stored
        {
            return;
        }
        let cancelled = std::mem::take(&mut self.cancelled);
        // Every tombstone refers to a stored (unfired) entry, so the sweep
        // removes exactly `cancelled.len()` of them.
        self.discarded_total += cancelled.len() as u64;
        self.stored -= cancelled.len();
        for k in 0..LEVELS {
            let mut occ = self.occ[k];
            while occ != 0 {
                let s = occ.trailing_zeros() as usize;
                occ &= occ - 1;
                let slot = &mut self.slots[k * SLOTS + s];
                slot.retain(|e| !cancelled.contains(&e.1));
                if slot.is_empty() {
                    self.occ[k] &= !(1u64 << s);
                }
            }
        }
        self.ready.retain(|e| !cancelled.contains(&e.0));
        self.pre.retain(|e| !cancelled.contains(&e.1));
    }
}

impl<E> Scheduler<E> for WheelScheduler<E> {
    #[inline]
    fn now(&self) -> Time {
        self.now
    }

    fn schedule(&mut self, at: Time, event: E) -> TimerId {
        debug_assert!(
            at >= self.now,
            "scheduled event in the past: at={at:?} now={:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stored += 1;
        if at.0 < self.cursor {
            // Behind the already-advanced cursor (peek-then-schedule):
            // strictly earlier than `ready_at`, delivered before `ready`.
            self.pre.push((at, seq, event));
        } else {
            self.file(at.0, seq, event);
        }
        TimerId(seq)
    }

    fn cancel(&mut self, id: TimerId) -> bool {
        if self.cancelled.insert(id.0) {
            self.cancelled_total += 1;
            self.maybe_compact();
            true
        } else {
            false
        }
    }

    fn pop(&mut self) -> Option<(Time, E)> {
        loop {
            if let Some(i) = self.pre_min() {
                let (t, seq, event) = self.pre.swap_remove(i);
                self.stored -= 1;
                if self.cancelled.remove(&seq) {
                    self.discarded_total += 1;
                    continue;
                }
                debug_assert!(t >= self.now, "event queue went backwards");
                self.now = t;
                return Some((t, event));
            }
            if let Some((seq, event)) = self.ready.pop_front() {
                self.stored -= 1;
                if self.cancelled.remove(&seq) {
                    self.discarded_total += 1;
                    continue;
                }
                debug_assert!(self.ready_at >= self.now, "event queue went backwards");
                self.now = self.ready_at;
                return Some((self.ready_at, event));
            }
            if self.stored == 0 {
                return None;
            }
            self.fill_ready();
        }
    }

    fn peek_time(&mut self) -> Option<Time> {
        loop {
            if let Some(i) = self.pre_min() {
                let seq = self.pre[i].1;
                if self.cancelled.remove(&seq) {
                    self.pre.swap_remove(i);
                    self.discarded_total += 1;
                    self.stored -= 1;
                    continue;
                }
                return Some(self.pre[i].0);
            }
            if let Some(&(seq, _)) = self.ready.front() {
                if self.cancelled.remove(&seq) {
                    self.ready.pop_front();
                    self.discarded_total += 1;
                    self.stored -= 1;
                    continue;
                }
                return Some(self.ready_at);
            }
            if self.stored == 0 {
                return None;
            }
            self.fill_ready();
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.stored - self.cancelled.len()
    }

    #[inline]
    fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    #[inline]
    fn cancelled_total(&self) -> u64 {
        self.cancelled_total
    }

    #[inline]
    fn discarded_total(&self) -> u64 {
        self.discarded_total
    }

    #[inline]
    fn cascades_total(&self) -> u64 {
        self.cascades_total
    }

    /// Physical entries across slots, ready staging and the pre stash,
    /// tombstones included.
    #[inline]
    fn occupied(&self) -> usize {
        self.stored
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    #[test]
    fn pops_in_time_order() {
        let mut q = WheelScheduler::new();
        q.post(Time::from_millis(5), "c");
        q.post(Time::from_millis(1), "a");
        q.post(Time::from_millis(3), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn equal_times_fire_in_insertion_order() {
        let mut q = WheelScheduler::new();
        let t = Time::from_secs(1);
        for i in 0..100 {
            q.post(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = WheelScheduler::new();
        q.post(Time::from_secs(2), ());
        q.post(Time::from_secs(1), ());
        assert_eq!(q.now(), Time::ZERO);
        q.pop();
        assert_eq!(q.now(), Time::from_secs(1));
        q.pop();
        assert_eq!(q.now(), Time::from_secs(2));
        assert!(q.pop().is_none());
        assert_eq!(q.now(), Time::from_secs(2));
    }

    #[test]
    fn schedule_while_draining() {
        let mut q = WheelScheduler::new();
        q.post(Time::from_secs(1), 1u32);
        let (t, e) = q.pop().unwrap();
        assert_eq!(e, 1);
        // Events scheduled at the current instant still fire.
        q.post(t, 2);
        q.post(t + Duration::from_secs(1), 3);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    #[should_panic(expected = "scheduled event in the past")]
    #[cfg(debug_assertions)]
    fn past_scheduling_panics_in_debug() {
        let mut q = WheelScheduler::new();
        q.post(Time::from_secs(2), ());
        q.pop();
        q.post(Time::from_secs(1), ());
    }

    #[test]
    fn counters() {
        let mut q = WheelScheduler::new();
        assert!(q.is_empty());
        q.post(Time::from_secs(1), ());
        q.post(Time::from_secs(1), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_total(), 2);
        assert_eq!(q.peek_time(), Some(Time::from_secs(1)));
        q.pop();
        q.pop();
        assert_eq!(q.scheduled_total(), 2);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn cancelled_timers_never_fire() {
        let mut q = WheelScheduler::new();
        let a = q.schedule(Time::from_secs(1), "a");
        let _b = q.schedule(Time::from_secs(2), "b");
        let c = q.schedule(Time::from_secs(3), "c");
        assert!(q.cancel(a));
        assert!(q.cancel(c));
        assert_eq!(q.len(), 1);
        let fired: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(fired, ["b"]);
        assert_eq!(q.cancelled_total(), 2);
        assert_eq!(q.discarded_total(), 2);
    }

    #[test]
    fn cancelled_head_does_not_advance_clock() {
        let mut q = WheelScheduler::new();
        let early = q.schedule(Time::from_secs(1), 1u32);
        q.post(Time::from_secs(5), 2u32);
        q.cancel(early);
        // The cancelled 1 s entry is skipped without the clock visiting 1 s.
        let (t, e) = q.pop().unwrap();
        assert_eq!((t, e), (Time::from_secs(5), 2));
        assert_eq!(q.now(), Time::from_secs(5));
    }

    #[test]
    fn peek_time_skips_tombstones() {
        let mut q = WheelScheduler::new();
        let a = q.schedule(Time::from_secs(1), ());
        q.post(Time::from_secs(2), ());
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(Time::from_secs(2)));
        assert_eq!(q.pop().unwrap().0, Time::from_secs(2));
    }

    #[test]
    fn double_cancel_is_a_noop() {
        let mut q = WheelScheduler::new();
        let a = q.schedule(Time::from_secs(1), ());
        assert!(q.cancel(a));
        assert!(!q.cancel(a));
        assert_eq!(q.cancelled_total(), 1);
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn rearm_pattern_preserves_order() {
        let mut q = WheelScheduler::new();
        let mut rto = q.schedule(Time::from_millis(300), "rto");
        for i in 0..10u64 {
            q.post(Time::from_millis(10 * (i + 1)), "data");
            rto = q.rearm(rto, Time::from_millis(300 + 10 * i), "rto");
        }
        let mut fired = Vec::new();
        while let Some((t, e)) = q.pop() {
            fired.push((t, e));
        }
        assert_eq!(fired.iter().filter(|(_, e)| *e == "rto").count(), 1);
        assert_eq!(fired.last().unwrap(), &(Time::from_millis(390), "rto"));
        assert_eq!(fired.len(), 11);
    }

    #[test]
    fn compaction_drops_far_future_tombstones() {
        let mut q = WheelScheduler::new();
        let ids: Vec<_> = (0..200u64)
            .map(|i| q.schedule(Time::from_secs(1000 + i), i))
            .collect();
        q.post(Time::from_secs(1), u64::MAX);
        for id in &ids[..150] {
            q.cancel(*id);
        }
        assert_eq!(q.len(), 51);
        assert!(q.discarded_total() >= COMPACT_MIN_TOMBSTONES as u64);
        let fired: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(fired.len(), 51);
        assert_eq!(fired[0], u64::MAX);
        assert_eq!(fired[1..], (150..200u64).collect::<Vec<_>>()[..]);
        assert_eq!(q.discarded_total(), 150);
    }

    #[test]
    fn len_accounts_for_tombstones() {
        let mut q = WheelScheduler::new();
        let a = q.schedule(Time::from_secs(1), ());
        q.post(Time::from_secs(2), ());
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
    }

    // ------------------------------------------------------------------
    // Wheel-specific behaviour.

    #[test]
    fn far_future_deadlines_cascade_down() {
        let mut q = WheelScheduler::new();
        // Deadlines spanning many levels, including the topmost.
        q.post(Time(u64::MAX), "max");
        q.post(Time(1), "near");
        q.post(Time(1 << 40), "far");
        assert_eq!(q.pop(), Some((Time(1), "near")));
        assert_eq!(q.pop(), Some((Time(1 << 40), "far")));
        assert_eq!(q.pop(), Some((Time(u64::MAX), "max")));
        assert!(q.pop().is_none());
        assert!(q.cascades_total() > 0);
    }

    #[test]
    fn window_crossing_preserves_order() {
        // Deadlines straddling every 64 ns window boundary near the cursor.
        let mut q = WheelScheduler::new();
        let times = [63u64, 64, 65, 127, 128, 4095, 4096, 4097];
        for (i, t) in times.iter().enumerate() {
            q.post(Time(*t), i);
        }
        let fired: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        let expect: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, t)| (Time(*t), i))
            .collect();
        assert_eq!(fired, expect);
    }

    #[test]
    fn peek_then_schedule_behind_cursor_pops_in_order() {
        // A peek advances the wheel (cursor moves to the peeked slot); a
        // subsequent schedule between `now` and the cursor must still pop
        // before the peeked event.
        let mut q = WheelScheduler::new();
        q.post(Time(1000), "late");
        assert_eq!(q.peek_time(), Some(Time(1000)));
        q.post(Time(10), "early");
        q.post(Time(10), "early2");
        assert_eq!(q.pop(), Some((Time(10), "early")));
        assert_eq!(q.pop(), Some((Time(10), "early2")));
        assert_eq!(q.pop(), Some((Time(1000), "late")));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_entry_in_pre_stash() {
        let mut q = WheelScheduler::new();
        q.post(Time(1000), "late");
        assert_eq!(q.peek_time(), Some(Time(1000)));
        let early = q.schedule(Time(10), "early");
        q.cancel(early);
        assert_eq!(q.peek_time(), Some(Time(1000)));
        assert_eq!(q.pop(), Some((Time(1000), "late")));
        assert_eq!(q.discarded_total(), 1);
    }

    #[test]
    fn occupied_counts_tombstones() {
        let mut q = WheelScheduler::new();
        let a = q.schedule(Time(100), ());
        q.post(Time(200), ());
        q.cancel(a);
        assert_eq!(q.occupied(), 2);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn dense_same_slot_burst_across_levels() {
        // Many events at the same far-future instant cascade as a group
        // and still fire FIFO.
        let mut q = WheelScheduler::new();
        let t = Time::from_secs(900); // high level relative to cursor 0
        for i in 0..50u64 {
            q.post(t, i);
        }
        q.post(Time(5), u64::MAX);
        assert_eq!(q.pop().unwrap().1, u64::MAX);
        let fired: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(fired, (0..50).collect::<Vec<_>>());
    }
}
