//! The hierarchical timing-wheel [`Scheduler`] backend.
//!
//! A Varghese/Lauck-style hashed hierarchical wheel specialised for the
//! simulator's nanosecond clock: 11 levels of 64 slots each (6 bits per
//! level, 66 bits ≥ the full `u64` time range), so **schedule, cancel and
//! rearm are O(1)** however many events are pending. It is the default not
//! for its cancels (paper workloads barely cancel: the lazy RTO costs zero
//! scheduler ops per ACK, `sim.sched_cancel_share` is 7e-6 to 1.5e-2) but
//! for a hot path that in steady state neither allocates nor hashes, and
//! moves most events once.
//!
//! ## Placement
//!
//! `cursor` is the lower bound of all deadlines stored in `slots`. An entry
//! for time `t` lives at level `k` = the highest 6-bit group in which `t`
//! differs from the cursor, in slot `(t >> 6k) & 63`: level-0 slots are
//! exact nanoseconds, higher levels power-of-two windows. When the cursor
//! reaches the earliest occupied slot, that slot is drained in place (its
//! buffer stays with it up to `KEEP_CAP`, so the next push does not
//! allocate) and is either
//!
//! * **staged**, if it is at level 0 or holds at most `STAGE_MAX` entries:
//!   sorted by `(deadline, key)` straight into the staging run `ready`,
//!   whose end `run_end` becomes the end of the slot's window, so most
//!   events go slot → run → pop and never see the lower levels; or
//! * **cascaded**: re-filed against the new cursor, landing strictly below
//!   level `k`. `cascades_total` counts only these.
//!
//! ## Determinism
//!
//! Pop order must be byte-identical to the heap backend's `(time, seq)`
//! ordering. Every entry carries `key = seq << 1 | cancellable`, so key
//! order is insertion order, and:
//!
//! * `ready` is sorted by `(deadline, key)` and holds **every** pending
//!   deadline below `run_end`: a staged slot was the earliest occupied
//!   one, so the rest of the wheel is at or past its window's end;
//! * `slots` only receives deadlines at or past `run_end` (which is never
//!   below `cursor`, so that covers a deadline behind a peek-advanced
//!   cursor). An earlier one is merged into `ready` by binary search,
//!   *after* every equal deadline: right, because the newcomer's key is
//!   the largest yet. A run already `RUN_MAX` long ends at the newcomer
//!   instead, and hands its later entries back to the wheel;
//! * cascades only move entries *down* levels and never reorder distinct
//!   times (placement is a pure function of `(t, cursor)`).
//!
//! So `pop`/`peek_time` are "settle the front of `ready`, read it".
//!
//! ## Cancellation
//!
//! Lazy, like the heap's: a tombstoned sequence number is discarded when
//! its entry surfaces, with the same outnumber-the-live-entries compaction
//! sweep so cancelled far-future timers cannot pin memory. Only `schedule`
//! sets the key's low bit; a `post`ed event (nearly all of them) never
//! probes the tombstone set, and nothing probes it while it is empty.

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
/// Largest slot above level 0 that is sorted straight into `ready`; a
/// handful of entries sort faster than they re-file (flat from 4 to 64).
const STAGE_MAX: usize = 16;
/// Longest run a merge may extend: a wide sparse window staged just before
/// traffic picks up would otherwise turn every insertion into a memmove.
const RUN_MAX: usize = 64;
/// Largest buffer capacity a drained slot keeps; bounds idle memory at
/// `LEVELS * SLOTS * KEEP_CAP` entries however large a burst once was.
const KEEP_CAP: usize = 32;

/// `(deadline_ns, key, event)` with `key = seq << 1 | cancellable`.
type Entry<E> = (u64, u64, E);

/// A hierarchical timing wheel: O(1) schedule/cancel/rearm, pop order
/// byte-identical to [`HeapScheduler`](crate::heap::HeapScheduler).
pub struct WheelScheduler<E> {
    /// `LEVELS * SLOTS` buckets, indexed `level * SLOTS + slot`, each in
    /// insertion order. Every deadline in here is `>= run_end`.
    slots: Vec<Vec<Entry<E>>>,
    /// Per-level occupancy bitmap: bit `s` set iff `slots[k*SLOTS+s]` is
    /// non-empty. Turns find-next-slot into a trailing_zeros.
    occ: [u64; LEVELS],
    /// Lower bound (ns) of every deadline stored in `slots`: the window
    /// start of the slot drained last. Advances monotonically.
    cursor: u64,
    now: Time,
    next_seq: u64,
    /// Physical entries across `slots` + `ready`, tombstones included.
    stored: usize,
    /// The staging run: every pending entry with a deadline below
    /// `run_end`, sorted by `(deadline, key)`.
    ready: VecDeque<Entry<E>>,
    /// End (exclusive, saturating at `u64::MAX`) of the staging run;
    /// never below `cursor`.
    run_end: u64,
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
            run_end: 0,
            cancelled: DetSet::new(),
            cancelled_total: 0,
            discarded_total: 0,
            cascades_total: 0,
        }
    }

    /// Cancelled entries physically removed so far, lazily or by
    /// compaction (diagnostic; the remainder still sit in the wheel as
    /// tombstones).
    pub fn discarded_total(&self) -> u64 {
        self.discarded_total
    }

    /// Slots re-filed one or more levels down (diagnostic; a staged slot
    /// is not a cascade).
    pub fn cascades_total(&self) -> u64 {
        self.cascades_total
    }

    /// Physical entries in slots and the staging run, tombstones included
    /// (diagnostic).
    pub fn occupied(&self) -> usize {
        self.stored
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
    fn file(&mut self, t: u64, key: u64, event: E) {
        debug_assert!(t >= self.cursor);
        let k = Self::level_for(t, self.cursor);
        let s = ((t >> (LEVEL_BITS * k)) & (SLOTS as u64 - 1)) as usize;
        self.slots[k * SLOTS + s].push((t, key, event));
        self.occ[k] |= 1u64 << s;
    }

    /// Store a new entry, merged into the staging run when its deadline is
    /// below the run's end and filed otherwise; returns its sequence number.
    #[inline]
    fn insert(&mut self, at: Time, cancellable: bool, event: E) -> u64 {
        debug_assert!(
            at >= self.now,
            "scheduled event in the past: at={at:?} now={:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stored += 1;
        let key = seq << 1 | u64::from(cancellable);
        if at.0 < self.run_end {
            // `key` is the largest yet, so after every equal deadline.
            let i = self.ready.partition_point(|e| e.0 <= at.0);
            if self.ready.len() < RUN_MAX || at.0 < self.cursor {
                self.ready.insert(i, (at.0, key, event));
                return seq;
            }
            // The run outgrew its bound: end it at `at` and hand everything
            // later (all `> at >= cursor`) back to the wheel.
            self.run_end = at.0;
            while self.ready.len() > i {
                let (t, k, e) = self.ready.pop_back().expect("len > i");
                self.file(t, k, e);
            }
        }
        self.file(at.0, key, event);
        seq
    }

    /// If the entry under `key` was cancelled, consume its tombstone and
    /// account for the discard. Posted entries and an empty tombstone set
    /// cost a bit test, not a hash probe.
    #[inline]
    fn reap(&mut self, key: u64) -> bool {
        let dead = key & 1 == 1 && !self.cancelled.is_empty() && self.cancelled.remove(&(key >> 1));
        if dead {
            self.discarded_total += 1;
            self.stored -= 1;
        }
        dead
    }

    /// Drain earliest occupied slots, cascading the full ones, until one
    /// has been staged with a live entry, or everything left was a
    /// tombstone and `stored` hit zero. Precondition: `ready` is empty.
    fn fill_ready(&mut self) {
        debug_assert!(self.ready.is_empty());
        while self.stored > 0 && self.ready.is_empty() {
            // The earliest entries are in the lowest occupied slot of the
            // lowest occupied level k: they share the cursor's groups above
            // k, while a higher level's lie past that whole window.
            let Some(k) = (0..LEVELS).find(|&k| self.occ[k] != 0) else {
                debug_assert_eq!(self.stored, 0, "stored entries but empty wheel");
                return;
            };
            let s = self.occ[k].trailing_zeros() as usize;
            // Keep the cursor bits above level k, set level k to `s`, zero
            // everything below: the window start of the slot being drained.
            // det-ok: at most LEVEL_BITS * LEVELS = 66, far below u32::MAX
            let shift = (LEVEL_BITS * (k + 1)) as u32;
            let keep = if shift >= 64 { 0 } else { u64::MAX << shift };
            let start = (self.cursor & keep) | ((s as u64) << (LEVEL_BITS * k));
            debug_assert!(start >= self.cursor, "wheel cursor went backwards");
            self.cursor = start;
            self.occ[k] &= !(1u64 << s);
            let i = k * SLOTS + s;
            let mut buf = std::mem::take(&mut self.slots[i]);
            if k == 0 || buf.len() <= STAGE_MAX {
                buf.sort_unstable_by_key(|e| (e.0, e.1));
                // The top slot's window ends at 2^64: saturate.
                self.run_end = start.saturating_add(1u64 << (LEVEL_BITS * k));
                for e in buf.drain(..) {
                    if !self.reap(e.1) {
                        self.ready.push_back(e);
                    }
                }
            } else {
                self.cascades_total += 1;
                self.run_end = start;
                for (t, key, event) in buf.drain(..) {
                    if !self.reap(key) {
                        self.file(t, key, event);
                    }
                }
            }
            if buf.capacity() <= KEEP_CAP {
                self.slots[i] = buf;
            }
        }
    }

    /// Discard tombstones at the front of the run, refilling it from the
    /// wheel when it empties; returns the earliest live deadline, which is
    /// then `ready`'s front.
    #[inline]
    fn settle(&mut self) -> Option<Time> {
        loop {
            match self.ready.front() {
                Some(&(t, key, _)) => {
                    if !self.reap(key) {
                        return Some(Time(t));
                    }
                    self.ready.pop_front();
                }
                None if self.stored == 0 => return None,
                None => self.fill_ready(),
            }
        }
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
        let live = |e: &Entry<E>| e.1 & 1 == 0 || !cancelled.contains(&(e.1 >> 1));
        for k in 0..LEVELS {
            let mut occ = self.occ[k];
            while occ != 0 {
                let s = occ.trailing_zeros() as usize;
                occ &= occ - 1;
                let slot = &mut self.slots[k * SLOTS + s];
                slot.retain(live);
                if slot.is_empty() {
                    self.occ[k] &= !(1u64 << s);
                }
            }
        }
        self.ready.retain(live);
    }
}

impl<E> Scheduler<E> for WheelScheduler<E> {
    #[inline]
    fn now(&self) -> Time {
        self.now
    }

    fn schedule(&mut self, at: Time, event: E) -> TimerId {
        TimerId(self.insert(at, true, event))
    }

    fn post(&mut self, at: Time, event: E) {
        self.insert(at, false, event);
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
        let at = self.settle()?;
        let (_, _, event) = self.ready.pop_front()?;
        self.stored -= 1;
        debug_assert!(at >= self.now, "event queue went backwards");
        self.now = at;
        Some((at, event))
    }

    fn peek_time(&mut self) -> Option<Time> {
        self.settle()
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

}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    scheduler_contract_tests!(WheelScheduler);

    // ------------------------------------------------------------------
    // Wheel-specific behaviour.

    #[test]
    fn far_future_deadlines_cascade_down() {
        let mut q = WheelScheduler::new();
        // Deadlines spanning many levels, including the topmost.
        q.post(Time(u64::MAX), "max");
        q.post(Time(1), "near");
        q.post(Time(1 << 40), "far");
        // One slot fuller than the staging bound, filed latest-first: it
        // has to cascade (a small slot would be staged instead).
        let crowd = STAGE_MAX as u64 + 1;
        for i in (1..=crowd).rev() {
            q.post(Time((1 << 40) + i), "crowd");
        }
        assert_eq!(q.pop(), Some((Time(1), "near")));
        assert_eq!(q.cascades_total(), 0, "small slots are staged");
        assert_eq!(q.pop(), Some((Time(1 << 40), "far")));
        for i in 1..=crowd {
            assert_eq!(q.pop(), Some((Time((1 << 40) + i), "crowd")));
        }
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

    // ------------------------------------------------------------------
    // The staging run.

    #[test]
    fn staged_and_merged_entries_at_one_deadline_pop_fifo() {
        let mut q = WheelScheduler::new();
        q.post(Time(1000), "staged");
        q.post(Time(1001), "staged-later");
        assert_eq!(q.peek_time(), Some(Time(1000)));
        assert_eq!(q.ready.len(), 2, "both sit in the run");
        q.post(Time(1000), "merged");
        q.post(Time(1001), "merged-later");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["staged", "merged", "staged-later", "merged-later"]);
    }

    #[test]
    fn merged_entry_earlier_than_the_run_pops_first() {
        let mut q = WheelScheduler::new();
        for i in 0..4u64 {
            q.post(Time(5000 + i), i);
        }
        assert_eq!(q.peek_time(), Some(Time(5000)));
        q.post(Time(4999), 99);
        q.post(Time(0), 98);
        assert_eq!(q.peek_time(), Some(Time(0)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, [98, 99, 0, 1, 2, 3]);
    }

    #[test]
    fn cancel_entries_sitting_in_the_run() {
        let mut q = WheelScheduler::new();
        let ids: Vec<_> = (0..5u64).map(|i| q.schedule(Time(710 + i), i)).collect();
        assert_eq!(q.peek_time(), Some(Time(710)));
        assert_eq!(q.ready.len(), 5);
        // Front and middle of the run.
        assert!(q.cancel(ids[0]));
        assert!(q.cancel(ids[2]));
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(Time(711)));
        assert_eq!(q.now(), Time::ZERO, "discarding never moves the clock");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, [1, 3, 4]);
        assert_eq!(q.discarded_total(), 2);
        assert_eq!(q.occupied(), 0);
    }

    #[test]
    fn deadline_at_u64_max_saturates_the_run_end() {
        // The top slot's window ends at 2^64. The run end must saturate:
        // a debug build would panic on the overflow, a release build wrap
        // to a tiny bound and file the late arrivals behind the cursor.
        let mut q = WheelScheduler::new();
        q.post(Time(u64::MAX), "max");
        q.post(Time(u64::MAX - 3), "max-3");
        assert_eq!(q.peek_time(), Some(Time(u64::MAX - 3)));
        q.post(Time(u64::MAX), "max-again");
        q.post(Time(u64::MAX - 1), "max-1");
        q.post(Time(u64::MAX - 3), "max-3-again");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            [
                (Time(u64::MAX - 3), "max-3"),
                (Time(u64::MAX - 3), "max-3-again"),
                (Time(u64::MAX - 1), "max-1"),
                (Time(u64::MAX), "max"),
                (Time(u64::MAX), "max-again"),
            ]
        );
        // Alone in the very last nanosecond, staged before the next post.
        q.post(Time(u64::MAX), "last");
        assert_eq!(q.peek_time(), Some(Time(u64::MAX)));
        q.post(Time(u64::MAX), "really-last");
        assert_eq!(q.pop(), Some((Time(u64::MAX), "last")));
        assert_eq!(q.pop(), Some((Time(u64::MAX), "really-last")));
        assert!(q.pop().is_none());
    }

    #[test]
    fn compaction_sweeps_the_run_too() {
        let mut q = WheelScheduler::new();
        let t = Time::from_secs(3);
        let ids: Vec<_> = (0..200u64).map(|i| q.schedule(t, i)).collect();
        assert_eq!(q.peek_time(), Some(t));
        assert_eq!(q.ready.len(), 200, "one nanosecond, staged whole");
        // The 101st tombstone outnumbers the 99 live entries: sweep.
        for id in &ids[..101] {
            q.cancel(*id);
        }
        assert_eq!(q.ready.len(), 99, "tombstones left the run");
        assert_eq!(q.occupied(), 99);
        assert!(q.cancelled.is_empty());
        for id in &ids[101..150] {
            q.cancel(*id);
        }
        let fired: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(fired, (150..200u64).collect::<Vec<_>>());
        assert_eq!(q.discarded_total(), 150);
    }

    #[test]
    fn run_past_its_bound_spills_back_into_the_wheel() {
        // Two timers alone in a ~1 s window are staged with a run end far
        // ahead; the traffic that then starts inside the window must not
        // pile into the run (each merge would be a memmove).
        let mut q = WheelScheduler::new();
        let base = 5_000_000_000u64;
        q.post(Time(base), 0u64);
        q.post(Time(base + 300_000_000), 1);
        assert_eq!(q.pop(), Some((Time(base), 0)));
        let n = 4 * RUN_MAX as u64;
        // Deadlines in a scrambled order (37 is coprime to n), two each.
        let mut expect = vec![(Time(base + 300_000_000), 1)];
        for i in 0..2 * n {
            let at = Time(base + 1 + (i * 37) % n * 1000);
            q.post(at, 2 + i);
            assert!(q.ready.len() <= RUN_MAX, "run grew to {}", q.ready.len());
            expect.push((at, 2 + i));
        }
        expect.sort();
        let fired: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(fired, expect);
    }

    #[test]
    fn drained_slots_keep_small_buffers_and_release_big_ones() {
        let mut q = WheelScheduler::new();
        let occupied = |q: &WheelScheduler<u64>| q.slots.iter().position(|s| !s.is_empty());
        q.post(Time::from_millis(7), 0);
        let small = occupied(&q).unwrap();
        assert_eq!(q.pop(), Some((Time::from_millis(7), 0)));
        assert_eq!(occupied(&q), None);
        assert!(q.slots[small].capacity() > 0, "a small buffer is reused");
        // A burst larger than the keep bound gives its memory back.
        for i in 0..4 * KEEP_CAP as u64 {
            q.post(Time::from_secs(70), i);
        }
        let big = occupied(&q).unwrap();
        assert!(q.slots[big].capacity() > KEEP_CAP);
        assert_eq!(q.pop(), Some((Time::from_secs(70), 0)));
        assert_eq!(q.slots[big].capacity(), 0);
    }
}
