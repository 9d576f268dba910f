//! The binary-heap [`Scheduler`] backend — the reference implementation.
//!
//! Events are ordered by `(time, sequence)`, where the sequence number is a
//! monotonically increasing insertion counter. Two events scheduled for the
//! same instant therefore fire in insertion order, which makes every run of
//! the simulator bit-for-bit reproducible — a property the integration tests
//! assert and which the experiment harness relies on for seeded trials.
//!
//! ## Cancellable timers (lazy delete)
//!
//! Timer-like events (TCP RTO, pacing) are scheduled far in the future and
//! frequently obsoleted before they fire. Removing an arbitrary entry from a
//! binary heap is O(n), so cancellation is **lazy**: [`Scheduler::cancel`]
//! records the timer's id in a tombstone set and the entry is discarded the
//! moment it surfaces at the heap top (during [`pop`](Scheduler::pop) or
//! [`peek_time`](Scheduler::peek_time)) — no dispatch, no payload
//! construction, no clock movement. When tombstones accumulate past half
//! the heap, the heap is compacted in one O(n) sweep so cancelled far-future
//! timers cannot pin memory. Live ordering, including FIFO tie-breaking, is
//! unaffected.
//!
//! The wheel backend ([`crate::wheel`]) makes cancel/rearm O(1); this heap
//! remains the oracle the wheel is differentially tested against.

use std::cmp::Ordering;
use std::collections::{BTreeSet, BinaryHeap};

use crate::sched::{Scheduler, TimerId, COMPACT_MIN_TOMBSTONES};
use crate::time::Time;

/// An event queue entry. `E` is the caller's event payload type.
struct Entry<E> {
    at: Time,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap and we want earliest-first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A priority queue of timestamped events with deterministic FIFO
/// tie-breaking at equal timestamps and O(log n) lazy cancellation.
pub struct HeapScheduler<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: Time,
    /// Sequence numbers of cancelled-but-still-heaped entries.
    cancelled: BTreeSet<u64>,
    cancelled_total: u64,
    discarded_total: u64,
}

impl<E> Default for HeapScheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapScheduler<E> {
    pub fn new() -> Self {
        HeapScheduler {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: Time::ZERO,
            cancelled: BTreeSet::new(),
            cancelled_total: 0,
            discarded_total: 0,
        }
    }

    /// Cancelled entries physically removed so far, lazily or by
    /// compaction (diagnostic; the remainder still sit in the heap as
    /// tombstones).
    pub fn discarded_total(&self) -> u64 {
        self.discarded_total
    }

    /// One O(n) sweep dropping every tombstoned entry, run when cancelled
    /// entries outnumber live ones (and there are enough to matter).
    fn maybe_compact(&mut self) {
        if self.cancelled.len() < COMPACT_MIN_TOMBSTONES
            || self.cancelled.len() * 2 <= self.heap.len()
        {
            return;
        }
        let cancelled = std::mem::take(&mut self.cancelled);
        self.discarded_total += cancelled.len() as u64;
        self.heap.retain(|e| !cancelled.contains(&e.seq));
    }
}

impl<E> Scheduler<E> for HeapScheduler<E> {
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
        self.heap.push(Entry { at, seq, event });
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
            let entry = self.heap.pop()?;
            debug_assert!(entry.at >= self.now, "event queue went backwards");
            if self.cancelled.remove(&entry.seq) {
                self.discarded_total += 1;
                continue;
            }
            self.now = entry.at;
            return Some((entry.at, entry.event));
        }
    }

    fn peek_time(&mut self) -> Option<Time> {
        loop {
            let head = self.heap.peek()?;
            if !self.cancelled.contains(&head.seq) {
                return Some(head.at);
            }
            let seq = head.seq;
            self.heap.pop();
            self.cancelled.remove(&seq);
            self.discarded_total += 1;
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.heap.len() - self.cancelled.len()
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

    #[test]
    fn pops_in_time_order() {
        let mut q = HeapScheduler::new();
        q.post(Time::from_millis(5), "c");
        q.post(Time::from_millis(1), "a");
        q.post(Time::from_millis(3), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn equal_times_fire_in_insertion_order() {
        let mut q = HeapScheduler::new();
        let t = Time::from_secs(1);
        for i in 0..100 {
            q.post(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = HeapScheduler::new();
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
        let mut q = HeapScheduler::new();
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
        let mut q = HeapScheduler::new();
        q.post(Time::from_secs(2), ());
        q.pop();
        q.post(Time::from_secs(1), ());
    }

    #[test]
    fn counters() {
        let mut q = HeapScheduler::new();
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
        let mut q = HeapScheduler::new();
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
        let mut q = HeapScheduler::new();
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
        let mut q = HeapScheduler::new();
        let a = q.schedule(Time::from_secs(1), ());
        q.post(Time::from_secs(2), ());
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(Time::from_secs(2)));
        assert_eq!(q.pop().unwrap().0, Time::from_secs(2));
    }

    #[test]
    fn double_cancel_is_a_noop() {
        let mut q = HeapScheduler::new();
        let a = q.schedule(Time::from_secs(1), ());
        assert!(q.cancel(a));
        assert!(!q.cancel(a));
        assert_eq!(q.cancelled_total(), 1);
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn rearm_pattern_preserves_order() {
        // The simulator's RTO pattern: re-arm the pending timer at a new
        // deadline, interleaved with data events.
        let mut q = HeapScheduler::new();
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
        let mut q = HeapScheduler::new();
        let ids: Vec<_> = (0..200u64)
            .map(|i| q.schedule(Time::from_secs(1000 + i), i))
            .collect();
        q.post(Time::from_secs(1), u64::MAX);
        // Cancel enough for tombstones to outnumber live entries.
        for id in &ids[..150] {
            q.cancel(*id);
        }
        assert_eq!(q.len(), 51);
        // At least one compaction fired (tombstones exceeded half the heap),
        // physically removing a batch of entries without any pops.
        assert!(q.discarded_total() >= COMPACT_MIN_TOMBSTONES as u64);
        let fired: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(fired.len(), 51);
        assert_eq!(fired[0], u64::MAX);
        assert_eq!(fired[1..], (150..200u64).collect::<Vec<_>>()[..]);
        assert_eq!(q.discarded_total(), 150);
    }

    #[test]
    fn len_accounts_for_tombstones() {
        let mut q = HeapScheduler::new();
        let a = q.schedule(Time::from_secs(1), ());
        q.post(Time::from_secs(2), ());
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
    }
}
