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

    scheduler_contract_tests!(HeapScheduler);
}
