//! The pluggable scheduling API.
//!
//! Every event-loop backend implements [`Scheduler`]: a priority queue of
//! timestamped events with deterministic `(time, sequence)` ordering —
//! two events scheduled for the same instant fire in insertion order, so
//! every run is bit-for-bit reproducible regardless of which backend is
//! driving the loop. Consumers lean on the FIFO tie rule for more than
//! reproducibility: the engine's per-link in-flight rings pair ring order
//! with event order through it (a link's `Arrive` instants are
//! non-decreasing, so FIFO ties keep ring pops and event fires aligned).
//! The workspace ships two implementations:
//!
//! * [`HeapScheduler`](crate::heap::HeapScheduler) — the binary-heap
//!   reference implementation: O(log n) schedule/pop, lazy-delete
//!   cancellation.
//! * [`WheelScheduler`](crate::wheel::WheelScheduler) — a hierarchical
//!   timing wheel with O(1) schedule/cancel/rearm whose steady state
//!   neither allocates nor hashes: slots drain in place, and the earliest
//!   small slot is sorted whole into one staging run that `pop` reads.
//!
//! Backends are selected at construction time via [`SchedulerKind`];
//! callers plumb it through their own config (the engine's
//! `ScenarioParams.scheduler` / `SimConfig.scheduler` is the one spelling
//! above this crate, and nothing reads the environment for it).

use crate::time::Time;

/// Handle to a scheduled event, for cancellation or re-arming. Ids are
/// unique for the lifetime of the scheduler (they are the insertion
/// sequence numbers) and are never reused.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct TimerId(pub(crate) u64);

/// Tombstone count below which compaction is never attempted; keeps tiny
/// queues from churning. Shared by both backends so their compaction
/// behaviour (and `discarded_total` trajectories) stay comparable.
pub(crate) const COMPACT_MIN_TOMBSTONES: usize = 64;

/// A deterministic discrete-event scheduler.
///
/// The ordering contract is the heart of the simulator: [`pop`]
/// (Scheduler::pop) yields events in strictly non-decreasing `(Time, seq)`
/// order, where `seq` is the insertion counter — so equal-timestamp events
/// fire FIFO and every backend produces the byte-identical event stream
/// for the same schedule/cancel history.
pub trait Scheduler<E> {
    /// The timestamp of the most recently popped event (the simulation
    /// clock). `Time::ZERO` before any event has fired.
    fn now(&self) -> Time;

    /// Schedule `event` to fire at absolute time `at`, returning a handle
    /// for [`cancel`](Scheduler::cancel) / [`rearm`](Scheduler::rearm).
    /// Fire-and-forget callers use [`post`](Scheduler::post) instead.
    ///
    /// # Panics
    /// In debug builds, panics if `at` is in the past — scheduling into
    /// the past is always a logic error in a discrete-event simulation.
    #[must_use]
    fn schedule(&mut self, at: Time, event: E) -> TimerId;

    /// Fire-and-forget [`schedule`](Scheduler::schedule): for events that
    /// are never cancelled, so the `TimerId` would only be dropped. Same
    /// sequence numbering and ordering as `schedule`. A backend may
    /// override it to remember that no handle exists: the wheel marks
    /// posted entries so they never probe its tombstone set.
    fn post(&mut self, at: Time, event: E) {
        let _ = self.schedule(at, event);
    }

    /// Cancel a pending timer so it never fires.
    ///
    /// Contract: `id` must refer to an event that has **not yet fired** —
    /// callers track timer liveness (the simulator clears its handle when
    /// the event is dispatched). Cancelling an already-fired id is a logic
    /// error (it would poison `len`); cancelling the same still-pending id
    /// twice is a no-op returning `false`.
    fn cancel(&mut self, id: TimerId) -> bool;

    /// Cancel `id` and schedule `event` at `at` in one call — the RTO /
    /// pace-timer pattern. Returns the replacement handle.
    ///
    /// A rearm is a cancel **plus** a schedule: the replacement gets a
    /// fresh sequence number and both the `scheduled_total` and
    /// `cancelled_total` counters bump. There is no cheaper "move this
    /// event" operation, by contract — which is why hot paths that want
    /// fewer scheduler ops must post fewer events, not rearm standing
    /// ones.
    #[must_use]
    fn rearm(&mut self, id: TimerId, at: Time, event: E) -> TimerId {
        self.cancel(id);
        self.schedule(at, event)
    }

    /// Pop the earliest live event, advancing the clock to its timestamp.
    /// Cancelled entries encountered on the way are discarded without
    /// advancing the clock.
    fn pop(&mut self) -> Option<(Time, E)>;

    /// Timestamp of the next live event without popping it. Takes `&mut`
    /// because cancelled entries at the front are pruned on the way.
    fn peek_time(&mut self) -> Option<Time>;

    /// Number of live (non-cancelled) pending events.
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled (diagnostic).
    fn scheduled_total(&self) -> u64;

    /// Total number of cancellations requested (diagnostic).
    fn cancelled_total(&self) -> u64;

    /// Cancelled entries physically removed so far, lazily or by
    /// compaction (diagnostic; the remainder still sit in the backend as
    /// tombstones).
    fn discarded_total(&self) -> u64;

    /// Overflow cascades performed (diagnostic; hierarchical backends
    /// only — the heap reports 0).
    fn cascades_total(&self) -> u64 {
        0
    }

    /// Physically stored entries, live *and* tombstoned (diagnostic;
    /// backends without tombstones report `len`).
    fn occupied(&self) -> usize {
        self.len()
    }
}

/// Which [`Scheduler`] backend to construct. Defaults to the timing wheel;
/// the heap remains available as the reference implementation for
/// differential testing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Binary heap with lazy-delete tombstones (reference implementation).
    Heap,
    /// Hierarchical timing wheel: O(1) schedule/cancel/rearm.
    #[default]
    Wheel,
}

impl SchedulerKind {
    /// Construct a boxed scheduler of this kind.
    pub fn build<E: Send + 'static>(self) -> Box<dyn Scheduler<E> + Send> {
        match self {
            SchedulerKind::Heap => Box::new(crate::heap::HeapScheduler::new()),
            SchedulerKind::Wheel => Box::new(crate::wheel::WheelScheduler::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_constructs_the_requested_backend() {
        assert_eq!(SchedulerKind::default(), SchedulerKind::Wheel);
        let mut h = SchedulerKind::Heap.build::<u32>();
        let mut w = SchedulerKind::Wheel.build::<u32>();
        h.post(Time(5), 1);
        w.post(Time(5), 1);
        assert_eq!(h.pop(), Some((Time(5), 1)));
        assert_eq!(w.pop(), Some((Time(5), 1)));
        assert_eq!(h.cascades_total(), 0);
    }
}
