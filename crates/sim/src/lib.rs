//! # cebinae-sim
//!
//! Discrete-event simulation core for the Cebinae (SIGCOMM 2022)
//! reproduction.
//!
//! This crate deliberately contains no networking knowledge; it provides the
//! three primitives every other crate builds on:
//!
//! * [`time`] — a nanosecond-resolution virtual clock ([`Time`],
//!   [`Duration`]) with the power-of-two round arithmetic Cebinae's data
//!   plane uses,
//! * [`sched`] — the pluggable [`Scheduler`] API with deterministic FIFO
//!   tie-breaking at equal timestamps, and its two backends: the
//!   binary-heap reference ([`heap`]) and an O(1) hierarchical timing
//!   wheel ([`wheel`], the default),
//! * [`rng`] — seeded, derivable random number generators (a local
//!   xoshiro256++, no external crates) so every experiment is replayable
//!   and all workspace entropy routes through one auditable module.
//!
//! The simulator is synchronous and single-threaded by design: simulation is
//! CPU-bound work on one logical timeline, the case where an async runtime
//! buys nothing (parallelism across *trials* is achieved by running multiple
//! independent simulations).

pub mod heap;
pub mod rng;
pub mod sched;
pub mod time;
pub mod wheel;

pub use heap::HeapScheduler;
pub use sched::{Scheduler, SchedulerKind, TimerId};
pub use time::{bytes_in, tx_time, Duration, Time, NANOS_PER_SEC};
pub use wheel::WheelScheduler;

// Property tests driven by the crate's own seeded generator: each test
// sweeps a fixed number of deterministically derived random cases, so the
// suite needs no external property-testing dependency and every failure is
// reproducible from the case index alone.
#[cfg(test)]
mod proptests {
    use super::*;
    use crate::rng::DetRng;

    /// Popping the queue always yields non-decreasing timestamps, for
    /// arbitrary interleavings of schedules — under both backends.
    #[test]
    fn event_queue_total_order() {
        for kind in [SchedulerKind::Heap, SchedulerKind::Wheel] {
            for case in 0..256u64 {
                let mut rng = DetRng::seed_from_u64(0xe0 ^ case);
                let n = rng.gen_range_usize(1, 200);
                let times: Vec<u64> = (0..n).map(|_| rng.gen_range_u64(0, 1_000_000)).collect();
                let mut q = kind.build();
                for (i, t) in times.iter().enumerate() {
                    q.post(Time(*t), i);
                }
                let mut last = Time::ZERO;
                let mut count = 0;
                while let Some((t, _)) = q.pop() {
                    assert!(t >= last, "{kind:?} case {case}");
                    last = t;
                    count += 1;
                }
                assert_eq!(count, times.len(), "{kind:?} case {case}");
            }
        }
    }

    /// Insertion order is preserved among equal timestamps — under both
    /// backends.
    #[test]
    fn fifo_among_equal_times() {
        for kind in [SchedulerKind::Heap, SchedulerKind::Wheel] {
            for case in 0..256u64 {
                let mut rng = DetRng::seed_from_u64(0xf1f0 ^ case);
                let n = rng.gen_range_usize(1, 100);
                let t = rng.gen_range_u64(0, 1_000);
                let mut q = kind.build();
                for i in 0..n {
                    q.post(Time(t), i);
                }
                let mut expect = 0;
                while let Some((_, i)) = q.pop() {
                    assert_eq!(i, expect, "{kind:?} case {case}");
                    expect += 1;
                }
            }
        }
    }

    /// Heap and wheel produce the identical `(Time, seq)` pop stream under
    /// randomized schedule / post / cancel / rearm / peek / interleaved-pop
    /// workloads: same-timestamp bursts (small ones the wheel stages whole,
    /// big ones it cascades and whose buffers it releases), far-future
    /// deadlines up to `u64::MAX`, and schedules at `now` and `now + 1`
    /// right after a peek has staged a run in front of them. The heap is
    /// the ordering oracle; any divergence is a wheel bug.
    #[test]
    fn heap_and_wheel_pop_streams_are_identical() {
        type Sched = Box<dyn Scheduler<u64> + Send>;
        // One entry into both backends, fire-and-forget or cancellable.
        // Payload = the entry's sequence number, so a popped event
        // identifies which handle just died.
        fn put(heap: &mut Sched, wheel: &mut Sched, live: &mut Vec<TimerId>, at: u64, post: bool) {
            let tag = heap.scheduled_total();
            if post {
                heap.post(Time(at), tag);
                wheel.post(Time(at), tag);
            } else {
                let h = heap.schedule(Time(at), tag);
                assert_eq!(h, wheel.schedule(Time(at), tag), "TimerId streams diverged");
                live.push(h);
            }
        }

        for case in 0..192u64 {
            let mut heap: Sched = SchedulerKind::Heap.build();
            let mut wheel: Sched = SchedulerKind::Wheel.build();
            let mut rng = DetRng::seed_from_u64(0x5c4ed ^ case);
            let mut live: Vec<TimerId> = Vec::new();
            let mut fired: Vec<(Time, u64)> = Vec::new();
            // Max of both clocks, in ns. Once an end-of-range deadline has
            // fired it sits near `u64::MAX`, hence the saturating adds.
            let mut horizon = 0u64;

            for _ in 0..400u64 {
                let op = rng.gen_range_u64(0, 100);
                if op < 55 {
                    // Schedule: mostly near-future, sometimes a burst at one
                    // instant, occasionally far enough out to span several
                    // wheel levels (up to ~2^40 ns ahead) or in the last
                    // four nanoseconds of the range.
                    let at = if op < 8 {
                        horizon.saturating_add(1u64 << rng.gen_range_u64(10, 41))
                    } else if op == 18 {
                        (u64::MAX - rng.gen_range_u64(0, 4)).max(horizon)
                    } else {
                        horizon.saturating_add(rng.gen_range_u64(0, 5_000))
                    };
                    // A burst of 33..80 in one slot is past both of the
                    // wheel's private bounds: too big to stage (16) and its
                    // buffer too big to keep once drained (32).
                    let burst = match op {
                        16 | 17 => rng.gen_range_u64(33, 80),
                        0..=15 => rng.gen_range_u64(2, 6),
                        _ => 1,
                    };
                    for _ in 0..burst {
                        let post = rng.gen_range_u64(0, 2) == 0;
                        put(&mut heap, &mut wheel, &mut live, at, post);
                    }
                } else if op < 75 && !live.is_empty() {
                    // Cancel or rearm a random still-live timer.
                    let i = rng.gen_range_usize(0, live.len());
                    let id = live.swap_remove(i);
                    if op < 65 {
                        assert_eq!(heap.cancel(id), wheel.cancel(id), "case {case}");
                    } else {
                        let at = horizon.saturating_add(rng.gen_range_u64(0, 100_000));
                        let tag = heap.scheduled_total();
                        let h = heap.rearm(id, Time(at), tag);
                        let w = wheel.rearm(id, Time(at), tag);
                        assert_eq!(h, w, "case {case}");
                        live.push(h);
                    }
                } else if op < 82 {
                    // Peek, then schedule at `now` and `now + 1`: in front
                    // of (or into) the run the peek just staged, and behind
                    // the wheel's advanced cursor.
                    assert_eq!(heap.peek_time(), wheel.peek_time(), "case {case}");
                    for at in [horizon, horizon.saturating_add(1)] {
                        let post = rng.gen_range_u64(0, 2) == 0;
                        put(&mut heap, &mut wheel, &mut live, at, post);
                    }
                } else {
                    // Drain a few events, checking byte-identity as we go.
                    assert_eq!(heap.peek_time(), wheel.peek_time(), "case {case}");
                    for _ in 0..rng.gen_range_u64(1, 4) {
                        let h = heap.pop();
                        let w = wheel.pop();
                        assert_eq!(h, w, "case {case}: pop streams diverged");
                        let Some((t, tag)) = h else { break };
                        fired.push((t, tag));
                        horizon = horizon.max(t.0);
                        live.retain(|id| id.0 != tag);
                    }
                }
                // Odd cases peek after every op, so the wheel is always
                // settled; even cases only where an op above does, so runs
                // of ops hit it unsettled.
                if case % 2 == 1 {
                    assert_eq!(heap.peek_time(), wheel.peek_time(), "case {case}");
                }
                assert_eq!(heap.len(), wheel.len(), "case {case}");
                assert_eq!(heap.now(), wheel.now(), "case {case}");
                assert_eq!(heap.now(), Time(horizon), "case {case}");
                assert_eq!(
                    heap.scheduled_total(),
                    wheel.scheduled_total(),
                    "case {case}"
                );
                assert_eq!(
                    heap.cancelled_total(),
                    wheel.cancelled_total(),
                    "case {case}"
                );
            }

            // Final drain: the tails must match exactly too.
            loop {
                let h = heap.pop();
                let w = wheel.pop();
                assert_eq!(h, w, "case {case}: tail diverged");
                let Some(f) = h else { break };
                fired.push(f);
            }
            assert_eq!(heap.len(), 0, "case {case}");
            assert_eq!(wheel.len(), 0, "case {case}");
            // Non-decreasing fired timeline (sanity on the oracle itself).
            assert!(fired.windows(2).all(|p| p[0].0 <= p[1].0), "case {case}");
        }
    }

    /// tx_time never undershoots the exact rational serialization delay,
    /// and overshoots by less than 1ns.
    #[test]
    fn tx_time_bounds() {
        for case in 0..256u64 {
            let mut rng = DetRng::seed_from_u64(0x77_0 ^ case);
            let bytes = rng.gen_range_u64(1, 1_000_000);
            let rate = rng.gen_range_u64(1_000, 100_000_000_000);
            let d = tx_time(bytes, rate);
            let exact = bytes as f64 * 8.0 / rate as f64 * 1e9;
            assert!(d.0 as f64 >= exact - 1e-6, "case {case}");
            assert!((d.0 as f64) < exact + 1.0 + 1e-6, "case {case}");
        }
    }

    /// align_down is idempotent and never increases time.
    #[test]
    fn align_down_props() {
        for case in 0..256u64 {
            let mut rng = DetRng::seed_from_u64(0xa11 ^ case);
            let t = rng.gen_range_u64(0, u64::MAX / 2);
            let shift = rng.gen_range_u64(0, 40) as u32;
            let q = Duration(1u64 << shift);
            let a = Time(t).align_down(q);
            assert!(a <= Time(t), "case {case}");
            assert_eq!(a.align_down(q), a, "case {case}");
            assert_eq!(a.0 % q.0, 0, "case {case}");
        }
    }
}
