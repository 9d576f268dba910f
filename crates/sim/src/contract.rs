//! The [`Scheduler`](crate::Scheduler) contract every backend honours,
//! written once. Each backend's test module instantiates it with
//! `scheduler_contract_tests!(Backend);`, so the suite has one body while
//! every test keeps a per-backend name (`heap::tests::counters`,
//! `wheel::tests::counters`, ...). The expansion site must have the
//! backend, `Time`, `Duration`, the `Scheduler` trait and the backend's
//! `COMPACT_MIN_TOMBSTONES` in scope, as `use super::*` gives it.

#[cfg(test)]
macro_rules! scheduler_contract_tests {
    ($sched:ident) => {
        #[test]
        fn pops_in_time_order() {
            let mut q = $sched::new();
            q.post(Time::from_millis(5), "c");
            q.post(Time::from_millis(1), "a");
            q.post(Time::from_millis(3), "b");
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, ["a", "b", "c"]);
        }

        #[test]
        fn equal_times_fire_in_insertion_order() {
            let mut q = $sched::new();
            let t = Time::from_secs(1);
            for i in 0..100 {
                q.post(t, i);
            }
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, (0..100).collect::<Vec<_>>());
        }

        #[test]
        fn clock_advances_monotonically() {
            let mut q = $sched::new();
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
            let mut q = $sched::new();
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
            let mut q = $sched::new();
            q.post(Time::from_secs(2), ());
            q.pop();
            q.post(Time::from_secs(1), ());
        }

        #[test]
        fn counters() {
            let mut q = $sched::new();
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
            let mut q = $sched::new();
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
            let mut q = $sched::new();
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
            let mut q = $sched::new();
            let a = q.schedule(Time::from_secs(1), ());
            q.post(Time::from_secs(2), ());
            q.cancel(a);
            assert_eq!(q.peek_time(), Some(Time::from_secs(2)));
            assert_eq!(q.pop().unwrap().0, Time::from_secs(2));
        }

        #[test]
        fn double_cancel_is_a_noop() {
            let mut q = $sched::new();
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
            let mut q = $sched::new();
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
            let mut q = $sched::new();
            let ids: Vec<_> = (0..200u64)
                .map(|i| q.schedule(Time::from_secs(1000 + i), i))
                .collect();
            q.post(Time::from_secs(1), u64::MAX);
            // Cancel enough for tombstones to outnumber live entries.
            for id in &ids[..150] {
                q.cancel(*id);
            }
            assert_eq!(q.len(), 51);
            // At least one compaction fired, physically removing a batch of
            // entries without any pops.
            assert!(q.discarded_total() >= COMPACT_MIN_TOMBSTONES as u64);
            let fired: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(fired.len(), 51);
            assert_eq!(fired[0], u64::MAX);
            assert_eq!(fired[1..], (150..200u64).collect::<Vec<_>>()[..]);
            assert_eq!(q.discarded_total(), 150);
        }

        #[test]
        fn len_accounts_for_tombstones() {
            let mut q = $sched::new();
            let a = q.schedule(Time::from_secs(1), ());
            q.post(Time::from_secs(2), ());
            assert_eq!(q.len(), 2);
            q.cancel(a);
            assert_eq!(q.len(), 1);
            assert!(!q.is_empty());
            q.pop();
            assert!(q.is_empty());
        }
    };
}
