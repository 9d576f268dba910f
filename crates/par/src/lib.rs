//! # cebinae-par
//!
//! A std-only, dependency-free parallel executor for *independent seeded
//! trials*. Every experiment in the harness is a batch of simulations that
//! share no state — the embarrassing parallelism the paper's own evaluation
//! (and NS-3 fairness studies generally) amortizes across cores.
//!
//! The design rule, stated once and enforced by `cebinae-verify` rule R7:
//! **parallelism lives strictly *across* seeded trials, never inside a
//! simulated timeline.** A single `Simulation` is one deterministic event
//! loop; this crate runs many of them at once and collects their results
//! **by job index**, so the output of [`TrialPool::run`] is byte-identical
//! regardless of thread count or OS scheduling — one thread reproduces the
//! parallel output exactly, which the tier-1 test
//! `tests/parallel_determinism.rs` asserts.
//!
//! Scheduling is dynamic self-scheduling over a shared bag: each worker
//! claims the next unclaimed job index from an atomic counter, so uneven
//! job costs (a 10 Gbps table row next to a 100 Mbps one) load-balance
//! without any per-worker queues to steal from — the same effect as work
//! stealing for a finite, pre-known job list, with none of the machinery.
//! Threads are scoped (`std::thread::scope`), so jobs may borrow the
//! caller's stack: flow specs, traces, and configs are shared by reference
//! instead of cloned per trial.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A pool of worker threads for running batches of independent jobs.
///
/// The pool is a value, not a global: it holds no threads while idle
/// (workers are spawned per [`run`](TrialPool::run) call and joined before
/// it returns), so constructing one is free and dropping it is trivial.
#[derive(Clone, Copy, Debug)]
pub struct TrialPool {
    threads: usize,
}

impl TrialPool {
    /// A pool with exactly `threads` workers (clamped to at least 1).
    pub fn with_threads(threads: usize) -> TrialPool {
        TrialPool {
            threads: threads.max(1),
        }
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run every job and return their results **in job order**.
    ///
    /// With one thread (or at most one job) everything runs inline on the
    /// calling thread — no threads are spawned, so a serial pool is not
    /// merely "parallel with one worker" but literally the sequential
    /// loop. With more threads, workers claim job indices from a shared
    /// atomic counter and write each result into its own slot; the result
    /// vector is assembled by index, so callers observe identical output
    /// for any thread count.
    ///
    /// # Panics
    /// If a job panics, the panic is propagated to the caller once all
    /// other in-flight jobs have finished (scoped-thread join semantics).
    pub fn run<J, R>(&self, jobs: Vec<J>) -> Vec<R>
    where
        J: FnOnce() -> R + Send,
        R: Send,
    {
        let n = jobs.len();
        if self.threads == 1 || n <= 1 {
            return jobs.into_iter().map(|job| job()).collect();
        }
        // Each job and each result slot gets its own mutex: workers touch
        // disjoint slots (an index is claimed exactly once), so locks are
        // uncontended and exist only to satisfy the shared-access rules
        // without `unsafe`.
        let slots: Vec<Mutex<Option<J>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let workers = self.threads.min(n);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let job = slots[i]
                        .lock()
                        .expect("job slot poisoned")
                        .take()
                        .expect("job index claimed twice");
                    let out = job();
                    *results[i].lock().expect("result slot poisoned") = Some(out);
                });
            }
        });
        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("worker exited without producing its result")
            })
            .collect()
    }

    /// Map `f` over `items` in parallel, preserving input order. `f`
    /// receives the item index so seeded work can derive per-trial RNGs
    /// from it.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let f = &f;
        self.run(
            items
                .into_iter()
                .enumerate()
                .map(|(i, item)| move || f(i, item))
                .collect(),
        )
    }
}

/// A pool as wide as the machine's available parallelism (1 if unknown).
impl Default for TrialPool {
    fn default() -> Self {
        TrialPool::with_threads(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_job_order() {
        for threads in [1, 2, 4, 8] {
            let pool = TrialPool::with_threads(threads);
            let jobs: Vec<_> = (0..64u64).map(|i| move || i * i).collect();
            let out = pool.run(jobs);
            assert_eq!(out, (0..64u64).map(|i| i * i).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn serial_and_parallel_outputs_are_identical() {
        // A mildly stateful per-job computation (seeded accumulation): the
        // reduced outputs must match bit for bit across thread counts.
        let compute = |threads: usize| -> Vec<f64> {
            let pool = TrialPool::with_threads(threads);
            pool.map((0..40u64).collect(), |i, seed: u64| {
                let mut acc = 0.0f64;
                let mut x = seed.wrapping_mul(0x9e3779b97f4a7c15) ^ i as u64;
                for _ in 0..1000 {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    acc += (x >> 11) as f64 / (1u64 << 53) as f64;
                }
                acc
            })
        };
        let serial = compute(1);
        for threads in [2, 3, 8] {
            assert_eq!(serial, compute(threads), "threads={threads}");
        }
    }

    #[test]
    fn jobs_can_borrow_caller_state() {
        let shared: Vec<u64> = (0..100).collect();
        let pool = TrialPool::with_threads(4);
        let jobs: Vec<_> = (0..10usize)
            .map(|i| {
                let shared = &shared;
                move || shared[i * 10..(i + 1) * 10].iter().sum::<u64>()
            })
            .collect();
        let out = pool.run(jobs);
        assert_eq!(out.iter().sum::<u64>(), shared.iter().sum::<u64>());
    }

    #[test]
    fn empty_and_single_job_batches() {
        let pool = TrialPool::with_threads(8);
        let out: Vec<u32> = pool.run(Vec::<fn() -> u32>::new());
        assert!(out.is_empty());
        assert_eq!(pool.run(vec![|| 7u32]), vec![7]);
    }

    #[test]
    fn boxed_heterogeneous_jobs_run() {
        let pool = TrialPool::with_threads(2);
        let jobs: Vec<Box<dyn FnOnce() -> String + Send>> = vec![
            Box::new(|| "a".to_string()),
            Box::new(|| format!("{}", 1 + 1)),
        ];
        assert_eq!(pool.run(jobs), vec!["a".to_string(), "2".to_string()]);
    }

    #[test]
    fn job_panics_propagate() {
        let pool = TrialPool::with_threads(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![
                Box::new(|| 1),
                Box::new(|| panic!("trial failed")),
                Box::new(|| 3),
            ];
            pool.run(jobs)
        }));
        assert!(caught.is_err(), "panic must reach the caller");
    }

    #[test]
    fn pool_width_defaults_to_the_machine_and_clamps_to_one() {
        assert!(TrialPool::default().threads() >= 1);
        assert_eq!(TrialPool::with_threads(0).threads(), 1);
        assert_eq!(TrialPool::with_threads(3).threads(), 3);
    }
}
