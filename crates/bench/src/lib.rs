//! # cebinae-bench
//!
//! Benchmark support crate. The actual targets live in `benches/`:
//!
//! * `micro` — std-only micro-benchmarks of the hot data structures
//!   (event queue, FIFO, LBF classify, heavy-hitter cache, FQ-CoDel, AFQ,
//!   water-filling) and whole small simulations per discipline;
//! * `experiments` — the table/figure regeneration harness: one bench
//!   "target" per table and figure of the paper, producing the same rows
//!   and series as `cebinae-experiments` (scaled durations; set
//!   `CEBINAE_FULL=1` for paper-scale runs).
//!
//! The crate's binary (`cargo run --release -p cebinae-bench`) is the
//! bench *baseline emitter*: it times representative experiments serial
//! vs parallel on the trial pool, verifies byte-identical output, and
//! writes `BENCH_experiments.json`; `--smoke --check` is the CI gate.

/// Workload sizes shared by the micro benches.
pub const CACHE_FLOWS: u32 = 10_000;
pub const QDISC_PACKETS: usize = 10_000;
