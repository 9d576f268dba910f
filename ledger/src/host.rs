//! The host side of the measurement: the wall clock, peak memory, core
//! count, and a fixed calibration loop for comparing machines.

use std::hint::black_box;
use std::time::Instant;

/// The ledger's only wall-clock read. Simulation crates may not look at
/// the host clock (verify rule R1); the benchmark exists to do so, from
/// outside.
#[inline]
pub fn now() -> Instant {
    Instant::now() // det-ok: the ledger measures host time by design; every timing goes through this one read
}

/// Run `f` and return its result with the host seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Peak resident set size of this process (`VmHWM`), in MB. `None` where
/// `/proc` does not provide it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A fixed arithmetic + memory loop: a multiplicative-hash walk over a
/// 16 MiB table with a dependent load per step. Its host time is
/// `host.calib_s`; dividing a timing by it removes most of the difference
/// between two machines.
pub fn calib_s() -> f64 {
    const WORDS: usize = 1 << 21;
    const STEPS: usize = 1 << 22;
    let mut table: Vec<u64> = (0..WORDS as u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    let (acc, secs) = timed(|| {
        let mut acc = 0x243f_6a88_85a3_08d3u64;
        for _ in 0..STEPS {
            let slot = (acc >> 43) as usize & (WORDS - 1);
            acc = acc.rotate_left(7) ^ table[slot].wrapping_add(acc);
            table[slot] = acc;
        }
        acc
    });
    black_box(acc);
    secs
}
