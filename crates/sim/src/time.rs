//! Simulated time: a nanosecond-resolution, 64-bit virtual clock.
//!
//! All of the reproduction's components (links, qdiscs, TCP timers, the
//! Cebinae rotation state machine) share this single notion of time. The
//! paper's data plane operates on a hardware nanosecond clock and sizes its
//! round durations as powers of two (`dT = 2^n ns`, `vdT = 2^m ns`, Table 1),
//! so nanoseconds-as-`u64` is a faithful and convenient representation: it
//! covers ~584 years of simulated time and makes the `& vdT_mask` round
//! arithmetic of Figure 5 exact.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// An absolute instant in simulated time, in nanoseconds since simulation
/// start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

pub const NANOS_PER_SEC: u64 = 1_000_000_000;

impl Time {
    pub const ZERO: Time = Time(0);
    /// A sentinel far in the future; used for "never" timers.
    pub const MAX: Time = Time(u64::MAX);

    #[inline]
    pub fn from_secs_f64(s: f64) -> Time {
        debug_assert!(s >= 0.0);
        Time((s * NANOS_PER_SEC as f64).round() as u64)
    }

    #[inline]
    pub fn from_millis(ms: u64) -> Time {
        Time(ms * 1_000_000)
    }

    #[inline]
    pub fn from_micros(us: u64) -> Time {
        Time(us * 1_000)
    }

    #[inline]
    pub fn from_secs(s: u64) -> Time {
        Time(s * NANOS_PER_SEC)
    }

    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Duration since an earlier instant. Saturates at zero rather than
    /// panicking so metric samplers can be sloppy about ordering.
    #[inline]
    pub fn saturating_since(self, earlier: Time) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Round down to a multiple of `quantum` (the Figure 5
    /// `current_time & vdT_mask` operation generalized to non-power-of-two
    /// quanta for safety; for powers of two this is identical to masking).
    #[inline]
    pub fn align_down(self, quantum: Duration) -> Time {
        if quantum.0 == 0 {
            return self;
        }
        Time(self.0 - self.0 % quantum.0)
    }
}

impl Duration {
    pub const ZERO: Duration = Duration(0);

    #[inline]
    pub fn from_secs_f64(s: f64) -> Duration {
        debug_assert!(s >= 0.0);
        Duration((s * NANOS_PER_SEC as f64).round() as u64)
    }

    #[inline]
    pub const fn from_millis(ms: u64) -> Duration {
        Duration(ms * 1_000_000)
    }

    #[inline]
    pub fn from_micros(us: u64) -> Duration {
        Duration(us * 1_000)
    }

    #[inline]
    pub fn from_secs(s: u64) -> Duration {
        Duration(s * NANOS_PER_SEC)
    }

    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Smallest power-of-two duration that is `>= self`. Cebinae sizes `dT`
    /// and `vdT` as powers of two so round boundaries can be computed with a
    /// mask (Table 1).
    #[inline]
    pub fn next_power_of_two(self) -> Duration {
        Duration(self.0.next_power_of_two())
    }

    #[inline]
    pub fn is_power_of_two(self) -> bool {
        self.0.is_power_of_two()
    }

    #[inline]
    pub fn saturating_sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }

    #[inline]
    pub fn min(self, rhs: Duration) -> Duration {
        Duration(self.0.min(rhs.0))
    }

    #[inline]
    pub fn max(self, rhs: Duration) -> Duration {
        Duration(self.0.max(rhs.0))
    }
}

/// Time to serialize `bytes` onto a link of `rate_bps` bits per second.
///
/// Rounds up so that back-to-back transmissions never exceed the configured
/// line rate.
#[inline]
pub fn tx_time(bytes: u64, rate_bps: u64) -> Duration {
    debug_assert!(rate_bps > 0, "link rate must be positive");
    // Below 2.3 GB the numerator fits in 64 bits, which keeps the 128-bit
    // division (`__udivti3`) off the per-packet path.
    match bytes.checked_mul(8 * NANOS_PER_SEC) {
        Some(bit_ns) => Duration(bit_ns.div_ceil(rate_bps)),
        None => Duration(tx_time_wide(bytes, rate_bps)),
    }
}

/// [`tx_time`] in 128-bit arithmetic: the overflow arm, and the reference
/// the fast path is tested against.
fn tx_time_wide(bytes: u64, rate_bps: u64) -> u64 {
    let bit_ns = bytes as u128 * 8 * NANOS_PER_SEC as u128;
    bit_ns.div_ceil(rate_bps as u128) as u64
}

impl Add<Duration> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Duration) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Duration) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl Sub<Time> for Time {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Time) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl SubAssign for Duration {
    #[inline]
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Div<Duration> for Duration {
    type Output = u64;
    #[inline]
    fn div(self, rhs: Duration) -> u64 {
        self.0 / rhs.0
    }
}

impl Rem<Duration> for Duration {
    type Output = Duration;
    #[inline]
    fn rem(self, rhs: Duration) -> Duration {
        Duration(self.0 % rhs.0)
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        Duration(iter.map(|d| d.0).sum())
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= NANOS_PER_SEC {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(Time::from_secs(3).as_nanos(), 3 * NANOS_PER_SEC);
        assert_eq!(Time::from_millis(250).as_secs_f64(), 0.25);
        assert_eq!(Time::from_micros(7).as_nanos(), 7_000);
        assert_eq!(Duration::from_secs_f64(1.5).as_nanos(), 1_500_000_000);
        assert_eq!(Time::from_secs_f64(2.0), Time::from_secs(2));
    }

    #[test]
    fn arithmetic() {
        let t = Time::from_secs(1);
        let d = Duration::from_millis(500);
        assert_eq!(t + d, Time::from_millis(1500));
        assert_eq!((t + d) - t, d);
        assert_eq!(t + d - d, t);
        assert_eq!(d * 4, Duration::from_secs(2));
        assert_eq!(Duration::from_secs(2) / 4, d);
        assert_eq!(Duration::from_secs(2) / d, 4);
    }

    #[test]
    fn saturating_since_never_underflows() {
        let a = Time::from_secs(1);
        let b = Time::from_secs(2);
        assert_eq!(b.saturating_since(a), Duration::from_secs(1));
        assert_eq!(a.saturating_since(b), Duration::ZERO);
    }

    #[test]
    fn align_down_matches_masking_for_pow2() {
        let q = Duration(1 << 20);
        let t = Time(123_456_789_012);
        assert_eq!(t.align_down(q).0, t.0 & !((1u64 << 20) - 1));
        // Zero quantum is a no-op.
        assert_eq!(t.align_down(Duration::ZERO), t);
    }

    #[test]
    fn tx_time_is_exact_for_simple_rates() {
        // 1500 bytes at 1 Gbps = 12 us.
        assert_eq!(tx_time(1500, 1_000_000_000), Duration::from_micros(12));
        // 1500 bytes at 100 Mbps = 120 us.
        assert_eq!(tx_time(1500, 100_000_000), Duration::from_micros(120));
    }

    #[test]
    fn tx_time_fast_path_matches_wide_arithmetic() {
        // The last `bytes` whose numerator fits in 64 bits.
        let edge = u64::MAX / (8 * NANOS_PER_SEC);
        let mut rng = crate::rng::DetRng::seed_from_u64(0x7a7e);
        let mut pairs = vec![
            (0, 1),
            (1, 1),
            (edge - 1, 1),
            (edge, 1),
            (edge, u64::MAX),
            // Exact multiples: nothing to round up.
            (1500, 1_000_000_000),
            (125, 8 * NANOS_PER_SEC),
            (edge, 8 * NANOS_PER_SEC),
            // Past the edge the numerator overflows: the wide arm serves
            // (and truncates a quotient that does not fit, as it always did).
            (edge + 1, 1),
            (edge + 1, 3),
            (1 << 40, 100_000_000_000),
            (u64::MAX, 100_000_000_000),
        ];
        for _ in 0..4096 {
            let bytes = match rng.gen_range_u64(0, 4) {
                0 => rng.gen_range_u64(0, 65_536),
                1 => rng.gen_range_u64(edge - 1_000, edge + 1),
                _ => rng.gen_range_u64(0, edge + 1),
            };
            let rate = 1u64 << rng.gen_range_u64(0, 48);
            pairs.push((bytes, rate + rng.gen_range_u64(0, rate)));
        }
        for (bytes, rate) in pairs {
            assert_eq!(
                tx_time(bytes, rate).0,
                tx_time_wide(bytes, rate),
                "{bytes} B at {rate} bps"
            );
        }
    }

    #[test]
    fn tx_time_rounds_up() {
        // 1 byte at 3 bps: 8/3 s -> ceil in ns.
        let d = tx_time(1, 3);
        assert_eq!(d.0, (8 * NANOS_PER_SEC).div_ceil(3));
    }

    #[test]
    fn next_power_of_two() {
        assert_eq!(Duration(1000).next_power_of_two(), Duration(1024));
        assert!(Duration(1 << 26).is_power_of_two());
        assert!(!Duration(3).is_power_of_two());
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Duration::from_secs(2)), "2.000s");
        assert_eq!(format!("{}", Duration::from_millis(5)), "5.000ms");
        assert_eq!(format!("{}", Duration::from_micros(5)), "5.000us");
        assert_eq!(format!("{}", Duration(17)), "17ns");
        assert_eq!(format!("{}", Time::from_millis(1500)), "1.500000s");
    }
}
