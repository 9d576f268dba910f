//! Power-of-two bucketed histogram: allocation-free, deterministic, and
//! wide enough for anything the simulator measures (bytes, nanoseconds,
//! packet counts).

/// Bucket `0` counts exact zeros; bucket `i >= 1` counts values `v` with
/// `2^(i-1) <= v < 2^i`. 65 buckets cover the full `u64` range.
pub const BUCKETS: usize = 65;

/// A fixed-shape histogram over `u64` values.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    total: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            counts: [0; BUCKETS],
            total: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Bucket index for a value: 0 for 0, else `64 - leading_zeros(v)`.
    #[inline]
    pub fn bucket_index(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Lower bound (inclusive) of bucket `i`.
    pub fn bucket_lo(i: usize) -> u64 {
        match i {
            0 => 0,
            _ => 1u64 << (i - 1),
        }
    }

    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_index(v)] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// Non-empty buckets as `(lower_bound, count)`, ascending.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_lo(i), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_log2_with_zero_bucket() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1500), 11); // 1024 <= 1500 < 2048
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
    }

    #[test]
    fn bucket_bounds_partition_the_range() {
        // Every value lands in the bucket whose [lo, 2*lo) range holds it.
        for v in [0u64, 1, 2, 3, 7, 8, 1499, 1500, 65_535, 1 << 40] {
            let i = Histogram::bucket_index(v);
            let lo = Histogram::bucket_lo(i);
            assert!(lo <= v, "lo {lo} > v {v}");
            if i < 64 && v > 0 {
                assert!(v < Histogram::bucket_lo(i + 1), "v {v} escapes bucket {i}");
            }
        }
    }

    #[test]
    fn record_accumulates_count_sum_max() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 1500, 1500, 3000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 6001);
        assert_eq!(h.max(), 3000);
        let buckets: Vec<(u64, u64)> = h.nonzero_buckets().collect();
        // 0 -> bucket 0; 1 -> [1,2); 1500 x2 -> [1024,2048); 3000 -> [2048,4096)
        assert_eq!(buckets, vec![(0, 1), (1, 1), (1024, 2), (2048, 1)]);
    }

    #[test]
    fn saturating_sum_never_panics() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn power_of_two_boundaries_split_cleanly() {
        // For every k: 2^k−1 lands one bucket below 2^k; the boundary value
        // itself opens the next bucket with lower bound exactly 2^k.
        for k in 1..64usize {
            let boundary = 1u64 << k;
            let below = boundary - 1;
            let i_below = Histogram::bucket_index(below);
            let i_at = Histogram::bucket_index(boundary);
            assert_eq!(i_at, i_below + 1, "k={k}");
            assert_eq!(Histogram::bucket_lo(i_at), boundary, "k={k}");
            assert!(Histogram::bucket_lo(i_below) <= below, "k={k}");
        }
        // The extremes: 0 and 1 get dedicated buckets; u64::MAX fits in the
        // last bucket without overflowing the array.
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(u64::MAX), BUCKETS - 1);
        let mut h = Histogram::new();
        for v in [0, 1, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), u64::MAX);
    }
}
