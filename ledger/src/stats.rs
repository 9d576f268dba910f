//! Medians and quartiles of repeated measurements.

/// Median, quartiles, minimum and sample count of one metric over the
/// repetitions of a run. The median is what is reported; on a shared host
/// the noise is one-sided, so the minimum says how much of the spread is
/// the machine's.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub min: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// `None` for an empty sample.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let [q1, median, q3] = quartiles(values)?;
        Some(Summary {
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            median,
            q1,
            q3,
            n: values.len(),
        })
    }
}

pub fn median(values: &[f64]) -> Option<f64> {
    quartiles(values).map(|q| q[1])
}

/// The three quartile cut points, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method), so
/// the numbers printed here are the numbers the acceptance check uses. A
/// single value is its own three quartiles.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut xs = values.to_vec();
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    match n {
        0 => None,
        1 => Some([xs[0]; 3]),
        _ => Some([1usize, 2, 3].map(|i| {
            // Rank i*(n+1)/4 on a 1-based scale, clamped into the sample.
            let j = (i * (n + 1) / 4).clamp(1, n - 1);
            let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
            xs[j - 1] + (xs[j] - xs[j - 1]) * delta
        })),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some([1.5, 4.0, 12.0])
        );
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn summary_carries_quartiles_and_sample_count() {
        let s = Summary::of(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!((s.min, s.q1, s.median, s.q3, s.n), (1.0, 1.0, 2.0, 3.0, 3));
        assert_eq!(Summary::of(&[]), None);
    }
}
