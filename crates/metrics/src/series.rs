//! Per-flow time-series collection: goodput sampled on a fixed interval,
//! for Figure 1's goodput traces.

use cebinae_net::FlowId;
use cebinae_sim::{Duration, Time};

/// Accumulates per-flow cumulative byte counts at sampling instants and
/// derives interval rates.
#[derive(Clone, Debug)]
pub struct GoodputSeries {
    interval: Duration,
    /// One row per sample: (time, cumulative delivered bytes per flow).
    samples: Vec<(Time, Vec<u64>)>,
    flows: Vec<FlowId>,
}

impl GoodputSeries {
    pub fn new(flows: Vec<FlowId>, interval: Duration) -> GoodputSeries {
        assert!(interval.as_nanos() > 0);
        GoodputSeries {
            interval,
            samples: Vec::new(),
            flows,
        }
    }

    pub fn interval(&self) -> Duration {
        self.interval
    }

    pub fn flows(&self) -> &[FlowId] {
        &self.flows
    }

    /// Record the cumulative delivered bytes of every tracked flow at
    /// `now` (must be called in time order, one entry per flow in the
    /// constructor's order).
    pub fn record(&mut self, now: Time, cumulative: Vec<u64>) {
        assert_eq!(cumulative.len(), self.flows.len());
        if let Some((t, _)) = self.samples.last() {
            assert!(now >= *t, "samples must be recorded in time order");
        }
        self.samples.push((now, cumulative));
    }

    /// Interval goodputs in bytes/sec: for each consecutive sample pair,
    /// `(t_end, per-flow rate over the interval)`.
    pub fn rates(&self) -> Vec<(Time, Vec<f64>)> {
        self.samples
            .windows(2)
            .map(|w| {
                let (t0, ref a) = w[0];
                let (t1, ref b) = w[1];
                let dt = t1.saturating_since(t0).as_secs_f64();
                let rates = a
                    .iter()
                    .zip(b)
                    .map(|(&x, &y)| {
                        if dt > 0.0 {
                            (y - x) as f64 / dt
                        } else {
                            0.0
                        }
                    })
                    .collect();
                (t1, rates)
            })
            .collect()
    }

    /// Average goodput (bytes/sec) per flow between `from` and the last
    /// sample (flows' own start times can be passed to exclude idle time).
    pub fn average_rates(&self, from: Time) -> Vec<f64> {
        let Some(first) = self.samples.iter().find(|(t, _)| *t >= from) else {
            return vec![0.0; self.flows.len()];
        };
        let last = self.samples.last().expect("non-empty if find succeeded");
        let dt = last.0.saturating_since(first.0).as_secs_f64();
        first
            .1
            .iter()
            .zip(&last.1)
            .map(|(&a, &b)| if dt > 0.0 { (b - a) as f64 / dt } else { 0.0 })
            .collect()
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series() -> GoodputSeries {
        GoodputSeries::new(vec![FlowId(0), FlowId(1)], Duration::from_secs(1))
    }

    #[test]
    fn rates_from_cumulative_counts() {
        let mut s = series();
        s.record(Time::from_secs(0), vec![0, 0]);
        s.record(Time::from_secs(1), vec![1000, 500]);
        s.record(Time::from_secs(2), vec![3000, 500]);
        let r = s.rates();
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].1, vec![1000.0, 500.0]);
        assert_eq!(r[1].1, vec![2000.0, 0.0]);
    }

    #[test]
    fn average_rates_span_window() {
        let mut s = series();
        s.record(Time::from_secs(0), vec![0, 0]);
        s.record(Time::from_secs(1), vec![1000, 0]);
        s.record(Time::from_secs(2), vec![2000, 2000]);
        assert_eq!(s.average_rates(Time::ZERO), vec![1000.0, 1000.0]);
        // From t=1s: only the second interval counts.
        assert_eq!(s.average_rates(Time::from_secs(1)), vec![1000.0, 2000.0]);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_samples_rejected() {
        let mut s = series();
        s.record(Time::from_secs(1), vec![0, 0]);
        s.record(Time::from_secs(0), vec![0, 0]);
    }
}
