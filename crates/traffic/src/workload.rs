//! Dynamic flow workloads: Poisson arrivals with heavy-tailed sizes, for
//! flow-completion-time studies (the "new flows can grow" property of the
//! paper's Example 1, quantified).

use cebinae_sim::rng::DetRng;
use cebinae_sim::{Duration, Time};

use crate::dist::{bounded_pareto, exponential};

/// One short flow to inject.
#[derive(Clone, Copy, Debug)]
pub struct FlowArrival {
    pub start: Time,
    pub bytes: u64,
}

/// Parameters for a Poisson/Pareto mice workload.
#[derive(Clone, Copy, Debug)]
pub struct MiceWorkload {
    /// Mean arrival rate, flows per second.
    pub arrivals_per_sec: f64,
    /// Arrival window.
    pub from: Time,
    pub until: Time,
}

impl Default for MiceWorkload {
    fn default() -> Self {
        MiceWorkload {
            arrivals_per_sec: 10.0,
            from: Time::from_secs(1),
            until: Time::from_secs(10),
        }
    }
}

/// Flow size bounds and tail index (bounded Pareto): web-like mice,
/// 10 KB .. 1 MB, heavy-tailed.
const MIN_BYTES: u64 = 10_000;
const MAX_BYTES: u64 = 1_000_000;
const ALPHA: f64 = 1.2;

impl MiceWorkload {
    /// Materialize the arrival sequence.
    pub fn generate(&self, rng: &mut DetRng) -> Vec<FlowArrival> {
        assert!(self.until > self.from);
        assert!(self.arrivals_per_sec > 0.0);
        let mut out = Vec::new();
        let mut t = self.from;
        loop {
            let gap = exponential(rng, 1.0 / self.arrivals_per_sec);
            t += Duration::from_secs_f64(gap);
            if t >= self.until {
                break;
            }
            let bytes = bounded_pareto(rng, MIN_BYTES as f64, MAX_BYTES as f64, ALPHA) as u64;
            out.push(FlowArrival { start: t, bytes });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cebinae_sim::rng::experiment_rng;

    #[test]
    fn arrivals_respect_window_and_rate() {
        let mut rng = experiment_rng("mice", 0);
        let w = MiceWorkload {
            arrivals_per_sec: 100.0,
            from: Time::from_secs(2),
            until: Time::from_secs(12),
        };
        let flows = w.generate(&mut rng);
        // ~1000 expected; Poisson stddev ~32.
        assert!((850..1150).contains(&flows.len()), "{}", flows.len());
        for f in &flows {
            assert!(f.start >= w.from && f.start < w.until);
            assert!((MIN_BYTES..=MAX_BYTES).contains(&f.bytes));
        }
        // Sorted by construction.
        for pair in flows.windows(2) {
            assert!(pair[0].start <= pair[1].start);
        }
    }

    #[test]
    fn sizes_are_heavy_tailed() {
        let mut rng = experiment_rng("mice", 1);
        let w = MiceWorkload {
            arrivals_per_sec: 500.0,
            ..MiceWorkload::default()
        };
        let flows = w.generate(&mut rng);
        let mut sizes: Vec<u64> = flows.iter().map(|f| f.bytes).collect();
        sizes.sort();
        let median = sizes[sizes.len() / 2] as f64;
        let mean = sizes.iter().sum::<u64>() as f64 / sizes.len() as f64;
        assert!(mean > 1.5 * median, "mean {mean} vs median {median}");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = MiceWorkload::default().generate(&mut experiment_rng("m", 7));
        let b = MiceWorkload::default().generate(&mut experiment_rng("m", 7));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.start, y.start);
            assert_eq!(x.bytes, y.bytes);
        }
    }
}
