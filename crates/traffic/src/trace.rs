//! Synthetic ISP-backbone trace generation — the stand-in for the CAIDA
//! anonymized traces of the paper's Figure 13 (which are license-gated).
//!
//! The generator reproduces the statistics that matter for heavy-hitter
//! detection accuracy: a large flow arrival rate (the paper cites
//! ">400,000 flows/min" on a 10 Gbps link), Zipf-skewed per-flow rates
//! (few elephants, many mice), and heavy-tailed flow durations. Ground
//! truth per-interval byte counts are computed analytically from the flow
//! set, so FPR/FNR of the cache can be measured exactly.

use cebinae_net::FlowId;
use cebinae_sim::{Duration, Time};
use cebinae_sim::rng::DetRng;

use crate::dist::{bounded_pareto, zipf_weights};

/// Parameters of the synthetic backbone trace.
#[derive(Clone, Debug)]
pub struct TraceConfig {
    /// Trace length.
    pub duration: Duration,
    /// Aggregate offered rate (bits/sec) across all concurrent flows.
    pub aggregate_rate_bps: f64,
    /// New-flow arrival rate per minute (the paper's headline statistic).
    pub flows_per_minute: f64,
    /// Flow duration bounds (bounded Pareto, tail index 1.2).
    pub min_duration: Duration,
    pub max_duration: Duration,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            duration: Duration::from_secs(2),
            aggregate_rate_bps: 10e9,
            flows_per_minute: 400_000.0,
            min_duration: Duration::from_millis(20),
            max_duration: Duration::from_secs(10),
        }
    }
}

/// One synthetic flow: active over `[start, end)` at a constant rate.
#[derive(Clone, Copy, Debug)]
pub struct TraceFlow {
    pub id: FlowId,
    pub start: Time,
    pub end: Time,
    pub rate_bps: f64,
}

/// A generated trace: the full flow set, queryable per interval.
#[derive(Clone, Debug)]
pub struct SyntheticTrace {
    pub flows: Vec<TraceFlow>,
    pub cfg: TraceConfig,
}

/// Zipf exponent for per-flow rate skew.
const ZIPF_S: f64 = 1.1;

impl SyntheticTrace {
    /// Generate a trace with Poisson flow arrivals, Zipf-assigned rates,
    /// and Pareto durations.
    pub fn generate(cfg: TraceConfig, rng: &mut DetRng) -> SyntheticTrace {
        let expected_flows =
            (cfg.flows_per_minute * cfg.duration.as_secs_f64() / 60.0).ceil() as usize;
        let n = expected_flows.max(1);
        // Zipf rate weights over all flows, scaled so the *expected
        // concurrent* aggregate matches aggregate_rate_bps.
        let weights = zipf_weights(n, ZIPF_S);
        // Average concurrency factor: E[duration] / trace duration.
        let mut flows = Vec::with_capacity(n);
        let mut total_weighted_time = 0.0;
        let mut raw: Vec<(Time, Time, f64)> = Vec::with_capacity(n);
        for w in weights.iter().take(n) {
            let start = Time::from_secs_f64(rng.gen_range_f64(0.0, cfg.duration.as_secs_f64()));
            let dur = bounded_pareto(
                rng,
                cfg.min_duration.as_secs_f64(),
                cfg.max_duration.as_secs_f64(),
                1.2,
            );
            let end = (start + Duration::from_secs_f64(dur)).min(Time::ZERO + cfg.duration);
            let active = end.saturating_since(start).as_secs_f64();
            total_weighted_time += w * active;
            raw.push((start, end, *w));
        }
        // Scale so that integrated bytes match aggregate_rate * duration.
        let scale = if total_weighted_time > 0.0 {
            cfg.aggregate_rate_bps * cfg.duration.as_secs_f64() / total_weighted_time
        } else {
            0.0
        };
        // Assign ranks to random flow ids so heavy flows aren't always the
        // lowest ids.
        let mut ids: Vec<u32> = (0..n as u32).collect();
        rng.shuffle(&mut ids);
        for (i, (start, end, w)) in raw.into_iter().enumerate() {
            flows.push(TraceFlow {
                id: FlowId(ids[i]),
                start,
                end,
                rate_bps: w * scale,
            });
        }
        SyntheticTrace { flows, cfg }
    }

    /// Exact ground-truth bytes per flow over `[from, to)` (flows with zero
    /// overlap omitted).
    pub fn interval_flow_bytes(&self, from: Time, to: Time) -> Vec<(FlowId, u64)> {
        let mut out = Vec::new();
        for f in &self.flows {
            let s = f.start.max(from);
            let e = f.end.min(to);
            if e > s {
                let bytes = (f.rate_bps / 8.0 * e.saturating_since(s).as_secs_f64()) as u64;
                if bytes > 0 {
                    out.push((f.id, bytes));
                }
            }
        }
        out
    }

    /// Flows active at any point during `[from, to)`.
    pub fn active_flows(&self, from: Time, to: Time) -> usize {
        self.flows
            .iter()
            .filter(|f| f.end > from && f.start < to)
            .count()
    }
}

/// A packet-level rendering of one interval for feeding a cache: MTU-sized
/// packets of all active flows, interleaved by timestamp.
pub fn interval_packets(
    flow_bytes: &[(FlowId, u64)],
    rng: &mut DetRng,
) -> Vec<(FlowId, u32)> {
    const MTU: u64 = 1500;
    // Emit (flow, pkt_size) with flows interleaved in randomized round-
    // robin order, approximating arrival mixing on the wire without
    // materializing timestamps.
    let mut remaining: Vec<(FlowId, u64)> = flow_bytes.to_vec();
    rng.shuffle(&mut remaining);
    let total_pkts: u64 = remaining.iter().map(|&(_, b)| b.div_ceil(MTU)).sum();
    let mut out = Vec::with_capacity(total_pkts as usize);
    while !remaining.is_empty() {
        remaining.retain_mut(|(f, b)| {
            if *b == 0 {
                return false;
            }
            let sz = (*b).min(MTU) as u32;
            out.push((*f, sz));
            *b -= sz as u64;
            *b > 0
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cebinae_sim::rng::experiment_rng;

    fn small_cfg() -> TraceConfig {
        TraceConfig {
            duration: Duration::from_secs(1),
            aggregate_rate_bps: 100e6,
            flows_per_minute: 6_000.0, // 100 flows over 1s
            ..TraceConfig::default()
        }
    }

    #[test]
    fn flow_count_matches_arrival_rate() {
        let mut rng = experiment_rng("trace", 0);
        let t = SyntheticTrace::generate(small_cfg(), &mut rng);
        assert_eq!(t.flows.len(), 100);
    }

    #[test]
    fn total_bytes_match_aggregate_rate() {
        let mut rng = experiment_rng("trace", 1);
        let t = SyntheticTrace::generate(small_cfg(), &mut rng);
        let total: u64 = t
            .interval_flow_bytes(Time::ZERO, Time::from_secs(1))
            .iter()
            .map(|&(_, b)| b)
            .sum();
        let expect = 100e6 / 8.0;
        let err = (total as f64 - expect).abs() / expect;
        assert!(err < 0.02, "total {total} vs {expect}");
    }

    #[test]
    fn rates_are_heavily_skewed() {
        let mut rng = experiment_rng("trace", 2);
        let t = SyntheticTrace::generate(small_cfg(), &mut rng);
        let mut rates: Vec<f64> = t.flows.iter().map(|f| f.rate_bps).collect();
        rates.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let top10: f64 = rates.iter().take(10).sum();
        let all: f64 = rates.iter().sum();
        assert!(top10 / all > 0.5, "top-10 share {}", top10 / all);
    }

    #[test]
    fn intervals_partition_the_trace() {
        let mut rng = experiment_rng("trace", 3);
        let t = SyntheticTrace::generate(small_cfg(), &mut rng);
        let whole: u64 = t
            .interval_flow_bytes(Time::ZERO, Time::from_secs(1))
            .iter()
            .map(|&(_, b)| b)
            .sum();
        let halves: u64 = t
            .interval_flow_bytes(Time::ZERO, Time::from_millis(500))
            .iter()
            .map(|&(_, b)| b)
            .sum::<u64>()
            + t.interval_flow_bytes(Time::from_millis(500), Time::from_secs(1))
                .iter()
                .map(|&(_, b)| b)
                .sum::<u64>();
        // Rounding at the split can lose at most ~1 byte per flow.
        assert!((whole as i64 - halves as i64).unsigned_abs() <= t.flows.len() as u64 + 1);
    }

    #[test]
    fn active_flows_bounded_by_total() {
        let mut rng = experiment_rng("trace", 4);
        let t = SyntheticTrace::generate(small_cfg(), &mut rng);
        let active = t.active_flows(Time::ZERO, Time::from_secs(1));
        assert!(active <= t.flows.len());
        assert!(active > 0);
    }

    #[test]
    fn interval_packets_conserve_bytes() {
        let mut rng = experiment_rng("trace", 5);
        let fb = vec![(FlowId(0), 4000u64), (FlowId(1), 1500), (FlowId(2), 1)];
        let pkts = interval_packets(&fb, &mut rng);
        let mut per_flow = std::collections::HashMap::new();
        for (f, sz) in &pkts {
            *per_flow.entry(*f).or_insert(0u64) += *sz as u64;
        }
        assert_eq!(per_flow[&FlowId(0)], 4000);
        assert_eq!(per_flow[&FlowId(1)], 1500);
        assert_eq!(per_flow[&FlowId(2)], 1);
        // 4000 -> 3 pkts, 1500 -> 1, 1 -> 1.
        assert_eq!(pkts.len(), 5);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = experiment_rng("trace", 9);
        let mut b = experiment_rng("trace", 9);
        let ta = SyntheticTrace::generate(small_cfg(), &mut a);
        let tb = SyntheticTrace::generate(small_cfg(), &mut b);
        for (x, y) in ta.flows.iter().zip(&tb.flows) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.start, y.start);
            assert_eq!(x.rate_bps, y.rate_bps);
        }
    }
}
