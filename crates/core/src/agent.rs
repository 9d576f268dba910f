//! The control-plane agent's recomputation logic (paper Figure 4, lines
//! 8-28), expressed as a pure function so it can be tested independently of
//! the data-plane state machine.

use cebinae_ds::DetMap;
use cebinae_net::FlowId;
use cebinae_sim::Duration;

use crate::config::CebinaeConfig;

/// Inputs to one recomputation (everything the CP reads from the DP over a
/// measurement window `W = P·dT`).
#[derive(Debug)]
pub struct RecomputeInput<'a> {
    /// Transmitted bytes on the port during the window.
    pub port_bytes: u64,
    /// Port line rate, bits/sec.
    pub capacity_bps: u64,
    /// Window duration.
    pub window: Duration,
    /// Per-flow byte counts aggregated from the heavy-hitter cache polls
    /// during the window.
    pub flow_bytes: &'a DetMap<FlowId, u64>,
}

/// The CP's decision: saturation status, the bottlenecked (⊤) set, and the
/// two group rates to install.
#[derive(Clone, Debug, PartialEq)]
pub struct RecomputeDecision {
    pub saturated: bool,
    /// Flows classified bottlenecked. Empty when unsaturated.
    pub top_flows: Vec<FlowId>,
    /// Measured window bytes per ⊤ flow (same order as `top_flows`); used
    /// by the per-flow-⊤ extension mode to split the taxed rate.
    pub top_flow_bytes: Vec<u64>,
    /// Rate for the ⊤ group, bits/sec (already taxed by (1−τ)).
    pub top_rate_bps: f64,
    /// Rate for the ⊥ group, bits/sec (the remaining capacity).
    pub bottom_rate_bps: f64,
}

/// Figure 4's per-port recomputation.
pub fn recompute(cfg: &CebinaeConfig, input: &RecomputeInput<'_>) -> RecomputeDecision {
    let capacity_bytes = input.capacity_bps as f64 / 8.0 * input.window.as_secs_f64();
    let utilization = input.port_bytes as f64 / capacity_bytes;

    // Line 13: unsaturated port -> no bottleneck for any flow.
    if utilization < 1.0 - cfg.delta_p {
        return RecomputeDecision {
            saturated: false,
            top_flows: Vec::new(),
            top_flow_bytes: Vec::new(),
            top_rate_bps: 0.0,
            bottom_rate_bps: input.capacity_bps as f64,
        };
    }

    // Lines 17-25: find c_max and every flow within δf of it.
    let c_max = input.flow_bytes.values().copied().max().unwrap_or(0);
    if c_max == 0 {
        // Saturated but the cache saw nothing attributable (pathological);
        // treat as unsaturated rather than taxing blindly.
        return RecomputeDecision {
            saturated: false,
            top_flows: Vec::new(),
            top_flow_bytes: Vec::new(),
            top_rate_bps: 0.0,
            bottom_rate_bps: input.capacity_bps as f64,
        };
    }
    let threshold = c_max as f64 * (1.0 - cfg.delta_f);
    let mut top: Vec<(FlowId, u64)> = Vec::new();
    let mut bottleneck_bytes = 0u64;
    // The saturating byte sum does not depend on visiting order, and the
    // sort puts `top` (and so the per-flow rate split downstream) in
    // FlowId order, the order the `BTreeMap` this map replaced visited.
    for (&f, &b) in input.flow_bytes.iter() {
        if b as f64 >= threshold {
            top.push((f, b));
            bottleneck_bytes = bottleneck_bytes.saturating_add(b);
        }
    }
    top.sort_unstable();
    let top_flows: Vec<FlowId> = top.iter().map(|&(f, _)| f).collect();
    let top_flow_bytes: Vec<u64> = top.iter().map(|&(_, b)| b).collect();

    // Lines 26-28: tax the ⊤ aggregate and hand the rest to ⊥.
    let taxed = bottleneck_bytes as f64 * (1.0 - cfg.tau);
    let window_s = input.window.as_secs_f64();
    let top_rate_bps = (taxed * 8.0 / window_s).min(input.capacity_bps as f64);
    let bottom_rate_bps = (input.capacity_bps as f64 - top_rate_bps).max(0.0);

    RecomputeDecision {
        saturated: true,
        top_flows,
        top_flow_bytes,
        top_rate_bps,
        bottom_rate_bps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cebinae_net::BufferConfig;

    fn cfg() -> CebinaeConfig {
        CebinaeConfig::for_link(
            100_000_000,
            BufferConfig::mtus(420),
            Duration::from_millis(50),
        )
    }

    fn flows(v: &[(u32, u64)]) -> DetMap<FlowId, u64> {
        v.iter().map(|&(f, b)| (FlowId(f), b)).collect()
    }

    /// Bytes that saturate a 100 Mbps port over the window.
    fn full_window_bytes(cfg: &CebinaeConfig) -> u64 {
        (100_000_000.0 / 8.0 * cfg.window().as_secs_f64()) as u64
    }

    #[test]
    fn unsaturated_port_taxes_nobody() {
        let cfg = cfg();
        let fb = flows(&[(0, 1_000_000), (1, 500)]);
        let d = recompute(
            &cfg,
            &RecomputeInput {
                port_bytes: full_window_bytes(&cfg) / 2,
                capacity_bps: 100_000_000,
                window: cfg.window(),
                flow_bytes: &fb,
            },
        );
        assert!(!d.saturated);
        assert!(d.top_flows.is_empty());
        assert_eq!(d.bottom_rate_bps, 100e6);
    }

    #[test]
    fn saturated_port_taxes_the_max_flow() {
        let cfg = cfg();
        let total = full_window_bytes(&cfg);
        // Flow 0 is a 6x hog (the paper's Figure 2a example).
        let fb = flows(&[
            (0, total * 6 / 10),
            (1, total / 10),
            (2, total / 10),
            (3, total / 10),
            (4, total / 10),
        ]);
        let d = recompute(
            &cfg,
            &RecomputeInput {
                port_bytes: total,
                capacity_bps: 100_000_000,
                window: cfg.window(),
                flow_bytes: &fb,
            },
        );
        assert!(d.saturated);
        assert_eq!(d.top_flows, vec![FlowId(0)]);
        // Top rate = 60% of capacity, taxed by 1%.
        let expect = 0.6 * 100e6 * 0.99;
        assert!((d.top_rate_bps - expect).abs() / expect < 1e-4);
        assert!((d.top_rate_bps + d.bottom_rate_bps - 100e6).abs() < 1.0,
            "sum {}", d.top_rate_bps + d.bottom_rate_bps);
    }

    #[test]
    fn delta_f_groups_near_equal_flows() {
        let mut cfg = cfg();
        cfg.delta_f = 0.05;
        let total = full_window_bytes(&cfg);
        // Flows 0,1 within 5% of each other; flow 2 much smaller.
        let fb = flows(&[(0, total / 2), (1, total / 2 * 97 / 100), (2, total / 50)]);
        let d = recompute(
            &cfg,
            &RecomputeInput {
                port_bytes: total,
                capacity_bps: 100_000_000,
                window: cfg.window(),
                flow_bytes: &fb,
            },
        );
        assert_eq!(d.top_flows, vec![FlowId(0), FlowId(1)]);
    }

    #[test]
    fn equal_flows_all_taxed_when_saturated() {
        // The paper's Example (1): a fair saturated link still taxes all
        // flows by τ, keeping headroom for newcomers.
        let cfg = cfg();
        let total = full_window_bytes(&cfg);
        let fb = flows(&[(0, total / 4), (1, total / 4), (2, total / 4), (3, total / 4)]);
        let d = recompute(
            &cfg,
            &RecomputeInput {
                port_bytes: total,
                capacity_bps: 100_000_000,
                window: cfg.window(),
                flow_bytes: &fb,
            },
        );
        assert!(d.saturated);
        assert_eq!(d.top_flows.len(), 4);
        assert!((d.top_rate_bps - 100e6 * 0.99).abs() < 1e4);
        assert!((d.bottom_rate_bps - 100e6 * 0.01).abs() < 1e4);
    }

    #[test]
    fn saturation_threshold_is_exact() {
        let cfg = cfg(); // delta_p = 1%
        let total = full_window_bytes(&cfg);
        let fb = flows(&[(0, total)]);
        let mk = |bytes| {
            recompute(
                &cfg,
                &RecomputeInput {
                    port_bytes: bytes,
                    capacity_bps: 100_000_000,
                    window: cfg.window(),
                    flow_bytes: &fb,
                },
            )
        };
        assert!(mk(total * 99 / 100 + 1000).saturated);
        assert!(!mk(total * 98 / 100).saturated);
    }

    #[test]
    fn empty_cache_never_taxes() {
        let cfg = cfg();
        let fb = DetMap::new();
        let d = recompute(
            &cfg,
            &RecomputeInput {
                port_bytes: full_window_bytes(&cfg),
                capacity_bps: 100_000_000,
                window: cfg.window(),
                flow_bytes: &fb,
            },
        );
        assert!(!d.saturated, "never make unfairness worse on no data");
    }

    #[test]
    fn top_rate_never_exceeds_capacity() {
        // Flow bytes can exceed the window's capacity (e.g. counting both
        // directions or measurement skew); the rate must clamp.
        let cfg = cfg();
        let total = full_window_bytes(&cfg);
        let fb = flows(&[(0, total * 2)]);
        let d = recompute(
            &cfg,
            &RecomputeInput {
                port_bytes: total,
                capacity_bps: 100_000_000,
                window: cfg.window(),
                flow_bytes: &fb,
            },
        );
        assert!(d.top_rate_bps <= 100e6);
        assert!(d.bottom_rate_bps >= 0.0);
    }

    #[test]
    fn extreme_thresholds_tax_everything() {
        // Figure 12's endpoint: thresholds at 100% classify every flow as
        // bottlenecked and tax rate 100% drives the top rate to zero.
        let mut cfg = cfg();
        cfg = cfg.with_thresholds(1.0, 1.0, 1.0);
        let total = full_window_bytes(&cfg);
        let fb = flows(&[(0, total / 2), (1, total / 4), (2, total / 8)]);
        let d = recompute(
            &cfg,
            &RecomputeInput {
                port_bytes: 1, // any utilization >= 0 counts with delta_p=1
                capacity_bps: 100_000_000,
                window: cfg.window(),
                flow_bytes: &fb,
            },
        );
        assert!(d.saturated);
        assert_eq!(d.top_flows.len(), 3);
        assert_eq!(d.top_rate_bps, 0.0);
    }
}
