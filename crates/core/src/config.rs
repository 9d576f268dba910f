//! Cebinae's configurable parameters (paper Table 1) and the §4.4
//! auto-configuration rules.

use cebinae_net::BufferConfig;
use cebinae_sim::Duration;

/// The smallest dT that Equation 2 allows on a port of `rate_bps`:
/// `buffer/BW + vdT + L`, rounded up to a power of two.
pub fn min_dt(rate_bps: u64, buffer: BufferConfig, vdt: Duration, l: Duration) -> Duration {
    (cebinae_sim::tx_time(buffer.bytes, rate_bps) + vdt + l).next_power_of_two()
}

/// All tunables of a Cebinae port (paper Table 1).
#[derive(Clone, Debug)]
pub struct CebinaeConfig {
    /// δp — port-saturation threshold: the port is saturated when observed
    /// utilization ≥ (1 − δp) · capacity over the measurement window.
    pub delta_p: f64,
    /// δf — flow-bottleneck threshold: flows within δf of the maximum
    /// flow's bytes are classified bottlenecked (⊤).
    pub delta_f: f64,
    /// τ — the Cebinae tax rate applied to the ⊤ group's allocation.
    pub tau: f64,
    /// P — number of dT rounds between utilization/rate recomputations.
    pub p: u32,
    /// L — control-plane reconfiguration deadline.
    pub l: Duration,
    /// dT — physical bucket (round) duration; power of two ns.
    pub dt: Duration,
    /// vdT — virtual bucket duration; power of two ns, vdT < dT.
    pub vdt: Duration,
    /// Heavy-hitter cache geometry.
    pub cache_stages: usize,
    /// Slots per stage (per port).
    pub cache_slots: usize,
    /// Mark ECN-capable packets scheduled into the future queue instead of
    /// relying on delay/loss alone (§4.3 "optionally mark ECN bits").
    pub enable_ecn: bool,
    /// Physical buffer shared by the two queues.
    pub buffer: BufferConfig,
    /// Extension (paper §7 future work): track each bottlenecked flow with
    /// its own leaky-bucket filter instead of one aggregate ⊤ group, for
    /// stronger per-flow guarantees at the cost of statistical multiplexing.
    pub per_flow_top: bool,
}

impl Default for CebinaeConfig {
    fn default() -> Self {
        CebinaeConfig {
            // The paper's robust conservative setting: δp = δf = τ = 1%.
            delta_p: 0.01,
            delta_f: 0.01,
            tau: 0.01,
            p: 1,
            l: Duration(1 << 16), // ≈ 65 µs
            dt: Duration(1 << 26), // ≈ 67 ms
            vdt: Duration(1 << 17), // ≈ 131 µs
            cache_stages: 2,
            cache_slots: 2048,
            enable_ecn: false,
            buffer: BufferConfig::mtus(1000),
            per_flow_top: false,
        }
    }
}

impl CebinaeConfig {
    /// Auto-configure per §4.4 for a port of `rate_bps` with the given
    /// buffer, serving flows with RTTs up to `max_rtt`:
    ///
    /// * `vdT` — small power of two (ideally data-plane clock precision;
    ///   any value ≪ dT behaves identically in software),
    /// * `L` — small constant (typical membership churn),
    /// * `dT ≥ buffer/BW + vdT + L` (Equation 2), rounded to a power of two,
    /// * `P = max(1, ceil(max_rtt / dT))` so the measurement window covers
    ///   an RTT.
    pub fn for_link(rate_bps: u64, buffer: BufferConfig, max_rtt: Duration) -> CebinaeConfig {
        let base = CebinaeConfig::default();
        let dt = min_dt(rate_bps, buffer, base.vdt, base.l);
        let p = (max_rtt.as_nanos().div_ceil(dt.as_nanos()) as u32).max(1);
        CebinaeConfig {
            dt,
            p,
            buffer,
            ..base
        }
    }

    /// Set the three fairness thresholds at once (used by the Figure 12
    /// sensitivity sweep).
    pub fn with_thresholds(mut self, delta_p: f64, delta_f: f64, tau: f64) -> Self {
        self.delta_p = delta_p;
        self.delta_f = delta_f;
        self.tau = tau;
        self
    }

    /// Validate invariants; returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.delta_p) {
            return Err(format!("delta_p out of [0,1]: {}", self.delta_p));
        }
        if !(0.0..=1.0).contains(&self.delta_f) {
            return Err(format!("delta_f out of [0,1]: {}", self.delta_f));
        }
        if !(0.0..=1.0).contains(&self.tau) {
            return Err(format!("tau out of [0,1]: {}", self.tau));
        }
        if self.vdt >= self.dt {
            return Err(format!("vdT {} must be < dT {}", self.vdt, self.dt));
        }
        if !self.dt.is_power_of_two() || !self.vdt.is_power_of_two() {
            return Err("dT and vdT must be powers of two (Table 1)".into());
        }
        if self.l + self.vdt >= self.dt {
            return Err(format!(
                "L + vdT ({}) must leave room in dT ({}) for the drain window",
                self.l + self.vdt,
                self.dt
            ));
        }
        if self.p == 0 {
            return Err("P must be >= 1".into());
        }
        if self.cache_stages == 0 || self.cache_slots == 0 {
            return Err("cache must have at least one stage and slot".into());
        }
        Ok(())
    }

    /// The measurement window `W = P · dT`.
    pub fn window(&self) -> Duration {
        self.dt * self.p as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        CebinaeConfig::default().validate().unwrap();
    }

    #[test]
    fn for_link_satisfies_equation_2() {
        // 1 Gbps, 850 MTU buffer (a Table 2 row), 100 ms max RTT.
        let buffer = BufferConfig::mtus(850);
        let cfg = CebinaeConfig::for_link(1_000_000_000, buffer, Duration::from_millis(100));
        cfg.validate().unwrap();
        // Equation 2: (dT − (vdT + L)) · BW ≥ buffer.
        let lhs = (cfg.dt - (cfg.vdt + cfg.l)).as_secs_f64() * 1e9 / 8.0;
        assert!(
            lhs >= buffer.bytes as f64,
            "dT too small: headroom {lhs} < buffer {}",
            buffer.bytes
        );
        // P covers the max RTT.
        assert!(cfg.window() >= Duration::from_millis(100));
    }

    #[test]
    fn for_link_scales_with_buffer_and_rate() {
        let small = CebinaeConfig::for_link(
            10_000_000_000,
            BufferConfig::mtus(420),
            Duration::from_millis(50),
        );
        let big = CebinaeConfig::for_link(
            100_000_000,
            BufferConfig::mtus(21_000),
            Duration::from_millis(50),
        );
        assert!(small.dt < big.dt, "bigger drain time needs bigger dT");
        small.validate().unwrap();
        big.validate().unwrap();
    }

    #[test]
    fn validate_catches_bad_params() {
        let c = CebinaeConfig { tau: 1.5, ..CebinaeConfig::default() };
        assert!(c.validate().is_err());

        let mut c = CebinaeConfig::default();
        c.vdt = c.dt;
        assert!(c.validate().is_err());

        let c = CebinaeConfig { dt: Duration(3_000_000), ..CebinaeConfig::default() }; // not a power of two
        assert!(c.validate().is_err());

        let c = CebinaeConfig { p: 0, ..CebinaeConfig::default() };
        assert!(c.validate().is_err());

        let mut c = CebinaeConfig::default();
        c.l = c.dt;
        assert!(c.validate().is_err());
    }

    #[test]
    fn with_thresholds_builder() {
        let c = CebinaeConfig::default().with_thresholds(0.05, 0.1, 0.02);
        assert_eq!(c.delta_p, 0.05);
        assert_eq!(c.delta_f, 0.1);
        assert_eq!(c.tau, 0.02);
    }

    #[test]
    fn window_is_p_rounds() {
        let c = CebinaeConfig { p: 4, ..CebinaeConfig::default() };
        assert_eq!(c.window(), c.dt * 4);
    }
}
