//! Analytical convergence model for Cebinae's taxation dynamics (paper §3.2
//! "Examples of the Cebinae approach" and the §7 future-work discussion).
//!
//! The paper derives that an aggressive flow holding `r₀` on a link whose
//! fair share is `r*` converges in `ln(r*/r₀)/ln(1−τ)` timesteps under the
//! assumption that the flow reclaims up to its allocation every round
//! (Example 2: the `6(1−τ)ᵏ` sequence). This module implements that fluid
//! model — single link and multi-link water-filling variants — so
//! experiments can be compared against their idealized convergence
//! trajectories, and the τ-vs-speed trade-off of Table 1 can be reasoned
//! about quantitatively.

/// Closed form from the paper's Example 2: rounds for a taxed allocation to
/// decay from `initial` to `target` (both > 0, `target < initial`).
pub fn rounds_to_converge(initial: f64, target: f64, tau: f64) -> f64 {
    assert!(initial > 0.0 && target > 0.0 && target <= initial);
    assert!(tau > 0.0 && tau < 1.0);
    (target / initial).ln() / (1.0 - tau).ln()
}

/// One flow in the fluid model.
#[derive(Clone, Debug)]
pub struct FluidFlow {
    /// Links the flow crosses (indices into the capacity vector).
    pub links: Vec<usize>,
    /// Ability to acquire bandwidth relative to competitors (the paper's
    /// "6× as efficient" in Figure 2a). Unconstrained capacity on a link is
    /// split proportionally to weight.
    pub weight: f64,
    /// Current rate.
    pub rate: f64,
}

/// Fluid-model state: capacities plus flows with heterogeneous
/// aggressiveness, stepped one Cebinae round at a time.
#[derive(Clone, Debug)]
pub struct FluidModel {
    pub capacities: Vec<f64>,
    pub flows: Vec<FluidFlow>,
    pub tau: f64,
    /// Port saturation threshold δp.
    pub delta_p: f64,
    /// Flow grouping threshold δf.
    pub delta_f: f64,
}

impl FluidModel {
    /// Advance one round (dT): every saturated link taxes its maximal
    /// flow(s); freed capacity is immediately re-acquired
    /// weight-proportionally by the non-taxed flows (the paper's
    /// "flows reclaim as quickly as they would without fairness
    /// augmentation" idealization).
    pub fn step(&mut self) {
        let n_links = self.capacities.len();
        // Per-link loads.
        let mut load = vec![0.0; n_links];
        for f in &self.flows {
            for &l in &f.links {
                load[l] += f.rate;
            }
        }
        // Tax: on each saturated link, flows within δf of the local max.
        let mut taxed = vec![false; self.flows.len()];
        for (l, (&link_load, &cap)) in load.iter().zip(&self.capacities).enumerate() {
            if link_load < (1.0 - self.delta_p) * cap {
                continue;
            }
            let local_max = self
                .flows
                .iter()
                .filter(|f| f.links.contains(&l))
                .map(|f| f.rate)
                .fold(0.0, f64::max);
            for (i, f) in self.flows.iter().enumerate() {
                if f.links.contains(&l) && f.rate >= local_max * (1.0 - self.delta_f) {
                    taxed[i] = true;
                }
            }
        }
        for (f, &t) in self.flows.iter_mut().zip(&taxed) {
            if t {
                f.rate *= 1.0 - self.tau;
            }
        }
        // Reclaim: untaxed flows grow weight-proportionally into each
        // link's residual capacity (bounded by their most-constrained
        // link).
        let mut load = vec![0.0; n_links];
        for f in &self.flows {
            for &l in &f.links {
                load[l] += f.rate;
            }
        }
        let growth: Vec<f64> = self
            .flows
            .iter()
            .enumerate()
            .map(|(i, f)| {
                if taxed[i] {
                    return 0.0;
                }
                // Weight share of the residual on the tightest link.
                f.links
                    .iter()
                    .map(|&l| {
                        let residual = (self.capacities[l] - load[l]).max(0.0);
                        let weight_sum: f64 = self
                            .flows
                            .iter()
                            .enumerate()
                            .filter(|(j, g)| !taxed[*j] && g.links.contains(&l))
                            .map(|(_, g)| g.weight)
                            .sum();
                        if weight_sum > 0.0 {
                            residual * f.weight / weight_sum
                        } else {
                            0.0
                        }
                    })
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        for (f, g) in self.flows.iter_mut().zip(growth) {
            if g.is_finite() {
                f.rate += g;
            }
        }
    }

    /// Step until the rate vector moves less than `eps` (L∞) or `max_rounds`
    /// elapse; returns the number of rounds taken.
    pub fn run_to_fixpoint(&mut self, eps: f64, max_rounds: usize) -> usize {
        for round in 0..max_rounds {
            let before: Vec<f64> = self.flows.iter().map(|f| f.rate).collect();
            self.step();
            let delta = self
                .flows
                .iter()
                .zip(&before)
                .map(|(f, b)| (f.rate - b).abs())
                .fold(0.0, f64::max);
            if delta < eps {
                return round + 1;
            }
        }
        max_rounds
    }

    pub fn rates(&self) -> Vec<f64> {
        self.flows.iter().map(|f| f.rate).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_matches_paper_example() {
        // Paper Example 2: converge from 6 units to 4 (the 2/3 ratio in
        // ln(2/3)/ln(1-τ)) at τ=1%: ≈ 40.3 rounds.
        let k = rounds_to_converge(6.0, 4.0, 0.01);
        assert!((k - (2.0f64 / 3.0).ln() / 0.99f64.ln()).abs() < 1e-12);
        assert!((k - 40.35).abs() < 0.1, "{k}");
    }

    #[test]
    fn higher_tau_converges_faster() {
        let slow = rounds_to_converge(10.0, 2.0, 0.01);
        let fast = rounds_to_converge(10.0, 2.0, 0.05);
        assert!(fast < slow / 4.0);
    }

    fn figure_2a_model(tau: f64) -> FluidModel {
        // One 10-unit link; flow 0 is the 6x-aggressive flow holding 6
        // units, four others hold 1 each (the paper's strawman allocation).
        let mut flows = vec![FluidFlow {
            links: vec![0],
            weight: 6.0,
            rate: 6.0,
        }];
        for _ in 0..4 {
            flows.push(FluidFlow {
                links: vec![0],
                weight: 1.0,
                rate: 1.0,
            });
        }
        FluidModel {
            capacities: vec![10.0],
            flows,
            tau,
            delta_p: 0.01,
            delta_f: 0.01,
        }
    }

    #[test]
    fn figure_2a_converges_to_fair_share() {
        let mut m = figure_2a_model(0.01);
        m.run_to_fixpoint(1e-6, 10_000);
        let rates = m.rates();
        // The aggressive flow is pulled to (about) the fair share of 2.
        assert!(
            rates[0] < 2.3,
            "aggressive flow must approach fair share: {rates:?}"
        );
        // Small flows grew well beyond their strawman 1.0.
        for r in &rates[1..] {
            assert!(*r > 1.5, "{rates:?}");
        }
        // The link stays (nearly) fully utilized throughout.
        let total: f64 = rates.iter().sum();
        assert!(total > 9.5, "utilization preserved: {total}");
    }

    #[test]
    fn convergence_speed_scales_with_tau() {
        // The model oscillates around its fixpoint (tax ↔ reclaim), so
        // measure time-to-reach-fair-share rather than a strict fixpoint.
        let rounds_to_fair = |tau: f64| -> usize {
            let mut m = figure_2a_model(tau);
            for round in 0..100_000 {
                if m.flows[0].rate < 2.1 {
                    return round;
                }
                m.step();
            }
            100_000
        };
        let k_slow = rounds_to_fair(0.01);
        let k_fast = rounds_to_fair(0.05);
        assert!(
            k_fast < k_slow,
            "τ=5% ({k_fast}) must beat τ=1% ({k_slow})"
        );
        assert!(k_slow < 1000, "τ=1% converges within 1000 rounds: {k_slow}");
    }

    #[test]
    fn figure_2b_multi_bottleneck_ordering() {
        // Paper Figure 2b: A is 10x B and 100x C in weight. Links:
        // l1(20): A; l2(10): B, C; l3(20): A, B... the text's key numbers:
        // A≈18, B≈1.8, C≈0.18 initially, converging toward A=10@l3... we
        // model the simplified 2-link core: l_a (cap 20): A + B;
        // l_b (cap 2): C alone + B? Keep the canonical statement instead:
        // heavier flows end close to their max-min shares after taxation.
        let mut m = FluidModel {
            capacities: vec![20.0, 10.0],
            flows: vec![
                FluidFlow { links: vec![0], weight: 100.0, rate: 18.0 },
                FluidFlow { links: vec![0, 1], weight: 10.0, rate: 1.8 },
                FluidFlow { links: vec![1], weight: 1.0, rate: 0.18 },
            ],
            tau: 0.01,
            delta_p: 0.01,
            delta_f: 0.01,
        };
        m.run_to_fixpoint(1e-7, 200_000);
        let r = m.rates();
        // Max-min ideal: B and C split l2 (5 each); A gets the rest of l1
        // (15). The fluid model should land near that ordering.
        assert!(r[0] > 12.0 && r[0] <= 20.0, "{r:?}");
        assert!(r[1] > 3.0, "B must recover from 1.8: {r:?}");
        assert!(r[2] > 2.0, "C must recover from 0.18: {r:?}");
    }

    #[test]
    fn unsaturated_model_taxes_nobody() {
        let mut m = FluidModel {
            capacities: vec![100.0],
            flows: vec![FluidFlow { links: vec![0], weight: 1.0, rate: 10.0 }],
            tau: 0.01,
            delta_p: 0.01,
            delta_f: 0.01,
        };
        m.step();
        // Single unconstrained flow grows to capacity rather than shrinking.
        assert!(m.rates()[0] >= 10.0);
    }
}
