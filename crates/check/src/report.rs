//! Deterministic campaign reports.
//!
//! A report is assembled in seed order from per-seed outcomes, so the
//! rendered text is byte-identical regardless of how many worker threads
//! executed the campaign (the determinism contract the gate test pins).
//! Nothing in here mentions thread counts, wall-clock time, or host state.

use std::fmt::Write as _;

use crate::oracle::{check_fairness_mean, FairnessSample, Violation};
use crate::shrink::{replay_line, Overrides};

/// Outcome of checking one seed.
#[derive(Clone, Debug)]
pub struct SeedOutcome {
    pub seed: u64,
    /// Stable scenario description.
    pub desc: String,
    pub violations: Vec<Violation>,
    /// Shrunk overrides, when the seed failed and was minimized.
    pub shrunk: Option<Overrides>,
    /// JFI measurement, when the scenario was symmetric. Judged at
    /// campaign level (mean over seeds), not per seed.
    pub fairness: Option<FairnessSample>,
}

impl SeedOutcome {
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// A full campaign: outcomes in seed order, plus the campaign-level
/// fairness verdict (per-seed JFI swings too hard on short symmetric runs
/// to judge individually; the mean over a campaign is stable).
#[derive(Clone, Debug)]
pub struct CampaignReport {
    pub base_seed: u64,
    pub outcomes: Vec<SeedOutcome>,
    pub campaign_violations: Vec<Violation>,
}

impl CampaignReport {
    /// Assemble a report, running the campaign-level oracles over the
    /// per-seed fairness samples.
    pub fn new(base_seed: u64, outcomes: Vec<SeedOutcome>) -> Self {
        let samples: Vec<FairnessSample> =
            outcomes.iter().filter_map(|o| o.fairness).collect();
        CampaignReport {
            base_seed,
            outcomes,
            campaign_violations: check_fairness_mean(&samples),
        }
    }

    pub fn passed(&self) -> bool {
        self.campaign_violations.is_empty() && self.outcomes.iter().all(SeedOutcome::passed)
    }

    pub fn failures(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.passed()).count()
    }

    /// FNV-1a over the rendered report: a short stable identity for
    /// cross-thread-count and cross-version comparisons.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.render().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_01b3);
        }
        h
    }

    /// Render the report. Deterministic: seed order, fixed formatting,
    /// shrunk failures carry their replay one-liner.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "cebinae-check: {} seeds from base {}",
            self.outcomes.len(),
            self.base_seed
        );
        for o in &self.outcomes {
            if o.passed() {
                let _ = writeln!(s, "  ok   {}", o.desc);
            } else {
                let _ = writeln!(s, "  FAIL {}", o.desc);
                for v in &o.violations {
                    let _ = writeln!(s, "       [{}] {}", v.oracle, v.detail);
                }
                let ov = o.shrunk.unwrap_or_default();
                let _ = writeln!(s, "       replay: {}", replay_line(o.seed, &ov));
            }
        }
        let samples: Vec<&FairnessSample> =
            self.outcomes.iter().filter_map(|o| o.fairness.as_ref()).collect();
        if !samples.is_empty() {
            let mean_gap = samples.iter().map(|f| f.jfi_fifo - f.jfi_ceb).sum::<f64>()
                / samples.len() as f64;
            let _ = writeln!(
                s,
                "fairness: mean JFI delta {:+.4} (FIFO - Cebinae) over {} symmetric seeds",
                mean_gap,
                samples.len()
            );
        }
        for v in &self.campaign_violations {
            let _ = writeln!(s, "  CAMPAIGN-FAIL [{}] {}", v.oracle, v.detail);
        }
        let _ = writeln!(
            s,
            "result: {} ({}/{} seeds green)",
            if self.passed() { "PASS" } else { "FAIL" },
            self.outcomes.len() - self.failures(),
            self.outcomes.len()
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(seed: u64, fail: bool) -> SeedOutcome {
        SeedOutcome {
            seed,
            desc: format!("seed={seed} kind=Dumbbell"),
            violations: if fail {
                vec![Violation {
                    oracle: "conservation",
                    detail: "t=1 port:0: leak".into(),
                }]
            } else {
                Vec::new()
            },
            shrunk: fail.then_some(Overrides {
                flows: Some(2),
                dur_ms: None,
                faults: None,
            }),
            fairness: None,
        }
    }

    #[test]
    fn render_is_deterministic_and_carries_replay_line() {
        let r = CampaignReport::new(0, vec![outcome(0, false), outcome(1, true)]);
        let a = r.render();
        assert_eq!(a, r.render());
        assert!(a.contains("replay: cargo run -p cebinae-check -- --replay 1 --flows 2"), "{a}");
        assert!(a.contains("result: FAIL (1/2 seeds green)"), "{a}");
        assert!(!r.passed());
        assert_eq!(r.failures(), 1);
    }

    #[test]
    fn fingerprint_tracks_content() {
        let pass = CampaignReport::new(0, vec![outcome(0, false)]);
        let fail = CampaignReport::new(0, vec![outcome(0, true)]);
        assert_eq!(pass.fingerprint(), pass.fingerprint());
        assert_ne!(pass.fingerprint(), fail.fingerprint());
    }

    #[test]
    fn campaign_fairness_mean_gates_the_report() {
        // Every seed degraded: the mean check must fail even though no
        // seed crossed the per-seed collapse floor.
        let bad: Vec<SeedOutcome> = (0..4)
            .map(|seed| {
                let mut o = outcome(seed, false);
                o.fairness = Some(FairnessSample {
                    seed,
                    jfi_ceb: 0.6,
                    jfi_fifo: 0.99,
                });
                o
            })
            .collect();
        let r = CampaignReport::new(0, bad);
        assert!(!r.passed());
        let text = r.render();
        assert!(text.contains("fairness: mean JFI delta +0.3900"), "{text}");
        assert!(text.contains("CAMPAIGN-FAIL [fairness]"), "{text}");

        // A single heavy outlier is within the small-sample headroom.
        let mut lone = outcome(0, false);
        lone.fairness = Some(FairnessSample {
            seed: 0,
            jfi_ceb: 0.6,
            jfi_fifo: 0.99,
        });
        let r = CampaignReport::new(0, vec![lone]);
        assert!(r.passed(), "{}", r.render());
    }
}
