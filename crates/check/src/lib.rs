//! `cebinae-check`: seeded scenario fuzzer with model-based differential
//! oracles and online invariant checking.
//!
//! The pipeline, per seed:
//!
//! 1. [`scenario::GenScenario::generate`] samples a topology, link
//!    parameters, CCA mix, arrival schedule and Cebinae configuration from
//!    the seed alone.
//! 2. The scenario runs through the real engine (trace + telemetry on).
//! 3. [`oracle`] judges the run: conservation invariants over the
//!    telemetry export, exact trace replay against a model filter,
//!    a quantized-vs-continuous differential check of the LBF, and a
//!    JFI fairness comparison on symmetric scenarios.
//! 4. Failing seeds are minimized by [`shrink`] into a replayable
//!    one-liner; campaigns render as deterministic [`report`]s.
//!
//! Campaigns fan out over the `cebinae-par` trial pool; the report is
//! assembled in seed order, so its bytes are independent of thread count.

pub mod model;
pub mod oracle;
pub mod report;
pub mod scenario;
pub mod shrink;

use cebinae_engine::{Discipline, SimResult, Simulation};
use cebinae_faults::FaultFamily;
use cebinae_par::TrialPool;
use cebinae_sim::Duration;

use oracle::{FairnessSample, Violation};
use report::{CampaignReport, SeedOutcome};
use scenario::GenScenario;
use shrink::Overrides;

/// Every per-run oracle applied to `res`, the result of running a config
/// built from `sc` (trace + telemetry on). Which path the engine served
/// the unobserved links on is not the oracles' business: the express-path
/// differential test judges both through this one function.
pub fn judge_run(sc: &GenScenario, res: &SimResult) -> Vec<Violation> {
    let end_ns = Duration::from_millis(sc.duration_ms).as_nanos();
    let mut violations = Vec::new();
    if let Some(ndjson) = &res.telemetry {
        violations.extend(oracle::check_conservation(ndjson, end_ns));
    }
    let plan = sc.fault_plan();
    if plan.stalls.is_empty() {
        // Control-plane faults park/swallow the qdisc's rotations, which
        // the replica's free-running round clock cannot model; every
        // other fault family leaves the offered stream exact (injected
        // drops are excluded from it), so replay still applies.
        violations.extend(oracle::check_trace_replay(sc, res));
    }
    violations.extend(oracle::check_differential(sc));
    if !plan.is_empty() {
        if let Some(ndjson) = &res.telemetry {
            violations.extend(oracle::check_fault_accounting(&res.trace, ndjson));
        }
        violations.extend(oracle::check_degradation(sc, res));
    }
    violations
}

/// Run one scenario through the engine and every applicable oracle.
/// Returns the per-seed violations, the fairness measurement for
/// symmetric scenarios (judged at campaign level, see
/// [`oracle::check_fairness_mean`]), and the total simulator events
/// processed across every run the check performed (the invariant run
/// plus, on symmetric seeds, the fairness pair) — compared across
/// scheduler backends and engine versions by the identity tests.
pub fn check_scenario(
    sc: &GenScenario,
) -> (Vec<Violation>, Option<FairnessSample>, u64) {
    let (cfg, _bnecks) = sc.build();
    let res = Simulation::new(cfg).run();
    let mut events = res.events_processed;
    let mut violations = judge_run(sc, &res);

    let mut fairness = None;
    if sc.symmetric {
        // Fairness runs the same scenario under both disciplines
        // (paper-default Cebinae parameters), regardless of which
        // discipline the seed sampled for the invariant run. Only the
        // collapse floor is a per-seed failure; the JFI comparison
        // against FIFO is averaged over the campaign.
        let (cfg_ceb, _) = sc.build_fairness(Discipline::Cebinae);
        let ceb = Simulation::new(cfg_ceb).run();
        let (cfg_fifo, _) = sc.build_fairness(Discipline::Fifo);
        let fifo = Simulation::new(cfg_fifo).run();
        events += ceb.events_processed + fifo.events_processed;
        let sample = oracle::fairness_sample(sc, &ceb, &fifo);
        violations.extend(oracle::check_fairness_collapse(&sample));
        fairness = Some(sample);
    }
    (violations, fairness, events)
}

/// Check one seed with overrides (the replay path), shrinking on failure.
pub fn check_seed(seed: u64, overrides: Overrides) -> SeedOutcome {
    let sc = overrides.realize(seed);
    let (violations, fairness, _events) = check_scenario(&sc);
    let shrunk = if violations.is_empty() {
        None
    } else {
        // Minimize while the scenario keeps failing *any* oracle. The
        // shrinker itself is deterministic, so the shrunk overrides are
        // part of the reproducible outcome; the incoming overrides (the
        // corpus entry or chaos fault family) are its fixed context.
        Some(shrink::shrink(seed, overrides, |cand| !check_scenario(cand).0.is_empty()))
    };
    SeedOutcome {
        seed,
        desc: sc.describe(),
        violations,
        shrunk,
        fairness,
    }
}

/// Run a campaign of `count` consecutive seeds starting at `base_seed` on
/// `pool`. Outcomes come back in seed order whatever the thread count.
pub fn run_campaign(base_seed: u64, count: u64, pool: &TrialPool) -> CampaignReport {
    let seeds: Vec<u64> = (0..count).map(|i| base_seed.wrapping_add(i)).collect();
    let outcomes = pool.map(seeds, |_, seed| check_seed(seed, Overrides::default()));
    CampaignReport::new(base_seed, outcomes)
}

/// Run a chaos campaign: `count` consecutive seeds, each checked under
/// the seed-derived chaos plan of a fault family cycled deterministically
/// from [`FaultFamily::ALL`]. Same report contract as [`run_campaign`]:
/// outcomes in seed order, bytes independent of thread count.
pub fn run_chaos_campaign(base_seed: u64, count: u64, pool: &TrialPool) -> CampaignReport {
    let seeds: Vec<u64> = (0..count).map(|i| base_seed.wrapping_add(i)).collect();
    let outcomes = pool.map(seeds, |_, seed| {
        let fam = FaultFamily::ALL[(seed % FaultFamily::ALL.len() as u64) as usize];
        check_seed(
            seed,
            Overrides {
                faults: Some(fam),
                ..Overrides::default()
            },
        )
    });
    CampaignReport::new(base_seed, outcomes)
}

/// One corpus entry: a seed plus replay overrides.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CorpusEntry {
    pub seed: u64,
    pub overrides: Overrides,
}

/// Parse a regression corpus: one `seed [--flows N] [--dur-ms M]
/// [--faults F]` per line, `#` comments and blank lines ignored. Returns
/// `Err` naming the line on a bad seed or override (a corrupted corpus
/// must fail loudly, not silently shrink coverage).
pub fn parse_corpus(text: &str) -> Result<Vec<CorpusEntry>, String> {
    let mut entries = Vec::new();
    for (ln, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let seed = tokens
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| format!("corpus line {}: bad seed in {raw:?}", ln + 1))?;
        let overrides = Overrides::from_flags(tokens)
            .map_err(|e| format!("corpus line {}: {e} in {raw:?}", ln + 1))?;
        entries.push(CorpusEntry { seed, overrides });
    }
    Ok(entries)
}

/// Replay every corpus entry on `pool`; outcomes in corpus order.
pub fn run_corpus(entries: &[CorpusEntry], pool: &TrialPool) -> CampaignReport {
    let base_seed = entries.first().map_or(0, |e| e.seed);
    let jobs: Vec<CorpusEntry> = entries.to_vec();
    let outcomes = pool.map(jobs, |_, e| check_seed(e.seed, e.overrides));
    CampaignReport::new(base_seed, outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_parses_seeds_comments_and_overrides() {
        let text = "# regression corpus\n7\n12 --flows 2 --dur-ms 500 # shrunk\n\n  42 --dur-ms 250 --faults flap\n";
        let entries = parse_corpus(text).unwrap();
        assert_eq!(
            entries,
            vec![
                CorpusEntry {
                    seed: 7,
                    overrides: Overrides::default()
                },
                CorpusEntry {
                    seed: 12,
                    overrides: Overrides {
                        flows: Some(2),
                        dur_ms: Some(500),
                        faults: None,
                    }
                },
                CorpusEntry {
                    seed: 42,
                    overrides: Overrides {
                        flows: None,
                        dur_ms: Some(250),
                        faults: Some(FaultFamily::Flap),
                    }
                },
            ]
        );
    }

    #[test]
    fn chaos_overrides_realize_into_armed_scenarios() {
        // A chaos override must arm the scenario with a non-empty plan
        // and surface the family in the description, while the same seed
        // without the override stays clean (the inertness contract).
        for seed in 0..FaultFamily::ALL.len() as u64 {
            let fam = FaultFamily::ALL[(seed % FaultFamily::ALL.len() as u64) as usize];
            let ov = Overrides {
                faults: Some(fam),
                ..Overrides::default()
            };
            let sc = ov.realize(seed);
            assert!(!sc.fault_plan().is_empty(), "seed {seed} {fam}");
            assert!(sc.describe().ends_with(&format!(" faults={fam}")), "{}", sc.describe());
            let clean = Overrides::default().realize(seed);
            assert!(clean.fault_plan().is_empty());
            assert!(!clean.describe().contains("faults="));
        }
    }

    #[test]
    fn malformed_corpus_is_an_error() {
        assert!(parse_corpus("not-a-seed\n").is_err());
        assert!(parse_corpus("# fine\n").unwrap().is_empty());
        // Typos in an override fail loudly and name their line.
        for bad in ["--dur_ms 500", "--faults stal", "--flows two", "--dur-ms", "flows=2"] {
            let err = parse_corpus(&format!("7\n12 {bad}\n")).unwrap_err();
            assert!(err.starts_with("corpus line 2:"), "{bad}: {err}");
            assert!(err.contains(bad), "{bad}: {err}");
        }
    }
}
