//! Deterministic failing-seed minimizer.
//!
//! A failing scenario is shrunk along dimensions that can be re-applied
//! from the replay line alone: fewer flows (halving) and a shorter run
//! (halving, then bisecting down to the shortest still-failing duration).
//! Because every generator dimension draws from its own forked RNG stream,
//! overriding one dimension never changes the others — the shrunk scenario
//! is the original scenario with fewer flows / less time, not a different
//! scenario.

use cebinae_faults::FaultFamily;

use crate::scenario::GenScenario;

/// Shortest duration the shrinker will propose: below this, slow-start
/// barely completes and every oracle is trivially green.
const MIN_DURATION_MS: u64 = 250;
const MIN_FLOWS: usize = 2;

/// Replayable overrides on top of a generated scenario, spelled as the
/// replay flags `--flows N --dur-ms M --faults FAMILY` both on the replay
/// one-liner and after the seed on a corpus line.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Overrides {
    pub flows: Option<usize>,
    pub dur_ms: Option<u64>,
    /// Chaos dimension. Unlike `flows`/`dur_ms` this is not a shrink
    /// target — the shrinker carries it unchanged through every candidate
    /// so a fault-campaign failure shrinks *within* its fault family.
    pub faults: Option<FaultFamily>,
}

impl Overrides {
    pub fn apply(&self, sc: &mut GenScenario) {
        if let Some(f) = self.flows {
            sc.n_flows = f.max(1);
        }
        if let Some(d) = self.dur_ms {
            sc.duration_ms = d.max(1);
        }
        if self.faults.is_some() {
            sc.fault_family = self.faults;
        }
        // Flows scheduled past the (possibly shortened) run would never
        // start; clamp into the arrival window the generator uses.
        let window = sc.duration_ms / 5;
        for s in &mut sc.starts_ms {
            *s = (*s).min(window);
        }
    }

    /// The generated scenario with these overrides applied.
    pub fn realize(&self, seed: u64) -> GenScenario {
        let mut sc = GenScenario::generate(seed);
        self.apply(&mut sc);
        sc
    }

    /// Extra CLI arguments for the replay one-liner ("" when empty).
    pub fn replay_args(&self) -> String {
        let mut s = String::new();
        if let Some(f) = self.flows {
            s.push_str(&format!(" --flows {f}"));
        }
        if let Some(d) = self.dur_ms {
            s.push_str(&format!(" --dur-ms {d}"));
        }
        if let Some(fam) = self.faults {
            s.push_str(&format!(" --faults {}", fam.label()));
        }
        s
    }

    /// Set the override a replay flag names. An unknown flag or an
    /// unparseable value is an error naming it, so a typo never silently
    /// replays the plain seed.
    pub fn set(&mut self, flag: &str, value: &str) -> Result<(), String> {
        let bad = || format!("bad value {value:?} for {flag}");
        match flag {
            "--flows" => self.flows = Some(value.parse().map_err(|_| bad())?),
            "--dur-ms" => self.dur_ms = Some(value.parse().map_err(|_| bad())?),
            "--faults" => self.faults = Some(FaultFamily::parse(value).ok_or_else(bad)?),
            _ => return Err(format!("unknown override {flag:?}")),
        }
        Ok(())
    }

    /// Parse a run of replay flags, as a corpus line carries them after
    /// its seed (a missing last value reads as "").
    pub fn from_flags<'a>(mut tokens: impl Iterator<Item = &'a str>) -> Result<Overrides, String> {
        let mut o = Overrides::default();
        while let Some(flag) = tokens.next() {
            o.set(flag, tokens.next().unwrap_or_default())?;
        }
        Ok(o)
    }
}

/// The complete replay one-liner for a (possibly shrunk) failing seed.
pub fn replay_line(seed: u64, o: &Overrides) -> String {
    format!("cargo run -p cebinae-check -- --replay {seed}{}", o.replay_args())
}

/// Minimize a failing seed: `fails` must return `true` while the scenario
/// still exhibits the failure. Deterministic — no randomness, a fixed
/// sequence of candidate simplifications, each kept only if the failure
/// persists. `base` carries the non-shrunk context the failure was found
/// under (e.g. the chaos fault family), preserved verbatim in every
/// candidate. Returns the smallest overrides found (possibly just `base`).
pub fn shrink(seed: u64, base: Overrides, fails: impl Fn(&GenScenario) -> bool) -> Overrides {
    let start = base.realize(seed);
    let mut cur = base;

    // 1. Halve the flow count while the failure persists.
    let mut flows = start.n_flows;
    while flows / 2 >= MIN_FLOWS {
        let cand = Overrides {
            flows: Some(flows / 2),
            ..cur
        };
        if fails(&cand.realize(seed)) {
            flows /= 2;
            cur = cand;
        } else {
            break;
        }
    }

    // 2. Halve the duration while the failure persists...
    let mut dur = start.duration_ms;
    while dur / 2 >= MIN_DURATION_MS {
        let cand = Overrides {
            dur_ms: Some(dur / 2),
            ..cur
        };
        if fails(&cand.realize(seed)) {
            dur /= 2;
            cur = cand;
        } else {
            break;
        }
    }
    // ...then bisect between the floor and the last failing duration.
    let mut lo = MIN_DURATION_MS; // not known to fail
    let mut hi = dur; // known to fail
    while hi.saturating_sub(lo) > MIN_DURATION_MS {
        let mid = lo + (hi - lo) / 2;
        let cand = Overrides {
            dur_ms: Some(mid),
            ..cur
        };
        if fails(&cand.realize(seed)) {
            hi = mid;
            cur = cand;
        } else {
            lo = mid;
        }
    }

    cur
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overrides_round_trip_corpus_tokens() {
        let o = Overrides {
            flows: Some(2),
            dur_ms: Some(500),
            faults: Some(FaultFamily::Burst),
        };
        let flags = o.replay_args();
        assert_eq!(flags, " --flows 2 --dur-ms 500 --faults burst");
        assert_eq!(Overrides::from_flags(flags.split_whitespace()), Ok(o));
        assert_eq!(Overrides::from_flags("".split_whitespace()), Ok(Overrides::default()));
    }

    #[test]
    fn replay_line_is_stable() {
        let o = Overrides {
            flows: Some(3),
            dur_ms: None,
            faults: None,
        };
        assert_eq!(
            replay_line(42, &o),
            "cargo run -p cebinae-check -- --replay 42 --flows 3"
        );
        assert_eq!(
            replay_line(7, &Overrides::default()),
            "cargo run -p cebinae-check -- --replay 7"
        );
        let chaos = Overrides {
            flows: None,
            dur_ms: Some(500),
            faults: Some(FaultFamily::Flap),
        };
        assert_eq!(
            replay_line(9, &chaos),
            "cargo run -p cebinae-check -- --replay 9 --dur-ms 500 --faults flap"
        );
    }

    #[test]
    fn shrink_reduces_flows_and_duration_against_a_synthetic_failure() {
        // Failure persists whenever the scenario still has >= 2 flows and
        // >= 300ms: the shrinker must ride it down to the floor.
        let fails = |sc: &GenScenario| sc.n_flows >= 2 && sc.duration_ms >= 300;
        let o = shrink(3, Overrides::default(), fails);
        let sc = o.realize(3);
        let base = GenScenario::generate(3);
        assert!(sc.n_flows >= 2 && sc.n_flows <= base.n_flows);
        // Repeated halving lands in [2, 3]: one more halving would go
        // below the floor.
        assert!(sc.n_flows <= 3, "flows not minimized: {}", sc.n_flows);
        assert!(sc.duration_ms >= 300);
        assert!(sc.duration_ms <= 300 + MIN_DURATION_MS, "bisect left {}", sc.duration_ms);
        assert!(fails(&sc), "shrunk scenario must still fail");
    }

    #[test]
    fn shrink_keeps_original_when_any_simplification_heals() {
        // A failure that vanishes under every candidate simplification:
        // shrink returns empty overrides (replay the original seed).
        let base = GenScenario::generate(9);
        let fails = |sc: &GenScenario| {
            sc.n_flows == base.n_flows && sc.duration_ms == base.duration_ms
        };
        assert_eq!(shrink(9, Overrides::default(), fails), Overrides::default());
    }

    #[test]
    fn shrink_preserves_the_fault_family_through_candidates() {
        let base = Overrides {
            flows: None,
            dur_ms: None,
            faults: Some(FaultFamily::Loss),
        };
        // Fails only while the chaos dimension is intact (and is broad
        // enough to keep shrinking): every candidate must carry it.
        let fails = |sc: &GenScenario| sc.fault_family == Some(FaultFamily::Loss);
        let o = shrink(5, base, fails);
        assert_eq!(o.faults, Some(FaultFamily::Loss));
        assert_eq!(o.realize(5).fault_family, Some(FaultFamily::Loss));
    }

    #[test]
    fn apply_clamps_starts_into_the_shortened_run() {
        // Pick a seed with late (non-symmetric) arrivals, then shrink the
        // duration far below the original arrival window.
        let mut seed = 0;
        let sc = loop {
            let sc = GenScenario::generate(seed);
            if !sc.symmetric && sc.starts_ms.iter().any(|&s| s > 60) {
                break sc;
            }
            seed += 1;
        };
        let o = Overrides {
            flows: None,
            dur_ms: Some(MIN_DURATION_MS),
            faults: None,
        };
        let shrunk = o.realize(sc.seed);
        assert!(shrunk.starts_ms.iter().all(|&s| s <= MIN_DURATION_MS / 5));
    }
}
