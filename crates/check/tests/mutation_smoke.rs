//! Mutation smoke test: the differential oracle must catch a deliberately
//! injected LBF off-by-one, and the shrink machinery must reduce the
//! failing seed to a replayable one-liner.
//!
//! This is the end-to-end proof that the oracle has teeth. The faithful
//! filter stays inside the vdT error envelope on every smoke seed (pinned
//! by `check_differential` in campaigns and by the model unit tests); here
//! we wire a head-admission off-by-one (`past_head <= MTU` instead of
//! `<= 0`) into the same pipeline and demand a caught, shrunk, replayable
//! failure.

use cebinae_check::model::{run_diff, DiffParams, Mutation};
use cebinae_check::scenario::GenScenario;
use cebinae_check::shrink::{self, replay_line, Overrides};

/// The differential oracle with a mutated device-under-test, shaped
/// exactly like `oracle::check_differential` but injecting `mutation`.
fn mutated_diff_fails(sc: &GenScenario, mutation: Mutation) -> bool {
    let cfg = sc.cebinae_config(sc.bottleneck_bps);
    let params = DiffParams::from_config(&cfg, sc.bottleneck_bps);
    !run_diff(sc.seed, params, mutation).within_envelope()
}

#[test]
fn injected_off_by_one_is_caught_and_shrunk_to_a_replayable_seed() {
    // Find a smoke seed where the off-by-one escapes the envelope. The
    // model unit tests pin >= 7/8 detection, so the first few seeds must
    // contain one; scanning keeps this robust to scenario-generator
    // drift without weakening the assertion.
    let caught = (0..16u64)
        .map(GenScenario::generate)
        .find(|sc| mutated_diff_fails(sc, Mutation::HeadSlackOneMtu));
    let sc = caught.expect("off-by-one mutation escaped the differential oracle on 16 seeds");

    // The same seed with a faithful filter stays inside the envelope:
    // the oracle is catching the mutation, not the scenario.
    assert!(
        !mutated_diff_fails(&sc, Mutation::None),
        "seed {} flags the faithful filter too; the detection is vacuous",
        sc.seed
    );

    // Shrink against the mutated oracle and verify the minimized
    // overrides still reproduce the failure.
    let shrunk = shrink::shrink(sc.seed, Overrides::default(), |cand| {
        mutated_diff_fails(cand, Mutation::HeadSlackOneMtu)
    });
    let minimized = shrunk.realize(sc.seed);
    assert!(
        mutated_diff_fails(&minimized, Mutation::HeadSlackOneMtu),
        "shrunk overrides no longer reproduce the failure"
    );

    // The failure comes with a copy-pasteable replay one-liner.
    let line = replay_line(sc.seed, &shrunk);
    assert!(
        line.starts_with(&format!("cargo run -p cebinae-check -- --replay {}", sc.seed)),
        "unexpected replay line: {line}"
    );
}

#[test]
fn rotate_double_credit_is_caught_on_a_smoke_seed() {
    let caught = (0..16u64)
        .map(GenScenario::generate)
        .any(|sc| mutated_diff_fails(&sc, Mutation::RotateDoubleCredit));
    assert!(caught, "double-credit mutation escaped the differential oracle on 16 seeds");
}
