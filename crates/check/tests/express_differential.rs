//! The express path under the slow path's oracles.
//!
//! Every scenario the fuzzer's gates run — the committed corpus and the
//! chaos grid (16 generated seeds x every fault family) — is executed
//! twice, on the default per-link express path and with `express = false`
//! (full event-driven emulation, the reference), and both runs face the
//! same judges:
//!
//! * every per-run oracle (`judge_run`) is green on both;
//! * every link, express-served or not, conserves bytes:
//!   `enq == tx + drop_queued + still-queued`, with the backlog inside
//!   the buffer;
//! * with a single flow nothing can reorder, so the single-flow cut of
//!   every corpus entry is bit-equal across the two paths: deliveries,
//!   completion times, the bottleneck packet trace and counters, and
//!   every link's transmissions;
//! * with several flows the one documented deviation applies — a shared
//!   express link serves packets of *different* flows in the order their
//!   segments started, which is the reference's arrival order except
//!   when two of them reach it within the difference of their upstream
//!   latencies (the same nanosecond, on a dumbbell). Its measured size is
//!   pinned here: on the chaos grid 118 of 128 scenarios (corpus: 18 of
//!   20) deliver the identical bytes per flow, the worst one (a 5-flow
//!   parking lot with a 50-MTU buffer under reordering) drifts 5.4% in
//!   aggregate, and the grid as a whole 0.013% (corpus: 0.23%).

use cebinae_check::scenario::GenScenario;
use cebinae_check::shrink::Overrides;
use cebinae_check::{judge_run, parse_corpus};
use cebinae_engine::{SimResult, Simulation};
use cebinae_faults::FaultFamily;
use cebinae_net::QdiscStats;
use cebinae_par::TrialPool;

/// Largest relative gap in aggregate delivered bytes tolerated between
/// the express and the reference run of *one* multi-flow scenario: a
/// reordered tie on a short lossy run can tip a loss-recovery episode.
const SCENARIO_BOUND: f64 = 0.06;
/// ... and over a whole scenario set, where such episodes average out.
const SET_BOUND: f64 = 0.005;
/// Share of a set's multi-flow scenarios that must deliver bit-equal
/// per-flow bytes on both paths.
const EXACT_SHARE: f64 = 0.75;

fn run(sc: &GenScenario, express: bool) -> SimResult {
    let (mut cfg, _) = sc.build();
    cfg.express = express;
    Simulation::new(cfg).run()
}

/// Oracles and per-link conservation for one run; the failures, if any.
fn judge(sc: &GenScenario, path: &str, res: &SimResult) -> Vec<String> {
    let mut bad: Vec<String> = judge_run(sc, res)
        .into_iter()
        .map(|v| format!("{path}: oracle {}: {}", v.oracle, v.detail))
        .collect();
    for (i, s) in res.link_stats.iter().enumerate() {
        let queued = res.link_queued_bytes[i];
        if s.enq_bytes != s.tx_bytes + s.drop_queued_bytes + queued {
            bad.push(format!(
                "{path}: link {i}: enq_bytes {} != tx {} + drop_queued {} + queued {queued}",
                s.enq_bytes, s.tx_bytes, s.drop_queued_bytes
            ));
        }
        if queued > res.link_limits[i] {
            bad.push(format!(
                "{path}: link {i}: backlog {queued} B over limit {}",
                res.link_limits[i]
            ));
        }
    }
    bad
}

/// What must agree exactly when nothing can reorder: the full stats of
/// the bottlenecks (always event-driven) and every link's transmissions.
/// Admission counters elsewhere are left out: an express link admits a
/// packet when its segment starts, so at the end its `enq_*`, backlog
/// and peak also count the packets still on their way to it.
fn settled(res: &SimResult) -> (Vec<QdiscStats>, Vec<(u64, u64)>) {
    (
        res.monitored_links
            .iter()
            .map(|l| res.link_stats[l.index()])
            .collect(),
        res.link_stats
            .iter()
            .map(|s| (s.tx_pkts, s.tx_bytes))
            .collect(),
    )
}

/// One scenario run on both paths and judged on both.
struct Outcome {
    failures: Vec<String>,
    multi_flow: bool,
    /// Aggregate delivered bytes: express, reference.
    delivered: (u64, u64),
    /// Per-flow delivered bytes agree exactly.
    exact: bool,
}

fn differential(sc: &GenScenario) -> Outcome {
    let (fast, full) = (run(sc, true), run(sc, false));
    let mut bad = judge(sc, "express", &fast);
    bad.extend(judge(sc, "reference", &full));
    if fast.events_processed >= full.events_processed {
        bad.push(format!(
            "express dispatched {} events, reference {}: nothing was served analytically",
            fast.events_processed, full.events_processed
        ));
    }
    let delivered: (u64, u64) = (fast.delivered.iter().sum(), full.delivered.iter().sum());
    if sc.n_flows == 1 {
        let same = fast.delivered == full.delivered
            && fast.completed_at == full.completed_at
            && settled(&fast) == settled(&full)
            && fast.trace.records().eq(full.trace.records());
        if !same {
            bad.push(format!(
                "single flow is not bit-equal: delivered {:?} vs {:?}",
                fast.delivered, full.delivered
            ));
        }
    } else {
        let gap = (delivered.0 as f64 - delivered.1 as f64).abs() / delivered.1.max(1) as f64;
        if gap > SCENARIO_BOUND {
            bad.push(format!(
                "aggregate delivered: express {} vs reference {} ({:.2}%)",
                delivered.0,
                delivered.1,
                gap * 100.0
            ));
        }
    }
    Outcome {
        failures: bad
            .into_iter()
            .map(|b| format!("{}: {b}", sc.describe()))
            .collect(),
        multi_flow: sc.n_flows > 1,
        delivered,
        exact: fast.delivered == full.delivered,
    }
}

fn assert_all_green(scenarios: Vec<GenScenario>) {
    let outcomes = TrialPool::with_threads(4).map(scenarios, |_, sc| differential(&sc));
    let multi: Vec<&Outcome> = outcomes.iter().filter(|o| o.multi_flow).collect();
    let (fast, full) = multi.iter().fold((0u64, 0u64), |(a, b), o| {
        (a + o.delivered.0, b + o.delivered.1)
    });
    let gap = (fast as f64 - full as f64).abs() / full.max(1) as f64;
    let exact = multi.iter().filter(|o| o.exact).count();
    let mut failures = Vec::new();
    if gap > SET_BOUND {
        failures.push(format!(
            "set delivered: express {fast} vs reference {full} ({:.3}%)",
            gap * 100.0
        ));
    }
    if (exact as f64) < EXACT_SHARE * multi.len() as f64 {
        failures.push(format!(
            "only {exact} of {} multi-flow scenarios are bit-equal",
            multi.len()
        ));
    }
    failures.extend(outcomes.into_iter().flat_map(|o| o.failures));
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn corpus_is_green_on_both_paths_and_single_flow_cuts_are_bit_equal() {
    let text = include_str!("../corpus/seeds.txt");
    let entries = parse_corpus(text).expect("parse regression corpus");
    assert!(
        entries.len() >= 20,
        "corpus shrank to {} entries",
        entries.len()
    );
    let mut scenarios = Vec::new();
    for e in &entries {
        scenarios.push(e.overrides.realize(e.seed));
        scenarios.push(
            Overrides {
                flows: Some(1),
                ..e.overrides
            }
            .realize(e.seed),
        );
    }
    assert_all_green(scenarios);
}

#[test]
fn chaos_grid_is_green_on_both_paths() {
    let scenarios = (0..16u64)
        .flat_map(|seed| {
            FaultFamily::ALL.iter().map(move |&fam| {
                Overrides {
                    faults: Some(fam),
                    ..Overrides::default()
                }
                .realize(seed)
            })
        })
        .collect();
    assert_all_green(scenarios);
}
