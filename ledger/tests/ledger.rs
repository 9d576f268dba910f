//! The ledger against its own contract: `BENCHMARK.json` names exactly
//! what the binary prints, every workload builds and balances its books,
//! and the digest tells two seeds apart.

use cebinae_ledger::timed;
use cebinae_ledger::traced;
use cebinae_ledger::workloads::{self, Inputs, Workload, WORKLOADS};
use cebinae_ledger::{Metric, END_TO_END, PER_LAYER};
use cebinae_sim::Duration;

/// `w`'s inputs cut to a fraction of a simulated second, so a debug-build
/// test finishes quickly. Slow start is not over by then, so callers
/// relax the utilisation floor.
fn short_inputs(w: &Workload, seed: u64) -> Inputs {
    let mut inputs = w.inputs(seed);
    inputs.params.duration = Duration::from_millis(if w.name.starts_with("fig11") {
        1_500
    } else {
        300
    });
    inputs
}

fn relaxed(name: &str) -> Workload {
    let mut w = *workloads::find(name).expect("known workload");
    w.min_utilisation = 0.0;
    w
}

// ---------------------------------------------------------------------------
// BENCHMARK.json <-> the tables in code
// ---------------------------------------------------------------------------

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
}

/// The objects of the top-level array `key`, each as its `"k": "v"` string
/// fields in file order. Enough JSON for a file this crate's own tables
/// generate; anything unexpected fails the comparison below.
fn objects_of(doc: &str, key: &str) -> Vec<Vec<(String, String)>> {
    let start = doc
        .find(&format!("\"{key}\": ["))
        .unwrap_or_else(|| panic!("no {key} array"));
    let body = &doc[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split('{')
        .skip(1)
        .map(|obj| {
            let obj = &obj[..obj.find('}').expect("object closes")];
            let parts: Vec<&str> = obj.split('"').collect();
            // "k": "v" tokenises as [_, k, ": ", v, sep, k, ": ", v, ...].
            parts
                .chunks(4)
                .filter(|c| c.len() == 4 && c[2].trim() == ":")
                .map(|c| (c[1].to_string(), c[3].to_string()))
                .collect()
        })
        .collect()
}

fn field<'a>(obj: &'a [(String, String)], key: &str) -> &'a str {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
        .unwrap_or_else(|| panic!("no {key} in {obj:?}"))
}

fn assert_metrics_match(doc: &str, key: &str, table: &[Metric]) {
    let listed = objects_of(doc, key);
    let listed: Vec<(&str, &str, &str)> = listed
        .iter()
        .map(|o| (field(o, "name"), field(o, "unit"), field(o, "better")))
        .collect();
    let ours: Vec<(&str, &str, &str)> = table
        .iter()
        .map(|m| (m.name, m.unit, m.better.label()))
        .collect();
    assert_eq!(
        listed, ours,
        "{key} of BENCHMARK.json and the table in src/lib.rs differ"
    );
}

#[test]
fn benchmark_json_lists_exactly_the_ledgers_workloads_and_metrics() {
    let doc = benchmark_json();
    let listed = objects_of(&doc, "workloads");
    let listed: Vec<(&str, &str)> = listed
        .iter()
        .map(|o| (field(o, "name"), field(o, "why")))
        .collect();
    let ours: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(
        listed, ours,
        "workloads of BENCHMARK.json and WORKLOADS differ"
    );
    assert_metrics_match(&doc, "end_to_end", &END_TO_END);
    assert_metrics_match(&doc, "per_layer", &PER_LAYER);
    assert!(
        END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"),
        "the contract requires setup_s"
    );
    assert!(
        doc.contains("\"ledger/Cargo.toml\""),
        "the command builds this package"
    );
}

#[test]
fn metric_and_workload_names_are_unique_and_well_formed() {
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|m| m.name)
        .chain(WORKLOADS.iter().map(|w| w.name))
        .collect();
    for n in &names {
        assert!(
            n.len() <= 64
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad name {n:?}"
        );
    }
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");
    assert!(PER_LAYER.len() <= 128 && WORKLOADS.len() <= 8);
}

// ---------------------------------------------------------------------------
// What the binary prints
// ---------------------------------------------------------------------------

fn printed_names(json: &str) -> Vec<String> {
    let metrics = &json[json.find("\"metrics\": {").expect("metrics object") + 12..];
    metrics
        .split("\": {\"value\"")
        .filter_map(|head| head.rsplit('"').next())
        .map(str::to_string)
        .take_while(|n| !n.contains('}'))
        .collect()
}

#[test]
fn timed_run_prints_every_end_to_end_metric_and_nothing_else() {
    let w = relaxed("t2r14_observed");
    let report = timed::run(&w, &short_inputs(&w, 1), 0.0);
    assert!(report.correct(&END_TO_END), "{:#?}", report.lines);
    assert_eq!(report.attempted, 3, "three repetitions at least");
    let json = report.to_json(&END_TO_END);
    assert!(
        json.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {"),
        "{json}"
    );
    let expected: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    assert_eq!(printed_names(&json), expected);
    for (name, value) in &report.metrics {
        assert!(*value > 0.0, "{name} must never read 0, got {value}");
    }
}

#[test]
fn traced_run_prints_every_per_layer_metric_and_writes_spans_for_every_driver() {
    let w = relaxed("fig11_chaos");
    let dir = std::env::temp_dir().join(format!("cebinae-ledger-test-{}", std::process::id()));
    let report = traced::run(&w, short_inputs(&w, 1), &dir);
    assert!(report.correct(&PER_LAYER), "{:#?}", report.lines);
    let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    assert_eq!(printed_names(&report.to_json(&PER_LAYER)), expected);

    let value = |name: &str| {
        report
            .metrics
            .iter()
            .find(|(n, _)| *n == name)
            .expect(name)
            .1
    };
    assert!(
        value("faults.injected_drop_pkts") > 0.0,
        "the chaos plan must have dropped packets"
    );
    assert!(value("core.rotations") >= 3.0, "three Cebinae hops rotate");
    assert!(value("trace.overhead_ratio") > 0.0 && value("engine.residual_share") < 1.0);
    assert!(
        report
            .lines
            .iter()
            .filter(|l| l.starts_with("prediction:"))
            .count()
            >= 3
    );

    let spans =
        std::fs::read_to_string(dir.join("spans-fig11_chaos.ndjson")).expect("spans written");
    std::fs::remove_dir_all(&dir).ok();
    for driver in [
        "engine.base",
        "engine.heap",
        "engine.express_off",
        "engine.telemetry_flipped",
        "engine.traced",
        "engine.faults_off",
        "engine.build",
        "engine.new",
        "engine.run",
        "metrics.post",
        "host.calib",
        "check.conservation",
        "check.replay",
        "net.fifo_replay",
        "fq.fqcodel_replay",
        "fq.afq_replay",
        "core.qdisc_replay",
        "core.lbf_classify",
        "core.agent_recompute",
        "core.cache_update",
        "sim.sched_replay",
        "ds.detmap_get",
        "ds.detmap_churn",
        "ds.sorted_view",
        "telemetry.sample",
        "sweep.cebinae",
        "sweep.fqcodel",
        "sweep.afq",
        "transport.ack_batch",
        "transport.rx_in_order",
        "transport.rx_out_of_order",
        "par.noop_jobs",
        "par.batch_serial",
        "par.batch_2_threads",
    ] {
        assert!(
            spans.contains(&format!("\"name\":\"{driver}\"")),
            "no span for {driver}"
        );
    }
    assert!(spans
        .lines()
        .all(|l| l.contains("\"workload\":\"fig11_chaos\"") && l.contains("\"self_ns\":")));
}

// ---------------------------------------------------------------------------
// Workload builders and the digest
// ---------------------------------------------------------------------------

#[test]
fn every_workload_builds_runs_and_balances_its_books() {
    for w in &WORKLOADS {
        let inputs = short_inputs(w, 1);
        let first = timed::rep(&inputs, 1).outcome;
        let again = timed::rep(&inputs, 2).outcome;
        assert!(
            first.tx_pkts > 0 && first.events > 0,
            "{}: nothing was simulated",
            w.name
        );
        assert!(
            first.goodput_mbps > 0.0 && first.jfi > 0.0 && first.jfi <= 1.0,
            "{}: {first:?}",
            w.name
        );
        assert_eq!(
            first.unbalanced_link, None,
            "{}: a link sent more than it took in",
            w.name
        );
        assert_eq!(
            again.differs_from(&first),
            None,
            "{}: a repetition must reproduce the first",
            w.name
        );
    }
}

#[test]
fn inputs_follow_the_seed() {
    let flows = |inputs: &Inputs| format!("{:?}", inputs.build().0.flows);
    for w in &WORKLOADS {
        let (a, b, other) = (w.inputs(7), w.inputs(7), w.inputs(8));
        assert_eq!(
            flows(&a),
            flows(&b),
            "{}: the same seed gives the same inputs",
            w.name
        );
        assert_eq!((a.params.seed, other.params.seed), (7, 8), "{}", w.name);
        // Only the many-flow assignment is shuffled; the paper's flow sets
        // are taken as they are.
        assert_eq!(
            flows(&a) != flows(&other),
            w.name.starts_with("many4096"),
            "{}",
            w.name
        );
    }
}

#[test]
fn sim_digest_is_stable_for_a_seed_and_differs_across_seeds() {
    // The seed drives the fault RNG streams, so the chaos run's packet
    // fates (and with them every counter in the digest) follow it.
    let w = workloads::find("fig11_chaos").expect("known workload");
    let digest = |seed| timed::rep(&short_inputs(w, seed), 1).outcome.sim_digest;
    assert_eq!(digest(1), digest(1));
    assert_ne!(digest(1), digest(2));
}
