//! What one benchmark run reports: named metrics with units, attempts and
//! failures, and the human-readable lines printed above the result.

use std::fmt::Write as _;

use crate::stats::Summary;
use crate::{unit_of, Metric};

pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Metric name and value, in reporting order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Lines for a human reader, printed before the result object.
    pub lines: Vec<String>,
}

impl Report {
    pub fn new(workload: &str, seed: u64) -> Report {
        Report {
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            lines: vec![format!("workload {workload}, seed {seed}")],
        }
    }

    pub fn note(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Count one checked operation; `failure` says why it failed, if it did.
    pub fn attempt(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(why) = failure {
            self.fail(why);
        }
    }

    /// Count a failure that is not tied to a counted attempt.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.lines.push(format!("FAILED {why}"));
    }

    /// Report a single measured value.
    pub fn value(&mut self, name: &'static str, value: f64) {
        self.lines
            .push(format!("{name:<34} {value:>16.6} {}", unit_of(name)));
        self.metrics.push((name, value));
    }

    /// Report a metric as the median over repetitions, with quartiles and n.
    pub fn summary(&mut self, name: &'static str, s: Summary) {
        self.lines.push(format!(
            "{name:<34} {:>16.6} {:<6} (min {:.6}, q1 {:.6}, q3 {:.6}, n {})",
            s.median,
            unit_of(name),
            s.min,
            s.q1,
            s.q3,
            s.n
        ));
        self.metrics.push((name, s.median));
    }

    /// Failures, or a metric that is missing, extra or not a finite number,
    /// make the run incorrect.
    pub fn correct(&self, expected: &[Metric]) -> bool {
        self.failed == 0
            && self.metrics.len() == expected.len()
            && expected.iter().all(|m| {
                self.metrics
                    .iter()
                    .any(|&(name, v)| name == m.name && v.is_finite())
            })
    }

    /// The result object the benchmark contract asks for, on one line.
    pub fn to_json(&self, expected: &[Metric]) -> String {
        let mut metrics = String::new();
        for (i, &(name, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push_str(", ");
            }
            // Non-finite values are not JSON; `correct` is already false.
            let value = if value.is_finite() { value } else { 0.0 };
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                unit_of(name)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(expected),
            self.attempted.max(1),
            self.failed,
        )
    }
}
