//! Spans recorded by the benchmark around its calls into each layer.
//!
//! One span per driver phase and per batch of calls — never per call: a
//! 50 ns call would be swamped by the two clock reads around it. Spans
//! stay in memory during the run and are written out once, at the end.

use std::fmt::Write as _;
use std::time::Instant;

use crate::host;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls into the layer this span covers (0 for a pure phase span).
    pub calls: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects the spans of one traced run. All spans share the workload id.
pub struct Tracer {
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &'static str) -> Tracer {
        Tracer {
            workload,
            origin: host::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a new span that is a child of the innermost open
    /// one. `f` returns its result and the number of layer calls it made;
    /// the span's host seconds come back alongside the result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> (T, u64),
    ) -> (T, f64) {
        let id = self.spans.len();
        let start_ns = self.elapsed_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            calls: 0,
        });
        self.open.push(id);
        let (out, calls) = f(self);
        self.open.pop();
        let end_ns = self.elapsed_ns();
        self.spans[id].end_ns = end_ns;
        self.spans[id].calls = calls;
        (out, (end_ns - start_ns) as f64 / 1e9)
    }

    /// A span around one batch of `calls` calls with no child spans.
    pub fn batch<T>(&mut self, name: &'static str, calls: u64, f: impl FnOnce() -> T) -> (T, f64) {
        self.span(name, |_| (f(), calls))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per span, in start order.
    pub fn to_ndjson(&self) -> String {
        let self_ns = self_times_ns(&self.spans);
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"workload\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"calls\":{}}}",
                self.workload, s.name, s.start_ns, s.end_ns, self_ns[id], s.calls
            );
        }
        out
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover. Children of one parent never overlap (one
/// thread records them), so that part is the sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut self_ns: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            self_ns[p] = self_ns[p].saturating_sub(s.duration_ns());
        }
    }
    self_ns
}

/// Total self time, in seconds, of the spans called `name`.
pub fn self_secs_of(spans: &[Span], name: &str) -> f64 {
    let self_ns = self_times_ns(spans);
    spans
        .iter()
        .zip(&self_ns)
        .filter(|(s, _)| s.name == name)
        .map(|(_, &ns)| ns as f64 / 1e9)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
            calls: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span("run", None, 0, 1000),
            span("engine", Some(0), 100, 600),
            span("replay", Some(0), 600, 900),
            span("replay.batch", Some(2), 650, 850),
            span("other", None, 1000, 1200),
        ];
        // run: 1000 - (500 + 300); the grandchild only charges `replay`.
        assert_eq!(self_times_ns(&spans), vec![200, 500, 100, 200, 200]);
        assert_eq!(self_secs_of(&spans, "replay"), 100e-9);
    }

    #[test]
    fn tracer_nests_spans_and_counts_calls() {
        let mut t = Tracer::new("w");
        let (v, secs) = t.span("outer", |t| {
            let (x, _) = t.batch("inner", 7, || 41);
            (x + 1, 0)
        });
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!(
            (spans[1].name, spans[1].parent, spans[1].calls),
            ("inner", Some(0), 7)
        );
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let nd = t.to_ndjson();
        assert_eq!(nd.lines().count(), 2);
        assert!(
            nd.contains("\"workload\":\"w\"")
                && nd.contains("\"parent\":0")
                && nd.contains("\"calls\":7")
        );
    }
}
