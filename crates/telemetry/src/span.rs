//! Virtual-time span profiling for event-loop phases.
//!
//! A span measures *simulated* nanoseconds between `enter` and `exit`, so
//! the numbers are part of the deterministic output (wall-clock profiling
//! would differ run to run and is banned in instrumented crates by verify
//! rule R1). Spans nest: a child's elapsed time is subtracted from the
//! parent's *self* time, so a phase breakdown sums to the outermost span.

use std::collections::BTreeMap;

/// Accumulated statistics of one named span.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Completed enter/exit pairs.
    pub entries: u64,
    /// Virtual nanoseconds attributed to this span excluding children.
    pub self_ns: u64,
    /// Virtual nanoseconds including children.
    pub total_ns: u64,
}

struct ActiveSpan {
    /// Index into [`SpanStack::done`].
    id: usize,
    start_ns: u64,
    child_ns: u64,
}

/// A stack of active spans plus per-name accumulated totals.
///
/// Names are interned on `enter` into a small vector (an event loop has
/// about ten phases), so the per-event `exit` is an indexed add; the
/// totals are put in name order only when exported.
#[derive(Default)]
pub struct SpanStack {
    active: Vec<ActiveSpan>,
    done: Vec<(&'static str, SpanStats)>,
}

impl SpanStack {
    pub fn new() -> SpanStack {
        SpanStack::default()
    }

    /// Slot of `name` in `done`, added on first sight. A call site passes
    /// the same literal every time, so the address-and-length test
    /// settles a hit without reading the string; the comparison behind it
    /// merges equal literals the compiler placed at different addresses.
    #[inline]
    fn intern(&mut self, name: &'static str) -> usize {
        let found = self.done.iter().position(|&(n, _)| std::ptr::eq(n, name) || n == name);
        found.unwrap_or_else(|| {
            self.done.push((name, SpanStats::default()));
            self.done.len() - 1
        })
    }

    /// Open a span at virtual time `now_ns`.
    #[inline]
    pub fn enter(&mut self, name: &'static str, now_ns: u64) {
        let id = self.intern(name);
        self.active.push(ActiveSpan {
            id,
            start_ns: now_ns,
            child_ns: 0,
        });
    }

    /// Close the innermost span at virtual time `now_ns`. Returns the
    /// closed span's name, or `None` on an unbalanced exit (ignored rather
    /// than panicking: telemetry must never kill a simulation).
    #[inline]
    pub fn exit(&mut self, now_ns: u64) -> Option<&'static str> {
        let span = self.active.pop()?;
        let elapsed = now_ns.saturating_sub(span.start_ns);
        if let Some(parent) = self.active.last_mut() {
            parent.child_ns = parent.child_ns.saturating_add(elapsed);
        }
        let (name, stats) = self.done.get_mut(span.id)?;
        stats.entries += 1;
        stats.self_ns = stats.self_ns.saturating_add(elapsed.saturating_sub(span.child_ns));
        stats.total_ns = stats.total_ns.saturating_add(elapsed);
        Some(name)
    }

    /// Currently open spans.
    pub fn depth(&self) -> usize {
        self.active.len()
    }

    /// Accumulated stats of completed spans, in name order. A span that
    /// was entered but has never exited is not listed.
    pub fn stats(&self) -> BTreeMap<&'static str, SpanStats> {
        self.done.iter().filter(|(_, st)| st.entries > 0).copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_span_accumulates_entries_and_time() {
        let mut s = SpanStack::new();
        s.enter("arrive", 100);
        assert_eq!(s.depth(), 1);
        assert_eq!(s.exit(150), Some("arrive"));
        s.enter("arrive", 200);
        s.exit(260);
        let st = s.stats()["arrive"];
        assert_eq!(st.entries, 2);
        assert_eq!(st.self_ns, 110);
        assert_eq!(st.total_ns, 110);
        assert_eq!(s.depth(), 0);
    }

    #[test]
    fn nested_spans_attribute_self_time_to_each_level() {
        let mut s = SpanStack::new();
        s.enter("outer", 0);
        s.enter("inner", 10);
        assert_eq!(s.depth(), 2);
        s.exit(40); // inner: 30 ns
        s.exit(100); // outer: 100 ns total, 70 ns self
        let outer = s.stats()["outer"];
        let inner = s.stats()["inner"];
        assert_eq!(inner.total_ns, 30);
        assert_eq!(inner.self_ns, 30);
        assert_eq!(outer.total_ns, 100);
        assert_eq!(outer.self_ns, 70);
        // Self times of all levels sum to the outermost total.
        assert_eq!(outer.self_ns + inner.self_ns, outer.total_ns);
    }

    #[test]
    fn deep_nesting_propagates_child_time_one_level() {
        let mut s = SpanStack::new();
        s.enter("a", 0);
        s.enter("b", 0);
        s.enter("c", 0);
        s.exit(10); // c: 10
        s.exit(30); // b: 30 total, 20 self
        s.exit(60); // a: 60 total, 30 self
        assert_eq!(s.stats()["c"].self_ns, 10);
        assert_eq!(s.stats()["b"].self_ns, 20);
        assert_eq!(s.stats()["a"].self_ns, 30);
    }

    #[test]
    fn export_is_name_ordered_and_lists_only_completed_spans() {
        // Names are interned in first-seen order; the export must not
        // show that, nor a span that is still open (the `sample` phase is
        // open while the sample it triggers is rendered).
        let mut s = SpanStack::new();
        s.enter("sample", 0);
        s.enter("dequeue", 0);
        s.exit(4);
        s.enter("arrive", 4);
        s.exit(9);
        let names: Vec<&str> = s.stats().into_keys().collect();
        assert_eq!(names, vec!["arrive", "dequeue"]);
        s.exit(9);
        // An equal name from another allocation lands in the same slot.
        let other: &'static str = String::from("arrive").leak();
        s.enter(other, 9);
        s.exit(10);
        assert_eq!(s.stats()["arrive"].entries, 2);
        assert_eq!(s.stats().len(), 3);
    }

    #[test]
    fn unbalanced_exit_is_ignored() {
        let mut s = SpanStack::new();
        assert_eq!(s.exit(10), None);
        assert!(s.stats().is_empty());
    }

    #[test]
    fn sibling_spans_reenter_cleanly() {
        let mut s = SpanStack::new();
        s.enter("p", 0);
        s.enter("x", 0);
        s.exit(5);
        s.enter("x", 5);
        s.exit(12);
        s.exit(20);
        let x = s.stats()["x"];
        assert_eq!(x.entries, 2);
        assert_eq!(x.total_ns, 12);
        assert_eq!(s.stats()["p"].self_ns, 8);
    }
}
