//! Call-graph construction and the transitive hot-path analyses.
//!
//! Entry points are the enqueue/dequeue/rotate functions defined in the
//! dataplane crates (the scope of R5's row in `rules::RULES`). A
//! deterministic BFS over the resolved call edges yields, for every
//! reachable function, the chain of calls that makes it hot; rules R5
//! (panic-freedom) and R12 (overflow-safe counters) are then evaluated
//! over that reachable set, and every finding carries its reachability
//! trace.

use crate::index::SymbolIndex;
use crate::rules::{hot_fn, Rule, Violation};
use std::collections::BTreeMap;

/// Fn ids of the hot entry points, ordered by (file, line) so BFS parent
/// selection — and therefore every printed trace — is deterministic.
pub fn hot_entries(ix: &SymbolIndex) -> Vec<usize> {
    let mut out: Vec<usize> = (0..ix.fns.len())
        .filter(|&id| {
            let e = &ix.fns[id];
            hot_fn(&e.def.name) && Rule::R5.info().scope.contains(&e.file)
        })
        .collect();
    out.sort_by(|&a, &b| {
        (&ix.fns[a].file, ix.fns[a].def.line).cmp(&(&ix.fns[b].file, ix.fns[b].def.line))
    });
    out
}

/// BFS from `entries`; returns each reachable fn id mapped to its parent
/// (`None` for entries). First discovery wins, so traces follow the
/// shortest call chain from the earliest entry.
pub fn reachable(ix: &SymbolIndex, entries: &[usize]) -> BTreeMap<usize, Option<usize>> {
    let mut parent: BTreeMap<usize, Option<usize>> = BTreeMap::new();
    let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    for &e in entries {
        if !parent.contains_key(&e) {
            parent.insert(e, None);
            queue.push_back(e);
        }
    }
    while let Some(id) = queue.pop_front() {
        let caller = &ix.fns[id];
        let mut callees: Vec<usize> = caller
            .def
            .calls
            .iter()
            .flat_map(|c| ix.resolve(caller, &c.kind))
            .collect();
        callees.sort_unstable();
        callees.dedup();
        for callee in callees {
            if let std::collections::btree_map::Entry::Vacant(v) = parent.entry(callee) {
                v.insert(Some(id));
                queue.push_back(callee);
            }
        }
    }
    parent
}

/// The call chain entry → .. → `id`, rendered as
/// `name (file:line)` segments.
fn trace_of(ix: &SymbolIndex, parent: &BTreeMap<usize, Option<usize>>, id: usize) -> Vec<String> {
    let mut chain = vec![id];
    let mut cur = id;
    while let Some(Some(p)) = parent.get(&cur) {
        chain.push(*p);
        cur = *p;
    }
    chain.reverse();
    chain
        .into_iter()
        .map(|f| {
            let e = &ix.fns[f];
            format!("{} ({}:{})", e.def.name, e.file, e.def.line)
        })
        .collect()
}

/// Monotone-counter naming convention: suffixes the workspace uses for
/// cumulative statistics, plus the bare stat names the qdiscs carry.
const COUNTER_SUFFIXES: [&str; 9] = [
    "_pkts", "_bytes", "_drops", "_total", "_marked", "_rotations", "_recomputes", "_rounds",
    "_changes",
];
const COUNTER_NAMES: [&str; 2] = ["rotations", "recomputes"];

pub fn is_monotone_counter(name: &str) -> bool {
    COUNTER_SUFFIXES.iter().any(|s| name.ends_with(s))
        || COUNTER_NAMES.contains(&name)
}

/// Run the transitive hot-path rules (R5, R12) over the whole index.
pub fn run_hot_path_rules(ix: &SymbolIndex, out: &mut Vec<Violation>) {
    let entries = hot_entries(ix);
    let parent = reachable(ix, &entries);
    for (&id, _) in &parent {
        let e = &ix.fns[id];
        let trace = trace_of(ix, &parent, id);
        for p in &e.def.panics {
            out.push(Violation {
                file: e.file.clone(),
                line: p.line,
                rule: Rule::R5,
                message: format!(
                    "{} in `{}`, reachable from an enqueue/dequeue/rotate hot path; \
                     return an error or restructure so the invariant is type-guaranteed",
                    p.what, e.def.name
                ),
                trace: trace.clone(),
            });
        }
        for c in e.def.counter_ops.iter().filter(|c| is_monotone_counter(&c.name)) {
            out.push(Violation {
                file: e.file.clone(),
                line: c.line,
                rule: Rule::R12,
                message: format!(
                    "bare `{}` on counter `{}` in the hot path; use `saturating_*`/\
                     `checked_*` (or waive a gauge with its conservation invariant)",
                    c.op, c.name
                ),
                trace: trace.clone(),
            });
        }
    }
}
