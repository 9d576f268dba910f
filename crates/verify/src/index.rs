//! Workspace symbol index: every parsed function, addressable by free
//! name, by `(type, method)` pair, and by bare method name, plus the
//! crate-dependency relation used to prune impossible call edges.
//!
//! Call resolution is deliberately name-based and conservative-but-
//! pruned: a candidate callee is only admitted when its crate is in the
//! caller crate's transitive dependency closure (or is the caller's own
//! crate), so `.observe(..)` in `crates/core` can resolve to
//! `RoundClock::observe` but never to the telemetry registry that core
//! does not depend on. Methods whose names collide with std
//! collection/iterator vocabulary (`push`, `len`, `insert`, …) are never
//! resolved through the bare-name union — only through a known receiver
//! type — because the overwhelming majority of such call sites target
//! std types the index cannot see.

use crate::parser::{CallKind, FileFacts, FnDef};
use std::collections::BTreeMap;

/// A function in the index: which file it came from plus its parsed def.
#[derive(Clone, Debug)]
pub struct FnEntry {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    pub def: FnDef,
}

/// Direct intra-workspace dependencies of each crate, mirroring the
/// `Cargo.toml` graph. Unknown crates (fixture paths, future crates)
/// resolve permissively: all edges allowed.
const CRATE_DEPS: [(&str, &[&str]); 14] = [
    ("sim", &[]),
    ("net", &["sim"]),
    ("core", &["sim", "net"]),
    ("fq", &["sim", "net"]),
    ("transport", &["sim", "net"]),
    ("traffic", &["sim", "net"]),
    ("metrics", &["sim", "net"]),
    ("telemetry", &[]),
    ("par", &[]),
    ("verify", &[]),
    ("faults", &["sim", "net"]),
    (
        "engine",
        &["sim", "net", "faults", "transport", "fq", "core", "metrics", "telemetry"],
    ),
    (
        "check",
        &["sim", "net", "faults", "core", "transport", "fq", "engine", "metrics", "par"],
    ),
    (
        "harness",
        &["sim", "net", "faults", "transport", "fq", "core", "engine", "traffic", "metrics", "par"],
    ),
];

/// The crate a workspace-relative path belongs to (`crates/<name>/..`),
/// or `None` for root-package files and unknown layouts.
pub fn crate_of(path: &str) -> Option<&str> {
    let rest = path.strip_prefix("crates/")?;
    let (name, _) = rest.split_once('/')?;
    Some(name)
}

/// Method names that are std collection/iterator/primitive vocabulary:
/// excluded from bare-name union resolution (see module docs).
const STD_METHOD_NAMES: [&str; 18] = [
    "push", "pop", "insert", "remove", "get", "len", "min", "max", "take", "clear", "next",
    "sum", "count", "contains", "clone", "iter", "drain", "extend",
];

#[derive(Debug, Default)]
pub struct SymbolIndex {
    pub fns: Vec<FnEntry>,
    free_by_name: BTreeMap<String, Vec<usize>>,
    by_ty_and_name: BTreeMap<(String, String), Vec<usize>>,
    by_name: BTreeMap<String, Vec<usize>>,
    /// Transitive dependency closure per known crate (self included).
    dep_closure: BTreeMap<&'static str, Vec<&'static str>>,
}

impl SymbolIndex {
    /// Build the index from per-file facts. Iteration order of `files`
    /// must be deterministic (callers pass a `BTreeMap` or sorted list).
    pub fn build<'a>(files: impl IntoIterator<Item = (&'a str, &'a FileFacts)>) -> SymbolIndex {
        let mut ix = SymbolIndex {
            dep_closure: dep_closure(),
            ..SymbolIndex::default()
        };
        for (file, facts) in files {
            for def in &facts.fns {
                let id = ix.fns.len();
                ix.fns.push(FnEntry { file: file.to_string(), def: def.clone() });
                let def = &ix.fns[id].def;
                match &def.self_ty {
                    Some(ty) => {
                        ix.by_ty_and_name
                            .entry((ty.clone(), def.name.clone()))
                            .or_default()
                            .push(id);
                    }
                    None => {
                        ix.free_by_name.entry(def.name.clone()).or_default().push(id);
                    }
                }
                ix.by_name.entry(def.name.clone()).or_default().push(id);
            }
        }
        ix
    }

    /// May code in `caller_crate` call into `callee_crate`? Unknown
    /// crates on either side are permissive.
    fn crate_edge_ok(&self, caller: Option<&str>, callee: Option<&str>) -> bool {
        match (caller, callee) {
            (Some(a), Some(b)) => match self.dep_closure.get(a) {
                Some(deps) => a == b || deps.iter().any(|&d| d == b),
                None => true,
            },
            _ => true,
        }
    }

    fn admissible(&self, caller_file: &str, ids: &[usize]) -> Vec<usize> {
        let caller_crate = crate_of(caller_file);
        ids.iter()
            .copied()
            .filter(|&id| crate_edge_ok_entry(self, caller_crate, &self.fns[id].file))
            .collect()
    }

    /// Resolve a call made from `caller` to candidate fn ids. Empty when
    /// the callee is outside the workspace (std, derived impls).
    pub fn resolve(&self, caller: &FnEntry, call: &CallKind) -> Vec<usize> {
        match call {
            CallKind::Free { name } => self.admissible(
                &caller.file,
                self.free_by_name.get(name).map(Vec::as_slice).unwrap_or(&[]),
            ),
            CallKind::Qualified { ty, name } => {
                let ty = if ty == "Self" {
                    match &caller.def.self_ty {
                        Some(t) => t.clone(),
                        None => return Vec::new(),
                    }
                } else {
                    ty.clone()
                };
                self.admissible(
                    &caller.file,
                    self.by_ty_and_name
                        .get(&(ty, name.clone()))
                        .map(Vec::as_slice)
                        .unwrap_or(&[]),
                )
            }
            CallKind::Method { name, recv_self } => {
                if *recv_self {
                    if let Some(ty) = &caller.def.self_ty {
                        let hits = self
                            .by_ty_and_name
                            .get(&(ty.clone(), name.clone()))
                            .map(Vec::as_slice)
                            .unwrap_or(&[]);
                        if !hits.is_empty() {
                            return self.admissible(&caller.file, hits);
                        }
                    }
                }
                // Unknown receiver type: union of same-named workspace
                // methods, pruned by crate edges; std vocabulary names
                // are never unioned.
                if STD_METHOD_NAMES.contains(&name.as_str()) {
                    return Vec::new();
                }
                let ids: Vec<usize> = self
                    .by_name
                    .get(name)
                    .map(Vec::as_slice)
                    .unwrap_or(&[])
                    .iter()
                    .copied()
                    .filter(|&id| self.fns[id].def.self_ty.is_some())
                    .collect();
                self.admissible(&caller.file, &ids)
            }
        }
    }
}

fn crate_edge_ok_entry(ix: &SymbolIndex, caller_crate: Option<&str>, callee_file: &str) -> bool {
    ix.crate_edge_ok(caller_crate, crate_of(callee_file))
}

fn dep_closure() -> BTreeMap<&'static str, Vec<&'static str>> {
    let direct: BTreeMap<&str, &[&str]> = CRATE_DEPS.iter().copied().collect();
    let mut out = BTreeMap::new();
    for (name, _) in CRATE_DEPS {
        let mut seen = vec![name];
        let mut stack = vec![name];
        while let Some(c) = stack.pop() {
            for &d in direct.get(c).copied().unwrap_or(&[]) {
                if !seen.contains(&d) {
                    seen.push(d);
                    stack.push(d);
                }
            }
        }
        seen.sort_unstable();
        out.insert(name, seen);
    }
    out
}
