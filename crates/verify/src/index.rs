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
use std::fs;
use std::path::{Path, PathBuf};

/// A function in the index: which file it came from plus its parsed def.
#[derive(Clone, Debug)]
pub struct FnEntry {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    pub def: FnDef,
}

/// The crate-dependency relation of the tree being analysed: for each
/// `crates/<dir>`, the crate directories its code can call into — its
/// own plus the transitive closure of its `[dependencies]`. A caller the
/// relation does not know (a fixture path, a tree without manifests)
/// resolves permissively: all edges allowed.
#[derive(Clone, Debug, Default)]
pub struct CrateDeps {
    closure: BTreeMap<String, Vec<String>>,
}

impl CrateDeps {
    /// Read `[workspace.dependencies]` in `<root>/Cargo.toml` for package
    /// name → `crates/<dir>`, then each such crate's `[dependencies]`
    /// table (not `dev-dependencies`) for its edges. A line-based scan; a
    /// missing manifest contributes nothing.
    pub fn from_manifests(root: &Path) -> CrateDeps {
        let read = |p: PathBuf| fs::read_to_string(p).unwrap_or_default();
        let workspace = read(root.join("Cargo.toml"));
        let dir_of: BTreeMap<&str, &str> = table_entries(&workspace, "[workspace.dependencies]")
            .filter_map(|(pkg, rest)| {
                let path = rest.split_once("path = \"")?.1.split('"').next()?;
                Some((pkg, path.strip_prefix("crates/")?))
            })
            .collect();
        let direct: BTreeMap<&str, Vec<&str>> = dir_of
            .values()
            .map(|&dir| {
                let manifest = read(root.join("crates").join(dir).join("Cargo.toml"));
                let deps = table_entries(&manifest, "[dependencies]")
                    .filter_map(|(pkg, _)| dir_of.get(pkg).copied())
                    .collect();
                (dir, deps)
            })
            .collect();
        let mut closure = BTreeMap::new();
        for &name in direct.keys() {
            let mut seen = vec![name];
            let mut stack = vec![name];
            while let Some(c) = stack.pop() {
                for &d in &direct[c] {
                    if !seen.contains(&d) {
                        seen.push(d);
                        stack.push(d);
                    }
                }
            }
            closure.insert(name.to_string(), seen.into_iter().map(String::from).collect());
        }
        CrateDeps { closure }
    }

    /// May code in crate `caller` call into crate `callee`? `None` is a
    /// path outside `crates/`.
    pub fn edge_ok(&self, caller: Option<&str>, callee: Option<&str>) -> bool {
        match (caller.and_then(|a| self.closure.get(a)), callee) {
            (Some(reach), Some(b)) => reach.iter().any(|d| d == b),
            _ => true,
        }
    }
}

/// `(key, rest of line)` for each entry of the table under `header` in a
/// manifest; a key ends at `.`, `=` or whitespace.
fn table_entries<'a>(
    manifest: &'a str,
    header: &'a str,
) -> impl Iterator<Item = (&'a str, &'a str)> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(move |l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let end = l.find(|c: char| c == '.' || c == '=' || c.is_whitespace())?;
            Some((&l[..end], &l[end..]))
        })
}

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
    deps: CrateDeps,
}

impl SymbolIndex {
    /// Build the index from per-file facts. Iteration order of `files`
    /// must be deterministic (callers pass a `BTreeMap` or sorted list).
    pub fn build<'a>(
        files: impl IntoIterator<Item = (&'a str, &'a FileFacts)>,
        deps: CrateDeps,
    ) -> SymbolIndex {
        let mut ix = SymbolIndex { deps, ..SymbolIndex::default() };
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

    fn admissible(&self, caller_file: &str, ids: &[usize]) -> Vec<usize> {
        let caller_crate = crate_of(caller_file);
        ids.iter()
            .copied()
            .filter(|&id| self.deps.edge_ok(caller_crate, crate_of(&self.fns[id].file)))
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
