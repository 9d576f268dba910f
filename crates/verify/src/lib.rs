//! # cebinae-verify
//!
//! A dependency-free static-analysis pass over every `.rs` file in the
//! workspace, enforcing the determinism and dataplane-safety invariants
//! the reproduction depends on (see `DESIGN.md`, "Determinism
//! invariants" and "Verify v2"):
//!
//! * **R1** — no wall-clock reads (`Instant::now`, `SystemTime`) outside
//!   the harness/examples allowlist;
//! * **R2** — no ambient randomness (`thread_rng`, `rand::random`,
//!   `RandomState`, OS entropy): all entropy flows through
//!   `cebinae_sim::rng::DetRng`;
//! * **R3** — no order-sensitive iteration over `HashMap`/`HashSet` in the
//!   sim/net/core/engine/transport crates;
//! * **R4** — no `std::env` reads in dataplane modules (read once at
//!   construction, cache the result);
//! * **R5** — no `unwrap`/`expect`/panic-family macros/indexing-that-can-
//!   panic anywhere *transitively reachable* from an enqueue/dequeue/
//!   rotate entry point (workspace call graph, reachability trace per
//!   finding);
//! * **R6** — no `==`/`!=` against float literals in core/metrics;
//! * **R7** — no `std::thread` in simulation/dataplane crates: a simulated
//!   timeline is strictly sequential, and parallelism lives only in
//!   `crates/par` (the trial executor) and the harness drivers;
//! * **R8** — no raw `println!`/`eprintln!` (or `print!`/`eprint!`/`dbg!`)
//!   in the instrumented sim/net/engine/transport/telemetry crates:
//!   observability flows through `cebinae-telemetry`, so experiment output
//!   stays deterministic and machine-readable;
//! * **R9** — no mutating engine/dataplane/telemetry method calls in the
//!   fuzzer's oracle modules (`crates/check/src/oracle*`): oracles are
//!   read-only judges, and replica-driving belongs in `cebinae-check`'s
//!   model layer;
//! * **R10** — no cross-unit arithmetic/comparison: identifiers with
//!   different inferred units (suffix conventions `_ns`/`_bytes`/`_bps`/
//!   `_pkts`/…, or `// unit: name=u` annotations) must not meet under
//!   `+`, `-`, or a comparison;
//! * **R11** — no lossy `as` narrowing casts in sim/net/engine/transport/
//!   fq dataplane code;
//! * **R12** — no bare `+=`/`-=` on monotone counters in the hot-path
//!   reachable set; use `saturating_*`/`checked_*` or waive a gauge with
//!   its conservation invariant;
//! * **R13** — no `std::collections::HashMap`/`HashSet` at all in
//!   simulation/dataplane crate sources (R3 catches iteration; R13 bans
//!   the entropy-seeded type itself) — use `cebinae_ds::DetMap`/`DetSet`;
//! * **R14** — no concrete event-queue backend types (`EventQueue`,
//!   `HeapScheduler`, `WheelScheduler`, `BinaryHeap`) in the engine/
//!   transport/traffic crates: event-loop consumers name the
//!   `cebinae_sim::Scheduler` trait so the heap and timing-wheel backends
//!   stay swappable under identical call sites.
//!
//! A violation can be suppressed with a `// det-ok: <reason>` comment on
//! the same line or the line above; the reason is mandatory.
//!
//! The pass runs three ways: `cargo run -p cebinae-verify` (CLI, with
//! `--format json` for the machine-readable report), this library API,
//! and the root package's `tests/verify_gate.rs`, which makes a plain
//! `cargo test -q` fail on any unwaived violation. The workspace entry
//! points keep an incremental cache (FNV-1a file hashes) under
//! `<root>/target/` so warm runs re-lex only changed files; warm and
//! cold findings are byte-identical because the global rules are always
//! recomputed from the (cached or fresh) parsed facts.

pub mod callgraph;
pub mod index;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;
pub mod units;

pub use report::{Cache, CacheStats};
pub use rules::{Rule, Violation};

use index::SymbolIndex;
use parser::FileFacts;
use report::CacheEntry;
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Which rules to run, and where.
#[derive(Clone, Debug)]
pub struct Config {
    /// Workspace root to walk.
    pub root: PathBuf,
    /// Disabled rules (all rules run by default).
    pub disabled: Vec<Rule>,
}

impl Config {
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Config { root: root.into(), disabled: Vec::new() }
    }

    pub fn disable(mut self, rule: Rule) -> Self {
        self.disabled.push(rule);
        self
    }

    fn enabled(&self, rule: Rule) -> bool {
        !self.disabled.contains(&rule)
    }
}

/// Per-file analysis product: the file-local findings (all rules — the
/// caller filters by config) plus the parsed facts for the workspace
/// index. This is the unit the incremental cache stores.
#[derive(Clone, Debug, Default)]
pub struct FileAnalysis {
    pub local: Vec<Violation>,
    pub facts: FileFacts,
}

/// Lex + parse + run every per-file rule on one source string, as if it
/// lived at workspace-relative `path` (forward slashes).
pub fn analyze_source(path: &str, src: &str) -> FileAnalysis {
    let lexed = lexer::lex(src);
    let ctx = rules::FileCtx::new(path, &lexed);
    let mut local = Vec::new();
    rules::run_rules(&ctx, &|_| true, &mut local);
    FileAnalysis { local, facts: parser::parse(&lexed) }
}

/// Check a single source string: per-file rules plus the transitive
/// hot-path rules evaluated over this file alone. This is the unit used
/// by the fixture self-tests; the workspace entry points share the same
/// assembly via [`assemble`].
pub fn check_source(path: &str, src: &str, cfg: &Config) -> Vec<Violation> {
    let a = analyze_source(path, src);
    let mut files = BTreeMap::new();
    files.insert(
        path.to_string(),
        CacheEntry { hash: 0, local: a.local, facts: a.facts },
    );
    assemble(&files, cfg)
}

/// Combine per-file results into the final findings list: filter local
/// findings by the active config, build the symbol index, run the
/// call-graph-transitive rules, and sort deterministically.
fn assemble(files: &BTreeMap<String, CacheEntry>, cfg: &Config) -> Vec<Violation> {
    let mut out: Vec<Violation> = files
        .values()
        .flat_map(|e| e.local.iter())
        .filter(|v| cfg.enabled(v.rule))
        .cloned()
        .collect();
    let ix = SymbolIndex::build(files.iter().map(|(p, e)| (p.as_str(), &e.facts)));
    callgraph::run_hot_path_rules(&ix, &|r| cfg.enabled(r), &mut out);
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    // Two identical sites on one line (e.g. `m[a][b]` indexing twice)
    // collapse to one diagnostic.
    out.dedup_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message) == (&b.file, b.line, b.rule, &b.message)
    });
    out
}

/// Walk the workspace and run all rules, cold (no cache IO).
///
/// Skipped directories: build output (`target`), VCS metadata, and rule
/// fixtures (`fixtures` — those files *intentionally* violate the rules).
pub fn check_workspace(cfg: &Config) -> io::Result<Vec<Violation>> {
    let (violations, _) = run_workspace(cfg, None)?;
    Ok(violations)
}

/// Walk the workspace with the incremental cache at `cache_path`
/// (defaulting to `<root>/target/cebinae-verify-cache.tsv`): unchanged
/// files (by FNV-1a content hash) reuse their cached local findings and
/// parsed facts; the global rules are recomputed either way, so the
/// result is byte-identical to a cold run.
pub fn check_workspace_cached(
    cfg: &Config,
    cache_path: Option<&Path>,
) -> io::Result<(Vec<Violation>, CacheStats)> {
    let default_path = cfg.root.join("target").join("cebinae-verify-cache.tsv");
    let path = cache_path.unwrap_or(&default_path);
    run_workspace(cfg, Some(path))
}

fn run_workspace(
    cfg: &Config,
    cache_path: Option<&Path>,
) -> io::Result<(Vec<Violation>, CacheStats)> {
    let mut files = Vec::new();
    collect_rs_files(&cfg.root, &mut files)?;
    files.sort();

    let old = cache_path.and_then(Cache::load).unwrap_or_default();
    let mut fresh = Cache::default();
    let mut stats = CacheStats::default();

    for f in &files {
        let rel = f
            .strip_prefix(&cfg.root)
            .unwrap_or(f)
            .to_string_lossy()
            .replace('\\', "/");
        let src = fs::read_to_string(f)?;
        let hash = report::fnv1a(src.as_bytes());
        stats.files += 1;
        let entry = match old.entries.get(&rel) {
            Some(e) if e.hash == hash => {
                stats.reused += 1;
                e.clone()
            }
            _ => {
                stats.analyzed += 1;
                let a = analyze_source(&rel, &src);
                CacheEntry { hash, local: a.local, facts: a.facts }
            }
        };
        fresh.entries.insert(rel, entry);
    }

    if let Some(p) = cache_path {
        fresh.store(p);
    }
    Ok((assemble(&fresh.entries, cfg), stats))
}

const SKIP_DIRS: [&str; 4] = ["target", ".git", "fixtures", "node_modules"];

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The workspace root when running from within this crate (CLI default
/// and the gate test): two levels up from the crate manifest.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}
