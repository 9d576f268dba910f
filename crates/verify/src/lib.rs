//! # cebinae-verify
//!
//! A dependency-free static-analysis pass over every `.rs` file in the
//! workspace, enforcing the determinism and dataplane-safety invariants
//! the reproduction depends on (see `DESIGN.md`, "Determinism
//! invariants" and "Verify v2"). The rules — R1-R14 plus the waiver
//! meta-rules W0/W1 — are described once, in [`rules::RULES`];
//! `cebinae-verify --help` lists them and `--explain RULE` prints one
//! rule's rationale with a flagged and a preferred snippet.
//!
//! A finding can be suppressed with a `// det-ok: <reason>` comment on
//! the same line or the line above; the reason is mandatory (W0), and a
//! marker that suppresses nothing is itself a finding (W1).
//!
//! There is one analysis path, [`check_workspace`]: every file is lexed,
//! parsed and matched against the per-file rules, the call-graph rules
//! run over the whole index, and waivers are applied to the finished
//! list. It runs three ways: `cargo run -p cebinae-verify` (CLI, with
//! `--format json` for the machine-readable report), this library API,
//! and the root package's `tests/verify_gate.rs`, which makes a plain
//! `cargo test -q` fail on any unwaived violation.

pub mod callgraph;
pub mod index;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;
pub mod units;

pub use rules::{Rule, Violation};

use index::{CrateDeps, SymbolIndex};
use parser::FileFacts;
use std::collections::{BTreeMap, BTreeSet};
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

/// The result of one analysis.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Unwaived findings, sorted by (file, line, rule).
    pub findings: Vec<Violation>,
    /// Per rule, the number of `det-ok` markers that suppressed at least
    /// one of its findings (a marker over an R5 and an R12 site counts
    /// under both).
    pub waivers_used: BTreeMap<Rule, usize>,
}

/// Per-file analysis product.
struct FileAnalysis {
    /// Per-file rule findings, waived sites included.
    local: Vec<Violation>,
    facts: FileFacts,
    /// Line of each `det-ok` marker that has a reason → whether it sits in
    /// a test region.
    waivers: BTreeMap<usize, bool>,
}

/// Lex + parse + run every per-file rule on one source string, as if it
/// lived at workspace-relative `path` (forward slashes).
fn analyze(path: &str, src: &str) -> FileAnalysis {
    let lexed = lexer::lex(src);
    let ctx = rules::FileCtx::new(path, &lexed);
    let mut local = Vec::new();
    rules::run_rules(&ctx, &mut local);
    let waivers = lexed.waivers.keys().map(|&line| (line, ctx.in_test(line))).collect();
    FileAnalysis { local, facts: parser::parse(&lexed), waivers }
}

/// Check a single source string: per-file rules plus the transitive
/// hot-path rules evaluated over this file alone, with every crate edge
/// allowed. This is the unit used by the fixture self-tests; it shares
/// [`assemble`] with [`check_workspace`].
pub fn check_source(path: &str, src: &str, cfg: &Config) -> Vec<Violation> {
    source_report(path, src, cfg).findings
}

/// [`check_source`] with the used-waiver counts.
pub fn source_report(path: &str, src: &str, cfg: &Config) -> Report {
    let files = BTreeMap::from([(path.to_string(), analyze(path, src))]);
    assemble(&files, CrateDeps::default(), cfg)
}

/// Combine per-file results into the report: build the symbol index, run
/// the call-graph-transitive rules, drop disabled rules, apply waivers —
/// here and nowhere else, so every marker is known to have suppressed
/// something or not — and sort deterministically.
fn assemble(files: &BTreeMap<String, FileAnalysis>, deps: CrateDeps, cfg: &Config) -> Report {
    let mut all: Vec<Violation> = files.values().flat_map(|a| a.local.iter().cloned()).collect();
    let ix = SymbolIndex::build(files.iter().map(|(p, a)| (p.as_str(), &a.facts)), deps);
    callgraph::run_hot_path_rules(&ix, &mut all);
    all.retain(|v| cfg.enabled(v.rule));

    // (file, marker line) → the rules whose findings the marker suppressed.
    let mut used: BTreeMap<(&str, usize), BTreeSet<Rule>> = BTreeMap::new();
    let mut findings = Vec::new();
    for v in all {
        let (file, analysis) =
            files.get_key_value(v.file.as_str()).expect("a finding names an analysed file");
        let covering: Vec<usize> = lexer::waiver_lines(v.line)
            .into_iter()
            .filter(|l| analysis.waivers.contains_key(l))
            .collect();
        // An empty reason cannot be excused by a neighbouring marker.
        if covering.is_empty() || v.rule == Rule::Waiver {
            findings.push(v);
            continue;
        }
        for line in covering {
            used.entry((file.as_str(), line)).or_default().insert(v.rule);
        }
    }

    // W1: with a rule skipped, a marker may be waiting for its findings.
    if cfg.disabled.is_empty() {
        for (file, analysis) in files {
            for (&line, &in_test) in &analysis.waivers {
                if !in_test && !used.contains_key(&(file.as_str(), line)) {
                    findings.push(Violation {
                        file: file.clone(),
                        line,
                        rule: Rule::DeadWaiver,
                        message: "det-ok waiver suppresses no finding; drop the marker (keep \
                                  the comment) or move it onto the line it is meant to cover"
                            .into(),
                        trace: Vec::new(),
                    });
                }
            }
        }
    }

    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    // Two identical sites on one line (e.g. `m[a][b]` indexing twice)
    // collapse to one diagnostic.
    findings.dedup_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message) == (&b.file, b.line, b.rule, &b.message)
    });
    let mut waivers_used = BTreeMap::new();
    for rule in used.values().flatten() {
        *waivers_used.entry(*rule).or_insert(0) += 1;
    }
    Report { findings, waivers_used }
}

/// Walk the workspace and run all rules.
///
/// Skipped directories: build output (`target`), VCS metadata, and rule
/// fixtures (`fixtures` — those files *intentionally* violate the rules).
pub fn check_workspace(cfg: &Config) -> io::Result<Report> {
    let mut paths = Vec::new();
    collect_rs_files(&cfg.root, &mut paths)?;
    let mut files = BTreeMap::new();
    for f in &paths {
        let rel = f
            .strip_prefix(&cfg.root)
            .unwrap_or(f)
            .to_string_lossy()
            .replace('\\', "/");
        let analysis = analyze(&rel, &fs::read_to_string(f)?);
        files.insert(rel, analysis);
    }
    Ok(assemble(&files, CrateDeps::from_manifests(&cfg.root), cfg))
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
