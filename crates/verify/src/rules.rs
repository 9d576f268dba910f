//! The determinism & dataplane-safety rules (R1-R14).
//!
//! Most rules are token-stream pattern matches over one file, scoped by
//! the file's workspace-relative path and filtered by test regions and
//! `// det-ok: <reason>` waivers. R5 and R12 are *workspace-global*:
//! they run over the call graph (`crate::callgraph`) so a panic or an
//! overflow-prone counter update anywhere in the transitive closure of
//! an enqueue/dequeue/rotate entry point is caught, not just in the
//! entry's own body. The rules are deliberately heuristic — they match
//! what this workspace actually writes, and the fixture self-tests in
//! `tests/rules.rs` / `tests/analysis.rs` pin both the positive and
//! negative cases for every rule.

use crate::lexer::{Lexed, Tok, Token};
use std::fmt;

/// Rule identifiers. `Waiver` is the meta-rule that a `det-ok` comment
/// must carry a non-empty reason.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// No wall-clock reads outside the harness/examples allowlist.
    R1,
    /// No ambient randomness: all entropy through `cebinae_sim::rng`.
    R2,
    /// No order-sensitive iteration over `HashMap`/`HashSet` in the
    /// simulation/dataplane crates.
    R3,
    /// No `std::env` reads in dataplane modules (cache at construction).
    R4,
    /// No `unwrap`/`expect`/`panic!` in enqueue/dequeue/rotate hot paths.
    R5,
    /// No `==`/`!=` against float literals in core/metrics.
    R6,
    /// No `std::thread` in simulation/dataplane crates: parallelism lives
    /// only in `crates/par` (the trial executor) and the harness binaries
    /// that drive it. A single simulated timeline is strictly sequential.
    R7,
    /// No raw `println!`/`eprintln!` (or `print!`/`eprint!`/`dbg!`) in the
    /// instrumented crates: observability goes through `cebinae-telemetry`
    /// so experiment output stays deterministic and machine-readable.
    R8,
    /// Oracle code must not mutate simulation state: the fuzzer's judge
    /// modules (`crates/check/src/oracle*`) may only read results and
    /// drive their own private model replicas via `cebinae-check::model`;
    /// calling a mutating engine/dataplane/telemetry method there would
    /// let the act of checking perturb the run being checked.
    R9,
    /// No cross-unit arithmetic or comparison: identifiers carrying
    /// different inferred units (`_ns` vs `_bytes` vs `_bps` …, or a
    /// `// unit: name=u` annotation) must not meet under `+`, `-`, or a
    /// comparison operator.
    R10,
    /// No lossy `as` narrowing casts (`as u32`, `as f32`, …) in
    /// sim/net/engine/transport/fq dataplane code.
    R11,
    /// No bare `+=`/`-=` on monotone counters in hot paths; use
    /// `saturating_*`/`checked_*` or waive with the invariant that
    /// bounds the counter.
    R12,
    /// No `std::collections::HashMap`/`HashSet` in simulation/dataplane
    /// crate sources at all — not even without iteration. Their layout
    /// depends on per-process `RandomState`, so any future `.iter()` (or a
    /// Debug dump) silently becomes nondeterministic; `cebinae_ds::DetMap`/
    /// `DetSet` give O(1) ops with a fixed seed and stable order.
    R13,
    /// Event-loop consumers must stay backend-agnostic: engine, transport
    /// and traffic sources name the [`Scheduler`] trait, never a concrete
    /// queue type (`EventQueue`, `HeapScheduler`, `WheelScheduler`,
    /// `BinaryHeap`). Hard-wiring one backend would quietly defeat the
    /// pluggable-scheduler contract and the heap-vs-wheel differential
    /// tests that depend on swapping backends under identical callers.
    R14,
    /// `// det-ok:` waivers must carry a reason.
    Waiver,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Rule::R1 => "R1",
            Rule::R2 => "R2",
            Rule::R3 => "R3",
            Rule::R4 => "R4",
            Rule::R5 => "R5",
            Rule::R6 => "R6",
            Rule::R7 => "R7",
            Rule::R8 => "R8",
            Rule::R9 => "R9",
            Rule::R10 => "R10",
            Rule::R11 => "R11",
            Rule::R12 => "R12",
            Rule::R13 => "R13",
            Rule::R14 => "R14",
            Rule::Waiver => "W0",
        };
        f.write_str(s)
    }
}

impl Rule {
    /// Parse a rule id (`"R5"`, `"r12"`, `"W0"`).
    pub fn parse(s: &str) -> Option<Rule> {
        match s.trim().to_ascii_uppercase().as_str() {
            "R1" => Some(Rule::R1),
            "R2" => Some(Rule::R2),
            "R3" => Some(Rule::R3),
            "R4" => Some(Rule::R4),
            "R5" => Some(Rule::R5),
            "R6" => Some(Rule::R6),
            "R7" => Some(Rule::R7),
            "R8" => Some(Rule::R8),
            "R9" => Some(Rule::R9),
            "R10" => Some(Rule::R10),
            "R11" => Some(Rule::R11),
            "R12" => Some(Rule::R12),
            "R13" => Some(Rule::R13),
            "R14" => Some(Rule::R14),
            "W0" => Some(Rule::Waiver),
            _ => None,
        }
    }

    /// Every rule id, in report order.
    pub const ALL: [Rule; 15] = [
        Rule::R1,
        Rule::R2,
        Rule::R3,
        Rule::R4,
        Rule::R5,
        Rule::R6,
        Rule::R7,
        Rule::R8,
        Rule::R9,
        Rule::R10,
        Rule::R11,
        Rule::R12,
        Rule::R13,
        Rule::R14,
        Rule::Waiver,
    ];
}

/// One diagnostic.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    pub rule: Rule,
    pub message: String,
    /// For the transitive rules (R5, R12): the call chain from a hot
    /// entry point to the function containing the finding, as
    /// `name (file:line)` segments. Empty for per-file rules.
    pub trace: Vec<String>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)?;
        if !self.trace.is_empty() {
            write!(f, " [reached via: {}]", self.trace.join(" -> "))?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Path scoping
// ---------------------------------------------------------------------------

/// Wall-clock allowlist: measurement harness, examples, and the
/// verify tool itself (its CLI reports elapsed wall time).
fn r1_allowlisted(path: &str) -> bool {
    path.starts_with("crates/harness/")
        || path.starts_with("crates/verify/")
        || path.starts_with("examples/")
        || path.contains("/examples/")
}

/// Order-sensitive simulation crates for R3.
const R3_CRATES: [&str; 5] = ["sim", "net", "core", "engine", "transport"];

/// Dataplane crates for R4 (env must be read once, at construction).
const R4_CRATES: [&str; 4] = ["core", "net", "fq", "transport"];

/// Crates whose enqueue/dequeue/rotate paths are hot (R5, R12 entry
/// points — the transitive analyses in `crate::callgraph` start here).
pub const R5_CRATES: [&str; 3] = ["core", "net", "fq"];

/// Float-comparison-sensitive crates for R6.
const R6_CRATES: [&str; 2] = ["core", "metrics"];

/// Crates that must stay thread-free (R7): every simulation/dataplane
/// crate. Parallelism is legal only in `crates/par`, the harness, and the
/// verify tool itself.
const R7_CRATES: [&str; 8] = [
    "sim", "net", "core", "engine", "transport", "fq", "traffic", "metrics",
];

/// Instrumented crates for R8: anything the telemetry layer covers must
/// not print directly. `core` keeps its gated `CEBINAE_DEBUG` dump and the
/// harness reports to stdout by design, so neither is listed.
const R8_CRATES: [&str; 5] = ["sim", "net", "engine", "transport", "telemetry"];

/// Crates where `std::collections::HashMap`/`HashSet` are banned outright
/// (R13). R3 catches *iteration* over an unordered map; R13 forbids the
/// type itself in simulation/dataplane sources, because a map whose layout
/// is seeded from process entropy is a nondeterminism hazard even before
/// anyone iterates it. Use `cebinae_ds::DetMap`/`DetSet` instead.
const R13_CRATES: [&str; 6] = ["sim", "net", "engine", "transport", "fq", "core"];

/// Event-loop consumer crates for R14: these schedule and cancel timers
/// but must do so through the `Scheduler` trait, so that the backend can
/// be swapped (heap vs timing wheel) under identical call sites. `sim`
/// itself is exempt — it *defines* the backends.
const R14_CRATES: [&str; 3] = ["engine", "transport", "traffic"];

pub fn in_crate_src(path: &str, crates: &[&str]) -> bool {
    crates
        .iter()
        .any(|c| path.starts_with(&format!("crates/{c}/src/")))
}

// ---------------------------------------------------------------------------
// Test regions
// ---------------------------------------------------------------------------

/// Line ranges covered by `#[cfg(test)]` items, `#[test]` functions, or
/// `mod *test* { .. }` bodies.
pub fn test_regions(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let matched = matches_seq(tokens, i, &["#", "[", "cfg", "(", "test", ")", "]"])
            .or_else(|| matches_seq(tokens, i, &["#", "[", "test", "]"]));
        if let Some(end) = matched {
            if let Some(range) = brace_range_from(tokens, end) {
                out.push(range);
            }
            i = end;
            continue;
        }
        // `mod <name-containing-test> {`
        if let (Some(Tok::Ident(kw)), Some(Tok::Ident(name))) =
            (tokens.get(i).map(|t| &t.tok), tokens.get(i + 1).map(|t| &t.tok))
        {
            if kw == "mod"
                && name.contains("test")
                && tokens.get(i + 2).map(|t| &t.tok) == Some(&Tok::Punct("{"))
            {
                if let Some(range) = brace_range_from(tokens, i + 2) {
                    out.push(range);
                }
            }
        }
        i += 1;
    }
    out
}

/// If tokens at `start` spell out `pat` (idents by name, punctuation by
/// symbol), return the index one past the match.
fn matches_seq(tokens: &[Token], start: usize, pat: &[&str]) -> Option<usize> {
    for (k, want) in pat.iter().enumerate() {
        match tokens.get(start + k).map(|t| &t.tok) {
            Some(Tok::Ident(s)) if s == want => {}
            Some(Tok::Punct(p)) if p == want => {}
            _ => return None,
        }
    }
    Some(start + pat.len())
}

/// Starting at or after `from`, find the next `{` and return the line span
/// of its balanced block.
fn brace_range_from(tokens: &[Token], from: usize) -> Option<(usize, usize)> {
    let open = (from..tokens.len()).find(|&k| {
        matches!(tokens[k].tok, Tok::Punct("{"))
            // Stop at a `;` first: `#[cfg(test)] mod tests;` has no body.
            && !tokens[from..k].iter().any(|t| t.tok == Tok::Punct(";"))
    })?;
    let mut depth = 0usize;
    for k in open..tokens.len() {
        match tokens[k].tok {
            Tok::Punct("{") => depth += 1,
            Tok::Punct("}") => {
                depth -= 1;
                if depth == 0 {
                    return Some((tokens[open].line, tokens[k].line));
                }
            }
            _ => {}
        }
    }
    Some((tokens[open].line, usize::MAX))
}

fn in_ranges(ranges: &[(usize, usize)], line: usize) -> bool {
    ranges.iter().any(|&(a, b)| line >= a && line <= b)
}

// ---------------------------------------------------------------------------
// Rule context and entry point
// ---------------------------------------------------------------------------

pub struct FileCtx<'a> {
    pub path: &'a str,
    pub lexed: &'a Lexed,
    pub tests: Vec<(usize, usize)>,
}

impl<'a> FileCtx<'a> {
    pub fn new(path: &'a str, lexed: &'a Lexed) -> Self {
        let tests = test_regions(&lexed.tokens);
        FileCtx { path, lexed, tests }
    }

    pub(crate) fn exempt(&self, line: usize) -> bool {
        self.lexed.waived(line) || in_ranges(&self.tests, line)
    }

    fn emit(&self, out: &mut Vec<Violation>, line: usize, rule: Rule, message: String) {
        out.push(Violation {
            file: self.path.to_string(),
            line,
            rule,
            message,
            trace: Vec::new(),
        });
    }
}

/// Run the enabled rules over one lexed file.
pub fn run_rules(ctx: &FileCtx<'_>, enabled: &dyn Fn(Rule) -> bool, out: &mut Vec<Violation>) {
    for &line in &ctx.lexed.empty_waivers {
        ctx.emit(out, line, Rule::Waiver, "det-ok waiver without a reason; write `// det-ok: <why this is deterministic>`".into());
    }
    if enabled(Rule::R1) {
        r1_wall_clock(ctx, out);
    }
    if enabled(Rule::R2) {
        r2_ambient_randomness(ctx, out);
    }
    if enabled(Rule::R3) {
        r3_unordered_iteration(ctx, out);
    }
    if enabled(Rule::R4) {
        r4_env_in_dataplane(ctx, out);
    }
    // R5 and R12 are workspace-global (call-graph-transitive): see
    // `crate::callgraph::run_hot_path_rules`.
    if enabled(Rule::R6) {
        r6_float_equality(ctx, out);
    }
    if enabled(Rule::R7) {
        r7_threads_in_sim(ctx, out);
    }
    if enabled(Rule::R8) {
        r8_prints_in_instrumented(ctx, out);
    }
    if enabled(Rule::R9) {
        r9_mutation_in_oracle(ctx, out);
    }
    if enabled(Rule::R10) {
        crate::units::r10_cross_unit(ctx, out);
    }
    if enabled(Rule::R11) {
        crate::units::r11_narrowing_casts(ctx, out);
    }
    if enabled(Rule::R13) {
        r13_std_hash_types(ctx, out);
    }
    if enabled(Rule::R14) {
        r14_concrete_scheduler(ctx, out);
    }
}

// ---------------------------------------------------------------------------
// R1: wall clock
// ---------------------------------------------------------------------------

fn r1_wall_clock(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    if r1_allowlisted(ctx.path) {
        return;
    }
    let toks = &ctx.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        let Tok::Ident(name) = &t.tok else { continue };
        let hit = match name.as_str() {
            // `SystemTime` has no deterministic use in simulation code.
            "SystemTime" => true,
            // `Instant` only when actually read (`Instant::now`).
            "Instant" => matches_seq(toks, i, &["Instant", "::", "now"]).is_some(),
            _ => false,
        };
        if hit && !ctx.exempt(t.line) {
            ctx.emit(
                out,
                t.line,
                Rule::R1,
                format!("wall-clock read via `{name}`; simulation code must use simulated `cebinae_sim::Time`"),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// R2: ambient randomness
// ---------------------------------------------------------------------------

fn r2_ambient_randomness(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    let toks = &ctx.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        let Tok::Ident(name) = &t.tok else { continue };
        let hit = match name.as_str() {
            "thread_rng" | "from_entropy" | "RandomState" | "getrandom" | "OsRng" => true,
            "rand" => matches_seq(toks, i, &["rand", "::", "random"]).is_some(),
            _ => false,
        };
        // Deliberately no test exemption: seeded tests are part of the
        // reproducibility contract. Waivers still apply.
        if hit && !ctx.lexed.waived(t.line) {
            ctx.emit(
                out,
                t.line,
                Rule::R2,
                format!("ambient entropy via `{name}`; route all randomness through `cebinae_sim::rng::DetRng`"),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// R3: unordered-map iteration
// ---------------------------------------------------------------------------

const R3_ITER_METHODS: [&str; 10] = [
    "iter", "iter_mut", "values", "values_mut", "keys", "drain", "into_iter", "retain",
    "into_values", "into_keys",
];

fn r3_unordered_iteration(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    if !in_crate_src(ctx.path, &R3_CRATES) {
        return;
    }
    let toks = &ctx.lexed.tokens;

    // Pass 1: names bound to HashMap/HashSet types (`name: HashMap<..>`,
    // `name: &mut std::collections::HashMap<..>`, `let name = HashMap::..`).
    let mut hash_names: Vec<String> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let Tok::Ident(ty) = &t.tok else { continue };
        if ty != "HashMap" && ty != "HashSet" {
            continue;
        }
        let mut j = i;
        // Skip a leading path (`std :: collections ::`).
        while j >= 2
            && toks[j - 1].tok == Tok::Punct("::")
            && matches!(toks[j - 2].tok, Tok::Ident(_))
        {
            j -= 2;
        }
        // Skip `&`, lifetimes, and `mut`.
        while j >= 1
            && (toks[j - 1].tok == Tok::Punct("&")
                || toks[j - 1].tok == Tok::Lifetime
                || toks[j - 1].tok == Tok::Ident("mut".into()))
        {
            j -= 1;
        }
        if j >= 2
            && (toks[j - 1].tok == Tok::Punct(":") || toks[j - 1].tok == Tok::Punct("="))
        {
            if let Tok::Ident(name) = &toks[j - 2].tok {
                hash_names.push(name.clone());
            }
        }
    }

    // Pass 2: iteration calls on those names.
    for i in 0..toks.len() {
        let Tok::Ident(name) = &toks[i].tok else { continue };
        if !hash_names.contains(name) {
            continue;
        }
        if toks.get(i + 1).map(|t| &t.tok) != Some(&Tok::Punct(".")) {
            continue;
        }
        let Some(Tok::Ident(method)) = toks.get(i + 2).map(|t| &t.tok) else { continue };
        if R3_ITER_METHODS.contains(&method.as_str())
            && toks.get(i + 3).map(|t| &t.tok) == Some(&Tok::Punct("("))
        {
            let line = toks[i].line;
            if !ctx.exempt(line) {
                ctx.emit(
                    out,
                    line,
                    Rule::R3,
                    format!(
                        "iteration over unordered `{name}` via `.{method}()`; use BTreeMap/BTreeSet, sort first, or waive with det-ok"
                    ),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// R4: std::env in the dataplane
// ---------------------------------------------------------------------------

fn r4_env_in_dataplane(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    if !in_crate_src(ctx.path, &R4_CRATES) {
        return;
    }
    let toks = &ctx.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if matches_seq(toks, i, &["env", "::", "var"]).is_none()
            && matches_seq(toks, i, &["env", "::", "var_os"]).is_none()
            && matches_seq(toks, i, &["env", "::", "vars"]).is_none()
        {
            continue;
        }
        if !ctx.exempt(t.line) {
            ctx.emit(
                out,
                t.line,
                Rule::R4,
                "environment read in dataplane code; read once at construction and cache the result".into(),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// R5: panics in hot paths (entry-point predicate; the analysis itself is
// call-graph-transitive and lives in `crate::callgraph`)
// ---------------------------------------------------------------------------

/// Is `name` an enqueue/dequeue/rotate hot entry point?
pub fn hot_fn(name: &str) -> bool {
    name == "enqueue" || name == "dequeue" || name.contains("rotate")
}

// ---------------------------------------------------------------------------
// R7: threads in simulation/dataplane crates
// ---------------------------------------------------------------------------

fn r7_threads_in_sim(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    if !in_crate_src(ctx.path, &R7_CRATES) {
        return;
    }
    let toks = &ctx.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        let Tok::Ident(name) = &t.tok else { continue };
        if name != "thread" {
            continue;
        }
        // `handle.thread()` etc. — a field/method, not the module.
        if i > 0 && toks[i - 1].tok == Tok::Punct(".") {
            continue;
        }
        // The module use always appears as a path: `std::thread`,
        // `use std::thread`, or `thread::spawn`/`scope`/`Builder` after a
        // `use`. A bare `thread` variable never matches.
        let is_path = matches_seq(toks, i, &["thread", "::"]).is_some()
            || (i >= 2 && matches_seq(toks, i - 2, &["std", "::", "thread"]).is_some());
        if is_path && !ctx.exempt(t.line) {
            ctx.emit(
                out,
                t.line,
                Rule::R7,
                "`std::thread` in a simulation/dataplane crate; a simulated timeline is strictly sequential — fan parallelism across trials via `cebinae_par::TrialPool`".into(),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// R8: raw prints in instrumented crates
// ---------------------------------------------------------------------------

fn r8_prints_in_instrumented(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    if !in_crate_src(ctx.path, &R8_CRATES) {
        return;
    }
    let toks = &ctx.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        let Tok::Ident(name) = &t.tok else { continue };
        if !matches!(
            name.as_str(),
            "println" | "eprintln" | "print" | "eprint" | "dbg"
        ) {
            continue;
        }
        if toks.get(i + 1).map(|t| &t.tok) != Some(&Tok::Punct("!")) {
            continue;
        }
        if !ctx.exempt(t.line) {
            ctx.emit(
                out,
                t.line,
                Rule::R8,
                format!(
                    "raw `{name}!` in an instrumented crate; record it through `cebinae-telemetry` (or move reporting to the harness)"
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// R9: state mutation in oracle modules
// ---------------------------------------------------------------------------

/// The fuzzer's judge modules. `crates/check/src/model.rs` is deliberately
/// out of scope: driving private replicas is its whole job.
fn r9_scoped(path: &str) -> bool {
    path.starts_with("crates/check/src/oracle")
}

/// Mutating methods on engine, dataplane, and telemetry state. Calling
/// any of these from an oracle means the checker is steering the system
/// it is supposed to be judging.
const R9_MUTATORS: [&str; 15] = [
    "enqueue",
    "dequeue",
    "control",
    "activate",
    "classify",
    "on_rotate",
    "rotate",
    "observe",
    "set_pending_rate",
    "reset_for_phase",
    "set_counter",
    "record",
    "span_enter",
    "span_exit",
    "merge",
];

fn r9_mutation_in_oracle(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    if !r9_scoped(ctx.path) {
        return;
    }
    let toks = &ctx.lexed.tokens;
    for i in 0..toks.len() {
        if toks[i].tok != Tok::Punct(".") {
            continue;
        }
        let Some(Tok::Ident(name)) = toks.get(i + 1).map(|t| &t.tok) else { continue };
        if !R9_MUTATORS.contains(&name.as_str()) {
            continue;
        }
        if toks.get(i + 2).map(|t| &t.tok) != Some(&Tok::Punct("(")) {
            continue;
        }
        let line = toks[i + 1].line;
        if !ctx.exempt(line) {
            ctx.emit(
                out,
                line,
                Rule::R9,
                format!(
                    "mutating call `.{name}(..)` in an oracle module; oracles are read-only judges — move replica-driving into `cebinae-check::model`"
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// R13: std hash collections in simulation/dataplane crates
// ---------------------------------------------------------------------------

fn r13_std_hash_types(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    if !in_crate_src(ctx.path, &R13_CRATES) {
        return;
    }
    let toks = &ctx.lexed.tokens;
    for t in toks.iter() {
        let Tok::Ident(name) = &t.tok else { continue };
        if name != "HashMap" && name != "HashSet" {
            continue;
        }
        if !ctx.exempt(t.line) {
            let det = if name == "HashMap" { "DetMap" } else { "DetSet" };
            ctx.emit(
                out,
                t.line,
                Rule::R13,
                format!(
                    "`{name}` in a simulation/dataplane crate; its layout is seeded from process entropy — use `cebinae_ds::{det}` (O(1), fixed seed, deterministic order)"
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// R14: concrete scheduler backends in event-loop consumer crates
// ---------------------------------------------------------------------------

fn r14_concrete_scheduler(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    if !in_crate_src(ctx.path, &R14_CRATES) {
        return;
    }
    let toks = &ctx.lexed.tokens;
    for t in toks.iter() {
        let Tok::Ident(name) = &t.tok else { continue };
        if !matches!(
            name.as_str(),
            "EventQueue" | "HeapScheduler" | "WheelScheduler" | "BinaryHeap"
        ) {
            continue;
        }
        if !ctx.exempt(t.line) {
            ctx.emit(
                out,
                t.line,
                Rule::R14,
                format!(
                    "concrete event-queue type `{name}` in an event-loop consumer crate; name the `cebinae_sim::Scheduler` trait (or `SchedulerKind::build()`) so backends stay swappable"
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// R6: float equality
// ---------------------------------------------------------------------------

fn r6_float_equality(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    if !in_crate_src(ctx.path, &R6_CRATES) {
        return;
    }
    let toks = &ctx.lexed.tokens;
    for i in 0..toks.len() {
        let op = match toks[i].tok {
            Tok::Punct("==") => "==",
            Tok::Punct("!=") => "!=",
            _ => continue,
        };
        let float_adjacent = [i.checked_sub(1), Some(i + 1)]
            .into_iter()
            .flatten()
            .filter_map(|k| toks.get(k))
            .any(|t| t.tok == Tok::Num { is_float: true });
        if float_adjacent && !ctx.exempt(toks[i].line) {
            ctx.emit(
                out,
                toks[i].line,
                Rule::R6,
                format!("`{op}` against a float literal; compare with a tolerance or an ordered predicate (`<=`, `>=`)"),
            );
        }
    }
}
