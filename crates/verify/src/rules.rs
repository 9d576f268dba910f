//! The rule table ([`RULES`]) and the per-file rules.
//!
//! [`RULES`] is the one description of every rule: id, path scope,
//! whether test regions are exempt, a one-line summary and the
//! `--explain` text. `Display`, [`Rule::parse`], `--help`, the clean
//! line and the JSON `"rules"` field all read it, and the rules that
//! amount to "this token sequence is banned in these crates" (R1, R2,
//! R4, R7, R8, R9, R13, R14) are nothing but their table rows, run by one
//! matcher. R3, R6, R10 and R11 are token-stream pattern matches with
//! logic of their own; R5 and R12 are *workspace-global* and run over
//! the call graph (`crate::callgraph`). Scope and test-region exemption
//! are applied here, once, by [`run_rules`]; `// det-ok: <reason>`
//! waivers are applied later, once, by `crate::assemble`. The rules are
//! deliberately heuristic — they match what this workspace actually
//! writes, and the fixture self-tests in `tests/rules.rs` /
//! `tests/analysis.rs` pin the positive and negative cases of each.

use crate::lexer::{Lexed, Tok, Token};
use std::fmt;

/// Rule identifiers; [`RULES`] says what each one means.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    R1,
    R2,
    R3,
    R4,
    R5,
    R6,
    R7,
    R8,
    R9,
    R10,
    R11,
    R12,
    R13,
    R14,
    /// W0: a `det-ok` marker without a reason.
    Waiver,
    /// W1: a `det-ok` marker that suppresses no finding.
    DeadWaiver,
}

/// Which files a rule looks at.
pub enum Scope {
    Everywhere,
    /// `crates/<name>/src/` of each listed crate.
    Crates(&'static [&'static str]),
    /// Workspace-relative paths the predicate accepts.
    Paths(fn(&str) -> bool),
}

impl Scope {
    pub fn contains(&self, path: &str) -> bool {
        match self {
            Scope::Everywhere => true,
            Scope::Crates(crates) => {
                crates.iter().any(|c| path.starts_with(&format!("crates/{c}/src/")))
            }
            Scope::Paths(accepts) => accepts(path),
        }
    }
}

/// One banned token sequence. Identifiers match by name, punctuation by
/// symbol, `a|b` matches either; the finding is reported at `seq[at]`,
/// whose text replaces `{}` in `msg`.
struct Ban {
    seq: &'static [&'static str],
    at: usize,
    msg: &'static str,
}

/// One row of the rule table.
pub struct RuleInfo {
    pub rule: Rule,
    pub id: &'static str,
    pub scope: Scope,
    /// Findings inside `#[cfg(test)]` / `#[test]` / `mod *test*` regions
    /// do not count.
    pub test_exempt: bool,
    pub summary: &'static str,
    /// `--explain`: rationale, a flagged snippet and the preferred one.
    pub why: &'static str,
    pub flagged: &'static str,
    pub preferred: &'static str,
    /// Non-empty for the rules that are only a token ban.
    banned: &'static [Ban],
}

/// Crates whose enqueue/dequeue/rotate functions are the hot entry
/// points of the transitive rules (R5, R12).
const HOT_CRATES: Scope = Scope::Crates(&["core", "net", "fq"]);

const R1_MSG: &str =
    "wall-clock read via `{}`; simulation code must use simulated `cebinae_sim::Time`";
const R2_MSG: &str =
    "ambient entropy via `{}`; route all randomness through `cebinae_sim::rng::DetRng`";
const R7_MSG: &str = "`std::thread` in a simulation/dataplane crate; a simulated timeline is strictly sequential — fan parallelism across trials via `cebinae_par::TrialPool`";

/// Every rule, in report order; `RULES[rule as usize].rule == rule`.
pub static RULES: [RuleInfo; 16] = [
    RuleInfo {
        rule: Rule::R1,
        id: "R1",
        // The measurement harness, examples, and the verify tool itself
        // may read the host clock.
        scope: Scope::Paths(|p| {
            !(p.starts_with("crates/harness/")
                || p.starts_with("crates/verify/")
                || p.starts_with("examples/")
                || p.contains("/examples/"))
        }),
        test_exempt: true,
        summary: "no wall-clock reads (`Instant::now`, `SystemTime`) outside the harness/examples allowlist",
        why: "Simulated experiments must not observe host time: any wall-clock read makes \
              a run irreproducible. Time comes from the event loop (`cebinae_sim::Time`).",
        flagged: "let t0 = std::time::Instant::now();",
        preferred: "let now: Time = world.now(); // simulated clock",
        // `Instant` only when actually read; `SystemTime` has no
        // deterministic use at all.
        banned: &[
            Ban { seq: &["SystemTime"], at: 0, msg: R1_MSG },
            Ban { seq: &["Instant", "::", "now"], at: 0, msg: R1_MSG },
        ],
    },
    RuleInfo {
        rule: Rule::R2,
        id: "R2",
        scope: Scope::Everywhere,
        // Seeded tests are part of the reproducibility contract.
        test_exempt: false,
        summary: "no ambient randomness (`thread_rng`, `rand::random`, `RandomState`, OS entropy), tests included",
        why: "Ambient entropy (thread_rng, RandomState, OS entropy) breaks run-to-run \
              determinism. All randomness flows from an explicit seed.",
        flagged: "let x = rand::random::<u64>();",
        preferred: "let x = det_rng.next_u64(); // cebinae_sim::rng::DetRng, seeded",
        banned: &[
            Ban { seq: &["thread_rng|from_entropy|RandomState|getrandom|OsRng"], at: 0, msg: R2_MSG },
            Ban { seq: &["rand", "::", "random"], at: 0, msg: R2_MSG },
        ],
    },
    RuleInfo {
        rule: Rule::R3,
        id: "R3",
        scope: Scope::Crates(&["sim", "net", "core", "engine", "transport"]),
        test_exempt: true,
        summary: "no order-sensitive iteration over `HashMap`/`HashSet` in the simulation crates",
        why: "HashMap/HashSet iteration order is unspecified, so any fold over it can \
              differ between runs or hosts.",
        flagged: "for (k, v) in hash_map.iter() { .. }",
        preferred: "let map: BTreeMap<K, V> = ..; for (k, v) in map.iter() { .. }",
        banned: &[],
    },
    RuleInfo {
        rule: Rule::R4,
        id: "R4",
        scope: Scope::Crates(&["core", "net", "fq", "transport"]),
        test_exempt: true,
        summary: "no `std::env` reads in dataplane crates",
        why: "Reading the environment mid-run lets ambient state steer the dataplane. \
              Read once at construction and cache.",
        flagged: "if std::env::var(\"DEBUG\").is_ok() { .. } // inside enqueue",
        preferred: "struct Qdisc { debug: bool } // env read once in new()",
        banned: &[Ban {
            seq: &["env", "::", "var|var_os|vars"],
            at: 0,
            msg: "environment read in dataplane code; read once at construction and cache the result",
        }],
    },
    RuleInfo {
        rule: Rule::R5,
        id: "R5",
        scope: HOT_CRATES,
        test_exempt: true,
        summary: "no `unwrap`/`expect`/panic-family macro/fallible indexing transitively reachable from an enqueue/dequeue/rotate entry point",
        why: "A panic anywhere in the transitive closure of an enqueue/dequeue/rotate \
              entry point can abort a rotation mid-flight. The call graph is analyzed \
              workspace-wide, and every finding carries its reachability trace.",
        flagged: "let q = self.flows.get_mut(&b).expect(\"exists\"); // called from enqueue",
        preferred: "let Some(q) = self.flows.get_mut(&b) else { return }; // degrade, don't abort",
        banned: &[],
    },
    RuleInfo {
        rule: Rule::R6,
        id: "R6",
        scope: Scope::Crates(&["core", "metrics"]),
        test_exempt: true,
        summary: "no `==`/`!=` against float literals in core/metrics",
        why: "Float equality is representation-sensitive; metrics comparisons need a \
              tolerance or an ordered predicate.",
        flagged: "if share == 0.25 { .. }",
        preferred: "if (share - 0.25).abs() < 1e-9 { .. }",
        banned: &[],
    },
    RuleInfo {
        rule: Rule::R7,
        id: "R7",
        // Parallelism is legal only in `crates/par`, the harness, and the
        // verify tool itself.
        scope: Scope::Crates(&["sim", "net", "core", "engine", "transport", "fq", "traffic", "metrics"]),
        test_exempt: true,
        summary: "no `std::thread` in simulation/dataplane crates",
        why: "A simulated timeline is strictly sequential; threads inside the simulation \
              crates would race the event loop. Parallelism fans across trials in \
              `cebinae_par::TrialPool`.",
        flagged: "std::thread::spawn(|| run_trial(seed));",
        preferred: "pool.run(trials) // cebinae_par::TrialPool, outside the sim crates",
        // The module always appears as a path (`std::thread`, or
        // `thread::spawn` after a `use`); a `thread` variable or a
        // `.thread()` method never matches.
        banned: &[
            Ban { seq: &["thread", "::"], at: 0, msg: R7_MSG },
            Ban { seq: &["std", "::", "thread"], at: 2, msg: R7_MSG },
        ],
    },
    RuleInfo {
        rule: Rule::R8,
        id: "R8",
        // Everything the telemetry layer covers; the harness reports to
        // stdout by design.
        scope: Scope::Crates(&["sim", "net", "core", "engine", "transport", "telemetry"]),
        test_exempt: true,
        summary: "no raw `println!`/`eprintln!`/`print!`/`eprint!`/`dbg!` in the instrumented crates",
        why: "Raw prints from instrumented crates interleave nondeterministically with \
              harness output; observability goes through cebinae-telemetry.",
        flagged: "println!(\"rotated at {now}\");",
        preferred: "telemetry::counter(\"rotations\").inc(); // or report from the harness",
        banned: &[Ban {
            seq: &["println|eprintln|print|eprint|dbg", "!"],
            at: 0,
            msg: "raw `{}!` in an instrumented crate; record it through `cebinae-telemetry` (or move reporting to the harness)",
        }],
    },
    RuleInfo {
        rule: Rule::R9,
        id: "R9",
        // `crates/check/src/model.rs` is deliberately out of scope:
        // driving private replicas is its whole job.
        scope: Scope::Paths(|p| p.starts_with("crates/check/src/oracle")),
        test_exempt: true,
        summary: "no mutating engine/dataplane/telemetry method calls in the fuzzer's oracle modules",
        why: "Fuzzer oracles are read-only judges; driving the system under test from an \
              oracle perturbs the run being checked.",
        flagged: "world.qdisc.enqueue(pkt, now); // inside an oracle",
        preferred: "model.replica.enqueue(pkt, now); // private replica in check::model",
        banned: &[Ban {
            seq: &[
                ".",
                "enqueue|dequeue|control|activate|classify|on_rotate|rotate|observe|set_pending_rate|reset_for_phase|set_counter|record|span_enter|span_exit|merge",
                "(",
            ],
            at: 1,
            msg: "mutating call `.{}(..)` in an oracle module; oracles are read-only judges — move replica-driving into `cebinae-check::model`",
        }],
    },
    RuleInfo {
        rule: Rule::R10,
        id: "R10",
        scope: Scope::Crates(&["sim", "net", "core", "engine", "transport", "fq"]),
        test_exempt: true,
        summary: "no `+`/`-`/comparison between identifiers of different inferred units",
        why: "Mixing units (ns vs bytes vs bps) under +/-/comparison is the classic \
              silent rate-math bug. Units are inferred from name suffixes (_ns, _bytes, \
              _bps, _pkts, ..) and `// unit: name=u` annotations.",
        flagged: "if elapsed_ns > budget_bytes { .. }",
        preferred: "let budget_ns = bytes_to_ns(budget_bytes, rate_bps); if elapsed_ns > budget_ns { .. }",
        banned: &[],
    },
    RuleInfo {
        rule: Rule::R11,
        id: "R11",
        scope: Scope::Crates(&["sim", "net", "engine", "transport", "fq"]),
        test_exempt: true,
        summary: "no lossy `as` narrowing casts in sim/net/engine/transport/fq",
        why: "Narrowing `as` casts truncate silently; packet/byte/time quantities in the \
              dataplane must widen or prove their bound.",
        flagged: "let idx = flow_id as u32;",
        preferred: "let idx = u32::try_from(flow_id).expect(\"bounded by config\"); // or waive with the bound",
        banned: &[],
    },
    RuleInfo {
        rule: Rule::R12,
        id: "R12",
        scope: HOT_CRATES,
        test_exempt: true,
        summary: "no bare `+=`/`-=` on monotone counters in the hot-path reachable set",
        why: "A bare `+=` on a monotone counter in the hot path wraps in release builds \
              after ~2^64 bytes/events; saturating arithmetic keeps stats sane, and \
              occupancy gauges can waive with their conservation invariant.",
        flagged: "self.stats.tx_bytes += pkt.size as u64;",
        preferred: "self.stats.tx_bytes = self.stats.tx_bytes.saturating_add(pkt.size as u64);",
        banned: &[],
    },
    RuleInfo {
        rule: Rule::R13,
        id: "R13",
        scope: Scope::Crates(&["sim", "net", "engine", "transport", "fq", "core"]),
        test_exempt: true,
        summary: "no `std::collections::HashMap`/`HashSet` at all in simulation/dataplane crates",
        why: "`std::collections::HashMap`/`HashSet` seed their layout from per-process \
              entropy (`RandomState`), so any iteration — or a Debug dump added later — \
              is a latent nondeterminism bug. R3 only catches the iteration; R13 bans \
              the type itself in simulation/dataplane crates. `cebinae_ds::DetMap`/`DetSet` \
              are drop-in: O(1) expected ops, fixed seeded hash, deterministic \
              insertion-order iteration, and `sorted_iter()` where key order matters.",
        flagged: "let mut flow_bytes: HashMap<FlowId, u64> = HashMap::new();",
        preferred: "let mut flow_bytes: cebinae_ds::DetMap<FlowId, u64> = cebinae_ds::DetMap::new();",
        banned: &[
            Ban {
                seq: &["HashMap"],
                at: 0,
                msg: "`{}` in a simulation/dataplane crate; its layout is seeded from process entropy — use `cebinae_ds::DetMap` (O(1), fixed seed, deterministic order)",
            },
            Ban {
                seq: &["HashSet"],
                at: 0,
                msg: "`{}` in a simulation/dataplane crate; its layout is seeded from process entropy — use `cebinae_ds::DetSet` (O(1), fixed seed, deterministic order)",
            },
        ],
    },
    RuleInfo {
        rule: Rule::R14,
        id: "R14",
        // `sim` itself is exempt — it *defines* the backends.
        scope: Scope::Crates(&["engine", "transport", "traffic"]),
        test_exempt: true,
        summary: "no concrete event-queue backend type in the engine/transport/traffic crates",
        why: "Engine, transport and traffic code must talk to the event loop through the \
              `cebinae_sim::Scheduler` trait, never a concrete backend type. The heap and \
              the timing wheel are interchangeable by contract — differential tests swap \
              them under identical call sites — and naming one backend in a consumer \
              crate silently pins that crate to it.",
        flagged: "fn drive(q: &mut HeapScheduler<Ev>) { .. }",
        preferred: "fn drive(q: &mut dyn Scheduler<Ev>) { .. } // or fn drive<S: Scheduler<Ev>>(q: &mut S)",
        banned: &[Ban {
            seq: &["EventQueue|HeapScheduler|WheelScheduler|BinaryHeap"],
            at: 0,
            msg: "concrete event-queue type `{}` in an event-loop consumer crate; name the `cebinae_sim::Scheduler` trait (or `SchedulerKind::build()`) so backends stay swappable",
        }],
    },
    RuleInfo {
        rule: Rule::Waiver,
        id: "W0",
        scope: Scope::Everywhere,
        test_exempt: false,
        summary: "a `// det-ok:` waiver must carry a reason",
        why: "`// det-ok:` waivers must say *why* the waived line is deterministic/safe; \
              an empty reason defeats review.",
        flagged: "// det-ok:",
        preferred: "// det-ok: rate is a [f64; 2] indexed by headq which is always 0 or 1",
        banned: &[],
    },
    RuleInfo {
        rule: Rule::DeadWaiver,
        id: "W1",
        scope: Scope::Everywhere,
        test_exempt: true,
        summary: "a `// det-ok:` waiver must suppress a finding (judged only when no rule is skipped)",
        why: "A waiver over code no rule flags reads as a reviewed exception but guards \
              nothing, and hides how many real exceptions the tree carries. A marker \
              covers its own line and the line below.",
        flagged: "let n = self.len; // det-ok: always in range",
        preferred: "let n = self.len; // always in range",
        banned: &[],
    },
];

impl Rule {
    pub fn info(self) -> &'static RuleInfo {
        &RULES[self as usize]
    }

    /// Parse a rule id (`"R5"`, `"r12"`, `"W0"`).
    pub fn parse(s: &str) -> Option<Rule> {
        RULES.iter().find(|i| i.id.eq_ignore_ascii_case(s.trim())).map(|i| i.rule)
    }

    /// The `--explain` text: rationale plus a flagged and a preferred snippet.
    pub fn explain(self) -> String {
        let i = self.info();
        format!(
            "{}: {}\n\n  flagged:\n    {}\n  preferred:\n    {}\n",
            i.id, i.why, i.flagged, i.preferred
        )
    }

    /// The rule set as one string, `"R1-R14,W0,W1"`: the numbered rules as
    /// a range, the waiver meta-rules by id.
    pub fn span() -> String {
        let (r, w): (Vec<&str>, Vec<&str>) =
            RULES.iter().map(|i| i.id).partition(|id| id.starts_with('R'));
        format!("{}-{},{}", r[0], r[r.len() - 1], w.join(","))
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.info().id)
    }
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
/// symbol, `a|b` for either), return the index one past the match.
fn matches_seq(tokens: &[Token], start: usize, pat: &[&str]) -> Option<usize> {
    for (k, want) in pat.iter().enumerate() {
        let text = match tokens.get(start + k).map(|t| &t.tok) {
            Some(Tok::Ident(s)) => s.as_str(),
            Some(Tok::Punct(p)) => p,
            _ => return None,
        };
        if !want.split('|').any(|w| w == text) {
            return None;
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

    pub fn in_test(&self, line: usize) -> bool {
        self.tests.iter().any(|&(a, b)| line >= a && line <= b)
    }

    pub(crate) fn emit(&self, out: &mut Vec<Violation>, line: usize, rule: Rule, message: String) {
        out.push(Violation {
            file: self.path.to_string(),
            line,
            rule,
            message,
            trace: Vec::new(),
        });
    }
}

/// Run every per-file rule whose scope contains the file. Waived sites
/// are reported like any other: `crate::assemble` applies waivers.
pub fn run_rules(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    for &line in &ctx.lexed.empty_waivers {
        ctx.emit(out, line, Rule::Waiver, "det-ok waiver without a reason; write `// det-ok: <why this is deterministic>`".into());
    }
    for info in RULES.iter().filter(|i| i.scope.contains(ctx.path)) {
        let mut found = Vec::new();
        match info.rule {
            Rule::R3 => r3_unordered_iteration(ctx, &mut found),
            Rule::R6 => r6_float_equality(ctx, &mut found),
            Rule::R10 => crate::units::r10_cross_unit(ctx, &mut found),
            Rule::R11 => crate::units::r11_narrowing_casts(ctx, &mut found),
            // No banned sequences (R5/R12: call graph; W0/W1): finds nothing.
            _ => banned_tokens(ctx, info, &mut found),
        }
        found.retain(|v| !(info.test_exempt && ctx.in_test(v.line)));
        out.append(&mut found);
    }
}

/// The banned-token rules: one finding per identifier that sits at the
/// reporting position of any of the rule's banned sequences.
fn banned_tokens(ctx: &FileCtx<'_>, info: &RuleInfo, out: &mut Vec<Violation>) {
    if info.banned.is_empty() {
        return;
    }
    let toks = &ctx.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        let Tok::Ident(name) = &t.tok else { continue };
        let hit = info.banned.iter().find(|ban| {
            i.checked_sub(ban.at).is_some_and(|start| matches_seq(toks, start, ban.seq).is_some())
        });
        if let Some(ban) = hit {
            ctx.emit(out, t.line, info.rule, ban.msg.replace("{}", name));
        }
    }
}

/// Is `name` an enqueue/dequeue/rotate hot entry point (R5, R12)?
pub fn hot_fn(name: &str) -> bool {
    name == "enqueue" || name == "dequeue" || name.contains("rotate")
}

// ---------------------------------------------------------------------------
// R3: unordered-map iteration
// ---------------------------------------------------------------------------

const R3_ITER_METHODS: [&str; 10] = [
    "iter", "iter_mut", "values", "values_mut", "keys", "drain", "into_iter", "retain",
    "into_values", "into_keys",
];

fn r3_unordered_iteration(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
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
            ctx.emit(
                out,
                toks[i].line,
                Rule::R3,
                format!(
                    "iteration over unordered `{name}` via `.{method}()`; use BTreeMap/BTreeSet, sort first, or waive with det-ok"
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// R6: float equality
// ---------------------------------------------------------------------------

fn r6_float_equality(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
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
        if float_adjacent {
            ctx.emit(
                out,
                toks[i].line,
                Rule::R6,
                format!("`{op}` against a float literal; compare with a tolerance or an ordered predicate (`<=`, `>=`)"),
            );
        }
    }
}
