//! A lightweight item parser on top of the token stream.
//!
//! Recovers just enough structure for workspace-level analysis: function
//! definitions (with their enclosing `impl`/`trait` block, so methods can
//! be resolved by type), the call expressions inside each body, the
//! panic-capable sites (`unwrap`/`expect`/panic-family macros/indexing
//! that can panic), and compound assignments to counters. It is not a
//! full Rust parser — generics, where-clauses, and closures are skipped
//! over structurally, never interpreted — but it is exact on the item
//! shapes this workspace writes, and `tests/analysis.rs` pins the tricky
//! cases (generic fns, trait impls, nested closures, `#[cfg(test)]`
//! exclusion, body-less trait method declarations).
//!
//! Functions inside test regions are never recorded; sites on waived
//! lines are (waivers are applied to findings, in `crate::assemble`).

use crate::lexer::{Lexed, Tok, Token};
use crate::rules::test_regions;

/// How a call expression names its callee.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CallKind {
    /// `foo(..)` or `path::foo(..)` with a lowercase path head.
    Free { name: String },
    /// `recv.foo(..)`; `recv_self` iff the receiver is literally `self`.
    Method { name: String, recv_self: bool },
    /// `Type::foo(..)` (or `Self::foo(..)`, resolved by the caller's
    /// enclosing impl type at index time).
    Qualified { ty: String, name: String },
}

#[derive(Clone, Debug)]
pub struct CallSite {
    pub line: usize,
    pub kind: CallKind,
}

/// A construct that can abort the process at runtime.
#[derive(Clone, Debug)]
pub struct PanicSite {
    pub line: usize,
    /// Human-readable description, e.g. "`.unwrap()`" or
    /// "possibly-panicking indexing `[..]`".
    pub what: String,
}

/// A compound assignment (`+=` / `-=`) whose target is a plain
/// identifier path (last segment recorded).
#[derive(Clone, Debug)]
pub struct CounterOp {
    pub line: usize,
    pub name: String,
    /// "+=" or "-=".
    pub op: String,
}

/// One function definition with the facts the analyses need.
#[derive(Clone, Debug)]
pub struct FnDef {
    pub name: String,
    /// Enclosing `impl` type (inherent or trait impl), if any.
    pub self_ty: Option<String>,
    /// Trait name when inside `impl Trait for Type` or a `trait` block.
    pub trait_name: Option<String>,
    /// Line of the `fn` keyword.
    pub line: usize,
    pub calls: Vec<CallSite>,
    pub panics: Vec<PanicSite>,
    pub counter_ops: Vec<CounterOp>,
}

/// Everything the workspace index needs from one file. Test-region
/// functions are excluded entirely.
#[derive(Clone, Debug, Default)]
pub struct FileFacts {
    pub fns: Vec<FnDef>,
}

/// Keywords that can directly precede `(`/`[` without forming a call or
/// an index expression.
const KEYWORDS: [&str; 30] = [
    "if", "else", "match", "while", "for", "loop", "in", "as", "fn", "let", "mut", "pub",
    "impl", "use", "mod", "struct", "enum", "trait", "where", "move", "unsafe", "return",
    "break", "continue", "ref", "dyn", "crate", "super", "const", "static",
];

fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

struct ImplBlock {
    self_ty: Option<String>,
    trait_name: Option<String>,
    /// Token-index range of the block body (inclusive braces).
    range: (usize, usize),
}

/// Parse one lexed file into [`FileFacts`].
pub fn parse(lexed: &Lexed) -> FileFacts {
    let toks = &lexed.tokens;
    let tests = test_regions(toks);
    let in_test = |line: usize| tests.iter().any(|&(a, b)| line >= a && line <= b);

    let impls = collect_impl_blocks(toks);

    // First pass: locate every named fn and its body token range, so the
    // extraction pass can exclude nested fn bodies from enclosing ones.
    struct RawFn {
        name: String,
        line: usize,
        kw_idx: usize,
        body: Option<(usize, usize)>,
    }
    let mut raw: Vec<RawFn> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].tok != Tok::Ident("fn".into()) {
            i += 1;
            continue;
        }
        let Some(Tok::Ident(name)) = toks.get(i + 1).map(|t| &t.tok) else {
            // `fn(u64) -> u64` pointer type, or malformed — skip.
            i += 1;
            continue;
        };
        let body = fn_body_range(toks, i + 2);
        raw.push(RawFn { name: name.clone(), line: toks[i].line, kw_idx: i, body });
        i += 1;
    }

    let mut out = FileFacts::default();
    for (ri, rf) in raw.iter().enumerate() {
        // Test functions (and everything under `#[cfg(test)]`) are out of
        // scope for the workspace analyses.
        let probe_line = rf.body.map(|(a, _)| toks[a].line).unwrap_or(rf.line);
        if in_test(rf.line) || in_test(probe_line) {
            continue;
        }
        let (self_ty, trait_name) = impls
            .iter()
            .filter(|b| rf.kw_idx > b.range.0 && rf.kw_idx < b.range.1)
            .min_by_key(|b| b.range.1 - b.range.0)
            .map(|b| (b.self_ty.clone(), b.trait_name.clone()))
            .unwrap_or((None, None));
        let mut def = FnDef {
            name: rf.name.clone(),
            self_ty,
            trait_name,
            line: rf.line,
            calls: Vec::new(),
            panics: Vec::new(),
            counter_ops: Vec::new(),
        };
        if let Some((a, b)) = rf.body {
            // Token ranges of fns nested strictly inside this body: their
            // sites belong to them, not to us.
            let nested: Vec<(usize, usize)> = raw
                .iter()
                .enumerate()
                .filter(|&(rj, _)| rj != ri)
                .filter_map(|(_, other)| other.body)
                .filter(|&(oa, ob)| oa > a && ob < b)
                .collect();
            extract_sites(toks, (a, b), &nested, &mut def);
        }
        out.fns.push(def);
    }
    out
}

/// Collect `impl .. { .. }` and `trait .. { .. }` block spans.
fn collect_impl_blocks(toks: &[Token]) -> Vec<ImplBlock> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        match &toks[i].tok {
            Tok::Ident(kw) if kw == "impl" => {
                // Skip `impl` in type position (`-> impl Iterator`,
                // `&impl Trait`, `(impl ..)`): a true item follows nothing,
                // `;`, `}`, or an attribute's `]`.
                let item_pos = match i.checked_sub(1).map(|k| &toks[k].tok) {
                    None => true,
                    Some(Tok::Punct(";")) | Some(Tok::Punct("}")) | Some(Tok::Punct("]")) => true,
                    Some(Tok::Ident(prev)) => prev == "unsafe",
                    _ => false,
                };
                if !item_pos {
                    continue;
                }
                if let Some(block) = parse_impl_header(toks, i) {
                    out.push(block);
                }
            }
            Tok::Ident(kw) if kw == "trait" => {
                let Some(Tok::Ident(name)) = toks.get(i + 1).map(|t| &t.tok) else { continue };
                if let Some(range) = brace_token_range(toks, i + 2) {
                    out.push(ImplBlock {
                        self_ty: None,
                        trait_name: Some(name.clone()),
                        range,
                    });
                }
            }
            _ => {}
        }
    }
    out
}

/// Parse `impl<G> TraitPath for TypePath<..> where .. {` starting at the
/// `impl` keyword; returns the block with its body token range.
fn parse_impl_header(toks: &[Token], impl_idx: usize) -> Option<ImplBlock> {
    let mut j = impl_idx + 1;
    j = skip_generics(toks, j);
    let (first, mut j) = parse_type_path(toks, j)?;
    let mut self_ty = first.clone();
    let mut trait_name = None;
    if toks.get(j).map(|t| &t.tok) == Some(&Tok::Ident("for".into())) {
        let (second, j2) = parse_type_path(toks, j + 1)?;
        trait_name = Some(first);
        self_ty = second;
        j = j2;
    }
    let range = brace_token_range(toks, j)?;
    Some(ImplBlock { self_ty: Some(self_ty), trait_name, range })
}

/// Skip a balanced `<..>` generic parameter list if one starts at `j`.
fn skip_generics(toks: &[Token], mut j: usize) -> usize {
    if toks.get(j).map(|t| &t.tok) != Some(&Tok::Punct("<")) {
        return j;
    }
    let mut depth = 0i64;
    while j < toks.len() {
        match toks[j].tok {
            Tok::Punct("<") => depth += 1,
            Tok::Punct(">") => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// Parse a type path (`a::b::Name<..>`), returning its last segment and
/// the index one past it (generics skipped).
fn parse_type_path(toks: &[Token], mut j: usize) -> Option<(String, usize)> {
    let mut last = None;
    loop {
        match toks.get(j).map(|t| &t.tok) {
            Some(Tok::Ident(seg)) if seg != "for" && seg != "where" => {
                last = Some(seg.clone());
                j += 1;
                j = skip_generics(toks, j);
                if toks.get(j).map(|t| &t.tok) == Some(&Tok::Punct("::")) {
                    j += 1;
                    continue;
                }
                break;
            }
            Some(Tok::Punct("&")) | Some(Tok::Lifetime) => {
                j += 1;
                continue;
            }
            _ => break,
        }
    }
    last.map(|l| (l, j))
}

/// From just after a `fn` name, find the body's balanced brace token
/// range, or `None` for a body-less declaration (`fn f(..);` in a trait).
/// `;` inside `(..)` / `[..]` (array types in the signature) is ignored.
fn fn_body_range(toks: &[Token], from: usize) -> Option<(usize, usize)> {
    let mut paren = 0i64;
    let mut bracket = 0i64;
    let mut j = from;
    while j < toks.len() {
        match toks[j].tok {
            Tok::Punct("(") => paren += 1,
            Tok::Punct(")") => paren -= 1,
            Tok::Punct("[") => bracket += 1,
            Tok::Punct("]") => bracket -= 1,
            Tok::Punct(";") if paren == 0 && bracket == 0 => return None,
            Tok::Punct("{") if paren == 0 && bracket == 0 => {
                return brace_token_range(toks, j);
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Starting at or after `from`, the token range of the next balanced
/// `{ .. }` block (inclusive).
fn brace_token_range(toks: &[Token], from: usize) -> Option<(usize, usize)> {
    let open = (from..toks.len()).find(|&k| toks[k].tok == Tok::Punct("{"))?;
    let mut depth = 0i64;
    for (k, t) in toks.iter().enumerate().skip(open) {
        match t.tok {
            Tok::Punct("{") => depth += 1,
            Tok::Punct("}") => {
                depth -= 1;
                if depth == 0 {
                    return Some((open, k));
                }
            }
            _ => {}
        }
    }
    None
}

const PANIC_MACROS: [&str; 7] = [
    "panic", "unreachable", "todo", "unimplemented", "assert", "assert_eq", "assert_ne",
];

/// Walk one fn body and record calls, panic sites, and counter ops.
/// Skips `nested` fn bodies and `debug_assert*!(..)` arguments (compiled
/// out of release builds).
fn extract_sites(
    toks: &[Token],
    (a, b): (usize, usize),
    nested: &[(usize, usize)],
    def: &mut FnDef,
) {
    let mut i = a;
    while i <= b {
        if let Some(&(_, nb)) = nested.iter().find(|&&(na, _)| na == i) {
            i = nb + 1;
            continue;
        }
        let t = &toks[i];
        let line = t.line;
        match &t.tok {
            // `debug_assert!(..)` / `debug_assert_eq!(..)`: debug-only,
            // skip the whole argument list.
            Tok::Ident(name)
                if name.starts_with("debug_assert")
                    && toks.get(i + 1).map(|t| &t.tok) == Some(&Tok::Punct("!")) =>
            {
                if let Some(close) = paren_close(toks, i + 2) {
                    i = close + 1;
                    continue;
                }
            }
            Tok::Ident(name) if toks.get(i + 1).map(|t| &t.tok) == Some(&Tok::Punct("(")) => {
                // `.unwrap()` / `.expect(..)`.
                if (name == "unwrap" || name == "expect")
                    && i > 0
                    && toks[i - 1].tok == Tok::Punct(".")
                {
                    def.panics.push(PanicSite { line, what: format!("`.{name}(..)`") });
                } else if !is_keyword(name) && name != "self" && name != "Self" {
                    if let Some(kind) = classify_call(toks, i, name) {
                        def.calls.push(CallSite { line, kind });
                    }
                }
            }
            // Panic-family macro invocation.
            Tok::Ident(name)
                if PANIC_MACROS.contains(&name.as_str())
                    && toks.get(i + 1).map(|t| &t.tok) == Some(&Tok::Punct("!")) =>
            {
                def.panics.push(PanicSite { line, what: format!("`{name}!`") });
            }
            // Indexing that can panic: `expr[..]` where `expr` ends in an
            // identifier, `)`, or `]`, and the index is not all-literal.
            Tok::Punct("[") if i > 0 => {
                let indexable = match &toks[i - 1].tok {
                    Tok::Ident(prev) => !is_keyword(prev),
                    Tok::Punct(")") | Tok::Punct("]") => true,
                    _ => false,
                };
                if indexable {
                    if let Some(close) = bracket_close(toks, i) {
                        let inner = &toks[i + 1..close];
                        let all_literal = !inner.is_empty()
                            && inner.iter().all(|t| matches!(t.tok, Tok::Num { .. }));
                        let full_range =
                            inner.len() == 1 && inner[0].tok == Tok::Punct("..");
                        if !all_literal && !full_range && !inner.is_empty() {
                            def.panics.push(PanicSite {
                                line,
                                what: "possibly-panicking indexing `[..]`".into(),
                            });
                        }
                    }
                }
            }
            // Compound assignment: `+=` / `-=` lex as two puncts.
            Tok::Punct(op @ ("+" | "-"))
                if toks.get(i + 1).map(|t| &t.tok) == Some(&Tok::Punct("=")) =>
            {
                if let Some(name) = assign_target(toks, i) {
                    def.counter_ops.push(CounterOp { line, name, op: format!("{op}=") });
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// Classify the call at `i` (an identifier directly followed by `(`).
fn classify_call(toks: &[Token], i: usize, name: &str) -> Option<CallKind> {
    match i.checked_sub(1).map(|k| &toks[k].tok) {
        Some(Tok::Punct(".")) => {
            // Receiver is `self` iff the chain is exactly `self . name (`.
            let recv_self = i >= 2
                && toks[i - 2].tok == Tok::Ident("self".into())
                && (i < 3 || toks[i - 3].tok != Tok::Punct("."));
            Some(CallKind::Method { name: name.into(), recv_self })
        }
        Some(Tok::Punct("::")) => {
            let Some(Tok::Ident(head)) = i.checked_sub(2).map(|k| &toks[k].tok) else {
                // `<T as Trait>::f(..)` and friends — best effort: free.
                return Some(CallKind::Free { name: name.into() });
            };
            if head.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                Some(CallKind::Qualified { ty: head.clone(), name: name.into() })
            } else {
                // `module::f(..)` — module paths drop to a free-name lookup.
                Some(CallKind::Free { name: name.into() })
            }
        }
        _ => Some(CallKind::Free { name: name.into() }),
    }
}

/// For a compound assignment at `op_idx`, walk left over one balanced
/// `[..]` (slice-indexed targets) and return the assigned identifier.
fn assign_target(toks: &[Token], op_idx: usize) -> Option<String> {
    let mut k = op_idx.checked_sub(1)?;
    if toks[k].tok == Tok::Punct("]") {
        let mut depth = 0i64;
        loop {
            match toks[k].tok {
                Tok::Punct("]") => depth += 1,
                Tok::Punct("[") => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            k = k.checked_sub(1)?;
        }
        k = k.checked_sub(1)?;
    }
    match &toks[k].tok {
        Tok::Ident(name) if !is_keyword(name) => Some(name.clone()),
        _ => None,
    }
}

/// Index of the `)` closing the `(` at `open`.
fn paren_close(toks: &[Token], open: usize) -> Option<usize> {
    if toks.get(open).map(|t| &t.tok) != Some(&Tok::Punct("(")) {
        return None;
    }
    let mut depth = 0i64;
    for (k, t) in toks.iter().enumerate().skip(open) {
        match t.tok {
            Tok::Punct("(") => depth += 1,
            Tok::Punct(")") => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
}

/// Index of the `]` closing the `[` at `open`.
fn bracket_close(toks: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i64;
    for (k, t) in toks.iter().enumerate().skip(open) {
        match t.tok {
            Tok::Punct("[") => depth += 1,
            Tok::Punct("]") => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
}
