//! Unit/dimension safety: R10 (cross-unit arithmetic & comparison) and
//! R11 (lossy narrowing casts in dataplane code).
//!
//! R10 infers a unit for an identifier from the workspace's suffix
//! conventions (`_ns`, `_bytes`, `_bps`, `_pkts`, …) or from a
//! file-scoped `// unit: name=bytes` annotation, and flags `+`, `-`,
//! `+=`, `-=`, and ordering/equality comparisons whose two sides carry
//! *different known* units. Multiplication and division are exempt —
//! they legitimately combine dimensions (`bytes / secs`). Identifiers
//! with no inferable unit never participate, so the rule is silent on
//! unit-agnostic code rather than guessing.

use crate::lexer::Tok;
use crate::rules::{FileCtx, Rule, Violation};

/// Suffix → unit, longest-match-first.
const UNIT_SUFFIXES: [(&str, &str); 10] = [
    ("_nanos", "ns"),
    ("_ns", "ns"),
    ("_us", "us"),
    ("_ms", "ms"),
    ("_secs", "s"),
    ("_bytes", "bytes"),
    ("_bits", "bits"),
    ("_bps", "bps"),
    ("_pkts", "pkts"),
    ("_mss", "mss"),
];

/// Narrowing `as` targets: anything that can drop bits of a u64/f64
/// quantity.
const NARROW_TARGETS: [&str; 7] = ["u8", "u16", "u32", "i8", "i16", "i32", "f32"];

fn unit_of(name: &str, ctx: &FileCtx<'_>) -> Option<String> {
    if let Some(u) = ctx.lexed.unit_bindings.get(name) {
        return Some(u.clone());
    }
    UNIT_SUFFIXES
        .iter()
        .find(|(suf, _)| name.ends_with(suf))
        .map(|(_, u)| (*u).to_string())
}

pub fn r10_cross_unit(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    let toks = &ctx.lexed.tokens;
    let mut i = 0;
    while i < toks.len() {
        // Recognize a binary op: `+ - < > == !=` plus the two-token forms
        // `+= -= <= >=`. `->`, `..`, and unary minus fall out naturally
        // because their neighbors fail the operand checks below.
        let (op, rhs_start) = match &toks[i].tok {
            Tok::Punct("==") => ("==", i + 1),
            Tok::Punct("!=") => ("!=", i + 1),
            Tok::Punct(p @ ("+" | "-" | "<" | ">"))
                if toks.get(i + 1).map(|t| &t.tok) == Some(&Tok::Punct("=")) =>
            {
                (match *p { "+" => "+=", "-" => "-=", "<" => "<=", _ => ">=" }, i + 2)
            }
            Tok::Punct(p @ ("+" | "-" | "<" | ">")) => (*p, i + 1),
            _ => {
                i += 1;
                continue;
            }
        };
        // `<`/`>` in generics and `->`-ish contexts: require both sides
        // to be unit-carrying identifiers, which generic brackets never
        // are in this workspace's naming scheme.
        let lhs = match i.checked_sub(1).map(|k| &toks[k].tok) {
            Some(Tok::Ident(name)) => name.clone(),
            _ => {
                i = rhs_start;
                continue;
            }
        };
        let Some(rhs) = rhs_chain_last_ident(toks, rhs_start) else {
            i = rhs_start;
            continue;
        };
        if let (Some(lu), Some(ru)) = (unit_of(&lhs, ctx), unit_of(&rhs, ctx)) {
            if lu != ru {
                ctx.emit(
                    out,
                    toks[i].line,
                    Rule::R10,
                    format!(
                        "cross-unit `{op}`: `{lhs}` is {lu} but `{rhs}` is {ru}; convert \
                         explicitly (or annotate with `// unit: name={lu}` if the name lies)"
                    ),
                );
            }
        }
        i = rhs_start;
    }
}

/// Last identifier of the operand chain starting at `j`: skips `& * self`
/// prefixes and follows `a . b . c` field paths. `None` for literals,
/// parenthesized expressions, and anything else.
fn rhs_chain_last_ident(toks: &[crate::lexer::Token], mut j: usize) -> Option<String> {
    while matches!(toks.get(j).map(|t| &t.tok), Some(Tok::Punct("&")) | Some(Tok::Punct("*"))) {
        j += 1;
    }
    let mut last: Option<String> = None;
    loop {
        match toks.get(j).map(|t| &t.tok) {
            Some(Tok::Ident(name)) => {
                last = Some(name.clone());
                j += 1;
                if toks.get(j).map(|t| &t.tok) == Some(&Tok::Punct(".")) {
                    // Stop at a method call (`x.max(..)`) — the chain's
                    // value is no longer the named field.
                    if toks.get(j + 2).map(|t| &t.tok) == Some(&Tok::Punct("(")) {
                        return None;
                    }
                    j += 1;
                    continue;
                }
                break;
            }
            Some(Tok::Num { .. }) if last.is_some() => {
                // Tuple-field access (`x.0`) — unit-agnostic.
                return None;
            }
            _ => break,
        }
    }
    // A call or index on the final segment is not a plain named value.
    if matches!(
        toks.get(j).map(|t| &t.tok),
        Some(Tok::Punct("(")) | Some(Tok::Punct("[")) | Some(Tok::Punct("::"))
    ) {
        return None;
    }
    last
}

pub fn r11_narrowing_casts(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    let toks = &ctx.lexed.tokens;
    for i in 0..toks.len() {
        if toks[i].tok != Tok::Ident("as".into()) {
            continue;
        }
        let Some(Tok::Ident(ty)) = toks.get(i + 1).map(|t| &t.tok) else { continue };
        if !NARROW_TARGETS.contains(&ty.as_str()) {
            continue;
        }
        // Literal casts (`7 as u32`) are compile-time-checkable noise.
        if i > 0 && matches!(toks[i - 1].tok, Tok::Num { .. }) {
            continue;
        }
        ctx.emit(
            out,
            toks[i].line,
            Rule::R11,
            format!(
                "lossy narrowing cast `as {ty}` in dataplane code; use `try_from`, widen \
                 the destination, or waive with the bound that makes truncation impossible"
            ),
        );
    }
}
