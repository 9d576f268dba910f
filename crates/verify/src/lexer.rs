//! A minimal Rust lexer, sufficient for the determinism rules.
//!
//! The lexer's job is to turn source text into a token stream in which
//! comments and string/char literal *contents* can never produce false
//! positives, while preserving the information the rules need:
//!
//! * every token carries its 1-based source line;
//! * `// det-ok: <reason>` comments are captured as waivers;
//! * number tokens know whether they are float literals (rule R6);
//! * lifetimes are distinguished from char literals so `'a` does not
//!   swallow the rest of the file looking for a closing quote.
//!
//! It is deliberately not a full Rust lexer — no macro expansion, no
//! shebang/frontmatter handling — but it is exact on the constructs that
//! appear in this workspace, and the fixture self-tests pin the tricky
//! cases (nested block comments, raw strings, `'a'` vs `'a`).

use std::collections::BTreeMap;

/// One lexed token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword.
    Ident(String),
    /// Operator / punctuation. Multi-character operators that the rules
    /// care about (`::`, `==`, `!=`, `..`, `->`, `=>`) are joined; all
    /// other punctuation is single-character.
    Punct(&'static str),
    /// Numeric literal. `is_float` is true for `1.0`, `1e6`, `1f64`, ….
    Num { is_float: bool },
    /// `'lifetime` (kept so rules can ignore them).
    Lifetime,
    /// String / char / byte literal (contents dropped).
    Literal,
}

/// A token plus its 1-based source line.
#[derive(Clone, Debug)]
pub struct Token {
    pub tok: Tok,
    pub line: usize,
}

/// The result of lexing one file.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    /// Lines carrying a `// det-ok: <reason>` waiver, mapped to the reason.
    /// A waiver suppresses diagnostics on its own line and the line below
    /// (so it can sit above the waived statement).
    pub waivers: BTreeMap<usize, String>,
    /// Waivers with an empty reason — these are themselves diagnosed.
    pub empty_waivers: Vec<usize>,
    /// File-scoped `// unit: name=bytes, budget=ns` annotations binding a
    /// unit to identifiers whose names carry no unit suffix (rule R10).
    pub unit_bindings: BTreeMap<String, String>,
}

/// The lines whose waiver covers a diagnostic on `line`: its own and
/// the one above.
pub fn waiver_lines(line: usize) -> [usize; 2] {
    [line, line.saturating_sub(1)]
}

impl Lexed {
    /// Is `line` covered by a waiver?
    pub fn waived(&self, line: usize) -> bool {
        waiver_lines(line).iter().any(|l| self.waivers.contains_key(l))
    }
}

const JOINED: [&str; 6] = ["::", "==", "!=", "..", "->", "=>"];

/// Lex `src` into tokens + waivers.
pub fn lex(src: &str) -> Lexed {
    let mut out = Lexed::default();
    let b = src.as_bytes();
    let mut i = 0;
    let mut line = 1;

    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            // Line comment (and waiver capture).
            b'/' if b.get(i + 1) == Some(&b'/') => {
                let end = src[i..].find('\n').map(|o| i + o).unwrap_or(b.len());
                let text = &src[i..end];
                let body = text.trim_start_matches('/').trim_start();
                if let Some(rest) = body.strip_prefix("det-ok") {
                    let reason = rest.trim_start_matches(':').trim();
                    if reason.is_empty() {
                        out.empty_waivers.push(line);
                    } else {
                        out.waivers.insert(line, reason.to_string());
                    }
                } else if let Some(rest) = body.strip_prefix("unit:") {
                    for part in rest.split(',') {
                        if let Some((name, unit)) = part.split_once('=') {
                            let (name, unit) = (name.trim(), unit.trim());
                            if !name.is_empty() && !unit.is_empty() {
                                out.unit_bindings.insert(name.into(), unit.into());
                            }
                        }
                    }
                }
                i = end;
            }
            // Block comment, possibly nested.
            b'/' if b.get(i + 1) == Some(&b'*') => {
                i += 2;
                let mut depth = 1;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            // Raw strings: r"..." / r#"..."# / br#"..."#.
            b'r' | b'b'
                if is_raw_string_start(b, i) =>
            {
                let start_line = line;
                i += if c == b'b' { 2 } else { 1 }; // past r / br
                let mut hashes = 0;
                while b.get(i) == Some(&b'#') {
                    hashes += 1;
                    i += 1;
                }
                i += 1; // opening quote
                loop {
                    match b.get(i) {
                        None => break,
                        Some(b'\n') => {
                            line += 1;
                            i += 1;
                        }
                        Some(b'"') => {
                            let mut ok = true;
                            for k in 0..hashes {
                                if b.get(i + 1 + k) != Some(&b'#') {
                                    ok = false;
                                    break;
                                }
                            }
                            i += 1;
                            if ok {
                                i += hashes;
                                break;
                            }
                        }
                        _ => i += 1,
                    }
                }
                out.tokens.push(Token { tok: Tok::Literal, line: start_line });
            }
            // Plain / byte strings.
            b'"' | b'b' if c == b'"' || (c == b'b' && b.get(i + 1) == Some(&b'"')) => {
                let start_line = line;
                i += if c == b'b' { 2 } else { 1 };
                while i < b.len() {
                    match b[i] {
                        b'\\' => i += 2,
                        b'\n' => {
                            line += 1;
                            i += 1;
                        }
                        b'"' => {
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                }
                out.tokens.push(Token { tok: Tok::Literal, line: start_line });
            }
            // Char literal vs lifetime.
            b'\'' => {
                if is_char_literal(b, i) {
                    i += 1;
                    while i < b.len() {
                        match b[i] {
                            b'\\' => i += 2,
                            b'\'' => {
                                i += 1;
                                break;
                            }
                            _ => i += 1,
                        }
                    }
                    out.tokens.push(Token { tok: Tok::Literal, line });
                } else {
                    // Lifetime: consume the quote + identifier.
                    i += 1;
                    while i < b.len() && is_ident_char(b[i]) {
                        i += 1;
                    }
                    out.tokens.push(Token { tok: Tok::Lifetime, line });
                }
            }
            c if c.is_ascii_digit() => {
                let (len, is_float) = lex_number(&src[i..]);
                out.tokens.push(Token { tok: Tok::Num { is_float }, line });
                i += len;
            }
            c if is_ident_start(c) => {
                let start = i;
                while i < b.len() && is_ident_char(b[i]) {
                    i += 1;
                }
                out.tokens.push(Token {
                    tok: Tok::Ident(src[start..i].to_string()),
                    line,
                });
            }
            _ => {
                // Punctuation, joining the operators the rules match on.
                let mut tok = None;
                for j in JOINED {
                    if src[i..].starts_with(j) {
                        tok = Some(j);
                        break;
                    }
                }
                match tok {
                    Some(j) => {
                        out.tokens.push(Token { tok: Tok::Punct(j), line });
                        i += j.len();
                    }
                    None => {
                        out.tokens.push(Token {
                            tok: Tok::Punct(punct_str(c)),
                            line,
                        });
                        i += 1;
                    }
                }
            }
        }
    }
    out
}

fn is_ident_start(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphabetic()
}

fn is_ident_char(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphanumeric()
}

/// `r"`, `r#`, `br"`, `br#` — but not an identifier like `radius`.
fn is_raw_string_start(b: &[u8], i: usize) -> bool {
    // Must not be in the middle of an identifier (caller dispatches on the
    // first byte, so check only forward).
    let j = if b[i] == b'b' {
        if b.get(i + 1) != Some(&b'r') {
            return false;
        }
        i + 2
    } else {
        i + 1
    };
    matches!(b.get(j), Some(&b'"') | Some(&b'#'))
        && {
            // r#foo is a raw identifier, not a raw string: require that a
            // quote follows the hashes.
            let mut k = j;
            while b.get(k) == Some(&b'#') {
                k += 1;
            }
            b.get(k) == Some(&b'"')
        }
}

/// Disambiguate `'x'` (char) from `'x` (lifetime): a char literal closes
/// with a quote after one escaped or plain character.
fn is_char_literal(b: &[u8], i: usize) -> bool {
    match b.get(i + 1) {
        Some(&b'\\') => true, // '\n', '\'', … always a char literal
        Some(&c) if is_ident_char(c) => b.get(i + 2) == Some(&b'\''),
        Some(_) => true, // '(' , '-' … punctuation chars: char literal
        None => false,
    }
}

/// Length and float-ness of the numeric literal at the start of `s`.
fn lex_number(s: &str) -> (usize, bool) {
    let b = s.as_bytes();
    let mut i = 0;
    let mut is_float = false;

    if s.starts_with("0x") || s.starts_with("0o") || s.starts_with("0b") {
        i = 2;
        while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
            i += 1;
        }
        return (i, false);
    }

    while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'_') {
        i += 1;
    }
    // Fractional part only if '.' is followed by a digit (so `0..n` and
    // `1.method()` stay integers).
    if i < b.len() && b[i] == b'.' && b.get(i + 1).is_some_and(|c| c.is_ascii_digit()) {
        is_float = true;
        i += 1;
        while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'_') {
            i += 1;
        }
    }
    // Exponent.
    if i < b.len() && (b[i] == b'e' || b[i] == b'E') {
        let mut j = i + 1;
        if matches!(b.get(j), Some(&b'+') | Some(&b'-')) {
            j += 1;
        }
        if b.get(j).is_some_and(|c| c.is_ascii_digit()) {
            is_float = true;
            i = j;
            while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'_') {
                i += 1;
            }
        }
    }
    // Type suffix.
    if s[i..].starts_with("f32") || s[i..].starts_with("f64") {
        is_float = true;
        i += 3;
    } else {
        for suf in ["u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize"] {
            if s[i..].starts_with(suf) {
                i += suf.len();
                break;
            }
        }
    }
    (i, is_float)
}

fn punct_str(c: u8) -> &'static str {
    match c {
        b'{' => "{",
        b'}' => "}",
        b'(' => "(",
        b')' => ")",
        b'[' => "[",
        b']' => "]",
        b'.' => ".",
        b',' => ",",
        b';' => ";",
        b':' => ":",
        b'#' => "#",
        b'!' => "!",
        b'<' => "<",
        b'>' => ">",
        b'=' => "=",
        b'&' => "&",
        b'|' => "|",
        b'+' => "+",
        b'-' => "-",
        b'*' => "*",
        b'/' => "/",
        b'%' => "%",
        b'^' => "^",
        b'?' => "?",
        b'@' => "@",
        b'$' => "$",
        b'~' => "~",
        _ => "?",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn comments_and_strings_are_opaque() {
        let src = r##"
            // thread_rng in a comment
            /* Instant::now() in /* a nested */ block comment */
            let s = "SystemTime::now()";
            let r = r#"thread_rng "quoted" "#;
            let c = '\'';
            real_ident();
        "##;
        let ids = idents(src);
        assert!(ids.contains(&"real_ident".to_string()));
        assert!(!ids.iter().any(|s| s == "thread_rng" || s == "Instant" || s == "SystemTime"));
    }

    #[test]
    fn lifetimes_do_not_eat_source() {
        let src = "fn f<'a>(x: &'a str) { thread_rng(); }";
        assert!(idents(src).contains(&"thread_rng".to_string()));
    }

    #[test]
    fn char_literals_close() {
        let src = "let c = 'x'; let d = '\\n'; after();";
        assert!(idents(src).contains(&"after".to_string()));
    }

    #[test]
    fn number_float_detection() {
        for (s, f) in [
            ("1.0", true),
            ("1e6", true),
            ("2.5e-3", true),
            ("3f64", true),
            ("7", false),
            ("0x3f", false),
            ("10u64", false),
        ] {
            let lexed = lex(s);
            assert_eq!(lexed.tokens.len(), 1, "{s}");
            assert_eq!(lexed.tokens[0].tok, Tok::Num { is_float: f }, "{s}");
        }
        // Range: two ints, not a float.
        let lexed = lex("0..5");
        assert_eq!(lexed.tokens[0].tok, Tok::Num { is_float: false });
        assert_eq!(lexed.tokens[1].tok, Tok::Punct(".."));
    }

    #[test]
    fn waivers_are_captured() {
        let src = "x(); // det-ok: justified reason\ny();\n// det-ok:\nz();";
        let l = lex(src);
        assert_eq!(l.waivers.get(&1).map(String::as_str), Some("justified reason"));
        assert!(l.waived(1));
        assert!(l.waived(2)); // line below a waiver is covered
        assert!(!l.waived(4) || l.empty_waivers.contains(&3));
        assert_eq!(l.empty_waivers, vec![3]);
    }
}
