//! Hand-rolled lexer for `wormspec/1`.
//!
//! Produces a flat token stream with byte spans. Comments (`#` to end
//! of line) and whitespace are skipped — they can never influence the
//! AST, which is what makes the canonical content hash stable across
//! reformatting.
//!
//! Tokens borrow from the source: identifiers and decimals are slices
//! of it, and a string literal is a slice too unless it holds an
//! escape. The parser copies out only the strings the AST keeps.

use std::borrow::Cow;

use crate::diag::{codes, Span, SpecError};

/// A token kind plus its payload, borrowed from the source text.
#[derive(Clone, Debug, PartialEq)]
pub enum Tok<'a> {
    /// Bare word: keywords, section names, engine names, references
    /// (`c3`, `m0`, `W101`), unit keywords.
    Ident(&'a str),
    /// Quoted string with escapes resolved (owned only when the literal
    /// holds an escape).
    Str(Cow<'a, str>),
    /// Unsigned integer literal.
    Int(u64),
    /// Decimal literal, normalized (e.g. `00.50` lexes as `0.5`). The
    /// normalized numeral is always a substring of the literal.
    Decimal(&'a str),
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `=`
    Eq,
    /// `,`
    Comma,
    /// `->`
    Arrow,
    /// `@`
    At,
    /// `..`
    DotDot,
    /// `/`
    Slash,
    /// End of input.
    Eof,
}

impl Tok<'_> {
    /// Human description for error messages.
    pub fn describe(&self) -> String {
        match self {
            Tok::Ident(s) => format!("`{s}`"),
            Tok::Str(s) => format!("string {s:?}"),
            Tok::Int(n) => format!("`{n}`"),
            Tok::Decimal(d) => format!("`{d}`"),
            Tok::LBrace => "`{`".into(),
            Tok::RBrace => "`}`".into(),
            Tok::LBracket => "`[`".into(),
            Tok::RBracket => "`]`".into(),
            Tok::LParen => "`(`".into(),
            Tok::RParen => "`)`".into(),
            Tok::Eq => "`=`".into(),
            Tok::Comma => "`,`".into(),
            Tok::Arrow => "`->`".into(),
            Tok::At => "`@`".into(),
            Tok::DotDot => "`..`".into(),
            Tok::Slash => "`/`".into(),
            Tok::Eof => "end of input".into(),
        }
    }
}

/// A token with its source span.
#[derive(Clone, Debug, PartialEq)]
pub struct Token<'a> {
    /// What was lexed.
    pub tok: Tok<'a>,
    /// Where it sits in the source.
    pub span: Span,
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// The character starting at byte `i` of `source`.
fn char_at(source: &str, i: usize) -> char {
    source[i..].chars().next().expect("in-bounds char")
}

/// Lex a whole source text into tokens (ending with [`Tok::Eof`]).
pub fn lex(source: &str) -> Result<Vec<Token<'_>>, SpecError> {
    let bytes = source.as_bytes();
    // Explicit specs, the large ones, lex to one token per 3.7–4.1
    // bytes: reserving a quarter of the length saves most regrowth.
    let mut out = Vec::with_capacity(source.len() / 4);
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        // Skip whitespace and comments.
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        if c == b'#' {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        let lo = i;
        let (tok, end) = match c {
            b'{' => (Tok::LBrace, lo + 1),
            b'}' => (Tok::RBrace, lo + 1),
            b'[' => (Tok::LBracket, lo + 1),
            b']' => (Tok::RBracket, lo + 1),
            b'(' => (Tok::LParen, lo + 1),
            b')' => (Tok::RParen, lo + 1),
            b'=' => (Tok::Eq, lo + 1),
            b',' => (Tok::Comma, lo + 1),
            b'@' => (Tok::At, lo + 1),
            b'/' => (Tok::Slash, lo + 1),
            b'-' if bytes.get(lo + 1) == Some(&b'>') => (Tok::Arrow, lo + 2),
            b'-' => {
                return Err(SpecError::new(
                    codes::LEX,
                    "stray `-` (did you mean `->`?)",
                    Span::new(lo, lo + 1),
                ));
            }
            b'.' if bytes.get(lo + 1) == Some(&b'.') => (Tok::DotDot, lo + 2),
            b'.' => {
                return Err(SpecError::new(
                    codes::LEX,
                    "stray `.` (ranges are written `a..b`)",
                    Span::new(lo, lo + 1),
                ));
            }
            b'"' => {
                let (s, end) = string_literal(source, lo)?;
                (Tok::Str(s), end)
            }
            b'0'..=b'9' => number(source, lo)?,
            c if is_ident_start(c) => {
                let end = skip(bytes, lo + 1, is_ident_continue);
                (Tok::Ident(&source[lo..end]), end)
            }
            _ => {
                let other = char_at(source, lo);
                return Err(SpecError::new(
                    codes::LEX,
                    format!("unexpected character `{other}`"),
                    Span::new(lo, lo + other.len_utf8()),
                ));
            }
        };
        out.push(Token {
            tok,
            span: Span::new(lo, end),
        });
        i = end;
    }
    out.push(Token {
        tok: Tok::Eof,
        span: Span::new(source.len(), source.len()),
    });
    Ok(out)
}

/// The first offset at or after `i` whose byte fails `keep`.
fn skip(bytes: &[u8], mut i: usize, keep: fn(u8) -> bool) -> usize {
    while i < bytes.len() && keep(bytes[i]) {
        i += 1;
    }
    i
}

/// The integer or decimal literal starting at byte `lo`, and the offset
/// just past it.
fn number(source: &str, lo: usize) -> Result<(Tok<'_>, usize), SpecError> {
    let bytes = source.as_bytes();
    let i = skip(bytes, lo, |b| b.is_ascii_digit());
    // A decimal point followed by digits makes a Decimal — but `..` is
    // a range, not a fraction.
    if bytes.get(i) == Some(&b'.') && bytes.get(i + 1).is_some_and(u8::is_ascii_digit) {
        let end = skip(bytes, i + 1, |b| b.is_ascii_digit());
        return Ok((Tok::Decimal(normalize_decimal(&source[lo..end])), end));
    }
    let text = &source[lo..i];
    match text.parse::<u64>() {
        Ok(n) => Ok((Tok::Int(n), i)),
        Err(_) => Err(SpecError::new(
            codes::RANGE,
            format!("integer literal `{text}` exceeds 64 bits"),
            Span::new(lo, i),
        )),
    }
}

/// Whether a string-literal byte stands for itself (it is no quote,
/// backslash or newline).
fn is_plain(b: u8) -> bool {
    !matches!(b, b'"' | b'\\' | b'\n')
}

/// The string literal whose opening quote is at byte `lo`, with its
/// escapes resolved, and the offset just past its closing quote. The
/// value borrows from `source` unless the literal holds an escape.
fn string_literal(source: &str, lo: usize) -> Result<(Cow<'_, str>, usize), SpecError> {
    let bytes = source.as_bytes();
    let mut from = lo + 1;
    let mut i = skip(bytes, from, is_plain);
    if bytes.get(i) == Some(&b'"') {
        return Ok((Cow::Borrowed(&source[from..i]), i + 1));
    }
    let mut s = String::new();
    loop {
        s.push_str(&source[from..i]);
        match bytes.get(i) {
            None | Some(b'\n') => {
                return Err(SpecError::new(
                    codes::LEX,
                    "unterminated string literal",
                    Span::new(lo, i),
                ));
            }
            Some(b'"') => return Ok((Cow::Owned(s), i + 1)),
            _ => match bytes.get(i + 1) {
                Some(b'"') => s.push('"'),
                Some(b'\\') => s.push('\\'),
                Some(b'n') => s.push('\n'),
                Some(b't') => s.push('\t'),
                other => {
                    // The span covers the backslash and the whole escaped
                    // character (two bytes at the end of the input).
                    let width = other.map_or(1, |_| char_at(source, i + 1).len_utf8());
                    return Err(SpecError::new(
                        codes::LEX,
                        "unknown string escape (supported: \\\" \\\\ \\n \\t)",
                        Span::new(i, i + 1 + width),
                    ));
                }
            },
        }
        from = i + 2;
        i = skip(bytes, from, is_plain);
    }
}

/// Normalize a decimal numeral: strip leading zeros of the integer
/// part (keeping one) and trailing zeros of the fraction (dropping the
/// point if the fraction empties). The result is a substring of `text`:
/// when the integer part is all zeros, its last zero is kept.
fn normalize_decimal(text: &str) -> &str {
    let point = text.find('.').expect("decimal has a point");
    let digits = text[..point].trim_start_matches('0').len();
    let lo = point - digits.max(1);
    let frac = text[point + 1..].trim_end_matches('0');
    if frac.is_empty() {
        &text[lo..point]
    } else {
        &text[lo..point + 1 + frac.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn lexes_structure_tokens() {
        assert_eq!(
            kinds("a { b = [1, 2] } # comment"),
            vec![
                Tok::Ident("a"),
                Tok::LBrace,
                Tok::Ident("b"),
                Tok::Eq,
                Tok::LBracket,
                Tok::Int(1),
                Tok::Comma,
                Tok::Int(2),
                Tok::RBracket,
                Tok::RBrace,
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn lexes_arrows_ranges_and_decimals() {
        assert_eq!(
            kinds("\"A\" -> \"B\" 3..7 0.50"),
            vec![
                Tok::Str("A".into()),
                Tok::Arrow,
                Tok::Str("B".into()),
                Tok::Int(3),
                Tok::DotDot,
                Tok::Int(7),
                Tok::Decimal("0.5"),
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn string_escapes_resolve() {
        assert_eq!(
            kinds(r#""N\"*\\""#),
            vec![Tok::Str("N\"*\\".into()), Tok::Eof]
        );
    }

    #[test]
    fn only_escaped_strings_are_owned() {
        let toks = lex(r#""plain" "es\tcaped""#).unwrap();
        assert!(matches!(&toks[0].tok, Tok::Str(Cow::Borrowed("plain"))));
        assert!(matches!(&toks[1].tok, Tok::Str(Cow::Owned(s)) if s == "es\tcaped"));
    }

    #[test]
    fn decimals_normalize_to_a_substring() {
        for (text, normal) in [
            ("0.50", "0.5"),
            ("00.50", "0.5"),
            ("012.30", "12.3"),
            ("12.000", "12"),
            ("000.000", "0"),
        ] {
            assert_eq!(kinds(text), vec![Tok::Decimal(normal), Tok::Eof], "{text}");
        }
    }

    #[test]
    fn non_ascii_errors_span_whole_characters() {
        let err = lex("ab €").unwrap_err();
        assert_eq!(err.message, "unexpected character `€`");
        assert_eq!(err.span, Span::new(3, 6));
        let err = lex("\"a\\é\"").unwrap_err();
        assert_eq!(err.code, codes::LEX);
        assert_eq!(err.span, Span::new(2, 5));
    }

    #[test]
    fn unterminated_string_is_a_lex_error() {
        let err = lex("\"abc").unwrap_err();
        assert_eq!(err.code, codes::LEX);
    }

    #[test]
    fn spans_point_at_the_token() {
        let toks = lex("ab 12").unwrap();
        assert_eq!(toks[0].span, Span::new(0, 2));
        assert_eq!(toks[1].span, Span::new(3, 5));
    }
}
