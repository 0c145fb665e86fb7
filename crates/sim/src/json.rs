//! The workspace's one JSON codec (RFC 8259): a value type, a strict
//! parser and a string escaper, in place of a `serde_json` dependency
//! (the workspace is hermetic; see DESIGN.md).
//!
//! Every document it reads — `BENCH_*.json`, `BENCHMARK.json`,
//! benchmark result files — comes from a path given on
//! a command line, so the parser treats its input as hostile: it is
//! linear in the input length, bounds nesting at [`MAX_DEPTH`] instead of
//! overflowing the stack, follows the RFC number grammar, and rejects
//! numbers `f64` cannot hold, raw control characters, lone surrogates and
//! duplicate object keys (readers use first-match [`Json::get`], so a
//! duplicate could carry a second `summary` that no validator looks at).
//!
//! Writing stays with each schema's own renderer; they share only
//! [`escape_into`].

use std::collections::BTreeSet;
use std::fmt::{self, Write as _};

/// Deepest accepted nesting of arrays and objects.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value. Objects keep their keys in document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A non-negative integer small enough (≤ 2⁵³) that `f64` held it
    /// exactly.
    pub fn as_count(&self) -> Option<u64> {
        const EXACT: f64 = 9_007_199_254_740_992.0;
        match self {
            Json::Num(n) if (0.0..=EXACT).contains(n) && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Why a document was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// A byte (or the end of input, when `at` is the input's length) that
    /// cannot start or continue the construct at that point.
    Unexpected,
    /// Input after the one top-level value.
    TrailingInput,
    /// Not the RFC grammar: leading `+`, leading zero, bare `.` or `e`.
    BadNumber,
    /// Grammatical, but `f64` rounds it to infinity.
    NumberOutOfRange,
    /// A raw character below U+0020 inside a string.
    ControlInString,
    BadEscape,
    /// A `\uD800`–`\uDFFF` escape that is not half of a valid pair.
    LoneSurrogate,
    DuplicateKey,
    /// Nesting deeper than [`MAX_DEPTH`].
    TooDeep,
}

/// A rejected document: what was wrong and at which byte offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseError {
    pub kind: ErrorKind,
    pub at: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?} at byte {}", self.kind, self.at)
    }
}

/// Append `s` to `out` as a quoted JSON string.
pub fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            // Writing to a String cannot fail.
            c if (c as u32) < 0x20 => drop(write!(out, "\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse one JSON document (strict: one value, no trailing input).
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut p = Parser { text, i: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.i != text.len() {
        return fail(ErrorKind::TrailingInput, p.i);
    }
    Ok(value)
}

fn fail<T>(kind: ErrorKind, at: usize) -> Result<T, ParseError> {
    Err(ParseError { kind, at })
}

/// Cursor over the input. `i` only ever rests on a char boundary: it
/// advances past ASCII bytes one at a time and past string contents in
/// runs that end at an ASCII delimiter.
struct Parser<'a> {
    text: &'a str,
    i: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.i).copied()
    }

    /// Advance past the bytes `pred` accepts; how many there were.
    fn skip(&mut self, pred: impl Fn(u8) -> bool) -> usize {
        let start = self.i;
        while self.peek().is_some_and(&pred) {
            self.i += 1;
        }
        self.i - start
    }

    fn skip_ws(&mut self) {
        self.skip(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'));
    }

    /// Consume exactly `word`.
    fn eat(&mut self, word: &str) -> Result<(), ParseError> {
        if !self.text[self.i..].starts_with(word) {
            return fail(ErrorKind::Unexpected, self.i);
        }
        self.i += word.len();
        Ok(())
    }

    /// `depth` counts the arrays and objects already open around this
    /// value.
    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'[') => {
                let mut items = Vec::new();
                self.sequence(depth + 1, b']', |p| {
                    p.value(depth + 1).map(|v| items.push(v))
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                let mut fields = Vec::new();
                // D2: an ordered set, not a hash set.
                let mut seen = BTreeSet::new();
                self.sequence(depth + 1, b'}', |p| {
                    p.skip_ws();
                    let key_at = p.i;
                    let key = p.string()?;
                    if !seen.insert(key.clone()) {
                        return fail(ErrorKind::DuplicateKey, key_at);
                    }
                    p.skip_ws();
                    p.eat(":")?;
                    fields.push((key, p.value(depth + 1)?));
                    Ok(())
                })?;
                Ok(Json::Obj(fields))
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b'-' | b'+' | b'.' | b'0'..=b'9') => self.number(),
            Some(b't') => self.eat("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat("false").map(|()| Json::Bool(false)),
            Some(b'n') => self.eat("null").map(|()| Json::Null),
            _ => fail(ErrorKind::Unexpected, self.i),
        }
    }

    /// `open (item (',' item)*)? close`, cursor on `open`; `depth` counts
    /// this container.
    fn sequence(
        &mut self,
        depth: usize,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        if depth > MAX_DEPTH {
            return fail(ErrorKind::TooDeep, self.i);
        }
        self.i += 1;
        self.skip_ws();
        let mut first = true;
        while self.peek() != Some(close) {
            if !first {
                self.eat(",")?;
            }
            first = false;
            item(self)?;
            self.skip_ws();
        }
        self.i += 1;
        Ok(())
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.i;
        self.i += usize::from(self.peek() == Some(b'-'));
        let leading_zero = self.peek() == Some(b'0');
        let int_digits = self.skip(|b| b.is_ascii_digit());
        let mut grammatical = int_digits == 1 || (int_digits > 1 && !leading_zero);
        if self.peek() == Some(b'.') {
            self.i += 1;
            grammatical &= self.skip(|b| b.is_ascii_digit()) > 0;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            self.i += usize::from(matches!(self.peek(), Some(b'+' | b'-')));
            grammatical &= self.skip(|b| b.is_ascii_digit()) > 0;
        }
        let kind = match self.text[start..self.i].parse::<f64>() {
            Ok(n) if grammatical && n.is_finite() => return Ok(Json::Num(n)),
            Ok(_) if grammatical => ErrorKind::NumberOutOfRange,
            _ => ErrorKind::BadNumber,
        };
        fail(kind, start)
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat("\"")?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next delimiter in one piece. All
            // three delimiters are ASCII, so the run ends on a char
            // boundary.
            let run = self.i;
            self.skip(|b| b != b'"' && b != b'\\' && b >= 0x20);
            out.push_str(&self.text[run..self.i]);
            match self.peek() {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => self.escape(&mut out)?,
                Some(_) => return fail(ErrorKind::ControlInString, self.i),
                None => return fail(ErrorKind::Unexpected, self.i),
            }
        }
    }

    /// One escape, cursor on its backslash. A `\u` escape takes the whole
    /// run of `\u` escapes with it and decodes them together as UTF-16,
    /// which joins surrogate pairs and fails lone surrogates.
    fn escape(&mut self, out: &mut String) -> Result<(), ParseError> {
        let at = self.i;
        let simple = match self.text.as_bytes().get(at + 1) {
            Some(&b @ (b'"' | b'\\' | b'/')) => b as char,
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let mut units = Vec::new();
                while self.text[self.i..].starts_with("\\u") {
                    // Exactly four hex digits (`from_str_radix` alone
                    // would take `+123`).
                    let digits = self.text.get(self.i + 2..self.i + 6);
                    let hex = digits.filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
                    let Some(unit) = hex.and_then(|h| u16::from_str_radix(h, 16).ok()) else {
                        return fail(ErrorKind::BadEscape, self.i);
                    };
                    units.push(unit);
                    self.i += 6;
                }
                let Ok(decoded) = String::from_utf16(&units) else {
                    return fail(ErrorKind::LoneSurrogate, at);
                };
                out.push_str(&decoded);
                return Ok(());
            }
            _ => return fail(ErrorKind::BadEscape, self.i),
        };
        out.push(simple);
        self.i += 2;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::ErrorKind::*;
    use super::*;

    fn s(text: &str) -> Json {
        Json::Str(text.to_string())
    }

    /// Grammar conformance: what is accepted, and as what value.
    #[test]
    fn accepts() {
        let obj = |fields: &[(&str, Json)]| {
            Json::Obj(
                fields
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            )
        };
        let cases: Vec<(&str, Json)> = vec![
            ("null", Json::Null),
            (" true ", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("0", Json::Num(0.0)),
            ("-0", Json::Num(0.0)),
            ("-1.5e3", Json::Num(-1500.0)),
            ("1E+2", Json::Num(100.0)),
            ("12.25e-1", Json::Num(1.225)),
            ("1e-999", Json::Num(0.0)),
            ("\"\"", s("")),
            ("\"a\\n\\\"b\\u0041\"", s("a\n\"bA")),
            ("\"\\/\\\\\\b\\f\\r\\t\"", s("/\\\u{8}\u{c}\r\t")),
            (
                "\"\\ud83d\\ude00 \\u00e9 \u{7f} é 😀\"",
                s("😀 é \u{7f} é 😀"),
            ),
            ("[]", Json::Arr(vec![])),
            ("[ ]", Json::Arr(vec![])),
            ("{}", Json::Obj(vec![])),
            ("[1, [2, []], {}]", {
                let inner = Json::Arr(vec![Json::Num(2.0), Json::Arr(vec![])]);
                Json::Arr(vec![Json::Num(1.0), inner, Json::Obj(vec![])])
            }),
            (
                "\t{\"s\": \"x\", \"n\": 1,\r\n \"\": null , \"o\": {\"s\": true}}\n",
                obj(&[
                    ("s", s("x")),
                    ("n", Json::Num(1.0)),
                    ("", Json::Null),
                    ("o", obj(&[("s", Json::Bool(true))])),
                ]),
            ),
        ];
        for (text, want) in cases {
            assert_eq!(parse(text), Ok(want), "{text:?}");
        }
    }

    /// Grammar conformance: what is rejected, why, and where.
    #[test]
    fn rejects() {
        let cases: &[(&str, ErrorKind, usize)] = &[
            ("", Unexpected, 0),
            ("   ", Unexpected, 3),
            ("not json", Unexpected, 0),
            ("nul", Unexpected, 0),
            ("True", Unexpected, 0),
            ("{\"a\": 1} trailing", TrailingInput, 9),
            ("1 2", TrailingInput, 2),
            ("{\"a\": }", Unexpected, 6),
            ("{\"a\" 1}", Unexpected, 5),
            ("{a: 1}", Unexpected, 1),
            ("{\"a\": 1,}", Unexpected, 8),
            ("[1,]", Unexpected, 3),
            ("[1 2]", Unexpected, 3),
            ("[1", Unexpected, 2),
            ("{\"a\": 1", Unexpected, 7),
            ("\"abc", Unexpected, 4),
            ("\"\\", BadEscape, 1),
            ("\"\\u00", BadEscape, 1),
            ("\"\\x\"", BadEscape, 1),
            ("\"\\u+123\"", BadEscape, 1),
            ("\"a\\u0041\\u00g0\"", BadEscape, 8),
            ("\u{feff}1", Unexpected, 0),
            ("\u{a0}1", Unexpected, 0),
            ("1\u{c}", TrailingInput, 1),
            ("-", BadNumber, 0),
            ("-a", BadNumber, 0),
            (".5", BadNumber, 0),
            ("1e", BadNumber, 0),
            ("1e+", BadNumber, 0),
            ("[1.e3]", BadNumber, 1),
            ("0x10", TrailingInput, 1),
            ("1.5.2", TrailingInput, 3),
            ("NaN", Unexpected, 0),
            ("-Infinity", BadNumber, 0),
        ];
        for &(text, kind, at) in cases {
            assert_eq!(parse(text), Err(ParseError { kind, at }), "{text:?}");
        }
    }

    #[test]
    fn accessors_are_typed() {
        let doc =
            parse("{\"s\": \"x\", \"n\": 7, \"a\": [1], \"f\": 1.5, \"neg\": -1, \"big\": 1e300}")
                .unwrap();
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(doc.get("n").and_then(Json::as_count), Some(7));
        assert_eq!(
            doc.get("a").and_then(Json::as_arr),
            Some(&[Json::Num(1.0)][..])
        );
        for key in ["s", "a", "f", "neg", "big", "missing"] {
            assert_eq!(doc.get(key).and_then(Json::as_count), None, "{key}");
        }
        assert_eq!(doc.get("n").and_then(Json::as_str), None);
        assert_eq!(doc.get("n").and_then(Json::as_arr), None);
        assert_eq!(Json::Num(1.0).get("n"), None);
    }

    #[test]
    fn escaper_output_is_pinned() {
        let mut out = String::new();
        escape_into("q\" b\\ \n\r\t \u{1}\u{1f} \u{7f} é/", &mut out);
        assert_eq!(out, "\"q\\\" b\\\\ \\n\\r\\t \\u0001\\u001f \u{7f} é/\"");
        assert_eq!(parse(&out), Ok(s("q\" b\\ \n\r\t \u{1}\u{1f} \u{7f} é/")));
    }

    #[test]
    fn errors_name_the_kind_and_the_offset() {
        assert_eq!(
            parse("[1,]").unwrap_err().to_string(),
            "Unexpected at byte 3"
        );
    }
}
