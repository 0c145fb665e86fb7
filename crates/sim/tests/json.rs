//! Regressions for the defects the two pre-merge JSON parsers shared
//! (each test here failed against both), a linear-time check, and a
//! render → parse round-trip property. Grammar conformance tables live
//! next to the codec in `src/json.rs`.

// Tests may unwrap, expect and panic; library code may not (DESIGN.md §5c).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

use std::time::{Duration, Instant};

use scalewall_sim::json::{escape_into, parse, ErrorKind, Json, ParseError, MAX_DEPTH};
use scalewall_sim::prop::{self, gen};
use scalewall_sim::SimRng;

fn kind(text: &str) -> Option<ErrorKind> {
    parse(text).err().map(|e| e.kind)
}

/// Unbounded recursion used to abort the process with a stack overflow.
#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
    assert!(parse(&at_limit).is_ok());
    let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
    assert_eq!(
        parse(&over),
        Err(ParseError {
            kind: ErrorKind::TooDeep,
            at: MAX_DEPTH
        })
    );
    assert_eq!(kind(&"[".repeat(2_000_000)), Some(ErrorKind::TooDeep));
    assert_eq!(
        kind(&"{\"k\": ".repeat(2_000_000)),
        Some(ErrorKind::TooDeep)
    );
    assert_eq!(
        kind(&"[{\"k\": ".repeat(1_000_000)),
        Some(ErrorKind::TooDeep)
    );
}

/// `f64::from_str` decided what a number was, so these all parsed.
#[test]
fn numbers_outside_the_rfc_grammar_are_rejected() {
    for text in [
        "+1",
        "01",
        "-01",
        "00",
        "1.",
        "-1.",
        "1.e2",
        "[1, +2]",
        "{\"n\": 007}",
    ] {
        assert_eq!(kind(text), Some(ErrorKind::BadNumber), "{text:?}");
    }
    for text in ["0", "-0", "10", "0.5", "1e2", "1E-2", "0e0", "-12.5e+3"] {
        assert!(matches!(parse(text), Ok(Json::Num(_))), "{text:?}");
    }
}

/// `1e999` used to come back as `Num(inf)`.
#[test]
fn numbers_f64_cannot_hold_are_rejected() {
    for text in ["1e999", "-1e999", "[1e400]"] {
        assert_eq!(kind(text), Some(ErrorKind::NumberOutOfRange), "{text:?}");
    }
    assert_eq!(parse("1.7976931348623157e308"), Ok(Json::Num(f64::MAX)));
}

#[test]
fn raw_control_characters_in_strings_are_rejected() {
    for c in ['\n', '\r', '\t', '\0', '\u{1f}'] {
        let text = format!("[\"a{c}b\"]");
        assert_eq!(
            parse(&text),
            Err(ParseError {
                kind: ErrorKind::ControlInString,
                at: 3
            }),
            "{c:?}"
        );
    }
    assert_eq!(
        parse("\"a\\nb\u{7f}\""),
        Ok(Json::Str("a\nb\u{7f}".to_string()))
    );
}

/// Validators read with first-match `get`: a second `summary` would ride
/// along unchecked.
#[test]
fn duplicate_object_keys_are_rejected() {
    let smuggled = "{\"summary\": {\"violations\": 0}, \"n\": 1, \"summary\": {\"violations\": 9}}";
    let second = smuggled.rfind("\"summary\"").unwrap();
    assert_eq!(
        parse(smuggled),
        Err(ParseError {
            kind: ErrorKind::DuplicateKey,
            at: second
        })
    );
    // Compared after unescaping, per object.
    assert_eq!(
        kind("{\"a\": 1, \"\\u0061\": 2}"),
        Some(ErrorKind::DuplicateKey)
    );
    assert_eq!(kind("[{\"a\": {\"a\": 1}}, {\"a\": 2}]"), None);
}

/// One parser substituted U+FFFD, the other errored; a `\u+123` escape
/// got through both.
#[test]
fn lone_surrogates_are_rejected() {
    for text in [
        "\"\\ud800\"",
        "\"\\ud800x\"",
        "\"\\udbff\\u0041\"",
        "\"\\ud800\\ud800\"",
        "\"\\udc00\"",
        "\"\\udfff\\ud800\"",
    ] {
        assert_eq!(kind(text), Some(ErrorKind::LoneSurrogate), "{text}");
    }
    assert_eq!(
        parse("\"\\ud800\\udc00\\udbff\\udfff\""),
        Ok(Json::Str("\u{10000}\u{10ffff}".to_string()))
    );
}

/// Both old parsers re-validated the rest of the buffer as UTF-8 for
/// every string character: this document took ~80 s.
#[test]
fn two_megabyte_string_document_parses_in_linear_time() {
    let item = "\"The quick brown fox — ünïcödé and \\\"escapes\\\" \\u00e9\\n too\"";
    let count = 2_200_000 / item.len();
    let doc = format!("[{}]", vec![item; count].join(", "));
    assert!(doc.len() > 2_000_000);
    let started = Instant::now();
    let parsed = parse(&doc).expect("well-formed");
    let elapsed = started.elapsed();
    assert_eq!(parsed.as_arr().map(<[Json]>::len), Some(count));
    assert!(elapsed < Duration::from_secs(5), "took {elapsed:?}");
}

fn any_string(rng: &mut SimRng) -> String {
    const POOL: &[char] = &[
        'a',
        'Z',
        '0',
        ' ',
        '"',
        '\\',
        '/',
        '\n',
        '\r',
        '\t',
        '\0',
        '\u{8}',
        '\u{c}',
        '\u{1f}',
        '\u{7f}',
        'é',
        '—',
        '\u{fffd}',
        '\u{ffff}',
        '😀',
        '\u{10ffff}',
    ];
    let len = gen::usize_in(rng, 0, 12);
    (0..len).map(|_| *rng.pick(POOL)).collect()
}

fn any_json(rng: &mut SimRng, depth: usize) -> Json {
    let leaf_only = depth == 0;
    match rng.below(if leaf_only { 4 } else { 6 }) {
        0 => Json::Null,
        1 => Json::Bool(gen::any_bool(rng)),
        2 => loop {
            // Any finite double, bit pattern and all.
            let n = f64::from_bits(rng.next_u64());
            if n.is_finite() {
                break Json::Num(n);
            }
        },
        3 => Json::Str(any_string(rng)),
        4 => Json::Arr(gen::vec_with(rng, 0, 5, |r| any_json(r, depth - 1))),
        _ => {
            let mut fields: Vec<(String, Json)> = Vec::new();
            for _ in 0..gen::usize_in(rng, 0, 5) {
                let key = any_string(rng);
                if fields.iter().all(|(k, _)| *k != key) {
                    fields.push((key, any_json(rng, depth - 1)));
                }
            }
            Json::Obj(fields)
        }
    }
}

/// What a schema renderer does by hand: punctuation, `f64` Display for
/// numbers, `escape_into` for every string.
fn render(value: &Json, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(&b.to_string()),
        Json::Num(n) => out.push_str(&n.to_string()),
        Json::Str(s) => escape_into(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                render(item, out);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (key, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                escape_into(key, out);
                out.push_str(": ");
                render(item, out);
            }
            out.push('}');
        }
    }
}

#[test]
fn rendered_values_parse_back_equal() {
    prop::check(
        "json_rendered_values_parse_back_equal",
        |rng| any_json(rng, 4),
        |value| {
            let mut text = String::new();
            render(value, &mut text);
            assert_eq!(parse(&text).as_ref(), Ok(value), "{text}");
        },
    );
}
