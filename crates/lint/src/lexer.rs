//! A small hand-rolled Rust lexer.
//!
//! Just enough tokenization for determinism linting: identifiers, numeric
//! literals, string/char literals, lifetimes and punctuation, with
//! comments skipped — and correct handling of the contexts that make naive grep-lints lie:
//! string contents (`"HashMap"`), raw strings (`r#"…"#`), char literals
//! vs. lifetimes (`'a'` vs `'a`), and nested block comments.
//!
//! No `syn`, no `proc-macro2`: the workspace is hermetic (DESIGN.md), and
//! the rules in [`crate::lint_source`] only need token streams, not ASTs.

/// One lexical token kind. Literal *contents* are deliberately dropped for
/// strings and chars — nothing inside them can ever trigger a rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword (including `unsafe`); raw identifiers
    /// (`r#type`) are unescaped to their plain name.
    Ident(String),
    /// Integer literal, verbatim text (`42`, `0xFF_u64`).
    Int(String),
    /// Float literal, verbatim text (`1.5`, `2e3`, `1f64`).
    Float(String),
    /// Any string literal (`"…"`, `b"…"`, `r#"…"#`, …).
    Str,
    /// Char or byte literal (`'x'`, `b'\n'`).
    Char,
    /// Lifetime or loop label (`'a`, `'outer`), without the quote.
    Lifetime(String),
    /// Single punctuation character; multi-char operators arrive as
    /// consecutive tokens (`::` is two `Punct(':')`).
    Punct(char),
}

/// A token plus the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub tok: Tok,
    pub line: u32,
}

/// Consume a `"…"` string body starting at the opening quote; returns the
/// index just past the closing quote and bumps `line` across newlines.
fn consume_string(chars: &[char], open: usize, line: &mut u32) -> usize {
    let mut j = open + 1;
    while j < chars.len() {
        match chars[j] {
            '\\' => {
                // An escaped newline (string line-continuation) still ends
                // a physical line; missing it would shift every subsequent
                // line number and misplace every report after it.
                if chars.get(j + 1) == Some(&'\n') {
                    *line += 1;
                }
                j += 2;
            }
            '"' => return j + 1,
            '\n' => {
                *line += 1;
                j += 1;
            }
            _ => j += 1,
        }
    }
    j
}

/// Tokenize Rust source. Unterminated constructs simply end at EOF — the
/// lexer is for linting real, compiling code, not for error recovery.
pub fn lex(src: &str) -> Vec<Token> {
    let chars: Vec<char> = src.chars().collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment.
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
            continue;
        }
        // Block comment — Rust block comments nest.
        if c == '/' && chars.get(i + 1) == Some(&'*') {
            let mut depth = 1u32;
            i += 2;
            while i < chars.len() && depth > 0 {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    if chars[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            continue;
        }
        // Lifetime vs. char literal. `'a` with no closing quote two chars
        // on is a lifetime/label; everything else after `'` is a char.
        if c == '\'' {
            if let Some(&n) = chars.get(i + 1) {
                if (n.is_alphabetic() || n == '_') && chars.get(i + 2) != Some(&'\'') {
                    let mut j = i + 1;
                    while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                        j += 1;
                    }
                    out.push(Token {
                        tok: Tok::Lifetime(chars[i + 1..j].iter().collect()),
                        line,
                    });
                    i = j;
                    continue;
                }
            }
            let mut j = i + 1;
            if chars.get(j) == Some(&'\\') {
                // Escaped char: skip to the closing quote (covers \', \\,
                // \n, \u{…}).
                j += 2;
                while j < chars.len() && chars[j] != '\'' {
                    j += 1;
                }
            } else if j < chars.len() {
                j += 1;
            }
            if chars.get(j) == Some(&'\'') {
                j += 1;
            }
            out.push(Token { tok: Tok::Char, line });
            i = j;
            continue;
        }
        // Plain string literal.
        if c == '"' {
            let start_line = line;
            i = consume_string(&chars, i, &mut line);
            out.push(Token {
                tok: Tok::Str,
                line: start_line,
            });
            continue;
        }
        // Identifier, keyword, raw identifier, or string prefix.
        if c.is_alphabetic() || c == '_' {
            let mut j = i;
            while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                j += 1;
            }
            let word: String = chars[i..j].iter().collect();
            // Raw identifier `r#name`.
            if word == "r"
                && chars.get(j) == Some(&'#')
                && chars
                    .get(j + 1)
                    .is_some_and(|c| c.is_alphabetic() || *c == '_')
            {
                let mut k = j + 1;
                while k < chars.len() && (chars[k].is_alphanumeric() || chars[k] == '_') {
                    k += 1;
                }
                out.push(Token {
                    tok: Tok::Ident(chars[j + 1..k].iter().collect()),
                    line,
                });
                i = k;
                continue;
            }
            // Raw string `r"…"` / `r#"…"#` (and byte/C variants).
            if matches!(word.as_str(), "r" | "br" | "cr")
                && matches!(chars.get(j), Some('"') | Some('#'))
            {
                let mut hashes = 0usize;
                let mut k = j;
                while chars.get(k) == Some(&'#') {
                    hashes += 1;
                    k += 1;
                }
                if chars.get(k) == Some(&'"') {
                    let start_line = line;
                    k += 1;
                    while k < chars.len() {
                        if chars[k] == '\n' {
                            line += 1;
                        } else if chars[k] == '"' {
                            let mut h = 0usize;
                            while h < hashes && chars.get(k + 1 + h) == Some(&'#') {
                                h += 1;
                            }
                            if h == hashes {
                                k += 1 + hashes;
                                break;
                            }
                        }
                        k += 1;
                    }
                    out.push(Token {
                        tok: Tok::Str,
                        line: start_line,
                    });
                    i = k;
                    continue;
                }
            }
            // Prefixed plain string `b"…"` / `c"…"`.
            if matches!(word.as_str(), "b" | "c") && chars.get(j) == Some(&'"') {
                let start_line = line;
                i = consume_string(&chars, j, &mut line);
                out.push(Token {
                    tok: Tok::Str,
                    line: start_line,
                });
                continue;
            }
            // Byte char `b'x'`.
            if word == "b" && chars.get(j) == Some(&'\'') {
                let mut k = j + 1;
                if chars.get(k) == Some(&'\\') {
                    k += 2;
                    while k < chars.len() && chars[k] != '\'' {
                        k += 1;
                    }
                } else if k < chars.len() {
                    k += 1;
                }
                if chars.get(k) == Some(&'\'') {
                    k += 1;
                }
                out.push(Token { tok: Tok::Char, line });
                i = k;
                continue;
            }
            out.push(Token {
                tok: Tok::Ident(word),
                line,
            });
            i = j;
            continue;
        }
        // Numeric literal.
        if c.is_ascii_digit() {
            let mut j = i;
            let mut is_float = false;
            if c == '0' && matches!(chars.get(i + 1), Some('x' | 'X' | 'b' | 'B' | 'o' | 'O')) {
                j = i + 2;
                while j < chars.len() && (chars[j].is_ascii_alphanumeric() || chars[j] == '_') {
                    j += 1;
                }
            } else {
                while j < chars.len() && (chars[j].is_ascii_digit() || chars[j] == '_') {
                    j += 1;
                }
                // Fractional part — but not `..` ranges or method calls.
                if chars.get(j) == Some(&'.') && chars.get(j + 1).is_some_and(|c| c.is_ascii_digit())
                {
                    is_float = true;
                    j += 1;
                    while j < chars.len() && (chars[j].is_ascii_digit() || chars[j] == '_') {
                        j += 1;
                    }
                }
                if matches!(chars.get(j), Some('e' | 'E'))
                    && chars
                        .get(j + 1)
                        .is_some_and(|c| c.is_ascii_digit() || *c == '+' || *c == '-')
                {
                    is_float = true;
                    j += 2;
                    while j < chars.len() && (chars[j].is_ascii_digit() || chars[j] == '_') {
                        j += 1;
                    }
                }
                // Type suffix (`u64`, `f32`, `usize`…).
                while j < chars.len() && (chars[j].is_ascii_alphanumeric() || chars[j] == '_') {
                    if chars[j] == 'f' {
                        is_float = true;
                    }
                    j += 1;
                }
            }
            let text: String = chars[i..j].iter().collect();
            out.push(Token {
                tok: if is_float {
                    Tok::Float(text)
                } else {
                    Tok::Int(text)
                },
                line,
            });
            i = j;
            continue;
        }
        out.push(Token {
            tok: Tok::Punct(c),
            line,
        });
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn basic_tokens_and_lines() {
        let toks = lex("let x = 1;\nlet y = 2.5;");
        assert_eq!(toks[0], Token { tok: Tok::Ident("let".into()), line: 1 });
        assert!(toks.iter().any(|t| t.tok == Tok::Int("1".into()) && t.line == 1));
        assert!(toks.iter().any(|t| t.tok == Tok::Float("2.5".into()) && t.line == 2));
    }

    #[test]
    fn string_contents_do_not_produce_idents() {
        assert_eq!(idents(r#"let s = "HashMap Instant unsafe";"#), ["let", "s"]);
    }

    #[test]
    fn raw_strings_swallow_quotes_and_hashes() {
        let src = r##"let s = r#"a "quoted" HashMap"# ; let t = HashMap::new();"##;
        assert_eq!(idents(src), ["let", "s", "let", "t", "HashMap", "new"]);
    }

    #[test]
    fn multiline_raw_string_counts_lines() {
        let src = "let s = r\"line1\nline2\";\nInstant";
        let toks = lex(src);
        let inst = toks
            .iter()
            .find(|t| t.tok == Tok::Ident("Instant".into()))
            .unwrap();
        assert_eq!(inst.line, 3);
    }

    #[test]
    fn byte_and_c_strings() {
        assert_eq!(idents(r#"b"unsafe" c"unsafe" br"unsafe""#), Vec::<String>::new());
    }

    #[test]
    fn char_literals_are_not_lifetimes() {
        let toks = lex(r"'a' 'x' '\n' '\u{1F600}' '\'' b'q'");
        assert!(toks.iter().all(|t| t.tok == Tok::Char), "{toks:?}");
        assert_eq!(toks.len(), 6);
    }

    #[test]
    fn lifetimes_and_labels() {
        let toks = lex("fn f<'a>(x: &'a str) { 'outer: loop { break 'outer; } }");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Lifetime(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(lifetimes, ["a", "a", "outer", "outer"]);
    }

    #[test]
    fn nested_block_comments_do_not_leak() {
        let src = "/* outer /* inner HashMap */ still comment */ Instant";
        assert_eq!(idents(src), ["Instant"]);
    }

    #[test]
    fn raw_identifiers_unescape() {
        assert_eq!(idents("let r#type = 1;"), ["let", "type"]);
    }

    #[test]
    fn numeric_literal_shapes() {
        let toks = lex("0xFF 0b10 1_000u64 1.5 2e3 1f64 0..10 x.0");
        let ints: Vec<_> = toks
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Int(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        let floats: Vec<_> = toks
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Float(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(ints, ["0xFF", "0b10", "1_000u64", "0", "10", "0"]);
        assert_eq!(floats, ["1.5", "2e3", "1f64"]);
    }

    #[test]
    fn escaped_newline_in_string_counts_lines() {
        // `"\<newline>…"` is a line continuation: the physical newline must
        // still bump the line counter or everything after shifts by one.
        let src = "let s = \"a\\\nb\";\nInstant";
        let toks = lex(src);
        let inst = toks
            .iter()
            .find(|t| t.tok == Tok::Ident("Instant".into()))
            .unwrap();
        assert_eq!(inst.line, 3);
    }

    #[test]
    fn raw_string_spanning_comment_shaped_lines_stays_inert() {
        // A comment-shaped line *inside* a raw string is string content:
        // it neither ends the string early nor shifts the lines after it.
        let src = "let s = r#\"x\n// HashMap -- not a comment\ny\"#;\nInstant";
        assert_eq!(idents(src), ["let", "s", "Instant"]);
        let toks = lex(src);
        let inst = toks
            .iter()
            .find(|t| t.tok == Tok::Ident("Instant".into()))
            .unwrap();
        assert_eq!(inst.line, 4);
    }

    #[test]
    fn double_colon_is_two_puncts() {
        let toks = lex("a::b");
        assert_eq!(toks[1].tok, Tok::Punct(':'));
        assert_eq!(toks[2].tok, Tok::Punct(':'));
    }
}
