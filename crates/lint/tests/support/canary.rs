//! The canary sweep, shared by the fixture suite (`../fixtures.rs`) and
//! the workspace gate (`tests/lint_gate.rs` at the repo root), which both
//! include this file by path: a wall-clock read planted as the first
//! statement of a function must be reported on its line. A function the
//! parser swallowed into a mis-parsed neighbour stays silent, which the
//! parser's token-coverage invariant cannot see when the neighbour sits
//! *inside* an item.

use scalewall_lint::lexer::{lex, Tok, Token};
use scalewall_lint::{lint_source, RuleId, RuleSet, Violation};

/// Lines (1-based) holding a single-line `fn … {` header outside
/// `#[cfg(test)]` items, found from the token stream alone: asking the
/// parser would not list the functions it is blind to.
pub fn fn_header_lines(src: &str) -> Vec<u32> {
    let toks: Vec<Token> = lex(src)
        .into_iter()
        .filter(|t| !matches!(t.tok, Tok::Comment(_)))
        .collect();
    let punct = |i: usize, c: char| matches!(toks.get(i), Some(t) if t.tok == Tok::Punct(c));
    let ident = |i: usize, s: &str| matches!(toks.get(i), Some(Token { tok: Tok::Ident(w), .. }) if w == s);
    let mut lines = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if punct(i, '#') && punct(i + 1, '[') && ident(i + 2, "cfg") {
            let close = (i..toks.len()).find(|&j| punct(j, ']')).unwrap_or(toks.len());
            if (i..close).any(|j| ident(j, "test")) {
                // Skip the gated item: to its `;`, or over its `{ … }`.
                i = close;
                while i < toks.len() && !punct(i, ';') && !punct(i, '{') {
                    i += 1;
                }
                let mut depth = 0usize;
                while i < toks.len() {
                    depth += usize::from(punct(i, '{'));
                    depth -= usize::from(punct(i, '}'));
                    i += 1;
                    if depth == 0 {
                        break;
                    }
                }
                continue;
            }
        }
        if ident(i, "fn") {
            let line = toks[i].line;
            let last = toks.iter().rposition(|t| t.line == line).unwrap_or(i);
            if punct(last, '{') {
                lines.push(line);
            }
        }
        i += 1;
    }
    lines
}

/// Plant the canary after each of `src`'s function headers in turn and
/// lint under `rules`: the header lines whose canary went unreported, and
/// how many were planted.
pub fn unreported_canaries(src: &str, rules: RuleSet) -> (Vec<u32>, usize) {
    const CANARY: &str = "let _t = std::time::Instant::now();";
    let lines: Vec<&str> = src.lines().collect();
    let headers = fn_header_lines(src);
    let missed = |&header: &u32| {
        let (before, after) = lines.split_at(header as usize);
        let mutated = [before, &[CANARY], after].concat().join("\n");
        let (violations, _) = lint_source(&mutated, rules);
        let reported = |v: &Violation| v.rule == RuleId::D1 && v.line == header + 1;
        !violations.iter().any(reported)
    };
    let missed = headers.iter().copied().filter(missed).collect();
    (missed, headers.len())
}
