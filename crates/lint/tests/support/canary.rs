//! The canary sweeps, shared by the fixture suite (`../fixtures.rs`) and
//! the workspace gate (`tests/lint_gate.rs` at the repo root), which both
//! include this file by path: a violation planted as the first statement
//! of a function or of a control-flow block must be reported on its line.
//! Code the lint lost — a function swallowed into a mis-read neighbour, a
//! block whose head ended early — stays silent, and no count of tokens
//! can see that from the inside.

use scalewall_lint::lexer::{lex, Tok, Token};
use scalewall_lint::{lint_source, RuleId, RuleSet};

/// One plantable statement and the rules that must report it.
pub struct Canary {
    pub text: &'static str,
    pub rules: &'static [RuleId],
}

/// A wall-clock read: the pattern rules' view of a function body.
pub const WALL_CLOCK: Canary =
    Canary { text: "let _t = std::time::Instant::now();", rules: &[RuleId::D1] };

/// A panic site, a literal index: the pattern rules' view of a block.
pub const PANIC: Canary = Canary { text: "let _ci = ci[0];", rules: &[RuleId::D7] };

/// A nested same-lock acquire: the semantic walk's view of a block.
pub const SEMANTIC: Canary =
    Canary { text: "{ let cl = Mutex::new(0u8); let _ca = cl.lock(); let _cb = cl.lock(); }", rules: &[RuleId::D6] };

fn is_ident(t: &Token, s: &str) -> bool {
    matches!(&t.tok, Tok::Ident(w) if w == s)
}

/// The code tokens outside `#[cfg(test)]` items, one `Vec` per source
/// line, found from the token stream alone: asking the parser would not
/// list what it is blind to.
fn live_lines(src: &str) -> Vec<Vec<Token>> {
    let toks = lex(src);
    let punct = |i: usize, c: char| matches!(toks.get(i), Some(t) if t.tok == Tok::Punct(c));
    let mut lines: Vec<Vec<Token>> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if punct(i, '#') && punct(i + 1, '[') && toks.get(i + 2).is_some_and(|t| is_ident(t, "cfg")) {
            let close = (i..toks.len()).find(|&j| punct(j, ']')).unwrap_or(toks.len());
            if toks[i..close].iter().any(|t| is_ident(t, "test")) {
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
        match lines.last_mut() {
            Some(line) if line[0].line == toks[i].line => line.push(toks[i].clone()),
            _ => lines.push(vec![toks[i].clone()]),
        }
        i += 1;
    }
    lines
}

/// Lines (1-based) that end in `{` and satisfy `is_head`.
fn head_lines(src: &str, is_head: fn(&[Token]) -> bool) -> Vec<u32> {
    live_lines(src)
        .iter()
        .filter(|line| line.last().is_some_and(|t| t.tok == Tok::Punct('{')) && is_head(line))
        .map(|line| line[0].line)
        .collect()
}

/// Lines holding a single-line `fn … {` header.
pub fn fn_header_lines(src: &str) -> Vec<u32> {
    head_lines(src, |line| line.iter().any(|t| is_ident(t, "fn")))
}

/// Lines holding a single-line `if`/`while`/`for`/`loop` head or a
/// `} else {` / `} else if … {` continuation.
pub fn block_head_lines(src: &str) -> Vec<u32> {
    head_lines(src, |line| {
        ["if", "while", "for", "loop"].iter().any(|k| is_ident(&line[0], k))
            || (line[0].tok == Tok::Punct('}') && line.get(1).is_some_and(|t| is_ident(t, "else")))
    })
}

/// Plant `canary` after each of `heads` in turn and lint under `rules`:
/// the head lines after which one of the canary's rules stayed silent.
pub fn unreported(src: &str, rules: RuleSet, heads: &[u32], canary: &Canary) -> Vec<u32> {
    let lines: Vec<&str> = src.lines().collect();
    let missed = |&head: &u32| {
        let (before, after) = lines.split_at(head as usize);
        let mutated = [before, &[canary.text], after].concat().join("\n");
        let violations = lint_source(&mutated, rules);
        let reported = |rule: &RuleId| violations.iter().any(|v| v.rule == *rule && v.line == head + 1);
        !canary.rules.iter().all(reported)
    };
    heads.iter().copied().filter(missed).collect()
}
