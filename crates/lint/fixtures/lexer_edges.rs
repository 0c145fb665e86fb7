//! Lexer edge cases: raw strings that span comment-shaped lines,
//! escaped-newline string continuations, and nested block comments must
//! all stay inert — no violations.

fn raw_strings() -> (&'static str, &'static str) {
    let spanning = r#"
        // scalewall-lint: allow(D2) -- this is string data, not a pragma
        HashMap Instant unsafe
    "#;
    let escaped = "line one \
        continued: SimRng::new(42) HashSet";
    (spanning, escaped)
}

/* nested /* block /* comments */ with HashMap */ and Instant */
fn after_comments() -> u32 {
    0
}
