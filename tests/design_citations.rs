//! DESIGN.md's contracts end in a `Checked by:` clause naming the tests
//! that hold them. A name there that is no function — a test renamed or
//! deleted, a file or a doctest cited in backticks — is a contract nobody
//! checks any more, so every backticked name in a clause must be a `fn`
//! defined under `crates/` or `tests/`.

use std::collections::BTreeSet;
use std::path::Path;

use scalewall_lint::collect_rs;
use scalewall_lint::lexer::{lex, Tok};

/// Every name that follows the keyword `fn` in the `.rs` files under
/// `crates/` and `tests/`.
fn defined_fns(root: &Path) -> BTreeSet<String> {
    let mut files = Vec::new();
    for dir in ["crates", "tests"] {
        collect_rs(&root.join(dir), root, &mut files).expect("readable tree");
    }
    let mut names = BTreeSet::new();
    for rel in files {
        let src = std::fs::read_to_string(root.join(&rel)).expect("readable source");
        let toks = lex(&src);
        for pair in toks.windows(2) {
            if let (Tok::Ident(kw), Tok::Ident(name)) = (&pair[0].tok, &pair[1].tok) {
                if kw == "fn" {
                    names.insert(name.clone());
                }
            }
        }
    }
    names
}

/// The `Checked by:` clauses of `doc`, whitespace runs folded to one
/// space: from the marker to the first `.` that ends a sentence.
fn clauses(doc: &str) -> Vec<String> {
    const MARK: &str = "Checked by:";
    let folded = doc.split_whitespace().collect::<Vec<_>>().join(" ");
    folded
        .match_indices(MARK)
        .map(|(at, _)| {
            let rest = &folded[at + MARK.len()..];
            let end = rest
                .find(". ")
                .unwrap_or_else(|| rest.trim_end_matches('.').len());
            rest[..end].to_string()
        })
        .collect()
}

#[test]
fn every_checked_by_name_is_a_defined_fn() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md");
    let fns = defined_fns(root);
    let found = clauses(&design);
    assert!(
        found.len() >= 8,
        "only {} `Checked by:` clauses in DESIGN.md",
        found.len()
    );
    let mut unknown = Vec::new();
    for clause in &found {
        // Backticks alternate: the odd pieces are the code spans.
        let names: Vec<&str> = clause.split('`').skip(1).step_by(2).collect();
        assert!(
            !names.is_empty(),
            "a `Checked by:` clause that names no test: {clause:?}"
        );
        unknown.extend(
            names
                .into_iter()
                .filter(|n| !fns.contains(*n))
                .map(str::to_string),
        );
    }
    assert!(
        unknown.is_empty(),
        "named on a `Checked by:` line but no `fn` under crates/ or tests/: {unknown:?}"
    );
}
