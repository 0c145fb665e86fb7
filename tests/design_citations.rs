//! Docs read against the tree.
//!
//! DESIGN.md's contracts end in a `Checked by:` clause naming the tests
//! that hold them. A name there that is no function — a test renamed or
//! deleted, a file or a doctest cited in backticks — is a contract nobody
//! checks any more, so every backticked name in a clause must be a `fn`
//! defined under `crates/` or `tests/`.
//!
//! EXPERIMENTS.md states measured numbers only by quoting a checked-in
//! output: a fenced block opened with ```` ```text PATH ```` quotes the
//! file PATH, and every non-blank line of it must be a line of that file,
//! in order. Every figure binary must be quoted through one of its golden
//! files, `tests/figures/<bin>.full.txt` or `<bin>.fast.txt`.

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

/// What is wrong with `doc`'s quotes: a line its file lacks (or holds
/// only out of order), a file `read` cannot find, a name of `bins` that
/// no block quotes.
fn quote_faults(doc: &str, read: impl Fn(&str) -> Option<String>, bins: &[String]) -> Vec<String> {
    let (mut faults, mut quoted) = (Vec::new(), Vec::new());
    let mut lines = doc.lines();
    while let Some(path) = lines.find_map(|l| l.strip_prefix("```text ")) {
        quoted.push(path);
        let Some(text) = read(path) else {
            faults.push(format!("{path}: no such file"));
            continue;
        };
        let (mut file, mut block) = (text.lines(), lines.by_ref().take_while(|l| *l != "```"));
        if let Some(line) = block.find(|q| !q.trim().is_empty() && !file.any(|l| l == *q)) {
            faults.push(format!("{path}: no line {line:?} in quote order"));
        }
    }
    for bin in bins {
        let prefix = format!("tests/figures/{bin}.");
        if !quoted.iter().any(|path| path.starts_with(&prefix)) {
            faults.push(format!("{bin}: no block quotes its output"));
        }
    }
    faults
}

#[test]
fn experiments_quotes_its_numbers_from_the_golden_files() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let doc = std::fs::read_to_string(root.join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let mut bins = Vec::new();
    for entry in std::fs::read_dir(root.join("crates/bench/src/bin")).expect("figure binaries") {
        let name = entry.expect("readable entry").file_name();
        bins.push(name.to_string_lossy().trim_end_matches(".rs").to_string());
    }
    let faults = quote_faults(&doc, |p| std::fs::read_to_string(root.join(p)).ok(), &bins);
    assert!(faults.is_empty(), "EXPERIMENTS.md:\n{}", faults.join("\n"));
}

#[test]
fn quote_check_rejects_a_stale_line_a_missing_file_and_an_unquoted_binary() {
    const GOLDEN: &str = "tests/figures/fig4a_collisions.full.txt";
    let read = |path: &str| (path == GOLDEN).then(|| "a\nb\nc\n".to_string());
    let quote = |path: &str, body: &str| format!("prose\n```text {path}\n{body}\n```\nprose\n");
    let bins = ["fig4a_collisions", "fig5_fanout_latency"].map(String::from);
    let faults = |doc: &str, bins: &[String]| quote_faults(doc, read, bins).join("; ");
    let (one, good) = (&bins[..1], quote(GOLDEN, "a\n\nc"));
    assert_eq!(faults(&good, one), "");
    let stale = format!("{GOLDEN}: no line \"b 7.6 %\" in quote order");
    assert_eq!(faults(&quote(GOLDEN, "a\nb 7.6 %"), one), stale);
    let reordered = format!("{GOLDEN}: no line \"a\" in quote order");
    assert_eq!(faults(&quote(GOLDEN, "c\na"), one), reordered);
    let missing = good.clone() + &quote("tests/figures/fig4a.txt", "a");
    let absent = "tests/figures/fig4a.txt: no such file";
    assert_eq!(faults(&missing, one), absent);
    let unquoted = "fig5_fanout_latency: no block quotes its output";
    assert_eq!(faults(&good, &bins), unquoted);
}
