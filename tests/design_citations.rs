//! Docs read against the tree.
//!
//! DESIGN.md's contracts end in a `Checked by:` clause naming the tests
//! that hold them. A name there that is no function — a test renamed or
//! deleted, a file or a doctest cited in backticks — is a contract nobody
//! checks any more, so every backticked name in a clause must be a
//! `#[test]` function under `crates/` or `tests/`; a helper is not one.
//! In §5–§8 every bold-titled block is a contract: it must end in its own
//! clause.
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

/// The names of the `#[test]` functions in the `.rs` files under
/// `crates/` and `tests/`.
fn defined_tests(root: &Path) -> BTreeSet<String> {
    let mut files = Vec::new();
    for dir in ["crates", "tests"] {
        collect_rs(&root.join(dir), root, &mut files).expect("readable tree");
    }
    let mut names = BTreeSet::new();
    for rel in files {
        let src = std::fs::read_to_string(root.join(&rel)).expect("readable source");
        names.extend(test_fns(&src));
    }
    names
}

/// The names of `src`'s functions preceded by a `#[test]` attribute
/// (other attributes may come between): a helper never is.
fn test_fns(src: &str) -> Vec<String> {
    let test_attr = [
        Tok::Punct('#'),
        Tok::Punct('['),
        Tok::Ident("test".into()),
        Tok::Punct(']'),
    ];
    let toks: Vec<Tok> = lex(src).into_iter().map(|t| t.tok).collect();
    let (mut names, mut marked) = (Vec::new(), false);
    for (i, tok) in toks.iter().enumerate() {
        if toks[i..].starts_with(&test_attr) {
            marked = true;
        } else if matches!(tok, Tok::Ident(kw) if kw == "fn") {
            if let (true, Some(Tok::Ident(name))) = (marked, toks.get(i + 1)) {
                names.push(name.clone());
            }
            marked = false;
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

/// The backticked names of `clause` that name none of `tests`.
fn unknown_names<'a>(clause: &'a str, tests: &BTreeSet<String>) -> Vec<&'a str> {
    // Backticks alternate: the odd pieces are the code spans.
    clause
        .split('`')
        .skip(1)
        .step_by(2)
        .filter(|n| !tests.contains(*n))
        .collect()
}

/// `line` without a leading `- ` or `1. ` list marker.
fn list_item(line: &str) -> &str {
    let text = line.trim_start();
    if let Some(rest) = text.strip_prefix("- ") {
        return rest;
    }
    match text.split_once(". ") {
        Some((n, rest)) if !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()) => rest,
        _ => text,
    }
}

/// The contracts of `doc`'s §5–§8, as (title, text) pairs. A contract
/// opens on a line whose text, list marker aside, starts with `**`, and
/// runs to the next such line or the next heading.
fn contracts(doc: &str) -> Vec<(String, String)> {
    let mut found: Vec<(String, String)> = Vec::new();
    let (mut in_scope, mut in_block, mut fenced) = (false, false, false);
    for line in doc.lines() {
        if line.starts_with("```") {
            fenced = !fenced;
        } else if !fenced && line.starts_with('#') {
            if let Some(heading) = line.strip_prefix("## ") {
                in_scope = matches!(heading.chars().next(), Some('5'..='8'));
            }
            in_block = false;
            continue;
        } else if !fenced && in_scope {
            if let Some(rest) = list_item(line).strip_prefix("**") {
                let title = rest.split("**").next().unwrap_or(rest);
                found.push((title.to_string(), String::new()));
                in_block = true;
            }
        }
        if let (true, Some((_, text))) = (in_block, found.last_mut()) {
            text.push_str(line);
            text.push('\n');
        }
    }
    found
}

/// What is wrong with `doc`'s `Checked by:` clauses: a contract of
/// §5–§8 with none or not ending in its own, a clause naming no test, a
/// name that is none of `tests`.
fn design_faults(doc: &str, tests: &BTreeSet<String>) -> Vec<String> {
    let mut faults = Vec::new();
    for (title, text) in contracts(doc) {
        let folded = text.split_whitespace().collect::<Vec<_>>().join(" ");
        match clauses(&text).last() {
            None => faults.push(format!("**{title}**: no `Checked by:` clause")),
            Some(last) if !folded.ends_with(&format!("{last}.")) => faults.push(format!(
                "**{title}**: does not end in its `Checked by:` clause"
            )),
            Some(_) => {}
        }
    }
    for clause in clauses(doc) {
        if !clause.contains('`') {
            faults.push(format!(
                "a `Checked by:` clause that names no test: {clause:?}"
            ));
        }
        for name in unknown_names(&clause, tests) {
            faults.push(format!(
                "`{name}` is no `#[test]` fn under crates/ or tests/"
            ));
        }
    }
    faults
}

#[test]
fn every_checked_by_name_is_a_defined_fn() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md");
    assert!(
        !contracts(&design).is_empty(),
        "no bold-titled block in DESIGN.md §5–§8"
    );
    let faults = design_faults(&design, &defined_tests(root));
    assert!(faults.is_empty(), "DESIGN.md:\n{}", faults.join("\n"));
}

#[test]
fn contract_check_rejects_a_missing_clause_a_trailing_sentence_and_an_unknown_fn() {
    let fns = BTreeSet::from(["holds".to_string()]);
    let doc = |body: &str| {
        format!("## 4. Index\n\n**Outside.** Free.\n\n## 5. Decisions\n\nIntro.\n\n{body}\n## 9. Map\n\n- **After.** Free.\n")
    };
    let faults = |body: &str| design_faults(&doc(body), &fns).join("; ");
    let good = "- **Good.** It holds.\n  Checked by: `holds`.\n### Part\n\n1. **Also.** Checked by:\n   `holds`.\n";
    assert_eq!(faults(good), "");
    assert_eq!(
        faults("- **Bare.** It holds.\n"),
        "**Bare.**: no `Checked by:` clause"
    );
    let unknown = "`vanished` is no `#[test]` fn under crates/ or tests/";
    assert_eq!(
        faults("**Gone.** Checked by: `holds` and `vanished`.\n"),
        unknown
    );
    let late = "**Late.**: does not end in its `Checked by:` clause";
    assert_eq!(
        faults("- **Late.** Checked by: `holds`. It also holds.\n"),
        late
    );
    let empty = "a `Checked by:` clause that names no test: \" the goldens\"";
    assert_eq!(faults("- **Empty.** Checked by: the goldens.\n"), empty);
    let fenced = "```text\n**Quoted.** Free.\n```\n- **Good.** Checked by: `holds`.\n";
    assert_eq!(faults(fenced), "");
}

#[test]
fn contract_check_rejects_a_helper_fn() {
    let src = "fn mismatch() {}\n#[cfg(test)]\nfn setup() {}\n\
               /// Doc.\n#[test]\n#[should_panic]\nfn holds() { fn inner() {} }\n";
    let tests = BTreeSet::from_iter(test_fns(src));
    assert_eq!(tests, BTreeSet::from(["holds".to_string()]));
    let doc = |name: &str| format!("## 5. Decisions\n\n- **Held.** Checked by: `{name}`.\n");
    assert_eq!(design_faults(&doc("holds"), &tests), Vec::<String>::new());
    let helper = "`mismatch` is no `#[test]` fn under crates/ or tests/";
    assert_eq!(design_faults(&doc("mismatch"), &tests), [helper]);
    // The live tree: `tests/figure_digests.rs` defines `mismatch` as a helper.
    let live = defined_tests(Path::new(env!("CARGO_MANIFEST_DIR")));
    assert!(!live.contains("mismatch") && live.contains("contract_check_rejects_a_helper_fn"));
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
