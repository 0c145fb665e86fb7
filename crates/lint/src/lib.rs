//! `scalewall-lint` — the workspace determinism lint.
//!
//! The whole reproduction rests on bit-identical replay (`tests/
//! determinism.rs`, the fault DSL, every golden experiment number). That
//! contract dies silently the moment a sim-facing code path consults wall
//! clock time, ambient randomness, or hash-iteration order — or, more
//! subtly, builds an RNG stream outside the typed streams of
//! `scalewall_sim::rng`, re-acquires a lock it holds, or indexes a
//! collection it assumes is non-empty. This crate machine-checks the
//! rules the compiler cannot on every build.
//!
//! # Rules
//!
//! * **D1 — no wall clock / OS threads.** `Instant`, `SystemTime`, and
//!   `std::thread` are forbidden in sim-facing code. Time comes from
//!   `SimTime`; concurrency from the event kernel. The sanctioned
//!   exception is `scalewall_bench::microbench`, the one place wall-clock
//!   measurement is the point.
//! * **D2 — no hash-ordered collections.** `HashMap`/`HashSet` are
//!   forbidden in sim-facing code, *mentions included*: the lint cannot
//!   prove a given map is never iterated, so the rule is enforced at the
//!   type level. Use `BTreeMap`/`BTreeSet`.
//! * **D3 — the RNG fence.** Outside `crates/sim`, sim-facing code names
//!   neither `SimRng::new` nor `.fork(`: every stream comes from an
//!   `RngRoot` of a config seed, under a `Stream` label or a dynamic
//!   index, so building one stream twice from one seed stays in
//!   `crates/sim`.
//! * **D6 — same-lock re-entry** (semantic). A `sim::sync` lock acquired
//!   while it is already held, in one function or through a call a
//!   conservative call graph resolves, self-deadlocks the non-reentrant
//!   shim.
//! * **D7 — no literal index.** `v[0]` or `&v[1..]` in sim-facing code
//!   assumes the collection is non-empty; `.first()`, `.split_first()` or
//!   `.get(…)` degrade instead, and a fixed-size array is destructured.
//!
//! `unsafe` and the rest of the panic surface are the compiler's: rustc
//! denies `unsafe_code` in every crate, clippy denies `unwrap_used`,
//! `expect_used`, `panic`, `unreachable`, `todo` and `unimplemented` in
//! the six sim-facing crates (root `Cargo.toml` `[workspace.lints]`,
//! DESIGN.md §5c).
//!
//! Two engines, one per kind of rule. D1–D3 and D7 are *token patterns*,
//! each written once in [`scan_tokens`] and run over every code token
//! outside `#[cfg(test)]` items and statements, so their coverage is true
//! by construction. D6 reads *body trees*: `parser.rs` shapes items
//! and turns each function body into nested delimiter groups, and
//! `semantic.rs` walks them with a workspace symbol table and call graph.
//! Neither engine parses expressions (DESIGN.md §5c documents the
//! conservatism and its known false-negative edges).
//!
//! Only `crates/*/src` is scanned, and `#[cfg(test)]` items are exempt.
//! The file tiers of [`ruleset_for`] are the only exception mechanism:
//! there is no per-line suppression, so code a rule flags is rewritten,
//! or its file's tier says why the rule does not apply there.

pub mod lexer;
pub mod parser;
mod semantic;

use std::fmt;
use std::path::{Path, PathBuf};

use lexer::{Tok, Token};
use parser::ParsedFile;
pub use semantic::Census;

/// Crates whose `src/` is sim-facing (full rule set).
pub const SIM_FACING_CRATES: &[&str] =
    &["sim", "cluster", "cubrick", "shard-manager", "discovery", "zk"];

/// A lint rule identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Wall-clock time or OS threads in sim-facing code.
    D1,
    /// Hash-ordered collection in sim-facing code.
    D2,
    /// `SimRng::new` or `.fork(` outside `crates/sim`.
    D3,
    /// A lock acquired while it is held.
    D6,
    /// Integer-literal index in sim-facing code.
    D7,
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RuleId::D1 => "D1",
            RuleId::D2 => "D2",
            RuleId::D3 => "D3",
            RuleId::D6 => "D6",
            RuleId::D7 => "D7",
        };
        f.write_str(s)
    }
}

/// Which rules apply to a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleSet {
    pub d1: bool,
    pub d2: bool,
    pub d3: bool,
    pub d6: bool,
    pub d7: bool,
}

impl RuleSet {
    /// Full sim-facing tier.
    pub const SIM: RuleSet = RuleSet { d1: true, d2: true, d3: true, d6: true, d7: true };
    /// `crates/sim` itself: RNG construction is its job (no D3).
    pub const SIM_RNG_HOME: RuleSet = RuleSet { d3: false, ..RuleSet::SIM };
    /// Bench tier: no wall clock outside the sanctioned runner, but hash
    /// maps and local seeds are fine (bench output sorts explicitly).
    pub const BENCH: RuleSet = RuleSet { d1: true, d2: false, d3: false, d6: false, d7: false };

    fn enables(&self, rule: RuleId) -> bool {
        match rule {
            RuleId::D1 => self.d1,
            RuleId::D2 => self.d2,
            RuleId::D3 => self.d3,
            RuleId::D6 => self.d6,
            RuleId::D7 => self.d7,
        }
    }
}

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub rule: RuleId,
    pub line: u32,
    pub message: String,
}

/// Lint results for one file.
#[derive(Debug, Clone, Default)]
pub struct FileReport {
    pub path: String,
    pub violations: Vec<Violation>,
    /// Line of the token the item shaper stopped at short of the end of
    /// the file: a shaper defect, not a verdict on the file
    /// ([`ParsedFile::first_unscanned`]).
    pub unscanned: Option<u32>,
}

/// Lint results for a whole workspace scan.
#[derive(Debug, Clone, Default)]
pub struct WorkspaceReport {
    pub files: Vec<FileReport>,
    pub files_scanned: usize,
    /// What the semantic walk saw: "zero D6 violations" from a walk that
    /// resolved no lock is not a result.
    pub census: Census,
}

impl WorkspaceReport {
    pub fn violation_count(&self) -> usize {
        self.files.iter().map(|f| f.violations.len()).sum()
    }

    /// No violation, and no token the rules never saw.
    pub fn is_clean(&self) -> bool {
        self.violation_count() == 0 && self.first_unscanned().is_none()
    }

    /// The first `(path, line)` the item shaper stopped at, if it stopped
    /// short anywhere in the scan.
    pub fn first_unscanned(&self) -> Option<(&str, u32)> {
        self.files
            .iter()
            .find_map(|f| Some((f.path.as_str(), f.unscanned?)))
    }
}

/// Rule set for a workspace-relative path, or `None` for a file no rule
/// applies to: everything outside `crates/*/src`, the lint's own source
/// and the sanctioned wall-clock runner `crates/bench/src/microbench.rs`.
pub fn ruleset_for(rel: &str) -> Option<RuleSet> {
    let rel = rel.replace('\\', "/");
    let (krate, _) = rel.strip_prefix("crates/")?.split_once("/src/")?;
    match krate {
        // RNG construction is `crates/sim`'s job.
        "sim" => Some(RuleSet::SIM_RNG_HOME),
        c if SIM_FACING_CRATES.contains(&c) => Some(RuleSet::SIM),
        "bench" if rel != "crates/bench/src/microbench.rs" => Some(RuleSet::BENCH),
        _ => None,
    }
}

// ---------------------------------------------------------- rule engine

/// The pattern rules D1–D3 and D7 over every code token of `parsed`
/// outside its `#[cfg(test)]` spans (tiering is applied later by the
/// caller).
fn scan_tokens(parsed: &ParsedFile) -> Vec<Violation> {
    let code = &parsed.tokens;
    let mut out = Vec::new();
    let punct_at = |i: usize, c: char| matches!(code.get(i), Some(t) if t.tok == Tok::Punct(c));
    let ident_at = |i: usize| match code.get(i) {
        Some(Token { tok: Tok::Ident(s), .. }) => Some(s.as_str()),
        _ => None,
    };
    // `a::b` continues at `b`.
    let path_next = |i: usize| (punct_at(i + 1, ':') && punct_at(i + 2, ':')).then(|| ident_at(i + 3)).flatten();
    let mut test_spans = parsed.test_spans.iter().peekable();
    let mut next = 0;
    while let Some(t) = code.get(next) {
        let i = next;
        if let Some(&(_, end)) = test_spans.next_if(|(start, _)| *start == i) {
            next = end;
            continue;
        }
        next += 1;
        // The token `n` places back is the punctuation `c`.
        let before = |n: usize, c: char| i >= n && punct_at(i - n, c);
        let hit = match &t.tok {
            // `recv[INT]` / `recv[INT..]`: an index, not an array literal
            // or a type, when what stands before the `[` can be indexed.
            Tok::Punct('[') if i > 0 => {
                let literal = matches!(code.get(i + 1), Some(Token { tok: Tok::Int(_), .. }))
                    && (punct_at(i + 2, ']') || (punct_at(i + 2, '.') && punct_at(i + 3, '.') && punct_at(i + 4, ']')));
                let indexable = match &code[i - 1].tok {
                    Tok::Ident(_) | Tok::Int(_) | Tok::Float(_) if before(2, '.') => true,
                    Tok::Ident(name) => !parser::is_keyword(name),
                    Tok::Punct(')' | ']' | '?') => true,
                    _ => false,
                };
                (literal && indexable).then(|| {
                    (RuleId::D7, "integer-literal index in sim-facing code assumes the collection is non-empty — use `.get(…)`/`.first()` and degrade".to_string())
                })
            }
            Tok::Ident(word) => match word.as_str() {
                "Instant" | "SystemTime" => Some((
                    RuleId::D1,
                    format!("`{word}` is wall-clock time — use `SimTime` (sim-facing code must not observe the host clock)"),
                )),
                "std" | "thread" if matches!((word.as_str(), path_next(i)), ("std", Some("thread")) | ("thread", Some("spawn"))) => Some((
                    RuleId::D1,
                    "`std::thread` — sim-facing code runs on the deterministic event kernel, not OS threads".to_string(),
                )),
                "HashMap" | "HashSet" => Some((
                    RuleId::D2,
                    format!("`{word}` iteration order is nondeterministic — use `BTreeMap`/`BTreeSet` or a sorted collect"),
                )),
                w if w.ends_with("Rng") && path_next(i) == Some("new") && punct_at(i + 4, '(') => Some((
                    RuleId::D3,
                    format!("`{w}::new(…)` outside `crates/sim` — build streams from an `RngRoot` of a config seed (scalewall_sim::rng)"),
                )),
                "fork" if punct_at(i + 1, '(') && (before(1, '.') || before(1, ':')) => Some((
                    RuleId::D3,
                    "`fork(…)` outside `crates/sim` — fork a `Stream` off an `RngRoot`, or a dynamic index with `child(…)` (scalewall_sim::rng)".to_string(),
                )),
                _ => None,
            },
            _ => None,
        };
        // Dedupe per (rule, line): `std::thread::spawn` should report once.
        if let Some((rule, message)) = hit.filter(|(rule, _)| !out.iter().any(|c: &Violation| c.rule == *rule && c.line == t.line)) {
            out.push(Violation { rule, line: t.line, message });
        }
    }
    out
}

// ---------------------------------------------------- two-phase analysis

struct AnalyzedFile {
    path: String,
    rules: RuleSet,
    parsed: ParsedFile,
    /// Every rule's hits, before the file's tier is applied.
    hits: Vec<Violation>,
}

/// Two-phase lint driver: add every file, then [`Analysis::finish`] runs
/// the cross-file semantic pass (D6 propagation), applies
/// each file's tier and reports what the semantic walk saw on the way.
#[derive(Default)]
struct Analysis {
    files: Vec<AnalyzedFile>,
}

impl Analysis {
    fn add_source(&mut self, path: &str, src: &str, rules: RuleSet) {
        let parsed = parser::parse(src);
        let hits = scan_tokens(&parsed);
        self.files.push(AnalyzedFile { path: path.to_string(), rules, parsed, hits });
    }

    fn finish(mut self) -> (Vec<FileReport>, Census) {
        // The cross-file semantic pass (D6 call-graph propagation) over
        // every file at once.
        let inputs: Vec<&ParsedFile> = self.files.iter().map(|f| &f.parsed).collect();
        let (cross, census) = semantic::analyze(&inputs);
        for (idx, c) in cross {
            let file = &mut self.files[idx];
            if !file.hits.iter().any(|e| e.rule == c.rule && e.line == c.line) {
                file.hits.push(c);
            }
        }

        let mut reports = Vec::new();
        for file in self.files {
            let mut violations = file.hits;
            violations.retain(|v| file.rules.enables(v.rule));
            violations.sort_by_key(|v| (v.line, v.rule));
            reports.push(FileReport {
                path: file.path,
                violations,
                unscanned: file.parsed.first_unscanned().map(|t| t.line),
            });
        }
        (reports, census)
    }
}

// ------------------------------------------------------------ per-file

/// Lint one file's source under a rule set. Cross-file D6 reasoning is
/// restricted to what the single file can prove about itself.
pub fn lint_source(src: &str, rules: RuleSet) -> Vec<Violation> {
    let mut a = Analysis::default();
    a.add_source("<memory>.rs", src, rules);
    a.finish().0.pop().unwrap_or_default().violations
}

/// Collect the `.rs` files under `dir` as `root`-relative paths (sorted,
/// deterministic; hidden directories and `target` skipped).
pub fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with('.') || name == "target" {
            continue;
        }
        if path.is_dir() {
            collect_rs(&path, root, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Lint the whole workspace rooted at `root`: every file feeds one
/// symbol table, so D6 held-sets propagate across crate boundaries.
pub fn lint_workspace(root: &Path) -> std::io::Result<WorkspaceReport> {
    let mut files = Vec::new();
    collect_rs(&root.join("crates"), root, &mut files)?;
    let mut analysis = Analysis::default();
    let mut files_scanned = 0usize;
    for rel in files {
        let Some(rules) = ruleset_for(&rel) else { continue };
        let src = std::fs::read_to_string(root.join(&rel))?;
        analysis.add_source(&rel, &src, rules);
        files_scanned += 1;
    }
    let (mut files, census) = analysis.finish();
    files.retain(|f| !f.violations.is_empty() || f.unscanned.is_some());
    Ok(WorkspaceReport { files, files_scanned, census })
}

/// Walk up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn violations(src: &str, rules: RuleSet) -> Vec<RuleId> {
        lint_source(src, rules).into_iter().map(|v| v.rule).collect()
    }

    #[test]
    fn clean_source_is_clean() {
        let src = "use std::collections::BTreeMap;\nfn f() { let m: BTreeMap<u32, u32> = BTreeMap::new(); }\n";
        assert!(violations(src, RuleSet::SIM).is_empty());
    }

    #[test]
    fn d1_flags_instant_and_threads() {
        assert_eq!(violations("use std::time::Instant;", RuleSet::SIM), [RuleId::D1]);
        assert_eq!(violations("fn f() { let _ = SystemTime::now(); }", RuleSet::SIM), [RuleId::D1]);
        assert_eq!(
            violations("fn f() { std::thread::spawn(|| {}); }", RuleSet::SIM),
            [RuleId::D1]
        );
    }

    #[test]
    fn d1_flags_wall_clock_types_in_signatures() {
        assert_eq!(
            violations("fn f(t: Instant) {}", RuleSet::SIM),
            [RuleId::D1]
        );
        assert_eq!(
            violations("fn now() -> SystemTime { loop {} }", RuleSet::SIM),
            [RuleId::D1]
        );
        assert_eq!(
            violations("struct S { started: Instant }", RuleSet::SIM),
            [RuleId::D1]
        );
    }

    #[test]
    fn d2_flags_hash_collections() {
        assert_eq!(
            violations("use std::collections::HashMap;", RuleSet::SIM),
            [RuleId::D2]
        );
        // …but not in the bench tier.
        assert!(violations("use std::collections::HashMap;", RuleSet::BENCH).is_empty());
    }

    #[test]
    fn d2_flags_types_inside_macro_args() {
        // Macro arguments are tokens like any others.
        let src = "fn f() { foo!(HashMap::new()); }";
        assert_eq!(violations(src, RuleSet::SIM), [RuleId::D2]);
    }

    #[test]
    fn d3_fences_rng_construction_and_forks() {
        for src in [
            "fn f() { let r = SimRng::new(42); }",
            "fn f() { let r = SimRng::new(cfg.seed); }",
            "fn f(r: &mut SimRng) { let c = r.fork(1); }",
            "fn f(r: &mut SimRng) { let c = SimRng::fork(r, 1); }",
        ] {
            assert_eq!(violations(src, RuleSet::SIM), [RuleId::D3], "{src}");
            // No D3 inside crates/sim's own rule set.
            assert!(violations(src, RuleSet::SIM_RNG_HOME).is_empty(), "{src}");
        }
        // The typed streams are the sanctioned shapes.
        let typed = "fn f(s: u64) { let mut root = RngRoot::new(s); let mut c = root.stream(Stream::Load); c.child(3); }";
        assert!(violations(typed, RuleSet::SIM).is_empty());
    }

    #[test]
    fn cfg_test_items_are_exempt() {
        let src = r#"
            #[cfg(test)]
            mod tests {
                use std::collections::HashMap;
                use std::time::Instant;
                fn t() { let _ = std::thread::spawn(|| {}); let _ = SimRng::new(1); }
            }
        "#;
        assert!(violations(src, RuleSet::SIM).is_empty());
    }

    #[test]
    fn cfg_test_fn_with_stacked_attrs_is_exempt() {
        let src = r#"
            #[cfg(test)]
            #[allow(dead_code)]
            fn helper() { let m = HashMap::new(); }
            fn real() { let m = HashMap::new(); }
        "#;
        assert_eq!(violations(src, RuleSet::SIM), [RuleId::D2]);
    }

    #[test]
    fn cfg_test_use_statement_is_exempt() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\n";
        assert!(violations(src, RuleSet::SIM).is_empty());
    }

    #[test]
    fn cfg_any_including_test_is_exempt() {
        let src = "#[cfg(any(test, fuzzing))]\nfn f() { let m = HashMap::new(); }\n";
        assert!(violations(src, RuleSet::SIM).is_empty());
    }

    #[test]
    fn non_test_cfg_is_not_exempt() {
        let src = "#[cfg(target_os = \"linux\")]\nfn f() { let m = HashMap::new(); }\n";
        assert_eq!(violations(src, RuleSet::SIM), [RuleId::D2]);
    }

    #[test]
    fn strings_and_comments_never_trigger() {
        let src = r###"
            // HashMap Instant v[0] SimRng::new(42)
            /* HashMap /* Instant */ v[0] */
            fn f() { let s = "HashMap Instant v[0]"; let r = r#"HashMap"#; }
        "###;
        assert!(violations(src, RuleSet::SIM).is_empty());
    }

    // ------------------------------------------------------------ D6

    #[test]
    fn d6_flags_nested_same_lock_acquire() {
        let src = r#"
            struct S { catalog: RwLock<u32> }
            impl S {
                fn f(&self) {
                    let g = self.catalog.write();
                    let h = self.catalog.read();
                }
            }
        "#;
        assert_eq!(violations(src, RuleSet::SIM), [RuleId::D6]);
        // Sequential (non-nested) acquisition is fine: the first guard
        // dies at the end of its statement or on drop().
        let clean = r#"
            struct S { catalog: RwLock<u32> }
            impl S {
                fn f(&self) {
                    let a = self.catalog.write();
                    drop(a);
                    let b = self.catalog.read();
                }
            }
        "#;
        assert!(violations(clean, RuleSet::SIM).is_empty());
    }

    #[test]
    fn d6_propagates_held_sets_through_calls() {
        // `outer` holds `a` while calling `inner`, which acquires `a`
        // again: a self-deadlock only visible through the call graph.
        let src = r#"
            struct S { a: Mutex<u32> }
            impl S {
                fn outer(&self) {
                    let g = self.a.lock();
                    self.inner();
                }
                fn inner(&self) {
                    let h = self.a.lock();
                }
            }
        "#;
        assert_eq!(violations(src, RuleSet::SIM), [RuleId::D6]);
        // Dropping the guard before the call clears it.
        let clean = r#"
            struct S { a: Mutex<u32> }
            impl S {
                fn outer(&self) {
                    let g = self.a.lock();
                    drop(g);
                    self.inner();
                }
                fn inner(&self) {
                    let h = self.a.lock();
                }
            }
        "#;
        assert!(violations(clean, RuleSet::SIM).is_empty());
    }

    #[test]
    fn d6_follows_type_aliases_to_the_lock() {
        // All four locks of the live tree are declared this way; an alias
        // of an alias resolves too.
        let src = r#"
            type Shared<T> = Arc<RwLock<T>>;
            type SharedCatalog = Shared<Catalog>;
            struct S { catalog: SharedCatalog }
            impl S {
                fn f(&self) {
                    let g = self.catalog.write();
                    let h = self.catalog.read();
                }
            }
        "#;
        assert_eq!(violations(src, RuleSet::SIM), [RuleId::D6]);
        let not_a_lock = src.replace("Arc<RwLock<T>>", "Arc<Vec<T>>");
        assert!(violations(&not_a_lock, RuleSet::SIM).is_empty());
    }

    #[test]
    fn d6_reads_calls_and_guards_off_the_tree() {
        let flagged = |body: &str| {
            let src = format!(
                "struct S {{ a: Mutex<Vec<u32>> }}\nimpl S {{\nfn f(&self) -> Option<u32> {{\n{body}\nNone }}\n\
                 fn inner<T>(&self) -> bool {{ self.a.lock().is_empty() }}\n}}\n"
            );
            let v = lint_source(&src, RuleSet::SIM);
            v.iter().map(|v| (v.rule, v.line)).collect::<Vec<_>>()
        };
        // A temporary lasts for its statement, so an acquire among the
        // arguments nests inside the receiver's…
        assert_eq!(flagged("self.a.lock().push(self.a.lock().len() as u32);"), [(RuleId::D6, 4)]);
        // …and is gone by the next one.
        assert_eq!(flagged("self.a.lock().push(1); self.a.lock().push(2);"), []);
        // `?` does not hide the guard a `let` binds, `drop` ends it.
        assert_eq!(flagged("let g = self.a.lock()?;\nself.inner::<u8>();"), [(RuleId::D6, 5)]);
        assert_eq!(flagged("let g = self.a.lock()?;\ndrop(g);\nself.inner::<u8>();"), []);
        // Macro arguments are part of the tree: a call in one is a call.
        assert_eq!(flagged("let g = self.a.lock();\nassert!(self.inner::<u8>());"), [(RuleId::D6, 5)]);
        // A guard bound in a block dies with it, whatever heads the block.
        assert_eq!(flagged("if 1 != 2 { let g = self.a.lock(); }\nself.inner::<u8>();"), []);
        assert_eq!(flagged("if 1 != 2 { let g = self.a.lock();\nself.inner::<u8>(); }"), [(RuleId::D6, 5)]);
    }

    // ------------------------------------------------------------ D7

    #[test]
    fn d7_flags_literal_index_outside_tests() {
        // Fixed-size arrays included: the type bounds `[T; N]`, but the
        // lint does not read types, and destructuring says the same.
        let src = r#"
struct W { occupied: [u64; 4] }
impl W { fn f(&self) -> u64 { self.occupied[0] } }
fn g(v: &[u32]) -> u32 { v[0] }
fn h() -> u64 { let mut s: [u64; 4] = [0; 4]; s[0] = 1; s[3] }
"#;
        let v = lint_source(src, RuleSet::SIM);
        assert_eq!(
            v.iter().map(|v| (v.rule, v.line)).collect::<Vec<_>>(),
            [(RuleId::D7, 3), (RuleId::D7, 4), (RuleId::D7, 5)],
            "{v:?}"
        );
        let test_src = "#[cfg(test)]\nmod t { fn f(v: &[u32]) -> u32 { v[0] } }";
        assert!(violations(test_src, RuleSet::SIM).is_empty());
    }

    #[test]
    fn d7_index_pattern_reads_receivers_not_literals_or_types() {
        // What the v2 parser's `Expr::Index` / struct-literal / stray-brace
        // unit tests pinned as shapes, pinned as detections.
        let src = r#"
fn a(&self) -> u32 { let r = &self.dep.regions[0]; r.go() }
fn b(c: bool, v: &[u32]) -> S { if c { S { v: v[1] } } else { S { v: f(v)[0] } } }
fn c(v: &[u32]) -> [u32; 1] { let w: Vec<[u8; 4]> = vec![[0]; 4]; for x in [0] { g(x, &[1], m![0]) } return [0] }
fn d(t: (Vec<u32>, u32), v: Option<&[u32]>) -> u32 { t.0[0] + v?[0] }
} }
fn e(v: &[u32], w: &[[u32; 4]]) -> &[u32] { &v[2..] }
fn f(v: &[u32], n: usize) -> &[u32] { if n > 0 { &v[1..n] } else { &v[..1] } }
fn g(w: &[[u32; 4]]) -> u32 { w[2][3] }
"#;
        let v = lint_source(src, RuleSet::SIM);
        assert_eq!(
            v.iter().map(|v| (v.rule, v.line)).collect::<Vec<_>>(),
            [(RuleId::D7, 2), (RuleId::D7, 3), (RuleId::D7, 5), (RuleId::D7, 7), (RuleId::D7, 9)],
            "{v:?}"
        );
    }

    #[test]
    fn d7_ignores_variable_indexing() {
        // Variable indices are ordinary bounds-checked access; only the
        // "assume non-empty" literal-index pattern is flagged.
        let src = "fn f(v: &[u32], i: usize) -> u32 { v[i] }";
        assert!(violations(src, RuleSet::SIM).is_empty());
    }

    #[test]
    fn tiering_matches_layout() {
        assert_eq!(ruleset_for("crates/cubrick/src/brick.rs"), Some(RuleSet::SIM));
        assert_eq!(ruleset_for("crates/cubrick/src/encoding/delta.rs"), Some(RuleSet::SIM));
        assert_eq!(ruleset_for("crates/zk/src/a_new_file.rs"), Some(RuleSet::SIM));
        assert_eq!(ruleset_for("crates/sim/src/rng.rs"), Some(RuleSet::SIM_RNG_HOME));
        assert_eq!(ruleset_for("crates/bench/src/figures/fig4a.rs"), Some(RuleSet::BENCH));
        // No rule applies outside `crates/*/src`, to the lint itself or
        // to the wall-clock runner.
        for rel in [
            "crates/bench/src/microbench.rs",
            "crates/lint/src/lib.rs",
            "crates/lint/fixtures/d1_wall_clock.rs",
            "crates/cubrick/tests/props.rs",
            "tests/determinism.rs",
            "examples/quickstart.rs",
            "src/lib.rs",
        ] {
            assert_eq!(ruleset_for(rel), None, "{rel}");
        }
    }
}
