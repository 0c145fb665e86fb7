//! Workspace determinism gate: run `scalewall-lint` over the live tree
//! and fail the build on any violation, and hold the manifests to the
//! compiler-owned rules.
//!
//! This is the machine check behind the replay contract: no sim-facing
//! code path may smuggle in wall-clock time (D1), hash-iteration order
//! (D2), RNG streams built outside `sim::rng`'s types (D3), same-lock
//! re-entry (D6) or an integer-literal index (D7). `unsafe` is rustc's
//! and the rest of the panic surface clippy's; what this file checks of
//! them is that every manifest still opts in. See DESIGN.md §5c for the
//! rules, their engines and the file tiers.

use std::path::Path;

use scalewall_lint::{
    collect_rs, lint_source, lint_workspace, ruleset_for, RuleId, RuleSet, SIM_FACING_CRATES,
};

#[path = "../crates/lint/tests/support/canary.rs"]
mod canary;

#[test]
fn workspace_has_zero_unsilenced_violations() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = lint_workspace(root).expect("workspace scan");

    assert!(
        report.files_scanned > 50,
        "suspiciously small scan ({} files) — did the walker break?",
        report.files_scanned
    );

    println!("scanned {} files", report.files_scanned);

    // The coverage invariant: the pattern scan reads every code token
    // outside `#[cfg(test)]`, and the item shaper walked every scanned
    // file to its end. Where it stopped short, "zero violations" says
    // nothing about the functions behind that point.
    if let Some((path, line)) = report.first_unscanned() {
        panic!("{path}:{line}: the item shaper stopped here, short of the end of the file");
    }

    let mut rendered = String::new();
    for f in &report.files {
        for v in &f.violations {
            rendered.push_str(&format!("  {}:{}: {}: {}\n", f.path, v.line, v.rule, v.message));
        }
    }
    assert_eq!(
        report.violation_count(),
        0,
        "determinism-lint violations:\n{rendered}"
    );

    // A clean tree means clean under every rule the lint owns.
    for rule in [RuleId::D1, RuleId::D2, RuleId::D3, RuleId::D6, RuleId::D7] {
        let hits: Vec<_> = report
            .files
            .iter()
            .flat_map(|f| f.violations.iter().filter(|v| v.rule == rule))
            .collect();
        assert!(hits.is_empty(), "{rule} violations in live tree: {hits:?}");
    }
}

/// Vacuity is a failure: the semantic walk must have seen the locks the
/// system has (both shared stores are declared through `type Shared… =
/// Arc<RwLock<…>>` aliases) and calls made under them. Before aliases
/// were followed it saw 2 identities — the shim's own field — and 3
/// calls, and reported the same zero violations. The shard map SM owns by
/// value is no lock, and a shared handle to it coming back fails here.
/// The walk reads `crates/*/src` only: four identities (the three below
/// and the shim's own `RwLock::0`), 118 calls under a held lock.
#[test]
fn semantic_walk_sees_the_locks_the_system_has() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let census = lint_workspace(root).expect("workspace scan").census;
    println!("{census:#?}");
    for lock in ["Deployment::catalog", "CubrickNode::catalog", "CubrickNode::region_store"] {
        assert!(census.lock_ids.contains(lock), "`{lock}` unresolved; saw {:?}", census.lock_ids);
    }
    for gone in ["DiscoveryClient::store", "SmServer::discovery", "Mutex::0"] {
        assert!(!census.lock_ids.contains(gone), "`{gone}` is a lock again; saw {:?}", census.lock_ids);
    }
    assert!(census.lock_ids.len() >= 4, "{:?}", census.lock_ids);
    assert!(census.calls_under_lock >= 110, "only {} calls under a held lock", census.calls_under_lock);
    assert!(census.fns_walked > 800, "{census:?}");
}

/// Every non-test source file of the six sim-facing crates, as
/// `(workspace-relative path, source)`.
fn sim_facing_sources() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for krate in SIM_FACING_CRATES {
        let src_dir = root.join("crates").join(krate).join("src");
        collect_rs(&src_dir, root, &mut files).expect("crate sources");
    }
    files
        .into_iter()
        .map(|rel| {
            let src = std::fs::read_to_string(root.join(&rel)).expect("readable source");
            (rel, src)
        })
        .collect()
}

/// The function canary over the live tree: every non-test function of the
/// six sim-facing crates, each under its own file's rule set. "Zero
/// violations" above covers only the functions the lint sees; this is
/// the check that every function is one of them.
#[test]
fn canary_in_every_sim_facing_fn_is_reported() {
    let mut planted = 0;
    for (rel, src) in sim_facing_sources() {
        let rules = ruleset_for(&rel).expect("sim-facing sources are linted");
        let headers = canary::fn_header_lines(&src);
        let missed = canary::unreported(&src, rules, &headers, &canary::WALL_CLOCK);
        assert!(
            missed.is_empty(),
            "{rel}: canaries after the `fn` headers on lines {missed:?} went unreported"
        );
        planted += headers.len();
    }
    println!("planted {planted} canaries");
    assert!(
        planted > 700,
        "only {planted} canaries planted: walker or header scan broken?"
    );
}

/// The block canaries over the live tree: after every `if` / `while` /
/// `for` / `loop` / `else` head, a literal index the pattern scan must
/// report (under `RuleSet::SIM`) and a nested acquire the body walk must. A
/// block a mis-read head hides from either engine shows here and nowhere
/// else.
#[test]
fn canaries_in_every_sim_facing_block_are_reported() {
    let mut planted = 0;
    let mut missed = Vec::new();
    for (rel, src) in sim_facing_sources() {
        let heads = canary::block_head_lines(&src);
        for canary in [&canary::PANIC, &canary::SEMANTIC] {
            for line in canary::unreported(&src, RuleSet::SIM, &heads, canary) {
                missed.push(format!("{rel}:{line}: {:?}", canary.rules));
            }
        }
        let plain = plain_block_heads(&src);
        assert_eq!(heads, plain, "{rel}: the head scan and a plain reading of the lines disagree");
        planted += heads.len();
    }
    println!("planted both canaries in {planted} blocks");
    assert!(missed.is_empty(), "{} block canaries went unreported:\n{}", missed.len(), missed.join("\n"));
    assert!(planted > 0, "no block head in any sim-facing file: walker broken?");
}

/// The block heads of `src` by a plain reading of its lines, the head
/// scan's independent twin: a line that, trimmed, opens with `if `,
/// `while `, `for `, `loop ` or `} else` and ends in `{`, outside the
/// items under a `#[cfg(test)]` line (to the `}` at the attribute's
/// indent, or past its one line when that ends in `;`). It knows nothing of
/// tokens, so a broken lexer or head test cannot break it the same way,
/// and code that loses a block loses it from both.
fn plain_block_heads(src: &str) -> Vec<u32> {
    let mut heads = Vec::new();
    // The line that closes the test-gated item being skipped, and whether
    // its first line is still to come.
    let mut gated: Option<(String, bool)> = None;
    for (n, line) in (1..).zip(src.lines()) {
        let text = line.trim();
        if let Some((close, first)) = &mut gated {
            if line == close || (*first && text.ends_with(';')) {
                gated = None;
            } else {
                *first = false;
            }
            continue;
        }
        if text == "#[cfg(test)]" {
            let indent = &line[..line.len() - line.trim_start().len()];
            gated = Some((format!("{indent}}}"), true));
            continue;
        }
        let opens = ["if ", "while ", "for ", "loop ", "} else"].iter().any(|k| text.starts_with(k));
        if opens && text.ends_with('{') {
            heads.push(n);
        }
    }
    heads
}

/// One planted violation per rule on a live file: `cluster/src/driver.rs`
/// as it is on disk, with five statements added at the top of
/// `dispatch`, reports those five lines and nothing else.
#[test]
fn one_planted_violation_per_rule_is_reported_on_its_line() {
    const PLANTED: [(RuleId, &str); 5] = [
        (RuleId::D1, "let _p1 = std::time::Instant::now();"),
        (RuleId::D2, "let _p2: HashMap<u8, u8> = Default::default();"),
        (RuleId::D3, "let _p3 = rng.child(7).fork(7);"),
        (RuleId::D6, "{ let pl = Mutex::new(0u8); let _pa = pl.lock(); let _pb = pl.lock(); }"),
        (RuleId::D7, "let _p7 = Vec::<u8>::new()[0];"),
    ];
    let rel = "crates/cluster/src/driver.rs";
    let src = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)).expect("driver.rs");
    let lines: Vec<&str> = src.lines().collect();
    let header = lines.iter().position(|l| l.starts_with("fn dispatch(")).expect("anchor fn");
    let anchor = header
        + lines[header..].iter().position(|l| l.ends_with(") -> CubrickResult<Answered> {")).expect("anchor fn body")
        + 1;
    let planted: Vec<&str> = PLANTED.iter().map(|(_, text)| *text).collect();
    let mutated = [&lines[..anchor], &planted, &lines[anchor..]].concat().join("\n");

    let rules = ruleset_for(rel).expect("driver.rs is linted");
    let violations = lint_source(&mutated, rules);
    let got: Vec<(RuleId, u32)> = violations.iter().map(|v| (v.rule, v.line)).collect();
    let expected: Vec<(RuleId, u32)> =
        PLANTED.iter().zip(anchor as u32 + 1..).map(|((rule, _), line)| (*rule, line)).collect();
    assert_eq!(got, expected, "{violations:#?}");
}

/// The clippy lints that stand for D7's panic family, denied for the six
/// sim-facing crates by the root `[workspace.lints.clippy]`.
const PANIC_FAMILY: [&str; 6] = ["unwrap_used", "expect_used", "panic", "unreachable", "todo", "unimplemented"];

/// The `key = value` lines of the table `[name]` of a manifest, values as
/// written.
fn toml_table(manifest: &str, name: &str) -> Vec<(String, String)> {
    let header = format!("[{name}]");
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect()
}

/// `unsafe` and the panic family left the lint for rustc and clippy, and
/// neither says a word when a crate stops opting in: a sim-facing manifest
/// without `[lints] workspace = true` builds and lints clean. This is
/// the tier-1 check that the opt-ins are all there.
#[test]
fn the_compiler_owns_unsafe_and_the_panic_family() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let manifest = |rel: &str| std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"));
    let denies = |table: &[(String, String)], lint: &str| table.iter().any(|(k, v)| k == lint && v == "\"deny\"");

    let workspace = manifest("Cargo.toml");
    assert!(denies(&toml_table(&workspace, "workspace.lints.rust"), "unsafe_code"), "[workspace.lints.rust] lost `unsafe_code = \"deny\"`");
    let clippy = toml_table(&workspace, "workspace.lints.clippy");
    for lint in PANIC_FAMILY {
        assert!(denies(&clippy, lint), "[workspace.lints.clippy] lost `{lint} = \"deny\"`");
    }
    for krate in SIM_FACING_CRATES {
        let rel = format!("crates/{krate}/Cargo.toml");
        let opts_in = toml_table(&manifest(&rel), "lints").iter().any(|(k, v)| k == "workspace" && v == "true");
        assert!(opts_in, "{rel}: no `[lints] workspace = true`");
    }
    for rel in ["Cargo.toml", "crates/bench/Cargo.toml", "crates/lint/Cargo.toml"] {
        assert!(denies(&toml_table(&manifest(rel), "lints.rust"), "unsafe_code"), "{rel}: no `[lints.rust] unsafe_code = \"deny\"`");
    }
}

/// DESIGN.md §5b: the workspace and the benchmark resolve no registry or
/// git crate. Cargo writes a `source = …` line under every package it did
/// not find on a path, so a hermetic lockfile has none.
#[test]
fn the_lockfiles_hold_only_path_crates() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for rel in ["Cargo.lock", "benchmark/Cargo.lock"] {
        let lock = std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"));
        let sourced: Vec<&str> = lock
            .lines()
            .filter(|l| l.starts_with("source = "))
            .collect();
        assert!(
            sourced.is_empty(),
            "{rel}: packages from outside the tree: {sourced:?}"
        );
    }
}
