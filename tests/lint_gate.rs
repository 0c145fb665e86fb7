//! Workspace determinism gate: run `scalewall-lint` over the live tree
//! and fail the build on any unsilenced violation.
//!
//! This is the machine check behind the replay contract: no sim-facing
//! code path may smuggle in wall-clock time (D1), hash-iteration order
//! (D2), private RNG seeds (D3), `unsafe` (D4), RNG stream-discipline
//! breaches (D5), lock-order hazards (D6), or panic surface anywhere
//! but the `D7_PENDING` files (D7). See DESIGN.md "Determinism invariants" and
//! "Semantic determinism invariants" for the rules and the pragma
//! escape hatch.

use std::path::Path;

use scalewall_lint::{collect_rs, json, lint_workspace, ruleset_for, RuleId, SIM_FACING_CRATES};

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

    // Always print the allow inventory: every suppression in the tree,
    // with its reason, in one place.
    let inventory = report.pragma_inventory();
    println!("pragma allow inventory ({} entries):", inventory.len());
    for (path, p) in &inventory {
        let rules: Vec<String> = p.rules.iter().map(|r| r.to_string()).collect();
        println!(
            "  {}:{}: allow({}) -- {} [suppressed {}]",
            path,
            p.line,
            rules.join(","),
            p.reason,
            p.suppressed
        );
    }
    println!(
        "scanned {} files, {} suppressed by pragma",
        report.files_scanned,
        report.suppressed_count()
    );

    // The parser's coverage invariant: every code token of every scanned
    // file lies in a parsed item or in an opaque span the token scan
    // reads. Where it breaks, "zero violations" says nothing.
    if let Some((path, line)) = report.first_unscanned() {
        panic!("{path}:{line}: token in no parsed item and no opaque span — no rule looked at it");
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
        "unsilenced determinism-lint violations:\n{rendered}"
    );

    // The gate covers all seven rule families, not just the v1 four:
    // a clean tree means clean under D1–D7, D7 as a crate-wide rule.
    for rule in [
        RuleId::D1,
        RuleId::D2,
        RuleId::D3,
        RuleId::D4,
        RuleId::D5,
        RuleId::D6,
        RuleId::D7,
    ] {
        let hits: Vec<_> = report
            .files
            .iter()
            .flat_map(|f| f.violations.iter().filter(|v| v.rule == rule))
            .collect();
        assert!(hits.is_empty(), "{rule} violations in live tree: {hits:?}");
    }
}

/// The canary sweep over the live tree: every non-test function of the
/// six sim-facing crates, each under its own file's rule set. "Zero
/// violations" above covers only the functions the parser sees; this is
/// the check that every function is one of them.
#[test]
fn canary_in_every_sim_facing_fn_is_reported() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut planted = 0;
    for krate in SIM_FACING_CRATES {
        let mut files = Vec::new();
        let src_dir = root.join("crates").join(krate).join("src");
        collect_rs(&src_dir, root, &mut files).expect("crate sources");
        for rel in files {
            let rules = ruleset_for(&rel).expect("sim-facing sources are linted");
            let src = std::fs::read_to_string(root.join(&rel)).expect("readable source");
            let (missed, headers) = canary::unreported_canaries(&src, rules);
            assert!(
                missed.is_empty(),
                "{rel}: canaries after the `fn` headers on lines {missed:?} went unreported"
            );
            planted += headers;
        }
    }
    println!("planted {planted} canaries");
    assert!(
        planted > 700,
        "only {planted} canaries planted: walker or header scan broken?"
    );
}

/// The machine-readable side of the gate: the workspace report must
/// serialize to a schema-valid `scalewall-lint/v2` document whose
/// summary counts agree with the in-memory report. `scripts/verify.sh`
/// runs the same emit + validate pair through the CLI.
#[test]
fn workspace_report_roundtrips_through_v2_json() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = lint_workspace(root).expect("workspace scan");

    let text = json::to_json(&report);
    assert!(text.starts_with(&format!("{{\n  \"schema\": \"{}\"", json::SCHEMA)));

    let (violations, pragmas) = json::validate(&text).expect("schema-valid v2 report");
    assert_eq!(violations, report.violation_count() as u64);
    assert_eq!(pragmas as usize, report.pragma_inventory().len());
    assert_eq!(violations, 0, "validate must agree the tree is clean");
}
