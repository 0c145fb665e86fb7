//! Fixture tests: each seeded-violation fixture must trip exactly its
//! rule, clean fixtures must stay clean, and — the property test —
//! token-preserving mutations of clean fixtures must stay clean.

use std::path::Path;

use scalewall_lint::{lint_source, parser, ruleset_for, RuleId, RuleSet};
use scalewall_sim::prop;
use scalewall_sim::SimRng;

#[path = "support/canary.rs"]
mod canary;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn rules_hit(src: &str, rules: RuleSet) -> Vec<RuleId> {
    let violations = lint_source(src, rules);
    let mut hit: Vec<RuleId> = violations.iter().map(|v| v.rule).collect();
    hit.sort();
    hit.dedup();
    hit
}

#[test]
fn clean_fixture_is_clean() {
    let src = fixture("clean.rs");
    assert_eq!(rules_hit(&src, RuleSet::SIM), Vec::<RuleId>::new());
}

#[test]
fn d1_fixture_trips_only_d1() {
    let src = fixture("d1_wall_clock.rs");
    assert_eq!(rules_hit(&src, RuleSet::SIM), [RuleId::D1]);
    let violations = lint_source(&src, RuleSet::SIM);
    // Instant, SystemTime (import + uses) and thread::spawn all land.
    assert!(violations.len() >= 3, "{violations:?}");
}

#[test]
fn d2_fixture_trips_only_d2() {
    let src = fixture("d2_hash_iteration.rs");
    assert_eq!(rules_hit(&src, RuleSet::SIM), [RuleId::D2]);
    // The bench tier tolerates hash maps.
    assert_eq!(rules_hit(&src, RuleSet::BENCH), Vec::<RuleId>::new());
}

/// The `(line, rule)` of every `// expect: <rule>` marker in `src`.
fn expected_markers(src: &str) -> Vec<(u32, RuleId)> {
    src.lines()
        .zip(1u32..)
        .filter_map(|(text, line)| {
            let (_, rule) = text.split_once("// expect: ")?;
            let parsed = RULES.into_iter().find(|r| r.to_string() == rule.trim());
            Some((line, parsed.unwrap_or_else(|| panic!("line {line}: bad marker {rule:?}"))))
        })
        .collect()
}

fn reported(src: &str, rules: RuleSet) -> Vec<(u32, RuleId)> {
    lint_source(src, rules).iter().map(|v| (v.line, v.rule)).collect()
}

/// `SimRng::new(cfg.seed)` and `rng.fork(1)` are flagged under a
/// `cluster` path, the typed streams are not, and `crates/sim` and
/// `#[cfg(test)]` are exempt.
#[test]
fn d3_fence_fixture_flags_its_markers_outside_crates_sim() {
    let src = fixture("d3_rng_fence.rs");
    let cluster = ruleset_for("crates/cluster/src/fence.rs").expect("linted");
    let expected = expected_markers(&src);
    assert_eq!(expected.len(), 2, "markers lost from the fixture");
    assert_eq!(reported(&src, cluster), expected);
    let sim = ruleset_for("crates/sim/src/fence.rs").expect("linted");
    assert_eq!(reported(&src, sim), []);
}

#[test]
fn d6_fixture_trips_only_d6() {
    let src = fixture("d6_lock_order.rs");
    assert_eq!(rules_hit(&src, RuleSet::SIM), [RuleId::D6]);
    let violations = lint_source(&src, RuleSet::SIM);
    // The nested acquire and the re-entry through a call.
    assert_eq!(violations.len(), 2, "{violations:?}");
}

#[test]
fn d6_clean_pair_is_clean() {
    let src = fixture("d6_lock_order_clean.rs");
    assert_eq!(rules_hit(&src, RuleSet::SIM), Vec::<RuleId>::new());
}

#[test]
fn d7_fixture_trips_only_d7() {
    let src = fixture("d7_panic_surface.rs");
    assert_eq!(rules_hit(&src, RuleSet::SIM), [RuleId::D7]);
    let violations = lint_source(&src, RuleSet::SIM);
    // `v[0]`, `&v[1..]` and an index into a fixed-size array.
    assert_eq!(violations.len(), 3, "{violations:?}");
}

#[test]
fn d7_clean_pair_is_clean() {
    let src = fixture("d7_panic_surface_clean.rs");
    assert_eq!(rules_hit(&src, RuleSet::SIM), Vec::<RuleId>::new());
}

const RULES: [RuleId; 5] = [RuleId::D1, RuleId::D2, RuleId::D3, RuleId::D6, RuleId::D7];

/// Every `// expect: <rule>` marker of the blind-shape fixture names a
/// line on which exactly that rule fires, and nothing fires elsewhere.
#[test]
fn blind_shape_pins_and_controls_fire_on_their_lines() {
    let src = fixture("blind_blocks.rs");
    let expected = expected_markers(&src);
    assert_eq!(expected.len(), 22, "markers lost from the fixture");
    assert_eq!(reported(&src, RuleSet::SIM), expected);
}

#[test]
fn lexer_edge_fixture_is_inert() {
    // Raw strings spanning comment-shaped lines, escaped-newline string
    // continuations, and nested block comments: no violations.
    let src = fixture("lexer_edges.rs");
    assert_eq!(lint_source(&src, RuleSet::SIM), Vec::new());
}

/// Pinned regression for call-graph held-set propagation: `outer` holds
/// the lock across a two-hop call chain whose far end re-acquires it.
/// The exact report site (the call, not the acquire) is pinned so the
/// propagation can never silently regress to direct-acquire-only.
#[test]
fn pinned_held_set_propagation_through_two_hops() {
    let src = r#"
struct S { a: Mutex<u32> }
impl S {
    fn outer(&self) {
        let g = self.a.lock();
        self.middle();
    }
    fn middle(&self) {
        self.inner();
    }
    fn inner(&self) {
        let h = self.a.lock();
        let _ = h;
    }
}
"#;
    let violations = lint_source(src, RuleSet::SIM);
    assert_eq!(violations.len(), 1, "{violations:?}");
    let v = &violations[0];
    assert_eq!(v.rule, RuleId::D6);
    assert_eq!(v.line, 6, "reported at the call site: {v:?}");
    assert!(v.message.contains("S::a"), "{}", v.message);
    assert!(v.message.contains("held across a call"), "{}", v.message);
}

/// A `scalewall-lint: allow(…)` comment is a comment like any other:
/// every hit of the old pragma fixture is reported on its own line.
#[test]
fn old_pragma_comments_suppress_nothing() {
    let src = fixture("pragma_allowed.rs");
    let violations = lint_source(&src, RuleSet::SIM);
    let got: Vec<(u32, RuleId)> = violations.iter().map(|v| (v.line, v.rule)).collect();
    assert_eq!(got, [(6, RuleId::D2), (10, RuleId::D2), (18, RuleId::D1), (18, RuleId::D2)]);
}

// ------------------------------------------------------------- coverage

const FIXTURES: [&str; 12] = [
    "blind_blocks.rs",
    "clean.rs",
    "d1_wall_clock.rs",
    "d2_hash_iteration.rs",
    "d3_rng_fence.rs",
    "d6_lock_order.rs",
    "d6_lock_order_clean.rs",
    "d7_panic_surface.rs",
    "d7_panic_surface_clean.rs",
    "lexer_edges.rs",
    "parser_match_arm_patterns.rs",
    "pragma_allowed.rs",
];

#[test]
fn parser_fixture_is_clean_and_fully_parsed() {
    let src = fixture("parser_match_arm_patterns.rs");
    assert_eq!(rules_hit(&src, RuleSet::SIM), Vec::<RuleId>::new());
    let parsed = parser::parse(&src);
    let fns: Vec<&str> = parsed.fns.iter().map(|f| f.name.as_str()).collect();
    assert_eq!(
        fns,
        [
            "encode",
            "after_the_match",
            "statement_then_parens",
            "statement_then_brackets",
            "after_everything"
        ]
    );
}

/// The coverage invariant: the pattern scan reads every code token
/// outside a `#[cfg(test)]` span, so what is left to hold is that the
/// item shaper walked each file to its end.
#[test]
fn every_fixture_token_is_scanned() {
    for name in FIXTURES {
        let parsed = parser::parse(&fixture(name));
        if let Some(t) = parsed.first_unscanned() {
            panic!("{name}:{}: the shaper stopped at token {:?}", t.line, t.tok);
        }
    }
}

/// The function canary (`support/canary.rs`) over every fixture.
#[test]
fn canary_in_every_fixture_fn_is_reported() {
    let mut planted = 0;
    for name in FIXTURES {
        let src = fixture(name);
        let headers = canary::fn_header_lines(&src);
        let missed = canary::unreported(&src, RuleSet::SIM, &headers, &canary::WALL_CLOCK);
        assert!(missed.is_empty(), "{name}: canaries after the `fn` headers on lines {missed:?} went unreported");
        planted += headers.len();
    }
    assert!(planted > 30, "only {planted} canaries planted: header scan broken?");
}

/// The block canaries over every fixture: a literal index for the
/// pattern scan, a nested acquire for the body walk.
#[test]
fn canaries_in_every_fixture_block_are_reported() {
    let mut planted = 0;
    for name in FIXTURES {
        let src = fixture(name);
        let heads = canary::block_head_lines(&src);
        for canary in [&canary::PANIC, &canary::SEMANTIC] {
            let missed = canary::unreported(&src, RuleSet::SIM, &heads, canary);
            assert!(missed.is_empty(), "{name}: {:?} canaries after the block heads on lines {missed:?} went unreported", canary.rules);
        }
        planted += heads.len();
    }
    assert!(planted > 10, "only {planted} block heads found: head scan broken?");
}

// ------------------------------------------------------------- property

/// Insert comment/whitespace noise between the lines of `src` and at
/// random column-safe points: the token stream (and thus the verdict)
/// must not change. Mutations are line-based so we never split a token.
fn mutate_token_preserving(rng: &mut SimRng, src: &str) -> String {
    let mut out = String::new();
    for line in src.lines() {
        // Occasionally prepend a full-line block or line comment with
        // scary content; both are invisible to the rules.
        match rng.below(6) {
            0 => out.push_str("/* noise: HashMap Instant v[0] SimRng::new(1) */\n"),
            1 => out.push_str("// noise: SystemTime std::thread::spawn HashSet\n"),
            2 => out.push('\n'),
            _ => {}
        }
        // Random indentation changes are token-preserving.
        for _ in 0..rng.below(3) {
            out.push(' ');
        }
        out.push_str(line);
        // Trailing line comment.
        if rng.chance(0.2) {
            out.push_str(" // trailing noise: v[0] HashMap");
        }
        out.push('\n');
    }
    out
}

#[test]
fn prop_token_preserving_mutations_of_clean_fixtures_stay_clean() {
    let clean = [
        fixture("clean.rs"),
        fixture("d6_lock_order_clean.rs"),
        fixture("d7_panic_surface_clean.rs"),
        fixture("lexer_edges.rs"),
        fixture("parser_match_arm_patterns.rs"),
    ];
    prop::check_n(
        "lint_clean_fixtures_stable_under_noise",
        96,
        move |rng| {
            let which = rng.below(clean.len() as u64) as usize;
            (which, mutate_token_preserving(rng, &clean[which]))
        },
        |(_, mutated)| {
            let violations = lint_source(mutated, RuleSet::SIM);
            assert_eq!(violations, Vec::new(), "mutated source:\n{mutated}");
        },
    );
}

#[test]
fn prop_seeded_violations_survive_noise() {
    // The dual property: mutations must not *hide* violations either.
    // Verdict stability under token-preserving mutation is the lint's
    // own replay contract: same token stream, same verdict.
    let dirty = [
        (fixture("d1_wall_clock.rs"), RuleId::D1),
        (fixture("d2_hash_iteration.rs"), RuleId::D2),
        (fixture("d3_rng_fence.rs"), RuleId::D3),
        (fixture("d6_lock_order.rs"), RuleId::D6),
        (fixture("d7_panic_surface.rs"), RuleId::D7),
        (fixture("pragma_allowed.rs"), RuleId::D2),
    ];
    prop::check_n(
        "lint_dirty_fixtures_stable_under_noise",
        96,
        move |rng| {
            let idx = rng.below(dirty.len() as u64) as usize;
            let (src, rule) = &dirty[idx];
            (mutate_token_preserving(rng, src), *rule)
        },
        |(mutated, rule)| {
            let violations = lint_source(mutated, RuleSet::SIM);
            assert!(
                violations.iter().any(|v| v.rule == *rule),
                "{rule} vanished from mutated source:\n{mutated}"
            );
        },
    );
}
