//! Every figure's fast-profile report, byte for byte, against its golden
//! file `tests/figures/<module>.txt`. A moved report fails with the file,
//! the first line that differs and both versions of that line; a
//! deliberate re-pin rewrites the files with `scripts/figures_match.sh`
//! and commits the `git diff`. One test per figure module, so the harness
//! spreads them over the cores. The other files there (`<bin>.full.txt`,
//! `all_figures.fast.txt`, `example.<name>.txt`) are release-build
//! outputs that `scripts/figures_match.sh` checks.

use scalewall_bench::figures;
use scalewall_bench::Profile;

/// `None` when `actual` is `expected`; otherwise `file`, the number of
/// the first line that differs, and that line of each (`-` expected,
/// `+` actual, `<none>` past the end).
fn mismatch(file: &str, expected: &str, actual: &str) -> Option<String> {
    let exp: Vec<&str> = expected.split('\n').collect();
    let act: Vec<&str> = actual.split('\n').collect();
    let at = (0..=exp.len().max(act.len())).find(|&i| exp.get(i) != act.get(i))?;
    let [e, a] = [&exp, &act].map(|lines| lines.get(at).copied().unwrap_or("<none>"));
    let line = at + 1;
    Some(format!("{file} differs from line {line}:\n- {e}\n+ {a}"))
}

/// Fails with [`mismatch`]'s report when the fast-profile report `run`
/// renders for figure module `module` is not its golden file `golden`.
fn check(module: &str, golden: &str, run: fn(Profile) -> String) {
    let file = format!("tests/figures/{module}.txt");
    if let Some(diff) = mismatch(&file, golden, &run(Profile::Fast)) {
        panic!("{diff}\n(a deliberate re-pin: scripts/figures_match.sh, then commit the diff)");
    }
}

#[test]
fn fig1() {
    check("fig1", include_str!("figures/fig1.txt"), figures::fig1::run);
}

#[test]
fn fig2() {
    check("fig2", include_str!("figures/fig2.txt"), figures::fig2::run);
}

#[test]
fn fig2b() {
    check(
        "fig2b",
        include_str!("figures/fig2b.txt"),
        figures::fig2b::run,
    );
}

#[test]
fn tbl_mapping() {
    check(
        "tbl_mapping",
        include_str!("figures/tbl_mapping.txt"),
        figures::tbl_mapping::run,
    );
}

#[test]
fn fig4a() {
    check(
        "fig4a",
        include_str!("figures/fig4a.txt"),
        figures::fig4a::run,
    );
}

#[test]
fn fig4b() {
    check(
        "fig4b",
        include_str!("figures/fig4b.txt"),
        figures::fig4b::run,
    );
}

#[test]
fn fig4c() {
    check(
        "fig4c",
        include_str!("figures/fig4c.txt"),
        figures::fig4c::run,
    );
}

#[test]
fn fig4d() {
    check(
        "fig4d",
        include_str!("figures/fig4d.txt"),
        figures::fig4d::run,
    );
}

#[test]
fn fig4e() {
    check(
        "fig4e",
        include_str!("figures/fig4e.txt"),
        figures::fig4e::run,
    );
}

#[test]
fn fig4f() {
    check(
        "fig4f",
        include_str!("figures/fig4f.txt"),
        figures::fig4f::run,
    );
}

#[test]
fn fig5() {
    check("fig5", include_str!("figures/fig5.txt"), figures::fig5::run);
}

#[test]
fn fig_qos_sla() {
    check(
        "fig_qos_sla",
        include_str!("figures/fig_qos_sla.txt"),
        figures::fig_qos_sla::run,
    );
}

#[test]
fn wall_ablation() {
    check(
        "wall_ablation",
        include_str!("figures/wall_ablation.txt"),
        figures::wall_ablation::run,
    );
}

#[test]
fn graceful_ablation() {
    check(
        "graceful_ablation",
        include_str!("figures/graceful_ablation.txt"),
        figures::graceful_ablation::run,
    );
}

#[test]
fn lb_ablation() {
    check(
        "lb_ablation",
        include_str!("figures/lb_ablation.txt"),
        figures::lb_ablation::run,
    );
}

#[test]
fn best_effort_ablation() {
    check(
        "best_effort_ablation",
        include_str!("figures/best_effort_ablation.txt"),
        figures::best_effort_ablation::run,
    );
}

#[test]
fn coordinator_ablation() {
    check(
        "coordinator_ablation",
        include_str!("figures/coordinator_ablation.txt"),
        figures::coordinator_ablation::run,
    );
}

#[test]
fn a_mismatch_names_the_file_the_line_and_both_lines() {
    assert_eq!(mismatch("f.txt", "a\nb\n", "a\nb\n"), None);
    for (expected, actual, report) in [
        (
            "x\n7.9 %\ny\n",
            "x\n7.8 %\ny\n",
            "f.txt differs from line 2:\n- 7.9 %\n+ 7.8 %",
        ),
        ("a\n", "a\nb\n", "f.txt differs from line 2:\n- \n+ b"),
        ("a\nb", "a", "f.txt differs from line 2:\n- b\n+ <none>"),
    ] {
        assert_eq!(mismatch("f.txt", expected, actual).as_deref(), Some(report));
    }
}
