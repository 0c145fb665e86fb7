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

macro_rules! figures {
    ($($module:ident)*) => {$(
        #[test]
        fn $module() {
            let golden = include_str!(concat!("figures/", stringify!($module), ".txt"));
            let file = concat!("tests/figures/", stringify!($module), ".txt");
            if let Some(diff) = mismatch(file, golden, &figures::$module::run(Profile::Fast)) {
                panic!("{diff}\n(a deliberate re-pin: scripts/figures_match.sh, then commit the diff)");
            }
        }
    )*};
}

figures! {
    fig1 fig2 fig2b tbl_mapping fig4a fig4b fig4c fig4d fig4e fig4f fig5 fig_qos_sla
    wall_ablation graceful_ablation lb_ablation best_effort_ablation coordinator_ablation
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
