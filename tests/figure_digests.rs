//! Every figure's fast-profile report, byte for byte: its length and
//! FNV-1a digest against one line of `tests/figure_digests.txt`
//! (`name bytes digest`). A change that moves a report's bytes fails here
//! and prints the report's new line; a deliberate re-pin replaces exactly
//! the lines it moves. One test per figure module, so the harness spreads
//! them over the cores. The lines named with a `:` (`all_figures:fast`,
//! `<bin>:full`, `example:<name>`) are release-build outputs that
//! `scripts/figures_match.sh` checks against the same file.

use scalewall_bench::figures;
use scalewall_bench::Profile;
use scalewall_sim::hash::{fnv1a, FNV_OFFSET};

const MANIFEST: &str = include_str!("figure_digests.txt");

fn check(name: &str, run: fn(Profile) -> String) {
    let report = run(Profile::Fast);
    let digest = fnv1a(FNV_OFFSET, report.as_bytes());
    let line = format!("{name} {} {digest:#018x}", report.len());
    let pinned = MANIFEST.lines().find(|l| l.split_whitespace().next() == Some(name));
    assert_eq!(pinned, Some(line.as_str()), "{name} moved; its line is now:\n{line}");
}

macro_rules! figures {
    ($($module:ident)*) => {$(
        #[test]
        fn $module() {
            check(stringify!($module), figures::$module::run);
        }
    )*};
}

figures! {
    fig1 fig2 fig2b tbl_mapping fig4a fig4b fig4c fig4d fig4e fig4f fig5 fig_qos_sla
    wall_ablation graceful_ablation lb_ablation best_effort_ablation coordinator_ablation
}
