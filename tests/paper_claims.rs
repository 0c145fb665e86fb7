//! The paper's claims as the figures reproduce them, stated over several
//! seeds rather than the one each figure is drawn at: a change that moves
//! a figure's bytes keeps its claim on every seed here.

use scalewall_bench::figures::{fig2b, fig4b};
use scalewall_bench::Profile;

/// Fig 2b: under every correlated-fault scenario, retried success stays
/// at or above the analytic floor `1 - disrupted time fraction`, and no
/// failover or migration puts two partitions of one table on one host
/// (§IV-A).
fn fig2b_success_holds_the_floor(seed: u64) {
    for p in fig2b::compute_scenarios(Profile::Fast, seed) {
        let case = format!("seed {seed:#x}, {} level {}", p.scenario, p.level);
        let success = p.stats.success_ratio();
        assert!(success >= p.floor, "{case}: success {success:.4} below floor {:.4}", p.floor);
        assert_eq!(p.stats.same_table_collisions, 0, "{case}");
    }
}

#[test]
fn fig2b_success_holds_the_floor_at_the_figure_seed() {
    fig2b_success_holds_the_floor(fig2b::SEED);
}

#[test]
fn fig2b_success_holds_the_floor_at_seeds_1_to_5() {
    for seed in 1..=5 {
        fig2b_success_holds_the_floor(seed);
    }
}

/// Fig 4b: at least 95 % of tables sit at the default 8 partitions, and
/// the re-partitioning policy splits at least one table.
fn fig4b_majority_at_eight_with_a_split(seed: u64) {
    let hist = fig4b::compute(Profile::Fast, seed);
    let total: usize = hist.iter().map(|&(_, c)| c).sum();
    let at_8 = hist.iter().find(|&&(p, _)| p == 8).map_or(0, |&(_, c)| c);
    let case = format!("seed {seed:#x}: {at_8}/{total} at 8, {hist:?}");
    assert!(at_8 as f64 >= 0.95 * total as f64, "{case}");
    assert!(hist.iter().any(|&(p, c)| p > 8 && c > 0), "{case}");
}

#[test]
fn fig4b_majority_at_eight_at_the_figure_seed() {
    fig4b_majority_at_eight_with_a_split(fig4b::SEED);
}

#[test]
fn fig4b_majority_at_eight_at_seeds_1_to_5() {
    for seed in 1..=5 {
        fig4b_majority_at_eight_with_a_split(seed);
    }
}
