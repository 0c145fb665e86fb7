//! **Figure 4b** — distribution of partitions per table: the vast
//! majority of tables sit at the default 8 partitions (they never hit the
//! re-partition threshold); the re-partitioned tail (~10 %) runs up to
//! ~60 partitions.
//!
//! Derived by replaying the dynamic re-partitioning policy (§IV-B)
//! against a log-normal tenant-size population.

use scalewall_cluster::report::{banner, bar, TextTable};
use scalewall_cluster::workload::{TablePopulation, WorkloadConfig};
use scalewall_sim::SimRng;

use crate::Profile;

/// The seed the figure is drawn at.
pub const SEED: u64 = 0xF164B;

pub fn compute(profile: Profile, seed: u64) -> Vec<(u32, usize)> {
    let tables = profile.pick(2_000, 20_000);
    let mut rng = SimRng::new(seed);
    let population = TablePopulation::generate(
        &WorkloadConfig {
            tables,
            ..Default::default()
        },
        &mut rng,
    );
    population.partitions_histogram()
}

pub fn run(profile: Profile) -> String {
    let hist = compute(profile, SEED);
    let total: usize = hist.iter().map(|&(_, c)| c).sum();
    let max_count = hist.iter().map(|&(_, c)| c).max().unwrap_or(1);
    let mut table = TextTable::new(vec!["partitions", "tables", "fraction", "histogram"]);
    for &(p, c) in &hist {
        table.row(vec![
            p.to_string(),
            c.to_string(),
            format!("{:.2}%", c as f64 / total as f64 * 100.0),
            bar(c as f64, max_count as f64, 40),
        ]);
    }
    let mut out = banner("Figure 4b", "distribution of partitions per table");
    out.push_str(&format!("{total} tables\n"));
    out.push_str(&table.render());
    out.push_str(
        "\npaper: \"the vast majority of tables ... are composed of 8 partitions\";\n\
         re-partitioned tables (~10%) tail out to a maximum of ~60.\n\
         (our policy doubles 8→16→32→64, so the tail tops out at 64.)\n",
    );
    out.push_str("\nCSV:\n");
    out.push_str(&table.to_csv());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn majority_at_default_with_tail() {
        let hist = compute(Profile::Fast, SEED);
        let total: usize = hist.iter().map(|&(_, c)| c).sum();
        let at_8 = hist
            .iter()
            .find(|&&(p, _)| p == 8)
            .map(|&(_, c)| c)
            .unwrap_or(0);
        assert!(
            at_8 as f64 / total as f64 > 0.75,
            "majority at 8: {at_8}/{total}"
        );
        let max = hist.iter().map(|&(p, _)| p).max().unwrap();
        assert!(max >= 32, "re-partitioned tail reaches ≥32, got {max}");
        assert!(max <= 128, "tail bounded, got {max}");
    }
}
