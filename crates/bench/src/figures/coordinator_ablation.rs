//! **Ablation: coordinator selection strategies (§IV-C)** — the four
//! strategies Cubrick shipped before settling on the cached-random
//! approach:
//!
//! 1. always partition 0 — no extra cost, but one host coordinates every
//!    query of the table (resource imbalance);
//! 2. forward from partition 0 — balanced, but an extra network hop on
//!    the data path;
//! 3. query the partition count first — balanced, but an extra metadata
//!    round trip before every query;
//! 4. cached partition count, random partition — balanced, extra cost
//!    only on cache misses (production).
//!
//! Measured: coordinator-load imbalance across the table's partitions
//! and the mean added latency per query, for each strategy.

use cubrick::proxy::{CoordinatorStrategy, CubrickProxy, ProxyConfig};
use scalewall_cluster::net::RTT_MS;
use scalewall_cluster::report::{banner, TextTable};
use scalewall_sim::SimRng;

use crate::Profile;

pub struct StrategyResult {
    pub strategy: CoordinatorStrategy,
    /// max/mean of per-partition coordinator counts (1.0 = perfect).
    pub coordinator_imbalance: f64,
    /// Mean added latency per query from the strategy's extra hops and
    /// round trips, in milliseconds.
    pub added_latency_ms: f64,
}

pub const STRATEGIES: [CoordinatorStrategy; 4] = [
    CoordinatorStrategy::AlwaysPartitionZero,
    CoordinatorStrategy::ForwardFromZero,
    CoordinatorStrategy::QueryThenRandom,
    CoordinatorStrategy::CachedRandom,
];

pub fn compute(profile: Profile) -> Vec<StrategyResult> {
    let queries = profile.pick(20_000u64, 200_000u64);
    let partitions = 8u32;

    STRATEGIES
        .iter()
        .map(|&strategy| {
            let mut proxy = CubrickProxy::new(ProxyConfig::default());
            let mut rng = SimRng::new(0xC003 ^ strategy as u64);
            let mut counts = vec![0u64; partitions as usize];
            let mut added_ms = 0.0;
            for i in 0..queries {
                let choice = proxy.choose_coordinator("t", strategy, partitions, &mut rng);
                counts[choice.partition as usize] += 1;
                if choice.extra_roundtrip {
                    added_ms += RTT_MS;
                }
                if choice.extra_hop {
                    added_ms += RTT_MS;
                }
                // The cached strategy learns the count from the first
                // result's metadata, like production.
                if i == 0 {
                    proxy.record_result_metadata("t", partitions);
                }
            }
            let mean = queries as f64 / partitions as f64;
            let max = counts.iter().copied().max().unwrap_or(0) as f64;
            StrategyResult {
                strategy,
                coordinator_imbalance: max / mean,
                added_latency_ms: added_ms / queries as f64,
            }
        })
        .collect()
}

pub fn run(profile: Profile) -> String {
    let results = compute(profile);
    let mut table = TextTable::new(vec![
        "strategy",
        "coordinator imbalance (max/mean)",
        "added latency/query (ms)",
    ]);
    for r in &results {
        table.row(vec![
            format!("{:?}", r.strategy),
            format!("{:.3}", r.coordinator_imbalance),
            format!("{:.4}", r.added_latency_ms),
        ]);
    }
    let mut out = banner(
        "Ablation: coordinator selection (§IV-C)",
        "the four strategies Cubrick iterated through",
    );
    out.push_str(&table.render());
    out.push_str(
        "\nreading: strategy 1 funnels every query through one partition's host\n\
         (8.0 = all load on 1 of 8); strategies 2 and 3 balance perfectly but\n\
         pay an extra hop / round trip on every query; strategy 4 (production)\n\
         balances and pays only on cold caches — effectively zero at steady\n\
         state.\n",
    );
    out.push_str("\nCSV:\n");
    out.push_str(&table.to_csv());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_trade_offs() {
        let results = compute(Profile::Fast);
        let [s1, s2, s3, s4] = &results[..] else {
            panic!("4 strategies")
        };
        // 1: all load on partition 0.
        assert!((s1.coordinator_imbalance - 8.0).abs() < 1e-9);
        assert_eq!(s1.added_latency_ms, 0.0);
        // 2 and 3: balanced but pay per query.
        for s in [s2, s3] {
            assert!(s.coordinator_imbalance < 1.1, "{}", s.coordinator_imbalance);
            assert!(s.added_latency_ms > 0.4, "{}", s.added_latency_ms);
        }
        // 4: balanced, pays only for the single cold miss.
        assert!(
            s4.coordinator_imbalance < 1.1,
            "{}",
            s4.coordinator_imbalance
        );
        assert!(s4.added_latency_ms < 0.001, "{}", s4.added_latency_ms);
    }
}
