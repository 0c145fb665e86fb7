//! **Figure 4a** — frequency of the collision types in a deployment:
//! ≈7 % of tables have a *shard collision* (two of their shards on one
//! host), ≈3 % have a *partition collision* with a different table (two
//! tables' partitions mapped to one shard), and **zero** have same-table
//! partition collisions — prevented by the monotonic mapping.
//!
//! Setup: a tenant population with Fig 4b's partition-count distribution
//! is created through the real pipeline — catalog → shard mapping → SM
//! allocation (with placement jitter approximating the randomization that
//! load-balancing churn produces in a long-lived fleet) — and the census
//! runs over SM's resulting assignments.

use cubrick::sharding::{collision_census, ShardMapping};
use scalewall_cluster::report::{banner, TextTable};
use scalewall_cluster::workload::{TablePopulation, WorkloadConfig};
use scalewall_shard_manager::app_server::{AppServer, AppServerRegistry, MockAppServer};
use scalewall_shard_manager::{
    AppSpec, HostId, HostInfo, Rack, Region, ShardId, SmConfig, SmServer,
};
use scalewall_sim::{SimRng, SimTime};
use std::collections::HashMap;

use crate::Profile;

pub const MAX_SHARDS: u64 = 1_000_000;

struct Registry(HashMap<HostId, MockAppServer>);

impl AppServerRegistry for Registry {
    fn server(&mut self, host: HostId) -> Option<&mut dyn AppServer> {
        self.0.get_mut(&host).map(|s| s as &mut dyn AppServer)
    }
}

/// The census result alongside its setup parameters.
pub struct Fig4aResult {
    pub tables: usize,
    pub hosts: usize,
    pub stats: cubrick::sharding::CollisionStats,
}

pub fn compute(profile: Profile) -> Fig4aResult {
    // Scale of one Cubrick *service*: ~2k tenant tables over a 1M-shard
    // space on ~400 hosts — the occupancy regime where the paper's ~3%
    // cross-table and ~7% shard collision rates arise. (Cross-table
    // collisions under the monotonic mapping are *interval* overlaps:
    // P ≈ tables × 2·partitions / maxShards; shard collisions are
    // birthday: P ≈ partitions² / 2·hosts.)
    let tables = profile.pick(600, 2_000);
    let hosts = profile.pick(150, 420);
    let mut rng = SimRng::new(0xF164A);

    // Tenant population with the Fig 4b partition distribution.
    let population = TablePopulation::generate(
        &WorkloadConfig {
            tables,
            ..Default::default()
        },
        &mut rng,
    );
    let named: Vec<(String, u32)> = population
        .tables
        .iter()
        .map(|t| (t.name.clone(), t.partitions))
        .collect();

    // One region's SM with jittered placement (steady-state model).
    let config = SmConfig {
        placement_jitter: hosts,
        seed: 0x4A11,
        ..Default::default()
    };
    let mut sm = SmServer::new(config, AppSpec::primary_only("cubrick", MAX_SHARDS));
    let mut registry = Registry(HashMap::new());
    for i in 0..hosts as u64 {
        sm.register_host(
            HostInfo::new(HostId(i), Rack((i % 40) as u32), Region(0), 1e12),
            SimTime::ZERO,
        )
        .expect("fresh host");
        registry
            .0
            .insert(HostId(i), MockAppServer::with_capacity(1e12));
    }

    // Allocate every table's shards; shards shared between tables are
    // allocated once (the cross-table partition collision case).
    for (name, partitions) in &named {
        for &shard in &ShardMapping::Monotonic.shards_of_table(name, *partitions, MAX_SHARDS) {
            match sm.allocate_shard(ShardId(shard), 1.0, None, SimTime::ZERO, &mut registry) {
                Ok(_) | Err(scalewall_shard_manager::SmError::AlreadyAssigned { .. }) => {}
                Err(e) => panic!("allocation failed: {e}"),
            }
        }
    }

    let stats = collision_census(&named, ShardMapping::Monotonic, MAX_SHARDS, &|s| {
        sm.host_of(ShardId(s)).map(|h| h.0)
    });
    Fig4aResult {
        tables,
        hosts,
        stats,
    }
}

pub fn run(profile: Profile) -> String {
    let result = compute(profile);
    let stats = result.stats;
    let pct = |n: usize| format!("{:.1}%", n as f64 / stats.tables as f64 * 100.0);
    let mut table = TextTable::new(vec!["collision type", "tables affected", "fraction"]);
    table.row(vec![
        "shard collision (2 shards of a table on 1 host)".to_string(),
        stats.shard_collisions.to_string(),
        pct(stats.shard_collisions),
    ]);
    table.row(vec![
        "partition collision, different tables".to_string(),
        stats.cross_table_partition_collisions.to_string(),
        pct(stats.cross_table_partition_collisions),
    ]);
    table.row(vec![
        "partition collision, same table".to_string(),
        stats.same_table_partition_collisions.to_string(),
        pct(stats.same_table_partition_collisions),
    ]);
    let mut out = banner("Figure 4a", "frequency of shard/partition collision types");
    out.push_str(&format!(
        "{} tables, {} hosts, {}-shard key space\n",
        result.tables, result.hosts, MAX_SHARDS
    ));
    out.push_str(&table.render());
    out.push_str(
        "\npaper: ~7% shard collisions, ~3% cross-table partition collisions,\n\
         0% same-table (prevented by design).\n",
    );
    out.push_str("\nCSV:\n");
    out.push_str(&table.to_csv());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collision_shape_matches_paper() {
        let result = compute(Profile::Fast);
        let stats = result.stats;
        assert_eq!(
            stats.same_table_partition_collisions, 0,
            "monotonic mapping prevents same-table collisions by design"
        );
        let shard_rate = stats.shard_collisions as f64 / stats.tables as f64;
        // Birthday with ~8 shards over 150 hosts: k(k-1)/2H ≈ 19% at the
        // fast scale (the full profile's 420 hosts lands near the paper's
        // 7%). Assert the order of magnitude.
        assert!(
            shard_rate > 0.02 && shard_rate < 0.5,
            "shard rate {shard_rate}"
        );
        let cross_rate = stats.cross_table_partition_collisions as f64 / stats.tables as f64;
        assert!(
            cross_rate < 0.25,
            "cross-table rate {cross_rate} (paper: ~3%)"
        );
    }
}
