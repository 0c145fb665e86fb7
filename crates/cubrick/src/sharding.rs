//! Table-partition → SM-shard mapping (§IV-A).
//!
//! "SM provides a flat key space for shards — from `[0..maxShards)`" and
//! Cubrick must map partition names like `dim_users#3` into it. The naive
//! `hash(tbl#p) % maxShards` risks **same-table partition collisions**
//! (two partitions of one table on one shard ⇒ that server always does
//! double work). Cubrick's production mapping hashes only partition zero
//! and monotonically increments: `(hash(tbl#0) + p) % maxShards`, which
//! provably avoids same-table collisions while tables have at most
//! `maxShards` partitions.
//!
//! This module implements both mappings plus the collision taxonomy the
//! paper quantifies in Fig 4a.

use std::collections::BTreeMap;

use scalewall_sim::hash::{self, mix64};

/// The reserved separator between table name and partition index. "`#` is
/// a special character and thus not allowed as part of table names."
pub const PARTITION_SEP: char = '#';

/// FNV-1a — a stable, portable string hash (we cannot use
/// `DefaultHasher`: its output may change across Rust releases, which
/// would silently remap every production shard on an upgrade).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    hash::fnv1a(hash::FNV_OFFSET, bytes)
}

/// The stable string hash used by the shard mapping: FNV-1a with a
/// final avalanche mix. Raw FNV-1a is *too* structured on strings that
/// differ only in a short numeric suffix: the low bits of
/// `fnv1a("tbl#1")` and `fnv1a("tbl#2")` differ by a small multiple of the
/// FNV prime, so taking it modulo a shard-space size almost never
/// self-collides — unrealistically better than the production hash the
/// paper models. The finalizer restores ideal-hash (birthday) collision
/// behaviour.
pub fn stable_hash(bytes: &[u8]) -> u64 {
    mix64(fnv1a(bytes))
}

/// Render the internal partition name, e.g. `dim_users#2`.
pub fn partition_name(table: &str, partition: u32) -> String {
    format!("{table}{PARTITION_SEP}{partition}")
}

/// `stable_hash(partition_name(table, partition))` without building the
/// name: table, separator and the decimal digits (from a stack buffer)
/// go through one FNV-1a pass.
fn partition_hash(table: &str, partition: u32) -> u64 {
    let mut digits = [0u8; 10]; // u32::MAX has ten
    let mut start = digits.len();
    let mut rest = partition;
    loop {
        start -= 1;
        digits[start] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    let mut sep = [0u8; 4];
    let sep = PARTITION_SEP.encode_utf8(&mut sep).as_bytes();
    let name = hash::fnv1a(fnv1a(table.as_bytes()), sep);
    mix64(hash::fnv1a(name, &digits[start..]))
}

/// Which shard-mapping function a table uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardMapping {
    /// `hash(tbl#p) % maxShards` — susceptible to same-table collisions.
    Naive,
    /// `(hash(tbl#0) + p) % maxShards` — collision-free within a table
    /// as long as `partitions ≤ maxShards` (Cubrick's production choice).
    Monotonic,
}

impl ShardMapping {
    /// Shard id for `table#partition` in a `max_shards`-sized key space.
    pub fn shard_of(self, table: &str, partition: u32, max_shards: u64) -> u64 {
        assert!(max_shards > 0, "empty shard space");
        match self {
            ShardMapping::Naive => partition_hash(table, partition) % max_shards,
            ShardMapping::Monotonic => {
                // `base + partition` without overflowing at key spaces
                // near `u64::MAX`.
                let base = partition_hash(table, 0) % max_shards;
                let step = partition as u64 % max_shards;
                let room = max_shards - base;
                if step >= room {
                    step - room
                } else {
                    base + step
                }
            }
        }
    }

    /// All shards of a table with `partitions` partitions.
    pub fn shards_of_table(self, table: &str, partitions: u32, max_shards: u64) -> Vec<u64> {
        (0..partitions)
            .map(|p| self.shard_of(table, p, max_shards))
            .collect()
    }
}

/// Collision census over a deployment (Fig 4a).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollisionStats {
    pub tables: usize,
    /// Tables with ≥2 of their *own* partitions mapped to one shard.
    pub same_table_partition_collisions: usize,
    /// Tables sharing at least one shard with a *different* table.
    pub cross_table_partition_collisions: usize,
    /// Tables with two different shards (holding their partitions)
    /// assigned to the same host by SM.
    pub shard_collisions: usize,
}

/// Compute the collision census.
///
/// * `tables` — `(name, partition_count)`.
/// * `mapping` — the shard-mapping function in use.
/// * `max_shards` — shard key space size.
/// * `host_of_shard` — SM's current shard→host assignment (`None` entries
///   are skipped for host-level collision counting).
pub fn collision_census(
    tables: &[(String, u32)],
    mapping: ShardMapping,
    max_shards: u64,
    host_of_shard: &dyn Fn(u64) -> Option<u64>,
) -> CollisionStats {
    let mut stats = CollisionStats {
        tables: tables.len(),
        ..Default::default()
    };
    // shard → set of tables using it (for cross-table detection).
    let mut shard_tables: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    let mut per_table_shards: Vec<Vec<u64>> = Vec::with_capacity(tables.len());
    for (ti, (name, partitions)) in tables.iter().enumerate() {
        let shards = mapping.shards_of_table(name, *partitions, max_shards);
        for &s in &shards {
            shard_tables.entry(s).or_default().push(ti);
        }
        per_table_shards.push(shards);
    }

    for (ti, shards) in per_table_shards.iter().enumerate() {
        // Same-table: duplicate shard ids within one table.
        let mut sorted = shards.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() < shards.len() {
            stats.same_table_partition_collisions += 1;
        }
        // Cross-table: any of this table's shards also hosts another table.
        if sorted
            .iter()
            .any(|s| shard_tables[s].iter().any(|&other| other != ti))
        {
            stats.cross_table_partition_collisions += 1;
        }
        // Shard collision: two *distinct* shards of this table on one host.
        let mut hosts: Vec<u64> = sorted.iter().filter_map(|&s| host_of_shard(s)).collect();
        let distinct_shards_with_host = hosts.len();
        hosts.sort_unstable();
        hosts.dedup();
        if hosts.len() < distinct_shards_with_host {
            stats.shard_collisions += 1;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable_and_spreads() {
        // Pinned values: changing the hash silently remaps shards.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        let a = fnv1a(b"dim_users#0");
        let b = fnv1a(b"dim_users#1");
        assert_ne!(a, b);
        // The avalanche-mixed hash is pinned too (shard stability).
        assert_eq!(stable_hash(b""), mix64(0xcbf2_9ce4_8422_2325));
        assert_ne!(stable_hash(b"dim_users#0"), stable_hash(b"dim_users#1"));
    }

    #[test]
    fn partition_name_joins_table_and_index() {
        assert_eq!(partition_name("t", 3), "t#3");
        assert_eq!(partition_name("a#b", 12), "a#b#12");
    }

    #[test]
    fn monotonic_mapping_is_consecutive() {
        let shards = ShardMapping::Monotonic.shards_of_table("test_table", 4, 100_000);
        for w in shards.windows(2) {
            assert_eq!(w[1], (w[0] + 1) % 100_000);
        }
    }

    #[test]
    fn monotonic_wraps_at_key_space_edge() {
        // Pick a table whose base lands near the end of a tiny space.
        let max = 10u64;
        let base = ShardMapping::Monotonic.shard_of("t", 0, max);
        let last = ShardMapping::Monotonic.shard_of("t", 9, max);
        assert_eq!(last, (base + 9) % max);
        // All 10 partitions in a 10-shard space are distinct.
        let mut all = ShardMapping::Monotonic.shards_of_table("t", 10, max);
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 10);
    }

    #[test]
    fn monotonic_never_self_collides() {
        for t in 0..200 {
            let name = format!("tbl_{t}");
            let mut shards = ShardMapping::Monotonic.shards_of_table(&name, 64, 100_000);
            shards.sort_unstable();
            shards.dedup();
            assert_eq!(shards.len(), 64, "{name}");
        }
    }

    #[test]
    fn naive_mapping_self_collides_eventually() {
        // Birthday bound: some table with 64 partitions in a 10k space
        // should self-collide among 200 tables.
        let mut found = false;
        for t in 0..200 {
            let name = format!("tbl_{t}");
            let mut shards = ShardMapping::Naive.shards_of_table(&name, 64, 10_000);
            shards.sort_unstable();
            shards.dedup();
            if shards.len() < 64 {
                found = true;
                break;
            }
        }
        assert!(found, "naive mapping should exhibit same-table collisions");
    }

    #[test]
    fn census_counts_each_type() {
        // 2 tables of 4 partitions in a tiny 6-shard space: cross-table
        // collisions guaranteed; monotonic prevents same-table ones.
        let tables = vec![("a".to_string(), 4), ("b".to_string(), 4)];
        let stats = collision_census(&tables, ShardMapping::Monotonic, 6, &|_| None);
        assert_eq!(stats.tables, 2);
        assert_eq!(stats.same_table_partition_collisions, 0);
        assert!(stats.cross_table_partition_collisions > 0);
        assert_eq!(stats.shard_collisions, 0, "no host assignments given");
    }

    #[test]
    fn census_detects_shard_collisions() {
        let tables = vec![("a".to_string(), 4)];
        let shards = ShardMapping::Monotonic.shards_of_table("a", 4, 1_000);
        // Two of the table's shards land on host 7.
        let (s0, s1) = (shards[0], shards[1]);
        let host_of = move |s: u64| -> Option<u64> {
            if s == s0 || s == s1 {
                Some(7)
            } else if shards.contains(&s) {
                Some(s) // unique host per remaining shard
            } else {
                None
            }
        };
        let stats = collision_census(&tables, ShardMapping::Monotonic, 1_000, &host_of);
        assert_eq!(stats.shard_collisions, 1);
    }

    #[test]
    fn census_same_table_with_naive() {
        // Force a same-table collision with a 1-shard space.
        let tables = vec![("a".to_string(), 2)];
        let stats = collision_census(&tables, ShardMapping::Naive, 1, &|_| None);
        assert_eq!(stats.same_table_partition_collisions, 1);
    }
}
