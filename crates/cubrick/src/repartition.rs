//! Dynamic table re-partitioning (§IV-B).
//!
//! Tables start at 8 partitions; when a single partition exceeds the size
//! threshold, a re-partition doubles the partition count and reshuffles
//! the data ("computationally expensive operations that require data
//! shuffling of part of the table, so its usage must be sporadic").
//! Partition counts can also collapse when data shrinks.

use crate::catalog::TableDef;
use crate::error::CubrickResult;
use crate::node::RegionStore;
use crate::store::PartitionData;
use crate::value::Row;

/// Policy for when and how to re-partition.
#[derive(Debug, Clone, Copy)]
pub struct RepartitionPolicy {
    /// A re-partition triggers when any single partition exceeds this many
    /// (decompressed) bytes.
    pub partition_size_threshold: u64,
    /// Partitions halve when the whole table would fit in half the
    /// partitions at under this fraction of the threshold each.
    pub collapse_fraction: f64,
    /// Hard cap on partitions per table.
    pub max_partitions: u32,
}

impl Default for RepartitionPolicy {
    fn default() -> Self {
        RepartitionPolicy {
            // 1 TB cap / ~60 max observed partitions ⇒ ~16 GiB per
            // partition in production; kept configurable for experiments.
            partition_size_threshold: 16 << 30,
            collapse_fraction: 0.25,
            max_partitions: 1 << 14,
        }
    }
}

/// What a policy evaluation decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepartitionDecision {
    /// Leave the table alone.
    None,
    /// Grow to this many partitions.
    Grow(u32),
    /// Shrink to this many partitions.
    Shrink(u32),
}

/// Evaluate the policy for a table given its per-partition decompressed
/// sizes.
pub fn evaluate(
    policy: &RepartitionPolicy,
    current_partitions: u32,
    partition_bytes: &[u64],
) -> RepartitionDecision {
    let max = partition_bytes.iter().copied().max().unwrap_or(0);
    let total: u64 = partition_bytes.iter().sum();
    if max > policy.partition_size_threshold && current_partitions < policy.max_partitions {
        return RepartitionDecision::Grow((current_partitions * 2).min(policy.max_partitions));
    }
    if current_partitions > crate::catalog::DEFAULT_PARTITIONS {
        let half = current_partitions / 2;
        let projected_per_partition = total as f64 / half as f64;
        if projected_per_partition
            < policy.partition_size_threshold as f64 * policy.collapse_fraction
        {
            return RepartitionDecision::Shrink(half.max(crate::catalog::DEFAULT_PARTITIONS));
        }
    }
    RepartitionDecision::None
}

/// Every row one region's copy of `def` stores, in partition then
/// stored order: what a re-partition routes.
pub fn stored_rows(store: &RegionStore, def: &TableDef) -> Vec<Row> {
    (0..def.partitions)
        .filter_map(|p| store.partition(&def.name, p))
        .flat_map(PartitionData::all_rows)
        .collect()
}

/// Move one region's copy of a table to `new`'s partition layout (the
/// "data shuffling" cost is real here): `routed[p]`, rows routed under
/// `new`, is ingested in order into a fresh partition `p`, and the fresh
/// partitions replace the old ones. The caller routes once and applies
/// the same split to every region, so all regions agree.
pub fn reshuffle(
    store: &mut RegionStore,
    new: &TableDef,
    routed: &[Vec<&Row>],
) -> CubrickResult<()> {
    let mut fresh: Vec<(u32, PartitionData)> = (0..new.partitions)
        .map(|p| (p, PartitionData::new(new.schema.clone())))
        .collect();
    for ((_, data), slice) in fresh.iter_mut().zip(routed) {
        data.ingest_batch(slice)?;
    }
    store.replace_table(&new.name, fresh);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Catalog, RowMapping, DEFAULT_PARTITIONS};
    use crate::schema::SchemaBuilder;
    use crate::sharding::ShardMapping;
    use crate::value::{Row, Value};
    use scalewall_sim::SimRng;
    use std::sync::Arc;

    fn schema() -> Arc<crate::schema::Schema> {
        Arc::new(
            SchemaBuilder::new()
                .int_dim("k", 0, 10_000, 100)
                .metric("m")
                .build()
                .unwrap(),
        )
    }

    /// Re-partition table `t` of one region as `Deployment::repartition`
    /// does: swap the metadata, route the stored rows under the new
    /// layout, reshuffle. Returns rows shuffled.
    fn regrow(
        catalog: &mut Catalog,
        store: &mut RegionStore,
        partitions: u32,
        rng: &mut SimRng,
    ) -> usize {
        let old = catalog.get("t").unwrap().clone();
        catalog.set_partitions("t", partitions).unwrap();
        let new = catalog.get("t").unwrap();
        let rows = stored_rows(store, &old);
        reshuffle(store, new, &new.route_rows(&rows, || rng.next_u64())).unwrap();
        rows.len()
    }

    fn policy(threshold: u64) -> RepartitionPolicy {
        RepartitionPolicy {
            partition_size_threshold: threshold,
            ..Default::default()
        }
    }

    #[test]
    fn evaluate_grow_shrink_none() {
        let p = policy(1_000);
        assert_eq!(evaluate(&p, 8, &[500, 600, 700]), RepartitionDecision::None);
        assert_eq!(
            evaluate(&p, 8, &[500, 1_500]),
            RepartitionDecision::Grow(16)
        );
        // 16 partitions, tiny data → shrink to 8.
        assert_eq!(evaluate(&p, 16, &[10; 16]), RepartitionDecision::Shrink(8));
        // Never shrinks below the default.
        assert_eq!(evaluate(&p, 8, &[1; 8]), RepartitionDecision::None);
        // Growth capped.
        let capped = RepartitionPolicy {
            max_partitions: 8,
            ..p
        };
        assert_eq!(evaluate(&capped, 8, &[2_000]), RepartitionDecision::None);
    }

    #[test]
    fn repartition_preserves_data() {
        let mut catalog = Catalog::new(100_000);
        let mut store = RegionStore::new();
        let def = catalog
            .create_table(
                "t",
                schema(),
                DEFAULT_PARTITIONS,
                RowMapping::Hash,
                ShardMapping::Monotonic,
            )
            .unwrap();
        let mut rng = SimRng::new(7);
        for k in 0..2_000i64 {
            let row = Row::new(vec![Value::Int(k)], vec![k as f64]);
            let p = def.partition_of_row(&row, rng.next_u64());
            store
                .ingest_batch(&def.name, p, &def.schema, &[&row])
                .unwrap();
        }

        assert_eq!(regrow(&mut catalog, &mut store, 16, &mut rng), 2_000);
        assert_eq!(catalog.get("t").unwrap().partitions, 16);

        // Every row is still present exactly once, and the metric sum is
        // preserved.
        let mut keys = Vec::new();
        let mut total = 0.0;
        for p in 0..16 {
            if let Some(data) = store.partition("t", p) {
                for row in data.all_rows() {
                    keys.push(row.dims[0].as_int().unwrap());
                    total += row.metrics[0];
                }
            }
        }
        keys.sort_unstable();
        assert_eq!(keys, (0..2_000).collect::<Vec<_>>());
        assert_eq!(total, (0..2_000).map(|k| k as f64).sum::<f64>());

        // Hash mapping redistributes: every new partition holds something.
        let non_empty = (0..16)
            .filter(|&p| store.partition("t", p).is_some())
            .count();
        assert!(non_empty >= 12, "{non_empty}/16 partitions populated");
    }

    #[test]
    fn shrink_collapses_partitions() {
        let mut catalog = Catalog::new(100_000);
        let mut store = RegionStore::new();
        let def = catalog
            .create_table("t", schema(), 16, RowMapping::Hash, ShardMapping::Monotonic)
            .unwrap();
        let mut rng = SimRng::new(8);
        for k in 0..100i64 {
            let row = Row::new(vec![Value::Int(k)], vec![1.0]);
            let p = def.partition_of_row(&row, rng.next_u64());
            store
                .ingest_batch(&def.name, p, &def.schema, &[&row])
                .unwrap();
        }
        regrow(&mut catalog, &mut store, 8, &mut rng);
        assert_eq!(catalog.get("t").unwrap().partitions, 8);
        let total: usize = (0..8)
            .filter_map(|p| store.partition("t", p))
            .map(|d| d.rows() as usize)
            .sum();
        assert_eq!(total, 100);
        // Old partitions 8..16 are gone from the store.
        for p in 8..16 {
            assert!(store.partition("t", p).is_none());
        }
    }
}
