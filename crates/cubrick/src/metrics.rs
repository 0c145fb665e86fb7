//! Load-balancing metric generations (§IV-F).
//!
//! What a Cubrick server reports to Shard Manager changed three times as
//! the storage engine evolved:
//!
//! * **Gen 1** — shard size = actual memory footprint; host capacity =
//!   90 % of physical memory. Broke when adaptive compression made
//!   footprints depend on the *host's* pressure, not the shard.
//! * **Gen 2** — shard size = *decompressed* size (deterministic, moves
//!   with the shard); capacity = memory × observed fleet compression
//!   ratio.
//! * **Gen 3** — SSD era: shard size = SSD footprint, capacity = SSD
//!   bytes. (The paper leaves a working-set secondary metric as an open
//!   problem; nothing here reports one.)

use crate::store::PartitionData;

/// Which generation of metrics a node exports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricGeneration {
    Gen1MemoryFootprint,
    Gen2DecompressedSize,
    Gen3SsdFootprint,
}

/// Inputs for computing a host's reported capacity.
#[derive(Debug, Clone, Copy)]
pub struct CapacityInputs {
    pub physical_memory_bytes: u64,
    /// Average compression ratio observed in production (gen 2 scaling).
    pub observed_compression_ratio: f64,
    pub ssd_capacity_bytes: u64,
}

/// Fraction of physical memory reserved for kernel and basic services
/// ("90 % of the available memory", §IV-F1).
pub const MEMORY_HEADROOM: f64 = 0.9;

impl MetricGeneration {
    /// The per-shard size reported to SM, over the shard's partitions.
    /// No generation walks anything: every footprint is a total its
    /// partition maintains (DESIGN.md "Maintenance pass contract"), so
    /// the metric poll costs a few reads per partition of every host.
    pub fn shard_size<'a>(self, partitions: impl Iterator<Item = &'a PartitionData>) -> f64 {
        match self {
            MetricGeneration::Gen1MemoryFootprint => {
                partitions.map(PartitionData::memory_footprint).sum::<u64>() as f64
            }
            MetricGeneration::Gen2DecompressedSize => partitions
                .map(PartitionData::decompressed_bytes)
                .sum::<u64>() as f64,
            MetricGeneration::Gen3SsdFootprint => {
                // Data not yet evicted still counts at its compressed-on-
                // disk-equivalent size; use SSD bytes when present,
                // otherwise fall back to decompressed (pre-eviction).
                let (ssd, decompressed) = partitions.fold((0u64, 0u64), |(s, d), p| {
                    (s + p.ssd_bytes(), d + p.decompressed_bytes())
                });
                if ssd > 0 {
                    ssd as f64
                } else {
                    decompressed as f64
                }
            }
        }
    }

    /// The host capacity reported to SM.
    pub fn host_capacity(self, inputs: &CapacityInputs) -> f64 {
        match self {
            MetricGeneration::Gen1MemoryFootprint => {
                inputs.physical_memory_bytes as f64 * MEMORY_HEADROOM
            }
            MetricGeneration::Gen2DecompressedSize => {
                inputs.physical_memory_bytes as f64
                    * MEMORY_HEADROOM
                    * inputs.observed_compression_ratio.max(1.0)
            }
            MetricGeneration::Gen3SsdFootprint => inputs.ssd_capacity_bytes as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::Arc;

    use crate::hotness::MemoryMonitorConfig;
    use crate::schema::SchemaBuilder;
    use crate::value::{Row, Value};

    /// Two partitions of 40 rows each; 4-byte dim + 8-byte metric.
    fn partitions() -> Vec<PartitionData> {
        let schema = Arc::new(
            SchemaBuilder::new()
                .int_dim("k", 0, 100, 10)
                .metric("m")
                .build()
                .unwrap(),
        );
        (0..2)
            .map(|_| {
                let mut p = PartitionData::new(schema.clone());
                for k in 0..40 {
                    p.ingest(&Row::new(vec![Value::Int(k)], vec![1.0])).unwrap();
                }
                p
            })
            .collect()
    }

    fn squeeze(p: &mut PartitionData) {
        p.run_memory_monitor(&MemoryMonitorConfig {
            budget_bytes: 0,
            ..Default::default()
        });
    }

    #[test]
    fn gen1_reports_footprint() {
        let parts = partitions();
        let footprint: u64 = parts.iter().map(|p| p.memory_footprint()).sum();
        assert_eq!(
            MetricGeneration::Gen1MemoryFootprint.shard_size(parts.iter()),
            footprint as f64
        );
    }

    #[test]
    fn gen2_reports_decompressed_size() {
        let mut parts = partitions();
        let gen2 = MetricGeneration::Gen2DecompressedSize;
        assert_eq!(gen2.shard_size(parts.iter()), 2.0 * 40.0 * 12.0);
        // Invariant: compression state changes footprint but not gen-2 size.
        let hot = MetricGeneration::Gen1MemoryFootprint.shard_size(parts.iter());
        parts.iter_mut().for_each(squeeze);
        assert!(MetricGeneration::Gen1MemoryFootprint.shard_size(parts.iter()) < hot);
        assert_eq!(gen2.shard_size(parts.iter()), 2.0 * 40.0 * 12.0);
    }

    #[test]
    fn gen3_prefers_ssd_bytes() {
        let mut parts = partitions();
        let gen3 = MetricGeneration::Gen3SsdFootprint;
        // Pre-eviction: nothing on SSD, fall back to decompressed.
        assert_eq!(gen3.shard_size(parts.iter()), 2.0 * 40.0 * 12.0);
        squeeze(&mut parts[0]);
        parts[0].evict_coldest(u64::MAX);
        let ssd = parts[0].ssd_bytes();
        assert!(ssd > 0);
        assert_eq!(gen3.shard_size(parts.iter()), ssd as f64);
    }

    #[test]
    fn capacities() {
        let c = CapacityInputs {
            physical_memory_bytes: 1_000,
            observed_compression_ratio: 3.0,
            ssd_capacity_bytes: 10_000,
        };
        assert_eq!(
            MetricGeneration::Gen1MemoryFootprint.host_capacity(&c),
            900.0
        );
        assert_eq!(
            MetricGeneration::Gen2DecompressedSize.host_capacity(&c),
            2_700.0
        );
        assert_eq!(
            MetricGeneration::Gen3SsdFootprint.host_capacity(&c),
            10_000.0
        );
        // Ratios below 1 never shrink capacity under gen 2.
        let c2 = CapacityInputs {
            observed_compression_ratio: 0.5,
            ..c
        };
        assert_eq!(
            MetricGeneration::Gen2DecompressedSize.host_capacity(&c2),
            900.0
        );
    }
}
