//! Load-balancing metric generations (§IV-F).
//!
//! What a Cubrick server reports to Shard Manager changed as the storage
//! engine evolved:
//!
//! * **Gen 1** — shard size = actual memory footprint; host capacity =
//!   90 % of physical memory. Broke when adaptive compression made
//!   footprints depend on the *host's* pressure, not the shard.
//! * **Gen 2** — shard size = *decompressed* size (deterministic, moves
//!   with the shard); capacity = memory × observed fleet compression
//!   ratio.
//!
//! The paper's gen 3 (SSD footprint and capacity) is not reproduced.

use crate::store::PartitionData;

/// Which generation of metrics a node exports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricGeneration {
    Gen1MemoryFootprint,
    Gen2DecompressedSize,
}

/// Fleet-observed compression ratio (gen-2 capacity scaling).
const OBSERVED_COMPRESSION_RATIO: f64 = 3.0;

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
        }
    }

    /// The host capacity reported to SM for `memory_bytes` of physical
    /// memory.
    pub fn host_capacity(self, memory_bytes: u64) -> f64 {
        match self {
            MetricGeneration::Gen1MemoryFootprint => memory_bytes as f64 * MEMORY_HEADROOM,
            MetricGeneration::Gen2DecompressedSize => {
                memory_bytes as f64 * MEMORY_HEADROOM * OBSERVED_COMPRESSION_RATIO
            }
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
    fn capacities() {
        assert_eq!(
            MetricGeneration::Gen1MemoryFootprint.host_capacity(1_000),
            900.0
        );
        assert_eq!(
            MetricGeneration::Gen2DecompressedSize.host_capacity(1_000),
            2_700.0
        );
    }
}
