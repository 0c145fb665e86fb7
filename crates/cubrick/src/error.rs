//! Cubrick error surface.

use std::fmt;

/// Result alias for Cubrick operations.
pub type CubrickResult<T> = Result<T, CubrickError>;

/// Errors raised by the Cubrick engine and its distributed layers.
#[derive(Debug, Clone, PartialEq)]
pub enum CubrickError {
    /// Unknown table.
    NoSuchTable { table: String },
    /// Table already exists.
    TableExists { table: String },
    /// Unknown column in a row or query.
    NoSuchColumn { table: String, column: String },
    /// A row's shape does not match the schema.
    RowShape { table: String, detail: String },
    /// A value is outside its dimension's configured range.
    ValueOutOfRange { dimension: String, detail: String },
    /// Value of the wrong type for a column.
    TypeMismatch {
        column: String,
        expected: &'static str,
    },
    /// Query text failed to parse.
    Parse { detail: String, position: usize },
    /// Query references something invalid (semantic error).
    InvalidQuery { detail: String },
    /// The node does not own the shard for a requested partition.
    ShardNotOwned { table: String, partition: u32 },
    /// The shard's data is still being copied/recovered.
    ShardLoading { table: String, partition: u32 },
    /// Admission control rejected the query.
    AdmissionRejected { detail: String },
    /// No healthy region could serve the query.
    NoAvailableRegion,
    /// A table partition is unavailable in the chosen region.
    PartitionUnavailable { table: String, partition: u32 },
    /// The resolved host for a partition is blacklisted at the proxy —
    /// the sub-query was never sent (distinguished from
    /// `PartitionUnavailable` so the proxy can detect a fully-
    /// blacklisted replica set instead of spinning retries).
    HostBlacklisted { table: String, partition: u32 },
    /// Every region's replica for a partition is blacklisted: retrying
    /// cannot help; degraded mode turns this into a partial result.
    AllReplicasUnavailable { table: String, partition: u32 },
    /// A sub-query exceeded its per-shard deadline (degraded-mode
    /// serving treats the shard as missing instead of waiting).
    ShardTimeout { table: String, partition: u32 },
    /// An inter-region network partition makes the chosen region
    /// unreachable from the client's region.
    RegionUnreachable { from: u32, to: u32 },
    /// Internal invariant broken.
    Internal { detail: String },
}

impl fmt::Display for CubrickError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use CubrickError::*;
        match self {
            NoSuchTable { table } => write!(f, "no such table {table:?}"),
            TableExists { table } => write!(f, "table {table:?} already exists"),
            NoSuchColumn { table, column } => write!(f, "no column {column:?} in {table:?}"),
            RowShape { table, detail } => write!(f, "bad row for {table:?}: {detail}"),
            ValueOutOfRange { dimension, detail } => {
                write!(
                    f,
                    "value out of range for dimension {dimension:?}: {detail}"
                )
            }
            TypeMismatch { column, expected } => {
                write!(f, "column {column:?} expects {expected}")
            }
            Parse { detail, position } => write!(f, "parse error at {position}: {detail}"),
            InvalidQuery { detail } => write!(f, "invalid query: {detail}"),
            ShardNotOwned { table, partition } => {
                write!(f, "this node does not own {table}#{partition}")
            }
            ShardLoading { table, partition } => {
                write!(f, "{table}#{partition} is still loading")
            }
            AdmissionRejected { detail } => write!(f, "admission control: {detail}"),
            NoAvailableRegion => write!(f, "no available region"),
            PartitionUnavailable { table, partition } => {
                write!(f, "{table}#{partition} unavailable in region")
            }
            HostBlacklisted { table, partition } => {
                write!(f, "host serving {table}#{partition} is blacklisted")
            }
            AllReplicasUnavailable { table, partition } => {
                write!(
                    f,
                    "every replica of {table}#{partition} is blacklisted or down"
                )
            }
            ShardTimeout { table, partition } => {
                write!(f, "{table}#{partition} sub-query exceeded its deadline")
            }
            RegionUnreachable { from, to } => {
                write!(
                    f,
                    "region {to} unreachable from region {from} (network partition)"
                )
            }
            Internal { detail } => write!(f, "internal error: {detail}"),
        }
    }
}

impl std::error::Error for CubrickError {}

impl CubrickError {
    /// Whether the Cubrick proxy should transparently retry the query in a
    /// different region (§IV-D lists hardware failures and corrupted
    /// partitions as retryable).
    pub fn proxy_retryable(&self) -> bool {
        matches!(
            self,
            CubrickError::ShardNotOwned { .. }
                | CubrickError::ShardLoading { .. }
                | CubrickError::PartitionUnavailable { .. }
                | CubrickError::HostBlacklisted { .. }
                | CubrickError::ShardTimeout { .. }
                | CubrickError::RegionUnreachable { .. }
                | CubrickError::Internal { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retryability_classification() {
        assert!(CubrickError::PartitionUnavailable {
            table: "t".into(),
            partition: 0
        }
        .proxy_retryable());
        assert!(CubrickError::ShardLoading {
            table: "t".into(),
            partition: 1
        }
        .proxy_retryable());
        assert!(CubrickError::RegionUnreachable { from: 0, to: 2 }.proxy_retryable());
        assert!(!CubrickError::Parse {
            detail: "x".into(),
            position: 0
        }
        .proxy_retryable());
        assert!(!CubrickError::NoSuchTable { table: "t".into() }.proxy_retryable());
    }

    #[test]
    fn display() {
        let e = CubrickError::NoSuchColumn {
            table: "t".into(),
            column: "c".into(),
        };
        assert!(e.to_string().contains("\"c\""));
    }
}
