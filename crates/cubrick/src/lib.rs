//! **Cubrick** — an in-memory analytic DBMS optimized for low-latency
//! interactive OLAP, re-implemented from the descriptions in
//! *Breaching the Scalability Wall* (ICDE 2021) and the earlier Cubrick
//! paper it cites (Pedreira et al., VLDB 2016).
//!
//! The engine is real: rows are ingested into dictionary-encoded columnar
//! **bricks** addressed by **Granular Partitioning** (range partitioning
//! on every dimension), queries scan real columns with brick-level
//! pruning, and cold bricks are compressed with real codecs under memory
//! pressure. Only the *cluster environment* (network, failures) is
//! simulated — by the `scalewall-cluster` crate, not here.
//!
//! Layering, bottom-up:
//!
//! * [`value`], [`schema`] — logical types, dimensions/metrics, the
//!   per-dimension range configuration granular partitioning needs.
//! * [`dictionary`] — string-dimension dictionary encoding.
//! * [`brick`] — the columnar data block ("brick") and its coordinates.
//! * [`partition`] — granular-partitioning math: row → brick id,
//!   brick id ↔ per-dimension coordinates, predicate → brick pruning.
//! * [`encoding`], [`compression`] — column codecs (RLE, bit-packing,
//!   delta, XOR floats) and whole-brick compression.
//! * [`hotness`] — per-brick hot/cold counters with stochastic decay, and
//!   the adaptive-compression memory monitor (§IV-F2).
//! * [`store`] — a table partition's brick set: ingest, scan, footprints.
//! * [`catalog`] — cluster-wide table metadata (schema, partition count,
//!   shard index).
//! * [`sharding`] — the table-partition → SM-shard mapping function and
//!   its collision taxonomy (§IV-A).
//! * [`query`] — AST, text parser, single-partition execution, partial
//!   result merge.
//! * [`metrics`] — the three generations of load-balancing metrics
//!   exported to Shard Manager (§IV-F).
//! * [`node`] — the Cubrick server: owns shards, implements SM's
//!   `AppServer` endpoints (with the shard-collision veto), runs the
//!   memory monitor, answers partition queries.
//! * [`repartition`] — dynamic re-partitioning when partitions outgrow
//!   their size threshold (§IV-B).
//! * [`admission`] — multi-tenant QoS admission control: per-class
//!   weighted slot reservation, bounded deadline queues, shed-or-queue
//!   on overload (the LinkedIn OLAP-resilience serving layer).
//! * [`proxy`] — the stateless query proxy: region choice, retries,
//!   blacklisting, admission control, partition-count cache and
//!   coordinator randomization (§IV-C, §IV-D).
//! * [`coordinator`] — partial-result merging performed by the query
//!   coordinator node.

// Tests may unwrap, expect and panic; library code may not (DESIGN.md §5c).
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

pub mod admission;
pub mod brick;
pub mod catalog;
pub mod compression;
pub mod coordinator;
pub mod dictionary;
pub mod encoding;
pub mod error;
pub mod hotness;
pub mod metrics;
pub mod node;
pub mod partition;
pub mod proxy;
pub mod query;
pub mod repartition;
pub mod schema;
pub mod sharding;
pub mod store;
pub mod value;

pub use catalog::{Catalog, RowMapping, SharedCatalog, TableDef};
pub use error::{CubrickError, CubrickResult};
pub use node::{CubrickNode, NodeConfig, RegionStore, SharedRegionStore};
pub use schema::{Dimension, Metric, Schema};
pub use value::Value;
