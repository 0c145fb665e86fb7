//! The Cubrick server (one per host).
//!
//! A node owns a set of SM shards, answers partition-local queries over
//! the data those shards map to, runs the adaptive-compression memory
//! monitor, and implements Shard Manager's `AppServer` endpoints —
//! including the shard-collision veto of §IV-A: a migration that would
//! co-locate two shards holding partitions of the same table is rejected
//! with a non-retryable error.
//!
//! ## Data placement model
//!
//! Production Cubrick keeps three full copies of every table, one per
//! region (§IV-D). The reproduction mirrors that durability model
//! directly: each region has a [`RegionStore`] holding the authoritative
//! columnar data for every `(table, partition)`; nodes *own* shards (and
//! with them, partitions) and serve queries against the region store.
//! Migration and failover transfer ownership — with realistic copy time
//! simulated by SM — while the bytes' existence is guaranteed by the
//! three-region redundancy, exactly as in the paper's failover workflow
//! ("data and metadata are copied from a healthy server in a different
//! region"). This keeps the whole data path (ingest, scan, compress)
//! real without simulating byte shipment.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use scalewall_shard_manager::{
    AddShardReason, AppError, AppServer, HostId, Region, ShardContext, ShardId,
};
use scalewall_sim::sync::RwLock;
use scalewall_sim::{RngRoot, SimRng};

use crate::catalog::{Catalog, SharedCatalog};
use crate::error::{CubrickError, CubrickResult};
use crate::hotness::MemoryMonitorConfig;
use crate::metrics::MetricGeneration;
use crate::query::result::PartialResult;
use crate::query::{execute_partition, Query};
use crate::store::PartitionData;
use crate::value::Row;

/// A region's authoritative partition data, table → partition.
#[derive(Debug, Default)]
pub struct RegionStore {
    tables: BTreeMap<Arc<str>, BTreeMap<u32, PartitionData>>,
    /// See [`Self::generation`].
    generation: u64,
}

impl RegionStore {
    pub fn new() -> Self {
        RegionStore::default()
    }

    /// Moves with every write that can change a footprint (rows, brick
    /// states, column capacities, dictionaries, partitions added or
    /// removed); scans and decay passes do not ([`Self::hotness_mut`]).
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// Ingest rows into a table partition ([`PartitionData::ingest_batch`]),
    /// creating it on first touch.
    pub fn ingest_batch(
        &mut self,
        table: &Arc<str>,
        partition: u32,
        schema: &Arc<crate::schema::Schema>,
        rows: &[&Row],
    ) -> CubrickResult<()> {
        self.partition_to_ingest(table, partition, schema)
            .ingest_batch(rows)
    }

    /// A partition to ingest into, created on first touch: it moves the
    /// [generation](Self::generation).
    pub fn partition_to_ingest(
        &mut self,
        table: &Arc<str>,
        partition: u32,
        schema: &Arc<crate::schema::Schema>,
    ) -> &mut PartitionData {
        self.generation += 1;
        self.tables
            .entry(table.clone())
            .or_default()
            .entry(partition)
            .or_insert_with(|| PartitionData::new(schema.clone()))
    }

    pub fn partition(&self, table: &str, partition: u32) -> Option<&PartitionData> {
        self.tables.get(table)?.get(&partition)
    }

    /// A partition to write, whatever the caller writes: it moves the
    /// [generation](Self::generation).
    pub fn partition_mut(&mut self, table: &str, partition: u32) -> Option<&mut PartitionData> {
        self.generation += 1;
        self.hotness_mut(table, partition)
    }

    /// The one reach that does not move the generation, for the scan
    /// (`CubrickNode::execute_local`) and the decay pass: both write only
    /// hotness, the warm ids, scan counters and a dictionary's rank
    /// memo, never a row, a brick's state or a column's capacity.
    fn hotness_mut(&mut self, table: &str, partition: u32) -> Option<&mut PartitionData> {
        self.tables.get_mut(table)?.get_mut(&partition)
    }

    /// Replace a table's partitions wholesale (re-partitioning).
    pub fn replace_table(&mut self, table: &str, new_partitions: Vec<(u32, PartitionData)>) {
        self.generation += 1;
        self.tables
            .insert(Arc::from(table), new_partitions.into_iter().collect());
    }

    pub fn drop_table(&mut self, table: &str) {
        self.generation += 1;
        self.tables.remove(table);
    }

    pub fn partition_count(&self) -> usize {
        self.tables.values().map(BTreeMap::len).sum()
    }

    /// All `(table, partition)` keys, sorted (deterministic iteration).
    pub fn keys(&self) -> Vec<(Arc<str>, u32)> {
        self.tables
            .iter()
            .flat_map(|(table, partitions)| partitions.keys().map(|&p| (table.clone(), p)))
            .collect()
    }
}

/// Region store shared by all nodes of one region.
pub type SharedRegionStore = Arc<RwLock<RegionStore>>;

/// Node configuration.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    pub host: HostId,
    pub region: Region,
    /// Physical memory dedicated to data.
    pub memory_budget_bytes: u64,
    pub metric_generation: MetricGeneration,
    /// Per-pass hotness decay probability for the memory monitor.
    pub decay_probability: f64,
    /// Seed for the node's private RNG (decay stochasticity).
    pub rng_seed: u64,
}

impl NodeConfig {
    pub fn new(host: HostId, region: Region) -> Self {
        NodeConfig {
            host,
            region,
            memory_budget_bytes: 8 << 30,
            metric_generation: MetricGeneration::Gen2DecompressedSize,
            decay_probability: 0.1,
            rng_seed: host.0 ^ 0xC0B1,
        }
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct ShardState {
    /// Data copy still in flight (queries must not be served yet).
    loading: bool,
}

/// A node's relationship to one shard, as seen by an arriving sub-query
/// (see [`CubrickNode::probe_shard`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardProbe {
    /// The node owns the shard.
    pub owns: bool,
    /// The shard's data is loaded and servable.
    pub ready: bool,
    /// The node is gracefully forwarding the shard to a new owner.
    pub forward: Option<HostId>,
}

/// The Cubrick server process on one host.
pub struct CubrickNode {
    config: NodeConfig,
    catalog: SharedCatalog,
    region_store: SharedRegionStore,
    owned: BTreeMap<u64, ShardState>,
    /// Bumped whenever `owned` may gain or lose a key ([`Self::owned_keys_mut`]).
    owned_generation: u64,
    /// The stamp of the last memory-monitor pass that found nothing to move.
    idle_at: Option<[u64; 3]>,
    /// The sorted partition keys the decay pass visits.
    decay_keys: Vec<(Arc<str>, u32)>,
    /// The owned-set and catalog generations `decay_keys` was listed at.
    decay_keys_at: Option<[u64; 2]>,
    /// Shards accepted via `prepare_add_shard` but not yet added.
    prepared: BTreeSet<u64>,
    /// Shards being forwarded to a new owner (graceful drop pending).
    forwarding: BTreeMap<u64, HostId>,
    rng: SimRng,
    /// Queries served (operational counter).
    pub queries_served: u64,
}

impl CubrickNode {
    pub fn new(
        config: NodeConfig,
        catalog: SharedCatalog,
        region_store: SharedRegionStore,
    ) -> Self {
        let rng = RngRoot::new(config.rng_seed).into_rng();
        CubrickNode {
            config,
            catalog,
            region_store,
            owned: BTreeMap::new(),
            owned_generation: 0,
            idle_at: None,
            decay_keys: Vec::new(),
            decay_keys_at: None,
            prepared: BTreeSet::new(),
            forwarding: BTreeMap::new(),
            rng,
            queries_served: 0,
        }
    }

    pub fn host(&self) -> HostId {
        self.config.host
    }

    pub fn region(&self) -> Region {
        self.config.region
    }

    pub fn config(&self) -> &NodeConfig {
        &self.config
    }

    /// Shards currently owned (sorted).
    pub fn owned_shards(&self) -> Vec<u64> {
        self.owned.keys().copied().collect()
    }

    pub fn owns_shard(&self, shard: u64) -> bool {
        self.owned.contains_key(&shard)
    }

    pub fn shard_ready(&self, shard: u64) -> bool {
        self.owned.get(&shard).is_some_and(|s| !s.loading)
    }

    pub fn is_forwarding(&self, shard: u64) -> Option<HostId> {
        self.forwarding.get(&shard).copied()
    }

    /// One-shot snapshot of this node's relationship to `shard` — what
    /// the query driver needs to decide between serving, forwarding, and
    /// the typed stale-cache errors: one search of `owned` (hundreds of
    /// shards on a busy host) and one of `forwarding`, which outside a
    /// graceful migration is empty and answers at its absent root.
    pub fn probe_shard(&self, shard: u64) -> ShardProbe {
        let state = self.owned.get(&shard);
        ShardProbe {
            owns: state.is_some(),
            ready: state.is_some_and(|s| !s.loading),
            forward: self.is_forwarding(shard),
        }
    }

    /// Reset the process state after a crash-and-restart (transient host
    /// outage repaired in place). Cubrick is an in-memory DBMS: a restarted
    /// node comes back *empty* — ownership, prepared shards and forwarding
    /// entries are gone, and data is recovered only by SM re-assigning
    /// shards to it.
    pub fn reboot(&mut self) {
        self.owned_keys_mut().clear();
        self.prepared.clear();
        self.forwarding.clear();
        self.queries_served = 0;
    }

    /// Every write that can add or remove a key of `owned` goes through
    /// here, so the [metrics stamp](AppServer::metrics_stamp) sees it.
    fn owned_keys_mut(&mut self) -> &mut BTreeMap<u64, ShardState> {
        self.owned_generation += 1;
        &mut self.owned
    }

    /// What the metric poll and the memory monitor's idleness read, as
    /// generations: the owned set, the catalog's shard index, the store.
    fn stamp(&self, catalog: &Catalog, store: &RegionStore) -> [u64; 3] {
        [
            self.owned_generation,
            catalog.generation(),
            store.generation(),
        ]
    }

    /// The shard-collision veto (§IV-A): would accepting `shard` co-locate
    /// it with another owned shard holding a partition of the same table?
    fn collision_with(&self, shard: u64) -> Option<String> {
        let catalog = self.catalog.read();
        let incoming: BTreeSet<&str> = catalog
            .partitions_of_shard(shard)
            .iter()
            .map(|(t, _)| t.as_ref())
            .collect();
        if incoming.is_empty() {
            return None;
        }
        for &owned in self.owned.keys() {
            if owned == shard {
                continue;
            }
            for (table, p) in catalog.partitions_of_shard(owned) {
                if incoming.contains(table.as_ref()) {
                    return Some(format!(
                        "shard {shard} would collide with owned shard {owned} ({table}#{p})"
                    ));
                }
            }
        }
        None
    }

    // ---------------------------------------------------------------- queries

    /// Execute a query over one local partition. This is the per-server
    /// work unit a coordinator fans out.
    pub fn execute_local(&mut self, query: &Query, partition: u32) -> CubrickResult<PartialResult> {
        let (shard, table_partitions, schema) = {
            let catalog = self.catalog.read();
            let def = catalog.get(&query.table)?;
            if partition >= def.partitions {
                return Err(CubrickError::PartitionUnavailable {
                    table: query.table.clone(),
                    partition,
                });
            }
            (
                def.shard_of(partition, catalog.max_shards()),
                def.partitions,
                def.schema.clone(),
            )
        };
        match self.owned.get(&shard) {
            None => {
                return Err(CubrickError::ShardNotOwned {
                    table: query.table.clone(),
                    partition,
                })
            }
            Some(state) if state.loading => {
                return Err(CubrickError::ShardLoading {
                    table: query.table.clone(),
                    partition,
                })
            }
            Some(_) => {}
        }
        self.queries_served += 1;
        match self
            .region_store
            .write()
            .hotness_mut(&query.table, partition)
        {
            Some(data) => execute_partition(data, query, table_partitions),
            // Partition exists in metadata but holds no rows yet: an
            // empty result, not an error.
            None => execute_partition(&mut PartitionData::new(schema), query, table_partitions),
        }
    }

    // ------------------------------------------------------------ maintenance

    /// One decay pass over all owned partitions' hotness counters, in
    /// key order. The keys are listed again only when the owned set or
    /// the catalog's shard index has moved since they were listed.
    pub fn decay_pass(&mut self) {
        let at = Some([self.owned_generation, self.catalog.read().generation()]);
        if self.decay_keys_at != at {
            self.decay_keys = self.owned_partition_keys();
            self.decay_keys_at = at;
        }
        let mut store = self.region_store.write();
        for (table, p) in &self.decay_keys {
            if let Some(data) = store.hotness_mut(table, *p) {
                data.decay_pass(self.config.decay_probability, &mut self.rng);
            }
        }
    }

    /// Run the adaptive-compression memory monitor: apportion the node
    /// budget over owned partitions by decompressed share, then let each
    /// partition compress/decompress. Returns (compressed, decompressed)
    /// brick totals: sums over independent partitions, so the pass takes
    /// the owned shards' partitions as the catalog lists them, unsorted,
    /// and goes back to them only if one has a brick it could move.
    /// A pass at the stamp of the last idle one returns at once.
    pub fn run_memory_monitor(&mut self) -> (usize, usize) {
        let catalog = self.catalog.read();
        let mut store = self.region_store.write();
        let stamp = self.stamp(&catalog, &store);
        if self.idle_at == Some(stamp) {
            return (0, 0);
        }
        let owned = || {
            let shards = self.owned.keys();
            shards.flat_map(|&s| catalog.partitions_of_shard(s))
        };
        let parts: Vec<&PartitionData> = owned()
            .filter_map(|(t, p)| store.partition(t, *p))
            .collect();
        let total_decompressed: u64 = parts.iter().map(|d| d.decompressed_bytes()).sum();
        let config_of = |data: &PartitionData| {
            let share = data.decompressed_bytes() as f64 / total_decompressed as f64;
            MemoryMonitorConfig {
                budget_bytes: (self.config.memory_budget_bytes as f64 * share) as u64,
                decay_probability: self.config.decay_probability,
            }
        };
        let idle = |data: &&PartitionData| data.movable_bricks(&config_of(data)).1 == 0;
        if total_decompressed == 0 || parts.iter().all(idle) {
            self.idle_at = Some(stamp);
            return (0, 0);
        }
        let mut totals = (0usize, 0usize);
        for (table, p) in owned() {
            if let Some(data) = store.partition_mut(table, *p) {
                let (c, d) = data.run_memory_monitor(&config_of(data));
                totals.0 += c;
                totals.1 += d;
            }
        }
        totals
    }

    /// Hotness snapshot across owned partitions (Fig 4e):
    /// `(table, partition, brick_id, counter)`.
    pub fn hotness_snapshot(&self) -> Vec<(Arc<str>, u32, u64, u32)> {
        let keys = self.owned_partition_keys();
        let store = self.region_store.read();
        let mut out = Vec::new();
        for (table, p) in keys {
            if let Some(data) = store.partition(&table, p) {
                for (brick, counter) in data.hotness_snapshot() {
                    out.push((table.clone(), p, brick, counter));
                }
            }
        }
        out
    }

    /// `(table, partition)` pairs this node currently owns, sorted.
    pub fn owned_partition_keys(&self) -> Vec<(Arc<str>, u32)> {
        let catalog = self.catalog.read();
        let mut keys: Vec<(Arc<str>, u32)> = self
            .owned
            .keys()
            .flat_map(|&s| catalog.partitions_of_shard(s).iter().cloned())
            .collect();
        keys.sort();
        keys
    }
}

/// The stored partitions mapped to `shard` (partitions that hold no rows
/// yet have no store entry and are skipped).
fn shard_partitions<'a>(
    catalog: &'a Catalog,
    store: &'a RegionStore,
    shard: u64,
) -> impl Iterator<Item = &'a PartitionData> {
    catalog
        .partitions_of_shard(shard)
        .iter()
        .filter_map(|(table, p)| store.partition(table, *p))
}

impl AppServer for CubrickNode {
    fn prepare_add_shard(&mut self, ctx: ShardContext) -> Result<(), AppError> {
        if ctx.reason != AddShardReason::NewAllocation {
            if let Some(reason) = self.collision_with(ctx.shard.0) {
                return Err(AppError::non_retryable(reason));
            }
        }
        self.prepared.insert(ctx.shard.0);
        Ok(())
    }

    fn add_shard(&mut self, ctx: ShardContext) -> Result<(), AppError> {
        // "This approach, however, does not prevent collisions at table
        // creation time" — the veto applies to migrations only (§IV-A).
        if ctx.reason != AddShardReason::NewAllocation {
            if let Some(reason) = self.collision_with(ctx.shard.0) {
                return Err(AppError::non_retryable(reason));
            }
        }
        self.prepared.remove(&ctx.shard.0);
        let loading = ctx.reason != AddShardReason::NewAllocation;
        self.owned_keys_mut()
            .insert(ctx.shard.0, ShardState { loading });
        Ok(())
    }

    fn on_copy_complete(&mut self, ctx: ShardContext) {
        if let Some(state) = self.owned.get_mut(&ctx.shard.0) {
            state.loading = false;
        }
    }

    fn prepare_drop_shard(&mut self, ctx: ShardContext, target: HostId) -> Result<(), AppError> {
        if !self.owned.contains_key(&ctx.shard.0) {
            return Err(AppError::retryable("shard not owned here"));
        }
        self.forwarding.insert(ctx.shard.0, target);
        Ok(())
    }

    fn drop_shard(&mut self, ctx: ShardContext) -> Result<(), AppError> {
        self.forwarding.remove(&ctx.shard.0);
        self.prepared.remove(&ctx.shard.0);
        // Ownership is relinquished; the bytes remain in the region store
        // (they belong to the table, which has redundant copies per
        // region — see the module docs' data placement model).
        self.owned_keys_mut()
            .remove(&ctx.shard.0)
            .map(|_| ())
            .ok_or_else(|| AppError::retryable("shard not owned here"))
    }

    /// Ascending by shard id (the order `owned` iterates in).
    fn shard_metrics(&self) -> Vec<(ShardId, f64)> {
        let catalog = self.catalog.read();
        let store = self.region_store.read();
        let generation = self.config.metric_generation;
        self.owned
            .keys()
            .map(|&s| {
                let size = generation.shard_size(shard_partitions(&catalog, &store, s));
                (ShardId(s), size)
            })
            .collect()
    }

    fn metrics_stamp(&self) -> Option<[u64; 3]> {
        let catalog = self.catalog.read();
        Some(self.stamp(&catalog, &self.region_store.read()))
    }

    fn capacity(&self) -> f64 {
        self.config
            .metric_generation
            .host_capacity(self.config.memory_budget_bytes)
    }

    fn shard_transfer_bytes(&self, shard: ShardId) -> u64 {
        let catalog = self.catalog.read();
        let store = self.region_store.read();
        shard_partitions(&catalog, &store, shard.0)
            .map(PartitionData::decompressed_bytes)
            .sum()
    }
}

impl std::fmt::Debug for CubrickNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CubrickNode")
            .field("host", &self.config.host)
            .field("region", &self.config.region)
            .field("owned_shards", &self.owned.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{shared_catalog, RowMapping};
    use crate::query::parse_query;
    use crate::schema::SchemaBuilder;
    use crate::sharding::ShardMapping;
    use crate::value::Value;

    fn schema() -> Arc<crate::schema::Schema> {
        Arc::new(
            SchemaBuilder::new()
                .int_dim("ds", 0, 100, 10)
                .str_dim("country", 100, 10)
                .metric("clicks")
                .build()
                .unwrap(),
        )
    }

    struct Fixture {
        catalog: SharedCatalog,
        store: SharedRegionStore,
        node: CubrickNode,
    }

    fn fixture() -> Fixture {
        let catalog = shared_catalog(1_000);
        let store: SharedRegionStore = Arc::new(RwLock::new(RegionStore::new()));
        let node = CubrickNode::new(
            NodeConfig::new(HostId(1), Region(0)),
            catalog.clone(),
            store.clone(),
        );
        Fixture {
            catalog,
            store,
            node,
        }
    }

    fn ctx(shard: u64, reason: AddShardReason) -> ShardContext {
        ShardContext {
            shard: ShardId(shard),
            reason,
            source: None,
        }
    }

    /// Bytes resident in memory across the node's owned partitions.
    fn memory_footprint(f: &Fixture) -> u64 {
        let store = f.store.read();
        f.node
            .owned_partition_keys()
            .iter()
            .filter_map(|(t, p)| store.partition(t, *p))
            .map(PartitionData::memory_footprint)
            .sum()
    }

    /// Create table "t" with 4 partitions and load rows; give the node
    /// ownership of all its shards.
    fn load_table(f: &mut Fixture) -> Vec<u64> {
        let def = f
            .catalog
            .write()
            .create_table("t", schema(), 4, RowMapping::Hash, ShardMapping::Monotonic)
            .unwrap();
        let shards = f.catalog.read().shards_of_table("t").unwrap();
        for &s in &shards {
            f.node
                .add_shard(ctx(s, AddShardReason::NewAllocation))
                .unwrap();
        }
        let mut store = f.store.write();
        for ds in 0..100i64 {
            for c in ["US", "BR"] {
                let row = Row::new(vec![Value::Int(ds), Value::from(c)], vec![ds as f64]);
                let p = def.partition_of_row(&row, 0);
                store
                    .ingest_batch(&def.name, p, &def.schema, &[&row])
                    .unwrap();
            }
        }
        drop(store);
        shards
    }

    /// `probe_shard` reads as its three accessors do, whatever the shard's
    /// ownership (absent, loading, ready) and with or without a forward.
    #[test]
    fn probe_reads_as_the_three_accessors() {
        let mut f = fixture();
        let target = HostId(9);
        for (shard, owned) in [(1, None), (2, Some(true)), (3, Some(false))] {
            for forward in [None, Some(target)] {
                f.node.owned.clear();
                f.node.forwarding.clear();
                // Neighbours on both sides, so the search is a real one.
                for other in [0, 7] {
                    f.node.owned.insert(other, ShardState { loading: false });
                    f.node.forwarding.insert(other, HostId(8));
                }
                if let Some(loading) = owned {
                    f.node.owned.insert(shard, ShardState { loading });
                }
                if let Some(to) = forward {
                    f.node.forwarding.insert(shard, to);
                }
                let probe = f.node.probe_shard(shard);
                let want = ShardProbe {
                    owns: owned.is_some(),
                    ready: owned == Some(false),
                    forward,
                };
                assert_eq!(probe, want, "owned {owned:?}, forward {forward:?}");
                let accessors = ShardProbe {
                    owns: f.node.owns_shard(shard),
                    ready: f.node.shard_ready(shard),
                    forward: f.node.is_forwarding(shard),
                };
                assert_eq!(probe, accessors);
            }
        }
        // No forward anywhere: the common case.
        f.node.forwarding.clear();
        assert_eq!(f.node.probe_shard(7).forward, None);
        assert!(f.node.probe_shard(7).ready);
    }

    #[test]
    fn add_drop_ownership() {
        let mut f = fixture();
        f.node
            .add_shard(ctx(5, AddShardReason::NewAllocation))
            .unwrap();
        assert!(f.node.owns_shard(5));
        assert!(
            f.node.shard_ready(5),
            "new allocations are immediately ready"
        );
        f.node
            .drop_shard(ctx(5, AddShardReason::NewAllocation))
            .unwrap();
        assert!(!f.node.owns_shard(5));
        assert!(f
            .node
            .drop_shard(ctx(5, AddShardReason::NewAllocation))
            .is_err());
    }

    #[test]
    fn migrated_shard_loads_until_copy_completes() {
        let mut f = fixture();
        f.node.add_shard(ctx(9, AddShardReason::Failover)).unwrap();
        assert!(f.node.owns_shard(9));
        assert!(!f.node.shard_ready(9));
        f.node.on_copy_complete(ctx(9, AddShardReason::Failover));
        assert!(f.node.shard_ready(9));
    }

    #[test]
    fn collision_veto_on_migration_only() {
        let mut f = fixture();
        let shards = load_table(&mut f);
        // Node owns shards[0..4]. A second node would own nothing of "t";
        // simulate SM migrating another shard of "t" onto this node: veto.
        let mut other = CubrickNode::new(
            NodeConfig::new(HostId(2), Region(0)),
            f.catalog.clone(),
            f.store.clone(),
        );
        // other owns shard[0]; bringing shard[1] of the same table to a
        // node that owns shard[0] must veto.
        other
            .add_shard(ctx(shards[0], AddShardReason::NewAllocation))
            .unwrap();
        let err = other
            .add_shard(ctx(shards[1], AddShardReason::LiveMigration))
            .unwrap_err();
        assert!(!err.is_retryable());
        let err = other
            .prepare_add_shard(ctx(shards[1], AddShardReason::LiveMigration))
            .unwrap_err();
        assert!(!err.is_retryable());
        // New allocations are not vetoed (collisions at creation time are
        // possible by design).
        other
            .add_shard(ctx(shards[1], AddShardReason::NewAllocation))
            .unwrap();
    }

    #[test]
    fn query_over_owned_partitions() {
        let mut f = fixture();
        load_table(&mut f);
        let query = parse_query("select sum(clicks) from t where country = 'US'").unwrap();
        let partials = (0..4)
            .map(|p| f.node.execute_local(&query, p).unwrap())
            .collect();
        let out = PartialResult::merge_all(partials)
            .unwrap()
            .unwrap()
            .finalize();
        let oracle: f64 = (0..100).map(|v| v as f64).sum();
        assert_eq!(out.scalar(), Some(oracle));
        assert_eq!(out.table_partitions, 4);
        assert_eq!(f.node.queries_served, 4);
    }

    #[test]
    fn query_errors() {
        let mut f = fixture();
        let shards = load_table(&mut f);
        let query = parse_query("select count(*) from t").unwrap();
        // Unowned shard.
        f.node
            .drop_shard(ctx(shards[2], AddShardReason::NewAllocation))
            .unwrap();
        assert!(matches!(
            f.node.execute_local(&query, 2),
            Err(CubrickError::ShardNotOwned { .. })
        ));
        // Loading shard: drop the node's other shards of "t" first so the
        // failover add is not (correctly) vetoed as a collision.
        for &s in &shards {
            if s != shards[2] {
                f.node
                    .drop_shard(ctx(s, AddShardReason::NewAllocation))
                    .unwrap();
            }
        }
        f.node
            .add_shard(ctx(shards[2], AddShardReason::Failover))
            .unwrap();
        assert!(matches!(
            f.node.execute_local(&query, 2),
            Err(CubrickError::ShardLoading { .. })
        ));
        // Bad partition index.
        assert!(matches!(
            f.node.execute_local(&query, 99),
            Err(CubrickError::PartitionUnavailable { .. })
        ));
        // Unknown table.
        let q2 = parse_query("select count(*) from zz").unwrap();
        assert!(matches!(
            f.node.execute_local(&q2, 0),
            Err(CubrickError::NoSuchTable { .. })
        ));
    }

    #[test]
    fn metrics_report_per_shard_sizes() {
        let mut f = fixture();
        let shards = load_table(&mut f);
        let metrics = f.node.shard_metrics();
        assert_eq!(metrics.len(), 4);
        let total: f64 = metrics.iter().map(|&(_, w)| w).sum();
        assert!(total > 0.0);
        for &(s, w) in &metrics {
            assert!(shards.contains(&s.0));
            assert!(w >= 0.0);
        }
        assert!(f.node.capacity() > 0.0);
        // Transfer bytes match the gen-2 metric (decompressed size).
        let t = f.node.shard_transfer_bytes(metrics[0].0);
        assert!(t > 0);
    }

    #[test]
    fn memory_monitor_respects_budget() {
        let mut f = fixture();
        load_table(&mut f);
        let footprint = memory_footprint(&f);
        assert!(footprint > 0);
        // Starve the node: everything compresses.
        f.node.config.memory_budget_bytes = 1;
        let (compressed, _) = f.node.run_memory_monitor();
        assert!(compressed > 0);
        assert!(memory_footprint(&f) < footprint);
        // Queries still correct after compression.
        let query = parse_query("select count(*) from t").unwrap();
        let mut total = 0.0;
        for p in 0..4 {
            total += f
                .node
                .execute_local(&query, p)
                .unwrap()
                .finalize()
                .scalar()
                .unwrap();
        }
        assert_eq!(total, 200.0);
    }

    #[test]
    fn forwarding_state_tracked() {
        let mut f = fixture();
        let shards = load_table(&mut f);
        f.node
            .prepare_drop_shard(ctx(shards[0], AddShardReason::LiveMigration), HostId(7))
            .unwrap();
        assert_eq!(f.node.is_forwarding(shards[0]), Some(HostId(7)));
        f.node
            .drop_shard(ctx(shards[0], AddShardReason::LiveMigration))
            .unwrap();
        assert_eq!(f.node.is_forwarding(shards[0]), None);
        // prepare_drop on a shard not owned fails retryably.
        let err = f
            .node
            .prepare_drop_shard(ctx(999, AddShardReason::LiveMigration), HostId(7))
            .unwrap_err();
        assert!(err.is_retryable());
    }

    #[test]
    fn hotness_snapshot_reflects_scans() {
        let mut f = fixture();
        load_table(&mut f);
        let before = f.node.hotness_snapshot();
        assert!(before.iter().all(|&(_, _, _, h)| h == 0));
        let query = parse_query("select count(*) from t").unwrap();
        for p in 0..4 {
            f.node.execute_local(&query, p).unwrap();
        }
        let after = f.node.hotness_snapshot();
        assert!(after.iter().all(|&(_, _, _, h)| h == 1));
    }
}
