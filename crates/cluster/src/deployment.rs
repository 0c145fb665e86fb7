//! The simulated multi-region deployment.
//!
//! Mirrors Cubrick's production topology (§IV-D): N regions (three in
//! production), each holding a **full copy** of every table and running
//! as an independent *primary-only* SM service. A shared catalog holds
//! table metadata; each region has its own SM server, service-discovery
//! view, region store and node registry.

use std::collections::BTreeMap;
use std::sync::Arc;

use cubrick::catalog::{shared_catalog, RowMapping, SharedCatalog, TableDef};
use cubrick::error::{CubrickError, CubrickResult};
use cubrick::metrics::MetricGeneration;
use cubrick::node::{CubrickNode, NodeConfig, RegionStore, SharedRegionStore};
use cubrick::schema::Schema;
use cubrick::sharding::ShardMapping;
use cubrick::value::Row;
use scalewall_discovery::{DelayModel, DiscoveryClient, MappingStore, Route, DELAY_SEED};
use scalewall_shard_manager::server::DEFAULT_SHARD_WEIGHT;
use scalewall_shard_manager::{
    AppSpec, BalancerConfig, HostId, HostInfo, HostState, Rack, Region, ShardId, SmConfig, SmError,
    SmServer,
};
use scalewall_sim::hash::{fnv1a, FNV_OFFSET};
use scalewall_sim::sync::RwLock;
use scalewall_sim::{RngRoot, SimRng, SimTime, Stream};

use crate::registry::NodeRegistry;

/// The name of the one application each region's SM serves.
pub const APP: &str = "cubrick";

/// Deployment-wide configuration.
#[derive(Debug, Clone)]
pub struct DeploymentConfig {
    pub regions: u32,
    pub hosts_per_region: u32,
    pub racks_per_region: u32,
    /// SM shard key space ("between 100k and 1M", scaled per experiment).
    pub max_shards: u64,
    pub host_memory_bytes: u64,
    pub metric_generation: MetricGeneration,
    pub balancer: BalancerConfig,
    pub sm: SmConfig,
    /// Fault-domain-aware placement: tag each table's shards as one SM
    /// anti-affinity group so partitions spread across hosts *and racks*
    /// (best-effort; the §IV-A veto stays the hard backstop). Ablatable
    /// for the correlated-failure sweep (`fig2b_correlated_sweep`).
    pub rack_spread: bool,
    pub seed: u64,
}

impl Default for DeploymentConfig {
    fn default() -> Self {
        DeploymentConfig {
            regions: 3,
            hosts_per_region: 16,
            racks_per_region: 4,
            max_shards: 100_000,
            host_memory_bytes: 8 << 30,
            metric_generation: MetricGeneration::Gen2DecompressedSize,
            balancer: BalancerConfig::default(),
            sm: SmConfig::default(),
            rack_spread: true,
            seed: 0xD3B7,
        }
    }
}

/// Balanced random host→rack assignment: every rack gets
/// ⌈hosts/racks⌉ or ⌊hosts/racks⌋ hosts, order shuffled from the
/// topology stream. Real fleets do not hand out rack slots in host-id
/// order, and round-robin numbering would silently guarantee rack
/// diversity that placement is supposed to *earn*.
fn rack_assignment(hosts: u32, racks: u32, rng: &mut SimRng) -> Vec<Rack> {
    let racks = racks.max(1);
    let mut assignment: Vec<Rack> = (0..hosts).map(|i| Rack(i % racks)).collect();
    rng.shuffle(&mut assignment);
    assignment
}

/// Anti-affinity group key for a table: a stable FNV-1a hash of the name,
/// so all regions (and replays) agree without shared state.
pub fn table_group(name: &str) -> u64 {
    fnv1a(FNV_OFFSET, name.as_bytes())
}

/// A region proxy's fan-out routes, one per table: every partition's
/// shard id and the host discovery resolves it to, kept until the answer
/// can change (DESIGN.md "Route cache contract"), and per partition
/// whether that host has been found serving the shard directly
/// (DESIGN.md "Serving verdicts").
#[derive(Debug, Default)]
pub struct RouteCache {
    tables: BTreeMap<Arc<str>, TableRoute>,
}

#[derive(Debug, Default)]
struct TableRoute {
    /// `(partitions, shard_mapping, max_shards)` the shard list was
    /// derived from. A repartitioned or dropped-and-recreated table keeps
    /// its name but not its shards.
    built_for: Option<(u32, ShardMapping, u64)>,
    route: Route,
    /// Per partition: the sub-query ladder found the route's target up,
    /// present, owning the shard and done loading it.
    direct: Vec<bool>,
    /// [`NodeRegistry::changes`] the verdicts were found at.
    direct_at: u64,
}

impl RouteCache {
    /// `def`'s route at `now` as `discovery` sees `mappings` (this region's
    /// `sm.mappings()`, the store that filled the route), indexed by
    /// partition, and its serving verdicts for the sub-queries to read and
    /// fill. A hit is three compares; a miss re-resolves in place. The
    /// verdicts start over when the route was re-resolved or `node_changes`
    /// (the region's [`NodeRegistry::changes`]) is not what they were found at.
    pub fn route(
        &mut self,
        mappings: &MappingStore,
        discovery: DiscoveryClient,
        def: &TableDef,
        max_shards: u64,
        node_changes: u64,
        now: SimTime,
    ) -> (&Route, &mut [bool]) {
        let table = self.tables.entry(def.name.clone()).or_default();
        let built_for = Some((def.partitions, def.shard_mapping, max_shards));
        if table.built_for != built_for {
            table.built_for = built_for;
            table
                .route
                .reset_shards()
                .extend((0..def.partitions).map(|p| def.shard_of(p, max_shards)));
        }
        let reused = discovery.route(mappings, &mut table.route, now);
        if !reused || table.direct_at != node_changes {
            table.direct.clear();
            table.direct.resize(table.route.shards().len(), false);
            table.direct_at = node_changes;
        }
        (&table.route, &mut table.direct)
    }

    fn forget(&mut self, table: &str) {
        self.tables.remove(table);
    }

    /// Forget every verdict, as a refill does (for the property test).
    #[cfg(test)]
    pub(crate) fn forget_verdicts(&mut self) {
        for table in self.tables.values_mut() {
            table.direct.fill(false);
        }
    }
}

/// One region's slice of the deployment.
pub struct RegionState {
    pub region: Region,
    pub sm: SmServer,
    pub store: SharedRegionStore,
    pub nodes: NodeRegistry,
    /// The region-local proxy's discovery view (sees propagation delay).
    pub discovery: DiscoveryClient,
    /// What that view resolves each table's partitions to, cached.
    pub routes: RouteCache,
    /// Whole-region availability (code pushes, disasters; §IV-D).
    pub available: bool,
}

impl RegionState {
    /// Authoritative owner of a shard (SM's view, no propagation delay).
    pub fn authoritative_host(&self, shard: u64) -> Option<HostId> {
        self.sm.host_of(ShardId(shard))
    }

    /// Owner as seen by this region's proxy *right now* (possibly stale).
    /// The uncached single-shard reference for [`RouteCache::route`].
    pub fn resolved_host(&self, shard: u64, now: SimTime) -> Option<HostId> {
        self.discovery
            .resolve(self.sm.mappings(), shard, now)
            .and_then(|u| u.host)
            .map(HostId)
    }

    /// Allocate a table's new `shards` through SM. A shard another table
    /// already placed (a cross-table partition collision) keeps its owner,
    /// which now also serves this table.
    fn allocate_shards(
        &mut self,
        shards: impl IntoIterator<Item = u64>,
        group: Option<u64>,
        now: SimTime,
    ) -> Result<(), SmError> {
        let weight = DEFAULT_SHARD_WEIGHT;
        for shard in shards {
            let nodes = &mut self.nodes;
            match self
                .sm
                .allocate_shard(ShardId(shard), weight, group, now, nodes)
            {
                Ok(_) | Err(SmError::AlreadyAssigned { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// The Cubrick node for a newly registered `host`, its RNG seeded from
/// the deployment stream.
fn build_node(
    config: &DeploymentConfig,
    rng: &mut SimRng,
    host: HostId,
    region: Region,
    catalog: &SharedCatalog,
    store: &SharedRegionStore,
) -> CubrickNode {
    let mut node_config = NodeConfig::new(host, region);
    node_config.memory_budget_bytes = config.host_memory_bytes;
    node_config.metric_generation = config.metric_generation;
    node_config.rng_seed = rng.child(host.0).next_u64();
    CubrickNode::new(node_config, catalog.clone(), store.clone())
}

/// The full simulated deployment.
pub struct Deployment {
    pub config: DeploymentConfig,
    pub catalog: SharedCatalog,
    pub regions: Vec<RegionState>,
    pub rng: SimRng,
    /// `run_query`'s list of which regions are up, kept for its allocation.
    pub(crate) region_flags: Vec<(Region, bool)>,
    next_host_id: u64,
    /// The first registration SM refused while the deployment was built
    /// (an app spec that does not validate, a host the coordination plane
    /// would not take). `new` cannot fail, so every `create_table` does,
    /// with this as the reason.
    refused: Option<SmError>,
}

/// Stable, readable host numbering: region r's i-th host is
/// `r * REGION_HOST_STRIDE + i`.
pub const REGION_HOST_STRIDE: u64 = 1_000_000;

impl Deployment {
    pub fn new(config: DeploymentConfig) -> Self {
        let mut rng = RngRoot::new(config.seed).into_rng();
        // Rack topology comes from its own forked stream (rooted at the
        // deployment seed, not drawn from `rng`), so changing the rack
        // layout never perturbs node seeds or workload streams — the
        // fork-stability contract of `scalewall_sim::rng`. The second root
        // of one seed is deliberate: its first fork is labelled, `rng`'s
        // are host ids.
        let mut topo = RngRoot::new(config.seed).branch(Stream::RackTopology);
        let catalog = shared_catalog(config.max_shards);
        let mut regions = Vec::with_capacity(config.regions as usize);
        let mut refused = None;
        for r in 0..config.regions {
            let region = Region(r);
            let racks = rack_assignment(
                config.hosts_per_region,
                config.racks_per_region,
                &mut topo.child(r as u64),
            );
            let mut sm_config = config.sm.clone();
            if let Some(rep) = &mut sm_config.replication {
                // Home replica `i` of region r's ensemble in region
                // `(r + i) % regions`: replica 0 — the initial leader —
                // sits in the owning region (so a region outage kills
                // its own coordinator and forces a real failover) and
                // the rest spread across the other regions so a
                // majority survives any single-region loss.
                rep.homes = (0..rep.replicas)
                    .map(|i| Some((r + i) % config.regions))
                    .collect();
            }
            let spec = AppSpec::primary_only(APP, config.max_shards).with_balancer(config.balancer);
            let invalid = spec.validate().err();
            refused = refused.or(invalid.map(|reason| SmError::SafetyCheckFailed { reason }));
            let mut sm = SmServer::new(sm_config, spec);
            let store: SharedRegionStore = Arc::new(RwLock::new(RegionStore::new()));
            let mut nodes = NodeRegistry::new();
            for i in 0..config.hosts_per_region {
                let host = HostId(r as u64 * REGION_HOST_STRIDE + i as u64);
                let rack = racks[i as usize];
                let info = HostInfo::new(host, rack, region, config.host_memory_bytes as f64);
                refused = refused.or(sm.register_host(info, SimTime::ZERO).err());
                nodes.insert(build_node(
                    &config, &mut rng, host, region, &catalog, &store,
                ));
            }
            let delay = DelayModel::new(DELAY_SEED ^ (r as u64));
            // Subscriber id: the region's proxy host (id offset 999_999).
            let discovery = DiscoveryClient::new(delay, r as u64 * REGION_HOST_STRIDE + 999_999);
            regions.push(RegionState {
                region,
                sm,
                store,
                nodes,
                discovery,
                routes: RouteCache::default(),
                available: true,
            });
        }
        Deployment {
            config,
            catalog,
            regions,
            rng,
            region_flags: Vec::new(),
            next_host_id: 0,
            refused,
        }
    }

    // ----------------------------------------------------------------- tables

    /// Create a table and allocate its shards in every region.
    ///
    /// Shards already allocated (shared with another table via a
    /// cross-table partition collision) are reused, matching §IV-A:
    /// co-mapped partitions always live on the same host.
    pub fn create_table(
        &mut self,
        name: &str,
        schema: Arc<Schema>,
        partitions: u32,
        row_mapping: RowMapping,
        shard_mapping: ShardMapping,
        now: SimTime,
    ) -> CubrickResult<TableDef> {
        if let Some(e) = &self.refused {
            let detail = format!("deployment refused at construction: {e}");
            return Err(CubrickError::Internal { detail });
        }
        let def = self.catalog.write().create_table(
            name,
            schema,
            partitions,
            row_mapping,
            shard_mapping,
        )?;
        let shards = self.catalog.read().shards_of_table(name)?;
        let group = self.config.rack_spread.then(|| table_group(name));
        for region in &mut self.regions {
            region
                .allocate_shards(shards.iter().copied(), group, now)
                .map_err(|e| CubrickError::Internal {
                    detail: format!("shard allocation failed: {e}"),
                })?;
        }
        Ok(def)
    }

    /// Drop a table everywhere, deallocating shards no other table uses.
    pub fn drop_table(&mut self, name: &str, now: SimTime) -> CubrickResult<()> {
        let shards = self.catalog.read().shards_of_table(name)?;
        self.catalog.write().drop_table(name)?;
        for r in 0..self.regions.len() {
            let region = &mut self.regions[r];
            region.store.write().drop_table(name);
            region.routes.forget(name);
            self.release_unmapped(r, shards.iter().copied(), now);
        }
        Ok(())
    }

    /// Deallocate, in region `r`, each of `shards` that no table maps any
    /// more.
    fn release_unmapped(&mut self, r: usize, shards: impl IntoIterator<Item = u64>, now: SimTime) {
        for shard in shards {
            if !self.catalog.read().partitions_of_shard(shard).is_empty() {
                continue;
            }
            if let Some(region) = self.regions.get_mut(r) {
                let _ = region
                    .sm
                    .deallocate_shard(ShardId(shard), now, &mut region.nodes);
            }
        }
    }

    /// Ingest rows into every region (each holds a full copy). The
    /// row→partition decision is drawn once so all regions agree, and the
    /// batch is applied partition-outer, so a refused row leaves all
    /// regions identical: earlier partitions complete, its own up to the
    /// row before it, later ones untouched. A slice is encoded once, in
    /// the first region, and every other region takes its new strings
    /// and appends it (DESIGN.md "Ingest path contract").
    pub fn ingest(&mut self, table: &str, rows: &[Row]) -> CubrickResult<()> {
        let def = self.catalog.read().get(table)?.clone();
        let routed = def.route_rows(rows, || self.rng.next_u64());
        for (p, slice) in (0..).zip(&routed) {
            if slice.is_empty() {
                continue;
            }
            let mut encoded = None;
            let mut outcome = Ok(());
            for region in &self.regions {
                let mut store = region.store.write();
                let data = store.partition_to_ingest(&def.name, p, &def.schema);
                let applied = match &encoded {
                    None => {
                        let (batch, refused) = data.encode_batch(slice);
                        let applied = data.append_batch(&batch, slice).and(refused);
                        encoded = Some(batch);
                        applied
                    }
                    Some(batch) => data
                        .adopt_strings(batch)
                        .and_then(|()| data.append_batch(batch, slice)),
                };
                outcome = outcome.and(applied);
            }
            outcome?;
        }
        Ok(())
    }

    /// Re-partition a table deployment-wide: reshuffle every region's
    /// rows and fix up shard allocations. Returns rows shuffled per
    /// region. The rows are routed once, from region 0's copy, as
    /// `ingest` routes once, so all regions still agree afterwards.
    pub fn repartition(
        &mut self,
        table: &str,
        new_partitions: u32,
        now: SimTime,
    ) -> CubrickResult<u64> {
        let def = self.catalog.read().get(table)?.clone();
        if new_partitions == def.partitions {
            return Ok(0);
        }
        let old_shards = self.catalog.read().shards_of_table(table)?;

        // Swap metadata.
        self.catalog.write().set_partitions(table, new_partitions)?;
        let new_def = self.catalog.read().get(table)?.clone();
        let new_shards = self.catalog.read().shards_of_table(table)?;

        // Redistribute: one routing decision, every region's copy.
        let rows = match self.regions.first() {
            Some(first) => cubrick::repartition::stored_rows(&first.store.read(), &def),
            None => Vec::new(),
        };
        let routed = new_def.route_rows(&rows, || self.rng.next_u64());
        for region in &self.regions {
            cubrick::repartition::reshuffle(&mut region.store.write(), &new_def, &routed)?;
        }

        // Fix up shard allocations: new shards in, orphaned shards out.
        let group = self.config.rack_spread.then(|| table_group(table));
        for r in 0..self.regions.len() {
            let added = new_shards
                .iter()
                .copied()
                .filter(|s| !old_shards.contains(s));
            self.regions[r]
                .allocate_shards(added, group, now)
                .map_err(|e| CubrickError::Internal {
                    detail: format!("repartition allocation failed: {e}"),
                })?;
            let orphaned = old_shards
                .iter()
                .copied()
                .filter(|s| !new_shards.contains(s));
            self.release_unmapped(r, orphaned, now);
        }
        Ok(rows.len() as u64)
    }

    /// Evaluate the re-partitioning policy for a table against its
    /// current per-partition sizes (region 0's copy; all regions hold the
    /// same data volume) and apply the decision. Returns the decision.
    pub fn check_repartition(
        &mut self,
        table: &str,
        policy: &cubrick::repartition::RepartitionPolicy,
        now: SimTime,
    ) -> CubrickResult<cubrick::repartition::RepartitionDecision> {
        let def = self.catalog.read().get(table)?.clone();
        let Some(first) = self.regions.first() else {
            let detail = "a deployment without regions holds no data to size".to_string();
            return Err(CubrickError::Internal { detail });
        };
        let sizes: Vec<u64> = {
            let store = first.store.read();
            (0..def.partitions)
                .map(|p| {
                    store
                        .partition(table, p)
                        .map(|d| d.decompressed_bytes())
                        .unwrap_or(0)
                })
                .collect()
        };
        let decision = cubrick::repartition::evaluate(policy, def.partitions, &sizes);
        match decision {
            cubrick::repartition::RepartitionDecision::Grow(n)
            | cubrick::repartition::RepartitionDecision::Shrink(n) => {
                self.repartition(table, n, now)?;
            }
            cubrick::repartition::RepartitionDecision::None => {}
        }
        Ok(decision)
    }

    // ------------------------------------------------------------------ hosts

    /// Crash a host: the process stops responding; SM fails it over.
    pub fn fail_host(&mut self, region_idx: usize, host: HostId, now: SimTime) {
        let region = &mut self.regions[region_idx];
        region.nodes.crash(host);
        let _ = region.sm.host_failed(host, now, &mut region.nodes);
    }

    /// Complete the repair workflow for a dead host: bring up a
    /// replacement with a fresh id, then decommission the dead host once
    /// its assignments have drained. Returns the new host id, or `None`
    /// when `dead` is unknown or the coordination plane refuses the
    /// registration (no leader within the retry budget): the caller
    /// repairs again later.
    ///
    /// The replacement registers *first* — when a table spans every host
    /// in the region, its failovers are vetoed (shard collision) until
    /// fresh capacity with no partition of that table appears; repair is
    /// exactly that capacity.
    pub fn replace_host(
        &mut self,
        region_idx: usize,
        dead: HostId,
        now: SimTime,
    ) -> Option<HostId> {
        let stride_base = region_idx as u64 * REGION_HOST_STRIDE + 500_000;
        let region = &mut self.regions[region_idx];
        let info = *region.sm.host_info(dead)?;
        self.next_host_id += 1;
        let new_host = HostId(stride_base + self.next_host_id);
        region
            .sm
            .register_host(
                HostInfo::new(new_host, info.rack, info.region, info.capacity),
                now,
            )
            .ok()?;
        let node = build_node(
            &self.config,
            &mut self.rng,
            new_host,
            info.region,
            &self.catalog,
            &region.store,
        );
        region.nodes.insert(node);
        // Unblock any failovers waiting for feasible capacity, then try
        // to decommission the dead host.
        Self::region_tick(region, now);
        if region.sm.remove_host(dead).is_ok() {
            region.nodes.remove(dead);
        }
        Some(new_host)
    }

    /// Retry decommissioning a dead host whose assignments had not yet
    /// drained when [`replace_host`] ran.
    ///
    /// [`replace_host`]: Deployment::replace_host
    pub fn decommission_if_drained(&mut self, region_idx: usize, dead: HostId) -> bool {
        let region = &mut self.regions[region_idx];
        if region.sm.remove_host(dead).is_ok() {
            region.nodes.remove(dead);
            true
        } else {
            false
        }
    }

    /// Repair a *transient* outage in place: the same physical host comes
    /// back (same id, same rack), unlike [`replace_host`] which swaps in
    /// fresh hardware. Cubrick is in-memory, so the restarted process is
    /// empty; SM's [`rejoin_host`] re-adds whatever shards are still
    /// assigned to it (shards that already failed over elsewhere stay
    /// where they went) and the node reloads their data from upstream.
    /// Returns `false` for unknown or not-dead hosts. Used by rack/region
    /// outage repair.
    ///
    /// [`replace_host`]: Deployment::replace_host
    /// [`rejoin_host`]: SmServer::rejoin_host
    pub fn restore_host(&mut self, region_idx: usize, host: HostId, now: SimTime) -> bool {
        let region = &mut self.regions[region_idx];
        if region.sm.host_state(host) != Some(HostState::Dead) {
            return false;
        }
        // Revive the process empty, then let SM hand its shards back.
        region.nodes.revive(host);
        if let Some(node) = region.nodes.node_mut(host) {
            node.reboot();
        }
        if region.sm.rejoin_host(host, now, &mut region.nodes).is_err() {
            return false;
        }
        Self::region_tick(region, now);
        true
    }

    /// All hosts currently registered in `region_idx`'s SM that sit in
    /// `rack` (sorted; includes dead hosts — an outage takes down the
    /// whole rack regardless of process state).
    pub fn hosts_in_rack(&self, region_idx: usize, rack: Rack) -> Vec<HostId> {
        let region = &self.regions[region_idx];
        let mut hosts: Vec<HostId> = region
            .sm
            .host_ids()
            .filter(|&h| region.sm.host_info(h).is_some_and(|i| i.rack == rack))
            .collect();
        hosts.sort();
        hosts
    }

    /// Same-table partition collisions across the whole deployment: the
    /// number of `(host, table)` pairs where one node owns **more than
    /// one** shard carrying partitions of the same table — exactly what
    /// the §IV-A veto exists to prevent. Creation-time placement keeps
    /// this at zero while capacity allows; migrations and failovers must
    /// never introduce one.
    pub fn same_table_collisions(&self) -> usize {
        use std::collections::BTreeMap;
        let catalog = self.catalog.read();
        let mut collisions = 0usize;
        for region in &self.regions {
            let hosts: Vec<HostId> = region.nodes.hosts().collect();
            for host in hosts {
                let Some(node) = region.nodes.node(host) else {
                    continue;
                };
                let mut shards_per_table: BTreeMap<Arc<str>, u32> = BTreeMap::new();
                for shard in node.owned_shards() {
                    let mut tables: Vec<Arc<str>> = catalog
                        .partitions_of_shard(shard)
                        .iter()
                        .map(|(t, _)| t.clone())
                        .collect();
                    tables.sort();
                    tables.dedup();
                    for t in tables {
                        *shards_per_table.entry(t).or_insert(0) += 1;
                    }
                }
                collisions += shards_per_table.values().filter(|&&n| n > 1).count();
            }
        }
        collisions
    }

    // ------------------------------------------------------------------- time

    /// Advance SM machinery in every region (heartbeats, failover
    /// retries, migration state machines).
    ///
    /// Every non-crashed host heartbeats first: the simulation advances
    /// time in jumps, and a live application server would have been
    /// heartbeating continuously through the jump. Only genuinely
    /// crashed processes go silent and get expired.
    pub fn tick(&mut self, now: SimTime) {
        for region in &mut self.regions {
            Self::region_tick(region, now);
        }
    }

    fn region_tick(region: &mut RegionState, now: SimTime) {
        // The live hosts change only with membership or the down set.
        let nodes = &region.nodes;
        let live = || nodes.hosts().filter(|&h| !nodes.is_down(h));
        region.sm.heartbeat_all(nodes.changes(), live, now);
        region.sm.tick(now, &mut region.nodes);
    }

    // ------------------------------------------------- coordination plane ops

    /// Crash every coordination replica homed in `home_region`, across
    /// all regions' ensembles (the fault DSL's `ZkNodeCrash`, and the
    /// coordinator-side effect of a region outage). Without replication
    /// the one replica is homed in no region, so nothing crashes.
    pub fn zk_crash_region(&mut self, home_region: u32) {
        for region in &mut self.regions {
            region.sm.coordination_mut().crash_home(home_region);
        }
    }

    pub fn zk_restore_region(&mut self, home_region: u32) {
        for region in &mut self.regions {
            region.sm.coordination_mut().restore_home(home_region);
        }
    }

    /// Sever coordination traffic between replicas homed in regions `a`
    /// and `b` (the coordinator-side effect of a `RegionPartition`).
    pub fn zk_partition(&mut self, a: u32, b: u32) {
        for region in &mut self.regions {
            region.sm.coordination_mut().cut_regions(a, b);
        }
    }

    pub fn zk_heal(&mut self, a: u32, b: u32) {
        for region in &mut self.regions {
            region.sm.coordination_mut().heal_regions(a, b);
        }
    }

    /// Total coordination-leader failovers across all regional ensembles.
    pub fn zk_failovers(&self) -> u64 {
        self.regions
            .iter()
            .map(|r| r.sm.coordination().failovers())
            .sum()
    }

    /// Total `SessionMoved` reconnect handshakes absorbed by SM clients.
    pub fn zk_session_moves(&self) -> u64 {
        self.regions
            .iter()
            .map(|r| r.sm.coordination().session_moves())
            .sum()
    }

    /// Collect application metrics in every region.
    pub fn collect_metrics(&mut self) {
        for region in &mut self.regions {
            region.sm.collect_metrics(&mut region.nodes);
        }
    }

    /// Run one load-balancing pass in every region. Returns migrations
    /// started.
    pub fn run_load_balancers(&mut self, now: SimTime) -> usize {
        let mut started = 0;
        for region in &mut self.regions {
            started += region.sm.run_load_balancer(now, &mut region.nodes);
        }
        started
    }

    /// Fleet-wide completed migration count (all regions).
    pub fn total_migrations(&self) -> usize {
        self.regions
            .iter()
            .map(|r| r.sm.migration_history().len())
            .sum()
    }
}

impl std::fmt::Debug for Deployment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Deployment")
            .field("regions", &self.regions.len())
            .field("hosts_per_region", &self.config.hosts_per_region)
            .field("tables", &self.catalog.read().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubrick::schema::SchemaBuilder;
    use cubrick::value::Value;
    use scalewall_sim::SimDuration;

    fn schema() -> Arc<Schema> {
        Arc::new(
            SchemaBuilder::new()
                .int_dim("k", 0, 1_000, 50)
                .metric("m")
                .build()
                .unwrap(),
        )
    }

    fn small() -> Deployment {
        Deployment::new(DeploymentConfig {
            regions: 3,
            hosts_per_region: 8,
            max_shards: 1_000,
            ..Default::default()
        })
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// A config SM refuses and a repair the coordination plane refuses
    /// are typed outcomes that keep SM's reason, not panics; a restore
    /// after a refused session close goes through once the plane is back.
    #[test]
    fn refused_registrations_degrade() {
        // A headroom above 1 is no valid app spec: the deployment still
        // builds, and every table creation answers with SM's refusal.
        let mut dep = Deployment::new(DeploymentConfig {
            balancer: BalancerConfig {
                capacity_headroom: 1.5,
                ..Default::default()
            },
            ..Default::default()
        });
        let refused = dep
            .create_table(
                "t",
                schema(),
                4,
                RowMapping::Hash,
                ShardMapping::Monotonic,
                t(0),
            )
            .unwrap_err();
        let CubrickError::Internal { detail } = &refused else {
            panic!("not the construction refusal: {refused:?}");
        };
        assert!(
            detail.contains("capacity_headroom must be in [0,1]"),
            "SM's reason is lost: {detail}"
        );
        assert!(
            dep.catalog.read().get("t").is_err(),
            "a refused table must not reach the catalog"
        );

        // A repair while two of three coordination homes are down finds no
        // leader: no replacement registers, and the same repair goes
        // through once the ensemble is back.
        let sm = SmConfig {
            replication: Some(scalewall_zk::ZkReplicationConfig::default()),
            ..Default::default()
        };
        let mut dep = Deployment::new(DeploymentConfig {
            hosts_per_region: 4,
            sm,
            ..Default::default()
        });
        let victim = HostId(0);
        dep.fail_host(0, victim, t(1));
        dep.zk_crash_region(0);
        dep.zk_crash_region(1);
        for s in 2..60 {
            dep.tick(t(s));
        }
        assert_eq!(dep.replace_host(0, victim, t(60)), None);
        assert_eq!(
            dep.regions[0].nodes.len(),
            4,
            "no node without a registration"
        );
        dep.zk_restore_region(0);
        dep.zk_restore_region(1);
        for s in 61..120 {
            dep.tick(t(s));
        }
        assert!(dep.replace_host(0, victim, t(120)).is_some());

        // A host failed while the plane has no quorum keeps its session in
        // the plane (the close is refused) until that session expires. An
        // in-place restore inside that window opens a second session and
        // goes through.
        let host = HostId(1);
        assert_eq!(dep.regions[0].sm.host_state(host), Some(HostState::Alive));
        dep.zk_crash_region(0);
        dep.zk_crash_region(1);
        dep.fail_host(0, host, t(121));
        dep.zk_restore_region(0);
        dep.zk_restore_region(1);
        for s in 122..=126 {
            dep.tick(t(s));
        }
        assert!(dep.restore_host(0, host, t(126)));
    }

    #[test]
    fn construction_registers_everything() {
        let dep = small();
        assert_eq!(dep.regions.len(), 3);
        for region in &dep.regions {
            assert_eq!(region.nodes.len(), 8);
            assert_eq!(region.sm.alive_host_count(), 8);
        }
    }

    #[test]
    fn create_table_allocates_in_all_regions() {
        let mut dep = small();
        dep.create_table(
            "t",
            schema(),
            8,
            RowMapping::Hash,
            ShardMapping::Monotonic,
            t(0),
        )
        .unwrap();
        let shards = dep.catalog.read().shards_of_table("t").unwrap();
        assert_eq!(shards.len(), 8);
        for region in &dep.regions {
            for &s in &shards {
                let host = region.authoritative_host(s).expect("allocated");
                assert!(region.nodes.node(host).unwrap().owns_shard(s));
            }
        }
    }

    #[test]
    fn ingest_replicates_to_all_regions() {
        let mut dep = small();
        let def = dep
            .create_table(
                "t",
                schema(),
                4,
                RowMapping::Hash,
                ShardMapping::Monotonic,
                t(0),
            )
            .unwrap();
        let rows: Vec<Row> = (0..500)
            .map(|k| Row::new(vec![Value::Int(k % 1_000)], vec![1.0]))
            .collect();
        dep.ingest("t", &rows).unwrap();
        for region in &dep.regions {
            let store = region.store.read();
            let total: u64 = (0..def.partitions)
                .filter_map(|p| store.partition("t", p))
                .map(|d| d.rows())
                .sum();
            assert_eq!(total, 500);
        }
    }

    /// The error contract: a batch with refused rows leaves every region
    /// with the same rows in every partition — what each partition took
    /// before its first refused row, for partitions up to the lowest one
    /// holding a refused row, nothing for the partitions after it — and
    /// returns that partition's first refusal.
    #[test]
    fn refused_rows_leave_regions_identical() {
        use scalewall_sim::prop::{self, gen};
        prop::check_n(
            "refused_rows_leave_regions_identical",
            24,
            |rng| {
                // Keys at or past 1 000 are out of the dimension's range.
                let keys = gen::vec_with(rng, 1, 120, |r| match r.below(12) {
                    0 => 1_000 + r.below(50) as i64,
                    _ => r.below(1_000) as i64,
                });
                (keys, gen::any_u64(rng))
            },
            |(keys, seed)| {
                let mut dep = Deployment::new(DeploymentConfig {
                    regions: 3,
                    hosts_per_region: 8,
                    max_shards: 1_000,
                    seed: *seed,
                    ..Default::default()
                });
                let def = dep
                    .create_table(
                        "t",
                        schema(),
                        4,
                        RowMapping::Hash,
                        ShardMapping::Monotonic,
                        t(0),
                    )
                    .unwrap();
                let rows: Vec<Row> = (keys.iter().zip(0..))
                    .map(|(&k, i)| Row::new(vec![Value::Int(k)], vec![f64::from(i)]))
                    .collect();
                let outcome = dep.ingest("t", &rows);

                // Hash mapping ignores the entropy, so the routing can be
                // recomputed here.
                let mut want: Vec<Vec<Row>> = vec![Vec::new(); def.partitions as usize];
                let mut first_refusal: Vec<Option<i64>> = vec![None; def.partitions as usize];
                for (row, &k) in rows.iter().zip(keys) {
                    let p = def.partition_of_row(row, 0) as usize;
                    match first_refusal[p] {
                        None if k >= 1_000 => first_refusal[p] = Some(k),
                        None => want[p].push(row.clone()),
                        Some(_) => {}
                    }
                }
                let failing = first_refusal.iter().position(Option::is_some);
                if let Some(p) = failing {
                    for later in &mut want[p + 1..] {
                        later.clear();
                    }
                }
                match (outcome, failing.and_then(|p| first_refusal[p])) {
                    (Ok(()), None) => {}
                    (Err(CubrickError::ValueOutOfRange { detail, .. }), Some(k)) => {
                        assert!(
                            detail.starts_with(&format!("{k} ")),
                            "{detail} is not about {k}"
                        )
                    }
                    (outcome, refusal) => panic!("{outcome:?} for first refusal {refusal:?}"),
                }
                for region in &dep.regions {
                    let store = region.store.read();
                    for (p, want) in (0..).zip(&want) {
                        // Stored order is brick order; compare as sorted
                        // by the metric, which numbers the batch's rows.
                        let mut got = store.partition("t", p).map_or(Vec::new(), |d| d.all_rows());
                        got.sort_by(|a, b| a.metrics[0].total_cmp(&b.metrics[0]));
                        assert_eq!(&got, want, "partition {p}");
                    }
                }
            },
        );
    }

    #[test]
    fn drop_table_cleans_up() {
        let mut dep = small();
        dep.create_table(
            "t",
            schema(),
            4,
            RowMapping::Hash,
            ShardMapping::Monotonic,
            t(0),
        )
        .unwrap();
        let shards = dep.catalog.read().shards_of_table("t").unwrap();
        dep.drop_table("t", t(1)).unwrap();
        assert!(dep.catalog.read().is_empty());
        for region in &dep.regions {
            for &s in &shards {
                assert!(region.authoritative_host(s).is_none());
            }
        }
    }

    #[test]
    fn host_failure_fails_over_within_region() {
        let mut dep = small();
        // 4 partitions over 8 hosts: failover targets without a partition
        // of "t" exist, so the collision veto does not block recovery.
        dep.create_table(
            "t",
            schema(),
            4,
            RowMapping::Hash,
            ShardMapping::Monotonic,
            t(0),
        )
        .unwrap();
        let shards = dep.catalog.read().shards_of_table("t").unwrap();
        let victim = dep.regions[0].authoritative_host(shards[0]).unwrap();
        dep.fail_host(0, victim, t(100));
        // Run failover to completion.
        dep.tick(t(100) + SimDuration::from_hours(1));
        let new_host = dep.regions[0].authoritative_host(shards[0]).unwrap();
        assert_ne!(new_host, victim);
        assert!(dep.regions[0]
            .nodes
            .node(new_host)
            .unwrap()
            .shard_ready(shards[0]));
        // Other regions untouched.
        for r in 1..3 {
            assert!(dep.regions[r].authoritative_host(shards[0]).is_some());
        }
    }

    #[test]
    fn failover_blocked_by_veto_unblocks_on_repair() {
        // 8 partitions over 8 hosts: every host owns a partition of "t",
        // so failover of a dead host's shard is vetoed everywhere until
        // the repair workflow adds fresh capacity.
        let mut dep = small();
        dep.create_table(
            "t",
            schema(),
            8,
            RowMapping::Hash,
            ShardMapping::Monotonic,
            t(0),
        )
        .unwrap();
        let shards = dep.catalog.read().shards_of_table("t").unwrap();
        let victim = dep.regions[0].authoritative_host(shards[0]).unwrap();
        dep.fail_host(0, victim, t(10));
        dep.tick(t(3_600));
        // Still stuck on the dead host: nowhere to go.
        assert_eq!(dep.regions[0].authoritative_host(shards[0]), Some(victim));
        // Repair registers a replacement; the queued failover lands on it.
        let replacement = dep.replace_host(0, victim, t(7_200)).unwrap();
        dep.tick(t(7_200) + SimDuration::from_hours(2));
        assert_eq!(
            dep.regions[0].authoritative_host(shards[0]),
            Some(replacement)
        );
        assert!(dep.decommission_if_drained(0, victim));
    }

    #[test]
    fn replace_host_repair_workflow() {
        let mut dep = small();
        dep.create_table(
            "t",
            schema(),
            4,
            RowMapping::Hash,
            ShardMapping::Monotonic,
            t(0),
        )
        .unwrap();
        let shards = dep.catalog.read().shards_of_table("t").unwrap();
        let victim = dep.regions[0].authoritative_host(shards[0]).unwrap();
        dep.fail_host(0, victim, t(10));
        dep.tick(t(10) + SimDuration::from_hours(1));
        let replacement = dep.replace_host(0, victim, t(7_200)).expect("replaceable");
        assert!(dep.regions[0].nodes.node(replacement).is_some());
        assert!(dep.regions[0].sm.host_state(victim).is_none());
        assert_eq!(dep.regions[0].sm.alive_host_count(), 8);
    }

    #[test]
    fn repartition_grows_table_and_moves_shards() {
        let mut dep = small();
        dep.create_table(
            "t",
            schema(),
            4,
            RowMapping::Hash,
            ShardMapping::Monotonic,
            t(0),
        )
        .unwrap();
        let rows: Vec<Row> = (0..400)
            .map(|k| Row::new(vec![Value::Int(k % 1_000)], vec![1.0]))
            .collect();
        dep.ingest("t", &rows).unwrap();
        let shuffled = dep.repartition("t", 8, t(100)).unwrap();
        assert_eq!(shuffled, 400);
        assert_eq!(dep.catalog.read().get("t").unwrap().partitions, 8);
        let shards = dep.catalog.read().shards_of_table("t").unwrap();
        assert_eq!(shards.len(), 8);
        for region in &dep.regions {
            // All shards allocated; all data still present.
            for &s in &shards {
                assert!(region.authoritative_host(s).is_some());
            }
            let store = region.store.read();
            let total: u64 = (0..8)
                .filter_map(|p| store.partition("t", p))
                .map(|d| d.rows())
                .sum();
            assert_eq!(total, 400);
        }
        // Same count is a no-op; an unknown table is an error.
        assert_eq!(dep.repartition("t", 8, t(101)).unwrap(), 0);
        assert!(dep.repartition("zz", 8, t(101)).is_err());
    }

    /// A re-partition keeps the ingest contract: every region holds the
    /// same rows in every partition, even when the row mapping draws.
    #[test]
    fn repartition_leaves_regions_identical() {
        let mut dep = small();
        dep.create_table(
            "t",
            schema(),
            8,
            RowMapping::Random,
            ShardMapping::Monotonic,
            t(0),
        )
        .unwrap();
        let rows: Vec<Row> = (0..600)
            .map(|k| Row::new(vec![Value::Int(k % 1_000)], vec![k as f64]))
            .collect();
        dep.ingest("t", &rows).unwrap();
        assert_eq!(dep.repartition("t", 16, t(100)).unwrap(), 600);
        // Stored order is brick order; compare sorted by the metric, which
        // numbers the rows.
        let partition_rows = |region: &RegionState, p| {
            let store = region.store.read();
            let mut got = store.partition("t", p).map_or(Vec::new(), |d| d.all_rows());
            got.sort_by(|a, b| a.metrics[0].total_cmp(&b.metrics[0]));
            got
        };
        let mut total = 0;
        for p in 0..16 {
            let want = partition_rows(&dep.regions[0], p);
            total += want.len();
            for region in &dep.regions[1..] {
                assert_eq!(partition_rows(region, p), want, "partition {p}");
            }
        }
        assert_eq!(total, 600);
    }

    /// A string dimension whose dictionary fills part-way through most
    /// runs (24 ids, 40 strings), so batches are refused mid-slice.
    fn replica_schema() -> Arc<Schema> {
        Arc::new(
            SchemaBuilder::new()
                .int_dim("ds", 0, 100, 10)
                .str_dim("entity", 24, 6)
                .metric("clicks")
                .metric("cost")
                .build()
                .unwrap(),
        )
    }

    /// Rows for [`replica_schema`]; one in 40 has a day out of range.
    fn replica_row(rng: &mut SimRng) -> Row {
        let ds = if rng.chance(0.025) {
            100
        } else {
            rng.below(100)
        } as i64;
        let entity = format!("e{}", rng.below(40));
        Row::new(
            vec![Value::Int(ds), Value::from(entity.as_str())],
            vec![rng.below(100) as f64, rng.unit()],
        )
    }

    #[derive(Debug)]
    enum ReplicaOp {
        Create {
            table: usize,
            partitions: u32,
            random: bool,
        },
        Ingest {
            table: usize,
            rows: usize,
            seed: u64,
        },
        Repartition {
            table: usize,
            partitions: u32,
        },
        Drop {
            table: usize,
        },
    }

    /// What a replica property compares of one partition: every string
    /// dictionary's strings in id order, the stored rows, the brick
    /// census, the footprint and the hotness.
    fn partition_view(data: &cubrick::store::PartitionData) -> impl PartialEq + std::fmt::Debug {
        let dims = 0..data.schema().dimensions.len();
        let dicts: Vec<Vec<String>> = (dims.filter_map(|d| data.dict(d)))
            .map(|dict| {
                (0..dict.len() as u32)
                    .filter_map(|id| dict.decode(id))
                    .map(str::to_string)
                    .collect()
            })
            .collect();
        let footprint = data.memory_footprint();
        (
            dicts,
            data.all_rows(),
            data.brick_census(),
            footprint,
            data.hotness_snapshot(),
        )
    }

    /// Encode-once ingest against one standalone partition per region
    /// partition, fed the same slices through `PartitionData::ingest_batch`
    /// (the per-region path): over creates, ingests refused mid-slice,
    /// re-partitions and drop / re-create, every region's partition equals
    /// the standalone one, dictionaries included.
    #[test]
    fn every_region_equals_a_standalone_partition() {
        use cubrick::store::PartitionData;
        use scalewall_sim::prop::{self, gen};
        prop::check_n(
            "every_region_equals_a_standalone_partition",
            24,
            |rng| {
                // Both tables first, then anything (a drop, then a create
                // re-creates).
                let create = |table, r: &mut SimRng| ReplicaOp::Create {
                    table,
                    partitions: 1 + r.below(4) as u32,
                    random: r.chance(0.5),
                };
                let mut ops = vec![create(0, rng), create(1, rng)];
                ops.extend(gen::vec_with(rng, 1, 12, |r| {
                    let table = r.below(2) as usize;
                    match r.below(8) {
                        0 => create(table, r),
                        1 => ReplicaOp::Repartition {
                            table,
                            partitions: 1 + r.below(6) as u32,
                        },
                        2 => ReplicaOp::Drop { table },
                        _ => ReplicaOp::Ingest {
                            table,
                            rows: r.below(80) as usize,
                            seed: gen::any_u64(r),
                        },
                    }
                }));
                (ops, gen::any_u64(rng))
            },
            |(ops, seed)| {
                let mut dep = Deployment::new(DeploymentConfig {
                    regions: 3,
                    hosts_per_region: 6,
                    max_shards: 1_000,
                    seed: *seed,
                    ..Default::default()
                });
                let names = ["t0", "t1"];
                let mut model: [Option<BTreeMap<u32, PartitionData>>; 2] = [None, None];
                for (op, s) in ops.iter().zip(1..) {
                    match *op {
                        ReplicaOp::Create {
                            table,
                            partitions,
                            random,
                        } => {
                            let mapping = if random {
                                RowMapping::Random
                            } else {
                                RowMapping::Hash
                            };
                            let created = dep.create_table(
                                names[table],
                                replica_schema(),
                                partitions,
                                mapping,
                                ShardMapping::Monotonic,
                                t(s),
                            );
                            assert_eq!(created.is_ok(), model[table].is_none(), "{op:?}");
                            model[table].get_or_insert_with(BTreeMap::new);
                        }
                        ReplicaOp::Ingest { table, rows, seed } => {
                            let mut rng = SimRng::new(seed);
                            let rows: Vec<Row> = (0..rows).map(|_| replica_row(&mut rng)).collect();
                            let mut route_rng = dep.rng.clone();
                            let outcome = dep.ingest(names[table], &rows);
                            let Some(parts) = &mut model[table] else {
                                assert!(outcome.is_err());
                                continue;
                            };
                            let def = dep.catalog.read().get(names[table]).unwrap().clone();
                            let mut want = Ok(());
                            for (p, slice) in
                                (0..).zip(def.route_rows(&rows, || route_rng.next_u64()))
                            {
                                if want.is_ok() && !slice.is_empty() {
                                    let data = parts
                                        .entry(p)
                                        .or_insert_with(|| PartitionData::new(def.schema.clone()));
                                    want = data.ingest_batch(&slice);
                                }
                            }
                            assert_eq!(outcome, want);
                        }
                        ReplicaOp::Repartition { table, partitions } => {
                            let mut route_rng = dep.rng.clone();
                            let old = dep.catalog.read().get(names[table]).ok().cloned();
                            let moved = dep.repartition(names[table], partitions, t(s));
                            let (Some(parts), Some(old)) = (&mut model[table], old) else {
                                assert!(moved.is_err());
                                continue;
                            };
                            if old.partitions == partitions {
                                continue;
                            }
                            let new = dep.catalog.read().get(names[table]).unwrap().clone();
                            let rows: Vec<Row> =
                                parts.values().flat_map(PartitionData::all_rows).collect();
                            assert_eq!(moved, Ok(rows.len() as u64));
                            let routed = new.route_rows(&rows, || route_rng.next_u64());
                            *parts = (0..)
                                .zip(routed)
                                .map(|(p, slice)| {
                                    let mut data = PartitionData::new(new.schema.clone());
                                    data.ingest_batch(&slice).unwrap();
                                    (p, data)
                                })
                                .collect();
                        }
                        ReplicaOp::Drop { table } => {
                            let dropped = dep.drop_table(names[table], t(s));
                            assert_eq!(dropped.is_ok(), model[table].take().is_some());
                        }
                    }
                    for (name, parts) in names.iter().zip(&model) {
                        let Some(parts) = parts else { continue };
                        let def = dep.catalog.read().get(name).unwrap().clone();
                        for p in 0..def.partitions {
                            let fresh = PartitionData::new(def.schema.clone());
                            let want = partition_view(parts.get(&p).unwrap_or(&fresh));
                            for region in &dep.regions {
                                let store = region.store.read();
                                let got =
                                    partition_view(store.partition(name, p).unwrap_or(&fresh));
                                assert_eq!(got, want, "{name} partition {p} after {op:?}");
                            }
                        }
                    }
                }
            },
        );
    }

    /// A string in one region's dictionary that the others lack makes the
    /// next ingest into that partition `Internal`, whichever region has
    /// it: no region stores ordinals that mean another string there.
    #[test]
    fn a_diverged_dictionary_refuses_the_next_ingest() {
        for planted in 0..3 {
            let mut dep = small();
            dep.create_table(
                "t",
                replica_schema(),
                1,
                RowMapping::Hash,
                ShardMapping::Monotonic,
                t(0),
            )
            .unwrap();
            let mut rng = SimRng::new(planted as u64);
            let rows: Vec<Row> = (0..20)
                .map(|_| replica_row(&mut rng))
                .filter(|r| r.dims[0] != Value::Int(100))
                .collect();
            dep.ingest("t", &rows).unwrap();
            let stray = Row::new(vec![Value::Int(3), Value::from("stray")], vec![1.0, 1.0]);
            dep.regions[planted]
                .store
                .write()
                .partition_mut("t", 0)
                .unwrap()
                .ingest(&stray)
                .unwrap();
            let stored = |dep: &Deployment| -> Vec<u64> {
                dep.regions
                    .iter()
                    .map(|r| r.store.read().partition("t", 0).unwrap().rows())
                    .collect()
            };
            let before = stored(&dep);
            let outcome = dep.ingest("t", &rows[..5]);
            assert!(
                matches!(outcome, Err(CubrickError::Internal { .. })),
                "{outcome:?}"
            );
            // The regions whose dictionary agrees with the encoding
            // one's (region 0's) took the rows; the others nothing.
            let took = |r: usize| r == 0 || (planted != 0 && r != planted);
            let want: Vec<u64> = (0..3).map(|r| before[r] + 5 * took(r) as u64).collect();
            assert_eq!(stored(&dep), want, "planted in {planted}");
        }
    }

    #[test]
    fn auto_repartition_grows_then_shrinks_with_data() {
        use cubrick::repartition::{RepartitionDecision, RepartitionPolicy};
        let mut dep = small();
        dep.create_table(
            "t",
            schema(),
            8,
            RowMapping::Hash,
            ShardMapping::Monotonic,
            t(0),
        )
        .unwrap();
        let policy = RepartitionPolicy {
            partition_size_threshold: 2_000, // bytes; tiny for the test
            ..Default::default()
        };
        // Empty table: no action.
        assert_eq!(
            dep.check_repartition("t", &policy, t(1)).unwrap(),
            RepartitionDecision::None
        );
        // Load enough that partitions exceed the threshold.
        let rows: Vec<Row> = (0..3_000)
            .map(|k| Row::new(vec![Value::Int(k % 1_000)], vec![1.0]))
            .collect();
        dep.ingest("t", &rows).unwrap();
        assert_eq!(
            dep.check_repartition("t", &policy, t(2)).unwrap(),
            RepartitionDecision::Grow(16)
        );
        assert_eq!(dep.catalog.read().get("t").unwrap().partitions, 16);
        // Data still complete in every region.
        for region in &dep.regions {
            let store = region.store.read();
            let total: u64 = (0..16)
                .filter_map(|p| store.partition("t", p))
                .map(|d| d.rows())
                .sum();
            assert_eq!(total, 3_000);
        }
        // Shrinking policy (huge threshold): collapses back.
        let roomy = RepartitionPolicy {
            partition_size_threshold: 1 << 30,
            ..Default::default()
        };
        assert_eq!(
            dep.check_repartition("t", &roomy, t(3)).unwrap(),
            RepartitionDecision::Shrink(8)
        );
        assert_eq!(dep.catalog.read().get("t").unwrap().partitions, 8);
    }

    #[test]
    fn load_balancer_runs_clean_on_balanced_fleet() {
        let mut dep = small();
        dep.create_table(
            "t",
            schema(),
            8,
            RowMapping::Hash,
            ShardMapping::Monotonic,
            t(0),
        )
        .unwrap();
        dep.collect_metrics();
        let started = dep.run_load_balancers(t(60));
        // Fresh equal-weight allocation is already balanced.
        assert_eq!(started, 0);
        assert_eq!(dep.total_migrations(), 0);
    }

    /// The stuck-drain regression (ISSUE 2 satellite 4): a failover's
    /// *target* dies mid-copy. The aborted migration used to leave the
    /// shard assigned to the original dead host with nothing queued to
    /// retry it, so `decommission_if_drained` wedged forever. The fix
    /// re-queues the orphaned shard; a second replacement host must then
    /// receive it and both dead hosts must decommission.
    #[test]
    fn failover_retargets_when_replacement_dies_mid_copy() {
        let mut dep = small();
        // 8 partitions over 8 hosts: every failover is vetoed until the
        // repair workflow brings fresh capacity (same setup as
        // `failover_blocked_by_veto_unblocks_on_repair`).
        dep.create_table(
            "t",
            schema(),
            8,
            RowMapping::Hash,
            ShardMapping::Monotonic,
            t(0),
        )
        .unwrap();
        let shards = dep.catalog.read().shards_of_table("t").unwrap();
        let victim = dep.regions[0].authoritative_host(shards[0]).unwrap();
        dep.fail_host(0, victim, t(10));
        dep.tick(t(3_600));
        assert_eq!(dep.regions[0].authoritative_host(shards[0]), Some(victim));

        // Fresh capacity appears; the queued failover starts copying
        // (copy takes ≥ 250ms of fixed overhead)...
        let replacement = dep.replace_host(0, victim, t(7_200)).unwrap();
        dep.tick(t(7_200) + SimDuration::from_millis(50));
        // ...and the replacement dies mid-copy.
        dep.fail_host(0, replacement, t(7_200) + SimDuration::from_millis(100));
        // A tick sweeps the aborted record into history.
        dep.tick(t(7_200) + SimDuration::from_millis(200));
        let aborted = dep.regions[0]
            .sm
            .migration_history()
            .iter()
            .filter(|m| m.phase == scalewall_shard_manager::MigrationPhase::Failed)
            .count();
        assert!(aborted >= 1, "the in-flight failover copy must abort");
        // Nothing feasible yet — the shard must be *queued*, not wedged:
        // as soon as a second replacement registers, it lands there.
        let replacement2 = dep.replace_host(0, replacement, t(7_500)).unwrap();
        dep.tick(t(7_500) + SimDuration::from_hours(1));
        let finally = dep.regions[0].authoritative_host(shards[0]).unwrap();
        assert_eq!(finally, replacement2, "failover re-targeted after abort");
        assert!(dep.regions[0]
            .nodes
            .node(finally)
            .unwrap()
            .shard_ready(shards[0]));
        // Both dead hosts fully drained → decommissioned, not wedged.
        // (The aborted target never received the assignment, so its own
        // `replace_host` call decommissioned it on the spot.)
        assert!(dep.decommission_if_drained(0, victim));
        assert!(dep.regions[0].sm.host_state(replacement).is_none());
        assert_eq!(dep.same_table_collisions(), 0);
    }

    #[test]
    fn rack_topology_is_balanced_and_deterministic() {
        let config = || DeploymentConfig {
            regions: 2,
            hosts_per_region: 10,
            racks_per_region: 4,
            max_shards: 1_000,
            ..Default::default()
        };
        let a = Deployment::new(config());
        let b = Deployment::new(config());
        for r in 0..2 {
            let mut seen = Vec::new();
            for rack in 0..4 {
                let hosts = a.hosts_in_rack(r, Rack(rack));
                // Balanced: 10 hosts over 4 racks → racks of 2 or 3.
                assert!(
                    (2..=3).contains(&hosts.len()),
                    "rack {rack} has {} hosts",
                    hosts.len()
                );
                // Deterministic: same seed → same topology.
                assert_eq!(hosts, b.hosts_in_rack(r, Rack(rack)));
                seen.extend(hosts);
            }
            seen.sort();
            seen.dedup();
            assert_eq!(seen.len(), 10, "every host sits in exactly one rack");
        }
    }

    /// In-place restore after a transient crash: shards that could not
    /// fail over anywhere (veto) are handed back to the restarted host.
    #[test]
    fn restore_host_rejoins_with_stranded_assignments() {
        let mut dep = small();
        dep.create_table(
            "t",
            schema(),
            8,
            RowMapping::Hash,
            ShardMapping::Monotonic,
            t(0),
        )
        .unwrap();
        let shards = dep.catalog.read().shards_of_table("t").unwrap();
        let victim = dep.regions[0].authoritative_host(shards[0]).unwrap();
        dep.fail_host(0, victim, t(10));
        dep.tick(t(3_600));
        // Vetoed everywhere → still assigned to the dead host.
        assert_eq!(dep.regions[0].authoritative_host(shards[0]), Some(victim));
        assert!(!dep.restore_host(0, HostId(99_999), t(7_000)), "unknown");
        assert!(dep.restore_host(0, victim, t(7_200)));
        assert!(!dep.restore_host(0, victim, t(7_300)), "already alive");
        dep.tick(t(7_200) + SimDuration::from_hours(1));
        // Same host serves the shard again, process-level state rebuilt.
        assert_eq!(dep.regions[0].authoritative_host(shards[0]), Some(victim));
        assert!(dep.regions[0]
            .nodes
            .node(victim)
            .unwrap()
            .owns_shard(shards[0]));
        assert_eq!(dep.regions[0].sm.host_state(victim), Some(HostState::Alive));
        assert_eq!(dep.same_table_collisions(), 0);
    }
}
