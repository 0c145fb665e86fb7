//! The SM Server: assignment authority and orchestration loop.
//!
//! "This is the central SM scheduler that collects shard metrics for all
//! applications and makes shard placement decisions" (§III-A). Cubrick
//! runs one primary-only SM service per region (§IV-D), so a server here
//! serves exactly one application, the [`AppSpec`] it is built with. The
//! server owns:
//!
//! * the application's per-shard host assignments, weights and groups,
//! * host registrations, heartbeat liveness (via `scalewall-zk` sessions)
//!   and host lifecycle (alive → draining/dead),
//! * the migration engine (live / graceful / failover state machines),
//! * publication of shard→host mappings to service discovery,
//! * periodic metric collection and load-balancing runs.
//!
//! SM Server stays out of the data path by design: data movement happens
//! between application servers; the server only sequences endpoint calls
//! and tracks time ("This workflow excludes SM Server from the data
//! intensive path", §III-A).

use std::collections::BTreeMap;
use std::sync::Arc;

use scalewall_discovery::MappingStore;
use scalewall_sim::{DeadlineQueue, RngRoot, SimRng, SimTime};
use scalewall_zk::{CoordinationPlane, SessionId, ZkReplicationConfig};

use crate::app_server::{AddShardReason, AppServerRegistry, ShardContext};
use crate::balancer::{fleet_stats, rebalance, BalancerStats};
use crate::error::{SmError, SmResult};
use crate::ids::{HostId, HostInfo, HostState, ShardId};
use crate::migration::{
    copy_duration, MigrationCause, MigrationId, MigrationKind, MigrationPhase, MigrationRecord,
    PROPAGATION_WAIT,
};
use crate::placement::{select_candidates, Candidate, HostSnapshot, SpreadHint};
use crate::spec::{AppSpec, SpreadDomain};

/// Weight assumed for a shard before the first metrics collection.
pub const DEFAULT_SHARD_WEIGHT: f64 = 1.0;

/// Vetoed targets a placement may collect beyond one per host before it
/// gives up (applications veto with non-retryable errors).
const MAX_VETO_RETRIES: usize = 8;

/// What moves a migration out of its phase ([`SmServer::transition`]).
#[derive(Debug, Clone, Copy)]
enum Event {
    /// The phase's deadline passed: the copy or the propagation wait is over.
    DeadlineDue,
    /// An end of the migration died, or its shard was released.
    Abort,
}

/// Server-wide configuration.
#[derive(Debug, Clone)]
pub struct SmConfig {
    /// Placement randomization: new shards land on a uniformly random
    /// candidate among the `placement_jitter` least-loaded feasible
    /// hosts. `1` = strict least-loaded (deterministic). Production
    /// placement is effectively randomized at long horizons by
    /// load-balancing churn; experiments reproducing steady-state
    /// distributions (Fig 4a) raise this.
    pub placement_jitter: usize,
    /// Seed for the server's private RNG (placement jitter).
    pub seed: u64,
    /// The coordination ensemble heartbeat sessions go through, with
    /// lease-based leader failover. `None` runs one replica that no
    /// fault reaches ([`ZkReplicationConfig::unreplicated`]).
    pub replication: Option<ZkReplicationConfig>,
}

impl Default for SmConfig {
    fn default() -> Self {
        SmConfig {
            placement_jitter: 1,
            seed: 0x5337,
            replication: None,
        }
    }
}

#[derive(Debug)]
struct HostEntry {
    info: HostInfo,
    state: HostState,
    session: Option<SessionId>,
    /// The [`AppServer::metrics_stamp`] of the last report the poll
    /// applied; dropped by any poll that does not reach the host.
    stamp: Option<[u64; 3]>,
}

#[derive(Debug)]
struct AppState {
    spec: AppSpec,
    /// The host each shard is assigned to.
    assignments: BTreeMap<ShardId, HostId>,
    /// Last collected per-shard weights.
    weights: BTreeMap<ShardId, f64>,
    /// Optional anti-affinity group per shard (e.g. all shards holding
    /// partitions of one table). Placement softly spreads a group across
    /// hosts and racks; see [`SpreadHint`].
    groups: BTreeMap<ShardId, u64>,
    /// `groups` inverted, no group empty: the members a hint visits.
    members: BTreeMap<u64, Vec<ShardId>>,
}

impl AppState {
    fn weight_of(&self, shard: ShardId) -> f64 {
        self.weights
            .get(&shard)
            .copied()
            .unwrap_or(DEFAULT_SHARD_WEIGHT)
    }

    /// Shards assigned to `host`, ascending.
    fn shards_on(&self, host: HostId) -> impl Iterator<Item = ShardId> + '_ {
        self.assignments
            .iter()
            .filter(move |&(_, &h)| h == host)
            .map(|(&s, _)| s)
    }

    fn join_group(&mut self, shard: ShardId, group: u64) {
        self.groups.insert(shard, group);
        self.members.entry(group).or_default().push(shard);
    }

    /// Withdraw `shard` from its group, if it has one; a group left with
    /// no member is dropped.
    fn leave_group(&mut self, shard: ShardId) {
        if let Some(group) = self.groups.remove(&shard) {
            let members = self.members.entry(group).or_default();
            members.retain(|&s| s != shard);
            if members.is_empty() {
                self.members.remove(&group);
            }
        }
    }
}

/// The SM server of one application.
pub struct SmServer {
    config: SmConfig,
    app: AppState,
    hosts: BTreeMap<HostId, HostEntry>,
    /// How many of `hosts` each rack domain holds, no count zero.
    racks: BTreeMap<u64, usize>,
    zk: CoordinationPlane,
    /// The shard→host mappings service discovery serves. SM Server is
    /// their only writer; discovery clients borrow them per lookup.
    mappings: MappingStore,
    active: BTreeMap<u64, MigrationRecord>,
    /// Phase deadlines of in-flight migrations on the simulation kernel's
    /// deadline queue, so `advance_migrations` visits only the due ones
    /// instead of scanning every active record each tick. Armed whenever
    /// a record's `deadline` is set; entries for finished or re-phased
    /// migrations are re-validated (and dropped or re-armed) when they
    /// fire.
    deadlines: DeadlineQueue<u64>,
    deadline_scratch: Vec<u64>,
    history: Vec<MigrationRecord>,
    next_migration: u64,
    /// Failovers that found no feasible target; retried on each tick.
    pending_failovers: Vec<ShardId>,
    /// host-id ↔ zk session bookkeeping for heartbeat expiry handling.
    session_hosts: BTreeMap<SessionId, HostId>,
    /// The last heartbeat round's sessions and the caller's fleet version
    /// they were listed at; dropped by every write to a host's `session`.
    heartbeat: Option<(u64, Arc<[SessionId]>)>,
    rng: SimRng,
    /// Per-host load (sum of its shards' weights), cached so placement is
    /// O(hosts) instead of O(total assignments). Moved by a delta on every
    /// assignment change; re-summed in shard order by the metric poll
    /// when a weight moved or a delta landed since the last re-sum (a
    /// running sum is not bit-equal to that order's, and the balancer
    /// reads the bits).
    loads: BTreeMap<HostId, f64>,
    /// `loads` was written since [`Self::rebuild_loads`] last ran.
    loads_written: bool,
}

impl SmServer {
    /// The server of the one application `spec` describes. The spec is
    /// taken as given; [`AppSpec::validate`] is the caller's check.
    pub fn new(config: SmConfig, spec: AppSpec) -> Self {
        let unreplicated = ZkReplicationConfig::unreplicated();
        SmServer {
            zk: CoordinationPlane::new(config.replication.as_ref().unwrap_or(&unreplicated)),
            rng: RngRoot::new(config.seed).into_rng(),
            config,
            app: AppState {
                spec,
                assignments: BTreeMap::new(),
                weights: BTreeMap::new(),
                groups: BTreeMap::new(),
                members: BTreeMap::new(),
            },
            hosts: BTreeMap::new(),
            racks: BTreeMap::new(),
            mappings: MappingStore::new(),
            active: BTreeMap::new(),
            deadlines: DeadlineQueue::new(),
            deadline_scratch: Vec::new(),
            history: Vec::new(),
            next_migration: 0,
            pending_failovers: Vec::new(),
            session_hosts: BTreeMap::new(),
            heartbeat: None,
            loads: BTreeMap::new(),
            loads_written: false,
        }
    }

    /// The mappings this server has published to service discovery.
    pub fn mappings(&self) -> &MappingStore {
        &self.mappings
    }

    pub fn config(&self) -> &SmConfig {
        &self.config
    }

    // ----------------------------------------------------------- coordination

    /// The coordination plane this server registers sessions against.
    /// Fault injection (region outages, `ZkNodeCrash`, partitions) and
    /// health reporting go through this handle.
    pub fn coordination(&self) -> &CoordinationPlane {
        &self.zk
    }

    pub fn coordination_mut(&mut self) -> &mut CoordinationPlane {
        &mut self.zk
    }

    // ------------------------------------------------------------------ hosts

    /// Register a host and open its heartbeat session.
    pub fn register_host(&mut self, info: HostInfo, now: SimTime) -> SmResult<()> {
        if self.hosts.contains_key(&info.id) {
            return Err(SmError::HostExists { host: info.id });
        }
        let session = self.open_host_session(info.id, now)?;
        let rack = info.domain(SpreadDomain::Rack);
        *self.racks.entry(rack).or_default() += 1;
        self.hosts.insert(
            info.id,
            HostEntry {
                info,
                state: HostState::Alive,
                session: Some(session),
                stamp: None,
            },
        );
        Ok(())
    }

    /// Open `host`'s heartbeat session. A plane that cannot be reached
    /// (no leader within the retry budget) refuses; the caller retries
    /// after failover, exactly like against real ZooKeeper.
    fn open_host_session(&mut self, host: HostId, now: SimTime) -> SmResult<SessionId> {
        let session = self
            .zk
            .create_session(now)
            .map_err(|_| SmError::BadHostState {
                host,
                reason: "coordination plane unavailable",
            })?;
        self.session_hosts.insert(session, host);
        self.heartbeat = None;
        Ok(session)
    }

    /// One heartbeat round from the application server of every host
    /// `live` lists, recorded by the coordination plane as a single
    /// commit. Unknown and session-less hosts are skipped.
    ///
    /// Heartbeats assert a server was alive for the whole interval since
    /// its previous beat, so they refresh its session even when the
    /// simulation advanced time past the session timeout in one jump —
    /// as long as SM has not yet processed the expiry.
    ///
    /// The session list is kept from round to round and rebuilt only when
    /// it can differ: a host's session was opened or closed here (which
    /// drops the list), or the caller's fleet changed. `fleet_version` is
    /// the caller's word for that: it passes the same number only while
    /// `live()` would list the same hosts as when it last passed it.
    pub fn heartbeat_all<I: IntoIterator<Item = HostId>>(
        &mut self,
        fleet_version: u64,
        live: impl FnOnce() -> I,
        now: SimTime,
    ) {
        if self
            .heartbeat
            .as_ref()
            .is_none_or(|(at, _)| *at != fleet_version)
        {
            let sessions = live()
                .into_iter()
                .filter_map(|h| self.hosts.get(&h)?.session);
            self.heartbeat = Some((fleet_version, sessions.collect()));
        }
        if let Some((_, sessions)) = &self.heartbeat {
            self.zk.refresh_sessions(sessions.clone(), now);
        }
    }

    /// The sessions the last heartbeat round refreshed (none once a
    /// session write has dropped the list).
    pub fn heartbeat_sessions(&self) -> &[SessionId] {
        self.heartbeat
            .as_ref()
            .map_or(&[], |(_, sessions)| sessions)
    }

    /// The heartbeat session `host` holds (none while it is dead).
    pub fn host_session(&self, host: HostId) -> Option<SessionId> {
        self.hosts.get(&host)?.session
    }

    pub fn host_state(&self, host: HostId) -> Option<HostState> {
        self.hosts.get(&host).map(|h| h.state)
    }

    pub fn host_info(&self, host: HostId) -> Option<&HostInfo> {
        self.hosts.get(&host).map(|h| &h.info)
    }

    pub fn host_ids(&self) -> impl Iterator<Item = HostId> + '_ {
        self.hosts.keys().copied()
    }

    pub fn alive_host_count(&self) -> usize {
        self.hosts
            .values()
            .filter(|h| h.state == HostState::Alive)
            .count()
    }

    /// Total load (sum of shard weights) currently assigned to `host`.
    pub fn host_load(&self, host: HostId) -> f64 {
        self.loads.get(&host).copied().unwrap_or(0.0)
    }

    fn load_delta(&mut self, host: HostId, delta: f64) {
        self.loads_written = true;
        let entry = self.loads.entry(host).or_insert(0.0);
        *entry += delta;
        if *entry < 0.0 {
            *entry = 0.0; // floating-point dust
        }
    }

    /// Recompute the load cache from scratch (after bulk weight updates).
    fn rebuild_loads(&mut self) {
        self.loads_written = false;
        let mut loads: BTreeMap<HostId, f64> = BTreeMap::new();
        for (&shard, &h) in &self.app.assignments {
            *loads.entry(h).or_insert(0.0) += self.app.weight_of(shard);
        }
        self.loads = loads;
    }

    /// Every host with its load, ascending: one merge of `hosts` and
    /// `loads`, which share that order.
    fn snapshots(&self) -> impl Iterator<Item = HostSnapshot> + '_ {
        let mut loads = self.loads.iter().peekable();
        self.hosts.values().map(move |e| {
            while loads.next_if(|&(&h, _)| h < e.info.id).is_some() {}
            let load = loads.next_if(|&(&h, _)| h == e.info.id);
            HostSnapshot {
                info: e.info,
                state: e.state,
                load: load.map_or(0.0, |(_, &l)| l),
            }
        })
    }

    /// Fleet balance statistics (over placeable hosts).
    pub fn fleet_stats(&self) -> BalancerStats {
        fleet_stats(&self.snapshots().collect::<Vec<_>>())
    }

    // ------------------------------------------------------------- allocation

    /// Allocate a brand-new shard: place it, invoking `add_shard` on the
    /// target (vetoes move on to the next candidate), and publish the
    /// mapping. Shards sharing an anti-affinity `group` are softly spread
    /// across hosts and racks (fault-domain-aware placement), degrading
    /// to plain least-loaded when the group outgrows the topology.
    pub fn allocate_shard<R: AppServerRegistry>(
        &mut self,
        shard: ShardId,
        weight_hint: f64,
        group: Option<u64>,
        now: SimTime,
        registry: &mut R,
    ) -> SmResult<HostId> {
        let app = &mut self.app;
        if shard.0 >= app.spec.max_shards {
            return Err(SmError::ShardOutOfRange {
                shard,
                max_shards: app.spec.max_shards,
            });
        }
        if app.assignments.contains_key(&shard) {
            return Err(SmError::AlreadyAssigned { shard });
        }
        // What placement reads about a shard; withdrawn if it finds no home.
        app.weights.insert(shard, weight_hint);
        if let Some(g) = group {
            app.join_group(shard, g);
        }
        let ctx = ShardContext::new(shard, AddShardReason::NewAllocation, None);
        let jitter = self.config.placement_jitter;
        let host = match self.place(ctx, &mut Vec::new(), jitter, registry) {
            Ok(host) => host,
            Err(e) => {
                self.app.weights.remove(&shard);
                self.app.leave_group(shard);
                return Err(e);
            }
        };
        // A new shard has its data created in place: the copy is complete
        // immediately.
        if let Some(server) = registry.server(host) {
            server.on_copy_complete(ctx);
        }
        self.app.assignments.insert(shard, host);
        self.load_delta(host, weight_hint);
        self.publish(shard, now);
        Ok(host)
    }

    /// Soft anti-affinity hint for placing `shard`, through failovers and
    /// drains as much as at allocation: avoid the hosts holding another
    /// shard of its group (for a table the app would veto them anyway),
    /// and the racks holding more of them than the least-occupied rack.
    /// Best-effort — never shrinks the feasible set (see `placement.rs`).
    fn hint(&self, shard: ShardId) -> SpreadHint {
        let Some(group) = self.app.groups.get(&shard) else {
            return SpreadHint::none();
        };
        let members = self.app.members.get(group).into_iter().flatten();
        let others = members.filter(|&&s| s != shard);
        let mut avoid_hosts: Vec<HostId> = others
            .filter_map(|s| self.app.assignments.get(s).copied())
            .collect();
        avoid_hosts.sort_unstable();
        avoid_hosts.dedup();
        // Rack balance, not mere coverage: a rack is avoided when it already
        // holds strictly more group members than the least-occupied rack, so
        // sequential allocation round-robins and no rack ever ends up with
        // more than ⌈members/racks⌉ of the group (the bounded-blast-radius
        // guarantee a single-rack outage is measured against).
        let mut rack_members: BTreeMap<u64, u64> = BTreeMap::new();
        for e in avoid_hosts.iter().filter_map(|h| self.hosts.get(h)) {
            let rack = e.info.domain(SpreadDomain::Rack);
            *rack_members.entry(rack).or_default() += 1;
        }
        // A rack no member is on is the least occupied, at zero.
        let every_rack = rack_members.len() == self.racks.len();
        let min_members = rack_members.values().copied().min().filter(|_| every_rack);
        let avoid_domains = rack_members
            .iter()
            .filter(|&(_, &n)| n > min_members.unwrap_or(0));
        SpreadHint {
            avoid_hosts,
            avoid_domains: avoid_domains.map(|(&d, _)| d).collect(),
            domain_scope: SpreadDomain::Rack,
        }
    }

    /// The best `k` hosts outside `excluded` for `shard` at its weight on
    /// record, under `hint`: what allocation, failover and drain place by.
    fn select(
        &self,
        shard: ShardId,
        hint: &SpreadHint,
        excluded: &[HostId],
        k: usize,
    ) -> (Vec<Candidate>, usize) {
        select_candidates(
            self.snapshots(),
            self.app.weight_of(shard),
            self.app.spec.balancer.capacity_headroom,
            SpreadDomain::Host,
            &[],
            excluded,
            hint,
            k,
        )
    }

    /// Give the shard a host: offer it to the head of a
    /// [`select`](Self::select) through `add_shard(ctx)`; a target that
    /// refuses (or cannot be reached) joins `vetoed`, and the next offer
    /// selects without it. With `jitter > 1` each offer goes to a
    /// uniformly random one of the `jitter` best left.
    fn place<R: AppServerRegistry>(
        &mut self,
        ctx: ShardContext,
        vetoed: &mut Vec<HostId>,
        jitter: usize,
        registry: &mut R,
    ) -> SmResult<HostId> {
        let needed_weight = self.app.weight_of(ctx.shard);
        let hint = self.hint(ctx.shard);
        loop {
            let (best, class_len) = self.select(ctx.shard, &hint, vetoed, jitter.max(1));
            // Jitter randomizes among the least-loaded candidates but never
            // escapes the leading penalty class of the hint — otherwise it
            // would trade away the group's rack-spread guarantee.
            let span = jitter.min(class_len);
            let pick = if span > 1 {
                self.rng.below(span as u64) as usize
            } else {
                0
            };
            let Some(host) = best.get(pick).map(|c| c.host) else {
                return Err(SmError::NoFeasibleHost {
                    shard: ctx.shard,
                    needed_weight,
                });
            };
            if registry
                .server(host)
                .is_some_and(|server| server.add_shard(ctx).is_ok())
            {
                return Ok(host);
            }
            vetoed.push(host);
            if vetoed.len() > MAX_VETO_RETRIES + self.hosts.len() {
                return Err(SmError::AllTargetsVetoed {
                    shard: ctx.shard,
                    attempts: vetoed.len(),
                });
            }
        }
    }

    /// Remove a shard entirely: drop it on its host and retract the
    /// mapping. A migration under way is aborted with it, and with no
    /// assignment left its terminal rule drops the shard on both ends.
    pub fn deallocate_shard<R: AppServerRegistry>(
        &mut self,
        shard: ShardId,
        now: SimTime,
        registry: &mut R,
    ) -> SmResult<()> {
        let Some(host) = self.app.assignments.remove(&shard) else {
            return Err(SmError::NotAssigned { shard });
        };
        let weight = self
            .app
            .weights
            .remove(&shard)
            .unwrap_or(DEFAULT_SHARD_WEIGHT);
        self.app.leave_group(shard);
        self.load_delta(host, -weight);
        let migrating = self.in_flight_where(|m| m.shard == shard);
        // A migration's ends include the host it is assigned to.
        if migrating.is_empty() {
            let ctx = ShardContext::new(shard, AddShardReason::NewAllocation, None);
            if let Some(server) = registry.server(host) {
                let _ = server.drop_shard(ctx);
            }
        }
        for (id, _) in migrating {
            self.transition(id, Event::Abort, now, registry);
        }
        // No assignment left: this retracts the mapping.
        self.publish(shard, now);
        Ok(())
    }

    /// The host a shard is assigned to.
    pub fn host_of(&self, shard: ShardId) -> Option<HostId> {
        self.app.assignments.get(&shard).copied()
    }

    /// All shards currently assigned to `host`, ascending, when `app_name`
    /// names this server's application; none for any other name.
    pub fn shards_on(&self, app_name: &str, host: HostId) -> Vec<ShardId> {
        if *self.app.spec.name != *app_name {
            return Vec::new();
        }
        self.app.shards_on(host).collect()
    }

    /// Every shard assigned to `host`, in shard order: `assignments` is
    /// an ordered map, so the walk is the order failovers and drains
    /// start in, which placement (and so replay) depends on.
    fn shards_on_host(&self, host: HostId) -> Vec<ShardId> {
        self.app.shards_on(host).collect()
    }

    fn publish(&mut self, shard: ShardId, now: SimTime) {
        let host = self.host_of(shard).map(|h| h.0);
        self.mappings.publish(shard.0, host, now);
    }

    // ---------------------------------------------------------------- metrics

    /// Poll every serving host's application server for per-shard metrics
    /// and capacity (§III-A3: "SM server must periodically collect shard
    /// size metrics"). Loads are re-summed only if the re-sum could differ
    /// from what is cached: a reported weight's bits differ from the
    /// stored ones, or `loads` was written since the last re-sum.
    /// A host's report is skipped when no assignment moved since the last
    /// poll and its stamp is the one of the report SM applied last, at a
    /// poll every later one reached: each weight it could write holds those
    /// bits already (DESIGN.md "The poll and the monitor skip what did
    /// not change").
    pub fn collect_metrics<R: AppServerRegistry>(&mut self, registry: &mut R) {
        let mut moved = self.loads_written;
        for entry in self.hosts.values_mut() {
            let host = entry.info.id;
            let server = entry.state.serving().then(|| registry.server_ref(host));
            let Some(server) = server.flatten() else {
                entry.stamp = None;
                continue;
            };
            entry.info.capacity = server.capacity().max(0.0);
            let stamp = server.metrics_stamp();
            if !self.loads_written && stamp.is_some() && stamp == entry.stamp {
                continue;
            }
            entry.stamp = stamp;
            for (shard, weight) in server.shard_metrics() {
                let weight = weight.max(0.0);
                // A shard metric counts only while the shard is assigned
                // to the host reporting it.
                if self.app.assignments.get(&shard) == Some(&host) {
                    let stored = self.app.weights.insert(shard, weight);
                    moved |= stored.map(f64::to_bits) != Some(weight.to_bits());
                }
            }
        }
        if moved {
            self.rebuild_loads();
        }
    }

    // ------------------------------------------------------------- migrations

    /// Whether a migration of `shard` is under way: what every decision
    /// asks. A record `host_failed` aborted stays in `active`, finished,
    /// until the next sweep, and is not in the way of a new migration;
    /// [`active_migration`](Self::active_migration) still shows it.
    fn in_flight(&self, shard: ShardId) -> bool {
        self.active
            .values()
            .any(|m| !m.is_finished() && m.shard == shard)
    }

    /// The unfinished migrations `pick` selects, with their shards, in id
    /// order.
    fn in_flight_where(&self, pick: impl Fn(&MigrationRecord) -> bool) -> Vec<(u64, ShardId)> {
        let live = self
            .active
            .iter()
            .filter(|(_, m)| !m.is_finished() && pick(m));
        live.map(|(&id, m)| (id, m.shard)).collect()
    }

    /// Open the record of a migration whose target has accepted the shard
    /// and arm the end of its copy phase.
    #[allow(clippy::too_many_arguments)]
    fn start_migration(
        &mut self,
        shard: ShardId,
        from: HostId,
        to: HostId,
        kind: MigrationKind,
        cause: MigrationCause,
        bytes: u64,
        now: SimTime,
    ) -> MigrationId {
        let id = MigrationId(self.next_migration);
        self.next_migration += 1;
        let deadline = now + copy_duration(kind, bytes);
        self.deadlines.arm(deadline, id.0);
        self.active.insert(
            id.0,
            MigrationRecord {
                id,
                shard,
                from,
                to,
                kind,
                cause,
                phase: MigrationPhase::Copying,
                started_at: now,
                deadline,
                finished_at: None,
                bytes,
            },
        );
        id
    }

    /// Begin a live migration of `shard` to `to`. With `graceful` the
    /// zero-downtime protocol is used. Returns the migration id.
    pub fn begin_migration<R: AppServerRegistry>(
        &mut self,
        shard: ShardId,
        to: HostId,
        graceful: bool,
        cause: MigrationCause,
        now: SimTime,
        registry: &mut R,
    ) -> SmResult<MigrationId> {
        let Some(from) = self.host_of(shard) else {
            return Err(SmError::NotAssigned { shard });
        };
        if !self.hosts.get(&to).is_some_and(|h| h.state.placeable()) {
            return Err(SmError::BadHostState {
                host: to,
                reason: "target not placeable",
            });
        }
        if self.in_flight(shard) {
            return Err(SmError::AlreadyAssigned { shard });
        }
        let kind = if graceful {
            MigrationKind::Graceful
        } else {
            MigrationKind::Plain
        };

        // Invoke the first endpoint now; this is the application's veto point.
        let ctx = ShardContext::new(shard, AddShardReason::LiveMigration, Some(from));
        let result = match registry.server(to) {
            Some(server) => {
                if graceful {
                    server.prepare_add_shard(ctx)
                } else {
                    server.add_shard(ctx)
                }
            }
            None => Err(crate::error::AppError::retryable("target unreachable")),
        };
        if let Err(e) = result {
            return Err(if e.is_retryable() {
                SmError::BadHostState {
                    host: to,
                    reason: "target unreachable",
                }
            } else {
                SmError::AllTargetsVetoed { shard, attempts: 1 }
            });
        }

        let bytes = registry
            .server(from)
            .map(|s| s.shard_transfer_bytes(shard))
            .unwrap_or(0);
        Ok(self.start_migration(shard, from, to, kind, cause, bytes, now))
    }

    /// Begin a failover of `shard` (previous owner dead). Target selection
    /// is automatic; the application recovers data per its own fault
    /// tolerance model (for Cubrick: a healthy region).
    fn begin_failover<R: AppServerRegistry>(
        &mut self,
        shard: ShardId,
        dead: HostId,
        now: SimTime,
        registry: &mut R,
    ) -> SmResult<MigrationId> {
        let weight = self.app.weight_of(shard);
        let ctx = ShardContext::new(shard, AddShardReason::Failover, Some(dead));
        let to = self.place(ctx, &mut vec![dead], 1, registry)?;
        Ok(self.start_migration(
            shard,
            dead,
            to,
            MigrationKind::Failover,
            MigrationCause::HostFailure,
            weight.max(0.0) as u64,
            now,
        ))
    }

    /// Advance all in-flight migrations whose phase deadline has passed.
    /// Call whenever simulated time moves (idempotent).
    pub fn advance_migrations<R: AppServerRegistry>(&mut self, now: SimTime, registry: &mut R) {
        // Candidates come off the deadline queue (armed when each record's
        // deadline is set) rather than a scan over every active record.
        // Each candidate is re-validated against the live record, and
        // processed in ascending id order — the order the old full scan
        // produced, which the replay contract pins.
        let mut due = std::mem::take(&mut self.deadline_scratch);
        self.deadlines.due(now, &mut due);
        due.sort_unstable();
        due.dedup();
        for &id in &due {
            let state = match self.active.get(&id) {
                Some(m) if !m.is_finished() => Some((m.deadline, m.deadline <= now)),
                _ => None, // finished or swept: the entry dies here
            };
            match state {
                Some((_, true)) => self.transition(id, Event::DeadlineDue, now, registry),
                // Deadline moved since this entry was armed: re-arm.
                Some((deadline, false)) => self.deadlines.arm(deadline, id),
                None => {}
            }
        }
        due.clear();
        self.deadline_scratch = due;
        // Sweep finished records into history.
        let finished: Vec<u64> = self
            .active
            .iter()
            .filter(|(_, m)| m.is_finished())
            .map(|(&id, _)| id)
            .collect();
        for id in finished {
            if let Some(m) = self.active.remove(&id) {
                self.history.push(m);
            }
        }
    }

    /// Move migration `id` out of its phase on `event`, by the phase table
    /// and the terminal rule of the `migration` module: after
    /// `start_migration`, the one writer of a record's phase.
    fn transition<R: AppServerRegistry>(
        &mut self,
        id: u64,
        event: Event,
        now: SimTime,
        registry: &mut R,
    ) {
        let Some(m) = self.active.get(&id).filter(|m| !m.is_finished()) else {
            return;
        };
        let (shard, kind, phase, from, to) = (m.shard, m.kind, m.phase, m.from, m.to);
        let reason = match kind {
            MigrationKind::Failover => AddShardReason::Failover,
            MigrationKind::Plain | MigrationKind::Graceful => AddShardReason::LiveMigration,
        };
        let ctx = ShardContext::new(shard, reason, Some(from));
        let next = match (event, kind, phase) {
            (Event::Abort, ..) => MigrationPhase::Failed,
            (Event::DeadlineDue, MigrationKind::Graceful, MigrationPhase::Copying) => {
                if let Some(old) = registry.server(from) {
                    let _ = old.prepare_drop_shard(ctx, to);
                }
                if let Some(new) = registry.server(to) {
                    let _ = new.add_shard(ctx);
                    new.on_copy_complete(ctx);
                }
                self.reassign(shard, to);
                self.publish(shard, now);
                MigrationPhase::Forwarding
            }
            (Event::DeadlineDue, _, MigrationPhase::Copying) => {
                if let Some(new) = registry.server(to) {
                    new.on_copy_complete(ctx);
                }
                self.reassign(shard, to);
                self.publish(shard, now);
                MigrationPhase::Done
            }
            (Event::DeadlineDue, ..) => MigrationPhase::Done,
        };
        let assigned = self.host_of(shard);
        let Some(m) = self.active.get_mut(&id) else {
            return;
        };
        m.phase = next;
        if next == MigrationPhase::Forwarding {
            m.deadline = now + PROPAGATION_WAIT;
            self.deadlines.arm(m.deadline, id);
            return;
        }
        m.finished_at = Some(now);
        for end in [from, to] {
            if Some(end) != assigned {
                if let Some(server) = registry.server(end) {
                    let _ = server.drop_shard(ctx);
                }
            }
        }
    }

    /// Move `shard`'s assignment, and its load, to `to`. Every path that
    /// could take the shard off the migration's source first aborts or
    /// skips the migration, so the host it leaves is that source.
    fn reassign(&mut self, shard: ShardId, to: HostId) {
        let weight = self.app.weight_of(shard);
        let Some(host) = self.app.assignments.get_mut(&shard) else {
            return;
        };
        let from = std::mem::replace(host, to);
        self.load_delta(from, -weight);
        self.load_delta(to, weight);
    }

    /// The record SM still holds for `shard`, if any: the migration under
    /// way, else one just aborted and not yet swept (check
    /// [`MigrationRecord::is_finished`]). Query routing uses this to decide
    /// whether an "old" server still serves or forwards, so a retry hides
    /// the aborted record it follows.
    pub fn active_migration(&self, shard: ShardId) -> Option<&MigrationRecord> {
        let records = || self.active.values().filter(move |m| m.shard == shard);
        records()
            .find(|m| !m.is_finished())
            .or_else(|| records().next())
    }

    /// All completed migrations (Fig 4d counts these per day).
    pub fn migration_history(&self) -> &[MigrationRecord] {
        &self.history
    }

    pub fn active_migration_count(&self) -> usize {
        self.active.len()
    }

    // ------------------------------------------------------- host lifecycle

    /// Mark a host dead (heartbeat loss or injected failure) and start
    /// failovers for everything it held.
    pub fn host_failed<R: AppServerRegistry>(
        &mut self,
        host: HostId,
        now: SimTime,
        registry: &mut R,
    ) -> SmResult<()> {
        {
            let entry = self
                .hosts
                .get_mut(&host)
                .ok_or(SmError::UnknownHost { host })?;
            if entry.state == HostState::Dead {
                return Ok(());
            }
            entry.state = HostState::Dead;
            if let Some(session) = entry.session.take() {
                self.heartbeat = None;
                self.session_hosts.remove(&session);
                self.zk.close_session(session, now);
            }
        }
        // Abort migrations touching the dead host, before its failovers
        // are placed: the terminal rule drops a shard on a live end that
        // a failover may be about to hand it again.
        let orphaned = self.in_flight_where(|m| m.to == host || m.from == host);
        for &(id, _) in &orphaned {
            self.transition(id, Event::Abort, now, registry);
        }
        // Fail over every shard assigned to the host.
        for shard in self.shards_on_host(host) {
            // Publish unavailability immediately: clients must stop
            // routing to the dead host as soon as caches catch up.
            self.mappings.publish(shard.0, None, now);
            if self.begin_failover(shard, host, now, registry).is_err() {
                self.pending_failovers.push(shard);
            }
        }
        // An aborted failover (or drain) off a still-dead source leaves the
        // shard assigned to a dead host, and nothing would re-queue it:
        // `remove_host` on that source would fail forever. Re-queue those
        // for the tick-time retry; every aborted shard is republished.
        for (_, shard) in orphaned {
            let wedged = self.dead_owner(shard).is_some();
            let queued = self.pending_failovers.contains(&shard);
            if wedged && !self.in_flight(shard) && !queued {
                self.pending_failovers.push(shard);
            }
            self.publish(shard, now);
        }
        Ok(())
    }

    /// The host `shard` is assigned to, if it is dead.
    fn dead_owner(&self, shard: ShardId) -> Option<HostId> {
        let host = self.host_of(shard)?;
        let dead = self.hosts.get(&host)?.state == HostState::Dead;
        dead.then_some(host)
    }

    /// Remove a dead host from the fleet entirely (post-repair
    /// decommission). Fails if the host still holds assignments.
    pub fn remove_host(&mut self, host: HostId) -> SmResult<()> {
        let entry = self.hosts.get(&host).ok_or(SmError::UnknownHost { host })?;
        if entry.state != HostState::Dead {
            return Err(SmError::BadHostState {
                host,
                reason: "only dead hosts can be removed",
            });
        }
        if self.app.shards_on(host).next().is_some() {
            return Err(SmError::BadHostState {
                host,
                reason: "host still holds assignments",
            });
        }
        let rack = entry.info.domain(SpreadDomain::Rack);
        self.hosts.remove(&host);
        match self.racks.get_mut(&rack) {
            Some(n) if *n > 1 => *n -= 1,
            _ => _ = self.racks.remove(&rack),
        }
        self.loads_written |= self.loads.remove(&host).is_some();
        Ok(())
    }

    /// Start draining a host: no new placements; every shard it holds is
    /// gracefully migrated away.
    pub fn drain_host<R: AppServerRegistry>(
        &mut self,
        host: HostId,
        now: SimTime,
        registry: &mut R,
    ) -> SmResult<usize> {
        {
            let entry = self
                .hosts
                .get_mut(&host)
                .ok_or(SmError::UnknownHost { host })?;
            if entry.state == HostState::Dead {
                return Err(SmError::BadHostState {
                    host,
                    reason: "host is dead",
                });
            }
            entry.state = HostState::Draining;
        }
        let mut moved = 0usize;
        for shard in self.shards_on_host(host) {
            if self.in_flight(shard) {
                continue;
            }
            let (head, _) = self.select(shard, &self.hint(shard), &[host], 1);
            let Some(to) = head.first().map(|c| c.host) else {
                continue; // no pass retries it: it stays until the host is reactivated
            };
            if self
                .begin_migration(shard, to, true, MigrationCause::Drain, now, registry)
                .is_ok()
            {
                moved += 1;
            }
        }
        Ok(moved)
    }

    /// A dead host's process restarted on the *same* hardware: bring it
    /// back to service keeping whatever assignments still reference it
    /// (transient outage repair — unlike the fail → drain → decommission
    /// → replace path, which swaps hardware and requires the host to be
    /// empty first). For each retained shard the application server is
    /// asked to `add_shard` again (it reloads shard data from upstream)
    /// and the discovery entry withdrawn at failure time is republished.
    /// Queued failovers for those shards dissolve on the next tick, since
    /// their assignments no longer reference a dead host. Returns the
    /// retained shards, ascending.
    pub fn rejoin_host<R: AppServerRegistry>(
        &mut self,
        host: HostId,
        now: SimTime,
        registry: &mut R,
    ) -> SmResult<Vec<ShardId>> {
        let entry = self.hosts.get(&host).ok_or(SmError::UnknownHost { host })?;
        if entry.state != HostState::Dead {
            return Err(SmError::BadHostState {
                host,
                reason: "only dead hosts can rejoin",
            });
        }
        self.reactivate_host(host, now)?;
        let retained = self.shards_on_host(host);
        for &shard in &retained {
            if let Some(server) = registry.server(host) {
                // The assignment already exists, so this is a reload of a
                // placement that was legal before the crash — not a new
                // placement decision the application could veto.
                let _ = server.add_shard(ShardContext::new(
                    shard,
                    AddShardReason::NewAllocation,
                    Some(host),
                ));
            }
            self.publish(shard, now);
        }
        Ok(retained)
    }

    /// Return a draining (or previously failed, now recovered) host to
    /// service.
    pub fn reactivate_host(&mut self, host: HostId, now: SimTime) -> SmResult<()> {
        let entry = self.hosts.get(&host).ok_or(SmError::UnknownHost { host })?;
        let session = match entry.session {
            Some(session) => session,
            None => self.open_host_session(host, now)?,
        };
        let entry = self
            .hosts
            .get_mut(&host)
            .ok_or(SmError::UnknownHost { host })?;
        entry.session = Some(session);
        entry.state = HostState::Alive;
        Ok(())
    }

    // ------------------------------------------------------------------- tick

    /// Periodic maintenance: expire heartbeat sessions (failing dead
    /// hosts), retry queued failovers, and advance migrations.
    pub fn tick<R: AppServerRegistry>(&mut self, now: SimTime, registry: &mut R) {
        // Advance the coordination plane first (lease renewal / leader
        // election when replicated), so a post-failover leader's
        // `TouchSessions` lands before the expiry check below — sessions
        // must not be punished for a leaderless window.
        self.zk.tick(now);
        // Heartbeat expiry via the coordination store. While the plane
        // is unreachable this returns nothing: degraded-but-live, nobody
        // is declared dead by a coordinator that cannot be consulted.
        let expired = self.zk.expire_sessions(now);
        for session in expired {
            if let Some(host) = self.session_hosts.remove(&session) {
                let _ = self.host_failed(host, now, registry);
            }
        }
        // Retry failovers that previously had no feasible target.
        let pending = std::mem::take(&mut self.pending_failovers);
        for shard in pending {
            // `None` means the failover resolved through another path.
            if let Some(dead_host) = self.dead_owner(shard) {
                if self
                    .begin_failover(shard, dead_host, now, registry)
                    .is_err()
                {
                    self.pending_failovers.push(shard);
                }
            }
        }
        self.advance_migrations(now, registry);
    }

    /// Run one load-balancing pass, starting graceful migrations for
    /// accepted proposals. Returns migrations started.
    pub fn run_load_balancer<R: AppServerRegistry>(
        &mut self,
        now: SimTime,
        registry: &mut R,
    ) -> usize {
        let app = &self.app;
        // A donor's shards; those already migrating are skipped.
        let shards_of = |host| {
            let idle = app.shards_on(host).filter(|&s| !self.in_flight(s));
            idle.map(|s| (s, app.weight_of(s))).collect()
        };
        let hosts: Vec<HostSnapshot> = self.snapshots().collect();
        let proposals = rebalance(&hosts, &app.spec.balancer, shards_of);
        let mut started = 0usize;
        for p in proposals {
            if self
                .begin_migration(
                    p.shard,
                    p.to,
                    true,
                    MigrationCause::LoadBalance,
                    now,
                    registry,
                )
                .is_ok()
            {
                started += 1;
            }
        }
        started
    }
}

impl std::fmt::Debug for SmServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SmServer")
            .field("app", &self.app.spec.name)
            .field("hosts", &self.hosts.len())
            .field("active_migrations", &self.active.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    use crate::app_server::MockAppServer;
    use crate::ids::{Rack, Region};
    use scalewall_sim::prop::{self, gen};
    use scalewall_sim::SimDuration;

    /// Registry over a map of mock servers.
    #[derive(Default)]
    struct MockRegistry {
        servers: HashMap<HostId, MockAppServer>,
        /// Hosts that have crashed (unreachable).
        down: std::collections::HashSet<HostId>,
    }

    impl MockRegistry {
        fn add(&mut self, host: HostId, capacity: f64) {
            self.servers
                .insert(host, MockAppServer::with_capacity(capacity));
        }
    }

    impl AppServerRegistry for MockRegistry {
        fn server(&mut self, host: HostId) -> Option<&mut dyn crate::app_server::AppServer> {
            if self.down.contains(&host) {
                return None;
            }
            self.servers
                .get_mut(&host)
                .map(|s| s as &mut dyn crate::app_server::AppServer)
        }
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn setup(hosts: u64) -> (SmServer, MockRegistry) {
        let mut sm = SmServer::new(SmConfig::default(), AppSpec::primary_only("app", 1_000));
        let mut reg = MockRegistry::default();
        for i in 0..hosts {
            let info = HostInfo::new(HostId(i), Rack((i % 4) as u32), Region(0), 100.0);
            sm.register_host(info, t(0)).unwrap();
            reg.add(HostId(i), 100.0);
        }
        (sm, reg)
    }

    #[test]
    fn register_duplicates_rejected() {
        let (mut sm, _reg) = setup(2);
        let info = HostInfo::new(HostId(0), Rack(0), Region(0), 1.0);
        assert!(matches!(
            sm.register_host(info, t(0)),
            Err(SmError::HostExists { .. })
        ));
    }

    #[test]
    fn allocate_places_and_publishes() {
        let (mut sm, mut reg) = setup(4);
        let host = sm
            .allocate_shard(ShardId(7), 10.0, None, t(1), &mut reg)
            .unwrap();
        assert!(reg.servers[&host].shards.contains_key(&7));
        assert_eq!(sm.host_of(ShardId(7)), Some(host));
        let latest = sm.mappings().latest(7).unwrap();
        assert_eq!(latest.host, Some(host.0));
    }

    #[test]
    fn allocate_balances_across_hosts() {
        let (mut sm, mut reg) = setup(4);
        for s in 0..8 {
            sm.allocate_shard(ShardId(s), 10.0, None, t(1), &mut reg)
                .unwrap();
        }
        // 8 equal shards over 4 equal hosts → 2 each.
        for i in 0..4 {
            assert_eq!(sm.shards_on("app", HostId(i)).len(), 2, "host {i}");
        }
        // Another application's name owns nothing here.
        assert!(sm.shards_on("other", HostId(0)).is_empty());
    }

    #[test]
    fn allocate_rejects_out_of_range_and_duplicates() {
        let (mut sm, mut reg) = setup(2);
        assert!(matches!(
            sm.allocate_shard(ShardId(9_999), 1.0, None, t(0), &mut reg),
            Err(SmError::ShardOutOfRange { .. })
        ));
        sm.allocate_shard(ShardId(1), 1.0, None, t(0), &mut reg)
            .unwrap();
        assert!(matches!(
            sm.allocate_shard(ShardId(1), 1.0, None, t(0), &mut reg),
            Err(SmError::AlreadyAssigned { .. })
        ));
    }

    #[test]
    fn veto_moves_to_next_candidate() {
        let (mut sm, mut reg) = setup(3);
        // Least-loaded candidate (host 0 by tie-break) vetoes shard 5.
        reg.servers.get_mut(&HostId(0)).unwrap().vetoed.insert(5);
        let host = sm
            .allocate_shard(ShardId(5), 1.0, None, t(0), &mut reg)
            .unwrap();
        assert_ne!(host, HostId(0));
    }

    #[test]
    fn graceful_migration_full_protocol() {
        let (mut sm, mut reg) = setup(2);
        sm.allocate_shard(ShardId(3), 50.0, None, t(0), &mut reg)
            .unwrap();
        let from = sm.host_of(ShardId(3)).unwrap();
        let to = HostId(if from.0 == 0 { 1 } else { 0 });

        let id = sm
            .begin_migration(
                ShardId(3),
                to,
                true,
                MigrationCause::Manual,
                t(10),
                &mut reg,
            )
            .unwrap();
        // During copy: target prepared, source still owns.
        assert!(reg.servers[&to].prepared.contains(&3));
        assert_eq!(sm.host_of(ShardId(3)), Some(from));
        let rec = sm.active_migration(ShardId(3)).unwrap();
        assert_eq!(rec.phase, MigrationPhase::Copying);
        assert_eq!(rec.id, id);
        let copy_done = rec.deadline;

        // Advance past copy: forwarding phase, assignment flipped.
        sm.advance_migrations(copy_done, &mut reg);
        assert_eq!(sm.host_of(ShardId(3)), Some(to));
        assert!(reg.servers[&to].shards.contains_key(&3));
        assert_eq!(reg.servers[&from].forwarding.get(&3), Some(&to));
        let rec = sm.active_migration(ShardId(3)).unwrap();
        assert_eq!(rec.phase, MigrationPhase::Forwarding);
        let forward_done = rec.deadline;

        // Advance past propagation window: old replica dropped, done.
        sm.advance_migrations(forward_done, &mut reg);
        assert!(sm.active_migration(ShardId(3)).is_none());
        assert!(!reg.servers[&from].shards.contains_key(&3));
        assert!(reg.servers[&from].forwarding.is_empty());
        assert_eq!(sm.migration_history().len(), 1);
        assert_eq!(sm.migration_history()[0].phase, MigrationPhase::Done);
    }

    #[test]
    fn plain_migration_skips_forwarding() {
        let (mut sm, mut reg) = setup(2);
        sm.allocate_shard(ShardId(1), 10.0, None, t(0), &mut reg)
            .unwrap();
        let from = sm.host_of(ShardId(1)).unwrap();
        let to = HostId(if from.0 == 0 { 1 } else { 0 });
        sm.begin_migration(
            ShardId(1),
            to,
            false,
            MigrationCause::Manual,
            t(5),
            &mut reg,
        )
        .unwrap();
        let deadline = sm.active_migration(ShardId(1)).unwrap().deadline;
        sm.advance_migrations(deadline, &mut reg);
        assert!(sm.active_migration(ShardId(1)).is_none());
        assert_eq!(sm.host_of(ShardId(1)), Some(to));
        assert!(!reg.servers[&from].shards.contains_key(&1));
        assert!(
            reg.servers[&from].forwarding.is_empty(),
            "plain never forwards"
        );
    }

    #[test]
    fn migration_rejected_while_another_active() {
        let (mut sm, mut reg) = setup(3);
        sm.allocate_shard(ShardId(1), 10.0, None, t(0), &mut reg)
            .unwrap();
        let from = sm.host_of(ShardId(1)).unwrap();
        let others: Vec<HostId> = (0..3).map(HostId).filter(|h| *h != from).collect();
        sm.begin_migration(
            ShardId(1),
            others[0],
            true,
            MigrationCause::Manual,
            t(1),
            &mut reg,
        )
        .unwrap();
        let err = sm
            .begin_migration(
                ShardId(1),
                others[1],
                true,
                MigrationCause::Manual,
                t(1),
                &mut reg,
            )
            .unwrap_err();
        assert!(matches!(err, SmError::AlreadyAssigned { .. }));
    }

    /// A copy whose target died is over, not in flight: the shard can move
    /// again at once, not only after the tick that sweeps the aborted
    /// record, and routing is shown the retry, not the aborted copy.
    #[test]
    fn aborted_record_does_not_block_a_new_migration() {
        let (mut sm, mut reg) = setup(3);
        sm.allocate_shard(ShardId(1), 10.0, None, t(0), &mut reg)
            .unwrap();
        let from = sm.host_of(ShardId(1)).unwrap();
        let others: Vec<HostId> = (0..3).map(HostId).filter(|h| *h != from).collect();
        let begin = |sm: &mut SmServer, reg: &mut MockRegistry, to, at| {
            sm.begin_migration(ShardId(1), to, true, MigrationCause::Manual, at, reg)
        };
        let aborted = begin(&mut sm, &mut reg, others[0], t(1)).unwrap();
        reg.down.insert(others[0]);
        sm.host_failed(others[0], t(2), &mut reg).unwrap();
        // No tick yet: the record is still held, finished.
        let rec = sm.active_migration(ShardId(1)).unwrap();
        assert_eq!((rec.id, rec.phase), (aborted, MigrationPhase::Failed));
        assert!(!sm.in_flight(ShardId(1)));

        let retry = begin(&mut sm, &mut reg, others[1], t(2)).unwrap();
        assert!(sm.in_flight(ShardId(1)));
        // Both records are held; routing is shown the live one.
        assert_eq!(sm.active_migration_count(), 2);
        let rec = sm.active_migration(ShardId(1)).unwrap();
        assert_eq!((rec.id, rec.phase), (retry, MigrationPhase::Copying));
        assert!(matches!(
            begin(&mut sm, &mut reg, others[1], t(2)),
            Err(SmError::AlreadyAssigned { .. })
        ));
        sm.advance_migrations(t(2) + SimDuration::from_hours(1), &mut reg);
        sm.advance_migrations(t(2) + SimDuration::from_hours(2), &mut reg);
        assert_eq!(sm.host_of(ShardId(1)), Some(others[1]));
        let phases: Vec<_> = sm
            .migration_history()
            .iter()
            .map(|m| (m.id, m.phase))
            .collect();
        assert_eq!(
            phases,
            [
                (aborted, MigrationPhase::Failed),
                (retry, MigrationPhase::Done)
            ]
        );
    }

    #[test]
    fn target_veto_fails_migration_start() {
        let (mut sm, mut reg) = setup(2);
        sm.allocate_shard(ShardId(2), 10.0, None, t(0), &mut reg)
            .unwrap();
        let from = sm.host_of(ShardId(2)).unwrap();
        let to = HostId(if from.0 == 0 { 1 } else { 0 });
        reg.servers.get_mut(&to).unwrap().vetoed.insert(2);
        let err = sm
            .begin_migration(ShardId(2), to, true, MigrationCause::Manual, t(1), &mut reg)
            .unwrap_err();
        assert!(matches!(err, SmError::AllTargetsVetoed { .. }));
    }

    #[test]
    fn host_failure_triggers_failover() {
        let (mut sm, mut reg) = setup(3);
        sm.allocate_shard(ShardId(4), 10.0, None, t(0), &mut reg)
            .unwrap();
        let victim = sm.host_of(ShardId(4)).unwrap();
        reg.down.insert(victim);
        sm.host_failed(victim, t(100), &mut reg).unwrap();
        assert_eq!(sm.host_state(victim), Some(HostState::Dead));

        // Failover in flight.
        let rec = sm.active_migration(ShardId(4)).unwrap();
        assert_eq!(rec.kind, MigrationKind::Failover);
        let deadline = rec.deadline;
        sm.advance_migrations(deadline, &mut reg);
        let new_host = sm.host_of(ShardId(4)).unwrap();
        assert_ne!(new_host, victim);
        assert!(reg.servers[&new_host].shards.contains_key(&4));
    }

    #[test]
    fn heartbeat_loss_detected_via_tick() {
        let (mut sm, mut reg) = setup(2);
        sm.allocate_shard(ShardId(0), 5.0, None, t(0), &mut reg)
            .unwrap();
        let victim = sm.host_of(ShardId(0)).unwrap();
        let other = HostId(if victim.0 == 0 { 1 } else { 0 });
        // Both heartbeat at t=5; victim then goes silent.
        sm.heartbeat_all(0, || [victim, other], t(5));
        reg.down.insert(victim);
        // Keep the healthy host heartbeating so only the victim expires:
        // a fleet without it is a fleet of a new version.
        for s in [8u64, 12, 16] {
            sm.heartbeat_all(1, || [other], t(s));
            sm.tick(t(s), &mut reg);
        }
        sm.tick(t(16), &mut reg);
        assert_eq!(sm.host_state(victim), Some(HostState::Dead));
        assert_eq!(sm.host_state(other), Some(HostState::Alive));
    }

    #[test]
    fn failover_waits_for_feasible_host() {
        // One host only: failover impossible until a new host registers.
        let (mut sm, mut reg) = setup(1);
        sm.allocate_shard(ShardId(0), 5.0, None, t(0), &mut reg)
            .unwrap();
        reg.down.insert(HostId(0));
        sm.host_failed(HostId(0), t(10), &mut reg).unwrap();
        assert!(sm.active_migration(ShardId(0)).is_none());
        // New capacity arrives.
        let info = HostInfo::new(HostId(9), Rack(0), Region(0), 100.0);
        sm.register_host(info, t(20)).unwrap();
        reg.add(HostId(9), 100.0);
        sm.tick(t(20), &mut reg);
        let rec = sm.active_migration(ShardId(0)).expect("failover retried");
        assert_eq!(rec.to, HostId(9));
    }

    #[test]
    fn drain_moves_all_shards_gracefully() {
        let (mut sm, mut reg) = setup(3);
        for s in 0..6 {
            sm.allocate_shard(ShardId(s), 10.0, None, t(0), &mut reg)
                .unwrap();
        }
        let victim = HostId(0);
        let held = sm.shards_on("app", victim).len();
        assert!(held > 0);
        let moved = sm.drain_host(victim, t(100), &mut reg).unwrap();
        assert_eq!(moved, held);
        assert_eq!(sm.host_state(victim), Some(HostState::Draining));
        // Run all migrations to completion.
        sm.advance_migrations(t(100) + SimDuration::from_hours(1), &mut reg);
        sm.advance_migrations(t(100) + SimDuration::from_hours(2), &mut reg);
        assert!(sm.shards_on("app", victim).is_empty());
        assert!(
            sm.migration_history()
                .iter()
                .all(|m| m.cause == MigrationCause::Drain),
            "all moves caused by the drain"
        );
    }

    #[test]
    fn load_balancer_flattens_skew() {
        let (mut sm, mut reg) = setup(2);
        // Force everything onto host 0 by making host 1 veto all new
        // allocations, then lift the veto.
        for s in 0..6 {
            reg.servers.get_mut(&HostId(1)).unwrap().vetoed.insert(s);
            sm.allocate_shard(ShardId(s), 10.0, None, t(0), &mut reg)
                .unwrap();
        }
        reg.servers.get_mut(&HostId(1)).unwrap().vetoed.clear();
        assert_eq!(sm.shards_on("app", HostId(0)).len(), 6);
        let started = sm.run_load_balancer(t(50), &mut reg);
        assert!(started > 0, "imbalance must trigger migrations");
        sm.advance_migrations(t(50) + SimDuration::from_hours(1), &mut reg);
        sm.advance_migrations(t(50) + SimDuration::from_hours(2), &mut reg);
        let a = sm.shards_on("app", HostId(0)).len();
        let b = sm.shards_on("app", HostId(1)).len();
        assert_eq!(a + b, 6);
        assert!((a as i64 - b as i64).abs() <= 1, "{a} vs {b}");
    }

    #[test]
    fn collect_metrics_updates_weights_and_capacity() {
        let (mut sm, mut reg) = setup(2);
        sm.allocate_shard(ShardId(0), 1.0, None, t(0), &mut reg)
            .unwrap();
        let host = sm.host_of(ShardId(0)).unwrap();
        // The app reports a grown shard and a changed capacity.
        let server = reg.servers.get_mut(&host).unwrap();
        server.shards.insert(0, 42.0);
        server.capacity = 500.0;
        sm.collect_metrics(&mut reg);
        assert_eq!(sm.host_load(host), 42.0);
        assert_eq!(sm.host_info(host).unwrap().capacity, 500.0);
    }

    /// The poll reads a host's report only when it could write a weight:
    /// an assignment moved since the last poll, the host's stamp moved,
    /// the host promises nothing, or SM holds no stamp for it (a poll
    /// missed it, or it was removed and registered again).
    #[test]
    fn poll_reads_only_reports_that_could_write() {
        let (mut sm, mut reg) = setup(3);
        for s in 0..6 {
            sm.allocate_shard(ShardId(s), 5.0, None, t(0), &mut reg)
                .unwrap();
        }
        for (host, server) in &mut reg.servers {
            server.stamp = Some([host.0, 0, 0]);
        }
        // `shard_metrics` calls per host, hosts 0‥3, made by one poll.
        fn poll(sm: &mut SmServer, reg: &mut MockRegistry) -> [u64; 4] {
            reg.servers.values().for_each(|s| s.metric_calls.set(0));
            sm.collect_metrics(reg);
            let calls = |h| {
                reg.servers
                    .get(&HostId(h))
                    .map_or(0, |s| s.metric_calls.take())
            };
            [calls(0), calls(1), calls(2), calls(3)]
        }
        // A report changes under a new stamp, as the contract asks.
        fn report(reg: &mut MockRegistry, host: HostId, shard: u64, weight: Option<f64>) {
            let server = reg.servers.get_mut(&host).unwrap();
            match weight {
                Some(w) => server.shards.insert(shard, w),
                None => server.shards.remove(&shard),
            };
            server.stamp = server.stamp.map(|[h, n, _]| [h, n + 1, 0]);
        }
        assert_eq!(
            poll(&mut sm, &mut reg),
            [1, 1, 1, 0],
            "allocations moved loads"
        );
        assert_eq!(poll(&mut sm, &mut reg), [0, 0, 0, 0], "nothing moved");

        // A completed migration: every serving host is read.
        let from = sm.host_of(ShardId(0)).unwrap();
        let to = (0..3).map(HostId).find(|&h| h != from).unwrap();
        sm.begin_migration(
            ShardId(0),
            to,
            false,
            MigrationCause::Manual,
            t(1),
            &mut reg,
        )
        .unwrap();
        sm.advance_migrations(t(1) + SimDuration::from_hours(1), &mut reg);
        assert_eq!(sm.host_of(ShardId(0)), Some(to));
        report(&mut reg, from, 0, None);
        report(&mut reg, to, 0, Some(1.0));
        assert_eq!(poll(&mut sm, &mut reg), [1, 1, 1, 0]);
        assert_eq!(poll(&mut sm, &mut reg), [0, 0, 0, 0]);

        // One host's stamp moves: only it is read, and its weight lands.
        let shard = sm.shards_on("app", HostId(1))[0];
        let before = sm.host_load(HostId(1));
        report(&mut reg, HostId(1), shard.0, Some(40.0));
        assert_eq!(poll(&mut sm, &mut reg), [0, 1, 0, 0]);
        assert!(sm.host_load(HostId(1)) > before);

        // A host that promises nothing is read every time.
        reg.servers.get_mut(&HostId(2)).unwrap().stamp = None;
        assert_eq!(poll(&mut sm, &mut reg), [0, 0, 1, 0]);
        assert_eq!(poll(&mut sm, &mut reg), [0, 0, 1, 0]);

        // A poll that cannot reach a host forgets its stamp.
        reg.down.insert(HostId(0));
        assert_eq!(poll(&mut sm, &mut reg), [0, 0, 1, 0]);
        reg.down.remove(&HostId(0));
        assert_eq!(poll(&mut sm, &mut reg), [1, 0, 1, 0]);

        // `remove_host` forgets it too: a host without shards fails, is
        // removed and registers again, no poll in between.
        let info = HostInfo::new(HostId(3), Rack(3), Region(0), 100.0);
        sm.register_host(info, t(2)).unwrap();
        reg.add(HostId(3), 100.0);
        reg.servers.get_mut(&HostId(3)).unwrap().stamp = Some([3, 0, 0]);
        assert_eq!(poll(&mut sm, &mut reg), [0, 0, 1, 1]);
        assert_eq!(poll(&mut sm, &mut reg), [0, 0, 1, 0]);
        sm.host_failed(HostId(3), t(3), &mut reg).unwrap();
        sm.remove_host(HostId(3)).unwrap();
        sm.register_host(info, t(4)).unwrap();
        assert_eq!(poll(&mut sm, &mut reg), [0, 0, 1, 1]);
    }

    /// The heartbeat list is re-listed exactly when it can differ: the
    /// caller's fleet version moved, or a session was opened or closed
    /// here. Either way a round refreshes what listing from scratch would.
    #[test]
    fn heartbeat_list_is_relisted_only_when_a_source_moved() {
        let (mut sm, mut reg) = setup(3);
        // The caller lists a fourth host SM has yet to hear of.
        let hosts = [HostId(0), HostId(1), HostId(2), HostId(3)];
        let listed = std::cell::Cell::new(0u32);
        let round = |sm: &mut SmServer, version: u64, live: &[HostId], at: u64| {
            let live = live.to_vec();
            let list = || {
                listed.set(listed.get() + 1);
                live.clone()
            };
            sm.heartbeat_all(version, list, t(at));
            let fresh: Vec<SessionId> = live.iter().filter_map(|&h| sm.host_session(h)).collect();
            assert_eq!(sm.heartbeat_sessions(), fresh);
            listed.replace(0)
        };
        assert_eq!(round(&mut sm, 7, &hosts, 1), 1, "first round lists");
        assert_eq!(round(&mut sm, 7, &hosts, 2), 0, "nothing moved");
        assert_eq!(
            round(&mut sm, 8, &hosts[..2], 3),
            1,
            "the fleet's version moved"
        );
        assert_eq!(round(&mut sm, 8, &hosts[..2], 4), 0);
        // A session closes, then re-opens, the fleet's version standing still.
        sm.host_failed(HostId(1), t(5), &mut reg).unwrap();
        assert_eq!(round(&mut sm, 8, &hosts[..2], 5), 1, "a session closed");
        assert_eq!(sm.heartbeat_sessions().len(), 1);
        sm.reactivate_host(HostId(1), t(6)).unwrap();
        assert_eq!(round(&mut sm, 8, &hosts[..2], 6), 1, "a session opened");
        assert_eq!(sm.heartbeat_sessions().len(), 2);
        assert_eq!(round(&mut sm, 8, &hosts[..2], 7), 0);
        sm.register_host(HostInfo::new(HostId(3), Rack(0), Region(0), 100.0), t(8))
            .unwrap();
        assert_eq!(round(&mut sm, 8, &hosts, 8), 1, "a host registered");
        assert_eq!(sm.heartbeat_sessions().len(), 4);
    }

    #[test]
    fn remove_host_lifecycle() {
        let (mut sm, mut reg) = setup(2);
        sm.allocate_shard(ShardId(0), 1.0, None, t(0), &mut reg)
            .unwrap();
        let victim = sm.host_of(ShardId(0)).unwrap();
        assert!(matches!(
            sm.remove_host(victim),
            Err(SmError::BadHostState { .. })
        ));
        reg.down.insert(victim);
        sm.host_failed(victim, t(10), &mut reg).unwrap();
        // Still holds the assignment until failover completes.
        assert!(sm.remove_host(victim).is_err());
        sm.advance_migrations(t(10) + SimDuration::from_hours(1), &mut reg);
        sm.remove_host(victim).unwrap();
        assert!(sm.host_state(victim).is_none());
    }

    #[test]
    fn deallocate_drops_everywhere() {
        let (mut sm, mut reg) = setup(2);
        sm.allocate_shard(ShardId(0), 1.0, None, t(0), &mut reg)
            .unwrap();
        let host = sm.host_of(ShardId(0)).unwrap();
        sm.deallocate_shard(ShardId(0), t(1), &mut reg).unwrap();
        assert!(sm.host_of(ShardId(0)).is_none());
        assert!(reg.servers[&host].shards.is_empty());
        let latest = sm.mappings().latest(0).unwrap();
        assert_eq!(latest.host, None);
    }

    /// Recompute loads naively and compare with the incremental cache.
    fn naive_load(sm: &SmServer, host: HostId) -> f64 {
        let mut load = 0.0;
        for (&shard, &h) in &sm.app.assignments {
            if h == host {
                load += sm.app.weight_of(shard);
            }
        }
        load
    }

    #[test]
    fn load_cache_stays_consistent_through_lifecycle() {
        let (mut sm, mut reg) = setup(4);
        for s in 0..8 {
            sm.allocate_shard(ShardId(s), 5.0, None, t(0), &mut reg)
                .unwrap();
        }
        // Shard 0 reports a grown weight through the poll.
        let grown = sm.host_of(ShardId(0)).unwrap();
        reg.servers.get_mut(&grown).unwrap().shards.insert(0, 20.0);
        sm.collect_metrics(&mut reg);
        sm.deallocate_shard(ShardId(1), t(1), &mut reg).unwrap();
        // A graceful migration start-to-finish.
        let from = sm.host_of(ShardId(2)).unwrap();
        let to = (0..4).map(HostId).find(|&h| h != from).unwrap();
        if sm
            .begin_migration(ShardId(2), to, true, MigrationCause::Manual, t(2), &mut reg)
            .is_ok()
        {
            sm.advance_migrations(t(2) + SimDuration::from_hours(1), &mut reg);
            sm.advance_migrations(t(2) + SimDuration::from_hours(2), &mut reg);
        }
        // A failure + failover.
        let victim = sm.host_of(ShardId(3)).unwrap();
        reg.down.insert(victim);
        sm.host_failed(victim, t(100), &mut reg).unwrap();
        sm.advance_migrations(t(100) + SimDuration::from_hours(1), &mut reg);
        // Metric collection rebuilds.
        sm.collect_metrics(&mut reg);
        for h in 0..4 {
            let host = HostId(h);
            let cached = sm.host_load(host);
            let naive = naive_load(&sm, host);
            assert!(
                (cached - naive).abs() < 1e-9,
                "{host}: cached {cached} naive {naive}"
            );
        }

        // A poll leaves the bits a forced re-sum leaves, whether it
        // re-summed (told by an entry no re-sum would keep; returned) or
        // found nothing to. Shard `s` reports `base + s / 10`: sums that
        // depend on the order of addition, so a running sum would show.
        fn poll(sm: &mut SmServer, reg: &mut MockRegistry, base: f64) -> bool {
            for server in reg.servers.values_mut() {
                for (&s, w) in &mut server.shards {
                    *w = base + 0.1 * s as f64;
                }
            }
            sm.loads.insert(HostId(99), 7.0);
            sm.collect_metrics(reg);
            let resummed = sm.loads.remove(&HostId(99)).is_none();
            let bits = |sm: &SmServer| -> Vec<(HostId, u64)> {
                sm.loads.iter().map(|(&h, l)| (h, l.to_bits())).collect()
            };
            let polled = bits(sm);
            sm.rebuild_loads();
            assert_eq!(polled, bits(sm));
            resummed
        }
        assert!(poll(&mut sm, &mut reg, 0.7), "every weight moved");
        assert!(
            !poll(&mut sm, &mut reg, 0.7),
            "nothing moved since the last poll"
        );
        // Allocate.
        sm.allocate_shard(ShardId(20), 5.0, None, t(200), &mut reg)
            .unwrap();
        assert!(poll(&mut sm, &mut reg, 0.7), "an allocation wrote loads");
        assert!(!poll(&mut sm, &mut reg, 0.7));
        // Migrate: polled with the copy in flight and after it lands.
        let from = sm.host_of(ShardId(20)).unwrap();
        let to = (0..4)
            .map(HostId)
            .find(|&h| h != from && h != victim)
            .unwrap();
        sm.begin_migration(
            ShardId(20),
            to,
            false,
            MigrationCause::Manual,
            t(210),
            &mut reg,
        )
        .unwrap();
        assert!(
            !poll(&mut sm, &mut reg, 0.7),
            "a copy in flight moves no load"
        );
        sm.advance_migrations(t(210) + SimDuration::from_hours(1), &mut reg);
        assert_eq!(sm.host_of(ShardId(20)), Some(to));
        assert!(poll(&mut sm, &mut reg, 0.7), "the reassignment wrote loads");
        // Fail, and rejoin before the failovers land.
        reg.down.insert(to);
        sm.host_failed(to, t(4_000), &mut reg).unwrap();
        poll(&mut sm, &mut reg, 0.7);
        reg.down.remove(&to);
        sm.rejoin_host(to, t(4_010), &mut reg).unwrap();
        poll(&mut sm, &mut reg, 0.7);
        sm.advance_migrations(t(4_010) + SimDuration::from_hours(1), &mut reg);
        poll(&mut sm, &mut reg, 0.7);
        // Remove the host that failed first, long since empty.
        sm.remove_host(victim).unwrap();
        poll(&mut sm, &mut reg, 0.7);
        assert!(!poll(&mut sm, &mut reg, 0.7));
        // Reported weights an ulp or two off the stored ones.
        assert!(poll(&mut sm, &mut reg, 0.7 + f64::EPSILON));
        // A deallocation goes through a delta.
        sm.deallocate_shard(ShardId(0), t(4_020), &mut reg).unwrap();
        assert!(
            poll(&mut sm, &mut reg, 0.7 + f64::EPSILON),
            "a deallocation wrote loads"
        );
    }

    #[test]
    fn placement_jitter_randomizes_placement() {
        let mut config = SmConfig {
            placement_jitter: 4,
            ..Default::default()
        };
        config.seed = 1;
        let mut sm = SmServer::new(config, AppSpec::primary_only("app", 10_000));
        let mut reg = MockRegistry::default();
        for i in 0..4 {
            let info = HostInfo::new(HostId(i), Rack(0), Region(0), 1e9);
            sm.register_host(info, t(0)).unwrap();
            reg.add(HostId(i), 1e9);
        }
        // With jitter = hosts, two equal-weight shards can land on the
        // same host (impossible under strict least-loaded placement).
        let mut same = false;
        for s in 0..200 {
            let a = sm
                .allocate_shard(ShardId(2 * s), 1.0, None, t(0), &mut reg)
                .unwrap();
            let b = sm
                .allocate_shard(ShardId(2 * s + 1), 1.0, None, t(0), &mut reg)
                .unwrap();
            if a == b {
                same = true;
                break;
            }
        }
        assert!(same, "jittered placement should occasionally collide");
    }

    #[test]
    fn a_vetoed_drain_is_not_retried() {
        let (mut sm, mut reg) = setup(2);
        sm.allocate_shard(ShardId(4), 10.0, None, t(0), &mut reg)
            .unwrap();
        let from = sm.host_of(ShardId(4)).unwrap();
        let to = HostId(1 - from.0);
        reg.servers.get_mut(&to).unwrap().vetoed.insert(4);
        assert_eq!(sm.drain_host(from, t(1), &mut reg).unwrap(), 0);
        // The target would take it now; no later pass asks it.
        reg.servers.get_mut(&to).unwrap().vetoed.clear();
        for s in 2..5 {
            sm.tick(t(s), &mut reg);
            sm.advance_migrations(t(s), &mut reg);
            sm.run_load_balancer(t(s), &mut reg);
        }
        assert_eq!(sm.host_of(ShardId(4)), Some(from));
        assert!(sm.migration_history().is_empty());
    }

    #[test]
    fn reactivate_draining_host() {
        let (mut sm, mut reg) = setup(2);
        sm.drain_host(HostId(0), t(0), &mut reg).unwrap();
        assert_eq!(sm.host_state(HostId(0)), Some(HostState::Draining));
        sm.reactivate_host(HostId(0), t(5)).unwrap();
        assert_eq!(sm.host_state(HostId(0)), Some(HostState::Alive));
    }

    /// `SmServer::hint` before the group index and the rack count: a
    /// walk over every shard's group, and over every host for the racks.
    fn walked_spread_hint(
        app: &AppState,
        hosts: &BTreeMap<HostId, HostEntry>,
        shard: ShardId,
    ) -> SpreadHint {
        let Some(group) = app.groups.get(&shard) else {
            return SpreadHint::none();
        };
        let others = app
            .groups
            .iter()
            .filter(|&(s, g)| *s != shard && g == group);
        let avoid_hosts: std::collections::BTreeSet<HostId> = others
            .filter_map(|(s, _)| app.assignments.get(s).copied())
            .collect();
        let rack = |e: &HostEntry| e.info.domain(SpreadDomain::Rack);
        let mut rack_members: BTreeMap<u64, u64> = hosts.values().map(|e| (rack(e), 0)).collect();
        for e in avoid_hosts.iter().filter_map(|h| hosts.get(h)) {
            *rack_members.entry(rack(e)).or_insert(0) += 1;
        }
        let min_members = rack_members.values().copied().min().unwrap_or(0);
        SpreadHint {
            avoid_hosts: avoid_hosts.into_iter().collect(),
            avoid_domains: rack_members
                .iter()
                .filter(|&(_, &n)| n > min_members)
                .map(|(&d, _)| d)
                .collect(),
            domain_scope: SpreadDomain::Rack,
        }
    }

    #[derive(Debug)]
    enum GroupOp {
        Allocate(u64, Option<u64>),
        /// An allocation no host has room for, so it is withdrawn.
        Unplaceable(u64, Option<u64>),
        Deallocate(u64),
        /// A new host in this rack (racks 4 and 5 start empty).
        Join(u32),
        /// This host fails, and leaves the fleet if it holds nothing.
        Fail(u64),
    }

    /// The group index and the rack count change what a hint visits,
    /// never the hint: after every allocation, failed placement,
    /// deallocation, host join and host failure or removal, each
    /// allocated shard's hint equals the walk's, the index is `groups`
    /// inverted and `racks` counts the hosts of each rack.
    #[test]
    fn prop_indexed_group_hint_matches_the_walk() {
        prop::check_n(
            "prop_indexed_group_hint_matches_the_walk",
            64,
            |rng| {
                let hosts = rng.range(3, 13);
                let ops = gen::vec_with(rng, 1, 80, |r| {
                    let shard = r.below(24);
                    // Three groups, and no group one time in four.
                    let group = r.below(4).checked_sub(1);
                    match r.below(12) {
                        0..=2 => GroupOp::Unplaceable(shard, group),
                        3..=5 => GroupOp::Deallocate(shard),
                        6 => GroupOp::Join(r.below(6) as u32),
                        7 => GroupOp::Fail(r.below(16)),
                        _ => GroupOp::Allocate(shard, group),
                    }
                });
                (hosts, ops)
            },
            |(hosts, ops)| {
                let (mut sm, mut reg) = setup(*hosts);
                let mut next_host = *hosts;
                for op in ops {
                    let _ = match *op {
                        GroupOp::Allocate(s, g) => sm
                            .allocate_shard(ShardId(s), 1.0, g, t(1), &mut reg)
                            .map(drop),
                        GroupOp::Unplaceable(s, g) => sm
                            .allocate_shard(ShardId(s), 1e9, g, t(1), &mut reg)
                            .map(drop),
                        GroupOp::Deallocate(s) => sm.deallocate_shard(ShardId(s), t(1), &mut reg),
                        GroupOp::Join(rack) => {
                            let host = HostId(next_host);
                            next_host += 1;
                            reg.add(host, 100.0);
                            let info = HostInfo::new(host, Rack(rack), Region(0), 100.0);
                            sm.register_host(info, t(1))
                        }
                        GroupOp::Fail(h) => sm
                            .host_failed(HostId(h), t(1), &mut reg)
                            .and_then(|()| sm.remove_host(HostId(h))),
                    };
                    for &s in sm.app.assignments.keys() {
                        let hint = sm.hint(s);
                        let walk = walked_spread_hint(&sm.app, &sm.hosts, s);
                        assert_eq!(
                            (hint.avoid_hosts, hint.avoid_domains),
                            (walk.avoid_hosts, walk.avoid_domains),
                            "{s:?} after {op:?}"
                        );
                    }
                    let mut inverted: BTreeMap<u64, Vec<ShardId>> = BTreeMap::new();
                    for (&s, &g) in &sm.app.groups {
                        inverted.entry(g).or_default().push(s);
                    }
                    let mut index = sm.app.members.clone();
                    index.values_mut().for_each(|m| m.sort_unstable());
                    assert_eq!(index, inverted, "after {op:?}");
                    let mut racks: BTreeMap<u64, usize> = BTreeMap::new();
                    for e in sm.hosts.values() {
                        *racks.entry(e.info.domain(SpreadDomain::Rack)).or_insert(0) += 1;
                    }
                    assert_eq!(sm.racks, racks, "after {op:?}");
                }
            },
        );
    }
}
