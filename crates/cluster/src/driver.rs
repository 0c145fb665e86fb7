//! The end-to-end query path.
//!
//! Reproduces the full production flow of §IV-C/§IV-D: a query enters at
//! the proxy, which picks a region and a coordinator partition; the
//! coordinator fans out one sub-query per table partition, locating each
//! through (possibly stale) service discovery; sub-queries run on the
//! owning nodes (real scans when `execute_data` is on) under the network
//! model's latency and transient failures; the coordinator merges
//! partials; the proxy transparently retries retryable failures in
//! another region.
//!
//! Four stages with typed hand-offs (DESIGN.md "Query path stages"):
//! `plan` once per query, `dispatch` per attempt, feeding a `Collect` one
//! shard outcome at a time, and `merge` of the attempt that answered.
//!
//! Query latency = max over fanned-out servers + coordinator costs,
//! accumulated across retry attempts.

use cubrick::admission::QosClass;
use cubrick::catalog::TableDef;
use cubrick::coordinator::{merge_degraded, merge_partials, FanoutPlan};
use cubrick::error::{CubrickError, CubrickResult};
use cubrick::proxy::{CoordinatorStrategy, CubrickProxy};
use cubrick::query::result::{Coverage, PartialResult, QueryOutput, ShardState};
use cubrick::query::Query;
use scalewall_shard_manager::{HostId, Region};
use scalewall_sim::{SimDuration, SimRng, SimTime};

use crate::deployment::{Deployment, RegionState};
use crate::net::{NetModel, ServerResponse};
use crate::registry::NodeRegistry;

/// Per-query options.
#[derive(Debug, Clone, Copy)]
pub struct QueryOptions {
    pub strategy: CoordinatorStrategy,
    /// Run real scans and return data (vs. latency/success modelling
    /// only — used by million-query experiments).
    pub execute_data: bool,
    pub client_region: Region,
    /// Scuba-style best-effort mode (§II-C): ignore sub-queries that
    /// fail and merge whatever answered, trading accuracy for
    /// availability. Cubrick's production default is `false` — "there
    /// are many BI and data analytics workloads where this assumption
    /// cannot be made". `partial_results` wins when both are set.
    pub best_effort: bool,
    /// QoS class stamped on the query; selects the admission lane and
    /// the stats bucket.
    pub qos: QosClass,
    /// Degraded-mode serving (the typed alternative to `best_effort`):
    /// failed shards become per-shard [`ShardState`] entries in a
    /// [`Coverage`] report and the merged answer is explicitly marked
    /// `partial`, instead of either failing outright or silently
    /// under-counting.
    pub partial_results: bool,
    /// Per-shard service deadline: a sub-query whose RTT + service time
    /// exceeds this is abandoned at the deadline and reported as
    /// [`ShardState::TimedOut`].
    pub shard_timeout: Option<SimDuration>,
    /// The caller already holds an admission slot (the experiment's
    /// admission controller admitted this query before scheduling it);
    /// skip the proxy-side admit/complete pair.
    pub admission_held: bool,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions {
            strategy: CoordinatorStrategy::CachedRandom,
            execute_data: true,
            client_region: Region(0),
            best_effort: false,
            qos: QosClass::Interactive,
            partial_results: false,
            shard_timeout: None,
            admission_held: false,
        }
    }
}

/// What happened to one query.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    pub success: bool,
    /// End-to-end latency including failed attempts.
    pub latency: SimDuration,
    pub attempts: u32,
    pub output: Option<QueryOutput>,
    pub error: Option<CubrickError>,
    /// `true` when a degraded-mode answer is missing shards (always
    /// `false` unless `partial_results` was requested).
    pub partial: bool,
    /// Per-shard status of the attempt that answered, plan order (`None`
    /// on failure). Only a query that tolerates failed shards can hold
    /// anything but `Answered`.
    pub coverage: Option<Coverage>,
    /// Region that served the successful attempt.
    pub served_region: Option<Region>,
    /// Coordinator partition of the successful attempt (queue-depth
    /// bookkeeping key for the experiment layer).
    pub coordinator_partition: Option<u32>,
}

impl QueryOutcome {
    /// Partitions the answering attempt fanned out to; 0 on failure.
    pub fn fan_out(&self) -> usize {
        self.coverage.as_ref().map_or(0, Coverage::total)
    }

    /// Partitions whose sub-query answered: `fan_out()`, except for a
    /// degraded or best-effort answer missing shards; 0 on failure.
    pub fn partitions_answered(&self) -> usize {
        self.coverage.as_ref().map_or(0, Coverage::answered)
    }
}

/// What a failed shard does to an attempt, resolved once from the
/// options. The two tolerant policies take one path and differ only in
/// what they report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Policy {
    /// Any failed shard fails the attempt: Cubrick's default (§II-C).
    Strict,
    /// Scuba-style (§II-C): merge whatever answered, blame no host, and
    /// answer even when no shard did.
    BestEffort,
    /// Typed degraded serving: merge whatever answered, blame each failed
    /// shard's host, mark the answer `partial`, and fall back to the
    /// retry path when no shard answered.
    Partial,
}

/// What `plan` hands every attempt: the query, its table as the catalog
/// defines it now, the partitions to visit and the policy.
struct Plan<'q> {
    query: &'q Query,
    opts: &'q QueryOptions,
    def: TableDef,
    max_shards: u64,
    fanout: FanoutPlan,
    policy: Policy,
}

impl<'q> Plan<'q> {
    fn new(query: &'q Query, opts: &'q QueryOptions, def: TableDef, max_shards: u64) -> Self {
        let policy = match (opts.partial_results, opts.best_effort) {
            (true, _) => Policy::Partial,
            (false, true) => Policy::BestEffort,
            (false, false) => Policy::Strict,
        };
        let fanout = FanoutPlan::for_table(&query.table, def.partitions);
        Plan {
            query,
            opts,
            def,
            max_shards,
            fanout,
            policy,
        }
    }
}

/// What a query has cost so far, failed attempts included.
#[derive(Default)]
struct Spent {
    attempts: u32,
    latency: SimDuration,
}

/// A sub-query's answer: its latency, its partial (with data) and the
/// host that served it.
type Answer = (SimDuration, Option<PartialResult>, HostId);

/// A sub-query or an attempt without an answer: what it cost, why, and
/// the host to blame (none when it reached no host).
type Failure = (SimDuration, CubrickError, Option<HostId>);

/// What `dispatch` hands `merge`: the attempt that answered.
struct Answered {
    region: Region,
    coordinator: u32,
    shards: Collect,
}

/// Stage 3, the fold `dispatch` feeds one shard outcome at a time, plan
/// order: the one place an attempt's coverage, partials, streak updates
/// and first failure are kept, and where the policy decides whether the
/// attempt answered. Makes no RNG draw.
struct Collect {
    policy: Policy,
    /// The proxy holds a failure streak an answering host may clear.
    streaks: bool,
    /// The slowest sub-query so far: the coordinator waits out every one,
    /// a failed one included.
    slowest: SimDuration,
    partials: Vec<PartialResult>,
    coverage: Coverage,
    /// The failure streaks an answer settles, fold order: `true` clears an
    /// answering host's (kept only under `streaks`), `false` counts a
    /// failed shard's culprit (only under `Partial`).
    hosts: Vec<(HostId, bool)>,
    /// The attempt's error, should the policy refuse its answer.
    first_failure: Option<Failure>,
}

impl Collect {
    fn new(plan: &Plan, streaks: bool) -> Self {
        let fan_out = plan.fanout.fan_out();
        let with_data = if plan.opts.execute_data { fan_out } else { 0 };
        Collect {
            policy: plan.policy,
            streaks,
            slowest: SimDuration::ZERO,
            partials: Vec::with_capacity(with_data),
            coverage: Coverage::default(),
            hosts: Vec::new(),
            first_failure: None,
        }
    }

    /// Fold in partition `p`'s outcome; `false` once the attempt is over
    /// (`Strict`, at its first failure: no further sub-query is sent).
    fn push(&mut self, p: u32, outcome: Result<Answer, Failure>) -> bool {
        let state = match outcome {
            Ok((latency, partial, host)) => {
                self.slowest = self.slowest.max(latency);
                if self.streaks {
                    self.hosts.push((host, true));
                }
                if let Some(partial) = partial {
                    self.partials.push(partial);
                }
                ShardState::Answered
            }
            Err((latency, error, culprit)) => {
                self.slowest = self.slowest.max(latency);
                let state = match error {
                    CubrickError::HostBlacklisted { .. } => ShardState::Blacklisted,
                    CubrickError::ShardTimeout { .. } => ShardState::TimedOut,
                    _ => ShardState::Unavailable,
                };
                if let (Policy::Partial, Some(host)) = (self.policy, culprit) {
                    self.hosts.push((host, false));
                }
                self.first_failure.get_or_insert((latency, error, culprit));
                state
            }
        };
        self.coverage.push(p, state);
        self.policy != Policy::Strict || self.first_failure.is_none()
    }

    /// The attempt's end: its latency when the policy accepts the answer
    /// (the fan-out round trip, the slowest sub-query and the merge), else
    /// its first failure, costing what elapsed before the coordinator saw
    /// it. `Strict` refuses any failed shard, `Partial` an answer with no
    /// shard in it, best effort nothing.
    fn finish(&mut self, net: &NetModel) -> Result<SimDuration, Failure> {
        if let Some((_, error, culprit)) = self.first_failure.take() {
            let refused = match self.policy {
                Policy::Strict => true,
                Policy::Partial => self.coverage.answered() == 0,
                Policy::BestEffort => false,
            };
            if refused {
                return Err((self.slowest + net.rtt(), error, culprit));
            }
        }
        // Not refused, so every planned shard was folded in.
        let fan_out = self.coverage.total();
        Ok(net.rtt() + self.slowest + net.merge_cost(fan_out))
    }

    /// Settle the proxy's failure streaks for an answer: clear each
    /// answering host's (else transient failures pile up into spurious
    /// blacklistings), then count each culprit's (else a partially failing
    /// host never gets blacklisted under degraded-mode traffic).
    fn settle(&self, proxy: &mut CubrickProxy, now: SimTime) {
        for &(host, _) in self.hosts.iter().filter(|(_, answered)| *answered) {
            proxy.record_host_success(host);
        }
        for &(host, _) in self.hosts.iter().filter(|(_, answered)| !answered) {
            proxy.record_host_failure(host, now);
        }
    }
}

/// A failed query's outcome. Cold: inlined into the path's exits it cost
/// `fanout_sweep` about 1 % (no query fails there).
#[cold]
fn failed(error: CubrickError, spent: &Spent) -> QueryOutcome {
    QueryOutcome {
        success: false,
        latency: spent.latency,
        attempts: spent.attempts,
        output: None,
        error: Some(error),
        partial: false,
        coverage: None,
        served_region: None,
        coordinator_partition: None,
    }
}

/// Run one query through the full path: take an admission slot (unless
/// the caller holds one), plan → dispatch → collect → merge, give the
/// slot back.
pub fn run_query(
    dep: &mut Deployment,
    proxy: &mut CubrickProxy,
    net: &NetModel,
    query: &Query,
    opts: &QueryOptions,
    now: SimTime,
    rng: &mut SimRng,
) -> QueryOutcome {
    let mut spent = Spent::default();
    if !opts.admission_held {
        if let Err(e) = proxy.admit_class(opts.qos) {
            return failed(e, &spent);
        }
    }
    let mut region_flags = std::mem::take(&mut dep.region_flags);
    region_flags.clear();
    region_flags.extend(dep.regions.iter().map(|r| (r.region, r.available)));
    let outcome = plan(dep, query, opts).and_then(|plan| {
        let answered = dispatch(dep, proxy, net, &plan, &region_flags, &mut spent, now, rng)?;
        merge(proxy, &plan, answered, &spent)
    });
    dep.region_flags = region_flags;
    if !opts.admission_held {
        proxy.complete_class(opts.qos);
    }
    outcome.unwrap_or_else(|e| failed(e, &spent))
}

/// Stage 1, once per query: the catalog lookup, the ORDER BY range check,
/// the fan-out plan and the policy. Makes no RNG draw.
fn plan<'q>(dep: &Deployment, query: &'q Query, opts: &'q QueryOptions) -> CubrickResult<Plan<'q>> {
    let (def, max_shards) = {
        let catalog = dep.catalog.read();
        (catalog.get(&query.table)?.clone(), catalog.max_shards())
    };
    if !query.order_in_range() {
        let detail = "ORDER BY is past the result's columns".to_string();
        return Err(CubrickError::InvalidQuery { detail });
    }
    Ok(Plan::new(query, opts, def, max_shards))
}

/// Stage 2, the proxy's attempts (§IV-C/§IV-D). Each picks a region the
/// query has not failed in, checks it is reachable, picks a coordinator
/// and scatters the sub-queries into a `Collect`. An answer settles the
/// proxy's failure streaks; a failure blames its culprit and is retried
/// in another region while the proxy's policy allows. The only stage that
/// draws from `rng`: per attempt the coordinator choice's draws, then one
/// `server_response` per sub-query that reaches a server, plan order.
#[allow(clippy::too_many_arguments)]
fn dispatch(
    dep: &mut Deployment,
    proxy: &mut CubrickProxy,
    net: &NetModel,
    plan: &Plan,
    region_flags: &[(Region, bool)],
    spent: &mut Spent,
    now: SimTime,
    rng: &mut SimRng,
) -> CubrickResult<Answered> {
    let (query, opts) = (plan.query, plan.opts);
    let mut excluded: Vec<Region> = Vec::new();
    loop {
        let region = proxy.choose_region(region_flags, opts.client_region, &excluded)?;
        spent.attempts += 1;
        let (latency, error, culprit) = if net.reachable(opts.client_region.0, region.0) {
            // Coordinator selection costs (§IV-C strategies): a metadata
            // round trip or a forwarding hop.
            let partitions = plan.def.partitions;
            let choice = proxy.choose_coordinator(&query.table, opts.strategy, partitions, rng);
            let trips = u64::from(choice.extra_roundtrip) + u64::from(choice.extra_hop);
            spent.latency += net.rtt().mul(trips);
            let Some(state) = dep.regions.iter_mut().find(|r| r.region == region) else {
                let detail = format!("proxy chose region {} outside the deployment", region.0);
                return Err(CubrickError::Internal { detail });
            };
            // A success only matters to a host with a failure streak to
            // clear, and only such a host can be blacklisted; the proxy
            // cannot change during the attempt: ask once.
            let mut shards = Collect::new(plan, proxy.has_failure_streaks());
            let scattered = scatter(state, proxy, net, plan, &mut shards, now, rng);
            match scattered.and_then(|()| shards.finish(net)) {
                Ok(latency) => {
                    spent.latency += latency;
                    shards.settle(proxy, now);
                    let coordinator = choice.partition;
                    return Ok(Answered {
                        region,
                        coordinator,
                        shards,
                    });
                }
                Err(failure) => failure,
            }
        } else {
            // Inter-region network partition (fault injection): the attempt
            // dies at connection establishment and the proxy falls back to
            // another region — the same §IV-D retry path hardware failures
            // take.
            let (from, to) = (opts.client_region.0, region.0);
            let error = CubrickError::RegionUnreachable { from, to };
            (net.unreachable_probe(), error, None)
        };
        spent.latency += latency;
        if let Some(host) = culprit {
            proxy.record_host_failure(host, now);
        }
        // A blacklisted replica is not coming back within this query's
        // lifetime: if every other candidate region's copy of the failing
        // shard is also blacklisted (or unresolvable), retrying just burns
        // the retry budget on zero-latency rejections. Short-circuit to a
        // typed terminal error instead.
        if let CubrickError::HostBlacklisted { partition, .. } = &error {
            let shard = plan.def.shard_of(*partition, plan.max_shards);
            let serves = |r: Region| {
                let state = dep.regions.iter().find(|rs| rs.region == r);
                let host = state.and_then(|rs| rs.resolved_host(shard, now));
                host.is_some_and(|h| !proxy.is_blacklisted(h, now))
            };
            let viable_elsewhere = (region_flags.iter())
                .any(|&(r, up)| up && r != region && !excluded.contains(&r) && serves(r));
            if !viable_elsewhere {
                let (table, partition) = (query.table.clone(), *partition);
                return Err(CubrickError::AllReplicasUnavailable { table, partition });
            }
        }
        if !proxy.should_retry(&error, spent.attempts - 1) {
            return Err(error);
        }
        excluded.push(region);
    }
}

/// One attempt's fan-out in one region: locate every partition through
/// service discovery (the client-visible, possibly stale view) in one
/// step — the region's cached route, re-resolved only when its answer can
/// have changed, and beside it which of its targets are known to serve
/// their shard — then fold each partition's sub-query into `shards`
/// until the policy ends the attempt.
fn scatter(
    region: &mut RegionState,
    proxy: &CubrickProxy,
    net: &NetModel,
    plan: &Plan,
    shards: &mut Collect,
    now: SimTime,
    rng: &mut SimRng,
) -> Result<(), Failure> {
    let streaks = shards.streaks.then_some(proxy);
    let RegionState {
        sm,
        discovery,
        routes,
        nodes,
        ..
    } = region;
    let (def, max_shards) = (&plan.def, plan.max_shards);
    let (route, direct) = routes.route(
        sm.mappings(),
        *discovery,
        def,
        max_shards,
        nodes.changes(),
        now,
    );
    for p in plan.fanout.partitions() {
        let at = p as usize;
        let (Some((shard, target)), Some(direct)) = (route.get(at), direct.get_mut(at)) else {
            let detail = format!("partition {p} outside the route of {}", def.name);
            return Err((SimDuration::ZERO, CubrickError::Internal { detail }, None));
        };
        let target = target.map(HostId);
        let outcome = sub_query(
            nodes, net, plan, p, shard, target, direct, streaks, now, rng,
        );
        if !shards.push(p, outcome) {
            break;
        }
    }
    Ok(())
}

/// Stage 4: merge the answering attempt's partials — `merge_partials`
/// under `Strict`, which needs every shard; `merge_degraded` over the
/// coverage otherwise — apply ORDER BY/LIMIT, and refresh the proxy's
/// partition cache from the result metadata. Makes no RNG draw.
fn merge(
    proxy: &mut CubrickProxy,
    plan: &Plan,
    answered: Answered,
    spent: &Spent,
) -> CubrickResult<QueryOutcome> {
    let Answered {
        region,
        coordinator,
        shards,
    } = answered;
    let Collect {
        policy,
        partials,
        coverage,
        ..
    } = shards;
    let table = &plan.query.table;
    let output = if plan.opts.execute_data {
        let mut merged = match policy {
            Policy::Strict => merge_partials(&plan.fanout, partials).map(Some)?,
            Policy::BestEffort | Policy::Partial => {
                merge_degraded(&plan.fanout, partials, &coverage)?
            }
        };
        if let Some(out) = &mut merged {
            // Coordinator applies ORDER BY / LIMIT on the merged result
            // (exact top-N needs every group).
            plan.query.apply_order_limit(out);
            proxy.record_result_metadata(table, out.table_partitions);
        }
        merged
    } else {
        proxy.record_result_metadata(table, plan.def.partitions);
        None
    };
    Ok(QueryOutcome {
        success: true,
        latency: spent.latency,
        attempts: spent.attempts,
        output,
        error: None,
        partial: policy == Policy::Partial && !coverage.complete(),
        coverage: Some(coverage),
        served_region: Some(region),
        coordinator_partition: Some(coordinator),
    })
}

/// One sub-query for `shard`, against the server the region's discovery
/// view resolved it to (`target`; `None` when it resolves to nothing).
///
/// `direct` is the route's memory of this partition (DESIGN.md "Serving
/// verdicts"): set, the ladder below already found `target` serving the
/// shard and nothing that could change that has happened since; clear,
/// the ladder runs and sets it if that is what it finds. `streaks` is the
/// proxy while some host has a failure streak (only then a blacklist).
#[allow(clippy::too_many_arguments)]
fn sub_query(
    nodes: &mut NodeRegistry,
    net: &NetModel,
    plan: &Plan,
    partition: u32,
    shard: u64,
    target: Option<HostId>,
    direct: &mut bool,
    streaks: Option<&CubrickProxy>,
    now: SimTime,
    rng: &mut SimRng,
) -> Result<Answer, Failure> {
    let (query, opts) = (plan.query, plan.opts);
    let table = || query.table.clone();
    let unavailable = || CubrickError::PartitionUnavailable {
        table: table(),
        partition,
    };
    let not_owned = || CubrickError::ShardNotOwned {
        table: table(),
        partition,
    };

    let Some(target) = target else {
        return Err((net.rtt(), unavailable(), None));
    };

    // Blacklisted hosts are not contacted at all (§IV-C/D: the proxy
    // blacklists repeatedly-failing hosts): fail fast so the retry lands
    // in another region instead of paying another timeout. The error is
    // typed so the caller can distinguish "we chose not to call" from
    // "the call failed" — and short-circuit when *every* replica is in
    // that state.
    if streaks.is_some_and(|proxy| proxy.is_blacklisted(target, now)) {
        let error = CubrickError::HostBlacklisted {
            table: table(),
            partition,
        };
        return Err((SimDuration::ZERO, error, None));
    }

    let mut latency = SimDuration::ZERO;
    let mut serving = target;

    if !*direct {
        // A dead process answers nothing.
        if nodes.is_down(serving) {
            return Err((net.rtt().mul(2), unavailable(), Some(serving)));
        }

        // Does the resolved server still serve the shard? During a graceful
        // migration the old owner forwards; after a plain migration it
        // errors (stale-cache window).
        let Some(probe) = nodes.node(serving).map(|n| n.probe_shard(shard)) else {
            return Err((net.rtt().mul(2), unavailable(), Some(serving)));
        };
        if probe.owns && probe.ready {
            *direct = true;
        } else if let Some(new_owner) = probe.forward {
            // Graceful forwarding: one extra hop, then the new owner.
            latency += net.forward_hop();
            serving = new_owner;
            if nodes.is_down(serving) {
                return Err((latency + net.rtt().mul(2), unavailable(), Some(serving)));
            }
            if !nodes.node(serving).is_some_and(|n| n.shard_ready(shard)) {
                return Err((latency + net.rtt(), not_owned(), Some(serving)));
            }
        } else if !probe.owns {
            return Err((net.rtt(), not_owned(), Some(serving)));
        } else {
            let error = CubrickError::ShardLoading {
                table: table(),
                partition,
            };
            return Err((net.rtt(), error, Some(serving)));
        }
    }

    // The server answers under the network model.
    match net.server_response(rng) {
        ServerResponse::Failed => Err((latency + net.rtt().mul(2), unavailable(), Some(serving))),
        ServerResponse::Ok(service_time) => {
            // Per-shard deadline: the coordinator abandons a laggard at
            // the deadline (latency is capped there — the answer, if it
            // ever arrives, is discarded).
            if let Some(deadline) = opts.shard_timeout {
                if net.rtt() + service_time > deadline {
                    let error = CubrickError::ShardTimeout {
                        table: table(),
                        partition,
                    };
                    return Err((latency + deadline, error, Some(serving)));
                }
            }
            latency += net.rtt() + service_time;
            let partial = if opts.execute_data {
                let Some(node) = nodes.scanning_node_mut(serving) else {
                    let detail = format!("host {serving:?} vanished between probe and scan");
                    return Err((latency, CubrickError::Internal { detail }, Some(serving)));
                };
                match node.execute_local(query, partition) {
                    Ok(partial) => Some(partial),
                    Err(e) => return Err((latency, e, Some(serving))),
                }
            } else {
                None
            };
            Ok((latency, partial, serving))
        }
    }
}

/// Convenience: run the same query repeatedly (e.g. every 500 ms, as in
/// the Fig 5 experiment), arrival `i` at `start + i·interval`, recording
/// latencies and successes.
#[allow(clippy::too_many_arguments)]
pub fn run_query_series(
    dep: &mut Deployment,
    proxy: &mut CubrickProxy,
    net: &NetModel,
    query: &Query,
    opts: &QueryOptions,
    start: SimTime,
    interval: SimDuration,
    count: u64,
    rng: &mut SimRng,
    histogram: &mut scalewall_sim::Histogram,
) -> (u64, u64) {
    let mut successes = 0u64;
    let mut failures = 0u64;
    let base = start.as_nanos();
    let step = interval.as_nanos();
    for i in 0..count {
        let at = SimTime::from_nanos(base + i * step);
        let outcome = run_query(dep, proxy, net, query, opts, at, rng);
        if outcome.success {
            successes += 1;
            histogram.record_duration(outcome.latency);
        } else {
            failures += 1;
        }
    }
    (successes, failures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::DeploymentConfig;
    use crate::net::NetModelConfig;
    use cubrick::admission::AdmissionConfig;
    use cubrick::catalog::RowMapping;
    use cubrick::proxy::ProxyConfig;
    use cubrick::query::parse_query;
    use cubrick::schema::SchemaBuilder;
    use cubrick::sharding::ShardMapping;
    use cubrick::value::{Row, Value};
    use std::sync::Arc;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    struct Fixture {
        dep: Deployment,
        proxy: CubrickProxy,
        net: NetModel,
        rng: SimRng,
    }

    fn fixture(failure_p: f64) -> Fixture {
        let mut dep = Deployment::new(DeploymentConfig {
            regions: 3,
            hosts_per_region: 8,
            max_shards: 1_000,
            ..Default::default()
        });
        let schema = Arc::new(
            SchemaBuilder::new()
                .int_dim("k", 0, 1_000, 50)
                .metric("m")
                .build()
                .unwrap(),
        );
        dep.create_table(
            "t",
            schema,
            8,
            RowMapping::Hash,
            ShardMapping::Monotonic,
            t(0),
        )
        .unwrap();
        let rows: Vec<Row> = (0..1_000)
            .map(|k| Row::new(vec![Value::Int(k)], vec![k as f64]))
            .collect();
        dep.ingest("t", &rows).unwrap();
        Fixture {
            dep,
            proxy: CubrickProxy::new(ProxyConfig::default()),
            net: NetModel::new(NetModelConfig {
                server_failure_probability: failure_p,
                ..Default::default()
            }),
            rng: SimRng::new(99),
        }
    }

    // Queries run "late" so discovery propagation for the initial
    // publishes has certainly finished.
    const QUERY_TIME: u64 = 3_600;

    #[test]
    fn successful_query_returns_correct_data() {
        let mut f = fixture(0.0);
        let query = parse_query("select sum(m), count(*) from t").unwrap();
        let outcome = run_query(
            &mut f.dep,
            &mut f.proxy,
            &f.net,
            &query,
            &QueryOptions::default(),
            t(QUERY_TIME),
            &mut f.rng,
        );
        assert!(outcome.success, "{:?}", outcome.error);
        assert_eq!(outcome.attempts, 1);
        assert_eq!(outcome.fan_out(), 8);
        let out = outcome.output.unwrap();
        assert_eq!(out.rows[0].aggs[1], 1_000.0);
        let oracle: f64 = (0..1_000).map(|k| k as f64).sum();
        assert_eq!(out.rows[0].aggs[0], oracle);
        assert!(outcome.latency > SimDuration::ZERO);
        // Result metadata refreshed the proxy cache.
        assert_eq!(f.proxy.cached_partitions("t"), Some(8));
    }

    #[test]
    fn grouped_query_merges_across_partitions() {
        let mut f = fixture(0.0);
        let query =
            parse_query("select count(*) from t where k between 0 and 99 group by k").unwrap();
        let outcome = run_query(
            &mut f.dep,
            &mut f.proxy,
            &f.net,
            &query,
            &QueryOptions::default(),
            t(QUERY_TIME),
            &mut f.rng,
        );
        let out = outcome.output.unwrap();
        assert_eq!(out.rows.len(), 100);
        assert!(out.rows.iter().all(|r| r.aggs[0] == 1.0));
    }

    #[test]
    fn unknown_table_fails_fast() {
        let mut f = fixture(0.0);
        let query = parse_query("select count(*) from nope").unwrap();
        let outcome = run_query(
            &mut f.dep,
            &mut f.proxy,
            &f.net,
            &query,
            &QueryOptions::default(),
            t(QUERY_TIME),
            &mut f.rng,
        );
        assert!(!outcome.success);
        assert!(matches!(
            outcome.error,
            Some(CubrickError::NoSuchTable { .. })
        ));
        assert_eq!(f.proxy.active_queries(), 0, "admission slot released");
    }

    /// A hand-built `ORDER BY` past the select list used to panic in the
    /// coordinator's sort, after every shard had done its work: it is
    /// refused before the fan-out, and the slot comes back.
    #[test]
    fn out_of_range_order_by_is_refused_before_the_fan_out() {
        use cubrick::query::{OrderBy, OrderTarget};
        let served = |f: &Fixture| -> u64 {
            let nodes = f.dep.regions.iter().map(|r| &r.nodes);
            nodes
                .flat_map(|nodes| nodes.hosts().filter_map(|h| nodes.node(h)))
                .map(|node| node.queries_served)
                .sum()
        };
        for target in [OrderTarget::Agg(3), OrderTarget::Dim(1)] {
            let mut f = fixture(0.0);
            let mut query = parse_query("select count(*) from t group by k").unwrap();
            query.order_by = Some(OrderBy {
                target,
                descending: true,
            });
            let before = served(&f);
            let outcome = run_query(
                &mut f.dep,
                &mut f.proxy,
                &f.net,
                &query,
                &QueryOptions::default(),
                t(QUERY_TIME),
                &mut f.rng,
            );
            assert!(!outcome.success);
            let error = outcome.error.unwrap();
            assert!(
                matches!(error, CubrickError::InvalidQuery { .. }),
                "{error:?}"
            );
            assert_eq!(outcome.attempts, 0);
            assert_eq!(served(&f), before, "no sub-query ran");
            assert_eq!(f.proxy.active_queries(), 0, "admission slot released");
        }
    }

    /// Every way a query can fail hands its admission slot back. The merge
    /// errors are the one exit not driven here: they guard invariants no
    /// consistent catalog trips, and leave through the same single return.
    #[test]
    fn every_failing_exit_releases_the_slot() {
        /// Each region's owner of the table's first shard.
        fn first_shard_owners(f: &Fixture) -> Vec<HostId> {
            let shards = f.dep.catalog.read().shards_of_table("t").unwrap();
            let owner = |r: &RegionState| r.authoritative_host(shards[0]).unwrap();
            f.dep.regions.iter().map(owner).collect()
        }
        type Case = (
            &'static str,
            &'static str,
            fn(&mut Fixture),
            fn(&CubrickError) -> bool,
        );
        let cases: [Case; 6] = [
            (
                "admission refused",
                "t",
                |f| {
                    f.proxy = CubrickProxy::new(ProxyConfig {
                        admission: AdmissionConfig::flat(0),
                        ..Default::default()
                    })
                },
                |e| matches!(e, CubrickError::AdmissionRejected { .. }),
            ),
            (
                "unknown table",
                "nope",
                |_| {},
                |e| matches!(e, CubrickError::NoSuchTable { .. }),
            ),
            (
                "no region left",
                "t",
                |f| f.dep.regions.iter_mut().for_each(|r| r.available = false),
                |e| matches!(e, CubrickError::NoAvailableRegion),
            ),
            (
                "unreachable region, retries spent",
                "t",
                |f| {
                    // The client's own region is down and the next one is
                    // behind a cut link.
                    f.dep.regions[0].available = false;
                    f.net.cut(0, 1);
                    f.proxy = CubrickProxy::new(ProxyConfig {
                        max_retries: 0,
                        ..Default::default()
                    });
                },
                |e| matches!(e, CubrickError::RegionUnreachable { from: 0, to: 1 }),
            ),
            (
                "every replica blacklisted",
                "t",
                |f| {
                    for owner in first_shard_owners(f) {
                        blacklist(&mut f.proxy, owner, t(QUERY_TIME));
                    }
                },
                |e| matches!(e, CubrickError::AllReplicasUnavailable { .. }),
            ),
            (
                "servers down everywhere, retries spent",
                "t",
                |f| {
                    // Crashed without SM knowing: every region's attempt
                    // reaches a dead process.
                    for (region, owner) in first_shard_owners(f).into_iter().enumerate() {
                        f.dep.regions[region].nodes.crash(owner);
                    }
                },
                |e| matches!(e, CubrickError::PartitionUnavailable { .. }),
            ),
        ];
        for (name, table, arrange, expected) in cases {
            let mut f = fixture(0.0);
            arrange(&mut f);
            let query = parse_query(&format!("select count(*) from {table}")).unwrap();
            let outcome = run_query(
                &mut f.dep,
                &mut f.proxy,
                &f.net,
                &query,
                &QueryOptions::default(),
                t(QUERY_TIME),
                &mut f.rng,
            );
            assert!(!outcome.success, "{name}");
            let error = outcome.error.as_ref().unwrap();
            assert!(expected(error), "{name}: {error:?}");
            assert_eq!(f.proxy.active_queries(), 0, "{name}: slot released");
        }
    }

    #[test]
    fn dead_host_query_retries_in_other_region() {
        let mut f = fixture(0.0);
        // Kill one shard-owning host in region 0 *without* telling SM
        // (heartbeat loss not yet detected): region 0 attempts fail, the
        // proxy fails over to region 1.
        let shards = f.dep.catalog.read().shards_of_table("t").unwrap();
        let victim = f.dep.regions[0].authoritative_host(shards[0]).unwrap();
        f.dep.regions[0].nodes.crash(victim);

        let query = parse_query("select count(*) from t").unwrap();
        let outcome = run_query(
            &mut f.dep,
            &mut f.proxy,
            &f.net,
            &query,
            &QueryOptions {
                client_region: Region(0),
                ..Default::default()
            },
            t(QUERY_TIME),
            &mut f.rng,
        );
        assert!(outcome.success, "{:?}", outcome.error);
        assert!(outcome.attempts >= 2, "must have retried");
        assert_eq!(outcome.output.unwrap().rows[0].aggs[0], 1_000.0);
        assert_eq!(f.proxy.stats.retries, (outcome.attempts - 1) as u64);
    }

    #[test]
    fn whole_region_down_routes_elsewhere() {
        let mut f = fixture(0.0);
        f.dep.regions[0].available = false;
        let query = parse_query("select count(*) from t").unwrap();
        let outcome = run_query(
            &mut f.dep,
            &mut f.proxy,
            &f.net,
            &query,
            &QueryOptions {
                client_region: Region(0),
                ..Default::default()
            },
            t(QUERY_TIME),
            &mut f.rng,
        );
        assert!(outcome.success);
        assert_eq!(outcome.attempts, 1, "proxy never tried the down region");
    }

    #[test]
    fn all_regions_down_is_terminal() {
        let mut f = fixture(0.0);
        for r in &mut f.dep.regions {
            r.available = false;
        }
        let query = parse_query("select count(*) from t").unwrap();
        let outcome = run_query(
            &mut f.dep,
            &mut f.proxy,
            &f.net,
            &query,
            &QueryOptions::default(),
            t(QUERY_TIME),
            &mut f.rng,
        );
        assert!(!outcome.success);
        assert!(matches!(
            outcome.error,
            Some(CubrickError::NoAvailableRegion)
        ));
    }

    #[test]
    fn transient_failures_reduce_success_ratio_with_fanout() {
        // With p=1% per server and fan-out 8, single-attempt success is
        // ~0.92; the proxy's cross-region retries lift it substantially.
        let mut f = fixture(0.01);
        let query = parse_query("select count(*) from t").unwrap();
        let opts = QueryOptions {
            execute_data: false,
            ..Default::default()
        };
        let mut successes = 0;
        let mut single_attempt_successes = 0;
        let n = 2_000;
        for i in 0..n {
            let outcome = run_query(
                &mut f.dep,
                &mut f.proxy,
                &f.net,
                &query,
                &opts,
                t(QUERY_TIME + i),
                &mut f.rng,
            );
            if outcome.success {
                successes += 1;
                if outcome.attempts == 1 {
                    single_attempt_successes += 1;
                }
            }
        }
        let single_ratio = single_attempt_successes as f64 / n as f64;
        let retried_ratio = successes as f64 / n as f64;
        let expected_single = 0.99f64.powi(8);
        assert!(
            (single_ratio - expected_single).abs() < 0.03,
            "single-attempt {single_ratio} vs model {expected_single}"
        );
        assert!(
            retried_ratio > single_ratio,
            "{retried_ratio} vs {single_ratio}"
        );
        assert!(retried_ratio > 0.99);
    }

    #[test]
    fn blacklisted_host_is_skipped_without_contact() {
        let mut f = fixture(0.0);
        // Crash a shard owner without telling SM; repeated failures
        // blacklist it, after which region-0 attempts fail instantly
        // (no 2×RTT dead-host probe) and retries serve the query.
        let shards = f.dep.catalog.read().shards_of_table("t").unwrap();
        let victim = f.dep.regions[0].authoritative_host(shards[0]).unwrap();
        f.dep.regions[0].nodes.crash(victim);
        let query = parse_query("select count(*) from t").unwrap();
        let opts = QueryOptions {
            client_region: Region(0),
            ..Default::default()
        };
        for i in 0..10 {
            let outcome = run_query(
                &mut f.dep,
                &mut f.proxy,
                &f.net,
                &query,
                &opts,
                t(QUERY_TIME + i),
                &mut f.rng,
            );
            assert!(outcome.success, "retries keep serving: {:?}", outcome.error);
        }
        assert!(
            f.proxy.is_blacklisted(victim, t(QUERY_TIME + 10)),
            "repeated failures blacklist the host"
        );
        // With the host blacklisted, the failed attempt costs ~nothing:
        // the query still succeeds via another region.
        let outcome = run_query(
            &mut f.dep,
            &mut f.proxy,
            &f.net,
            &query,
            &opts,
            t(QUERY_TIME + 11),
            &mut f.rng,
        );
        assert!(outcome.success);
        assert!(outcome.attempts >= 2);
    }

    #[test]
    fn best_effort_mode_returns_partial_data() {
        let mut f = fixture(0.0);
        let shards = f.dep.catalog.read().shards_of_table("t").unwrap();
        let victim = f.dep.regions[0].authoritative_host(shards[0]).unwrap();
        f.dep.regions[0].nodes.crash(victim);
        let query = parse_query("select count(*) from t").unwrap();
        // Best-effort with no retries: the answer comes back incomplete
        // instead of failing.
        let mut proxy = CubrickProxy::new(cubrick::proxy::ProxyConfig {
            max_retries: 0,
            ..Default::default()
        });
        let outcome = run_query(
            &mut f.dep,
            &mut proxy,
            &f.net,
            &query,
            &QueryOptions {
                client_region: Region(0),
                best_effort: true,
                ..Default::default()
            },
            t(QUERY_TIME),
            &mut f.rng,
        );
        assert!(outcome.success);
        assert!(outcome.partitions_answered() < outcome.fan_out());
        let counted = outcome.output.unwrap().scalar().unwrap();
        assert!(
            counted < 1_000.0,
            "answer is silently incomplete: {counted}"
        );
        assert!(counted > 0.0);
    }

    /// Blacklist `host` at the proxy directly (threshold failures).
    fn blacklist(proxy: &mut CubrickProxy, host: HostId, now: SimTime) {
        for _ in 0..proxy.config().blacklist_threshold {
            proxy.record_host_failure(host, now);
        }
        assert!(proxy.is_blacklisted(host, now));
    }

    #[test]
    fn fully_blacklisted_replica_set_fails_fast() {
        // Regression (the retry-spin bug): with every region's copy of a
        // shard blacklisted, each attempt failed at zero cost and
        // `should_retry` happily burned the whole retry budget before
        // surfacing an unrelated error. The path now short-circuits to a
        // typed `AllReplicasUnavailable` on the *first* attempt.
        let mut f = fixture(0.0);
        let shards = f.dep.catalog.read().shards_of_table("t").unwrap();
        let now = t(QUERY_TIME);
        for r in 0..3 {
            let owner = f.dep.regions[r].authoritative_host(shards[0]).unwrap();
            blacklist(&mut f.proxy, owner, now);
        }
        let query = parse_query("select count(*) from t").unwrap();
        let outcome = run_query(
            &mut f.dep,
            &mut f.proxy,
            &f.net,
            &query,
            &QueryOptions::default(),
            now,
            &mut f.rng,
        );
        assert!(!outcome.success);
        assert!(matches!(
            outcome.error,
            Some(CubrickError::AllReplicasUnavailable { partition: 0, .. })
        ));
        assert_eq!(outcome.attempts, 1, "no retry spin");
        assert_eq!(f.proxy.active_queries(), 0, "admission slot released");
    }

    #[test]
    fn one_blacklisted_replica_still_retries_elsewhere() {
        // The short-circuit must not over-trigger: with region 1's copy
        // healthy, a blacklisted region-0 copy still fails over.
        let mut f = fixture(0.0);
        let shards = f.dep.catalog.read().shards_of_table("t").unwrap();
        let now = t(QUERY_TIME);
        let owner = f.dep.regions[0].authoritative_host(shards[0]).unwrap();
        blacklist(&mut f.proxy, owner, now);
        let query = parse_query("select count(*) from t").unwrap();
        let outcome = run_query(
            &mut f.dep,
            &mut f.proxy,
            &f.net,
            &query,
            &QueryOptions {
                client_region: Region(0),
                ..Default::default()
            },
            now,
            &mut f.rng,
        );
        assert!(outcome.success, "{:?}", outcome.error);
        assert!(outcome.attempts >= 2);
        assert_eq!(outcome.output.unwrap().rows[0].aggs[0], 1_000.0);
    }

    #[test]
    fn degraded_mode_returns_partial_with_coverage() {
        let mut f = fixture(0.0);
        let shards = f.dep.catalog.read().shards_of_table("t").unwrap();
        let now = t(QUERY_TIME);
        let owner = f.dep.regions[0].authoritative_host(shards[0]).unwrap();
        blacklist(&mut f.proxy, owner, now);
        let query = parse_query("select count(*) from t").unwrap();
        let outcome = run_query(
            &mut f.dep,
            &mut f.proxy,
            &f.net,
            &query,
            &QueryOptions {
                client_region: Region(0),
                partial_results: true,
                ..Default::default()
            },
            now,
            &mut f.rng,
        );
        assert!(outcome.success, "{:?}", outcome.error);
        assert_eq!(outcome.attempts, 1, "degraded answer, no failover");
        assert!(outcome.partial);
        assert_eq!(outcome.partitions_answered(), 7);
        let cov = outcome.coverage.as_ref().unwrap();
        assert_eq!(cov.total(), 8);
        assert_eq!(cov.fraction(), 7.0 / 8.0);
        let mut states = cov.states();
        assert_eq!(states.next(), Some(ShardState::Blacklisted));
        assert!(states.all(|s| s == ShardState::Answered));
        assert_eq!(outcome.served_region, Some(Region(0)));
        // The merged answer covers exactly the 7 answered partitions.
        let counted = outcome.output.unwrap().scalar().unwrap();
        assert!(counted > 0.0 && counted < 1_000.0, "counted {counted}");
    }

    /// ROADMAP item 3, first executable piece: a degraded answer equals the
    /// naive scan restricted to the partitions its coverage reports
    /// `Answered` — group by group, not just "fewer rows than the table".
    #[test]
    fn grouped_degraded_answer_equals_the_scan_of_its_coverage() {
        let mut f = fixture(0.0);
        let schema = SchemaBuilder::new()
            .int_dim("k", 0, 1_000, 50)
            .str_dim("c", 16, 4)
            .metric("m")
            .build()
            .unwrap();
        let (hash, monotonic) = (RowMapping::Hash, ShardMapping::Monotonic);
        f.dep
            .create_table("g", Arc::new(schema), 8, hash, monotonic, t(0))
            .unwrap();
        // Groups that every partition holds a part of; one a prefix of another.
        let rows: Vec<Row> = (0..1_000)
            .map(|k| {
                let c = ["a", "ab", "b", ""][k as usize % 4];
                Row::new(vec![Value::Int(k), Value::from(c)], vec![k as f64])
            })
            .collect();
        f.dep.ingest("g", &rows).unwrap();

        let shards = f.dep.catalog.read().shards_of_table("g").unwrap();
        let now = t(QUERY_TIME);
        let owner = f.dep.regions[0].authoritative_host(shards[3]).unwrap();
        blacklist(&mut f.proxy, owner, now);
        let query = parse_query("select sum(m), count(*) from g group by c").unwrap();
        let opts = QueryOptions {
            client_region: Region(0),
            partial_results: true,
            ..Default::default()
        };
        let outcome = run_query(
            &mut f.dep,
            &mut f.proxy,
            &f.net,
            &query,
            &opts,
            now,
            &mut f.rng,
        );
        assert!(outcome.success && outcome.partial, "{:?}", outcome.error);
        let coverage = outcome.coverage.unwrap();
        assert!(coverage.answered() < coverage.total());
        let states: Vec<_> = coverage.states().collect();
        assert_eq!(
            states.iter().position(|&s| s != ShardState::Answered),
            Some(3)
        );
        assert_eq!(states[3], ShardState::Blacklisted);

        // (sum, count) per group over the answered partitions' stored rows.
        let mut naive = std::collections::BTreeMap::new();
        let store = f.dep.regions[0].store.read();
        for (partition, state) in (0..).zip(coverage.states()) {
            if state != ShardState::Answered {
                continue;
            }
            for row in store.partition("g", partition).unwrap().all_rows() {
                let group = naive
                    .entry(row.dims[1].clone().to_string())
                    .or_insert((0.0, 0.0));
                *group = (group.0 + row.metrics[0], group.1 + 1.0);
            }
        }
        let got: Vec<(String, f64, f64)> = (outcome.output.unwrap().rows.iter())
            .map(|row| (row.key[0].to_string(), row.aggs[0], row.aggs[1]))
            .collect();
        let want: Vec<(String, f64, f64)> = (naive.into_iter())
            .map(|(c, (sum, count))| (c, sum, count))
            .collect();
        assert_eq!(got, want);
        assert_eq!(want.len(), 4, "every group survives the missing shard");
    }

    #[test]
    fn degraded_mode_with_zero_coverage_falls_back_to_retry() {
        // Whole region dark (every host crashed, SM not yet aware):
        // degraded mode can't manufacture an answer from nothing, so the
        // ordinary cross-region retry serves the query completely.
        let mut f = fixture(0.0);
        let hosts: Vec<HostId> = f.dep.regions[0].nodes.hosts().collect();
        for h in hosts {
            f.dep.regions[0].nodes.crash(h);
        }
        let query = parse_query("select count(*) from t").unwrap();
        let outcome = run_query(
            &mut f.dep,
            &mut f.proxy,
            &f.net,
            &query,
            &QueryOptions {
                client_region: Region(0),
                partial_results: true,
                ..Default::default()
            },
            t(QUERY_TIME),
            &mut f.rng,
        );
        assert!(outcome.success, "{:?}", outcome.error);
        assert!(outcome.attempts >= 2, "retried out of the dark region");
        assert!(!outcome.partial, "the healthy region answered in full");
        assert_eq!(outcome.output.unwrap().rows[0].aggs[0], 1_000.0);
    }

    #[test]
    fn shard_timeout_is_terminal_without_retries() {
        let mut f = fixture(0.0);
        let query = parse_query("select count(*) from t").unwrap();
        let mut proxy = CubrickProxy::new(ProxyConfig {
            max_retries: 0,
            ..Default::default()
        });
        // An impossible deadline: every sub-query times out.
        let outcome = run_query(
            &mut f.dep,
            &mut proxy,
            &f.net,
            &query,
            &QueryOptions {
                shard_timeout: Some(SimDuration::from_nanos(1)),
                ..Default::default()
            },
            t(QUERY_TIME),
            &mut f.rng,
        );
        assert!(!outcome.success);
        assert!(matches!(
            outcome.error,
            Some(CubrickError::ShardTimeout { .. })
        ));
        // A generous deadline changes nothing.
        let outcome = run_query(
            &mut f.dep,
            &mut proxy,
            &f.net,
            &query,
            &QueryOptions {
                shard_timeout: Some(SimDuration::from_secs(30)),
                ..Default::default()
            },
            t(QUERY_TIME),
            &mut f.rng,
        );
        assert!(outcome.success, "{:?}", outcome.error);
        assert_eq!(outcome.output.unwrap().rows[0].aggs[0], 1_000.0);
    }

    #[test]
    fn shard_timeout_surfaces_as_timed_out_coverage() {
        // A deadline near the service-time median: some shards answer,
        // some time out, and degraded mode declares the split. Seeded,
        // so the outcome is deterministic.
        let mut f = fixture(0.0);
        let query = parse_query("select count(*) from t").unwrap();
        let opts = QueryOptions {
            partial_results: true,
            shard_timeout: Some(SimDuration::from_millis(21)),
            ..Default::default()
        };
        let mut saw_timed_out_partial = false;
        for i in 0..20 {
            let outcome = run_query(
                &mut f.dep,
                &mut f.proxy,
                &f.net,
                &query,
                &opts,
                t(QUERY_TIME + i),
                &mut f.rng,
            );
            if !outcome.success {
                continue;
            }
            let cov = outcome.coverage.as_ref().unwrap();
            assert_eq!(cov.total(), 8);
            assert_eq!(outcome.partial, !cov.complete());
            if outcome.partial && cov.states().any(|s| s == ShardState::TimedOut) {
                saw_timed_out_partial = true;
                // Latency is capped: no answered-or-timed-out shard can
                // have cost more than the deadline (plus coordinator
                // overheads), so the slow tail is genuinely cut off.
                assert!(outcome.latency < SimDuration::from_millis(25 * outcome.attempts as u64));
            }
        }
        assert!(saw_timed_out_partial, "deadline near median must split");
    }

    #[test]
    fn admission_held_skips_proxy_gate() {
        let mut f = fixture(0.0);
        // A proxy that admits nothing: only a caller-held slot gets
        // through.
        let mut proxy = CubrickProxy::new(ProxyConfig {
            admission: AdmissionConfig::flat(0),
            ..Default::default()
        });
        let query = parse_query("select count(*) from t").unwrap();
        let rejected = run_query(
            &mut f.dep,
            &mut proxy,
            &f.net,
            &query,
            &QueryOptions::default(),
            t(QUERY_TIME),
            &mut f.rng,
        );
        assert!(!rejected.success);
        assert!(matches!(
            rejected.error,
            Some(CubrickError::AdmissionRejected { .. })
        ));
        let held = run_query(
            &mut f.dep,
            &mut proxy,
            &f.net,
            &query,
            &QueryOptions {
                admission_held: true,
                ..Default::default()
            },
            t(QUERY_TIME),
            &mut f.rng,
        );
        assert!(held.success, "{:?}", held.error);
        assert_eq!(proxy.active_queries(), 0, "held slot is the caller's");
    }

    #[test]
    fn latency_only_mode_skips_data() {
        let mut f = fixture(0.0);
        let query = parse_query("select count(*) from t").unwrap();
        let outcome = run_query(
            &mut f.dep,
            &mut f.proxy,
            &f.net,
            &query,
            &QueryOptions {
                execute_data: false,
                ..Default::default()
            },
            t(QUERY_TIME),
            &mut f.rng,
        );
        assert!(outcome.success);
        assert!(outcome.output.is_none());
    }

    #[test]
    fn series_records_histogram() {
        let mut f = fixture(0.0);
        let query = parse_query("select count(*) from t").unwrap();
        let mut hist = scalewall_sim::Histogram::latency_ms();
        let (ok, fail) = run_query_series(
            &mut f.dep,
            &mut f.proxy,
            &f.net,
            &query,
            &QueryOptions {
                execute_data: false,
                ..Default::default()
            },
            t(QUERY_TIME),
            SimDuration::from_millis(500),
            200,
            &mut f.rng,
            &mut hist,
        );
        assert_eq!(ok, 200);
        assert_eq!(fail, 0);
        assert_eq!(hist.count(), 200);
        assert!(hist.quantile(0.5) > 10.0, "p50 {}", hist.quantile(0.5));
    }

    #[test]
    fn graceful_migration_is_transparent_to_queries() {
        let mut f = fixture(0.0);
        let shards = f.dep.catalog.read().shards_of_table("t").unwrap();
        let shard = shards[0];
        let from = f.dep.regions[0].authoritative_host(shard).unwrap();
        let to = f.dep.regions[0]
            .nodes
            .hosts()
            .find(|&h| {
                h != from
                    && f.dep.regions[0]
                        .sm
                        .shards_on(crate::deployment::APP, h)
                        .is_empty()
            })
            .or_else(|| f.dep.regions[0].nodes.hosts().find(|&h| h != from))
            .unwrap();
        // Target would own another shard of "t"? Then the veto fires and
        // this test would be vacuous — pick a target that doesn't.
        let region = &mut f.dep.regions[0];
        let started = region.sm.begin_migration(
            scalewall_shard_manager::ShardId(shard),
            to,
            true,
            scalewall_shard_manager::MigrationCause::Manual,
            t(QUERY_TIME),
            &mut region.nodes,
        );
        if started.is_err() {
            // Collision veto: acceptable, the deployment is tiny.
            return;
        }
        // Drive the migration through its phases while querying.
        let query = parse_query("select count(*) from t").unwrap();
        for step in 0..200u64 {
            let now = t(QUERY_TIME + 1 + step);
            f.dep.tick(now);
            let outcome = run_query(
                &mut f.dep,
                &mut f.proxy,
                &f.net,
                &query,
                &QueryOptions {
                    client_region: Region(0),
                    ..Default::default()
                },
                now,
                &mut f.rng,
            );
            assert!(
                outcome.success,
                "query failed at step {step} during graceful migration: {:?}",
                outcome.error
            );
            assert_eq!(outcome.output.unwrap().rows[0].aggs[0], 1_000.0);
        }
        // Migration finished and ownership moved.
        assert!(f.dep.regions[0]
            .sm
            .active_migration(scalewall_shard_manager::ShardId(shard))
            .is_none());
        assert_eq!(f.dep.regions[0].authoritative_host(shard), Some(to));
    }

    /// A region's cached route is keyed on what its shard list was built
    /// from, not on the table name: a repartitioned or re-created table
    /// fans out over its new shards on the very next query.
    #[test]
    fn route_follows_repartition_and_recreate() {
        let mut f = fixture(0.0);
        let query = parse_query("select count(*) from t").unwrap();
        let run = |f: &mut Fixture, now: SimTime| {
            let opts = QueryOptions::default();
            let outcome = run_query(
                &mut f.dep,
                &mut f.proxy,
                &f.net,
                &query,
                &opts,
                now,
                &mut f.rng,
            );
            assert!(outcome.success, "{:?}", outcome.error);
            // Region 0 served it, so its route is the one just used.
            assert_eq!(outcome.served_region, Some(Region(0)));
            (outcome.fan_out(), outcome.output.and_then(|o| o.scalar()))
        };
        // The shard list region 0's route holds for the table as the
        // catalog defines it now (a hit: `run` just looked it up).
        let routed = |f: &mut Fixture, now: SimTime| {
            let catalog = f.dep.catalog.read();
            let def = catalog.get("t").unwrap();
            let RegionState {
                sm,
                discovery,
                routes,
                nodes,
                ..
            } = &mut f.dep.regions[0];
            let max_shards = catalog.max_shards();
            let (route, _) = routes.route(
                sm.mappings(),
                *discovery,
                def,
                max_shards,
                nodes.changes(),
                now,
            );
            (
                route.shards().to_vec(),
                catalog.shards_of_table("t").unwrap(),
            )
        };

        let mut now = t(QUERY_TIME);
        assert_eq!(run(&mut f, now), (8, Some(1_000.0)));
        let (before, want) = routed(&mut f, now);
        assert_eq!(before, want);

        // Repartition: same name, same mapping, new partition count.
        f.dep.repartition("t", 16, now).unwrap();
        now += SimDuration::from_mins(5);
        assert_eq!(run(&mut f, now), (16, Some(1_000.0)));
        let (grown, want) = routed(&mut f, now);
        assert_eq!(grown, want);
        assert_eq!(grown.len(), 16);

        // Drop and re-create under the same name with another mapping
        // and count.
        let schema = f.dep.catalog.read().get("t").unwrap().schema.clone();
        f.dep.drop_table("t", now).unwrap();
        f.dep
            .create_table(
                "t",
                schema.clone(),
                4,
                RowMapping::Hash,
                ShardMapping::Naive,
                now,
            )
            .unwrap();
        let rows: Vec<Row> = (0..300)
            .map(|k| Row::new(vec![Value::Int(k)], vec![1.0]))
            .collect();
        f.dep.ingest("t", &rows).unwrap();
        now += SimDuration::from_mins(5);
        assert_eq!(run(&mut f, now), (4, Some(300.0)));
        let (naive, want) = routed(&mut f, now);
        assert_eq!(naive, want);

        // Same name and count, only the mapping differs — swapped in the
        // catalog alone, behind the deployment's back.
        f.dep.catalog.write().drop_table("t").unwrap();
        f.dep
            .catalog
            .write()
            .create_table("t", schema, 4, RowMapping::Hash, ShardMapping::Monotonic)
            .unwrap();
        let (monotonic, want) = routed(&mut f, now);
        assert_eq!(monotonic, want);
        assert_ne!(monotonic, naive);
    }

    /// One step of the serving-verdict property's script. Hosts are named
    /// by position in the region's current host list, so a step stays
    /// meaningful after replacements.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Crash(usize, usize),
        Revive(usize, usize),
        Reboot(usize, usize),
        FailHost(usize, usize),
        Replace(usize, usize),
        Restore(usize, usize),
        /// The node leaves the registry for one tick and is put back.
        Bounce(usize, usize),
        /// SM declares a host dead and, a tick later, takes it back, its
        /// process none the wiser: a new session and nothing else.
        Flap(usize, usize),
        Migrate {
            partition: usize,
            to: usize,
            graceful: bool,
        },
        Balance,
        Metrics,
        Tick {
            ms: u64,
        },
        Ingest {
            rows: usize,
        },
        /// A query `back_ms` before or after the clock, `now` going
        /// backwards as often as forwards.
        Query {
            back_ms: u64,
            ahead: bool,
            qos: bool,
        },
    }

    /// What a client can tell one outcome from another by.
    fn seen(o: &QueryOutcome) -> String {
        format!(
            "{} {:?} {} {} {} {:?} {:?} {:?} {:?}",
            o.success,
            o.error,
            o.attempts,
            o.latency.as_nanos(),
            o.partitions_answered(),
            o.coverage,
            o.served_region,
            o.coordinator_partition,
            o.output.as_ref().map(|out| out.scalar()),
        )
    }

    /// Serving verdicts never change an answer, and the heartbeat list is
    /// always the fresh one: two deployments of one seed take the same
    /// random script of crashes, restarts, repairs, migrations, polls,
    /// ingests and queries at a `now` that jumps both ways; one forgets
    /// every verdict before each query, so its ladder runs as if nothing
    /// were remembered. Every outcome, the proxies' counters and the RNG
    /// positions stay equal, and after every tick each region's heartbeat
    /// list, if SM still holds one, equals the live hosts' sessions listed
    /// from scratch.
    #[test]
    fn prop_verdicts_never_change_an_answer() {
        use scalewall_sim::prop::{self, gen};
        const REGIONS: usize = 3;
        prop::check_n(
            "prop_verdicts_never_change_an_answer",
            32,
            |rng| {
                let seed = gen::any_u64(rng);
                let steps = gen::vec_with(rng, 30, 90, |r| {
                    // Faults mostly in region 0, where the client sits.
                    let region = if r.below(4) == 0 {
                        1 + r.below(2) as usize
                    } else {
                        0
                    };
                    let host = r.below(8) as usize;
                    match r.below(24) {
                        0 => Step::Crash(region, host),
                        1 => Step::Revive(region, host),
                        2 => Step::Reboot(region, host),
                        3 => Step::FailHost(region, host),
                        4 => Step::Replace(region, host),
                        5 => Step::Restore(region, host),
                        6 => Step::Bounce(region, host),
                        7 => Step::Flap(region, host),
                        8 => Step::Migrate {
                            partition: r.below(6) as usize,
                            to: host,
                            graceful: gen::any_bool(r),
                        },
                        9 => Step::Balance,
                        10 => Step::Metrics,
                        11..=13 => Step::Tick {
                            ms: 1 + r.below(9_000),
                        },
                        14 => Step::Ingest {
                            rows: 1 + r.below(300) as usize,
                        },
                        _ => Step::Query {
                            back_ms: r.below(12_000),
                            ahead: gen::any_bool(r),
                            qos: r.below(3) == 0,
                        },
                    }
                });
                (seed, steps)
            },
            |(seed, steps)| {
                let build = || {
                    let mut dep = Deployment::new(DeploymentConfig {
                        regions: REGIONS as u32,
                        hosts_per_region: 8,
                        max_shards: 1_000,
                        seed: *seed,
                        ..Default::default()
                    });
                    let schema = Arc::new(
                        SchemaBuilder::new()
                            .int_dim("k", 0, 1_000, 50)
                            .metric("m")
                            .build()
                            .unwrap(),
                    );
                    for (name, partitions) in [("t", 4), ("u", 2)] {
                        dep.create_table(
                            name,
                            schema.clone(),
                            partitions,
                            RowMapping::Hash,
                            ShardMapping::Monotonic,
                            t(0),
                        )
                        .unwrap();
                    }
                    let rows: Vec<Row> = (0..400)
                        .map(|k| Row::new(vec![Value::Int(k)], vec![k as f64]))
                        .collect();
                    dep.ingest("t", &rows).unwrap();
                    Fixture {
                        dep,
                        proxy: CubrickProxy::new(ProxyConfig::default()),
                        net: NetModel::new(NetModelConfig {
                            server_failure_probability: 0.03,
                            ..Default::default()
                        }),
                        rng: SimRng::new(*seed ^ 0x51),
                    }
                };
                let host_at = |f: &Fixture, region: usize, i: usize| {
                    let hosts: Vec<HostId> = f.dep.regions[region].nodes.hosts().collect();
                    hosts[i % hosts.len()]
                };
                let query = parse_query("select count(*) from t").unwrap();
                // One step on one twin; a query's outcome comes back.
                let apply = |f: &mut Fixture, step: Step, clock: &mut SimTime, forgetful: bool| {
                    let now = *clock;
                    match step {
                        Step::Crash(r, h) => {
                            let host = host_at(f, r, h);
                            f.dep.regions[r].nodes.crash(host);
                        }
                        Step::Revive(r, h) => {
                            let host = host_at(f, r, h);
                            f.dep.regions[r].nodes.revive(host);
                        }
                        Step::Reboot(r, h) => {
                            let host = host_at(f, r, h);
                            if let Some(node) = f.dep.regions[r].nodes.node_mut(host) {
                                node.reboot();
                            }
                        }
                        Step::FailHost(r, h) => {
                            let host = host_at(f, r, h);
                            f.dep.fail_host(r, host, now);
                        }
                        Step::Replace(r, h) => {
                            let host = host_at(f, r, h);
                            if f.dep.regions[r].nodes.is_down(host) {
                                let _ = f.dep.replace_host(r, host, now);
                            }
                        }
                        Step::Restore(r, h) => {
                            let host = host_at(f, r, h);
                            let _ = f.dep.restore_host(r, host, now);
                        }
                        Step::Bounce(r, h) => {
                            let host = host_at(f, r, h);
                            let node = f.dep.regions[r].nodes.remove(host);
                            *clock = now + SimDuration::from_millis(1);
                            f.dep.tick(*clock);
                            f.dep.regions[r].nodes.insert(node.unwrap());
                        }
                        Step::Flap(r, h) => {
                            let host = host_at(f, r, h);
                            let region = &mut f.dep.regions[r];
                            let _ = region.sm.host_failed(host, now, &mut region.nodes);
                            *clock = now + SimDuration::from_millis(1);
                            f.dep.tick(*clock);
                            let region = &mut f.dep.regions[r];
                            let _ = region.sm.rejoin_host(host, *clock, &mut region.nodes);
                        }
                        Step::Migrate {
                            partition,
                            to,
                            graceful,
                        } => {
                            let shards = f.dep.catalog.read().shards_of_table("t").unwrap();
                            let shard = shards[partition % shards.len()];
                            let to = host_at(f, 0, to);
                            let region = &mut f.dep.regions[0];
                            // A veto or a busy shard refuses; nothing moves then.
                            let _ = region.sm.begin_migration(
                                scalewall_shard_manager::ShardId(shard),
                                to,
                                graceful,
                                scalewall_shard_manager::MigrationCause::Manual,
                                now,
                                &mut region.nodes,
                            );
                        }
                        Step::Balance => {
                            f.dep.collect_metrics();
                            f.dep.run_load_balancers(now);
                        }
                        Step::Metrics => f.dep.collect_metrics(),
                        Step::Tick { ms } => {
                            *clock = now + SimDuration::from_millis(ms);
                            f.dep.tick(*clock);
                        }
                        Step::Ingest { rows } => {
                            let rows: Vec<Row> = (0..rows as i64)
                                .map(|k| Row::new(vec![Value::Int(k % 1_000)], vec![1.0]))
                                .collect();
                            f.dep.ingest("u", &rows).unwrap();
                        }
                        Step::Query {
                            back_ms,
                            ahead,
                            qos,
                        } => {
                            let jump = SimDuration::from_millis(back_ms).as_nanos();
                            let at = if ahead {
                                now.as_nanos() + jump
                            } else {
                                now.as_nanos() - jump.min(now.as_nanos())
                            };
                            if forgetful {
                                for region in &mut f.dep.regions {
                                    region.routes.forget_verdicts();
                                }
                            }
                            let opts = if qos {
                                QueryOptions {
                                    strategy: CoordinatorStrategy::QueueAwareTwoChoice,
                                    execute_data: false,
                                    partial_results: true,
                                    shard_timeout: Some(SimDuration::from_millis(26)),
                                    ..Default::default()
                                }
                            } else {
                                QueryOptions::default()
                            };
                            let at = SimTime::from_nanos(at);
                            let outcome = run_query(
                                &mut f.dep,
                                &mut f.proxy,
                                &f.net,
                                &query,
                                &opts,
                                at,
                                &mut f.rng,
                            );
                            return Some(seen(&outcome));
                        }
                    }
                    None
                };

                let (mut kept, mut forgot) = (build(), build());
                let (mut clock_kept, mut clock_forgot) = (t(QUERY_TIME), t(QUERY_TIME));
                for (i, &step) in steps.iter().enumerate() {
                    let with = apply(&mut kept, step, &mut clock_kept, false);
                    let without = apply(&mut forgot, step, &mut clock_forgot, true);
                    assert_eq!(with, without, "step {i} {step:?}");
                    if matches!(step, Step::Tick { .. }) {
                        for region in &kept.dep.regions {
                            let nodes = &region.nodes;
                            let fresh: Vec<_> = nodes
                                .hosts()
                                .filter(|&h| !nodes.is_down(h))
                                .filter_map(|h| region.sm.host_session(h))
                                .collect();
                            // A session SM closed or opened during the tick
                            // drops the list; one that was kept must be right.
                            let kept = region.sm.heartbeat_sessions();
                            assert!(
                                kept.is_empty() || kept == fresh,
                                "step {i} {step:?}: {kept:?}"
                            );
                        }
                    }
                }
                assert_eq!(kept.proxy.stats, forgot.proxy.stats);
                assert_eq!(kept.rng.next_u64(), forgot.rng.next_u64());
            },
        );
    }

    /// One shard's outcome in the collect + merge property.
    #[derive(Debug, Clone, Copy)]
    enum Shard {
        /// Answered after `ms` from `host`, counting `rows`.
        Answered { ms: u64, host: u64, rows: u64 },
        /// Failed after `ms` with error `kind` (blacklisted, timed out,
        /// unavailable, not owned), blaming `culprit`.
        Failed {
            ms: u64,
            kind: u64,
            culprit: Option<u64>,
        },
    }

    /// Collect + merge without a deployment: random per-shard outcome
    /// sequences under every setting of the two degraded flags (and of
    /// `execute_data` and the proxy's streaks), against a naive model of
    /// the attempt — how far it dispatches (strict stops at its first
    /// failure), its coverage and the hosts it settles, whether it is
    /// refused (strict on any failure, `partial_results` at zero coverage,
    /// best effort never), its latency, and the merged answer, which is the
    /// sum of the answered shards' counts.
    #[test]
    fn prop_collect_and_merge_match_a_naive_model() {
        use cubrick::query::agg::{AggSpec, AggState};
        use scalewall_sim::prop::{self, gen};
        prop::check_n(
            "prop_collect_and_merge_match_a_naive_model",
            512,
            |rng| {
                let flags: [bool; 4] = std::array::from_fn(|_| gen::any_bool(rng));
                let shards = gen::vec_with(rng, 1, 12, |r| {
                    let (ms, host) = (r.below(40), r.below(5));
                    if r.below(3) > 0 {
                        Shard::Answered {
                            ms,
                            host,
                            rows: r.below(100),
                        }
                    } else {
                        let culprit = gen::any_bool(r).then_some(host);
                        Shard::Failed {
                            ms,
                            kind: r.below(4),
                            culprit,
                        }
                    }
                });
                (flags, shards)
            },
            |([best_effort, partial_results, execute_data, streaks], shards)| {
                let n = shards.len() as u32;
                let schema = SchemaBuilder::new()
                    .int_dim("k", 0, 1_000, 50)
                    .metric("m")
                    .build();
                let def = TableDef {
                    name: "t".into(),
                    schema: Arc::new(schema.unwrap()),
                    partitions: n,
                    row_mapping: RowMapping::Hash,
                    shard_mapping: ShardMapping::Monotonic,
                };
                let query = parse_query("select count(*) from t").unwrap();
                let opts = QueryOptions {
                    best_effort: *best_effort,
                    partial_results: *partial_results,
                    execute_data: *execute_data,
                    ..Default::default()
                };
                let plan = Plan::new(&query, &opts, def, 1_000);
                let net = NetModel::new(NetModelConfig::default());
                let mut proxy = CubrickProxy::new(ProxyConfig::default());

                // The model, from the flags alone.
                let strict = !partial_results && !best_effort;
                let first = shards
                    .iter()
                    .position(|s| matches!(s, Shard::Failed { .. }));
                let fed = match first {
                    Some(at) if strict => &shards[..=at],
                    _ => &shards[..],
                };
                let mut states = Vec::new();
                let mut hosts = Vec::new();
                let (mut slowest, mut sum) = (0, 0);
                for shard in fed {
                    match *shard {
                        Shard::Answered { ms, host, rows } => {
                            slowest = slowest.max(ms);
                            sum += rows;
                            states.push(ShardState::Answered);
                            if *streaks {
                                hosts.push((HostId(host), true));
                            }
                        }
                        Shard::Failed { ms, kind, culprit } => {
                            slowest = slowest.max(ms);
                            let state = [ShardState::Blacklisted, ShardState::TimedOut];
                            states.push(
                                state
                                    .get(kind as usize)
                                    .copied()
                                    .unwrap_or(ShardState::Unavailable),
                            );
                            if let (true, Some(host)) = (*partial_results, culprit) {
                                hosts.push((HostId(host), false));
                            }
                        }
                    }
                }
                let answered = states
                    .iter()
                    .filter(|&&s| s == ShardState::Answered)
                    .count();
                let refused = first.is_some() && (strict || (*partial_results && answered == 0));
                let slowest = SimDuration::from_millis(slowest);

                // The stages.
                let mut collect = Collect::new(&plan, *streaks);
                let mut sent = 0;
                for (p, shard) in (0..n).zip(shards) {
                    sent += 1;
                    let outcome = match *shard {
                        Shard::Answered { ms, host, rows } => {
                            let count = (vec![], vec![AggState::Count(rows)]);
                            let partial = PartialResult::from_groups(
                                vec![AggSpec::count_star()],
                                n,
                                vec![count],
                            );
                            let partial = opts.execute_data.then(|| partial.unwrap());
                            Ok((SimDuration::from_millis(ms), partial, HostId(host)))
                        }
                        Shard::Failed { ms, kind, culprit } => {
                            let (table, partition) = ("t".to_string(), p);
                            let error = match kind {
                                0 => CubrickError::HostBlacklisted { table, partition },
                                1 => CubrickError::ShardTimeout { table, partition },
                                2 => CubrickError::PartitionUnavailable { table, partition },
                                _ => CubrickError::ShardNotOwned { table, partition },
                            };
                            Err((SimDuration::from_millis(ms), error, culprit.map(HostId)))
                        }
                    };
                    if !collect.push(p, outcome) {
                        break;
                    }
                }
                assert_eq!(sent, fed.len(), "where dispatch stops");
                let first_error = first.map(|at| (at as u32, shards[at]));
                match collect.finish(&net) {
                    Err((latency, error, culprit)) => {
                        assert!(refused, "refused without a reason: {error:?}");
                        let Some((
                            at,
                            Shard::Failed {
                                culprit: blamed, ..
                            },
                        )) = first_error
                        else {
                            panic!("refused without a failure");
                        };
                        assert_eq!(latency, slowest + net.rtt());
                        assert_eq!(culprit, blamed.map(HostId));
                        assert!(
                            matches!(error, CubrickError::HostBlacklisted { partition, .. }
                            | CubrickError::ShardTimeout { partition, .. }
                            | CubrickError::PartitionUnavailable { partition, .. }
                            | CubrickError::ShardNotOwned { partition, .. } if partition == at)
                        );
                    }
                    Ok(latency) => {
                        assert!(!refused, "answered past a refusal");
                        assert_eq!(latency, net.rtt() + slowest + net.merge_cost(n as usize));
                        assert_eq!(collect.hosts, hosts);
                        let coverage: Vec<ShardState> = collect.coverage.states().collect();
                        assert_eq!(coverage, states);
                        let answer = Answered {
                            region: Region(1),
                            coordinator: 0,
                            shards: collect,
                        };
                        let spent = Spent {
                            attempts: 1,
                            latency,
                        };
                        let outcome = merge(&mut proxy, &plan, answer, &spent).unwrap();
                        assert!(outcome.success);
                        assert_eq!(outcome.partitions_answered(), answered);
                        assert_eq!(outcome.fan_out(), shards.len());
                        assert_eq!(outcome.partial, *partial_results && answered < shards.len());
                        let want = (*execute_data && answered > 0).then_some(sum as f64);
                        assert_eq!(outcome.output.and_then(|out| out.scalar()), want);
                        let cached = (!*execute_data || answered > 0).then_some(n);
                        assert_eq!(proxy.cached_partitions("t"), cached);
                    }
                }
            },
        );
    }
}
