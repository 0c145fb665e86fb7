//! Bit-level goldens for what a sub-query finds at the host its route
//! names, captured on the commit before the per-partition serving
//! verdicts (PR 24) and pinned here. Every scenario warms one table's
//! route with two queries, then changes — inside that route window, with
//! no publish where the scenario can avoid one — exactly one of the
//! things the sub-query ladder reads: the down set, registry membership,
//! a node's `owned` and `forwarding` maps, the proxy's blacklist. Per
//! query the pin covers success, the error, attempts, latency bits, the
//! per-shard coverage states, how many shards answered and the serving
//! region, under three option sets (strict with a bare proxy, strict
//! behind the default proxy's retries, and the QoS loop's degraded
//! no-data shape). A verdict that outlives any one of those changes, or
//! a moved RNG draw, moves a digest. A fourth option set, best effort,
//! has its own pin over the same scenarios: it logs how many shards
//! answered and the answer in place of the shard states.
//!
//! Three more pins cover the heartbeat list: the `ExperimentStats` of a
//! QoS run through a region outage and of a replicated-plane drain storm,
//! and the commit indices and store digests of every coordination replica
//! after ten scripted minutes of crashes, restores and replacements.
//!
//! A legitimate re-pin means running this file on the parent commit
//! first; a mismatch prints the observed timeline.

use std::fmt::Write as _;
use std::sync::Arc;

use scalewall::cluster::deployment::{Deployment, DeploymentConfig, APP};
use scalewall::cluster::driver::{run_query, QueryOptions};
use scalewall::cluster::experiment::{Experiment, ExperimentConfig, ExperimentStats};
use scalewall::cluster::fault::{FaultKind, FaultScript};
use scalewall::cluster::net::{NetModel, NetModelConfig};
use scalewall::cluster::traffic::{QosConfig, TrafficConfig};
use scalewall::cluster::workload::WorkloadConfig;
use scalewall::cubrick::admission::{AdmissionConfig, QosClass};
use scalewall::cubrick::catalog::RowMapping;
use scalewall::cubrick::proxy::{CoordinatorStrategy, CubrickProxy, ProxyConfig, BLACKLIST_TTL};
use scalewall::cubrick::query::{parse_query, Query};
use scalewall::cubrick::schema::SchemaBuilder;
use scalewall::cubrick::sharding::ShardMapping;
use scalewall::cubrick::value::{Row, Value};
use scalewall::shard_manager::{
    AddShardReason, AppServerRegistry as _, HostId, MigrationCause, Region, ShardContext, ShardId,
    SmConfig,
};
use scalewall::sim::hash::{fnv1a, fnv1a_word, FNV_OFFSET};
use scalewall::sim::{SimDuration, SimRng, SimTime};
use scalewall::zk::ZkReplicationConfig;

const T0: SimTime = SimTime::from_secs(3_600);
const ROWS: i64 = 600;

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

/// The option sets every scenario runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Real scans, no retries, no blacklisting: the first error the
    /// ladder met is the query's error.
    Strict,
    /// Real scans behind the default proxy: retries in another region,
    /// failure streaks, blacklisting.
    Retrying,
    /// The QoS loop's options: two-choice coordinators, no data, typed
    /// partial results, a per-shard deadline tight enough that a sixth of
    /// the shards miss it.
    Qos,
    /// Scuba-style best effort behind the default proxy: real scans, a
    /// failed shard is left out of a successful answer. Its own pin
    /// ([`PINS_BEST_EFFORT`]), which logs the answer instead of the
    /// per-shard states.
    BestEffort,
}

const MODES: [Mode; 3] = [Mode::Strict, Mode::Retrying, Mode::Qos];

struct Harness {
    mode: Mode,
    dep: Deployment,
    proxy: CubrickProxy,
    net: NetModel,
    rng: SimRng,
    query: Query,
    opts: QueryOptions,
    /// Table "t"'s shards, by partition.
    shards: Vec<u64>,
    log: String,
}

impl Harness {
    fn new(mode: Mode, partitions: u32, seed: u64) -> Self {
        let mut dep = Deployment::new(DeploymentConfig {
            regions: 3,
            hosts_per_region: 8,
            max_shards: 10_000,
            seed,
            ..Default::default()
        });
        let schema = Arc::new(
            SchemaBuilder::new()
                .int_dim("k", 0, 1_000, 50)
                .metric("v")
                .build()
                .unwrap(),
        );
        dep.create_table(
            "t",
            schema,
            partitions,
            RowMapping::Hash,
            ShardMapping::Monotonic,
            SimTime::ZERO,
        )
        .unwrap();
        let rows: Vec<Row> = (0..ROWS)
            .map(|k| Row::new(vec![Value::Int(k)], vec![k as f64]))
            .collect();
        dep.ingest("t", &rows).unwrap();
        let shards = dep.catalog.read().shards_of_table("t").unwrap();
        let proxy = CubrickProxy::new(match mode {
            Mode::Strict => ProxyConfig {
                max_retries: 0,
                blacklist_threshold: u32::MAX,
                ..Default::default()
            },
            Mode::Retrying | Mode::Qos | Mode::BestEffort => ProxyConfig::default(),
        });
        let opts = match mode {
            Mode::Strict | Mode::Retrying => QueryOptions::default(),
            Mode::BestEffort => QueryOptions {
                best_effort: true,
                ..Default::default()
            },
            Mode::Qos => QueryOptions {
                strategy: CoordinatorStrategy::QueueAwareTwoChoice,
                execute_data: false,
                client_region: Region(0),
                best_effort: false,
                qos: QosClass::Interactive,
                partial_results: true,
                shard_timeout: Some(ms(26)),
                admission_held: false,
            },
        };
        Harness {
            mode,
            dep,
            proxy,
            net: NetModel::new(NetModelConfig {
                server_failure_probability: 0.02,
                ..Default::default()
            }),
            rng: SimRng::new(0x5E47 ^ seed),
            query: parse_query("select count(*) from t").unwrap(),
            opts,
            shards,
            log: String::new(),
        }
    }

    /// Region 0's authoritative owner of partition `p`.
    fn owner(&self, p: usize) -> HostId {
        self.dep.regions[0].authoritative_host(self.shards[p]).unwrap()
    }

    /// Region-0 hosts SM has nothing assigned to, ascending.
    fn spares(&self) -> Vec<HostId> {
        let region = &self.dep.regions[0];
        region
            .nodes
            .hosts()
            .filter(|&h| region.sm.shards_on(APP, h).is_empty())
            .collect()
    }

    fn ctx(&self, p: usize, reason: AddShardReason) -> ShardContext {
        ShardContext::new(ShardId(self.shards[p]), reason, None)
    }

    fn note(&mut self, what: &str) {
        writeln!(self.log, "# {what}").unwrap();
    }

    /// One query at `now`, logged.
    fn q(&mut self, now: SimTime) {
        let Harness {
            mode,
            dep,
            proxy,
            net,
            rng,
            query,
            opts,
            ..
        } = self;
        let o = run_query(dep, proxy, net, query, opts, now, rng);
        if *mode == Mode::BestEffort {
            // A best-effort answer leaves failed shards out without saying
            // which: the answer itself is pinned, not the shard states.
            let answer = o.output.as_ref().and_then(|out| out.scalar());
            writeln!(
                self.log,
                "{} {} {:?} {} {:016x} {} {:?}",
                now.as_nanos(),
                o.success,
                o.error,
                o.attempts,
                o.latency.as_nanos(),
                o.partitions_answered(),
                answer,
            )
            .unwrap();
            return;
        }
        if let Some(out) = &o.output {
            if !o.partial {
                assert_eq!(out.scalar(), Some(ROWS as f64), "exact or declared partial");
            }
        }
        let coverage: String = o.coverage.as_ref().map_or("-".into(), |c| {
            c.states()
                .map(|state| format!("{state:?}").chars().next().unwrap())
                .collect()
        });
        writeln!(
            self.log,
            "{} {} {:?} {} {:016x} {} {} {:?} {}",
            now.as_nanos(),
            o.success,
            o.error,
            o.attempts,
            o.latency.as_nanos(),
            coverage,
            o.partitions_answered(),
            o.served_region.map(|r| r.0),
            o.partial,
        )
        .unwrap();
    }

    /// `n` queries a millisecond apart starting at `from`; returns the
    /// instant after the last.
    fn burst(&mut self, from: SimTime, n: u64) -> SimTime {
        for i in 0..n {
            self.q(from + ms(i));
        }
        from + ms(n)
    }

    /// `visible_at` to region 0's proxy of the newest update of partition
    /// `p`'s shard.
    fn newest_visible(&self, p: usize) -> SimTime {
        let latest = self.dep.regions[0].sm.mappings().latest(self.shards[p]).unwrap();
        self.dep.regions[0].discovery.visible_at(&latest)
    }

    /// Tick and query every 250 ms over `[from, from + span)`.
    fn walk(&mut self, from: SimTime, span: SimDuration) -> SimTime {
        let mut now = from;
        while now < from + span {
            self.dep.tick(now);
            self.q(now);
            now += ms(250);
        }
        now
    }
}

// ------------------------------------------------------------ the scenarios

/// The process dies and nobody has noticed; it comes back untouched; then
/// the crash SM does notice, through failover.
fn host_crash(h: &mut Harness) {
    let a = h.owner(1);
    let now = h.burst(T0, 2);
    h.note("crash, unnoticed");
    h.dep.regions[0].nodes.crash(a);
    let now = h.burst(now, 2);
    h.note("revive, state intact");
    h.dep.regions[0].nodes.revive(a);
    let now = h.burst(now, 2);
    h.note("fail_host");
    h.dep.fail_host(0, a, now);
    let now = h.burst(now, 2);
    let now = h.walk(now, SimDuration::from_secs(8));
    let later = now + SimDuration::from_hours(1);
    h.dep.tick(later);
    let now = h.burst(later, 3);
    h.walk(now, SimDuration::from_secs(12));
}

/// A restarted process is empty: it answers `ShardNotOwned` until its
/// shards are handed back. First by hand inside the window, then through
/// `restore_host` (the table spans every host, so failover is vetoed and
/// the shard stays assigned to the dead host).
fn restore_in_place(h: &mut Harness) {
    let a = h.owner(1);
    let now = h.burst(T0, 2);
    h.note("reboot in place, unnoticed");
    h.dep.regions[0].nodes.node_mut(a).unwrap().reboot();
    let now = h.burst(now, 2);
    h.note("shards handed back");
    let owned: Vec<usize> = (0..h.shards.len()).filter(|&p| h.owner(p) == a).collect();
    for p in owned {
        let ctx = h.ctx(p, AddShardReason::NewAllocation);
        let nodes = &mut h.dep.regions[0].nodes;
        nodes.server(a).unwrap().add_shard(ctx).unwrap();
    }
    let now = h.burst(now, 2);
    h.note("fail_host");
    h.dep.fail_host(0, a, now);
    let now = h.burst(now, 2);
    h.dep.tick(now + SimDuration::from_mins(10));
    let now = h.burst(now + SimDuration::from_mins(10), 2);
    h.note("restore_host");
    assert!(h.dep.restore_host(0, a, now));
    let now = h.burst(now, 3);
    h.walk(now, SimDuration::from_secs(12));
}

/// One shard moves. Plain: the old owner answers `ShardNotOwned` until
/// the new owner's publish is visible. Graceful: the old owner keeps
/// serving until then. Afterwards the same instants are asked again out
/// of order — `now` may go backwards.
fn migration(h: &mut Harness, graceful: bool) {
    let from = h.owner(1);
    let to = h.spares()[0];
    let now = h.burst(T0, 2);
    h.note("begin_migration");
    let region = &mut h.dep.regions[0];
    region
        .sm
        .begin_migration(
            ShardId(h.shards[1]),
            to,
            graceful,
            MigrationCause::Manual,
            now,
            &mut region.nodes,
        )
        .unwrap();
    let end = h.walk(now, SimDuration::from_secs(45));
    assert_eq!(h.owner(1), to, "migration done");
    let _ = from;
    let v = h.newest_visible(1);
    assert!(now < v && v < end, "{v:?} inside the walk");
    h.note("around the visibility instant, in and out of order");
    let back = |by: u64| SimTime::from_nanos(v.as_nanos() - by);
    for at in [v, back(1), v, end, back(1_000_000), end] {
        h.q(at);
    }
}

fn plain_migration(h: &mut Harness) {
    migration(h, false);
}

/// The graceful migration SM runs never takes the driver's forward hop
/// (the old owner owns the shard for as long as it forwards), so that
/// state is built by hand afterwards: an owner still loading a shard and
/// already forwarding it.
fn graceful_migration(h: &mut Harness) {
    migration(h, true);
    let now = T0 + SimDuration::from_mins(5);
    let c = h.owner(2);
    let d = h.spares()[0];
    let now = h.burst(now, 2);
    h.note("owner loading and forwarding");
    let live = h.ctx(2, AddShardReason::LiveMigration);
    let fresh = h.ctx(2, AddShardReason::NewAllocation);
    {
        let nodes = &mut h.dep.regions[0].nodes;
        let old = nodes.server(c).unwrap();
        old.drop_shard(live).unwrap();
        old.add_shard(live).unwrap();
        old.prepare_drop_shard(live, d).unwrap();
        nodes.server(d).unwrap().add_shard(fresh).unwrap();
    }
    let now = h.burst(now, 3);
    h.note("forward target loading");
    {
        let new = h.dep.regions[0].nodes.server(d).unwrap();
        new.drop_shard(live).unwrap();
        new.add_shard(live).unwrap();
    }
    let now = h.burst(now, 2);
    h.note("forward target down");
    h.dep.regions[0].nodes.crash(d);
    let now = h.burst(now, 2);
    h.note("forward target back and loaded");
    h.dep.regions[0].nodes.revive(d);
    {
        h.dep.regions[0].nodes.server(d).unwrap().on_copy_complete(live);
    }
    h.burst(now, 2);
}

/// The routed host owns the shard but its copy is still in flight
/// (`ShardLoading`), by hand inside the window; then a real failover.
fn failover_loading(h: &mut Harness) {
    let a = h.owner(1);
    let now = h.burst(T0, 2);
    h.note("routed host reloading its shard");
    let ctx = h.ctx(1, AddShardReason::Failover);
    {
        let server = h.dep.regions[0].nodes.server(a).unwrap();
        server.drop_shard(ctx).unwrap();
        server.add_shard(ctx).unwrap();
    }
    let now = h.burst(now, 2);
    h.note("copy complete");
    h.dep.regions[0].nodes.server(a).unwrap().on_copy_complete(ctx);
    let now = h.burst(now, 2);
    h.note("fail_host");
    h.dep.fail_host(0, a, now);
    h.walk(now, SimDuration::from_secs(20));
}

/// A live host leaves the registry and comes back, by hand; then the
/// repair workflow: failover, replacement host, decommission.
fn decommission_and_replace(h: &mut Harness) {
    let b = h.owner(2);
    let now = h.burst(T0, 2);
    h.note("node removed from the registry");
    let node = h.dep.regions[0].nodes.remove(b).unwrap();
    let now = h.burst(now, 2);
    h.note("node back");
    h.dep.regions[0].nodes.insert(node);
    let now = h.burst(now, 2);
    let a = h.owner(1);
    h.note("fail_host");
    h.dep.fail_host(0, a, now);
    let now = h.burst(now, 2);
    let later = now + SimDuration::from_hours(1);
    h.dep.tick(later);
    let now = h.burst(later, 2);
    h.note("replace_host");
    let replacement = h.dep.replace_host(0, a, now).unwrap();
    assert!(h.dep.regions[0].nodes.node(a).is_none(), "decommissioned");
    assert!(h.dep.regions[0].nodes.node(replacement).is_some());
    let now = h.burst(now, 3);
    h.walk(now, SimDuration::from_secs(30));
}

/// The routed host is blacklisted, cleared, blacklisted again and left
/// to outlive its TTL, with nothing else changing.
fn blacklisted_target(h: &mut Harness) {
    let a = h.owner(1);
    let now = h.burst(T0, 2);
    // The strict proxy never blacklists: three failures are a streak there.
    let threshold = h.proxy.config().blacklist_threshold.min(3);
    for round in 0..2 {
        h.note("blacklisted");
        for _ in 0..threshold {
            h.proxy.record_host_failure(a, now);
        }
        let now = h.burst(now + ms(10 * round), 3);
        h.note("cleared");
        h.proxy.record_host_success(a);
        h.burst(now, 3);
    }
    h.note("blacklisted until the TTL lapses");
    for _ in 0..threshold {
        h.proxy.record_host_failure(a, now + ms(40));
    }
    h.burst(now + ms(40), 2);
    h.burst(now + ms(39) + BLACKLIST_TTL, 3);
}

/// Nothing changes: eighty queries inside one window, so every draw
/// after the second query rides on what the first two found. Under the
/// QoS options a sixth of the shards miss the deadline (`TimedOut`) and
/// 2 % fail outright.
fn timed_out_shards(h: &mut Harness) {
    h.burst(T0, 80);
}

type Scenario = (&'static str, u32, fn(&mut Harness));

const SCENARIOS: [Scenario; 8] = [
    ("host_crash", 4, host_crash),
    ("restore_in_place", 8, restore_in_place),
    ("plain_migration", 4, plain_migration),
    ("graceful_migration", 4, graceful_migration),
    ("failover_loading", 4, failover_loading),
    ("decommission_and_replace", 4, decommission_and_replace),
    ("blacklisted_target", 4, blacklisted_target),
    ("timed_out_shards", 8, timed_out_shards),
];

/// `(queries, failed, digest)` of one scenario under one mode.
type Pin = (usize, usize, u64);

/// `(queries, failed, digest)` per scenario, [`MODES`] order.
type Golden = [Pin; 3];

/// One scenario under one mode: its pin and its timeline.
fn observe_in(scenario: &Scenario, mode: Mode) -> (Pin, String) {
    let (name, partitions, run) = *scenario;
    let mut h = Harness::new(mode, partitions, 0x24 + partitions as u64);
    run(&mut h);
    let queries = h.log.lines().filter(|l| !l.starts_with('#'));
    let pin = (
        queries.clone().count(),
        queries.filter(|l| l.contains(" false ")).count(),
        fnv1a(FNV_OFFSET, h.log.as_bytes()),
    );
    (pin, format!("## {name} {mode:?}\n{}\n", h.log))
}

fn observe(scenario: &Scenario) -> (Golden, String) {
    let mut golden = [(0, 0, 0); 3];
    let mut text = String::new();
    for (slot, mode) in golden.iter_mut().zip(MODES) {
        let (pin, timeline) = observe_in(scenario, mode);
        *slot = pin;
        text.push_str(&timeline);
    }
    (golden, text)
}

#[test]
fn regression_serving_verdict_scenarios() {
    let mut moved = String::new();
    let mut observed = String::new();
    for (scenario, want) in SCENARIOS.iter().zip(PINS) {
        let (got, text) = observe(scenario);
        let row: Vec<String> = got.iter().map(|(n, f, d)| format!("({n}, {f}, 0x{d:016x})")).collect();
        writeln!(observed, "    [{}], // {}", row.join(", "), scenario.0).unwrap();
        if got != want {
            writeln!(moved, "{text}").unwrap();
        }
    }
    assert!(
        moved.is_empty(),
        "timelines moved off the parent:\n{moved}\nobserved pins:\n{observed}"
    );
}

/// The same scenarios under best effort: per query the error, attempts,
/// latency bits, how many shards answered and the answer, whatever the
/// shards that did not answer are called.
#[test]
fn regression_serving_verdict_best_effort() {
    let mut moved = String::new();
    let mut observed = String::new();
    for (scenario, want) in SCENARIOS.iter().zip(PINS_BEST_EFFORT) {
        let (got, text) = observe_in(scenario, Mode::BestEffort);
        let (n, f, d) = got;
        writeln!(observed, "    ({n}, {f}, 0x{d:016x}), // {}", scenario.0).unwrap();
        if got != want {
            moved.push_str(&text);
        }
    }
    assert!(
        moved.is_empty(),
        "timelines moved off the parent:\n{moved}\nobserved pins:\n{observed}"
    );
}

/// What the scenarios are for: each of the first six, under the strict
/// options, makes a query that succeeded a moment ago fail — the change a
/// remembered verdict would hide.
#[test]
fn scenarios_break_a_warm_route() {
    for scenario in &SCENARIOS[..6] {
        let mut h = Harness::new(Mode::Strict, scenario.1, 0x24 + scenario.1 as u64);
        (scenario.2)(&mut h);
        let queries: Vec<&str> = h.log.lines().filter(|l| !l.starts_with('#')).collect();
        let broke = queries
            .windows(2)
            .any(|w| w[0].contains(" true ") && w[1].contains(" false "));
        assert!(broke, "{}: nothing broke a warm route:\n{}", scenario.0, h.log);
    }
}

// ------------------------------------------------- the heartbeat list's pins

fn qos_config(seed: u64, replicated: bool, faults: FaultScript) -> ExperimentConfig {
    let duration = SimDuration::from_mins(8);
    ExperimentConfig {
        deployment: DeploymentConfig {
            regions: 3,
            hosts_per_region: 6,
            racks_per_region: 3,
            max_shards: 5_000,
            sm: SmConfig {
                replication: replicated.then(ZkReplicationConfig::default),
                ..Default::default()
            },
            seed: seed ^ 0xD1,
            ..Default::default()
        },
        workload: WorkloadConfig {
            tables: 24,
            ..Default::default()
        },
        net: NetModelConfig {
            median_service_ms: 400.0,
            ..Default::default()
        },
        duration,
        rows_per_table: 60,
        host_mtbf: SimDuration::from_days(3_650),
        drains_per_day: 0.0,
        faults,
        seed,
        qos: Some(QosConfig {
            traffic: TrafficConfig {
                capacity_qps: 6.4,
                offered_load: 2.0,
                diurnal_amplitude: 0.5,
                diurnal_period: duration,
                ..Default::default()
            },
            admission: AdmissionConfig::qos(8),
            degraded: true,
        }),
        ..Default::default()
    }
}

fn stats_fingerprint(stats: &ExperimentStats) -> Vec<u64> {
    let hotness = stats.final_hotness.iter().map(|&c| c as u64);
    let mut f = vec![
        stats.queries_ok,
        stats.queries_failed,
        stats.latency.count(),
        stats.latency.mean().to_bits(),
        stats.latency.quantile(0.5).to_bits(),
        stats.latency.quantile(0.99).to_bits(),
        stats.drains_requested,
        stats.drains_denied,
        stats.fault_injections,
        stats.fault_repairs,
        stats.failover_migrations,
        stats.region_failovers,
        stats.same_table_collisions,
        stats.population_fingerprint,
        stats.zk_failovers,
        stats.zk_session_moves,
        stats.migrations_per_day.iter().sum(),
        stats.repairs_per_day.iter().sum(),
        hotness.fold(FNV_OFFSET, fnv1a_word),
    ];
    for c in &stats.qos.classes {
        f.extend([
            c.offered,
            c.admitted,
            c.queued,
            c.shed,
            c.queue_timeouts,
            c.completed,
            c.partials,
            c.failed,
            c.sla_met,
        ]);
    }
    f
}

#[test]
fn regression_serving_verdict_qos_region_outage() {
    let at = |s: u64| SimTime::from_secs(s);
    let faults = FaultScript::new()
        .with(FaultKind::RegionOutage { region: 0 }, at(200), SimDuration::from_secs(90))
        .with(FaultKind::HostCrash { region: 1 }, at(100), SimDuration::from_secs(150));
    let stats = Experiment::new(qos_config(0x0A05, false, faults)).run();
    let observed = stats_fingerprint(&stats);
    assert_eq!(observed, PIN_QOS_REGION_OUTAGE, "observed:\n{observed:?}");
}

#[test]
fn regression_serving_verdict_replicated_drain_storm() {
    let at = |s: u64| SimTime::from_secs(s);
    let faults = FaultScript::new()
        .with(FaultKind::DrainStorm { region: 2, drains: 3 }, at(60), SimDuration::from_secs(150))
        .with(FaultKind::HostCrash { region: 1 }, at(120), SimDuration::from_secs(100))
        .with(FaultKind::ZkNodeCrash { region: 0 }, at(240), SimDuration::from_secs(60))
        .with(FaultKind::RegionOutage { region: 1 }, at(330), SimDuration::from_secs(80));
    let stats = Experiment::new(qos_config(0x0D57, true, faults)).run();
    let observed = stats_fingerprint(&stats);
    assert_eq!(observed, PIN_REPLICATED_DRAIN_STORM, "observed:\n{observed:?}");
}

/// A replicated deployment ticked every 500 ms for a scripted while:
/// every heartbeat round is one proposed `RefreshSessions`, so each
/// replica's applied index counts the rounds (and everything else SM
/// committed), and its store digest covers which sessions each round
/// listed. Per region: leader, epoch, failovers, session moves, then
/// `(applied, digest)` per replica.
#[test]
fn regression_serving_verdict_commit_indices() {
    let mut dep = Deployment::new(DeploymentConfig {
        regions: 3,
        hosts_per_region: 8,
        max_shards: 5_000,
        sm: SmConfig {
            replication: Some(ZkReplicationConfig::default()),
            ..Default::default()
        },
        seed: 0xC0331,
        ..Default::default()
    });
    let schema = Arc::new(
        SchemaBuilder::new()
            .int_dim("k", 0, 1_000, 50)
            .metric("v")
            .build()
            .unwrap(),
    );
    for (name, partitions) in [("a", 4), ("b", 3)] {
        dep.create_table(
            name,
            schema.clone(),
            partitions,
            RowMapping::Hash,
            ShardMapping::Monotonic,
            SimTime::ZERO,
        )
        .unwrap();
    }
    let host = |r: usize, i: usize| dep_host(&dep, r, i);
    let (h0, h1, h2) = (host(0, 1), host(1, 2), host(2, 0));

    let mut replaced = None;
    let mut unplugged = None;
    let mut flapped = None;
    for step in 0..1_200u64 {
        let now = SimTime::from_secs(10) + ms(500 * step);
        match step {
            // Dies unnoticed, is back before its session lapses.
            40 => dep.regions[0].nodes.crash(h0),
            44 => dep.regions[0].nodes.revive(h0),
            // Dies for good; SM finds out from the missing heartbeats.
            100 => dep.regions[1].nodes.crash(h1),
            400 => replaced = dep.replace_host(1, h1, now),
            // Crash SM is told about, restored in place.
            500 => dep.fail_host(2, h2, now),
            640 => assert!(dep.restore_host(2, h2, now)),
            // A coordination replica's region goes away and comes back.
            700 => dep.zk_crash_region(0),
            900 => dep.zk_restore_region(0),
            // A node leaves the registry and is put back, SM none the wiser.
            1_000 => unplugged = dep.regions[0].nodes.remove(h0),
            1_004 => dep.regions[0].nodes.insert(unplugged.take().unwrap()),
            // SM declares an idle host dead and two rounds later takes it
            // back while its process runs on: a session closed, then a new
            // one, and with no shard to fail over or hand back, no node is
            // touched.
            1_010 => {
                let region = &mut dep.regions[1];
                let idle = |h: &HostId| region.sm.shards_on(APP, *h).is_empty();
                let spare = region.nodes.hosts().find(idle).unwrap();
                region.sm.host_failed(spare, now, &mut region.nodes).unwrap();
                flapped = Some(spare);
            }
            1_012 => {
                let region = &mut dep.regions[1];
                region.sm.rejoin_host(flapped.unwrap(), now, &mut region.nodes).unwrap();
            }
            _ => {}
        }
        dep.tick(now);
        if step % 100 == 0 {
            dep.collect_metrics();
        }
    }
    assert!(replaced.is_some());
    let mut observed = Vec::new();
    for region in &dep.regions {
        let plane = region.sm.coordination();
        let ensemble = plane.ensemble();
        let mut row = vec![
            plane.leader().map_or(u64::MAX, u64::from),
            plane.epoch(),
            plane.failovers(),
            plane.session_moves(),
        ];
        for id in 0..ensemble.replica_count() {
            row.extend([ensemble.replica_applied(id), ensemble.replica_digest(id)]);
        }
        observed.push(row);
    }
    assert_eq!(observed, PIN_COMMIT_INDICES, "observed:\n{observed:?}");
}

fn dep_host(dep: &Deployment, region: usize, i: usize) -> HostId {
    dep.regions[region].nodes.hosts().nth(i).unwrap()
}

// ----------------------------------------------------------------- the pins

#[rustfmt::skip]
const PINS: [Golden; 8] = [
    [(91, 41, 0x77032bbfd0a47702), (91, 1, 0xf73f81e323a7642e), (91, 0, 0x5bb183185c2778bd)], // host_crash
    [(61, 50, 0xf34c464137e629d5), (61, 0, 0x99d03bbd5fc48b2d), (61, 0, 0xc30640e2dbf66069)], // restore_in_place
    [(188, 51, 0xd3bba9c79aae8883), (188, 1, 0xecad3762e10b2a4a), (188, 0, 0x404249a4e66b78e5)], // plain_migration
    [(199, 24, 0x61f808ab69c03a46), (199, 0, 0xe977a5e81dfc7497), (199, 0, 0xc49a4d9302ab0a08)], // graceful_migration
    [(86, 63, 0xc446ad128244b00e), (86, 1, 0x9cf4d3fb4c788188), (86, 0, 0x426321474f5ab0a0)], // failover_loading
    [(133, 75, 0x854182e21e424aab), (133, 0, 0xd00fef386bb92a3c), (133, 0, 0x690cf259105b7944)], // decommission_and_replace
    [(19, 2, 0xe54f8f96511c7fc1), (19, 0, 0x4932072bfd111b8a), (19, 0, 0xa35763f6c33bd032)], // blacklisted_target
    [(80, 11, 0x71f168c453a4373d), (80, 0, 0xfcf230e0ed8893aa), (80, 0, 0xff2bafb8aad243cd)], // timed_out_shards
];

#[rustfmt::skip]
const PINS_BEST_EFFORT: [Pin; 8] = [
    (91, 0, 0x091f8606a74bcba9), // host_crash
    (61, 0, 0x56a9e7e2417c2079), // restore_in_place
    (188, 0, 0x672496937e08cd07), // plain_migration
    (199, 0, 0x9c9f8845774040c5), // graceful_migration
    (86, 0, 0x79df12544ad88c2d), // failover_loading
    (133, 0, 0x983fe1eeb40ae18b), // decommission_and_replace
    (19, 0, 0x31a9113e35c94857), // blacklisted_target
    (80, 0, 0x47834083444d0ba0), // timed_out_shards
];

#[rustfmt::skip]
const PIN_QOS_REGION_OUTAGE: &[u64] = &[
    4_845, 0, 4_845, 4_648_296_447_941_720_144, 4_648_362_103_789_646_158, 4_651_201_933_665_217_970,
    0, 0, 2, 2, 0, 0,
    144, 9_576_992_489_245_022_344, 0, 0, 0, 0,
    11_243_168_142_568_100_805, 3_302, 2_863, 2_301, 0, 439,
    2_353, 308, 510, 1_833, 834, 834,
    514, 0, 0, 809, 223, 25,
    809, 1_943, 1_148, 991, 794, 0,
    1_041, 161, 107, 1_041,
];

#[rustfmt::skip]
const PIN_REPLICATED_DRAIN_STORM: &[u64] = &[
    4_409, 0, 4_409, 4_648_326_051_612_151_801, 4_648_362_103_789_646_158, 4_651_201_933_665_217_970,
    3, 3, 4, 4, 0, 0,
    156, 5_053_362_438_361_575_767, 3, 18, 0, 0,
    14_220_718_857_458_808_013, 1_622, 1_622, 460, 0, 0,
    1_614, 340, 8, 1_614, 3_123, 1_630,
    1_845, 1_263, 224, 1_615, 206, 15,
    591, 1_392, 1_157, 961, 235, 0,
    944, 40, 213, 944,
];

#[rustfmt::skip]
const PIN_COMMIT_INDICES: &[&[u64]] = &[
    &[1, 2, 1, 8, 1_318, 6_968_161_514_957_835_428, 1_318, 6_968_161_514_957_835_428, 1_318, 6_968_161_514_957_835_428],
    &[0, 1, 0, 0, 1_280, 15_191_477_535_336_773_775, 1_280, 15_191_477_535_336_773_775, 1_280, 15_191_477_535_336_773_775],
    &[0, 1, 0, 0, 1_295, 16_582_517_098_709_736_463, 1_295, 16_582_517_098_709_736_463, 1_295, 16_582_517_098_709_736_463],
];
