//! Control-plane decisions pinned bit for bit against the parent commit.
//!
//! `tests/fault_scenarios.rs` pins counters: a failover that lands on a
//! different host, or a drain that picks another victim, passes it as
//! long as the totals agree. This file pins the decisions themselves.
//!
//! (1) [`direct_sm_decisions_match_parent`] drives one `SmServer` over a
//!     mock fleet through every entry point that changes an assignment
//!     (allocate, balance, migrate, fail, drain, rejoin, remove) and
//!     digests every shard's host, every migration record and every
//!     host-load bit pattern.
//! (2) [`experiment_counters_match_parent`] runs the operational
//!     experiment under background failures and drains plus a fault
//!     script, without replication and on three replicas, and pins every
//!     `ExperimentStats` counter. `Experiment` does not hand out its
//!     deployment, so the per-region migration records and the final
//!     owner of every shard of the same runs are pinned from inside the
//!     crate (`experiment::tests::control_plane_records_match_parent`).
//!
//! The pins were captured on `f27cb00`, before SM `server.rs` and
//! `experiment.rs` were collapsed; the direct-SM rows were re-captured on
//! `594a813` when SM became primary-only and `rep` with it, and on
//! `e39a42f` when SM came to serve one application and `rep`'s shards
//! joined `svc`. A legitimate re-pin means running this file on the
//! parent commit first; a mismatch prints the observed row.

use std::collections::{BTreeMap, BTreeSet};

use scalewall::cluster::deployment::DeploymentConfig;
use scalewall::cluster::experiment::{Experiment, ExperimentConfig, ExperimentStats};
use scalewall::cluster::fault::{FaultKind, FaultScript};
use scalewall::cluster::workload::WorkloadConfig;
use scalewall::cubrick::hotness::HOT_THRESHOLD;
use scalewall::shard_manager::app_server::MockAppServer;
use scalewall::shard_manager::{
    AppServer, AppServerRegistry, AppSpec, AutomationEngine, HostId, HostInfo, HostState,
    MaintenanceRequest, MigrationCause, MigrationKind, MigrationPhase, Rack, Region, ShardId,
    SmConfig, SmServer,
};
use scalewall::sim::hash::{fnv1a_word, FNV_OFFSET};
use scalewall::sim::{SimDuration, SimTime};
use scalewall::zk::ZkReplicationConfig;

// ------------------------------------------------------------ (1) direct SM

const RACKS: u64 = 3;
const HOSTS: u64 = 36;
/// Refuse every second and every third shard with a non-retryable error:
/// both stay emptier than the fleet, so they rank first and placements,
/// failovers and drains keep walking the veto path.
const VETOING: [(HostId, u64); 2] = [(HostId(4), 2), (HostId(23), 3)];

struct Fleet {
    servers: BTreeMap<HostId, MockAppServer>,
    down: BTreeSet<HostId>,
    /// Heartbeat rounds so far. This fleet keeps no count of its changes,
    /// so it calls every round a new version of itself.
    rounds: u64,
}

impl AppServerRegistry for Fleet {
    fn server(&mut self, host: HostId) -> Option<&mut dyn AppServer> {
        if self.down.contains(&host) {
            return None;
        }
        self.servers.get_mut(&host).map(|s| s as &mut dyn AppServer)
    }
}

fn ms(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

/// One heartbeat round of every live process, then SM's tick.
fn tick(sm: &mut SmServer, fleet: &mut Fleet, now: SimTime) {
    let live: Vec<HostId> = fleet
        .servers
        .keys()
        .copied()
        .filter(|h| !fleet.down.contains(h))
        .collect();
    fleet.rounds += 1;
    sm.heartbeat_all(fleet.rounds, || live, now);
    sm.tick(now, fleet);
}

fn sm_digests(jitter: usize) -> [u64; 5] {
    let config = SmConfig {
        placement_jitter: jitter,
        seed: 0xC0DE ^ jitter as u64,
        ..Default::default()
    };
    let mut sm = SmServer::new(config, AppSpec::primary_only("svc", 1_000));
    let mut fleet = Fleet {
        servers: BTreeMap::new(),
        down: BTreeSet::new(),
        rounds: 0,
    };
    for i in 0..HOSTS {
        let capacity = 400.0 + 25.0 * (i % 5) as f64;
        let info = HostInfo::new(HostId(i), Rack((i % RACKS) as u32), Region(0), capacity);
        sm.register_host(info, SimTime::ZERO).unwrap();
        let mut server = MockAppServer::with_capacity(capacity);
        if let Some(&(_, every)) = VETOING.iter().find(|(h, _)| *h == HostId(i)) {
            server.vetoed.extend((0..1_000).filter(|s| s % every == 0));
        }
        fleet.servers.insert(HostId(i), server);
    }

    // 60 shards in 10 anti-affinity groups, then 12 ungrouped shards.
    for s in 0..60u64 {
        let weight = 5.0 + (s % 7) as f64;
        sm.allocate_shard(ShardId(s), weight, Some(s % 10), ms(1_000), &mut fleet)
            .unwrap();
    }
    for s in 100..112u64 {
        sm.allocate_shard(ShardId(s), 3.0 + (s % 3) as f64, None, ms(1_000), &mut fleet)
            .unwrap();
    }

    // The applications report sizes; a few shards grew a lot, so the poll
    // rebuilds loads and the balancer has something to flatten.
    for server in fleet.servers.values_mut() {
        for (&shard, w) in server.shards.iter_mut() {
            *w = 4.0 + (shard % 11) as f64 + if shard % 13 == 0 { 60.0 } else { 0.0 };
        }
    }
    tick(&mut sm, &mut fleet, ms(2_000));
    sm.collect_metrics(&mut fleet);
    sm.run_load_balancer(ms(3_000), &mut fleet);
    tick(&mut sm, &mut fleet, ms(4_000));

    // Two copies in flight when the faults land: a graceful one whose
    // target is about to die, a plain one that runs to completion.
    let idle = |sm: &SmServer, shard: u64| sm.active_migration(ShardId(shard)).is_none();
    let graceful = (0..60).find(|&s| idle(&sm, s)).unwrap();
    let plain = (0..60).rev().find(|&s| idle(&sm, s)).unwrap();
    let target_for = |sm: &SmServer, shard: u64, skip: Option<HostId>| {
        (0..HOSTS)
            .map(HostId)
            .filter(|h| VETOING.iter().all(|(v, _)| v != h) && Some(*h) != skip)
            .filter(|&h| sm.host_of(ShardId(shard)) != Some(h))
            .min_by(|&a, &b| sm.host_load(a).total_cmp(&sm.host_load(b)))
            .unwrap()
    };
    let doomed = target_for(&sm, graceful, None);
    sm.begin_migration(ShardId(graceful), doomed, true, MigrationCause::Manual, ms(5_000), &mut fleet)
        .unwrap();
    let plain_to = target_for(&sm, plain, Some(doomed));
    sm.begin_migration(ShardId(plain), plain_to, false, MigrationCause::Manual, ms(5_000), &mut fleet)
        .unwrap();

    // Fail the copy's target, and the busiest other host.
    let busiest = (0..HOSTS)
        .map(HostId)
        .filter(|&h| h != doomed && h != plain_to)
        .max_by_key(|&h| (sm.shards_on("svc", h).len(), h))
        .unwrap();
    for victim in [doomed, busiest] {
        fleet.down.insert(victim);
        sm.host_failed(victim, ms(5_100), &mut fleet).unwrap();
    }
    // A tick sweeps the aborted record before anything asks about it.
    tick(&mut sm, &mut fleet, ms(5_200));

    // The host with the aborted copy restarts on the same hardware while
    // the failovers off it are still copying: it takes its shards back,
    // and loses them again when the copies land.
    fleet.down.remove(&doomed);
    let rejoined = sm.rejoin_host(doomed, ms(5_300), &mut fleet).unwrap();
    tick(&mut sm, &mut fleet, ms(5_600));

    // Drain the host the failovers piled onto through the safety checks
    // (36 hosts: the 10 % unavailability budget has room for one more),
    // and the next most loaded one directly.
    let loaded = |sm: &SmServer, skip: Option<HostId>| {
        (0..HOSTS)
            .map(HostId)
            .filter(|&h| sm.host_state(h) == Some(HostState::Alive) && Some(h) != skip)
            .max_by_key(|&h| (sm.shards_on("svc", h).len(), h))
            .unwrap()
    };
    let via_automation = loaded(&sm, None);
    let verdict = AutomationEngine::default()
        .submit(
            &mut sm,
            &MaintenanceRequest {
                hosts: vec![via_automation],
                reason: "pin".to_string(),
            },
            ms(6_000),
            &mut fleet,
        )
        .unwrap();
    let drained = loaded(&sm, Some(via_automation));
    let moved = sm.drain_host(drained, ms(6_000), &mut fleet).unwrap();

    // The other dead host is decommissioned once nothing references it.
    let mut removed_at = None;
    let mut now = ms(6_500);
    for step in 0..400u64 {
        tick(&mut sm, &mut fleet, now);
        if removed_at.is_none() && sm.remove_host(busiest).is_ok() {
            removed_at = Some(step);
        }
        now += SimDuration::from_millis(500);
    }
    assert_eq!(sm.active_migration_count(), 0, "quiescent");
    sm.reactivate_host(drained, now).unwrap();

    let owners = (0..60u64)
        .chain(100..112)
        .map(|s| sm.host_of(ShardId(s)).unwrap().0)
        .fold(FNV_OFFSET, fnv1a_word);
    let mut history = FNV_OFFSET;
    for m in sm.migration_history() {
        let kind = match m.kind {
            MigrationKind::Plain => 0,
            MigrationKind::Graceful => 1,
            MigrationKind::Failover => 2,
        };
        let cause = match m.cause {
            MigrationCause::LoadBalance => 0,
            MigrationCause::Drain => 1,
            MigrationCause::HostFailure => 2,
            MigrationCause::Manual => 3,
        };
        let phase = match m.phase {
            MigrationPhase::Copying => 0,
            MigrationPhase::Forwarding => 1,
            MigrationPhase::Done => 2,
            MigrationPhase::Failed => 3,
        };
        let started = m.started_at.as_nanos();
        let finished = m.finished_at.map_or(u64::MAX, SimTime::as_nanos);
        let words = [
            m.id.0, m.shard.0, m.from.0, m.to.0, kind, cause, phase, started, finished, m.bytes,
        ];
        history = words.into_iter().fold(history, fnv1a_word);
    }
    let (mut loads, mut placement) = (FNV_OFFSET, FNV_OFFSET);
    for h in (0..HOSTS).map(HostId) {
        loads = fnv1a_word(loads, sm.host_load(h).to_bits());
        for s in sm.shards_on("svc", h) {
            placement = fnv1a_word(fnv1a_word(placement, h.0), s.0);
        }
    }
    let script = [
        graceful,
        plain,
        doomed.0,
        plain_to.0,
        busiest.0,
        drained.0,
        moved as u64,
        via_automation.0,
        format!("{verdict:?}").len() as u64,
        removed_at.unwrap_or(u64::MAX),
        rejoined.len() as u64,
        sm.migration_history().len() as u64,
    ]
    .into_iter()
    .chain(rejoined.iter().map(|shard| shard.0))
    .fold(FNV_OFFSET, fnv1a_word);
    [owners, history, loads, placement, script]
}

/// Rows: shard owners, migration records, host-load bits, shards per
/// host, and the script's own choices (victims, counts, verdict).
#[rustfmt::skip]
const PIN_SM: [(usize, [u64; 5]); 2] = [
    (1, [5_788_307_812_412_090_505, 16_952_532_980_312_197_691, 5_571_149_037_337_529_973, 9_998_094_848_170_775_817, 16_375_534_973_533_189_417]),
    (3, [5_339_341_049_981_551_305, 16_386_145_706_644_749_270, 4_844_451_016_214_793_845, 5_602_303_857_367_056_785, 8_059_043_417_669_673_747]),
];

#[test]
fn direct_sm_decisions_match_parent() {
    for (jitter, pin) in PIN_SM {
        let observed = sm_digests(jitter);
        assert_eq!(
            observed, pin,
            "SM decisions at placement_jitter {jitter} moved off the parent; observed:\n{observed:?}"
        );
    }
}

// ------------------------------------------------------------ (2) experiment

/// 3 regions × 12 hosts in 3 racks, 6 h. Twelve hosts, not eight: one
/// drained host of eight is 12.5 % of a region and the 10 % safety budget
/// would deny every request, so no approved drain would ever run.
fn experiment_config(replicated: bool) -> ExperimentConfig {
    let hour = |h: u64| SimTime::from_secs(h * 3_600);
    let mut deployment = DeploymentConfig {
        regions: 3,
        hosts_per_region: 12,
        racks_per_region: 3,
        max_shards: 100_000,
        ..Default::default()
    };
    if replicated {
        deployment.sm.replication = Some(ZkReplicationConfig::default());
    }
    ExperimentConfig {
        deployment,
        workload: WorkloadConfig {
            tables: 8,
            ..Default::default()
        },
        duration: SimDuration::from_hours(6),
        query_rate: 0.05,
        rows_per_table: 150,
        host_mtbf: SimDuration::from_days(2),
        repair_delay: SimDuration::from_hours(1),
        drains_per_day: 24.0,
        maintenance_duration: SimDuration::from_mins(40),
        faults: FaultScript::new()
            .with(FaultKind::HostCrash { region: 1 }, hour(1), SimDuration::from_mins(50))
            .with(FaultKind::RackOutage { region: 0, rack: 1 }, hour(2), SimDuration::from_mins(45))
            .with(FaultKind::DrainStorm { region: 2, drains: 4 }, hour(3), SimDuration::from_mins(30))
            .with(FaultKind::ZkNodeCrash { region: 0 }, hour(4), SimDuration::from_mins(20)),
        seed: 0xB175,
        ..Default::default()
    }
}

fn experiment_fingerprint(stats: &ExperimentStats) -> Vec<u64> {
    let hotness = stats.final_hotness.iter().map(|&h| h as u64).fold(FNV_OFFSET, fnv1a_word);
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
        stats.final_hotness.len() as u64,
        hotness,
        HOT_THRESHOLD as u64,
    ];
    f.extend(stats.migrations_per_day.iter().copied());
    f.extend(stats.repairs_per_day.iter().copied());
    f
}

/// Rows: queries ok / failed, latency count / mean / p50 / p99 bits;
/// drains requested / denied, faults injected / repaired, failover
/// migrations, region failovers, same-table collisions; population
/// fingerprint, zk failovers, zk session moves; hotness counters, their
/// digest, hot threshold; migrations on day 0, repairs on day 0.
#[rustfmt::skip]
const PIN_EXPERIMENT_SINGLE: &[u64] = &[
    1124, 2, 1124, 4_630_710_501_414_241_378, 4_629_517_393_210_738_687, 4_642_765_217_935_119_071,
    7, 5, 4, 4, 46, 269, 0,
    16_935_200_421_627_379_338, 0, 0,
    760, 17_491_490_473_316_881_287, 4,
    102, 3,
];
#[rustfmt::skip]
const PIN_EXPERIMENT_REPLICATED: &[u64] = &[
    1124, 2, 1124, 4_630_710_501_414_241_378, 4_629_517_393_210_738_687, 4_642_765_217_935_119_071,
    7, 5, 4, 4, 46, 269, 0,
    16_935_200_421_627_379_338, 1, 12,
    760, 17_491_490_473_316_881_287, 4,
    102, 3,
];

#[test]
fn experiment_counters_match_parent() {
    for (replicated, pin) in [(false, PIN_EXPERIMENT_SINGLE), (true, PIN_EXPERIMENT_REPLICATED)] {
        let stats = Experiment::new(experiment_config(replicated)).run();
        let observed = experiment_fingerprint(&stats);
        assert_eq!(
            observed, pin,
            "experiment (replicated: {replicated}) moved off the parent; observed:\n{observed:?}"
        );
    }
}
