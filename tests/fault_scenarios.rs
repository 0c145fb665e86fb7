//! Correlated-fault scenario suite (ISSUE 2 satellite 1).
//!
//! Each test runs one named fault scenario through the full operational
//! experiment engine and asserts the three contract points:
//!
//! (a) **replayability** — the same seed produces bit-identical stats
//!     (every test prints its seed, so a failure can be replayed);
//! (b) **bounded damage** — the retried success ratio stays above the
//!     analytic lower bound `1 - disrupted_fraction` (even if *every*
//!     query issued while any fault window was open had failed, success
//!     could not drop below it; a small slack absorbs edge effects of
//!     recovery lagging past the repair instant);
//! (c) **invariant preservation** — zero same-table shard collisions
//!     (§IV-A) after recovery: neither failover retargeting nor drain
//!     storms may stack two shards of one table on a host.

use scalewall::cluster::deployment::DeploymentConfig;
use scalewall::cluster::experiment::{Experiment, ExperimentConfig, ExperimentStats};
use scalewall::cluster::fault::{FaultKind, FaultScript};
use scalewall::cluster::workload::WorkloadConfig;
use scalewall::sim::hash::{fnv1a_word, FNV_OFFSET};
use scalewall::sim::{SimDuration, SimTime};
use scalewall::zk::ZkReplicationConfig;

const DURATION: SimDuration = SimDuration::from_hours(12);

fn hours(h: u64) -> SimTime {
    SimTime::from_secs(h * 3_600)
}

/// A 3-region, 24-hosts-per-region (4 racks of 6) deployment with all
/// background noise disabled, so the only disturbance is the script.
/// With `replicated` set, each region's shard manager runs against a
/// 3-node coordination ensemble spread across the fault regions (the
/// ensemble's initial leader homed in the owning region), so coordinator
/// faults hit a real replicated plane instead of an unkillable store.
fn run_scenario_with(seed: u64, faults: FaultScript, replicated: bool) -> ExperimentStats {
    run_sized(seed, faults, replicated, 24, DURATION)
}

fn run_sized(
    seed: u64,
    faults: FaultScript,
    replicated: bool,
    hosts_per_region: u32,
    duration: SimDuration,
) -> ExperimentStats {
    let mut deployment = DeploymentConfig {
        regions: 3,
        hosts_per_region,
        racks_per_region: 4,
        max_shards: 100_000,
        ..Default::default()
    };
    if replicated {
        deployment.sm.replication = Some(ZkReplicationConfig::default());
    }
    let config = ExperimentConfig {
        deployment,
        workload: WorkloadConfig {
            tables: 8,
            ..Default::default()
        },
        duration,
        query_rate: 0.05,
        rows_per_table: 150,
        host_mtbf: SimDuration::from_days(3_650),
        drains_per_day: 0.0,
        faults,
        seed,
        ..Default::default()
    };
    Experiment::new(config).run()
}

/// Every observable stat in exactly comparable form.
fn fingerprint(stats: &ExperimentStats) -> Vec<u64> {
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
    ];
    f.extend(stats.migrations_per_day.iter().copied());
    f.extend(stats.repairs_per_day.iter().copied());
    f.extend(stats.final_hotness.iter().map(|&h| h as u64));
    f
}

/// Fingerprints of the replicated-plane scenarios, captured on the commit
/// before the batched heartbeat and the no-op-skipping expiry/drain
/// proposals (PR 15) and pinned here: a coordination change that moves a
/// failover, a `SessionMoved` handshake, a migration or one bit of a
/// latency quantile moves an entry. A legitimate re-pin means running
/// this file on the parent commit first. Rows, per [`compact_fingerprint`]:
/// queries ok / failed, latency count / mean / p50 / p99 bits;
/// drains requested / denied, faults injected / repaired, failover
/// migrations, region failovers, same-table collisions;
/// population fingerprint, zk failovers, zk session moves;
/// migrations on day 0, repairs on day 0, hotness counters, their digest.
#[rustfmt::skip]
const PIN_COORDINATOR_REGION_OUTAGE: &[u64] = &[
    2128, 0, 2128, 4_630_054_345_168_051_637, 4_629_517_393_210_738_687, 4_631_715_480_395_346_775,
    0, 0, 1, 1, 0, 1, 0,
    15_081_972_966_127_516_193, 1, 24,
    32, 0, 777, 524_251_441_176_729_787,
];
#[rustfmt::skip]
const PIN_ZK_LEADER_PARTITION: &[u64] = &[
    2128, 0, 2128, 4_629_789_441_031_477_711, 4_629_097_194_376_042_981, 4_632_383_643_361_646_131,
    3, 1, 3, 3, 0, 1, 0,
    288_763_640_574_850_150, 1, 24,
    39, 0, 752, 13_604_102_364_905_661_242,
];
#[rustfmt::skip]
const PIN_SM_FAILOVER_RACES_WATCHES: &[u64] = &[
    2152, 0, 2152, 4_629_969_295_467_783_298, 4_629_097_194_376_042_981, 4_642_765_217_935_119_071,
    3, 1, 2, 2, 0, 26, 0,
    15_773_342_346_900_277_056, 1, 24,
    49, 0, 788, 672_949_999_836_905_198,
];
#[rustfmt::skip]
const PIN_ZK_NODE_CRASH: &[u64] = &[
    2173, 0, 2173, 4_630_151_490_703_502_901, 4_629_097_194_376_042_981, 4_633_516_466_818_115_762,
    0, 0, 1, 1, 0, 2, 0,
    4_255_213_262_408_007_855, 1, 24,
    28, 0, 784, 10_775_185_209_118_533_096,
];
#[rustfmt::skip]
const PIN_SMALL_REPLICATED_RUN: &[u64] = &[
    361, 0, 361, 4_629_421_741_666_999_114, 4_629_517_393_210_738_687, 4_631_715_480_395_346_775,
    0, 0, 1, 1, 0, 0, 0,
    11_307_785_015_440_394_509, 1, 8,
    0, 0, 785, 1_417_321_848_305_087_546,
];

/// [`fingerprint`] with the per-brick hotness tail (about a thousand
/// counters) folded to its length and an FNV-1a digest, so a pin stays
/// readable: every scalar, both per-day series, then `[len, digest]`.
fn compact_fingerprint(stats: &ExperimentStats) -> Vec<u64> {
    let mut f = fingerprint(stats);
    let tail = f.split_off(f.len() - stats.final_hotness.len());
    let digest = tail.iter().copied().fold(FNV_OFFSET, fnv1a_word);
    f.extend([tail.len() as u64, digest]);
    f
}

fn assert_pinned(name: &str, stats: &ExperimentStats, pin: &[u64]) {
    let observed = compact_fingerprint(stats);
    assert_eq!(
        observed, pin,
        "`{name}` moved off its parent-captured fingerprint; observed:\n{observed:?}"
    );
}

/// Run the scenario twice and enforce contract points (a)–(c); returns
/// the stats for scenario-specific assertions.
fn check_scenario(name: &str, seed: u64, script: FaultScript) -> ExperimentStats {
    check_scenario_with(name, seed, script, false)
}

fn check_scenario_with(
    name: &str,
    seed: u64,
    script: FaultScript,
    replicated: bool,
) -> ExperimentStats {
    println!("scenario `{name}` seed {seed:#x} — replay with run_scenario_with({seed:#x}, ...)");
    let stats = run_scenario_with(seed, script.clone(), replicated);
    let replay = run_scenario_with(seed, script.clone(), replicated);
    assert_eq!(
        fingerprint(&stats),
        fingerprint(&replay),
        "`{name}` did not replay bit-identically from seed {seed:#x}"
    );
    let floor = 1.0 - script.disrupted_fraction(DURATION) - 0.02;
    assert!(
        stats.success_ratio() >= floor,
        "`{name}` success {:.4} below analytic floor {floor:.4} (ok {}, failed {})",
        stats.success_ratio(),
        stats.queries_ok,
        stats.queries_failed
    );
    assert_eq!(
        stats.same_table_collisions, 0,
        "`{name}` left same-table shard collisions after recovery"
    );
    let total = stats.queries_ok + stats.queries_failed;
    assert!(total > 1_000, "`{name}` ran too few queries: {total}");
    stats
}

/// A whole rack of region 0 goes dark for two hours. Rack-spread
/// placement keeps per-table loss bounded, so every lost shard finds a
/// collision-free failover target and traffic barely notices.
#[test]
fn rack_outage_fails_over_and_recovers() {
    let script = FaultScript::new().with(
        FaultKind::RackOutage { region: 0, rack: 1 },
        hours(2),
        SimDuration::from_hours(2),
    );
    let stats = check_scenario("rack_outage", 0x0FA0_1701, script);
    assert_eq!(stats.fault_injections, 1);
    assert_eq!(stats.fault_repairs, 1);
    assert!(
        stats.failover_migrations > 0,
        "a rack outage must trigger failover migrations"
    );
}

/// Region 1 becomes unavailable outright; its clients' queries must be
/// served by the surviving regions for the whole window.
#[test]
fn region_outage_reroutes_to_surviving_regions() {
    let script = FaultScript::new().with(
        FaultKind::RegionOutage { region: 1 },
        hours(2),
        SimDuration::from_hours(2),
    );
    let stats = check_scenario("region_outage", 0x0FA0_1702, script);
    assert_eq!(stats.fault_injections, 1);
    assert_eq!(stats.fault_repairs, 1);
    // No hosts died: nothing to fail over at the shard level, the proxy
    // absorbs the outage entirely.
    assert!(
        stats.success_ratio() > 0.99,
        "region failover should be near-lossless, got {:.4}",
        stats.success_ratio()
    );
}

/// Region 0 goes down while the 0↔1 link is also cut: region-0 clients
/// fail over, find their first-choice fallback (region 1) unreachable,
/// and must retry around the partition to region 2 (§IV-D).
#[test]
fn interregion_partition_reroutes_around_cut() {
    let script = FaultScript::new()
        .with(
            FaultKind::RegionOutage { region: 0 },
            hours(2),
            SimDuration::from_hours(2),
        )
        .with(
            FaultKind::RegionPartition { a: 0, b: 1 },
            hours(2),
            SimDuration::from_hours(2),
        );
    let stats = check_scenario("interregion_partition", 0x0FA0_1703, script);
    assert_eq!(stats.fault_injections, 2);
    assert_eq!(stats.fault_repairs, 2);
    assert!(
        stats.region_failovers > 0,
        "the proxy must have retried across the partition at least once"
    );
}

/// Four concurrent drain requests hit the automation engine at once. The
/// §IV-G safety checks bound simultaneous unavailability: at 24 hosts
/// per region the 10% budget admits two drains and denies the rest.
#[test]
fn drain_storm_is_bounded_by_safety_checks() {
    let script = FaultScript::new().with(
        FaultKind::DrainStorm {
            region: 0,
            drains: 4,
        },
        hours(2),
        SimDuration::from_hours(2),
    );
    let stats = check_scenario("drain_storm", 0x0FA0_1704, script);
    assert_eq!(stats.drains_requested, 4);
    assert!(
        stats.drains_denied >= 1,
        "the unavailability budget must deny part of the storm"
    );
    assert!(
        stats.drains_requested - stats.drains_denied >= 1,
        "at least one drain fits the budget and proceeds"
    );
    // Drains migrate shards gracefully — client-visible damage ~zero.
    assert!(stats.success_ratio() > 0.99);
}

/// Compound scenario: a drain storm in region 2 while region 1 is down
/// and partitioned from region 0 — region-1 traffic must thread through
/// the partition into a region that is simultaneously absorbing drains.
#[test]
fn partition_during_drain_storm_compound() {
    let script = FaultScript::new()
        .with(
            FaultKind::DrainStorm {
                region: 2,
                drains: 3,
            },
            SimTime::from_secs(90 * 60),
            SimDuration::from_hours(3),
        )
        .with(
            FaultKind::RegionOutage { region: 1 },
            hours(2),
            SimDuration::from_mins(90),
        )
        .with(
            FaultKind::RegionPartition { a: 1, b: 0 },
            hours(2),
            SimDuration::from_mins(90),
        );
    let stats = check_scenario("partition_during_drain", 0x0FA0_1705, script);
    assert_eq!(stats.fault_injections, 3);
    assert_eq!(stats.fault_repairs, 3);
    assert_eq!(stats.drains_requested, 3);
    assert!(
        stats.region_failovers > 0,
        "region-1 clients must have failed over around the cut"
    );
}

/// **Coordinator-region outage** (fig2b-shaped, replicated plane): region
/// 0 dies for two hours with the coordination leader of its own ensemble
/// homed *inside* the dead region. The ensemble must fail over
/// automatically (lease expiry → deterministic election → `TouchSessions`),
/// traffic reroutes as in the plain region-outage scenario, no host is
/// spuriously expired during the leaderless window, and the whole run —
/// including failover counts — replays bit-identically.
#[test]
fn coordinator_region_outage_fails_over_automatically() {
    let script = FaultScript::new().with(
        FaultKind::RegionOutage { region: 0 },
        hours(2),
        SimDuration::from_hours(2),
    );
    let stats = check_scenario_with("coordinator_region_outage", 0x0FA0_1706, script, true);
    assert_pinned(
        "coordinator_region_outage",
        &stats,
        PIN_COORDINATOR_REGION_OUTAGE,
    );
    assert_eq!(stats.fault_injections, 1);
    assert_eq!(stats.fault_repairs, 1);
    assert!(
        stats.zk_failovers >= 1,
        "killing the leader's home region must force a coordination failover"
    );
    assert!(
        stats.zk_session_moves > 0,
        "post-failover heartbeats must absorb SessionMoved reconnects"
    );
    // Coordination loss must not translate into query loss beyond the
    // routed-around region outage itself.
    assert!(
        stats.success_ratio() > 0.99,
        "coordination failover should be invisible to traffic, got {:.4}",
        stats.success_ratio()
    );
    // No host was spuriously expired during the leaderless window: zero
    // failover migrations means no session was declared dead.
    assert_eq!(
        stats.failover_migrations, 0,
        "degraded-but-live: the leaderless window must not expire live hosts"
    );
}

/// **ZK leader partition during a drain storm** (replicated plane): a
/// drain storm lands in region 0 and, mid-storm, region 0 is partitioned
/// from *both* other regions — isolating the region-0 ensemble's own
/// leader on the minority side. The majority side (regions 1+2) must
/// elect a new leader within one lease, the shard manager's sessions
/// must ride the failover as `SessionMoved` reconnects rather than
/// expiries, the storm's admitted drains must complete, and the whole
/// compound run must replay bit-identically.
#[test]
fn zk_leader_partition_during_drain_storm() {
    let script = FaultScript::new()
        .with(
            FaultKind::DrainStorm {
                region: 0,
                drains: 3,
            },
            hours(1),
            SimDuration::from_hours(3),
        )
        .with(
            FaultKind::RegionPartition { a: 0, b: 1 },
            hours(2),
            SimDuration::from_mins(90),
        )
        .with(
            FaultKind::RegionPartition { a: 0, b: 2 },
            hours(2),
            SimDuration::from_mins(90),
        );
    let stats = check_scenario_with("zk_leader_partition_during_drain", 0x0FA0_1708, script, true);
    assert_pinned(
        "zk_leader_partition_during_drain",
        &stats,
        PIN_ZK_LEADER_PARTITION,
    );
    assert_eq!(stats.fault_injections, 3);
    assert_eq!(stats.fault_repairs, 3);
    assert_eq!(stats.drains_requested, 3);
    assert!(
        stats.zk_failovers >= 1,
        "isolating the leader from the majority must force an election, got {}",
        stats.zk_failovers
    );
    assert!(
        stats.zk_session_moves > 0,
        "post-failover heartbeats must absorb SessionMoved reconnects"
    );
    // Bounded reconnect churn: every live session re-handshakes at most
    // once per election (one SessionMoved refusal per session per
    // epoch), so the storm cannot amplify session movement. 24 hosts
    // per region plus the manager's own bookkeeping sessions, times the
    // elections this schedule produces, stays well under this pin.
    assert!(
        stats.zk_session_moves <= 64 * stats.zk_failovers.max(1),
        "session moves ({}) exploded past one reconnect per session per election ({})",
        stats.zk_session_moves,
        stats.zk_failovers
    );
    // No host was spuriously expired: the leaderless window and the
    // partition must degrade, not kill sessions into failover churn.
    assert_eq!(
        stats.failover_migrations, 0,
        "degraded-but-live: the partitioned window must not expire live hosts"
    );
}

/// **SM failover racing client watches** (ISSUE 10 satellite): a drain
/// storm keeps region 1's shard manager busy mutating placement — every
/// step fanning watch notifications out to clients — when the region's
/// own coordination replicas crash mid-storm (`ZkNodeCrash`). The
/// ensemble election races the in-flight drain migrations and the
/// hosts' heartbeat sessions. Contract: the failover shows up as
/// bounded `SessionMoved` reconnect churn (one re-handshake per session
/// per election), no live session is expired into spurious failover
/// migrations, the storm's admitted drains still complete, and the
/// whole race — election order, session reconnects, migration schedule —
/// replays bit-identically.
#[test]
fn sm_failover_races_client_watches() {
    let script = FaultScript::new()
        .with(
            FaultKind::DrainStorm {
                region: 1,
                drains: 3,
            },
            hours(2),
            SimDuration::from_hours(3),
        )
        .with(
            FaultKind::ZkNodeCrash { region: 1 },
            SimTime::from_secs(150 * 60),
            SimDuration::from_hours(1),
        );
    let stats = check_scenario_with("sm_failover_races_client_watches", 0x0FA0_170A, script, true);
    assert_pinned(
        "sm_failover_races_client_watches",
        &stats,
        PIN_SM_FAILOVER_RACES_WATCHES,
    );
    assert_eq!(stats.fault_injections, 2);
    assert_eq!(stats.fault_repairs, 2);
    assert_eq!(stats.drains_requested, 3);
    assert!(
        stats.drains_requested - stats.drains_denied >= 1,
        "the storm's admitted drains proceed through the failover"
    );
    assert!(
        stats.zk_failovers >= 1,
        "crashing region 1's replicas mid-storm must force an election, got {}",
        stats.zk_failovers
    );
    assert!(
        stats.zk_session_moves > 0,
        "watch clients must re-handshake via SessionMoved after failover"
    );
    // Bounded churn: at most one reconnect per session per election
    // (24 hosts + SM bookkeeping sessions per region, same bound as the
    // leader-partition scenario).
    assert!(
        stats.zk_session_moves <= 64 * stats.zk_failovers.max(1),
        "session moves ({}) exploded past one reconnect per session per election ({})",
        stats.zk_session_moves,
        stats.zk_failovers
    );
    // Zero spurious expiries: the election racing the drain's watch
    // traffic must not declare any live host dead.
    assert_eq!(
        stats.failover_migrations, 0,
        "failover racing client watches must not expire live sessions"
    );
    // Graceful drains + coordinator-only fault: client damage ~zero.
    assert!(
        stats.success_ratio() > 0.999,
        "the race must stay invisible to traffic, got {:.4}",
        stats.success_ratio()
    );
}

/// The coordinator's rack alone dies (`ZkNodeCrash`): every replica
/// homed in region 1 crashes, but application hosts are untouched.
/// Ensembles whose leader lived there fail over; traffic never notices.
#[test]
fn zk_node_crash_is_invisible_to_traffic() {
    let script = FaultScript::new().with(
        FaultKind::ZkNodeCrash { region: 1 },
        hours(3),
        SimDuration::from_hours(1),
    );
    let stats = check_scenario_with("zk_node_crash", 0x0FA0_1707, script, true);
    assert_pinned("zk_node_crash", &stats, PIN_ZK_NODE_CRASH);
    assert!(
        stats.zk_failovers >= 1,
        "region 1's own ensemble lost its leader and must re-elect"
    );
    assert!(
        stats.success_ratio() > 0.999,
        "a coordinator-only fault must not fail queries, got {:.4}",
        stats.success_ratio()
    );
    assert_eq!(stats.failover_migrations, 0);
}

/// The smallest run that still crosses a coordination failover: 3 regions
/// of 8 hosts, two hours, three replicas, region 1's replicas down for the
/// middle half hour. Cheap enough to re-run on every change to the tick
/// path; pinned like the scenarios above.
#[test]
fn small_replicated_run_matches_parent_pin() {
    let script = FaultScript::new().with(
        FaultKind::ZkNodeCrash { region: 1 },
        SimTime::from_secs(45 * 60),
        SimDuration::from_mins(30),
    );
    let stats = run_sized(0x0FA0_170B, script, true, 8, SimDuration::from_hours(2));
    assert!(stats.zk_failovers >= 1, "the crash must force an election");
    assert!(stats.zk_session_moves > 0);
    assert_pinned("small_replicated_run", &stats, PIN_SMALL_REPLICATED_RUN);
}

#[rustfmt::skip]
const PIN_TIE_RACK_LISTED_FIRST: &[u64] = &[
    733, 0, 733, 4_630_462_906_999_419_801, 4_629_517_393_210_738_687, 4_635_274_979_955_882_248,
    0, 0, 2, 2, 0, 117, 0,
    11_542_147_664_180_862_645, 0, 0,
    0, 0, 774, 10_877_890_120_506_029_979,
];
#[rustfmt::skip]
const PIN_TIE_CRASH_LISTED_FIRST: &[u64] = &[
    717, 0, 717, 4_630_300_284_830_841_142, 4_629_517_393_210_738_687, 4_634_756_709_924_636_200,
    0, 0, 2, 2, 0, 113, 0,
    11_542_147_664_180_862_645, 0, 0,
    0, 0, 774, 13_061_971_374_892_791_474,
];

/// The tie rule: fault transitions due at the same instant fire in script
/// order, because the experiment schedules each window's onset and repair
/// in script order and the event kernel is FIFO at equal times. Here a
/// rack outage in region 0 is repaired at the instant a host crash in
/// region 0 begins. Listed first, the repair restores the rack before the
/// crash picks its victim; listed second, the crash picks among the hosts
/// the rack outage left up. The two runs differ, and both are pinned.
#[test]
fn coinciding_fault_transitions_fire_in_script_order() {
    let rack = (FaultKind::RackOutage { region: 0, rack: 1 }, hours(1));
    let crash = (FaultKind::HostCrash { region: 0 }, hours(2));
    let run = |windows: [(FaultKind, SimTime); 2]| {
        let script = windows.into_iter().fold(FaultScript::new(), |s, (kind, onset)| {
            s.with(kind, onset, SimDuration::from_hours(1))
        });
        run_sized(0x0FA0_170C, script, false, 8, SimDuration::from_hours(4))
    };
    let rack_first = run([rack, crash]);
    let crash_first = run([crash, rack]);
    assert_pinned("tie_rack_listed_first", &rack_first, PIN_TIE_RACK_LISTED_FIRST);
    assert_pinned("tie_crash_listed_first", &crash_first, PIN_TIE_CRASH_LISTED_FIRST);
}
