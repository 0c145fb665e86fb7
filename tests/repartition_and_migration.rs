//! Integration: dynamic re-partitioning and shard migration under live
//! traffic — the operations §IV-B and §IV-E describe — with exact-result
//! verification throughout.

use scalewall::cluster::deployment::{Deployment, DeploymentConfig, APP};
use scalewall::cluster::driver::{run_query, QueryOptions};
use scalewall::cluster::net::{NetModel, NetModelConfig};
use scalewall::cubrick::catalog::RowMapping;
use scalewall::cubrick::proxy::{CubrickProxy, ProxyConfig};
use scalewall::cubrick::query::parse_query;
use scalewall::cubrick::schema::SchemaBuilder;
use scalewall::cubrick::sharding::ShardMapping;
use scalewall::cubrick::value::{Row, Value};
use scalewall::shard_manager::{HostId, MigrationCause, MigrationPhase, ShardId};
use scalewall::sim::{SimDuration, SimRng, SimTime};
use std::sync::Arc;

fn schema() -> Arc<scalewall::cubrick::schema::Schema> {
    Arc::new(
        SchemaBuilder::new()
            .int_dim("k", 0, 10_000, 250)
            .metric("v")
            .build()
            .unwrap(),
    )
}

fn build(seed: u64, partitions: u32, rows: i64) -> Deployment {
    let mut dep = Deployment::new(DeploymentConfig {
        regions: 3,
        hosts_per_region: 24,
        max_shards: 10_000,
        seed,
        ..Default::default()
    });
    dep.create_table(
        "t",
        schema(),
        partitions,
        RowMapping::Hash,
        ShardMapping::Monotonic,
        SimTime::ZERO,
    )
    .unwrap();
    let data: Vec<Row> = (0..rows)
        .map(|k| Row::new(vec![Value::Int(k % 10_000)], vec![k as f64]))
        .collect();
    dep.ingest("t", &data).unwrap();
    dep
}

fn count_star(
    dep: &mut Deployment,
    proxy: &mut CubrickProxy,
    net: &NetModel,
    now: SimTime,
    rng: &mut SimRng,
) -> Option<f64> {
    let q = parse_query("select count(*) from t").unwrap();
    let outcome = run_query(dep, proxy, net, &q, &QueryOptions::default(), now, rng);
    outcome.output.and_then(|o| o.scalar())
}

#[test]
fn repartition_preserves_results_and_updates_proxy_cache() {
    let mut dep = build(11, 8, 4_000);
    let mut proxy = CubrickProxy::new(ProxyConfig::default());
    let net = NetModel::new(NetModelConfig {
        server_failure_probability: 0.0,
        ..Default::default()
    });
    let mut rng = SimRng::new(11);
    let mut now = SimTime::from_secs(3_600);

    assert_eq!(
        count_star(&mut dep, &mut proxy, &net, now, &mut rng),
        Some(4_000.0)
    );
    assert_eq!(proxy.cached_partitions("t"), Some(8));

    // Grow 8 → 16 partitions.
    let shuffled = dep.repartition("t", 16, now).unwrap();
    assert_eq!(shuffled, 4_000);
    now += SimDuration::from_mins(5); // let discovery propagate new shards

    assert_eq!(
        count_star(&mut dep, &mut proxy, &net, now, &mut rng),
        Some(4_000.0)
    );
    // Result metadata refreshed the cache to the new count (§IV-C).
    assert_eq!(proxy.cached_partitions("t"), Some(16));

    // Shrink back down.
    dep.repartition("t", 8, now).unwrap();
    now += SimDuration::from_mins(5);
    assert_eq!(
        count_star(&mut dep, &mut proxy, &net, now, &mut rng),
        Some(4_000.0)
    );
    assert_eq!(proxy.cached_partitions("t"), Some(8));
}

#[test]
fn graceful_migration_under_traffic_never_disrupts() {
    let mut dep = build(12, 4, 2_000);
    // No retries: any disruption would be visible as a failure.
    let mut proxy = CubrickProxy::new(ProxyConfig {
        max_retries: 0,
        ..Default::default()
    });
    let net = NetModel::new(NetModelConfig {
        server_failure_probability: 0.0,
        ..Default::default()
    });
    let mut rng = SimRng::new(12);
    let mut now = SimTime::from_secs(3_600);

    let shard = dep.catalog.read().shards_of_table("t").unwrap()[0];
    let from = dep.regions[0].authoritative_host(shard).unwrap();
    let to = dep.regions[0]
        .nodes
        .hosts()
        .find(|&h| h != from && dep.regions[0].sm.shards_on(APP, h).is_empty())
        .unwrap();
    {
        let region = &mut dep.regions[0];
        region
            .sm
            .begin_migration(
                ShardId(shard),
                to,
                true,
                MigrationCause::Manual,
                now,
                &mut region.nodes,
            )
            .unwrap();
    }
    for step in 0..600u64 {
        dep.tick(now);
        let result = count_star(&mut dep, &mut proxy, &net, now, &mut rng);
        assert_eq!(result, Some(2_000.0), "step {step}");
        now += SimDuration::from_millis(200);
    }
    // The migration completed along the way.
    assert_eq!(dep.regions[0].authoritative_host(shard), Some(to));
    assert!(dep.regions[0]
        .sm
        .active_migration(ShardId(shard))
        .is_none());
}

#[test]
fn plain_migration_has_visible_error_window_masked_by_proxy_retries() {
    // Same scenario, plain migration. Without retries some queries fail;
    // with retries (the production configuration) none do.
    for (retries, expect_failures) in [(0u32, true), (2u32, false)] {
        let mut dep = build(13, 4, 1_000);
        let mut proxy = CubrickProxy::new(ProxyConfig {
            max_retries: retries,
            ..Default::default()
        });
        let net = NetModel::new(NetModelConfig {
            server_failure_probability: 0.0,
            ..Default::default()
        });
        let mut rng = SimRng::new(13);
        let mut now = SimTime::from_secs(3_600);

        let shard = dep.catalog.read().shards_of_table("t").unwrap()[0];
        let from = dep.regions[0].authoritative_host(shard).unwrap();
        let to = dep.regions[0]
            .nodes
            .hosts()
            .find(|&h| h != from && dep.regions[0].sm.shards_on(APP, h).is_empty())
            .unwrap();
        {
            let region = &mut dep.regions[0];
            region
                .sm
                .begin_migration(
                    ShardId(shard),
                    to,
                    false, // plain
                    MigrationCause::Manual,
                    now,
                    &mut region.nodes,
                )
                .unwrap();
        }
        let mut failures = 0u64;
        for _ in 0..600u64 {
            dep.tick(now);
            if count_star(&mut dep, &mut proxy, &net, now, &mut rng).is_none() {
                failures += 1;
            }
            now += SimDuration::from_millis(100);
        }
        if expect_failures {
            assert!(failures > 0, "plain migration without retries must disrupt");
        } else {
            assert_eq!(failures, 0, "proxy retries mask the window");
        }
    }
}

#[test]
fn migration_collision_veto_respected_end_to_end() {
    let mut dep = build(14, 4, 100);
    let shards = dep.catalog.read().shards_of_table("t").unwrap();
    let region = &mut dep.regions[0];
    let from = region.sm.host_of(ShardId(shards[0])).unwrap();
    // Target: a host that owns a *different* shard of the same table.
    let target = region
        .sm
        .host_of(ShardId(shards[1]))
        .filter(|&h| h != from)
        .expect("different owner");
    let now = SimTime::from_secs(100);
    let err = region
        .sm
        .begin_migration(
            ShardId(shards[0]),
            target,
            true,
            MigrationCause::Manual,
            now,
            &mut region.nodes,
        )
        .unwrap_err();
    assert!(
        matches!(
            err,
            scalewall::shard_manager::SmError::AllTargetsVetoed { .. }
        ),
        "{err:?}"
    );
}

/// Dropping a table while one of its shards migrates ends the migration
/// with the shard: the record is `Failed`, not `Done`, and no node of any
/// region keeps owning a shard no table maps — a plain copy, a graceful
/// one still copying and a graceful one already forwarding alike.
#[test]
fn drop_table_mid_migration_leaves_no_owner() {
    for (graceful, forwarding) in [(false, false), (true, false), (true, true)] {
        let case = format!("graceful {graceful}, forwarding {forwarding}");
        let mut dep = build(15, 4, 100);
        let shard = dep.catalog.read().shards_of_table("t").unwrap()[0];
        let from = dep.regions[0].authoritative_host(shard).unwrap();
        let to = dep.regions[0]
            .nodes
            .hosts()
            .find(|&h| h != from && dep.regions[0].sm.shards_on(APP, h).is_empty())
            .unwrap();
        let mut now = SimTime::from_secs(100);
        let region = &mut dep.regions[0];
        let cause = MigrationCause::Manual;
        let id = region
            .sm
            .begin_migration(ShardId(shard), to, graceful, cause, now, &mut region.nodes)
            .unwrap();
        if forwarding {
            now = dep.regions[0].sm.active_migration(ShardId(shard)).unwrap().deadline;
            dep.tick(now);
            let record = dep.regions[0].sm.active_migration(ShardId(shard)).unwrap();
            assert_eq!(record.phase, MigrationPhase::Forwarding, "{case}");
        }
        dep.drop_table("t", now).unwrap();
        dep.tick(now + SimDuration::from_hours(1));

        let history = dep.regions[0].sm.migration_history();
        let record = history.iter().find(|m| m.id == id).expect("the record is swept");
        assert_eq!(record.phase, MigrationPhase::Failed, "{case}");
        for region in &dep.regions {
            for host in region.nodes.hosts() {
                let node = region.nodes.node(host).unwrap();
                assert!(!node.owns_shard(shard), "{case}: {host} still owns {shard}");
                assert_eq!(node.is_forwarding(shard), None, "{case}: {host} still forwards");
            }
        }
    }
}

/// Every live node of every region owns only shards its region's SM
/// assigns to it, and forwards none: with no migration under way there
/// is nothing to forward to.
fn assert_no_ghost_owner(dep: &Deployment, case: &str) {
    for region in &dep.regions {
        assert_eq!(region.sm.active_migration_count(), 0, "{case}: not quiescent");
        for host in region.nodes.hosts().filter(|&h| !region.nodes.is_down(h)) {
            let node = region.nodes.node(host).unwrap();
            for shard in node.owned_shards() {
                let owner = region.sm.host_of(ShardId(shard));
                assert_eq!(owner, Some(host), "{case}: {host} owns {shard}, SM assigns {owner:?}");
            }
            for shard in dep.catalog.read().shards_of_table("t").unwrap() {
                let target = node.is_forwarding(shard);
                assert_eq!(target, None, "{case}: {host} forwards {shard} to {target:?}");
            }
        }
    }
}

/// The first shard of table `t` in region 0, its host, and the last host
/// holding nothing: a target the dead source's failover would not pick
/// first (placement breaks ties by host id).
fn shard_and_far_target(dep: &Deployment) -> (u64, HostId, HostId) {
    let shard = dep.catalog.read().shards_of_table("t").unwrap()[0];
    let region = &dep.regions[0];
    let from = region.authoritative_host(shard).unwrap();
    let hosts: Vec<HostId> = region.nodes.hosts().collect();
    let to = hosts
        .into_iter()
        .rev()
        .find(|&h| region.sm.shards_on(APP, h).is_empty())
        .unwrap();
    (shard, from, to)
}

/// A plain copy whose source dies mid-copy leaves the shard only where
/// its failover put it: the target the copy had already handed it drops
/// it when the copy is aborted.
#[test]
fn source_death_mid_plain_copy_leaves_no_ghost_owner() {
    let mut dep = build(16, 4, 100);
    let (shard, from, to) = shard_and_far_target(&dep);
    let now = SimTime::from_secs(100);
    let region = &mut dep.regions[0];
    let cause = MigrationCause::Manual;
    region
        .sm
        .begin_migration(ShardId(shard), to, false, cause, now, &mut region.nodes)
        .unwrap();
    assert!(dep.regions[0].nodes.node(to).unwrap().owns_shard(shard));
    dep.fail_host(0, from, now);
    dep.tick(now + SimDuration::from_hours(1));

    let owner = dep.regions[0].sm.host_of(ShardId(shard)).unwrap();
    assert_ne!(owner, to, "the failover went elsewhere");
    assert_no_ghost_owner(&dep, "plain copy, source dies");
}

/// A graceful migration whose target dies while the source forwards to
/// it ends with the source neither holding nor forwarding the shard.
#[test]
fn target_death_while_forwarding_leaves_no_ghost_owner() {
    let mut dep = build(17, 4, 100);
    let (shard, from, to) = shard_and_far_target(&dep);
    let mut now = SimTime::from_secs(100);
    let region = &mut dep.regions[0];
    let cause = MigrationCause::Manual;
    region
        .sm
        .begin_migration(ShardId(shard), to, true, cause, now, &mut region.nodes)
        .unwrap();
    now = dep.regions[0].sm.active_migration(ShardId(shard)).unwrap().deadline;
    dep.tick(now);
    assert_eq!(dep.regions[0].nodes.node(from).unwrap().is_forwarding(shard), Some(to));
    dep.fail_host(0, to, now);
    dep.tick(now + SimDuration::from_hours(1));

    assert_no_ghost_owner(&dep, "graceful forwarding, target dies");
}

/// A failover that completes after its dead source came back leaves the
/// shard on the failover's target only: the rejoined source, which SM
/// handed the shard again while it was still assigned there, drops it.
#[test]
fn failover_landing_after_source_rejoined_leaves_no_ghost_owner() {
    let mut dep = build(18, 4, 100);
    let (shard, from, _) = shard_and_far_target(&dep);
    let now = SimTime::from_secs(100);
    dep.fail_host(0, from, now);
    let failover = dep.regions[0].sm.active_migration(ShardId(shard)).unwrap();
    let target = failover.to;
    assert!(dep.restore_host(0, from, now));
    assert!(dep.regions[0].nodes.node(from).unwrap().owns_shard(shard));
    dep.tick(now + SimDuration::from_hours(1));

    assert_eq!(dep.regions[0].sm.host_of(ShardId(shard)), Some(target));
    assert_no_ghost_owner(&dep, "failover completes after its source rejoined");
}
