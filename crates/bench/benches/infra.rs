//! Micro-benchmarks of the infrastructure hot paths: shard mapping, SM
//! placement/balancing, the metric poll and table creation, discovery
//! resolution and the cached route, one whole no-data query (one wide
//! table, and the QoS loop's shape over 240 narrow ones), the idle
//! deployment tick, the event queue, and latency histograms. Runs on the in-repo wall-clock runner
//! (`scalewall_bench::microbench`): `cargo bench -p scalewall-bench`
//! times; `cargo test` smoke-runs every body once.
//!
//! Add to the trajectory from the repo root with (the bench binary's cwd
//! is `crates/bench`, hence the absolute path), then prefix the new
//! entries' names with the PR label before appending them to
//! `BENCH_infra.json`:
//! `cargo bench -p scalewall-bench --bench infra -- --bench --json "$PWD/infra.json"`

use cubrick::catalog::RowMapping;
use cubrick::proxy::{CoordinatorStrategy, CubrickProxy, ProxyConfig};
use cubrick::query::Query;
use cubrick::sharding::ShardMapping;
use scalewall_bench::microbench::Bench;
use scalewall_cluster::deployment::{Deployment, DeploymentConfig, RegionState};
use scalewall_cluster::driver::{run_query, QueryOptions};
use scalewall_cluster::net::{NetModel, NetModelConfig};
use scalewall_cluster::workload::{gen_rows, standard_schema};
use scalewall_discovery::{DelayModel, DiscoveryClient, MappingStore, Route, DELAY_SEED};
use scalewall_shard_manager::balancer::propose_rebalance;
use scalewall_shard_manager::placement::{rank_candidates, HostSnapshot};
use scalewall_shard_manager::{
    BalancerConfig, HostId, HostInfo, HostState, Rack, Region, ShardId, SpreadDomain,
};
use scalewall_sim::{EventQueue, Histogram, SimDuration, SimRng, SimTime};

mod support;

fn bench_shard_mapping(c: &mut Bench) {
    let mut group = c.group("shard_mapping");
    group.throughput(1);
    group.bench_function("monotonic_shard_of", |b| {
        let mut p = 0u32;
        b.iter(|| {
            p = (p + 1) % 64;
            ShardMapping::Monotonic.shard_of("ad_events_daily", p, 100_000)
        })
    });
    group.bench_function("naive_shard_of", |b| {
        let mut p = 0u32;
        b.iter(|| {
            p = (p + 1) % 64;
            ShardMapping::Naive.shard_of("ad_events_daily", p, 100_000)
        })
    });
}

fn snapshots(n: u64) -> Vec<HostSnapshot> {
    let mut rng = SimRng::new(5);
    (0..n)
        .map(|i| HostSnapshot {
            info: HostInfo::new(HostId(i), Rack((i % 40) as u32), Region(0), 1_000.0),
            state: HostState::Alive,
            load: rng.unit() * 500.0,
        })
        .collect()
}

fn bench_placement(c: &mut Bench) {
    let hosts = snapshots(1_000);
    let mut group = c.group("placement");
    group.sample_size(20);
    group.bench_function("rank_1k_hosts", |b| {
        b.iter(|| rank_candidates(&hosts, 10.0, 0.9, SpreadDomain::Host, &[], &[]))
    });
}

fn bench_balancer(c: &mut Bench) {
    let hosts = snapshots(200);
    let mut rng = SimRng::new(6);
    let locations: Vec<(ShardId, HostId, f64)> = (0..5_000)
        .map(|i| (ShardId(i), HostId(rng.below(200)), 1.0 + rng.unit() * 20.0))
        .collect();
    let config = BalancerConfig::default();
    let mut group = c.group("balancer");
    group.sample_size(10);
    group.bench_function("propose_200_hosts_5k_shards", |b| {
        b.iter(|| propose_rebalance(&hosts, &locations, &config))
    });
}

/// One `Deployment::collect_metrics` over the `ops_churn` fleet: 3×24
/// hosts, 60 tables of 1,500 rows, the default gen-2 metric. In steady
/// state no host's metrics stamp moves between polls, so none is read;
/// `_after_ingest` lands one row before each poll, which moves every
/// stamp, so every serving host reports every shard it owns.
/// `load_balancer_pass_balanced_72_hosts` is one `run_load_balancers`
/// over the same fleet after a poll: every region is within tolerance,
/// so each pass ends at its balance test and starts nothing.
fn bench_collect_metrics(c: &mut Bench) {
    let (mut dep, workload, population) = support::ops_churn_fleet();
    let mut group = c.group("sm");
    group.sample_size(20);
    group.bench_function("collect_metrics_72_hosts", |b| {
        b.iter(|| dep.collect_metrics())
    });
    let tolerance = BalancerConfig::default().imbalance_tolerance;
    let balanced = |r: &RegionState| r.sm.fleet_stats().imbalance() <= 1.0 + tolerance;
    assert!(dep.regions.iter().all(balanced));
    group.bench_function("load_balancer_pass_balanced_72_hosts", |b| {
        b.iter(|| dep.run_load_balancers(SimTime::from_secs(60)))
    });
    let table = &population.tables[0];
    let row = gen_rows(table, 1, workload.ds_range, &mut SimRng::new(13));
    let dep = std::cell::RefCell::new(dep);
    group.bench_function("collect_metrics_72_hosts_after_ingest", |b| {
        b.iter_batched(
            || dep.borrow_mut().ingest(&table.name, &row).expect("load"),
            |()| dep.borrow_mut().collect_metrics(),
        )
    });
}

fn bench_discovery(c: &mut Bench) {
    let mut store = MappingStore::new();
    for s in 0..10_000u64 {
        store.publish(s, Some(s % 500), SimTime::ZERO);
    }
    let client = DiscoveryClient::new(DelayModel::new(DELAY_SEED), 42);
    let now = SimTime::from_secs(3_600);
    let mut group = c.group("discovery");
    group.throughput(1);
    group.bench_function("resolve", |b| {
        let mut s = 0u64;
        b.iter(|| {
            s = (s + 1) % 10_000;
            client.resolve(&store, s, now).and_then(|u| u.host)
        })
    });

    // One table's 64 consecutive shards, as the monotonic mapping lays
    // them out.
    let mut route = Route::default();
    route.reset_shards().extend(5_000..5_064);
    client.route(&store, &mut route, now);
    group.bench_function("route_hit_fanout64", |b| {
        b.iter(|| client.route(&store, &mut route, now))
    });

    // A second update per shard, then `now` alternating between before
    // any of them is visible and after all are: every lookup falls outside
    // the window the previous one filled and re-resolves 64 two-entry
    // histories, one delay sample each (what the single-key resolve above
    // paid per call before PR 16).
    let republished = SimTime::from_secs(7_200);
    for s in 5_000..5_064u64 {
        store.publish(s, Some(s % 499), republished);
    }
    let sides = [now, republished + SimDuration::from_hours(1)];
    group.bench_function("route_refill_fanout64", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i ^= 1;
            client.route(&store, &mut route, sides[i])
        })
    });
}

/// One `count(*)` over a 64-partition table with no data behind it: the
/// whole query path's plumbing and none of the engine (the per-query
/// shape of fig5 and of `fanout_sweep`).
fn bench_driver(c: &mut Bench) {
    let mut dep = Deployment::new(DeploymentConfig {
        regions: 3,
        hosts_per_region: 128,
        racks_per_region: 8,
        ..Default::default()
    });
    dep.create_table(
        "fanout_64",
        standard_schema(365),
        64,
        RowMapping::Hash,
        ShardMapping::Monotonic,
        SimTime::ZERO,
    )
    .expect("fresh table");
    let net = NetModel::new(NetModelConfig::default());
    let mut proxy = CubrickProxy::new(ProxyConfig::default());
    let mut rng = SimRng::new(16);
    let query = Query::count_star("fanout_64");
    let opts = QueryOptions {
        execute_data: false,
        ..Default::default()
    };
    let mut group = c.group("driver");
    group.throughput(1);
    group.bench_function("run_query_fanout64_nodata", |b| {
        let mut now = SimTime::from_secs(3_600);
        b.iter(|| {
            now += SimDuration::from_millis(500);
            run_query(&mut dep, &mut proxy, &net, &query, &opts, now, &mut rng).success
        })
    });
}

/// The `qos_overload` shape: 240 eight-partition tables over 3 regions ×
/// 4 hosts, so every host owns ~480 shards and neither a node's `owned`
/// map nor the proxy's per-table maps stay in cache from one query to the
/// next — what `run_query_fanout64_nodata`'s single table hides.
fn qos_shaped_deployment() -> (Deployment, Vec<Query>) {
    let mut dep = Deployment::new(DeploymentConfig {
        regions: 3,
        hosts_per_region: 4,
        max_shards: 5_000,
        ..Default::default()
    });
    let queries = create_tables(&mut dep, 240);
    (dep, queries)
}

/// `n` eight-partition tables `tenant_000`, … of the standard schema, no
/// data, and a `count(*)` of each.
fn create_tables(dep: &mut Deployment, n: usize) -> Vec<Query> {
    let schema = standard_schema(365);
    (0..n)
        .map(|i| {
            let name = format!("tenant_{i:03}");
            dep.create_table(
                &name,
                schema.clone(),
                8,
                RowMapping::Hash,
                ShardMapping::Monotonic,
                SimTime::ZERO,
            )
            .expect("fresh table");
            Query::count_star(&name)
        })
        .collect()
}

/// Table creation, which places every partition in every region under
/// its table's anti-affinity group: the `qos_overload` setup's shape
/// without ingest, `fanout_sweep`'s seven tables of fan-out 1 to 64 over
/// 3 regions × 400 hosts, and 1,000 tables over 3 regions × 140 hosts,
/// the paper's fleet scale (one creation a sample, ten samples).
fn bench_create_tables(c: &mut Bench) {
    let mut group = c.group("sm");
    group.bench_function("create_7_tables_3x400_hosts", |b| {
        b.iter(|| {
            let mut dep = Deployment::new(DeploymentConfig {
                regions: 3,
                hosts_per_region: 400,
                racks_per_region: 8,
                max_shards: 100_000,
                ..Default::default()
            });
            for fanout in [1, 2, 4, 8, 16, 32, 64] {
                dep.create_table(
                    &format!("fanout_{fanout}"),
                    standard_schema(365),
                    fanout,
                    RowMapping::Hash,
                    ShardMapping::Monotonic,
                    SimTime::ZERO,
                )
                .expect("fresh table");
            }
            dep
        })
    });
    group.bench_function("create_240x8_tables_3x4_hosts", |b| {
        b.iter(qos_shaped_deployment)
    });
    group.sample_size(10);
    group.bench_function("create_1000_tables_3x140_hosts", |b| {
        b.iter(|| {
            let mut dep = Deployment::new(DeploymentConfig {
                regions: 3,
                hosts_per_region: 140,
                ..Default::default()
            });
            create_tables(&mut dep, 1_000);
            dep
        })
    });
}

/// One admitted QoS query as the experiment loop issues it (two-choice
/// coordinator, typed partial results, a per-shard deadline, no data),
/// over the tables in turn; and one idle `Deployment::tick`, which that
/// loop pays per event.
fn bench_qos_loop(c: &mut Bench) {
    let (mut dep, queries) = qos_shaped_deployment();
    let net = NetModel::new(NetModelConfig::default());
    let mut proxy = CubrickProxy::new(ProxyConfig::default());
    let mut rng = SimRng::new(24);
    let opts = QueryOptions {
        strategy: CoordinatorStrategy::QueueAwareTwoChoice,
        execute_data: false,
        partial_results: true,
        shard_timeout: Some(SimDuration::from_secs(1)),
        ..Default::default()
    };
    let mut now = SimTime::from_secs(3_600);
    let mut group = c.group("driver");
    group.throughput(1);
    let mut next = 0usize;
    group.bench_function("run_query_qos_fanout8_240_tables_nodata", |b| {
        b.iter(|| {
            now += SimDuration::from_millis(100);
            // A stride coprime to 240: every table, none twice in a row.
            next = (next + 77) % queries.len();
            run_query(
                &mut dep,
                &mut proxy,
                &net,
                &queries[next],
                &opts,
                now,
                &mut rng,
            )
            .success
        })
    });

    let mut group = c.group("deployment");
    group.throughput(1);
    group.bench_function("tick_3_regions_idle", |b| {
        b.iter(|| {
            now += SimDuration::from_millis(100);
            dep.tick(now);
        })
    });
}

fn bench_event_queue(c: &mut Bench) {
    let mut group = c.group("event_queue");
    group.sample_size(20);
    group.throughput(10_000);
    group.bench_function("schedule_pop_10k", |b| {
        b.iter(|| {
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut rng = SimRng::new(8);
            for i in 0..10_000u64 {
                q.schedule_at(SimTime::from_nanos(rng.next_u64() % 1_000_000_000), i);
            }
            let mut sum = 0u64;
            while let Some(ev) = q.pop() {
                sum = sum.wrapping_add(ev.payload);
            }
            sum
        })
    });
}

fn bench_histogram(c: &mut Bench) {
    let mut group = c.group("histogram");
    group.throughput(1);
    group.bench_function("record", |b| {
        let mut h = Histogram::latency_ms();
        let mut rng = SimRng::new(9);
        b.iter(|| h.record(rng.unit() * 1_000.0))
    });
    let mut h = Histogram::latency_ms();
    let mut rng = SimRng::new(10);
    for _ in 0..100_000 {
        h.record(rng.unit() * 1_000.0);
    }
    group.bench_function("quantile", |b| b.iter(|| h.quantile(0.999)));
}

fn main() {
    let mut bench = Bench::from_args();
    bench_shard_mapping(&mut bench);
    bench_placement(&mut bench);
    bench_balancer(&mut bench);
    bench_collect_metrics(&mut bench);
    bench_create_tables(&mut bench);
    bench_discovery(&mut bench);
    bench_driver(&mut bench);
    bench_qos_loop(&mut bench);
    bench_event_queue(&mut bench);
    bench_histogram(&mut bench);
    bench.finish();
}
