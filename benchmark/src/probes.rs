//! Per-layer probes: fixed-count calls into one layer's public function
//! on a workload's built state. A probe's cost times the number of times
//! the timed region calls that function estimates the layer's share of
//! the region. These are estimates from outside the program; spans
//! inside it (`sim::obs`, a later issue) replace them.

use std::hint::black_box;
use std::time::Instant;

use cubrick::admission::{AdmissionConfig, AdmissionController, QosClass};
use cubrick::brick::Brick;
use cubrick::compression::CompressedBrick;
use cubrick::coordinator::{merge_partials, FanoutPlan};
use cubrick::hotness::MemoryMonitorConfig;
use cubrick::proxy::{CoordinatorStrategy, CubrickProxy, ProxyConfig};
use cubrick::query::{execute_partition, Query};
use cubrick::store::PartitionData;
use cubrick::value::Row;
use scalewall_cluster::deployment::{Deployment, APP};
use scalewall_cluster::net::NetModel;
use scalewall_cluster::traffic::{TrafficConfig, TrafficModel};
use scalewall_shard_manager::balancer::propose_rebalance;
use scalewall_shard_manager::placement::{rank_candidates, HostSnapshot};
use scalewall_shard_manager::{HostId, ShardId, SpreadDomain};
use scalewall_sim::{EventQueue, Histogram, SimDuration, SimRng, SimTime};

use crate::clock::{correction, spin_s};
use crate::spec::EXECUTE_PARTITION_PROBES;
use crate::workloads::ProbeSample;

const BATCHES: usize = 5;

/// Median over `BATCHES` batches of host ns per call of `f`, each batch
/// `iters` calls, corrected for the core's speed while they ran.
pub fn time_ns(iters: u64, mut f: impl FnMut()) -> f64 {
    let before = spin_s();
    let mut per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    per_call.sort_by(f64::total_cmp);
    per_call[BATCHES / 2] * correction(before, spin_s())
}

fn sample(name: &'static str, ns: f64) -> ProbeSample {
    ProbeSample { name, ns }
}

/// The query path's plumbing, per sub-query or per query: discovery,
/// the network model, proxy choices, catalog lookup, shard mapping, the
/// event kernel and the latency histogram.
pub fn plumbing(dep: &Deployment, net: &NetModel, table: &str, seed: u64) -> Vec<ProbeSample> {
    let mut out = Vec::new();
    let now = SimTime::from_secs(3_600);
    let def = dep.catalog.read().get(table).expect("probe table").clone();
    let max_shards = dep.catalog.read().max_shards();
    let shards: Vec<u64> = (0..def.partitions)
        .map(|p| def.shard_of(p, max_shards))
        .collect();
    let region = &dep.regions[0];

    let mut i = 0usize;
    out.push(sample(
        "discovery.resolve",
        time_ns(200_000, || {
            i = (i + 1) % shards.len();
            black_box(region.resolved_host(shards[i], now));
        }),
    ));

    let mut rng = SimRng::new(seed);
    out.push(sample(
        "cluster.net.server_response",
        time_ns(200_000, || {
            black_box(net.server_response(&mut rng));
        }),
    ));

    let mut proxy = CubrickProxy::new(ProxyConfig::default());
    proxy.record_result_metadata(table, def.partitions);
    let flags: Vec<_> = dep
        .regions
        .iter()
        .map(|r| (r.region, r.available))
        .collect();
    let client = dep.regions[0].region;
    out.push(sample(
        "cubrick.proxy.choose",
        time_ns(200_000, || {
            black_box(proxy.choose_region(&flags, client, &[]).is_ok());
            black_box(proxy.choose_coordinator(
                table,
                CoordinatorStrategy::CachedRandom,
                def.partitions,
                &mut rng,
            ));
        }),
    ));

    // The driver clones the definition out of the catalog on every
    // lookup; the probe pays the same.
    out.push(sample(
        "cubrick.catalog.get",
        time_ns(200_000, || {
            black_box(dep.catalog.read().get(table).cloned().is_ok());
        }),
    ));

    let mut p = 0u32;
    out.push(sample(
        "cubrick.sharding.shard_of",
        time_ns(200_000, || {
            p = (p + 1) % def.partitions;
            black_box(def.shard_of(p, max_shards));
        }),
    ));

    // Bulk-schedule then drain, the shape `run_query_series` drives.
    const EVENTS: u64 = 100_000;
    out.push(sample(
        "sim.event.schedule_pop",
        time_ns(1, || {
            let mut q: EventQueue<()> = EventQueue::new();
            for e in 0..EVENTS {
                q.schedule_at(SimTime::from_nanos(3_600_000_000_000 + e * 500_000_000), ());
            }
            while let Some(ev) = q.pop() {
                black_box(ev.time);
            }
        }) / EVENTS as f64,
    ));

    let mut hist = Histogram::latency_ms();
    out.push(sample(
        "sim.stats.histogram_record",
        time_ns(200_000, || hist.record(rng.unit() * 1_000.0)),
    ));
    out
}

/// The engine's read side on one loaded partition: each query shape
/// through `execute_partition` (reported per stored row), and the
/// coordinator merge of one partial per partition.
pub fn engine(dep: &Deployment, table: &str, shapes: &[Query; 5]) -> Vec<ProbeSample> {
    let partitions = dep
        .catalog
        .read()
        .get(table)
        .expect("probe table")
        .partitions;
    let mut out = Vec::new();
    let mut store = dep.regions[0].store.write();
    let rows = store
        .partition(table, 0)
        .map_or(0, PartitionData::rows)
        .max(1);
    for (name, query) in EXECUTE_PARTITION_PROBES.into_iter().zip(shapes) {
        let part = store.partition_mut(table, 0).expect("loaded partition");
        let ns = time_ns(3, || {
            black_box(execute_partition(part, query, partitions).is_ok());
        });
        out.push(sample(name, ns / rows as f64));
    }
    // Merge cost is dominated by group count: use the widest shape.
    let plan = FanoutPlan::for_table(table, partitions);
    let partials: Vec<_> = (0..partitions)
        .map(|p| {
            let part = store.partition_mut(table, p).expect("loaded partition");
            execute_partition(part, &shapes[3], partitions).expect("probe query")
        })
        .collect();
    // The coordinator consumes its partials: one clone per batch, made
    // before the clock starts.
    let mut inputs: Vec<_> = (0..BATCHES).map(|_| partials.clone()).collect();
    out.push(sample(
        "cubrick.coordinator.merge_partials",
        time_ns(1, || {
            let input = inputs.pop().expect("one input per batch");
            black_box(merge_partials(&plan, input).is_ok());
        }),
    ));
    out
}

/// Every brick of a partition, cloned out through the public scan hook.
fn bricks_of(part: &mut PartitionData) -> Vec<Brick> {
    let unconstrained = vec![None; part.schema().dimensions.len()];
    let mut bricks = Vec::new();
    part.for_each_matching_brick(&unconstrained, |b| bricks.push(b.clone()));
    bricks
}

/// The engine's write and memory side on one partition's rows: row
/// ingest, brick compression and decompression, and the monitor and
/// decay passes when they have nothing to move.
pub fn storage(dep: &Deployment, table: &str, rows: &[Row], seed: u64) -> Vec<ProbeSample> {
    let schema = dep
        .catalog
        .read()
        .get(table)
        .expect("probe table")
        .schema
        .clone();
    let mut out = Vec::new();
    let mut loaded = PartitionData::new(schema.clone());
    let ns = time_ns(1, || {
        loaded = PartitionData::new(schema.clone());
        for row in rows {
            black_box(loaded.ingest(row).is_ok());
        }
    });
    out.push(sample(
        "cubrick.store.ingest",
        ns / rows.len().max(1) as f64,
    ));

    let bricks = bricks_of(&mut loaded.clone());
    let n = bricks.len().max(1) as f64;
    let mut compressed = Vec::new();
    let ns = time_ns(1, || {
        compressed = bricks
            .iter()
            .cloned()
            .map(CompressedBrick::compress)
            .collect();
    });
    out.push(sample("cubrick.compression.compress", ns / n));
    let ns = time_ns(1, || {
        for c in &compressed {
            black_box(c.decompress().rows());
        }
    });
    out.push(sample("cubrick.compression.decompress", ns / n));

    // All bricks hot and the budget unbounded: the pass scans and plans
    // but moves nothing, so compression is not counted twice.
    let idle = MemoryMonitorConfig {
        budget_bytes: u64::MAX,
        ..Default::default()
    };
    out.push(sample(
        "cubrick.store.run_memory_monitor",
        time_ns(20, || {
            black_box(loaded.run_memory_monitor(&idle));
        }),
    ));
    let mut rng = SimRng::new(seed);
    out.push(sample(
        "cubrick.store.decay_pass",
        time_ns(20, || loaded.decay_pass(idle.decay_probability, &mut rng)),
    ));
    out
}

/// The control plane on a loaded deployment: the per-event tick (net of
/// the coordination commits inside it), SM metric collection and load
/// balancing (net of the balancer proposal inside it), placement
/// ranking, and the coordination plane's commit and lease tick.
pub fn control(dep: &mut Deployment) -> Vec<ProbeSample> {
    let mut out = Vec::new();
    let mut now = SimTime::from_secs(3_600);
    let mut step = || {
        now += SimDuration::from_secs(1);
        now
    };

    let regions = dep.regions.len() as f64;
    let hosts: f64 = dep.regions.iter().map(|r| r.nodes.len() as f64).sum();
    let region = &mut dep.regions[0];
    let replicated = region.sm.coordination().is_replicated();
    let (commit_ns, plane_tick_ns) = if replicated {
        let t = step();
        let session = region
            .sm
            .coordination_mut()
            .create_session(t)
            .expect("healthy coordination plane");
        let commit = time_ns(2_000, || {
            let t = step();
            black_box(region.sm.coordination_mut().refresh_session(session, t));
        });
        let tick = time_ns(2_000, || {
            let t = step();
            black_box(region.sm.coordination_mut().tick(t));
        });
        (commit, tick)
    } else {
        (0.0, 0.0)
    };
    out.push(sample("zk.ensemble.commit", commit_ns));
    out.push(sample("zk.plane.tick", plane_tick_ns));

    let snapshots: Vec<HostSnapshot> = region
        .sm
        .host_ids()
        .filter_map(|h| {
            Some(HostSnapshot {
                info: *region.sm.host_info(h)?,
                state: region.sm.host_state(h)?,
                load: region.sm.host_load(h),
            })
        })
        .collect();
    let locations: Vec<(ShardId, HostId, f64)> = snapshots
        .iter()
        .flat_map(|s| {
            region
                .sm
                .shards_on(APP, s.info.id)
                .into_iter()
                .map(move |shard| (shard, s.info.id, 1.0))
        })
        .collect();
    let balancer = dep.config.balancer;
    let propose_ns = time_ns(20, || {
        black_box(propose_rebalance(&snapshots, &locations, &balancer));
    });
    out.push(sample("sm.balancer.propose_rebalance", propose_ns));
    out.push(sample(
        "sm.placement.rank_candidates",
        time_ns(200, || {
            black_box(rank_candidates(
                &snapshots,
                1.0,
                0.9,
                SpreadDomain::Host,
                &[],
                &[],
            ));
        }),
    ));

    // One heartbeat commit per host plus an expiry and a drain commit
    // per region ride inside every tick; report the tick net of them.
    let tick_ns = time_ns(200, || {
        let t = step();
        dep.tick(t);
    });
    let inside = commit_ns * (hosts + 2.0 * regions) + plane_tick_ns * regions;
    out.push(sample(
        "cluster.deployment.tick",
        (tick_ns - inside).max(0.0),
    ));

    out.push(sample(
        "sm.server.collect_metrics",
        time_ns(20, || dep.collect_metrics()),
    ));
    let lb_ns = time_ns(20, || {
        let t = step();
        black_box(dep.run_load_balancers(t));
    });
    out.push(sample(
        "sm.server.run_load_balancer",
        (lb_ns - propose_ns * regions).max(0.0),
    ));
    out
}

/// The admission plane: one admitted query through the classful
/// controller, and one draw from the arrival process.
pub fn admission(config: AdmissionConfig, traffic: &TrafficConfig, seed: u64) -> Vec<ProbeSample> {
    let mut ctl = AdmissionController::new(config);
    let now = SimTime::from_secs(1);
    let offer = time_ns(200_000, || {
        black_box(ctl.offer(QosClass::Interactive, now));
        ctl.complete(QosClass::Interactive);
    });
    let mut rng = SimRng::new(seed);
    let model = TrafficModel::new(traffic.clone(), 1, &mut rng);
    let mut t = SimTime::ZERO;
    let arrival = time_ns(200_000, || {
        t = t + model.next_arrival(t, &mut rng);
    });
    vec![
        sample("cubrick.admission.offer_complete", offer),
        sample("cluster.traffic.next_arrival", arrival),
    ]
}
