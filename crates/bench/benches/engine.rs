//! Micro-benchmarks of the Cubrick engine hot paths: ingest, the node
//! maintenance passes at rest, the scan and group-by shapes, the
//! coordinator merge, and the column codecs behind adaptive compression. Runs on the in-repo wall-clock runner
//! (`scalewall_bench::microbench`): `cargo bench -p scalewall-bench`
//! times; `cargo test` smoke-runs every body once.
//!
//! Add to the trajectory from the repo root with (the bench binary's cwd
//! is `crates/bench`, hence the absolute path), then prefix the new
//! entries' names with the commit hash before appending them to
//! `BENCH_engine.json`:
//! `cargo bench -p scalewall-bench --bench engine -- --bench --json "$PWD/engine.json"`

use std::sync::Arc;

use cubrick::catalog::RowMapping;
use cubrick::compression::CompressedBrick;
use cubrick::coordinator::{merge_partials, FanoutPlan};
use cubrick::dictionary::Dictionary;
use cubrick::encoding;
use cubrick::node::CubrickNode;
use cubrick::proxy::{CubrickProxy, ProxyConfig};
use cubrick::query::{execute_partition, parse_query};
use cubrick::schema::SchemaBuilder;
use cubrick::sharding::ShardMapping;
use cubrick::store::PartitionData;
use cubrick::value::{Row, Value};
use scalewall_bench::microbench::Bench;
use scalewall_cluster::deployment::{Deployment, DeploymentConfig};
use scalewall_cluster::driver::{run_query, QueryOptions};
use scalewall_cluster::experiment::{Experiment, ExperimentConfig};
use scalewall_cluster::net::{NetModel, NetModelConfig};
use scalewall_cluster::workload::{
    gen_query, gen_rows, standard_schema, TableSpec, WorkloadConfig,
};
use scalewall_shard_manager::{Region, SmConfig};
use scalewall_sim::{SimDuration, SimRng, SimTime};
use scalewall_zk::ZkReplicationConfig;

mod support;

fn schema() -> Arc<cubrick::schema::Schema> {
    Arc::new(
        SchemaBuilder::new()
            .int_dim("ds", 0, 365, 15)
            .str_dim("entity", 10_000, 500)
            .metric("clicks")
            .metric("cost")
            .build()
            .unwrap(),
    )
}

fn sample_rows(n: usize) -> Vec<Row> {
    entity_rows(n, 500)
}

fn entity_rows(n: usize, entities: u64) -> Vec<Row> {
    let mut rng = SimRng::new(7);
    (0..n)
        .map(|_| {
            Row::new(
                vec![
                    Value::Int(rng.below(365) as i64),
                    Value::Str(format!("e{}", rng.below(entities))),
                ],
                vec![rng.below(100) as f64, rng.unit() * 10.0],
            )
        })
        .collect()
}

fn loaded_partition(rows: &[Row]) -> PartitionData {
    let mut p = PartitionData::new(schema());
    for r in rows {
        p.ingest(r).unwrap();
    }
    p
}

fn bench_ingest(c: &mut Bench) {
    let rows = sample_rows(10_000);
    let mut group = c.group("ingest");
    group.throughput(rows.len() as u64);
    group.sample_size(20);
    group.bench_function("rows_10k", |b| {
        b.iter_batched(
            || PartitionData::new(schema()),
            |mut p| {
                for r in &rows {
                    p.ingest(r).unwrap();
                }
                p
            },
        )
    });
}

/// The end-to-end `ingest_pressure` workload's write side at its frozen
/// size (`benchmark/src/workloads/ingest_pressure.rs`): 3×4 hosts at a
/// 1 MB budget, 4 tables × 8 partitions, 40 batches of 5 000 rows into
/// all three regions, a decay and monitor pass on every node after every
/// tenth batch. 96 partitions' dictionaries and bricks do not fit the
/// cache the way `rows_10k`'s one warm partition does; this is the
/// regime the one-table number cannot see.
fn bench_deployment_ingest(c: &mut Bench) {
    let (specs, batches) = ingest_load();
    let mut group = c.group("ingest");
    group.throughput(batches.iter().map(|b| b.len() as u64).sum());
    group.sample_size(10);
    group.bench_function("deployment_40x5k_3_regions", |b| {
        b.iter_batched(
            || ingest_deployment(&specs, 4, 1_000_000),
            |mut dep| {
                for (it, rows) in batches.iter().enumerate() {
                    dep.ingest(&specs[it % specs.len()].name, rows).unwrap();
                    if (it + 1) % 10 == 0 {
                        each_node(&mut dep, |node| {
                            node.decay_pass();
                            node.run_memory_monitor();
                        });
                    }
                }
                dep
            },
        )
    });
}

/// The `ops_churn` workload's setup at its frozen size
/// (`benchmark/src/workloads/ops_churn.rs`): `Experiment::new` of 3×24
/// hosts with a three-replica coordination ensemble a region, 60 tables
/// of 1,500 rows each loaded into all three regions, and its teardown.
/// Mostly the load, so this is the write path on many small tables, where
/// a batch's fixed costs are a large share.
fn bench_experiment_load(c: &mut Bench) {
    let config = ExperimentConfig {
        deployment: DeploymentConfig {
            regions: 3,
            hosts_per_region: 24,
            max_shards: 20_000,
            sm: SmConfig {
                replication: Some(ZkReplicationConfig {
                    replicas: 3,
                    ..Default::default()
                }),
                ..Default::default()
            },
            seed: 7,
            ..Default::default()
        },
        workload: WorkloadConfig {
            tables: 60,
            ..Default::default()
        },
        rows_per_table: 1_500,
        seed: 7,
        ..Default::default()
    };
    let mut group = c.group("ingest");
    group.throughput(60 * 1_500);
    group.sample_size(10);
    group.bench_function("load_60x1500_3_regions", |b| {
        b.iter_batched(|| config.clone(), Experiment::new)
    });
}

/// The tables and batches of `ingest/deployment_40x5k_3_regions`.
fn ingest_load() -> (Vec<TableSpec>, Vec<Vec<Row>>) {
    const TABLES: usize = 4;
    let specs: Vec<TableSpec> = (0..TABLES)
        .map(|i| TableSpec {
            name: format!("ingest_{i}"),
            schema: standard_schema(365),
            target_bytes: 0,
            partitions: 8,
        })
        .collect();
    let mut rng = SimRng::new(11);
    let batches = (0..40)
        .map(|it| gen_rows(&specs[it % TABLES], 5_000, 365, &mut rng))
        .collect();
    (specs, batches)
}

/// Three regions with the load's tables created, empty.
fn ingest_deployment(
    specs: &[TableSpec],
    hosts_per_region: u32,
    host_memory_bytes: u64,
) -> Deployment {
    let mut dep = Deployment::new(DeploymentConfig {
        regions: 3,
        hosts_per_region,
        max_shards: 10_000,
        host_memory_bytes,
        seed: 11,
        ..Default::default()
    });
    for spec in specs {
        dep.create_table(
            &spec.name,
            spec.schema.clone(),
            spec.partitions,
            RowMapping::Hash,
            ShardMapping::Monotonic,
            SimTime::ZERO,
        )
        .unwrap();
    }
    dep
}

fn each_node(dep: &mut Deployment, mut pass: impl FnMut(&mut CubrickNode)) {
    for region in &mut dep.regions {
        let hosts: Vec<_> = region.nodes.hosts().collect();
        for host in hosts {
            pass(region.nodes.node_mut(host).unwrap());
        }
    }
}

/// The maintenance passes in the state the operational experiments keep
/// them in (`ops_churn`, `fig4d`–`fig4f`): the ingest load above on 3×8
/// hosts at the default 8 GiB budget, so no partition is anywhere near
/// its budget and no pass has anything to move (after the first, each
/// monitor pass returns at its node's idle stamp), and a scan or two
/// since the last decay. `decay_pass_mostly_cold_24_nodes` warms every
/// brick of one partition a region, so a pass has no cold brick there to
/// skip; `decay_pass_sparse_warm_72_nodes` is the `ops_churn` fleet, where
/// most bricks of a warm partition are cold. `brick_compression/*` times
/// passes that compress.
fn bench_maintenance(c: &mut Bench) {
    let (specs, batches) = ingest_load();
    let mut dep = ingest_deployment(&specs, 8, 8 << 30);
    for (it, rows) in batches.iter().enumerate() {
        dep.ingest(&specs[it % specs.len()].name, rows).unwrap();
    }
    let dep = std::cell::RefCell::new(dep);
    let mut group = c.group("maintenance");
    group.sample_size(20);
    group.bench_function("monitor_pass_in_band_24_nodes", |b| {
        b.iter(|| {
            let mut moved = (0, 0);
            each_node(&mut dep.borrow_mut(), |node| {
                let (c, d) = node.run_memory_monitor();
                moved = (moved.0 + c, moved.1 + d);
            });
            assert_eq!(moved, (0, 0));
        })
    });
    // One partition in 32 scanned since the last pass, in every region.
    let warm = || {
        for region in &dep.borrow().regions {
            let mut store = region.store.write();
            let data = store.partition_mut(&specs[0].name, 0).unwrap();
            data.for_each_matching_brick(&[None, None], |_| {});
        }
    };
    group.bench_function("decay_pass_mostly_cold_24_nodes", |b| {
        b.iter_batched(warm, |()| {
            each_node(&mut dep.borrow_mut(), |node| node.decay_pass())
        })
    });
    // The `ops_churn` fleet (3×24 hosts, 60 tables) after 36 of its
    // queries, and one more before each pass: most bricks are cold, the
    // warm ones are what the last few dozen queries touched.
    let (fleet, workload, population) = support::ops_churn_fleet();
    let fleet = std::cell::RefCell::new(fleet);
    let net = NetModel::new(NetModelConfig::default());
    let mut proxy = CubrickProxy::new(ProxyConfig::default());
    let mut rng = SimRng::new(14);
    let mut now = SimTime::from_secs(3_600);
    let mut query = || {
        let query = gen_query(population.pick_table(&mut rng), workload.ds_range, &mut rng);
        let opts = QueryOptions {
            execute_data: true,
            client_region: Region(rng.below(3) as u32),
            ..Default::default()
        };
        now += SimDuration::from_secs(60);
        let mut fleet = fleet.borrow_mut();
        run_query(&mut fleet, &mut proxy, &net, &query, &opts, now, &mut rng);
    };
    (0..36).for_each(|_| query());
    group.bench_function("decay_pass_sparse_warm_72_nodes", |b| {
        b.iter_batched(&mut query, |()| {
            each_node(&mut fleet.borrow_mut(), |node| node.decay_pass())
        })
    });
}

/// Dictionary hits as `Deployment::ingest` produced them before it
/// batched: each row's entity looked up in the dictionaries of one
/// partition in each of three regions, the partition changing row by
/// row, so consecutive lookups share nothing. 96 dictionaries of 2 000
/// strings each.
fn bench_dictionary(c: &mut Bench) {
    const PARTITIONS: usize = 32;
    let mut rng = SimRng::new(13);
    let entities: Vec<String> = (0..2_000).map(|i| format!("e{i}")).collect();
    let mut dicts: Vec<Dictionary> = (0..3 * PARTITIONS)
        .map(|_| {
            // First-seen order differs per dictionary, as it does per
            // partition.
            let mut order: Vec<&String> = entities.iter().collect();
            rng.shuffle(&mut order);
            let mut dict = Dictionary::new(10_000);
            for s in order {
                dict.encode("entity", s).unwrap();
            }
            dict
        })
        .collect();
    let rows: Vec<(usize, &String)> = (0..20_000)
        .map(|_| (rng.below(PARTITIONS as u64) as usize, rng.pick(&entities)))
        .collect();
    let mut group = c.group("dictionary");
    group.throughput(3 * rows.len() as u64);
    group.sample_size(20);
    group.bench_function("encode_hit_2k_x96", |b| {
        b.iter(|| {
            let mut sum = 0u64;
            for &(p, s) in &rows {
                for region in 0..3 {
                    sum += dicts[region * PARTITIONS + p].encode("entity", s).unwrap() as u64;
                }
            }
            sum
        })
    });
}

/// The read side, one bench per shape the end-to-end `engine_scan`
/// workload runs (`benchmark/src/workloads/engine_scan.rs`), plus a scan
/// over compressed bricks. Each runs back-to-back on one loaded
/// partition: a scan leaves nothing behind but saturating hotness counts.
fn bench_scan(c: &mut Bench) {
    let rows = sample_rows(50_000);
    let mut hot = loaded_partition(&rows);
    let mut cold = hot.clone();
    cold.run_memory_monitor(&cubrick::hotness::MemoryMonitorConfig {
        budget_bytes: 0,
        ..Default::default()
    });
    let mut group = c.group("scan");
    group.sample_size(20);
    group.throughput(rows.len() as u64);

    let full = "select sum(clicks), count(*) from t";
    let shapes = [
        ("full_50k", full),
        // A narrow ds window touches ~1/24 of the bricks.
        (
            "pruned_50k",
            "select sum(clicks), count(*) from t where ds between 100 and 110",
        ),
        // One entity of 500: every brick survives pruning, 1 row in 500
        // survives the residual filter.
        (
            "filtered_50k",
            "select sum(cost), count(*) from t where entity = 'e7'",
        ),
        (
            "group_ds_50k",
            "select sum(clicks), count(*) from t group by ds",
        ),
        ("group_entity_50k", GROUP_BY_ENTITY),
    ];
    for (name, sql) in shapes {
        let query = parse_query(sql).unwrap();
        group.bench_function(name, |b| {
            b.iter(|| execute_partition(&mut hot, &query, 8).unwrap())
        });
    }
    let query = parse_query(full).unwrap();
    group.bench_function("cold_full_50k", |b| {
        b.iter(|| execute_partition(&mut cold, &query, 8).unwrap())
    });

    // One `engine_scan` partition: 7.5 rows a group, not `group_entity_50k`'s
    // 100, so building the partial is not hidden behind the scan.
    let rows = entity_rows(15_000, 2_000);
    let mut wide = loaded_partition(&rows);
    let query = parse_query(GROUP_BY_ENTITY).unwrap();
    group.throughput(rows.len() as u64);
    group.bench_function("group_entity_15k_x2k", |b| {
        b.iter(|| execute_partition(&mut wide, &query, 8).unwrap())
    });

    // The dense path's worst case: a key domain at its limit (2^16 keys,
    // `DENSE_KEY_DOMAIN` in `query::exec`) over 200 rows, so the columns
    // sized to the domain before the scan dwarf the rows folded into them.
    let keyed = Arc::new(
        SchemaBuilder::new()
            .int_dim("k", 0, 1 << 16, 1 << 12)
            .metric("clicks")
            .metric("cost")
            .build()
            .unwrap(),
    );
    let mut small = PartitionData::new(keyed);
    let mut rng = SimRng::new(19);
    for _ in 0..200 {
        let key = vec![Value::Int(rng.below(1 << 16) as i64)];
        small
            .ingest(&Row::new(key, vec![rng.below(100) as f64, rng.unit()]))
            .unwrap();
    }
    let query = parse_query("select sum(clicks), avg(cost) from t group by k").unwrap();
    group.throughput(200);
    group.bench_function("group_wide_domain_small", |b| {
        b.iter(|| execute_partition(&mut small, &query, 8).unwrap())
    });
}

const GROUP_BY_ENTITY: &str = "select sum(clicks), avg(cost) from t group by entity";

/// The coordinator's merge (and `finalize`) of one `group by entity`
/// partial per partition, nearly every entity in every partition: the
/// original 8 × 500 groups, `engine_scan`'s 8 × 2 000, and the wall's
/// fan-out of 64 at 250 groups.
fn bench_merge(c: &mut Bench) {
    let query = parse_query(GROUP_BY_ENTITY).unwrap();
    let mut group = c.group("merge");
    group.sample_size(20);
    for (name, partitions, entities, rows) in [
        ("partials_8x500_groups", 8, 500, 50_000),
        ("partials_8x2k_groups", 8, 2_000, 120_000),
        ("partials_64x250_groups", 64, 250, 128_000),
    ] {
        let rows = entity_rows(rows, entities);
        let partials: Vec<_> = rows
            .chunks(rows.len() / partitions)
            .map(|chunk| execute_partition(&mut loaded_partition(chunk), &query, 8).unwrap())
            .collect();
        let plan = FanoutPlan::for_table("t", partitions as u32);
        group.bench_function(name, |b| {
            b.iter_batched(
                || partials.clone(),
                |owned| merge_partials(&plan, owned).unwrap(),
            )
        });
    }
}

fn bench_codecs(c: &mut Bench) {
    let mut rng = SimRng::new(3);
    let small_domain: Vec<u32> = (0..65_536).map(|_| rng.below(16) as u32).collect();
    let monotonic: Vec<u32> = (0..65_536).collect();
    let metrics: Vec<f64> = (0..65_536).map(|i| (i / 7) as f64).collect();

    let mut group = c.group("codecs");
    group.sample_size(20);
    group.throughput(65_536);
    group.bench_function("u32_auto_small_domain", |b| {
        b.iter(|| encoding::encode_u32_auto(&small_domain))
    });
    group.bench_function("u32_auto_monotonic", |b| {
        b.iter(|| encoding::encode_u32_auto(&monotonic))
    });
    let encoded = encoding::encode_u32_auto(&small_domain);
    group.bench_function("u32_decode", |b| b.iter(|| encoding::decode_u32(&encoded)));
    group.bench_function("f64_xor_encode", |b| {
        b.iter(|| encoding::encode_f64(&metrics))
    });
    let encoded_f = encoding::encode_f64(&metrics);
    group.bench_function("f64_xor_decode", |b| {
        b.iter(|| encoding::decode_f64(&encoded_f))
    });

    // What the memory monitor under `ingest_pressure` compresses: one
    // partition of `gen_rows` data, 96 bricks of 48 rows on average
    // (`ds` and `entity` ordinals, random `clicks` and `cost`).
    let spec = TableSpec {
        name: String::new(),
        schema: standard_schema(365),
        target_bytes: 0,
        partitions: 1,
    };
    let mut partition = PartitionData::new(spec.schema.clone());
    let rows = gen_rows(&spec, 4_608, 365, &mut SimRng::new(23));
    partition
        .ingest_batch(&rows.iter().collect::<Vec<_>>())
        .unwrap();
    let mut bricks = Vec::new();
    partition.for_each_matching_brick(&[None, None], |brick| bricks.push(brick.clone()));
    let compressed: Vec<CompressedBrick> = bricks
        .iter()
        .cloned()
        .map(CompressedBrick::compress)
        .collect();
    group.throughput(rows.len() as u64);
    group.bench_function("brick_columns_compress", |b| {
        b.iter_batched(
            || bricks.clone(),
            |bricks| {
                bricks
                    .into_iter()
                    .map(CompressedBrick::compress)
                    .collect::<Vec<_>>()
            },
        )
    });
    group.bench_function("brick_columns_decompress", |b| {
        b.iter(|| {
            compressed
                .iter()
                .map(CompressedBrick::decompress)
                .collect::<Vec<_>>()
        })
    });
}

fn bench_brick_compression(c: &mut Bench) {
    let rows = sample_rows(20_000);
    let partition = loaded_partition(&rows);
    // Extract one representative brick through a clone of the partition's
    // data by compressing everything and measuring one round trip.
    let mut group = c.group("brick_compression");
    group.sample_size(10);
    group.bench_function("partition_20k_compress_all", |b| {
        b.iter_batched(
            || partition.clone(),
            |mut p| {
                let config = cubrick::hotness::MemoryMonitorConfig {
                    budget_bytes: 0,
                    ..Default::default()
                };
                p.run_memory_monitor(&config)
            },
        )
    });
    // What a monitor pass under ingest pressure mostly does: recompress
    // small bricks that one appended row re-heated. 100 bricks of ~64
    // rows, all compressed, then ~10 more rows each.
    let mut rng = SimRng::new(17);
    let small_brick_rows = |n: usize, rng: &mut SimRng| -> Vec<Row> {
        gen_rows(
            &TableSpec {
                name: String::new(),
                schema: standard_schema(365),
                target_bytes: 0,
                partitions: 1,
            },
            n,
            365,
            rng,
        )
    };
    let squeeze = cubrick::hotness::MemoryMonitorConfig {
        budget_bytes: 0,
        ..Default::default()
    };
    let mut reheated = PartitionData::new(standard_schema(365));
    for r in &small_brick_rows(6_400, &mut rng) {
        reheated.ingest(r).unwrap();
    }
    reheated.run_memory_monitor(&squeeze);
    for r in &small_brick_rows(1_000, &mut rng) {
        reheated.ingest(r).unwrap();
    }
    group.bench_function("recompress_64_row_bricks", |b| {
        b.iter_batched(|| reheated.clone(), |mut p| p.run_memory_monitor(&squeeze))
    });
    // One explicit brick round trip for reference.
    let mut brick = cubrick::brick::Brick::new(2, 2);
    let mut rng = SimRng::new(9);
    for _ in 0..8_192 {
        brick.push(&[rng.below(24) as u32, rng.below(20) as u32], &[1.0, 2.0]);
    }
    let mut group = c.group("brick_roundtrip");
    group.sample_size(20);
    group.throughput(8_192);
    group.bench_function("compress_8k_rows", |b| {
        b.iter(|| CompressedBrick::compress(brick.clone()))
    });
    let compressed = CompressedBrick::compress(brick);
    group.bench_function("decompress_8k_rows", |b| b.iter(|| compressed.decompress()));
}

fn main() {
    let mut bench = Bench::from_args();
    bench_ingest(&mut bench);
    bench_deployment_ingest(&mut bench);
    bench_experiment_load(&mut bench);
    bench_maintenance(&mut bench);
    bench_dictionary(&mut bench);
    bench_scan(&mut bench);
    bench_merge(&mut bench);
    bench_codecs(&mut bench);
    bench_brick_compression(&mut bench);
    bench.finish();
}
