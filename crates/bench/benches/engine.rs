//! Micro-benchmarks of the Cubrick engine hot paths: ingest, the scan and
//! group-by shapes, the coordinator merge, and the column codecs behind
//! adaptive compression. Runs on the in-repo wall-clock runner
//! (`scalewall_bench::microbench`): `cargo bench -p scalewall-bench`
//! times; `cargo test` smoke-runs every body once.

use std::sync::Arc;

use cubrick::compression::CompressedBrick;
use cubrick::coordinator::{merge_partials, FanoutPlan};
use cubrick::encoding;
use cubrick::query::{execute_partition, parse_query};
use cubrick::schema::SchemaBuilder;
use cubrick::store::PartitionData;
use cubrick::value::{Row, Value};
use scalewall_bench::microbench::Bench;
use scalewall_sim::SimRng;

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
    let mut rng = SimRng::new(7);
    (0..n)
        .map(|_| {
            Row::new(
                vec![
                    Value::Int(rng.below(365) as i64),
                    Value::Str(format!("e{}", rng.below(500))),
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
    group.finish();
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
        (
            "group_entity_50k",
            "select sum(clicks), avg(cost) from t group by entity",
        ),
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
    group.finish();
}

/// The coordinator's merge of one `group by entity` partial (500 groups)
/// per partition of an 8-partition table.
fn bench_merge(c: &mut Bench) {
    let rows = sample_rows(50_000);
    let query = parse_query("select sum(clicks), avg(cost) from t group by entity").unwrap();
    let partials: Vec<_> = rows
        .chunks(rows.len() / 8)
        .map(|chunk| execute_partition(&mut loaded_partition(chunk), &query, 8).unwrap())
        .collect();
    let plan = FanoutPlan::for_table("t", 8);
    let mut group = c.group("merge");
    group.sample_size(20);
    group.bench_function("partials_8x500_groups", |b| {
        b.iter_batched(
            || partials.clone(),
            |owned| merge_partials(&plan, owned).unwrap(),
        )
    });
    group.finish();
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
    group.finish();
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
    group.finish();
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
    group.finish();
}

fn main() {
    let mut bench = Bench::from_args();
    bench_ingest(&mut bench);
    bench_scan(&mut bench);
    bench_merge(&mut bench);
    bench_codecs(&mut bench);
    bench_brick_compression(&mut bench);
    bench.finish();
}
