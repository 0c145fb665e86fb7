//! Bit-level goldens for the engine's write side, captured on the commit
//! before the batch-shaped ingest path (PR 17) and pinned here. Batches
//! go through `Deployment::ingest` into three regions beside dashboards,
//! with a decay pass and the memory monitor on every node after every
//! third batch, so rows land in hot and compressed bricks; a second
//! scenario walks one partition through squeeze, scans, re-heating ingest
//! and a roomy monitor pass that decompresses. Per (region, table,
//! partition) the pin covers the row and brick counts, the brick states,
//! the memory footprint (column *capacities* included), the store
//! statistics, the hotness counters, every stored row in stored order
//! and, per string dimension, the dictionary's size, footprint, ids and
//! string order; per pass, what the monitor moved. A dictionary id handed out in a different order, a
//! column that grew by a different schedule, a row appended to a brick
//! out of order or a changed monitor decision moves a digest. The pins
//! were re-captured on `3ba7127`, with the SSD eviction pass taken out of
//! both fixtures, when that tier was deleted.

use std::fmt::Write as _;
use std::sync::Arc;

use scalewall::cluster::deployment::{Deployment, DeploymentConfig};
use scalewall::cluster::driver::{run_query, QueryOptions};
use scalewall::cluster::net::{NetModel, NetModelConfig};
use scalewall::cluster::workload::{gen_query, gen_rows, standard_schema, TableSpec};
use scalewall::cubrick::catalog::RowMapping;
use scalewall::cubrick::hotness::MemoryMonitorConfig;
use scalewall::cubrick::proxy::{CubrickProxy, ProxyConfig};
use scalewall::cubrick::schema::SchemaBuilder;
use scalewall::cubrick::sharding::ShardMapping;
use scalewall::cubrick::store::PartitionData;
use scalewall::cubrick::value::{Row, Value};
use scalewall::shard_manager::HostId;
use scalewall::sim::hash::{fnv1a, FNV_OFFSET};
use scalewall::sim::{SimDuration, SimRng, SimTime};

const TABLES: usize = 2;
const PARTITIONS: u32 = 8;
/// Two more than the last maintenance pass, so the final state has
/// re-heated bricks whose column capacities the footprint pins.
const BATCHES: usize = 14;
const BATCH_ROWS: usize = 2_000;
const DASHBOARDS_PER_BATCH: usize = 3;
const MAINTENANCE_EVERY: usize = 3;
const DS_RANGE: i64 = 365;
/// Tight enough that the second pass already compresses: the
/// dictionaries alone come to ~70 KB a partition.
const HOST_MEMORY_BYTES: u64 = 250_000;

/// Present and absent entities whose dictionary ids are pinned.
const PROBED: [&str; 16] = [
    "e0", "e1", "e7", "e42", "e99", "e100", "e512", "e777", "e1000", "e1024", "e1500", "e1999",
    "e2000", "E1", "e", "",
];

/// Decay pass and memory monitor on every node of every region. Returns
/// bricks (compressed, decompressed).
fn maintenance(dep: &mut Deployment) -> (usize, usize) {
    let nodes: Vec<(usize, HostId)> = dep
        .regions
        .iter()
        .enumerate()
        .flat_map(|(r, region)| region.nodes.hosts().map(move |h| (r, h)))
        .collect();
    let mut moved = (0, 0);
    for (r, host) in nodes {
        let node = dep.regions[r].nodes.node_mut(host).expect("listed host");
        node.decay_pass();
        let (c, d) = node.run_memory_monitor();
        moved.0 += c;
        moved.1 += d;
    }
    moved
}

/// Everything the pin list names for one stored partition, as text.
fn describe(part: &PartitionData) -> String {
    let mut text = String::new();
    writeln!(text, "{:?} {:?}", part.stats(), part.hotness_snapshot()).unwrap();
    for row in part.all_rows() {
        write!(text, "{:?}", row.dims).unwrap();
        for m in &row.metrics {
            write!(text, " {:016x}", m.to_bits()).unwrap();
        }
        text.push('\n');
    }
    for dim in 0..part.schema().dimensions.len() {
        let Some(dict) = part.dict(dim) else { continue };
        let ids: Vec<Option<u32>> = PROBED.iter().map(|s| dict.lookup(s)).collect();
        let ranks = dict.clone().ranks();
        writeln!(
            text,
            "dict {dim}: {} {} {ids:?} {:?} {:?}",
            dict.len(),
            dict.footprint(),
            ranks.rank_of_id,
            ranks.id_of_rank
        )
        .unwrap();
    }
    text
}

type PartitionPin = (String, u64, usize, (usize, usize), u64, u64);

fn observe() -> (Vec<(usize, usize)>, Vec<PartitionPin>) {
    let mut dep = Deployment::new(DeploymentConfig {
        regions: 3,
        hosts_per_region: 4,
        max_shards: 10_000,
        host_memory_bytes: HOST_MEMORY_BYTES,
        seed: 0x1B17_5EED,
        ..Default::default()
    });
    let specs: Vec<TableSpec> = (0..TABLES)
        .map(|i| TableSpec {
            name: format!("pin_{i}"),
            schema: standard_schema(DS_RANGE),
            target_bytes: 0,
            partitions: PARTITIONS,
        })
        .collect();
    for spec in &specs {
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
    let net = NetModel::new(NetModelConfig::default());
    let mut proxy = CubrickProxy::new(ProxyConfig::default());
    let mut row_rng = SimRng::new(0x1B17_0001);
    let mut query_rng = SimRng::new(0x1B17_0002);
    let mut now = SimTime::from_secs(3_600);
    let mut passes = Vec::new();
    for batch in 0..BATCHES {
        let spec = &specs[batch % TABLES];
        let rows = gen_rows(spec, BATCH_ROWS, DS_RANGE, &mut row_rng);
        dep.ingest(&spec.name, &rows).unwrap();
        for _ in 0..DASHBOARDS_PER_BATCH {
            let target = &specs[query_rng.below(TABLES as u64) as usize];
            let query = gen_query(target, DS_RANGE, &mut query_rng);
            let outcome = run_query(
                &mut dep,
                &mut proxy,
                &net,
                &query,
                &QueryOptions::default(),
                now,
                &mut query_rng,
            );
            assert!(outcome.success, "{query:?}: {:?}", outcome.error);
            now += SimDuration::from_secs(10);
        }
        if (batch + 1) % MAINTENANCE_EVERY == 0 {
            passes.push(maintenance(&mut dep));
        }
    }
    let mut pins = Vec::new();
    for (r, region) in dep.regions.iter().enumerate() {
        let store = region.store.read();
        for (table, p) in store.keys() {
            let part = store.partition(&table, p).expect("listed partition");
            pins.push((
                format!("r{r} {table}#{p}"),
                part.rows(),
                part.brick_count(),
                part.state_counts(),
                part.memory_footprint(),
                fnv1a(FNV_OFFSET, describe(part).as_bytes()),
            ));
        }
    }
    (passes, pins)
}

fn panic_with_table(what: &str, passes: &dyn std::fmt::Debug, pins: &[PartitionPin]) -> ! {
    let mut table = format!("passes: {passes:?}\n");
    for (k, rows, bricks, states, mem, digest) in pins {
        writeln!(
            table,
            "    ({k:?}, {rows}, {bricks}, {states:?}, {mem}, 0x{digest:016x}),"
        )
        .unwrap();
    }
    panic!("{what}: ingest state moved; observed:\n{table}");
}

fn golden(pins: &[GoldenPin]) -> Vec<PartitionPin> {
    pins.iter()
        .map(|&(k, rows, bricks, states, mem, digest)| {
            (k.to_string(), rows, bricks, states, mem, digest)
        })
        .collect()
}

#[test]
fn regression_ingest_bits_deployment() {
    let (passes, pins) = observe();
    // The run must reach every state the ingest path branches on, or the
    // pins below prove less than they claim.
    assert!(passes.iter().any(|&(c, _)| c > 0), "{passes:?}");
    assert!(
        pins.iter()
            .all(|(_, _, _, (hot, cold), ..)| *hot > 0 && *cold > 0),
        "every partition ends with re-heated and compressed bricks"
    );
    if passes != DEPLOYMENT_PASSES || pins != golden(DEPLOYMENT) {
        panic_with_table("deployment", &passes, &pins);
    }
}

/// One partition through the whole brick lifecycle with two dictionaries:
/// squeeze everything cold, heat a `ds` window, ingest into hot and cold
/// bricks, decompress under a roomy budget, decay, ingest again and
/// compress part of it back.
fn observe_lifecycle() -> (Vec<(usize, usize)>, Vec<PartitionPin>) {
    let schema = Arc::new(
        SchemaBuilder::new()
            .int_dim("ds", 0, 90, 5)
            .str_dim("entity", 400, 50)
            .str_dim("country", 8, 4)
            .metric("clicks")
            .metric("cost")
            .build()
            .unwrap(),
    );
    let mut rng = SimRng::new(0x1B17_0003);
    let mut gen_row = move || {
        Row::new(
            vec![
                Value::Int(rng.below(90) as i64),
                Value::Str(format!("e{}", rng.below(300))),
                Value::Str(format!("c{}", rng.below(8))),
            ],
            vec![rng.below(100) as f64, rng.unit() * 10.0],
        )
    };
    let mut part = PartitionData::new(schema);
    let mut ingest = |part: &mut PartitionData, n: usize| {
        for _ in 0..n {
            part.ingest(&gen_row()).unwrap();
        }
    };
    let budget = |budget_bytes| MemoryMonitorConfig {
        budget_bytes,
        ..Default::default()
    };
    let mut passes = Vec::new();
    let mut pins = Vec::new();
    let mut pin = |name: &str, part: &PartitionData| {
        pins.push((
            name.to_string(),
            part.rows(),
            part.brick_count(),
            part.state_counts(),
            part.memory_footprint(),
            fnv1a(FNV_OFFSET, describe(part).as_bytes()),
        ));
    };

    ingest(&mut part, 4_000);
    pin("loaded", &part);
    passes.push(part.run_memory_monitor(&budget(0)));
    let recent = [Some(vec![(60, 89)]), None, None];
    for _ in 0..5 {
        part.for_each_matching_brick(&recent, |_| {});
    }
    pin("squeezed", &part);
    ingest(&mut part, 60);
    pin("reheated", &part);
    passes.push(part.run_memory_monitor(&budget(1 << 30)));
    pin("roomy", &part);
    let mut decay_rng = SimRng::new(0x1B17_0004);
    for _ in 0..3 {
        part.decay_pass(0.5, &mut decay_rng);
    }
    ingest(&mut part, 200);
    passes.push(part.run_memory_monitor(&budget(part.memory_footprint() * 7 / 10)));
    pin("tightened", &part);
    (passes, pins)
}

#[test]
fn regression_ingest_bits_partition_lifecycle() {
    let (passes, pins) = observe_lifecycle();
    assert!(passes.iter().any(|&(_, d)| d > 0), "{passes:?}");
    if passes != LIFECYCLE_PASSES || pins != golden(LIFECYCLE) {
        panic_with_table("lifecycle", &passes, &pins);
    }
}

/// `(name, rows, bricks, (hot, cold), memory_footprint, digest of the
/// rest)`.
type GoldenPin = (&'static str, u64, usize, (usize, usize), u64, u64);

/// Per maintenance pass: bricks (compressed, decompressed).
const DEPLOYMENT_PASSES: [(usize, usize); 4] = [(0, 0), (1194, 0), (2343, 0), (3204, 0)];

#[rustfmt::skip]
const DEPLOYMENT: &[GoldenPin] = &[
    ("r0 pin_0#0", 1788, 75, (67, 8), 146207, 0x8d160971bec7e2e4),
    ("r0 pin_0#1", 1741, 75, (67, 8), 145219, 0x12a96552d1b2215f),
    ("r0 pin_0#2", 1731, 75, (66, 9), 142845, 0xb5a65a842cec7cec),
    ("r0 pin_0#3", 1756, 74, (72, 2), 148741, 0xa83a5836e03ee3a5),
    ("r0 pin_0#4", 1720, 75, (67, 8), 142920, 0x19f48b9168086045),
    ("r0 pin_0#5", 1744, 75, (65, 10), 145016, 0x757bb38a23c76ccf),
    ("r0 pin_0#6", 1735, 75, (73, 2), 146666, 0x278912466a1e47f5),
    ("r0 pin_0#7", 1785, 74, (61, 13), 147336, 0x0a9deeb47979148b),
    ("r0 pin_1#0", 1760, 75, (64, 11), 145114, 0x3986249ed5d5be7c),
    ("r0 pin_1#1", 1727, 75, (65, 10), 143008, 0xfe90242dda17e89b),
    ("r0 pin_1#2", 1840, 75, (67, 8), 153634, 0x7a050e17de358b6e),
    ("r0 pin_1#3", 1739, 75, (67, 8), 143077, 0x439e355f4ca5b9f3),
    ("r0 pin_1#4", 1727, 74, (70, 4), 145893, 0xf681e2dec3b9fc99),
    ("r0 pin_1#5", 1811, 75, (66, 9), 149463, 0x3c1b11623e1fbd28),
    ("r0 pin_1#6", 1700, 75, (68, 7), 143429, 0x89d2b66cca7b9412),
    ("r0 pin_1#7", 1696, 74, (68, 6), 143171, 0x85007c18410f5213),
    ("r1 pin_0#0", 1788, 75, (67, 8), 146207, 0x345604cd954863f6),
    ("r1 pin_0#1", 1741, 75, (67, 8), 145219, 0x27d0b4a77257fc60),
    ("r1 pin_0#2", 1731, 75, (66, 9), 142845, 0x68bc2da391a4ce44),
    ("r1 pin_0#3", 1756, 74, (72, 2), 148741, 0xc03952dab87164bf),
    ("r1 pin_0#4", 1720, 75, (67, 8), 142920, 0xdc7930247a6d9616),
    ("r1 pin_0#5", 1744, 75, (65, 10), 145016, 0x9efe8f0611999d6b),
    ("r1 pin_0#6", 1735, 75, (73, 2), 146666, 0xcdda81e90e8cd83d),
    ("r1 pin_0#7", 1785, 74, (61, 13), 147336, 0x77da199297586efc),
    ("r1 pin_1#0", 1760, 75, (64, 11), 145114, 0x2788210def41e715),
    ("r1 pin_1#1", 1727, 75, (65, 10), 143008, 0xb12adc46740b99d0),
    ("r1 pin_1#2", 1840, 75, (67, 8), 153634, 0xb4410c8b78c0e0d7),
    ("r1 pin_1#3", 1739, 75, (67, 8), 143077, 0x605c9fb59dd9dfe2),
    ("r1 pin_1#4", 1727, 74, (70, 4), 145893, 0x736d385918150fca),
    ("r1 pin_1#5", 1811, 75, (66, 9), 149463, 0xa27c1386f59ef4a0),
    ("r1 pin_1#6", 1700, 75, (68, 7), 143429, 0x50ff2f059039cf4d),
    ("r1 pin_1#7", 1696, 74, (68, 6), 143171, 0xb6052133c4116167),
    ("r2 pin_0#0", 1788, 75, (67, 8), 146207, 0x345604cd954863f6),
    ("r2 pin_0#1", 1741, 75, (67, 8), 145219, 0x27d0b4a77257fc60),
    ("r2 pin_0#2", 1731, 75, (66, 9), 142845, 0x68bc2da391a4ce44),
    ("r2 pin_0#3", 1756, 74, (72, 2), 148741, 0xc03952dab87164bf),
    ("r2 pin_0#4", 1720, 75, (67, 8), 142920, 0xdc7930247a6d9616),
    ("r2 pin_0#5", 1744, 75, (65, 10), 145016, 0x9efe8f0611999d6b),
    ("r2 pin_0#6", 1735, 75, (73, 2), 146666, 0xcdda81e90e8cd83d),
    ("r2 pin_0#7", 1785, 74, (61, 13), 147336, 0x77da199297586efc),
    ("r2 pin_1#0", 1760, 75, (64, 11), 145114, 0x2788210def41e715),
    ("r2 pin_1#1", 1727, 75, (65, 10), 143008, 0xb12adc46740b99d0),
    ("r2 pin_1#2", 1840, 75, (67, 8), 153634, 0xb4410c8b78c0e0d7),
    ("r2 pin_1#3", 1739, 75, (67, 8), 143077, 0x605c9fb59dd9dfe2),
    ("r2 pin_1#4", 1727, 74, (70, 4), 145893, 0x736d385918150fca),
    ("r2 pin_1#5", 1811, 75, (66, 9), 149463, 0xa27c1386f59ef4a0),
    ("r2 pin_1#6", 1700, 75, (68, 7), 143429, 0x50ff2f059039cf4d),
    ("r2 pin_1#7", 1696, 74, (68, 6), 143171, 0xb6052133c4116167),
];

/// Per monitor pass: bricks (compressed, decompressed).
const LIFECYCLE_PASSES: [(usize, usize); 3] = [(216, 0), (0, 54), (142, 0)];

#[rustfmt::skip]
const LIFECYCLE: &[GoldenPin] = &[
    ("loaded", 4000, 216, (216, 0), 182084, 0xbe561b87781b34d3),
    ("squeezed", 4000, 216, (0, 216), 74608, 0x7c0ebf816e877c08),
    ("reheated", 4060, 216, (49, 167), 112064, 0xb6ede15ed2108319),
    ("roomy", 4060, 216, (103, 113), 125788, 0xb6ede15ed2108319),
    ("tightened", 4260, 216, (33, 183), 96434, 0xe9f97228e58207c3),
];
