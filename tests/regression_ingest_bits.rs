//! Bit-level goldens for the engine's write side, captured on the commit
//! before the batch-shaped ingest path (PR 17) and pinned here. Batches
//! go through `Deployment::ingest` into three regions beside dashboards,
//! with a decay pass, the memory monitor and the SSD eviction pass on
//! every node after every third batch, so rows land in hot, compressed
//! and evicted bricks; a second scenario walks one partition through
//! squeeze, scans, eviction, re-heating ingest and a roomy monitor pass
//! that decompresses. Per (region, table, partition) the pin covers the
//! row and brick counts, the brick states, both footprints (column
//! *capacities* included), the store statistics, the hotness counters,
//! every stored row in stored order and, per string dimension, the
//! dictionary's size, footprint, ids and string order; per pass, what the
//! monitor moved. A dictionary id handed out in a different order, a
//! column that grew by a different schedule, a row appended to a brick
//! out of order or a changed monitor decision moves a digest.

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
/// Tight enough that the second pass already compresses and the third
/// evicts: the dictionaries alone come to ~70 KB a partition.
const HOST_MEMORY_BYTES: u64 = 250_000;

/// Present and absent entities whose dictionary ids are pinned.
const PROBED: [&str; 16] = [
    "e0", "e1", "e7", "e42", "e99", "e100", "e512", "e777", "e1000", "e1024", "e1500", "e1999",
    "e2000", "E1", "e", "",
];

fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01B3)
    })
}

/// Decay pass, memory monitor and SSD eviction on every node of every
/// region. Returns bricks (compressed, decompressed, evicted).
fn maintenance(dep: &mut Deployment) -> (usize, usize, usize) {
    let nodes: Vec<(usize, HostId)> = dep
        .regions
        .iter()
        .enumerate()
        .flat_map(|(r, region)| region.nodes.hosts().map(move |h| (r, h)))
        .collect();
    let mut moved = (0, 0, 0);
    for (r, host) in nodes {
        let node = dep.regions[r].nodes.node_mut(host).expect("listed host");
        node.decay_pass();
        let (c, d) = node.run_memory_monitor();
        moved.0 += c;
        moved.1 += d;
        moved.2 += node.run_ssd_eviction();
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

type PartitionPin = (String, u64, usize, (usize, usize, usize), u64, u64, u64);

fn observe() -> (Vec<(usize, usize, usize)>, Vec<PartitionPin>) {
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
                part.ssd_bytes(),
                fnv1a(&describe(part)),
            ));
        }
    }
    (passes, pins)
}

fn panic_with_table(what: &str, passes: &dyn std::fmt::Debug, pins: &[PartitionPin]) -> ! {
    let mut table = format!("passes: {passes:?}\n");
    for (k, rows, bricks, states, mem, ssd, digest) in pins {
        writeln!(
            table,
            "    ({k:?}, {rows}, {bricks}, {states:?}, {mem}, {ssd}, 0x{digest:016x}),"
        )
        .unwrap();
    }
    panic!("{what}: ingest state moved; observed:\n{table}");
}

fn golden(pins: &[GoldenPin]) -> Vec<PartitionPin> {
    pins.iter()
        .map(|&(k, rows, bricks, states, mem, ssd, digest)| {
            (k.to_string(), rows, bricks, states, mem, ssd, digest)
        })
        .collect()
}

#[test]
fn regression_ingest_bits_deployment() {
    let (passes, pins) = observe();
    // The run must reach every state the ingest path branches on, or the
    // pins below prove less than they claim.
    assert!(passes.iter().any(|&(c, _, _)| c > 0), "{passes:?}");
    assert!(passes.iter().any(|&(_, _, e)| e > 0), "{passes:?}");
    assert!(
        pins.iter()
            .all(|(_, _, _, (hot, _, evicted), ..)| *hot > 0 && *evicted > 0),
        "every partition ends with re-heated and evicted bricks"
    );
    if passes != DEPLOYMENT_PASSES || pins != golden(DEPLOYMENT) {
        panic_with_table("deployment", &passes, &pins);
    }
}

/// One partition through the whole brick lifecycle with two dictionaries:
/// squeeze everything cold, heat a `ds` window, evict the coldest third,
/// ingest into hot, cold and evicted bricks, decompress under a roomy
/// budget, decay, ingest again and compress part of it back.
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
            part.ssd_bytes(),
            fnv1a(&describe(part)),
        ));
    };

    ingest(&mut part, 4_000);
    pin("loaded", &part);
    passes.push(part.run_memory_monitor(&budget(0)));
    let recent = [Some(vec![(60, 89)]), None, None];
    for _ in 0..5 {
        part.for_each_matching_brick(&recent, |_| {});
    }
    part.evict_coldest(part.memory_footprint() / 3);
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

/// `(name, rows, bricks, (hot, cold, evicted), memory_footprint,
/// ssd_bytes, digest of the rest)`.
type GoldenPin = (
    &'static str,
    u64,
    usize,
    (usize, usize, usize),
    u64,
    u64,
    u64,
);

/// Per maintenance pass: bricks (compressed, decompressed, evicted).
const DEPLOYMENT_PASSES: [(usize, usize, usize); 4] =
    [(0, 0, 0), (1194, 0, 0), (2343, 0, 1197), (3204, 0, 3225)];

#[rustfmt::skip]
const DEPLOYMENT: &[GoldenPin] = &[
    ("r0 pin_0#0", 1788, 75, (67, 0, 8), 143622, 2585, 0xc6f714d102ecfe2a),
    ("r0 pin_0#1", 1741, 75, (67, 0, 8), 143278, 1941, 0xb11468320f18d791),
    ("r0 pin_0#2", 1731, 75, (66, 0, 9), 140660, 2185, 0x87001aa086dd29c2),
    ("r0 pin_0#3", 1756, 74, (72, 0, 2), 148276, 465, 0x28d24f12db742653),
    ("r0 pin_0#4", 1720, 75, (67, 0, 8), 140802, 2118, 0xf7c71d2f94736cc7),
    ("r0 pin_0#5", 1744, 75, (65, 0, 10), 142378, 2638, 0x92808558dc2acf35),
    ("r0 pin_0#6", 1735, 75, (73, 0, 2), 146192, 474, 0x6fd52b2e2bd42f03),
    ("r0 pin_0#7", 1785, 74, (61, 0, 13), 144352, 2984, 0x1aad80372c6ecf7d),
    ("r0 pin_1#0", 1760, 75, (64, 0, 11), 141950, 3164, 0x7eb29c31b6a79bb6),
    ("r0 pin_1#1", 1727, 75, (65, 0, 10), 140448, 2560, 0x61e68283d92a68c5),
    ("r0 pin_1#2", 1840, 75, (67, 0, 8), 151930, 1704, 0xe3058758e2e92f40),
    ("r0 pin_1#3", 1739, 75, (67, 0, 8), 140824, 2253, 0xb5d0ffc4adfbf1a5),
    ("r0 pin_1#4", 1727, 74, (70, 0, 4), 144706, 1187, 0xb7ae5324c0c3a5e7),
    ("r0 pin_1#5", 1811, 75, (66, 0, 9), 147004, 2459, 0xed4e6dd877cb3182),
    ("r0 pin_1#6", 1700, 75, (68, 0, 7), 141968, 1461, 0x979465fe32f20414),
    ("r0 pin_1#7", 1696, 74, (68, 0, 6), 141696, 1475, 0x299efb111b0f006d),
    ("r1 pin_0#0", 1788, 75, (67, 0, 8), 143622, 2585, 0xcee522e0248d3cd4),
    ("r1 pin_0#1", 1741, 75, (67, 0, 8), 143278, 1941, 0x5c10cf421c3cea02),
    ("r1 pin_0#2", 1731, 75, (66, 0, 9), 140660, 2185, 0x0fea96b92a0f6ede),
    ("r1 pin_0#3", 1756, 74, (72, 0, 2), 148276, 465, 0x812f868de22eb31d),
    ("r1 pin_0#4", 1720, 75, (67, 0, 8), 140802, 2118, 0x9f37b6a971008adc),
    ("r1 pin_0#5", 1744, 75, (65, 0, 10), 142378, 2638, 0xdbcdb396edc14c89),
    ("r1 pin_0#6", 1735, 75, (73, 0, 2), 146192, 474, 0x14925c3f326de693),
    ("r1 pin_0#7", 1785, 74, (61, 0, 13), 144352, 2984, 0x2b8f6b1abe02e24a),
    ("r1 pin_1#0", 1760, 75, (64, 0, 11), 141950, 3164, 0x6dae2a3d5309b33b),
    ("r1 pin_1#1", 1727, 75, (65, 0, 10), 140448, 2560, 0xb5cf7b2c9dc46e6e),
    ("r1 pin_1#2", 1840, 75, (67, 0, 8), 151930, 1704, 0x6698f2f40334cff5),
    ("r1 pin_1#3", 1739, 75, (67, 0, 8), 140824, 2253, 0x04bb6ba61569a000),
    ("r1 pin_1#4", 1727, 74, (70, 0, 4), 144706, 1187, 0x4b806c1b30bf5a94),
    ("r1 pin_1#5", 1811, 75, (66, 0, 9), 147004, 2459, 0x0541570f619fed0e),
    ("r1 pin_1#6", 1700, 75, (68, 0, 7), 141968, 1461, 0x90ae136876a2e80f),
    ("r1 pin_1#7", 1696, 74, (68, 0, 6), 141696, 1475, 0x18582282ace895e1),
    ("r2 pin_0#0", 1788, 75, (67, 0, 8), 143622, 2585, 0xcee522e0248d3cd4),
    ("r2 pin_0#1", 1741, 75, (67, 0, 8), 143278, 1941, 0x5c10cf421c3cea02),
    ("r2 pin_0#2", 1731, 75, (66, 0, 9), 140660, 2185, 0x0fea96b92a0f6ede),
    ("r2 pin_0#3", 1756, 74, (72, 0, 2), 148276, 465, 0x812f868de22eb31d),
    ("r2 pin_0#4", 1720, 75, (67, 0, 8), 140802, 2118, 0x9f37b6a971008adc),
    ("r2 pin_0#5", 1744, 75, (65, 0, 10), 142378, 2638, 0xdbcdb396edc14c89),
    ("r2 pin_0#6", 1735, 75, (73, 0, 2), 146192, 474, 0x14925c3f326de693),
    ("r2 pin_0#7", 1785, 74, (61, 0, 13), 144352, 2984, 0x2b8f6b1abe02e24a),
    ("r2 pin_1#0", 1760, 75, (64, 0, 11), 141950, 3164, 0x6dae2a3d5309b33b),
    ("r2 pin_1#1", 1727, 75, (65, 0, 10), 140448, 2560, 0xb5cf7b2c9dc46e6e),
    ("r2 pin_1#2", 1840, 75, (67, 0, 8), 151930, 1704, 0x6698f2f40334cff5),
    ("r2 pin_1#3", 1739, 75, (67, 0, 8), 140824, 2253, 0x04bb6ba61569a000),
    ("r2 pin_1#4", 1727, 74, (70, 0, 4), 144706, 1187, 0x4b806c1b30bf5a94),
    ("r2 pin_1#5", 1811, 75, (66, 0, 9), 147004, 2459, 0x0541570f619fed0e),
    ("r2 pin_1#6", 1700, 75, (68, 0, 7), 141968, 1461, 0x90ae136876a2e80f),
    ("r2 pin_1#7", 1696, 74, (68, 0, 6), 141696, 1475, 0x18582282ace895e1),
];

/// Per monitor pass: bricks (compressed, decompressed).
const LIFECYCLE_PASSES: [(usize, usize); 3] = [(216, 0), (0, 54), (137, 0)];

#[rustfmt::skip]
const LIFECYCLE: &[GoldenPin] = &[
    ("loaded", 4000, 216, (216, 0, 0), 182084, 0, 0x5785a01b93f69df9),
    ("squeezed", 4000, 216, (0, 118, 98), 49618, 24990, 0xa9ec59625dcab9b6),
    ("reheated", 4060, 216, (49, 91, 76), 92422, 19642, 0x522848819be227e3),
    ("roomy", 4060, 216, (103, 37, 76), 106146, 19642, 0x522848819be227e3),
    ("tightened", 4260, 216, (38, 152, 26), 92939, 6306, 0x4a62950a460d3c29),
];
