//! Bit-level goldens for the node maintenance passes, captured on
//! `ddbe8d3` — where every pass re-derived what it needed by walking all
//! bricks and all dictionary strings — and pinned here before the passes
//! were made to cost what changed (maintained footprints, a monitor that
//! walks only out-of-band partitions, a decay that skips cold ones).
//!
//! `tests/regression_ingest_bits.rs` pins monitor decisions under
//! pressure only; nothing there pins a decay draw. This file drives four
//! nodes directly over 3 tables × 8 partitions with string dimensions,
//! at budgets that put partitions over budget, in band and under the
//! watermark in the same pass, through 30 rounds of ingest (one batch a
//! round carries a refused row, whose earlier dimensions stay in their
//! dictionaries), two shards changing hands between a tight and a roomy
//! node, pruned and full scans, a decay pass and a monitor pass. Per
//! round it digests what each node's monitor moved and every partition's
//! `state_counts`, `memory_footprint` and `hotness_snapshot`. A node's RNG
//! is private, so its position is pinned through what it decides: a final
//! probe heats every brick of every partition and runs one more decay
//! pass, whose halvings are the next draws of each node's stream, one per
//! brick. A decay pass that skipped a partition holding a warm brick, or
//! drew for a partition it should have skipped, moves that digest and
//! every hotness digest after it.
//!
//! The SM side of the metric poll (every region's `host_load` bits after
//! every `CollectMetrics` and `LoadBalance` event of a faulted run) needs
//! the deployment `Experiment` does not hand out, so it is pinned from
//! inside the crate, like PR 18's records:
//! `experiment::tests::poll_load_bits_match_parent` in `crates/cluster`.
//!
//! The pins were re-captured on `3ba7127`, with the SSD eviction pass
//! taken out of the rounds, when that tier was deleted. A legitimate
//! re-pin means running this file on the parent commit first; a mismatch
//! prints the observed table.

use std::sync::Arc;

use scalewall::cubrick::catalog::{shared_catalog, RowMapping, TableDef};
use scalewall::cubrick::node::{CubrickNode, NodeConfig, RegionStore, SharedRegionStore};
use scalewall::cubrick::query::parse_query;
use scalewall::cubrick::schema::{DimKind, Schema, SchemaBuilder};
use scalewall::cubrick::sharding::ShardMapping;
use scalewall::cubrick::value::{Row, Value};
use scalewall::shard_manager::{AddShardReason, AppServer, HostId, Region, ShardContext, ShardId};
use scalewall::sim::hash::{fnv1a_word, FNV_OFFSET};
use scalewall::sim::sync::RwLock;
use scalewall::sim::SimRng;

const PARTITIONS: u32 = 8;
const MAX_SHARDS: u64 = 10_000;
const ROUNDS: usize = 30;
const DS_RANGE: i64 = 120;
/// Rows per table per round.
const BATCH_ROWS: usize = 240;
/// One tight, two middling and one roomy node: partitions of all three
/// tables sit on each, and their dictionary-to-data ratios differ, so
/// one pass sees all three bands.
const NODE_BUDGETS: [u64; 4] = [50_000, 100_000, 300_000, 1_000_000];
/// The monitor's default hysteresis (`MemoryMonitorConfig::default`).
const LOW_WATERMARK: f64 = 0.8;

/// `(name, schema, distinct strings the generator draws per string
/// dimension)`. `wide`'s entity dictionary dwarfs its rows, `mid` has two
/// small ones, `tags`' is full once its six tags are in.
fn tables() -> Vec<(&'static str, Arc<Schema>, Vec<u64>)> {
    let build = |b: SchemaBuilder| Arc::new(b.build().expect("valid schema"));
    vec![
        (
            "wide",
            build(
                SchemaBuilder::new()
                    .str_dim("entity", 1_000, 100)
                    .int_dim("ds", 0, DS_RANGE, 10)
                    .metric("clicks")
                    .metric("cost"),
            ),
            vec![800],
        ),
        (
            "mid",
            build(
                SchemaBuilder::new()
                    .int_dim("ds", 0, DS_RANGE, 5)
                    .str_dim("country", 80, 8)
                    .str_dim("device", 12, 4)
                    .metric("clicks"),
            ),
            vec![40, 12],
        ),
        (
            "tags",
            build(
                SchemaBuilder::new()
                    .int_dim("ds", 0, DS_RANGE, 4)
                    .str_dim("tag", 6, 2)
                    .metric("clicks")
                    .metric("cost")
                    .metric("views"),
            ),
            vec![6],
        ),
    ]
}

fn gen_row(schema: &Schema, strings: &[u64], rng: &mut SimRng) -> Row {
    let mut distinct = strings.iter();
    let dims = schema
        .dimensions
        .iter()
        .map(|dim| match dim.kind {
            DimKind::Int { .. } => Value::Int(rng.below(DS_RANGE as u64) as i64),
            DimKind::Str { .. } => {
                let n = *distinct.next().expect("a count per string dimension");
                Value::Str(format!("{}-{}", dim.name, rng.below(n)))
            }
        })
        .collect();
    let metrics = (0..schema.metrics.len())
        .map(|_| rng.below(1_000) as f64 / 8.0)
        .collect();
    Row::new(dims, metrics)
}

/// A row refused at its last dimension (`ds` out of range, or an integer
/// where a string goes) after its first string dimension took a string no
/// other row carries: the string stays in that dictionary unless the
/// dictionary is full, which refuses the row there and then.
fn gen_refused_row(schema: &Schema, strings: &[u64], serial: usize, rng: &mut SimRng) -> Row {
    let mut row = gen_row(schema, strings, rng);
    let first_string = row.dims.iter().position(|v| matches!(v, Value::Str(_)));
    row.dims[first_string.expect("a string dimension")] = Value::Str(format!("refused-{serial}"));
    *row.dims.last_mut().expect("dimensions") = match row.dims.last() {
        Some(Value::Int(_)) => Value::Int(DS_RANGE + 7),
        _ => Value::Int(1),
    };
    row
}

struct Fixture {
    store: SharedRegionStore,
    nodes: Vec<CubrickNode>,
    defs: Vec<(TableDef, Vec<u64>)>,
    /// Node index per `[table][partition]`.
    owners: Vec<Vec<usize>>,
}

fn new_allocation(shard: u64) -> ShardContext {
    ShardContext {
        shard: ShardId(shard),
        reason: AddShardReason::NewAllocation,
        source: None,
    }
}

fn fixture() -> Fixture {
    let catalog = shared_catalog(MAX_SHARDS);
    let store: SharedRegionStore = Arc::new(RwLock::new(RegionStore::new()));
    let mut nodes: Vec<CubrickNode> = (0u64..)
        .zip(NODE_BUDGETS)
        .map(|(i, budget)| {
            let mut config = NodeConfig::new(HostId(i), Region(0));
            config.memory_budget_bytes = budget;
            config.decay_probability = 0.3;
            config.rng_seed = 0x3A17 + i;
            CubrickNode::new(config, catalog.clone(), store.clone())
        })
        .collect();
    let mut defs = Vec::new();
    let mut owners = Vec::new();
    for (t, (name, schema, strings)) in tables().into_iter().enumerate() {
        let def = catalog
            .write()
            .create_table(
                name,
                schema,
                PARTITIONS,
                RowMapping::Hash,
                ShardMapping::Monotonic,
            )
            .expect("fresh table");
        let spread: Vec<usize> = (0..PARTITIONS as usize)
            .map(|p| (t + p) % NODE_BUDGETS.len())
            .collect();
        for (p, &node) in (0..).zip(&spread) {
            nodes[node]
                .add_shard(new_allocation(def.shard_of(p, MAX_SHARDS)))
                .expect("new allocations are never vetoed");
        }
        owners.push(spread);
        defs.push((def, strings));
    }
    Fixture {
        store,
        nodes,
        defs,
        owners,
    }
}

impl Fixture {
    fn owner(&mut self, table: usize, partition: u32) -> &mut CubrickNode {
        &mut self.nodes[self.owners[table][partition as usize]]
    }

    /// Hand one partition's shard to the node two along, tight to roomy
    /// and back: a squeezed partition arrives under a roomy budget with
    /// its compressed bricks (the warm ones come back), a roomy one goes
    /// over budget.
    fn rotate_owner(&mut self, table: usize, partition: u32) {
        let shard = self.defs[table].0.shard_of(partition, MAX_SHARDS);
        self.owner(table, partition)
            .drop_shard(new_allocation(shard))
            .expect("owned");
        let owner = &mut self.owners[table][partition as usize];
        *owner = (*owner + 2) % NODE_BUDGETS.len();
        self.owner(table, partition)
            .add_shard(new_allocation(shard))
            .expect("new allocations are never vetoed");
    }

    /// One batch per table, routed to its partitions; the batch of table
    /// `round % 3` carries a refused row, which ends the partition batch
    /// it was routed to. Returns partition batches refused.
    fn ingest(&mut self, round: usize, rng: &mut SimRng) -> u64 {
        let mut refusals = 0;
        for (t, (def, strings)) in self.defs.iter().enumerate() {
            let mut rows: Vec<Row> = (0..BATCH_ROWS)
                .map(|_| gen_row(&def.schema, strings, rng))
                .collect();
            if t == round % 3 {
                let at = rng.below(rows.len() as u64) as usize;
                rows.insert(at, gen_refused_row(&def.schema, strings, round, rng));
            }
            let routed = def.route_rows(&rows, || 0);
            let mut store = self.store.write();
            for (p, part_rows) in (0u32..).zip(&routed) {
                let refused = store.ingest_batch(&def.name, p, &def.schema, part_rows);
                refusals += u64::from(refused.is_err());
            }
        }
        refusals
    }

    /// A full scan of one table, a scan pruned to a 16-day window of
    /// another, the third left alone; which table gets which rotates.
    /// Every partition sits a third of its rounds out, and `tags#6` and
    /// `tags#7` are never scanned at all.
    fn scan(&mut self, round: usize, rng: &mut SimRng) -> u64 {
        let mut answers = FNV_OFFSET;
        for t in 0..self.defs.len() {
            let name = self.defs[t].0.name.clone();
            let lo = rng.below(DS_RANGE as u64 - 20);
            let text = match (round + t) % 3 {
                0 => format!("select count(*) from {name}"),
                1 => format!(
                    "select sum(clicks) from {name} where ds between {lo} and {}",
                    lo + 15
                ),
                _ => continue,
            };
            let query = parse_query(&text).expect("valid query");
            let partitions = if t == 2 { 0..6 } else { 0..PARTITIONS };
            for p in partitions {
                if rng.below(3) == 0 {
                    continue;
                }
                let partial = self
                    .owner(t, p)
                    .execute_local(&query, p)
                    .expect("owned and loaded");
                answers = fnv1a_word(answers, partial.finalize().scalar().map_or(0, f64::to_bits));
            }
        }
        answers
    }

    /// Every stored partition's counters, footprints and hotness.
    fn partition_digest(&self) -> u64 {
        let mut d = FNV_OFFSET;
        let store = self.store.read();
        for (table, p) in store.keys() {
            let part = store.partition(&table, p).expect("listed partition");
            let (hot, cold) = part.state_counts();
            for w in [hot as u64, cold as u64, part.memory_footprint()] {
                d = fnv1a_word(d, w);
            }
            for (brick, hotness) in part.hotness_snapshot() {
                d = fnv1a_word(fnv1a_word(d, brick), hotness as u64);
            }
        }
        d
    }

    /// Partitions (over budget, in band, under the watermark) as the next
    /// monitor pass will find them, and how many of the last hold a
    /// compressed brick: the node's apportioning and the monitor's band
    /// test, restated over the public getters.
    fn bands(&self) -> [u64; 4] {
        let mut seen = [0; 4];
        let store = self.store.read();
        for node in &self.nodes {
            let keys = node.owned_partition_keys();
            let parts: Vec<_> = keys
                .iter()
                .filter_map(|(t, p)| store.partition(t, *p))
                .collect();
            let total: u64 = parts.iter().map(|d| d.decompressed_bytes()).sum();
            for part in parts {
                let share = part.decompressed_bytes() as f64 / total as f64;
                let budget = (node.config().memory_budget_bytes as f64 * share) as u64;
                let footprint = part.memory_footprint();
                if footprint > budget {
                    seen[0] += 1;
                } else if (footprint as f64) < budget as f64 * LOW_WATERMARK {
                    seen[2] += 1;
                    seen[3] += u64::from(part.state_counts().1 > 0);
                } else {
                    seen[1] += 1;
                }
            }
        }
        seen
    }
}

/// Per round: `[refused batches, compressed, decompressed, digest of
/// scan answers, digest of every partition]`.
type RoundPin = [u64; 5];

fn observe() -> (Vec<RoundPin>, [u64; 4], u64, u64) {
    let mut f = fixture();
    let mut rng = SimRng::new(0x3A17_5EED);
    let mut rounds = Vec::new();
    let mut bands = [0u64; 4];
    let mut idle_partitions = 0;
    for round in 0..ROUNDS {
        let refused = f.ingest(round, &mut rng);
        for t in [round % 3, (round + 1) % 3] {
            f.rotate_owner(t, (round as u32 * 3 + t as u32) % PARTITIONS);
        }
        let answers = f.scan(round, &mut rng);
        let mut moved = [0u64; 2];
        // Partitions no scan has warmed (or that decayed back to all
        // zeroes): what a decay pass may skip without a draw.
        idle_partitions += {
            let store = f.store.read();
            let all_cold = |(t, p): &(Arc<str>, u32)| {
                let part = store.partition(t, *p).expect("listed partition");
                part.hotness_snapshot().iter().all(|&(_, h)| h == 0)
            };
            store.keys().iter().filter(|k| all_cold(k)).count() as u64
        };
        for node in &mut f.nodes {
            node.decay_pass();
        }
        for (seen, now) in bands.iter_mut().zip(f.bands()) {
            *seen += now;
        }
        for node in &mut f.nodes {
            let (c, d) = node.run_memory_monitor();
            moved[0] += c as u64;
            moved[1] += d as u64;
        }
        rounds.push([
            refused,
            moved[0],
            moved[1],
            answers,
            f.partition_digest(),
        ]);
    }
    // The probe: every brick warm, so the next decay pass draws once per
    // brick, from each node's stream where 30 rounds of passes left it.
    for t in 0..f.defs.len() {
        let text = format!("select count(*) from {}", f.defs[t].0.name);
        let query = parse_query(&text).expect("valid query");
        for p in 0..PARTITIONS {
            f.owner(t, p).execute_local(&query, p).expect("owned");
        }
    }
    for node in &mut f.nodes {
        node.decay_pass();
    }
    (rounds, bands, idle_partitions, f.partition_digest())
}

#[test]
fn regression_maintenance_bits_direct_nodes() {
    let (rounds, bands, idle_partitions, probe) = observe();
    // The run must reach every branch the passes take, or the pins below
    // prove less than they claim.
    let [over, in_band, under, under_with_cold] = bands;
    assert!(
        over > 20 && in_band > 20 && under > 20 && under_with_cold > 20,
        "bands {bands:?}"
    );
    let total = |i: usize| rounds.iter().map(|r| r[i]).sum::<u64>();
    assert!(total(0) >= ROUNDS as u64, "a refused batch every round");
    assert!(total(1) > 0 && total(2) > 0, "{rounds:?}");
    assert!(
        idle_partitions > 50 && idle_partitions < (ROUNDS * 24) as u64 / 2,
        "decay must meet idle and warm partitions: {idle_partitions}"
    );
    if rounds != ROUND_PINS || probe != PROBE_PIN {
        let mut table = String::new();
        for r in &rounds {
            table += &format!(
                "    [{}, {}, {}, 0x{:016x}, 0x{:016x}],\n",
                r[0], r[1], r[2], r[3], r[4]
            );
        }
        panic!(
            "maintenance passes moved off the parent; bands {bands:?}, idle {idle_partitions}; \
             observed:\n{table}probe: 0x{probe:016x}"
        );
    }
}

/// Digest of every partition after the probe's decay pass.
const PROBE_PIN: u64 = 0x373e_1a34_97e3_7724;

#[rustfmt::skip]
const ROUND_PINS: [RoundPin; ROUNDS] = [
    [1, 0, 0, 0x036e073a249029bf, 0xc1611f9ae5365797],
    [1, 109, 0, 0x684477da1d106495, 0xc3b7afecb52dc899],
    [1, 163, 0, 0x1914a032281a39c5, 0xc1de069980f30e58],
    [1, 170, 0, 0x6314a3cc20f6ef8d, 0x9e8fff2a44ad8f54],
    [1, 318, 0, 0xde67b64c20f6ef8d, 0xb29a6f3dc0fa1ebe],
    [1, 415, 0, 0xa1da9f3a249029bf, 0x29ab78b08fa85293],
    [1, 206, 77, 0xc2bf679a1d106495, 0xbcd234c8f5a6e204],
    [1, 413, 0, 0x1c12fb9c03990c97, 0x18106729d987f8b3],
    [1, 298, 49, 0x5f6e3a7a299d713d, 0x2c1ff34b9c79f49f],
    [1, 631, 0, 0x8bada83a249029bf, 0xeb04ca6a5d6928b2],
    [1, 288, 85, 0xb5fcd63a249029bf, 0xc3a7eed0c323b604],
    [1, 346, 1, 0xb678c314b6876aa7, 0x719146d86a949c64],
    [1, 319, 64, 0xe9b2f5b2281a39c5, 0x72e9b79a0a795a26],
    [1, 223, 65, 0xe5f8910c20f6ef8d, 0x6e88d94e5c483faa],
    [1, 318, 183, 0x243a9cda249029bf, 0x8f21c7c0932f9f8e],
    [1, 170, 172, 0xb1ffb40c20f6ef8d, 0x57109094c48c8064],
    [1, 207, 47, 0x9fc5b92c20f6ef8d, 0xbc4129192e58a6c2],
    [1, 174, 418, 0x1b7feefa249029bf, 0xc140c55b48eb42e6],
    [1, 436, 25, 0x11238074b6876aa7, 0x884001ac15bfd822],
    [1, 173, 3, 0x2c7bb06c20f6ef8d, 0xb4c5002f366295cd],
    [1, 282, 49, 0xb59dbd1a299d713d, 0x6f2b2ac285b6343c],
    [1, 253, 24, 0x8a95371c03990c97, 0x15662493659ba302],
    [1, 531, 29, 0x970f81fa299d713d, 0xfb0789109d24d89d],
    [1, 766, 22, 0xa74d4632281a39c5, 0x2b6b6b944040d0b1],
    [1, 627, 2, 0x4f58475f62dae92f, 0x9fc88ffcacd7f5dd],
    [1, 396, 125, 0xac3be5b4b6876aa7, 0x15f1de648956879d],
    [1, 379, 154, 0xc44edd7a249029bf, 0xdd9b5f37aca18c9a],
    [1, 628, 36, 0xff86b8fa249029bf, 0xf2964ca0c5f17d4c],
    [1, 695, 3, 0xb3f067f4b6876aa7, 0xe460289e90ea6550],
    [1, 538, 24, 0xa4610cf4b6876aa7, 0x39a80622456166f9],
];
