//! Bit-level goldens for the engine's read side, captured on the commit
//! before the column-at-a-time scan (PR 14) and pinned here: every
//! aggregate as `f64::to_bits`, every group key, `rows_scanned`, the
//! store's scan statistics and the hotness counters, for a seeded set of
//! query shapes over all-hot, all-cold and mixed hot/cold partitions,
//! per partition and through the coordinator merge. A scan or merge that
//! reorders one floating-point addition moves a digest. The three
//! `store_stats` rows were re-captured on `3ba7127` when `StoreStats`
//! lost its SSD read counter; every answer digest is the original.

use std::fmt::Write as _;
use std::sync::Arc;

use scalewall::cubrick::coordinator::{merge_partials, FanoutPlan};
use scalewall::cubrick::hotness::MemoryMonitorConfig;
use scalewall::cubrick::query::{
    execute_partition, AggFunc, AggSpec, Predicate, Query, QueryOutput,
};
use scalewall::cubrick::schema::SchemaBuilder;
use scalewall::cubrick::store::PartitionData;
use scalewall::cubrick::value::{Row, Value};
use scalewall::sim::hash::{fnv1a, FNV_OFFSET};
use scalewall::sim::SimRng;

const PARTITIONS: u32 = 3;
const ROWS: usize = 6_000;
const DS_MAX: i64 = 90;
const ENTITIES: u64 = 300;
/// Wide enough that `group by uid` cannot index a dense slot table.
const UID_MAX: i64 = 100_000;

#[derive(Clone, Copy, Debug)]
enum BrickStates {
    AllHot,
    AllCold,
    /// Everything compressed, then a second ingest wave re-heats
    /// whichever bricks it lands in.
    Mixed,
}

fn gen_row(rng: &mut SimRng) -> Row {
    Row::new(
        vec![
            Value::Int(rng.below(DS_MAX as u64) as i64),
            Value::Str(format!("e{}", rng.below(ENTITIES))),
            Value::Int(rng.below(UID_MAX as u64) as i64),
        ],
        vec![rng.below(100) as f64, rng.unit() * 10.0],
    )
}

fn partitions(states: BrickStates) -> Vec<PartitionData> {
    let schema = Arc::new(
        SchemaBuilder::new()
            .int_dim("ds", 0, DS_MAX, 15)
            .str_dim("entity", 400, 100)
            .int_dim("uid", 0, UID_MAX, 25_000)
            .metric("clicks")
            .metric("cost")
            .build()
            .unwrap(),
    );
    let mut rng = SimRng::new(0x5CA7_B175);
    let mut parts: Vec<PartitionData> = (0..PARTITIONS)
        .map(|_| PartitionData::new(schema.clone()))
        .collect();
    // Round-robin rows, so each partition's dictionary assigns its own ids.
    for i in 0..ROWS {
        parts[i % PARTITIONS as usize]
            .ingest(&gen_row(&mut rng))
            .unwrap();
    }
    let squeeze = MemoryMonitorConfig {
        budget_bytes: 0,
        ..Default::default()
    };
    for (p, part) in parts.iter_mut().enumerate() {
        match states {
            BrickStates::AllHot => {}
            BrickStates::AllCold => {
                part.run_memory_monitor(&squeeze);
            }
            BrickStates::Mixed => {
                // Warm a ds window first, so hotness differs by brick.
                let warm = query(
                    vec![AggSpec::count_star()],
                    vec![Predicate::between("ds", 60, 89)],
                    &[],
                );
                execute_partition(part, &warm, PARTITIONS).unwrap();
                part.run_memory_monitor(&squeeze);
                for _ in 0..40 + 10 * p {
                    part.ingest(&gen_row(&mut rng)).unwrap();
                }
                let (hot, cold) = part.state_counts();
                assert!(hot > 0 && cold > 0, "{hot}/{cold}");
            }
        }
    }
    parts
}

fn query(aggs: Vec<AggSpec>, predicates: Vec<Predicate>, group_by: &[&str]) -> Query {
    Query {
        table: "t".into(),
        aggs,
        predicates,
        group_by: group_by.iter().map(|s| s.to_string()).collect(),
        order_by: None,
        limit: None,
    }
}

fn strs(names: &[&str]) -> Vec<Value> {
    names.iter().map(|s| Value::from(*s)).collect()
}

/// The five `engine_scan` shapes, then everything else the scan branches on.
fn queries() -> Vec<(&'static str, Query)> {
    let sum = |m| AggSpec::new(AggFunc::Sum, m);
    let sum_count = || vec![sum("clicks"), AggSpec::count_star()];
    vec![
        ("full", query(sum_count(), vec![], &[])),
        (
            "pruned",
            query(sum_count(), vec![Predicate::between("ds", 71, 89)], &[]),
        ),
        ("group_ds", query(sum_count(), vec![], &["ds"])),
        (
            "group_entity",
            query(
                vec![sum("clicks"), AggSpec::new(AggFunc::Avg, "cost")],
                vec![],
                &["entity"],
            ),
        ),
        (
            "filter_entity",
            query(
                vec![sum("cost"), AggSpec::count_star()],
                vec![Predicate::eq("entity", "e17")],
                &[],
            ),
        ),
        (
            "min_max_avg",
            query(
                vec![
                    AggSpec::new(AggFunc::Min, "cost"),
                    AggSpec::new(AggFunc::Max, "cost"),
                    AggSpec::new(AggFunc::Avg, "clicks"),
                ],
                vec![Predicate::between("ds", 10, 40)],
                &[],
            ),
        ),
        (
            "in_lists",
            query(
                vec![sum("cost"), AggSpec::count_star()],
                vec![
                    Predicate::is_in("entity", strs(&["e1", "e5", "e9", "e250", "absent"])),
                    Predicate::is_in(
                        "ds",
                        vec![Value::Int(3), Value::Int(4), Value::Int(50), Value::Int(89)],
                    ),
                ],
                &[],
            ),
        ),
        ("two_dims", query(sum_count(), vec![], &["ds", "entity"])),
        (
            "group_filtered_dim",
            query(
                vec![AggSpec::count_star(), sum("cost")],
                vec![Predicate::is_in(
                    "entity",
                    strs(&["e2", "e3", "e100", "e101", "e299"]),
                )],
                &["entity"],
            ),
        ),
        (
            "wide_domain",
            query(
                vec![sum("cost"), AggSpec::new(AggFunc::Min, "clicks")],
                vec![],
                &["uid"],
            ),
        ),
        (
            "wide_two_dims",
            query(
                vec![AggSpec::new(AggFunc::Avg, "cost"), AggSpec::count_star()],
                vec![Predicate::between("ds", 80, 89)],
                &["uid", "ds"],
            ),
        ),
        (
            "unsatisfiable",
            query(
                sum_count(),
                vec![Predicate::eq("entity", "absent")],
                &["ds"],
            ),
        ),
        (
            "matches_nothing",
            query(
                sum_count(),
                vec![
                    Predicate::between("uid", 0, 3),
                    Predicate::eq("entity", "e7"),
                    Predicate::eq("ds", 1i64),
                ],
                &[],
            ),
        ),
    ]
}

/// Grouped `min`/`max`, each with a `ds` window whose edge buckets need
/// the residual filter and whose middle bucket does not, so both the
/// gathered and the whole-column fold are pinned. `ds` alone (90 keys) and
/// `min` alone over `ds, entity` (90 × 300 keys, two columns) index the
/// dense columns; three aggregates over `ds, entity` pass the dense
/// path's column bound and take the ordered map, as the wide-domain
/// shapes above do.
fn dense_min_max_queries() -> Vec<(&'static str, Query)> {
    let aggs = || {
        vec![
            AggSpec::new(AggFunc::Min, "cost"),
            AggSpec::new(AggFunc::Max, "cost"),
            AggSpec::new(AggFunc::Avg, "clicks"),
        ]
    };
    let window = || vec![Predicate::between("ds", 10, 40)];
    vec![
        ("dense_min_max_ds", query(aggs(), window(), &["ds"])),
        (
            "dense_min_max_ds_entity",
            query(aggs(), window(), &["ds", "entity"]),
        ),
        (
            "dense_min_ds_entity",
            query(
                vec![AggSpec::new(AggFunc::Min, "cost")],
                window(),
                &["ds", "entity"],
            ),
        ),
        (
            "dense_max_entity_ds",
            query(
                vec![AggSpec::new(AggFunc::Max, "clicks")],
                window(),
                &["entity", "ds"],
            ),
        ),
    ]
}

fn render(out: &QueryOutput, text: &mut String) {
    writeln!(
        text,
        "{:?} scanned={} partitions={}",
        out.columns, out.rows_scanned, out.table_partitions
    )
    .unwrap();
    for row in &out.rows {
        write!(text, "{:?}", row.key).unwrap();
        for a in &row.aggs {
            write!(text, " {:016x}", a.to_bits()).unwrap();
        }
        text.push('\n');
    }
}

/// One line per query: merged row count, merged `rows_scanned`, and the
/// digest of every per-partition output followed by the merged one.
/// The last line digests the stores' statistics and hotness counters
/// after all queries ran.
fn observe(states: BrickStates, queries: &[(&str, Query)]) -> Vec<(String, usize, u64, u64)> {
    let mut parts = partitions(states);
    let plan = FanoutPlan::for_table("t", PARTITIONS);
    let mut lines = Vec::new();
    for (name, q) in queries {
        let mut text = String::new();
        let mut partials = Vec::new();
        for part in &mut parts {
            let partial = execute_partition(part, q, PARTITIONS).unwrap();
            render(&partial.clone().finalize(), &mut text);
            partials.push(partial);
        }
        let merged = merge_partials(&plan, partials).unwrap();
        render(&merged, &mut text);
        lines.push((
            name.to_string(),
            merged.rows.len(),
            merged.rows_scanned,
            fnv1a(FNV_OFFSET, text.as_bytes()),
        ));
    }
    let mut text = String::new();
    let mut scanned = 0;
    for part in &parts {
        writeln!(text, "{:?} {:?}", part.stats(), part.hotness_snapshot()).unwrap();
        scanned += part.stats().bricks_scanned;
    }
    lines.push((
        "store_stats".to_string(),
        parts.len(),
        scanned,
        fnv1a(FNV_OFFSET, text.as_bytes()),
    ));
    lines
}

fn check(states: BrickStates, queries: &[(&str, Query)], golden: &[(&str, usize, u64, u64)]) {
    let got = observe(states, queries);
    let want: Vec<(String, usize, u64, u64)> = golden
        .iter()
        .map(|&(n, r, s, d)| (n.to_string(), r, s, d))
        .collect();
    if got != want {
        let mut table = String::new();
        for (n, r, s, d) in &got {
            writeln!(table, "    ({n:?}, {r}, {s}, 0x{d:016x}),").unwrap();
        }
        panic!("{states:?}: scan output moved; observed:\n{table}");
    }
}

#[test]
fn regression_scan_bits_all_hot() {
    check(
        BrickStates::AllHot,
        &queries(),
        &[
            ("full", 1, 6000, 0x35c7f27be1dd5e9c),
            ("pruned", 1, 1247, 0xdbac9b26ac5732b4),
            ("group_ds", 90, 6000, 0x5ffd93252d0acb01),
            ("group_entity", 300, 6000, 0x3d58b3618659d3ea),
            ("filter_entity", 1, 15, 0xbc5a674f7012350c),
            ("min_max_avg", 1, 2077, 0xf64cba32b983e9d1),
            ("in_lists", 1, 6, 0x826d14b62cdcc352),
            ("two_dims", 5390, 6000, 0x5b9eff5930cd6cfe),
            ("group_filtered_dim", 5, 88, 0xd2ed611eda0f6182),
            ("wide_domain", 5802, 6000, 0xfcf364afb5c848fe),
            ("wide_two_dims", 635, 635, 0xc2f13cc18c4c615c),
            ("unsatisfiable", 0, 0, 0xe95a99b42490b591),
            ("matches_nothing", 0, 0, 0xe95a99b42490b591),
            ("store_stats", 3, 1659, 0xfd8831c49f8a5068),
        ],
    );
}

#[test]
fn regression_scan_bits_all_cold() {
    check(
        BrickStates::AllCold,
        &queries(),
        &[
            ("full", 1, 6000, 0x35c7f27be1dd5e9c),
            ("pruned", 1, 1247, 0xdbac9b26ac5732b4),
            ("group_ds", 90, 6000, 0x5ffd93252d0acb01),
            ("group_entity", 300, 6000, 0x3d58b3618659d3ea),
            ("filter_entity", 1, 15, 0xbc5a674f7012350c),
            ("min_max_avg", 1, 2077, 0xf64cba32b983e9d1),
            ("in_lists", 1, 6, 0x826d14b62cdcc352),
            ("two_dims", 5390, 6000, 0x5b9eff5930cd6cfe),
            ("group_filtered_dim", 5, 88, 0xd2ed611eda0f6182),
            ("wide_domain", 5802, 6000, 0xfcf364afb5c848fe),
            ("wide_two_dims", 635, 635, 0xc2f13cc18c4c615c),
            ("unsatisfiable", 0, 0, 0xe95a99b42490b591),
            ("matches_nothing", 0, 0, 0xe95a99b42490b591),
            ("store_stats", 3, 1659, 0x5cacbe8eaa7a7c51),
        ],
    );
}

#[test]
fn regression_scan_bits_mixed_states() {
    check(
        BrickStates::Mixed,
        &queries(),
        &[
            ("full", 1, 6150, 0x8c0f11a7638cbba5),
            ("pruned", 1, 1284, 0x486c714f3532097e),
            ("group_ds", 90, 6150, 0x2729f7ab892a53ac),
            ("group_entity", 300, 6150, 0xbc64544f423c0c63),
            ("filter_entity", 1, 15, 0xbc5a674f7012350c),
            ("min_max_avg", 1, 2127, 0x9b808033f5bec363),
            ("in_lists", 1, 6, 0x826d14b62cdcc352),
            ("two_dims", 5507, 6150, 0x27b7058e46564398),
            ("group_filtered_dim", 5, 92, 0xb2ac2c2a9386ebae),
            ("wide_domain", 5946, 6150, 0x15874d45c4259236),
            ("wide_two_dims", 658, 658, 0xec6d057f20cd3471),
            ("unsatisfiable", 0, 0, 0xe95a99b42490b591),
            ("matches_nothing", 0, 0, 0xe95a99b42490b591),
            ("store_stats", 3, 1731, 0xb9799cbf2b277efb),
        ],
    );
}

#[test]
fn regression_scan_bits_dense_min_max() {
    let queries = dense_min_max_queries();
    check(
        BrickStates::AllHot,
        &queries,
        &[
            ("dense_min_max_ds", 31, 2077, 0xa75ddc7cb2f5a565),
            ("dense_min_max_ds_entity", 1842, 2077, 0x8b049ece9faa08db),
            ("dense_min_ds_entity", 1842, 2077, 0x20d4b5b318267b74),
            ("dense_max_entity_ds", 1842, 2077, 0x75eac30df5340d57),
            ("store_stats", 3, 432, 0x9f80cbeefe277b21),
        ],
    );
    check(
        BrickStates::AllCold,
        &queries,
        &[
            ("dense_min_max_ds", 31, 2077, 0xa75ddc7cb2f5a565),
            ("dense_min_max_ds_entity", 1842, 2077, 0x8b049ece9faa08db),
            ("dense_min_ds_entity", 1842, 2077, 0x20d4b5b318267b74),
            ("dense_max_entity_ds", 1842, 2077, 0x75eac30df5340d57),
            ("store_stats", 3, 432, 0x5f6b56d1ad3f9486),
        ],
    );
    check(
        BrickStates::Mixed,
        &queries,
        &[
            ("dense_min_max_ds", 31, 2127, 0x114a32086b90fb55),
            ("dense_min_max_ds_entity", 1878, 2127, 0x176a37d0ac6bc0ca),
            ("dense_min_ds_entity", 1878, 2127, 0x41a9296864ae2f51),
            ("dense_max_entity_ds", 1878, 2127, 0xcf7b082b1f833d58),
            ("store_stats", 3, 504, 0x80e33fec5feeb48c),
        ],
    );
}

/// `min` and `max` answer an infinite metric like any other value: a group
/// holding `{1, -inf}` has minimum `-inf`, one holding `{+inf, 3}` has
/// maximum `+inf`, per partition and after the merge. A group exists only
/// once a row lands in it, so no engine path finalizes an empty one.
#[test]
fn min_max_over_infinite_metrics_answer_their_value() {
    let schema = Arc::new(
        SchemaBuilder::new()
            .int_dim("ds", 0, DS_MAX, 15)
            .metric("cost")
            .build()
            .unwrap(),
    );
    let (inf, neg) = (f64::INFINITY, f64::NEG_INFINITY);
    // (partition, ds, cost): ds 1 is {1, -inf}, ds 2 is {+inf, 3}, ds 3
    // is {-inf, +inf}; each group spans both partitions.
    let rows = [
        (0, 1, 1.0),
        (1, 1, neg),
        (0, 2, inf),
        (1, 2, 3.0),
        (0, 3, neg),
        (1, 3, inf),
    ];
    let mut parts: Vec<PartitionData> =
        (0..2).map(|_| PartitionData::new(schema.clone())).collect();
    for (p, ds, cost) in rows {
        parts[p]
            .ingest(&Row::new(vec![Value::Int(ds)], vec![cost]))
            .unwrap();
    }
    let aggs = || {
        vec![
            AggSpec::new(AggFunc::Min, "cost"),
            AggSpec::new(AggFunc::Max, "cost"),
        ]
    };
    let plan = FanoutPlan::for_table("t", 2);
    let run = |parts: &mut [PartitionData], group_by: &[&str]| {
        let q = query(aggs(), vec![], group_by);
        let partials = parts
            .iter_mut()
            .map(|part| execute_partition(part, &q, 2).unwrap())
            .collect();
        merge_partials(&plan, partials).unwrap()
    };
    let grouped = run(&mut parts, &["ds"]);
    let answers: Vec<(Vec<Value>, Vec<f64>)> =
        grouped.rows.into_iter().map(|r| (r.key, r.aggs)).collect();
    assert_eq!(
        answers,
        vec![
            (vec![Value::Int(1)], vec![neg, 1.0]),
            (vec![Value::Int(2)], vec![3.0, inf]),
            (vec![Value::Int(3)], vec![neg, inf]),
        ]
    );
    // One partition alone: its `{-inf}` and `{+inf}` groups.
    let q = query(aggs(), vec![], &["ds"]);
    let alone = execute_partition(&mut parts[1], &q, 2).unwrap().finalize();
    let aggs_of = |out: &QueryOutput| out.rows.iter().map(|r| r.aggs.clone()).collect::<Vec<_>>();
    assert_eq!(
        aggs_of(&alone),
        vec![vec![neg, neg], vec![3.0, 3.0], vec![inf, inf]]
    );
    let ungrouped = run(&mut parts, &[]);
    assert_eq!(aggs_of(&ungrouped), vec![vec![neg, inf]]);
}
