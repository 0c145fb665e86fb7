//! Property-based integration: distributed query results must equal a
//! naive row-store oracle for randomized workloads, schemas, predicates,
//! group-bys and brick states, and the coordinator's consuming merge must
//! equal a naive per-key fold of the same partials.

use scalewall::cubrick::coordinator::{merge_partials, FanoutPlan};
use scalewall::cubrick::error::CubrickError;
use scalewall::cubrick::hotness::MemoryMonitorConfig;
use scalewall::cubrick::query::result::GroupVal;
use scalewall::cubrick::query::{
    execute_partition, AggFunc, AggSpec, AggState, PartialResult, Predicate, Query,
};
use scalewall::cubrick::schema::SchemaBuilder;
use scalewall::cubrick::store::PartitionData;
use scalewall::cubrick::value::{Row, Value};
use scalewall::sim::prop::{self, gen};
use scalewall::sim::SimRng;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

const DS_MAX: i64 = 60;
const APPS: usize = 6;

#[derive(Debug, Clone)]
struct OracleRow {
    ds: i64,
    app: usize,
    m: f64,
}

/// What the memory monitor did to a partition before the query runs.
#[derive(Debug, Clone, Copy)]
enum BrickStates {
    Hot,
    Cold,
    /// The first two thirds of the rows compressed, the last third
    /// ingested on top: hot and cold bricks side by side, some of them
    /// re-heated by the late rows.
    Mixed,
}

fn gen_states(rng: &mut SimRng) -> BrickStates {
    *rng.pick(&[BrickStates::Hot, BrickStates::Cold, BrickStates::Mixed])
}

fn partition_from(rows: &[OracleRow], states: BrickStates) -> PartitionData {
    let schema = Arc::new(
        SchemaBuilder::new()
            .int_dim("ds", 0, DS_MAX, 7)
            .str_dim("app", 32, 5)
            .metric("m")
            .build()
            .unwrap(),
    );
    let mut p = PartitionData::new(schema);
    let squeeze = MemoryMonitorConfig {
        budget_bytes: 0,
        ..Default::default()
    };
    let late = match states {
        BrickStates::Mixed => rows.len() - rows.len() / 3,
        BrickStates::Hot | BrickStates::Cold => rows.len(),
    };
    for (i, r) in rows.iter().enumerate() {
        if i == late {
            p.run_memory_monitor(&squeeze);
        }
        p.ingest(&Row::new(
            vec![Value::Int(r.ds), Value::Str(format!("app{}", r.app))],
            vec![r.m],
        ))
        .unwrap();
    }
    if let BrickStates::Cold = states {
        p.run_memory_monitor(&squeeze);
    }
    p
}

fn gen_row(rng: &mut SimRng) -> OracleRow {
    OracleRow {
        ds: rng.below(DS_MAX as u64) as i64,
        app: rng.below(APPS as u64) as usize,
        m: gen::f64_in(rng, -100.0, 100.0),
    }
}

#[derive(Debug, Clone)]
enum Pred {
    DsEq(i64),
    DsBetween(i64, i64),
    AppEq(usize),
    AppIn(Vec<usize>),
}

fn gen_pred(rng: &mut SimRng) -> Pred {
    match rng.below(4) {
        0 => Pred::DsEq(rng.below(DS_MAX as u64) as i64),
        1 => {
            let a = rng.below(DS_MAX as u64) as i64;
            let b = rng.below(DS_MAX as u64) as i64;
            Pred::DsBetween(a.min(b), a.max(b))
        }
        2 => Pred::AppEq(rng.below(APPS as u64) as usize),
        _ => Pred::AppIn(gen::vec_with(rng, 1, 4, |r| r.below(APPS as u64) as usize)),
    }
}

fn matches(r: &OracleRow, p: &Pred) -> bool {
    match p {
        Pred::DsEq(v) => r.ds == *v,
        Pred::DsBetween(lo, hi) => r.ds >= *lo && r.ds <= *hi,
        Pred::AppEq(a) => r.app == *a,
        Pred::AppIn(aps) => aps.contains(&r.app),
    }
}

fn to_predicate(p: &Pred) -> Predicate {
    match p {
        Pred::DsEq(v) => Predicate::eq("ds", *v),
        Pred::DsBetween(lo, hi) => Predicate::between("ds", *lo, *hi),
        Pred::AppEq(a) => Predicate::eq("app", format!("app{a}").as_str()),
        Pred::AppIn(aps) => Predicate::is_in(
            "app",
            aps.iter().map(|a| Value::Str(format!("app{a}"))).collect(),
        ),
    }
}

#[test]
fn sum_and_count_match_oracle() {
    prop::check_n(
        "sum_and_count_match_oracle",
        48,
        |rng| {
            (
                gen::vec_with(rng, 0, 400, gen_row),
                gen::vec_with(rng, 0, 3, gen_pred),
                gen_states(rng),
            )
        },
        |(rows, preds, states)| {
            let mut partition = partition_from(rows, *states);
            let query = Query {
                table: "t".into(),
                aggs: vec![AggSpec::new(AggFunc::Sum, "m"), AggSpec::count_star()],
                predicates: preds.iter().map(to_predicate).collect(),
                group_by: vec![],
                order_by: None,
                limit: None,
            };
            let out = execute_partition(&mut partition, &query, 1).unwrap().finalize();

            let surviving: Vec<&OracleRow> = rows
                .iter()
                .filter(|r| preds.iter().all(|p| matches(r, p)))
                .collect();
            let expect_count = surviving.len() as f64;
            let expect_sum: f64 = surviving.iter().map(|r| r.m).sum();

            if expect_count == 0.0 {
                let count = out.rows.first().map(|r| r.aggs[1]).unwrap_or(0.0);
                assert_eq!(count, 0.0);
            } else {
                assert_eq!(out.rows[0].aggs[1], expect_count);
                assert!(
                    (out.rows[0].aggs[0] - expect_sum).abs() < 1e-6,
                    "sum {} vs oracle {}",
                    out.rows[0].aggs[0],
                    expect_sum
                );
            }
        },
    );
}

#[test]
fn group_by_matches_oracle() {
    prop::check_n(
        "group_by_matches_oracle",
        48,
        |rng| (gen::vec_with(rng, 1, 300, gen_row), gen_pred(rng)),
        |(rows, pred)| {
            let mut partition = partition_from(rows, BrickStates::Hot);
            let query = Query {
                table: "t".into(),
                aggs: vec![AggSpec::new(AggFunc::Min, "m"), AggSpec::new(AggFunc::Max, "m")],
                predicates: vec![to_predicate(pred)],
                group_by: vec!["app".into()],
                order_by: None,
                limit: None,
            };
            let out = execute_partition(&mut partition, &query, 1).unwrap().finalize();

            let mut oracle: HashMap<String, (f64, f64)> = HashMap::new();
            for r in rows.iter().filter(|r| matches(r, pred)) {
                let e = oracle
                    .entry(format!("app{}", r.app))
                    .or_insert((f64::INFINITY, f64::NEG_INFINITY));
                e.0 = e.0.min(r.m);
                e.1 = e.1.max(r.m);
            }
            assert_eq!(out.rows.len(), oracle.len());
            for row in &out.rows {
                let key = row.key[0].as_str().unwrap();
                let (lo, hi) = oracle[key];
                assert!((row.aggs[0] - lo).abs() < 1e-9);
                assert!((row.aggs[1] - hi).abs() < 1e-9);
            }
        },
    );
}

/// Group by one or two dimensions in either order, under any predicates
/// and brick states: every aggregate of every group matches a naive
/// fold, and the groups come out in key order.
#[test]
fn multi_dim_group_by_matches_oracle() {
    prop::check_n(
        "multi_dim_group_by_matches_oracle",
        64,
        |rng| {
            let dims: &[&str] = rng.pick::<&[&str]>(&[
                &["ds", "app"][..],
                &["app", "ds"][..],
                &["app"][..],
                &["ds"][..],
            ]);
            (
                gen::vec_with(rng, 0, 400, gen_row),
                gen::vec_with(rng, 0, 2, gen_pred),
                dims,
                gen_states(rng),
            )
        },
        |(rows, preds, dims, states)| {
            let mut partition = partition_from(rows, *states);
            let funcs = [
                AggFunc::Count,
                AggFunc::Sum,
                AggFunc::Min,
                AggFunc::Max,
                AggFunc::Avg,
            ];
            let query = Query {
                table: "t".into(),
                aggs: funcs.iter().map(|&f| AggSpec::new(f, "m")).collect(),
                predicates: preds.iter().map(to_predicate).collect(),
                group_by: dims.iter().map(|d| d.to_string()).collect(),
                order_by: None,
                limit: None,
            };
            let out = execute_partition(&mut partition, &query, 1).unwrap().finalize();

            // (count, sum, min, max) per group, keyed like the output.
            let mut oracle: BTreeMap<Vec<GroupVal>, (f64, f64, f64, f64)> = BTreeMap::new();
            let surviving = rows.iter().filter(|r| preds.iter().all(|p| matches(r, p)));
            for r in surviving {
                let key = dims
                    .iter()
                    .map(|&d| match d {
                        "ds" => GroupVal::Int(r.ds),
                        _ => GroupVal::Str(format!("app{}", r.app)),
                    })
                    .collect();
                let e = oracle
                    .entry(key)
                    .or_insert((0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY));
                *e = (e.0 + 1.0, e.1 + r.m, e.2.min(r.m), e.3.max(r.m));
            }
            assert_eq!(out.rows_scanned as f64, oracle.values().map(|e| e.0).sum::<f64>());
            let keys: Vec<Vec<Value>> = oracle
                .keys()
                .map(|key| key.iter().cloned().map(Value::from).collect())
                .collect();
            let got: Vec<&Vec<Value>> = out.rows.iter().map(|r| &r.key).collect();
            assert_eq!(got, keys.iter().collect::<Vec<_>>(), "groups, in key order");
            for (row, (count, sum, min, max)) in out.rows.iter().zip(oracle.values()) {
                assert_eq!(row.aggs[0], *count);
                assert!((row.aggs[1] - sum).abs() < 1e-6, "sum {} vs {sum}", row.aggs[1]);
                assert_eq!(row.aggs[2], *min);
                assert_eq!(row.aggs[3], *max);
                assert!((row.aggs[4] - sum / count).abs() < 1e-6);
            }
        },
    );
}

// ------------------------------------------------------------------ merge

const MERGE_FUNCS: [AggFunc; 5] = [
    AggFunc::Count,
    AggFunc::Sum,
    AggFunc::Min,
    AggFunc::Max,
    AggFunc::Avg,
];

fn gen_state(rng: &mut SimRng, func: AggFunc) -> AggState {
    let v = gen::f64_in(rng, -1e6, 1e6);
    match func {
        AggFunc::Count => AggState::Count(rng.below(1_000)),
        AggFunc::Sum => AggState::Sum(v),
        AggFunc::Min => AggState::Min(v),
        AggFunc::Max => AggState::Max(v),
        AggFunc::Avg => AggState::Avg {
            sum: v,
            count: rng.below(1_000),
        },
    }
}

/// Strings that break a merge comparing anything but whole columns: the
/// empty string, prefixes of one another (`"a"` < `"ab"` < `"abc"`), and
/// pairs whose concatenations collide (`("a", "bc")`, `("ab", "c")`,
/// `("abc", "")`, `("", "abc")`).
const MERGE_STRS: [&str; 9] = ["", "a", "ab", "abc", "b", "bc", "c", "k1", "k10"];
const MERGE_INTS: [i64; 7] = [i64::MIN, -40, -1, 0, 1, 40, i64::MAX];

/// The key columns of one generated query.
#[derive(Debug, Clone, Copy)]
enum KeyShape {
    /// No group-by: the one zero-column key.
    Ungrouped,
    Int,
    Str,
    IntStr,
    StrStr,
}

fn gen_key(rng: &mut SimRng, shape: KeyShape) -> Vec<GroupVal> {
    let int = |rng: &mut SimRng| GroupVal::Int(*rng.pick(&MERGE_INTS));
    let string = |rng: &mut SimRng| GroupVal::Str(rng.pick(&MERGE_STRS).to_string());
    match shape {
        KeyShape::Ungrouped => vec![],
        KeyShape::Int => vec![int(rng)],
        KeyShape::Str => vec![string(rng)],
        KeyShape::IntStr => vec![int(rng), string(rng)],
        KeyShape::StrStr => vec![string(rng), string(rng)],
    }
}

/// Partials of one query, up to the wall's fan-out of 64: a shared agg
/// list and key shape, and per partial a random subset of the shape's
/// key universe; about one partial in four has no group at all, so empty
/// ones sit between non-empty ones.
fn gen_partials(rng: &mut SimRng) -> (KeyShape, Vec<AggSpec>, Vec<PartialResult>) {
    let funcs = gen::vec_with(rng, 1, 4, |r| *r.pick(&MERGE_FUNCS));
    let aggs: Vec<AggSpec> = funcs.iter().map(|&f| AggSpec::new(f, "m")).collect();
    let shape = *rng.pick(&[
        KeyShape::Ungrouped,
        KeyShape::Int,
        KeyShape::Str,
        KeyShape::IntStr,
        KeyShape::StrStr,
    ]);
    let partials = gen::vec_with(rng, 1, 64, |rng| {
        let draws = if rng.below(4) == 0 { 0 } else { 1 + rng.below(24) };
        // A repeated draw of one key keeps the last accumulators.
        let mut groups = BTreeMap::new();
        for _ in 0..draws {
            let states: Vec<AggState> = funcs.iter().map(|&f| gen_state(rng, f)).collect();
            groups.insert(gen_key(rng, shape), states);
        }
        let groups = groups.into_iter().collect();
        let mut partial =
            PartialResult::from_groups(aggs.clone(), 1 + rng.below(64) as u32, groups).unwrap();
        partial.rows_scanned = rng.below(10_000);
        partial
    });
    (shape, aggs, partials)
}

fn state_bits(state: &AggState) -> (u64, u64) {
    match *state {
        AggState::Count(c) => (0, c),
        AggState::Sum(v) | AggState::Min(v) | AggState::Max(v) => (v.to_bits(), 0),
        AggState::Avg { sum, count } => (sum.to_bits(), count),
    }
}

/// The k-way merge equals folding every partial into a map one key at a
/// time, in plan order, bit for bit on every accumulator; the coordinator
/// finalizes exactly that. Partials of another agg list or another key
/// shape are typed errors, wherever in the plan they stand.
#[test]
fn consuming_merge_equals_naive_fold_in_plan_order() {
    prop::check_n(
        "consuming_merge_equals_naive_fold_in_plan_order",
        128,
        gen_partials,
        |(shape, aggs, partials)| {
            let mut naive: BTreeMap<Vec<GroupVal>, Vec<AggState>> = BTreeMap::new();
            for partial in partials {
                for (key, states) in partial.groups() {
                    match naive.get_mut(&key) {
                        Some(mine) => {
                            for (a, b) in mine.iter_mut().zip(&states) {
                                a.merge(b).unwrap();
                            }
                        }
                        None => {
                            naive.insert(key, states);
                        }
                    }
                }
            }
            let merged = PartialResult::merge_all(partials.clone()).unwrap().unwrap();
            let groups = merged.groups();
            assert_eq!(
                groups.iter().map(|(key, _)| key).collect::<Vec<_>>(),
                naive.keys().collect::<Vec<_>>()
            );
            for ((_, got), want) in groups.iter().zip(naive.values()) {
                let bits = |states: &[AggState]| states.iter().map(state_bits).collect::<Vec<_>>();
                assert_eq!(bits(got), bits(want));
            }
            let scanned: u64 = partials.iter().map(|p| p.rows_scanned).sum();
            assert_eq!(merged.rows_scanned, scanned);
            assert_eq!(
                Some(merged.table_partitions),
                partials.iter().map(|p| p.table_partitions).max()
            );

            let plan = FanoutPlan::for_table("t", partials.len() as u32);
            let out = merge_partials(&plan, partials.clone()).unwrap();
            assert_eq!(out, merged.finalize());

            // A stranger among them, first and last in the plan. An empty
            // partial has no key kind to disagree with, so the key-shape
            // half needs a group on both sides.
            let mut strangers = vec![PartialResult::new(vec![AggSpec::count_star(); 5], 1)];
            if let Some((_, states)) = groups.first() {
                let other_key = match shape {
                    KeyShape::Ungrouped | KeyShape::Str => vec![GroupVal::Int(1)],
                    KeyShape::Int => vec![GroupVal::Str("1".into())],
                    KeyShape::IntStr => vec![GroupVal::Int(1), GroupVal::Int(1)],
                    KeyShape::StrStr => vec![GroupVal::Str("a".into()), GroupVal::Int(1)],
                };
                let group = (other_key, states.clone());
                strangers.push(PartialResult::from_groups(aggs.clone(), 1, vec![group]).unwrap());
            }
            for stranger in strangers {
                for at in [0, partials.len()] {
                    let mut with = partials.clone();
                    with.insert(at, stranger.clone());
                    let err = PartialResult::merge_all(with).unwrap_err();
                    assert!(matches!(err, CubrickError::Internal { .. }), "{err:?}");
                }
            }
        },
    );
}

/// Metric values a fold must carry bit for bit: both infinities, NaN,
/// both zeros, the extremes and plain values.
const SPECIAL_VALUES: [f64; 10] =
    [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 0.0, -0.0, f64::MAX, f64::MIN, 1.5, -2.25, 1e-300];

/// Whether the partials of a generated query share keys.
#[derive(Debug, Clone, Copy)]
enum KeySets {
    /// Every key in at most one partial.
    Disjoint,
    /// Every key in each partial with even odds.
    Overlapping,
}

/// Every key of a shape: its values' cross product, ascending.
fn key_universe(shape: KeyShape) -> Vec<Vec<GroupVal>> {
    let ints = MERGE_INTS.map(GroupVal::Int);
    let strs = MERGE_STRS.map(|s| GroupVal::Str(s.to_string()));
    let pairs = |a: &[GroupVal], b: &[GroupVal]| -> Vec<Vec<GroupVal>> {
        a.iter().flat_map(|x| b.iter().map(|y| vec![x.clone(), y.clone()])).collect()
    };
    match shape {
        KeyShape::Ungrouped => vec![vec![]],
        KeyShape::Int => ints.into_iter().map(|v| vec![v]).collect(),
        KeyShape::Str => strs.into_iter().map(|v| vec![v]).collect(),
        KeyShape::IntStr => pairs(&ints, &strs),
        KeyShape::StrStr => pairs(&strs, &strs),
    }
}

/// Partials of one query over int, string and two-column keys, the key
/// sets disjoint or overlapping, about one partial in four without a
/// group, and every accumulator drawn from `SPECIAL_VALUES`.
fn gen_special_partials(rng: &mut SimRng) -> (KeySets, Vec<AggSpec>, Vec<PartialResult>) {
    let funcs = gen::vec_with(rng, 1, 5, |r| *r.pick(&MERGE_FUNCS));
    let aggs: Vec<AggSpec> = funcs.iter().map(|&f| AggSpec::new(f, "m")).collect();
    let shape = *rng.pick(&[KeyShape::Int, KeyShape::Str, KeyShape::IntStr, KeyShape::StrStr]);
    let sets = *rng.pick(&[KeySets::Disjoint, KeySets::Overlapping]);
    let n = gen::usize_in(rng, 1, 12);
    let mut groups: Vec<Vec<(Vec<GroupVal>, Vec<AggState>)>> = vec![Vec::new(); n];
    let empty: Vec<bool> = (0..n).map(|_| rng.below(4) == 0).collect();
    for key in key_universe(shape) {
        for (p, partial) in groups.iter_mut().enumerate() {
            let holds = match sets {
                KeySets::Disjoint => rng.below(n as u64 + 1) == p as u64,
                KeySets::Overlapping => rng.below(2) == 0,
            };
            if holds && !empty[p] {
                let states = funcs.iter().map(|&func| {
                    let v = *rng.pick(&SPECIAL_VALUES);
                    let count = rng.below(1_000);
                    match func {
                        AggFunc::Count => AggState::Count(count),
                        AggFunc::Sum => AggState::Sum(v),
                        AggFunc::Min => AggState::Min(v),
                        AggFunc::Max => AggState::Max(v),
                        AggFunc::Avg => AggState::Avg { sum: v, count },
                    }
                });
                partial.push((key.clone(), states.collect()));
            }
        }
    }
    let partial = |groups| PartialResult::from_groups(aggs.clone(), 8, groups).unwrap();
    let partials = groups.into_iter().map(partial).collect();
    (sets, aggs, partials)
}

/// `v`'s bits, every NaN as one: Rust leaves the sign and payload of a
/// NaN that an operation makes unspecified (two NaNs added may yield
/// either), so two compiled folds may differ there and nowhere else.
fn value_bits(v: f64) -> u64 {
    if v.is_nan() {
        f64::NAN.to_bits()
    } else {
        v.to_bits()
    }
}

/// The columnar merge equals a naive left fold of the partials in plan
/// order, a map of `AggState`s per key, bit for bit on every accumulator
/// and every finalized answer (any NaN as one, see `value_bits`), ±∞ and
/// −0.0 included: a merged group starts as its first partial's
/// accumulators and folds the later ones in, exactly as the left fold
/// does.
#[test]
fn columnar_merge_equals_left_fold_on_special_values() {
    prop::check_n(
        "columnar_merge_equals_left_fold_on_special_values",
        128,
        gen_special_partials,
        |(_, aggs, partials)| {
            let mut naive: BTreeMap<Vec<GroupVal>, Vec<AggState>> = BTreeMap::new();
            for partial in partials {
                for (key, states) in partial.groups() {
                    match naive.get_mut(&key) {
                        Some(mine) => {
                            mine.iter_mut().zip(&states).for_each(|(a, b)| a.merge(b).unwrap())
                        }
                        None => drop(naive.insert(key, states)),
                    }
                }
            }
            let merged = PartialResult::merge_all(partials.clone()).unwrap().unwrap();
            let bits = |states: &[AggState]| {
                let bits = states.iter().map(state_bits);
                bits.map(|(v, n)| (value_bits(f64::from_bits(v)), n)).collect::<Vec<_>>()
            };
            let got: Vec<_> =
                merged.groups().into_iter().map(|(key, states)| (key, bits(&states))).collect();
            let want: Vec<_> =
                naive.iter().map(|(key, states)| (key.clone(), bits(states))).collect();
            assert_eq!(got, want);

            let out = merged.finalize();
            assert_eq!(out.rows.len(), naive.len());
            for (row, states) in out.rows.iter().zip(naive.values()) {
                let answers: Vec<u64> = row.aggs.iter().map(|&v| value_bits(v)).collect();
                let folded: Vec<u64> = states.iter().map(|s| value_bits(s.finalize())).collect();
                assert_eq!(answers, folded, "{aggs:?}");
            }
        },
    );
}

#[test]
fn avg_consistent_with_sum_over_count() {
    prop::check_n(
        "avg_consistent_with_sum_over_count",
        48,
        |rng| gen::vec_with(rng, 1, 200, gen_row),
        |rows| {
            let mut partition = partition_from(rows, BrickStates::Hot);
            let query = Query {
                table: "t".into(),
                aggs: vec![
                    AggSpec::new(AggFunc::Avg, "m"),
                    AggSpec::new(AggFunc::Sum, "m"),
                    AggSpec::count_star(),
                ],
                predicates: vec![],
                group_by: vec![],
                order_by: None,
                limit: None,
            };
            let out = execute_partition(&mut partition, &query, 1).unwrap().finalize();
            let (avg, sum, count) = (out.rows[0].aggs[0], out.rows[0].aggs[1], out.rows[0].aggs[2]);
            assert!((avg - sum / count).abs() < 1e-9);
        },
    );
}

#[test]
fn all_rows_round_trips_everything() {
    prop::check_n(
        "all_rows_round_trips_everything",
        48,
        |rng| (gen::vec_with(rng, 0, 200, gen_row), gen_states(rng)),
        |(rows, states)| {
            let partition = partition_from(rows, *states);
            let mut restored: Vec<(i64, String, f64)> = partition
                .all_rows()
                .into_iter()
                .map(|r| {
                    (
                        r.dims[0].as_int().unwrap(),
                        r.dims[1].as_str().unwrap().to_string(),
                        r.metrics[0],
                    )
                })
                .collect();
            let mut original: Vec<(i64, String, f64)> = rows
                .iter()
                .map(|r| (r.ds, format!("app{}", r.app), r.m))
                .collect();
            restored.sort_by(|a, b| a.partial_cmp(b).unwrap());
            original.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert_eq!(restored, original);
        },
    );
}
