//! Naive reference for query answers: decode every stored row with
//! `PartitionData::all_rows()` and evaluate the query row by row. Shares
//! no code with `cubrick::query::exec` beyond the value types.

use std::collections::BTreeMap;

use cubrick::query::{AggFunc, PredOp, Query, QueryOutput};
use cubrick::schema::Schema;
use cubrick::value::{Row, Value};
use scalewall_cluster::deployment::Deployment;

fn value_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Str(x), Value::Str(y)) => x == y,
        _ => false,
    }
}

fn matches(schema: &Schema, query: &Query, row: &Row) -> bool {
    query.predicates.iter().all(|pred| {
        let Some(d) = schema.dim_index(&pred.dim) else {
            return false;
        };
        let v = &row.dims[d];
        match &pred.op {
            PredOp::Eq(x) => value_eq(v, x),
            PredOp::In(xs) => xs.iter().any(|x| value_eq(v, x)),
            PredOp::Between(lo, hi) => v.as_int().is_some_and(|i| *lo <= i && i <= *hi),
        }
    })
}

/// (count, sum, min, max) per aggregate: enough for every `AggFunc`.
type Acc = (u64, f64, f64, f64);

fn key_string(key: &[Value]) -> String {
    key.iter().map(|v| format!("{v}\u{1f}")).collect()
}

/// Fold `rows` into `groups`: group key (rendered) → accumulators in
/// `query.aggs` order.
fn accumulate(
    schema: &Schema,
    query: &Query,
    rows: &[Row],
    groups: &mut BTreeMap<String, Vec<Acc>>,
) {
    let group_dims: Vec<usize> = query
        .group_by
        .iter()
        .map(|name| schema.dim_index(name).expect("group-by names a dimension"))
        .collect();
    let metric_cols: Vec<Option<usize>> = query
        .aggs
        .iter()
        .map(|a| a.metric.as_deref().and_then(|m| schema.metric_index(m)))
        .collect();
    for row in rows.iter().filter(|r| matches(schema, query, r)) {
        let key: Vec<Value> = group_dims.iter().map(|&d| row.dims[d].clone()).collect();
        let accs = groups
            .entry(key_string(&key))
            .or_insert_with(|| vec![(0, 0.0, f64::INFINITY, f64::NEG_INFINITY); query.aggs.len()]);
        for (acc, col) in accs.iter_mut().zip(&metric_cols) {
            let v = col.map_or(0.0, |m| row.metrics[m]);
            *acc = (acc.0 + 1, acc.1 + v, acc.2.min(v), acc.3.max(v));
        }
    }
}

fn finalize(query: &Query, accs: &[Acc]) -> Vec<f64> {
    accs.iter()
        .zip(&query.aggs)
        .map(|(&(n, sum, min, max), agg)| match agg.func {
            AggFunc::Count => n as f64,
            AggFunc::Sum => sum,
            AggFunc::Min => min,
            AggFunc::Max => max,
            AggFunc::Avg => sum / n as f64,
        })
        .collect()
}

/// Check the program's `output` for `query` against the naive scan of
/// region 0's copy of the table. Sums may differ in the last bits
/// (different addition order), nothing else may.
pub fn check(dep: &Deployment, query: &Query, output: &QueryOutput) -> Result<(), String> {
    let def = dep
        .catalog
        .read()
        .get(&query.table)
        .map_err(|e| format!("oracle: {e}"))?
        .clone();
    // One partition's rows at a time, so the reference never holds more
    // than the table itself does.
    let mut groups = BTreeMap::new();
    {
        let store = dep.regions[0].store.read();
        for p in 0..def.partitions {
            if let Some(part) = store.partition(&query.table, p) {
                accumulate(&def.schema, query, &part.all_rows(), &mut groups);
            }
        }
    }
    let expected: BTreeMap<String, Vec<f64>> = groups
        .iter()
        .map(|(key, accs)| (key.clone(), finalize(query, accs)))
        .collect();
    let mut got: BTreeMap<String, &[f64]> = BTreeMap::new();
    for row in &output.rows {
        got.insert(key_string(&row.key), &row.aggs);
    }
    if expected.len() != got.len() {
        return Err(format!(
            "{query:?}: {} groups, naive scan has {}",
            got.len(),
            expected.len()
        ));
    }
    for (key, want) in &expected {
        let Some(have) = got.get(key) else {
            return Err(format!("{query:?}: group {key:?} missing"));
        };
        for (w, h) in want.iter().zip(have.iter()) {
            if (w - h).abs() > 1e-9 * w.abs().max(1.0) {
                return Err(format!(
                    "{query:?}: group {key:?} is {h}, naive scan says {w}"
                ));
            }
        }
    }
    Ok(())
}
