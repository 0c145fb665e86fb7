//! Single-partition query execution.
//!
//! This is the code path that runs on every server a query fans out to:
//! compile predicates against the local partition, prune bricks through
//! the granular-partitioning grid, filter surviving rows, and accumulate
//! group-by state. Pure compute — all distribution concerns live above.
//!
//! A brick is processed one column at a time (DESIGN.md "Engine scan
//! contract"): the residual filter yields a selection vector, the
//! group-by columns pack into one `u64` key per row, and on a dense key
//! domain that key is the row's slot in the accumulator columns (a wider
//! domain looks its slot up in an ordered map). The row-count column then
//! counts the rows into their groups, and each aggregate that reads a
//! metric folds its column into its own `f64` column, in row order. The
//! partial is built a column at a time as well: the present keys once,
//! in key order, each group-by digit decoded over them into its key
//! column, then the state arena.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::brick::Brick;
use crate::dictionary::{Dictionary, StringRanks};
use crate::error::{CubrickError, CubrickResult};
use crate::query::agg::AggFunc;
use crate::query::expr;
use crate::query::result::{KeyColumn, KeyRef, PartialResult};
use crate::query::Query;
use crate::schema::Schema;
use crate::store::PartitionData;

/// Largest group-key domain whose keys may index the accumulator columns
/// directly. Larger domains hand out slots through an ordered map.
const DENSE_KEY_DOMAIN: u64 = 1 << 16;

/// Largest total size of the dense path's columns, the row count and one
/// `f64` per aggregate that reads a metric, 8 bytes a key each: the
/// row-count column alone at `DENSE_KEY_DOMAIN`. Every column is sized to
/// the domain and filled before the first row and passed over once after
/// the last, so this bounds what a dense query pays however few rows it
/// reads. Past it each further 512 KiB cost a 200-row query about 14 µs on
/// a 2-vCPU box (`scan/group_wide_domain_small`), more than the ordered
/// map costs it.
const DENSE_COLUMN_BYTES: u64 = DENSE_KEY_DOMAIN * 8;

/// One group-by dimension's digit in the packed key.
struct Digit {
    dim: usize,
    /// Dictionary length (strings) or ordinal count (integers).
    radix: u64,
    /// String dimensions only: integer ordinals already order like
    /// their values, dictionary ids order like first appearance.
    strings: Option<Arc<StringRanks>>,
}

/// The group-by values of a row packed into one mixed-radix `u64`, first
/// group-by dimension most significant. A digit is the integer ordinal
/// or the string's rank, so keys order exactly like the decoded group
/// values and every key is below `domain`. The ungrouped query has no
/// digits: domain 1, key 0.
struct KeyLayout {
    digits: Vec<Digit>,
    domain: u64,
}

impl KeyLayout {
    fn new(partition: &mut PartitionData, schema: &Schema, query: &Query) -> CubrickResult<Self> {
        let mut digits = Vec::with_capacity(query.group_by.len());
        let mut domain = 1u64;
        for name in &query.group_by {
            let dim = schema
                .dim_index(name)
                .ok_or_else(|| CubrickError::NoSuchColumn {
                    table: query.table.clone(),
                    column: name.clone(),
                })?;
            let strings = partition.string_ranks(dim);
            let radix = match &strings {
                Some(ranks) => ranks.id_of_rank.len() as u64,
                None => schema.dimensions[dim].cardinality(),
            };
            domain = domain
                .checked_mul(radix)
                .ok_or_else(|| CubrickError::InvalidQuery {
                    detail: format!("group by {:?}: key space exceeds 64 bits", query.group_by),
                })?;
            digits.push(Digit {
                dim,
                radix,
                strings,
            });
        }
        Ok(KeyLayout { digits, domain })
    }

    fn reads_dim(&self, dim: usize) -> bool {
        self.digits.iter().any(|digit| digit.dim == dim)
    }

    /// One key per selected row of `brick` into `scratch.keys`, built a
    /// dimension column at a time.
    fn pack(&self, brick: &Brick, sel: Option<&[u32]>, rows: usize, scratch: &mut Scratch) {
        scratch.keys.clear();
        scratch.keys.resize(rows, 0);
        for digit in &self.digits {
            let column = gather(brick.dim(digit.dim), sel, &mut scratch.ordinals);
            let keys = scratch.keys.iter_mut().zip(column);
            match &digit.strings {
                None => keys.for_each(|(key, &ord)| *key = *key * digit.radix + u64::from(ord)),
                Some(ranks) => keys.for_each(|(key, &id)| {
                    *key = *key * digit.radix + u64::from(ranks.rank_of_id[id as usize]);
                }),
            }
        }
    }

    /// The key columns of `groups` (ascending keys), one digit at a time:
    /// an integer ordinal becomes its value, a string rank its dictionary
    /// id and then its string. The first digit is whatever the others
    /// leave, so it takes no remainder.
    fn decode(
        &self,
        groups: &[(u64, usize)],
        partition: &PartitionData,
        schema: &Schema,
    ) -> CubrickResult<Vec<KeyColumn>> {
        let mut columns = Vec::with_capacity(self.digits.len());
        // The product of the radices after this digit; a key exists only
        // when every radix is at least 1, so it never divides by zero.
        let mut stride = 1u64;
        for (place, digit) in self.digits.iter().enumerate().rev() {
            let value = |key: u64| match place {
                0 => key / stride,
                _ => key / stride % digit.radix,
            };
            let undecodable = |key: u64| CubrickError::Internal {
                detail: format!(
                    "group key digit {} of dimension {} does not decode",
                    value(key),
                    digit.dim
                ),
            };
            let column = match &digit.strings {
                None => {
                    let dim = &schema.dimensions[digit.dim];
                    let mut ints = Vec::with_capacity(groups.len());
                    for &(key, _) in groups {
                        let ordinal = u32::try_from(value(key)).ok();
                        let int = ordinal.and_then(|ordinal| dim.int_value(ordinal));
                        ints.push(int.ok_or_else(|| undecodable(key))?);
                    }
                    KeyColumn::Int(ints)
                }
                Some(ranks) => {
                    // Room for the whole dictionary, so one buffer whatever
                    // strings the groups are.
                    let dict = partition.dict(digit.dim);
                    let bytes = dict.map_or(0, Dictionary::bytes);
                    let mut column = KeyColumn::str_with_capacity(groups.len(), bytes);
                    for &(key, _) in groups {
                        let id = ranks.id_of_rank.get(value(key) as usize);
                        let string = id.and_then(|&id| dict?.decode(id));
                        column.push(KeyRef::Str(string.ok_or_else(|| undecodable(key))?))?;
                    }
                    column
                }
            };
            columns.push(column);
            stride *= digit.radix;
        }
        columns.reverse();
        Ok(columns)
    }
}

/// `column` itself when every row is selected, else its selected rows
/// gathered into `buf`.
fn gather<'a, T: Copy>(column: &'a [T], sel: Option<&[u32]>, buf: &'a mut Vec<T>) -> &'a [T] {
    match sel {
        None => column,
        Some(sel) => {
            buf.clear();
            buf.extend(sel.iter().map(|&r| column[r as usize]));
            buf
        }
    }
}

/// What an aggregate's column holds before any row: the value its first
/// row folds into. `count` has no column; the row count is its state.
fn identity(func: AggFunc) -> Option<f64> {
    match func {
        AggFunc::Count => None,
        AggFunc::Sum | AggFunc::Avg => Some(0.0),
        AggFunc::Min => Some(f64::INFINITY),
        AggFunc::Max => Some(f64::NEG_INFINITY),
    }
}

/// The running state of every group, a column per value, indexed by
/// slot: the rows each group holds, and one `f64` per group for every
/// aggregate that reads a metric. On a dense key domain the slot is the
/// packed key and the columns are sized to the domain up front; a wider
/// domain hands out slots in first-seen order and grows the columns one
/// slot at a time.
struct GroupTable {
    /// The slot of every key seen; `None` on a dense domain.
    wide: Option<BTreeMap<u64, u32>>,
    /// Rows per slot. Non-zero marks a present group, and it is the
    /// count of `count` and of `avg`.
    rows: Vec<u64>,
    /// Per aggregate, `identity(func)` and then every row folded in;
    /// empty for `count`.
    values: Vec<Vec<f64>>,
    funcs: Vec<AggFunc>,
}

impl GroupTable {
    /// Dense or wide is chosen from the key domain and the aggregate list
    /// alone, so a query takes the same path on every partition state.
    fn new(domain: u64, funcs: Vec<AggFunc>) -> Self {
        let columns = 1 + funcs.iter().filter(|&&f| identity(f).is_some()).count() as u64;
        let dense = domain <= DENSE_KEY_DOMAIN && domain * columns * 8 <= DENSE_COLUMN_BYTES;
        let slots = if dense { domain as usize } else { 0 };
        let column = |&func: &AggFunc| identity(func).map_or_else(Vec::new, |v| vec![v; slots]);
        GroupTable {
            wide: (!dense).then(BTreeMap::new),
            rows: vec![0; slots],
            values: funcs.iter().map(column).collect(),
            funcs,
        }
    }

    /// Packed keys into slots, in place. A dense domain's keys already
    /// are; a wide one's new key takes the next slot, and every column
    /// grows by it.
    fn assign_slots(&mut self, keys: &mut [u64]) {
        let GroupTable {
            wide: Some(slots),
            rows,
            values,
            funcs,
        } = self
        else {
            return;
        };
        for key in keys {
            let next = rows.len() as u32;
            let slot = *slots.entry(*key).or_insert(next);
            if slot == next {
                rows.push(0);
                for (column, &func) in values.iter_mut().zip(funcs.iter()) {
                    column.extend(identity(func));
                }
            }
            *key = u64::from(slot);
        }
    }

    /// Count the rows into their groups.
    fn count(&mut self, rows: Rows<'_>) {
        match rows {
            Rows::OneSlot { rows: n } => {
                if let Some(count) = self.rows.first_mut() {
                    *count += n as u64;
                }
            }
            Rows::Slots(slots) => slots.iter().for_each(|&slot| self.rows[slot as usize] += 1),
        }
    }

    /// Fold one aggregate's metric column into its rows' slots, in row
    /// order. `AggFunc` is matched once per column, not per row, and
    /// there is one scalar per (group, aggregate), so every sum adds in
    /// the order the rows are stored.
    fn fold(&mut self, agg: usize, rows: Rows<'_>, values: &[f64]) {
        let column = &mut self.values[agg];
        match self.funcs[agg] {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => each(column, rows, values, |acc, v| acc + v),
            AggFunc::Min => each(column, rows, values, f64::min),
            AggFunc::Max => each(column, rows, values, f64::max),
        }
    }

    /// The groups rows landed in, ascending by key, with their slots. No
    /// more of them than `rows` were scanned.
    fn present(&self, rows: u64) -> Vec<(u64, usize)> {
        match &self.wide {
            None => {
                let bound = usize::try_from(rows).unwrap_or(usize::MAX);
                let mut groups = Vec::with_capacity(bound.min(self.rows.len()));
                let keys = (0..).zip(&self.rows).filter(|&(_, &n)| n > 0);
                groups.extend(keys.map(|(key, _)| (key, key as usize)));
                groups
            }
            Some(slots) => slots
                .iter()
                .map(|(&key, &slot)| (key, slot as usize))
                .collect(),
        }
    }

    /// The partial's accumulator columns over the groups of `present`, in
    /// its order: the row count for each aggregate that counts rows, and
    /// each metric column.
    fn columns(&self, present: &[(u64, usize)]) -> (Vec<Vec<u64>>, Vec<Vec<f64>>) {
        let rows = |&func: &AggFunc| {
            let counts = matches!(func, AggFunc::Count | AggFunc::Avg);
            by_slot(if counts { &self.rows } else { &[] }, present)
        };
        let values = self.values.iter().map(|column| by_slot(column, present));
        (self.funcs.iter().map(rows).collect(), values.collect())
    }
}

/// `column`'s value at each slot of `present`, in its order; an empty
/// column (an aggregate's that does not keep it) stays empty.
fn by_slot<T: Copy>(column: &[T], present: &[(u64, usize)]) -> Vec<T> {
    if column.is_empty() {
        return Vec::new();
    }
    present.iter().map(|&(_, slot)| column[slot]).collect()
}

/// `step` each of `values` into its row's slot of `column`, in row order.
fn each(column: &mut [f64], rows: Rows<'_>, values: &[f64], step: impl Fn(f64, f64) -> f64) {
    match rows {
        // One accumulator for the whole column, kept in a register.
        Rows::OneSlot { .. } => {
            if let Some(acc) = column.first_mut() {
                *acc = values.iter().fold(*acc, |acc, &v| step(acc, v));
            }
        }
        Rows::Slots(slots) => {
            for (&slot, &v) in slots.iter().zip(values) {
                let acc = &mut column[slot as usize];
                *acc = step(*acc, v);
            }
        }
    }
}

/// Where the selected rows of one brick accumulate.
#[derive(Clone, Copy)]
enum Rows<'a> {
    /// All `rows` of them in slot 0: the ungrouped query.
    OneSlot { rows: usize },
    /// Row by row, the slot of each.
    Slots(&'a [u64]),
}

/// Per-brick buffers, reused from brick to brick.
#[derive(Default)]
struct Scratch {
    ordinals: Vec<u32>,
    keys: Vec<u64>,
    values: Vec<f64>,
}

/// Execute `query` over one partition, producing a mergeable partial.
///
/// `table_partitions` is the table's current partition count, stamped
/// into result metadata for the proxy's cache (§IV-C).
pub fn execute_partition(
    partition: &mut PartitionData,
    query: &Query,
    table_partitions: u32,
) -> CubrickResult<PartialResult> {
    let schema = partition.schema().clone();

    // Resolve each aggregate's metric column; `count` reads none.
    let funcs: Vec<AggFunc> = query.aggs.iter().map(|a| a.func).collect();
    let mut metric_cols: Vec<Option<usize>> = Vec::with_capacity(query.aggs.len());
    for agg in &query.aggs {
        let col = agg.metric_index(&schema, &query.table)?;
        metric_cols.push(col.filter(|_| agg.func != AggFunc::Count));
    }
    let layout = KeyLayout::new(partition, &schema, query)?;

    let compiled = expr::compile(partition, &query.predicates)?;
    if !compiled.satisfiable {
        return Ok(PartialResult::new(query.aggs.clone(), table_partitions));
    }

    let mut table = GroupTable::new(layout.domain, funcs);
    let mut rows_scanned = 0u64;
    let mut selected: Vec<u32> = Vec::new();
    let mut scratch = Scratch::default();

    partition.scan_bricks(
        &compiled.per_dim,
        |d| layout.reads_dim(d),
        |m| metric_cols.contains(&Some(m)),
        |brick, residual| {
            // Residual filter at row granularity (buckets are coarse),
            // skipped when the brick's buckets lie inside the predicate.
            let sel = if residual.is_empty() {
                None
            } else {
                compiled.select_rows(brick, residual, &mut selected);
                Some(selected.as_slice())
            };
            let rows = sel.map_or(brick.rows(), <[u32]>::len);
            if rows == 0 {
                return;
            }
            rows_scanned += rows as u64;

            let target = if layout.digits.is_empty() {
                Rows::OneSlot { rows }
            } else {
                layout.pack(brick, sel, rows, &mut scratch);
                table.assign_slots(&mut scratch.keys);
                Rows::Slots(&scratch.keys)
            };
            table.count(target);
            for (agg, col) in metric_cols.iter().enumerate() {
                if let Some(m) = col {
                    let values = gather(brick.metric(*m), sel, &mut scratch.values);
                    table.fold(agg, target, values);
                }
            }
        },
    );

    // The partial a column at a time: the present keys once, in packed-key
    // order (the order of the decoded keys), each digit decoded over them,
    // then each accumulator column gathered over their slots.
    let groups = table.present(rows_scanned);
    let keys = layout.decode(&groups, partition, &schema)?;
    let (counts, values) = table.columns(&groups);
    let aggs = query.aggs.clone();
    let mut result =
        PartialResult::from_columns(aggs, table_partitions, keys, groups.len(), counts, values)?;
    result.rows_scanned = rows_scanned;
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::agg::{AggFunc, AggSpec};
    use crate::query::expr::Predicate;
    use crate::schema::SchemaBuilder;
    use crate::value::{Row, Value};
    use std::sync::Arc;

    fn partition() -> PartitionData {
        let schema = Arc::new(
            SchemaBuilder::new()
                .int_dim("ds", 0, 100, 10)
                .str_dim("country", 100, 10)
                .metric("clicks")
                .metric("cost")
                .build()
                .unwrap(),
        );
        let mut p = PartitionData::new(schema);
        // 100 days × 3 countries; clicks = ds, cost = 1.0
        for ds in 0..100i64 {
            for c in ["US", "BR", "IN"] {
                p.ingest(&Row::new(
                    vec![Value::Int(ds), Value::from(c)],
                    vec![ds as f64, 1.0],
                ))
                .unwrap();
            }
        }
        p
    }

    fn q(aggs: Vec<AggSpec>, predicates: Vec<Predicate>, group_by: Vec<&str>) -> Query {
        Query {
            table: "t".into(),
            aggs,
            predicates,
            group_by: group_by.into_iter().map(String::from).collect(),
            order_by: None,
            limit: None,
        }
    }

    #[test]
    fn count_star_full_scan() {
        let mut p = partition();
        let out = execute_partition(&mut p, &q(vec![AggSpec::count_star()], vec![], vec![]), 8)
            .unwrap()
            .finalize();
        assert_eq!(out.scalar(), Some(300.0));
        assert_eq!(out.table_partitions, 8);
        assert_eq!(out.rows_scanned, 300);
    }

    #[test]
    fn filtered_sum_matches_oracle() {
        let mut p = partition();
        // sum(clicks) where ds between 10 and 19 and country = 'US'
        let query = q(
            vec![AggSpec::new(AggFunc::Sum, "clicks")],
            vec![
                Predicate::between("ds", 10, 19),
                Predicate::eq("country", "US"),
            ],
            vec![],
        );
        let out = execute_partition(&mut p, &query, 8).unwrap().finalize();
        let oracle: f64 = (10..=19).map(|v| v as f64).sum();
        assert_eq!(out.scalar(), Some(oracle));
        // Pruning: only 1 of 10 ds-buckets scanned.
        assert_eq!(p.stats().bricks_scanned, 1);
        assert_eq!(p.stats().bricks_pruned, 9);
    }

    #[test]
    fn residual_filter_inside_brick() {
        let mut p = partition();
        // ds = 15 shares a bucket with 10..=19; the row filter must trim.
        let query = q(
            vec![AggSpec::count_star()],
            vec![Predicate::eq("ds", 15i64)],
            vec![],
        );
        let out = execute_partition(&mut p, &query, 8).unwrap().finalize();
        assert_eq!(out.scalar(), Some(3.0), "3 countries at ds=15");
    }

    #[test]
    fn group_by_string_dimension() {
        let mut p = partition();
        let query = q(
            vec![AggSpec::count_star(), AggSpec::new(AggFunc::Avg, "clicks")],
            vec![],
            vec!["country"],
        );
        let out = execute_partition(&mut p, &query, 8).unwrap().finalize();
        assert_eq!(out.rows.len(), 3);
        // Sorted: BR, IN, US.
        assert_eq!(out.rows[0].key, vec![Value::Str("BR".into())]);
        assert_eq!(out.rows[2].key, vec![Value::Str("US".into())]);
        for row in &out.rows {
            assert_eq!(row.aggs[0], 100.0);
            assert!((row.aggs[1] - 49.5).abs() < 1e-9);
        }
    }

    #[test]
    fn group_by_int_dimension_with_filter() {
        let mut p = partition();
        let query = q(
            vec![AggSpec::new(AggFunc::Sum, "cost")],
            vec![Predicate::is_in("ds", vec![Value::Int(5), Value::Int(50)])],
            vec!["ds"],
        );
        let out = execute_partition(&mut p, &query, 8).unwrap().finalize();
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.rows[0].key, vec![Value::Int(5)]);
        assert_eq!(out.rows[0].aggs, vec![3.0]);
        assert_eq!(out.rows[1].key, vec![Value::Int(50)]);
    }

    #[test]
    fn min_max_metrics() {
        let mut p = partition();
        let query = q(
            vec![
                AggSpec::new(AggFunc::Min, "clicks"),
                AggSpec::new(AggFunc::Max, "clicks"),
            ],
            vec![Predicate::between("ds", 20, 30)],
            vec![],
        );
        let out = execute_partition(&mut p, &query, 8).unwrap().finalize();
        assert_eq!(out.rows[0].aggs, vec![20.0, 30.0]);
    }

    #[test]
    fn unsatisfiable_predicate_returns_empty() {
        let mut p = partition();
        let query = q(
            vec![AggSpec::count_star()],
            vec![Predicate::eq("country", "ZZ")],
            vec![],
        );
        let out = execute_partition(&mut p, &query, 8).unwrap().finalize();
        assert!(out.rows.is_empty());
        assert_eq!(p.stats().bricks_scanned, 0, "nothing scanned at all");
    }

    #[test]
    fn execution_identical_after_compression() {
        let mut a = partition();
        let mut b = partition();
        let zero = crate::hotness::MemoryMonitorConfig {
            budget_bytes: 0,
            ..Default::default()
        };
        b.run_memory_monitor(&zero);
        let query = q(
            vec![AggSpec::new(AggFunc::Sum, "clicks")],
            vec![Predicate::eq("country", "BR")],
            vec!["ds"],
        );
        let out_a = execute_partition(&mut a, &query, 8).unwrap().finalize();
        let out_b = execute_partition(&mut b, &query, 8).unwrap().finalize();
        assert_eq!(out_a, out_b);
    }

    #[test]
    fn group_by_two_dimensions_orders_by_decoded_key() {
        let mut p = partition();
        let query = q(
            vec![AggSpec::count_star()],
            vec![Predicate::between("ds", 98, 99)],
            vec!["country", "ds"],
        );
        let out = execute_partition(&mut p, &query, 8).unwrap().finalize();
        // Dictionary ids run US, BR, IN; the output runs BR, IN, US.
        let keys: Vec<_> = out.rows.iter().map(|r| r.key.clone()).collect();
        let expect: Vec<Vec<Value>> = ["BR", "IN", "US"]
            .iter()
            .flat_map(|c| [98, 99].map(|ds| vec![Value::from(*c), Value::Int(ds)]))
            .collect();
        assert_eq!(keys, expect);
        assert!(out.rows.iter().all(|r| r.aggs == vec![1.0]));
    }

    /// A key domain past `DENSE_KEY_DOMAIN` takes the ordered slot map
    /// and answers like the dense path does.
    #[test]
    fn wide_key_domain_groups_through_the_ordered_map() {
        let schema = Arc::new(
            SchemaBuilder::new()
                .int_dim("uid", 0, 1 << 20, 1 << 18)
                .metric("m")
                .build()
                .unwrap(),
        );
        assert!(schema.dimensions[0].cardinality() > DENSE_KEY_DOMAIN);
        let mut p = PartitionData::new(schema);
        for i in 0..300i64 {
            let uid = (i * 7_919) % 50 * 20_000;
            p.ingest(&Row::new(vec![Value::Int(uid)], vec![i as f64]))
                .unwrap();
        }
        let query = q(
            vec![AggSpec::count_star(), AggSpec::new(AggFunc::Sum, "m")],
            vec![],
            vec!["uid"],
        );
        let out = execute_partition(&mut p, &query, 1).unwrap().finalize();
        assert_eq!(out.rows.len(), 50);
        assert_eq!(out.rows_scanned, 300);
        for (i, row) in out.rows.iter().enumerate() {
            assert_eq!(row.key, vec![Value::Int(i as i64 * 20_000)]);
            assert_eq!(row.aggs[0], 6.0);
        }
        let total: f64 = out.rows.iter().map(|r| r.aggs[1]).sum();
        assert_eq!(total, (0..300).sum::<i64>() as f64);
    }

    /// Dense or wide follows the key domain and the aggregate list: the
    /// row count and every metric aggregate's column must fit
    /// `DENSE_COLUMN_BYTES` at the domain.
    #[test]
    fn dense_columns_are_bounded_by_domain_and_aggregates() {
        use AggFunc::{Avg, Count, Sum};
        let dense =
            |domain, funcs: &[AggFunc]| GroupTable::new(domain, funcs.to_vec()).wide.is_none();
        assert!(dense(1, &[]));
        assert!(dense(DENSE_KEY_DOMAIN, &[Count]));
        assert!(!dense(DENSE_KEY_DOMAIN + 1, &[Count]));
        assert!(!dense(DENSE_KEY_DOMAIN, &[Count, Sum]));
        assert!(dense(DENSE_KEY_DOMAIN / 2, &[Count, Sum]));
        assert!(dense(DENSE_KEY_DOMAIN / 3, &[Sum, Avg, Count]));
        assert!(!dense(DENSE_KEY_DOMAIN / 3 + 1, &[Sum, Avg, Count]));
    }

    #[test]
    fn group_key_space_past_64_bits_is_a_typed_error() {
        let mut b = SchemaBuilder::new();
        for name in ["a", "b", "c"] {
            b = b.int_dim(name, 0, 1 << 31, 1 << 30);
        }
        let mut p = PartitionData::new(Arc::new(b.metric("m").build().unwrap()));
        let query = q(vec![AggSpec::count_star()], vec![], vec!["a", "b", "c"]);
        assert!(matches!(
            execute_partition(&mut p, &query, 1),
            Err(CubrickError::InvalidQuery { .. })
        ));
        let query = q(vec![AggSpec::count_star()], vec![], vec!["a", "b"]);
        assert!(execute_partition(&mut p, &query, 1).is_ok());
    }

    #[test]
    fn errors_propagate() {
        let mut p = partition();
        let query = q(vec![AggSpec::new(AggFunc::Sum, "nope")], vec![], vec![]);
        assert!(execute_partition(&mut p, &query, 8).is_err());
        let query = q(vec![AggSpec::count_star()], vec![], vec!["nope"]);
        assert!(execute_partition(&mut p, &query, 8).is_err());
    }
}
