//! Single-partition query execution.
//!
//! This is the code path that runs on every server a query fans out to:
//! compile predicates against the local partition, prune bricks through
//! the granular-partitioning grid, filter surviving rows, and accumulate
//! group-by state. Pure compute — all distribution concerns live above.
//!
//! A brick is processed one column at a time (DESIGN.md "Engine scan
//! contract"): the residual filter yields a selection vector, the
//! group-by columns pack into one `u64` key per row, each key finds its
//! accumulator row, and each aggregate then folds its metric column in
//! row order.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::brick::Brick;
use crate::dictionary::StringRanks;
use crate::error::{CubrickError, CubrickResult};
use crate::query::agg::{AggFunc, AggState};
use crate::query::expr;
use crate::query::result::{KeyRef, PartialResult};
use crate::query::Query;
use crate::schema::Schema;
use crate::store::PartitionData;

/// Largest group-key domain indexed by a dense slot vector (`u32` per
/// possible key: 256 KiB at the limit). Larger domains go through an
/// ordered map.
const DENSE_KEY_DOMAIN: u64 = 1 << 16;

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
            let column = gather(&brick.dims[digit.dim], sel, &mut scratch.ordinals);
            let keys = scratch.keys.iter_mut().zip(column);
            match &digit.strings {
                None => keys.for_each(|(key, &ord)| *key = *key * digit.radix + u64::from(ord)),
                Some(ranks) => keys.for_each(|(key, &id)| {
                    *key = *key * digit.radix + u64::from(ranks.rank_of_id[id as usize]);
                }),
            }
        }
    }

    /// Decode a key into `vals`, a borrowed group value per digit; the first
    /// digit is whatever the others leave, so one digit alone never divides.
    fn unpack<'a>(
        &self,
        mut key: u64,
        partition: &'a PartitionData,
        schema: &Schema,
        vals: &mut Vec<KeyRef<'a>>,
    ) -> CubrickResult<()> {
        vals.clear();
        for (place, digit) in self.digits.iter().enumerate().rev() {
            let value = if place == 0 { key } else { key % digit.radix };
            key = if place == 0 { 0 } else { key / digit.radix };
            let val = match &digit.strings {
                Some(ranks) => ranks
                    .id_of_rank
                    .get(value as usize)
                    .and_then(|&id| partition.dict(digit.dim)?.decode(id))
                    .map(KeyRef::Str),
                None => schema.dimensions[digit.dim]
                    .int_value(value as u32)
                    .map(KeyRef::Int),
            };
            vals.push(val.ok_or_else(|| CubrickError::Internal {
                detail: format!(
                    "group key digit {value} of dimension {} does not decode",
                    digit.dim
                ),
            })?);
        }
        vals.reverse();
        Ok(())
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

/// Running state of one aggregate of one group; the aggregate's
/// `AggFunc` says which fields it uses.
#[derive(Clone, Copy)]
struct Acc {
    value: f64,
    count: u64,
}

impl Acc {
    fn init(func: AggFunc) -> Acc {
        let value = match func {
            AggFunc::Min => f64::INFINITY,
            AggFunc::Max => f64::NEG_INFINITY,
            AggFunc::Count | AggFunc::Sum | AggFunc::Avg => 0.0,
        };
        Acc { value, count: 0 }
    }

    fn state(self, func: AggFunc) -> AggState {
        match func {
            AggFunc::Count => AggState::Count(self.count),
            AggFunc::Sum => AggState::Sum(self.value),
            AggFunc::Min => AggState::Min(self.value),
            AggFunc::Max => AggState::Max(self.value),
            AggFunc::Avg => AggState::Avg {
                sum: self.value,
                count: self.count,
            },
        }
    }
}

/// Where a key's accumulator row lives. Dense holds `slot + 1` per
/// possible key (0 = not seen yet).
enum SlotIndex {
    Dense(Vec<u32>),
    Ordered(BTreeMap<u64, u32>),
}

/// The groups seen so far: slot per key in first-seen order, and one
/// flat arena of accumulators, `fresh.len()` per slot.
struct GroupTable {
    index: SlotIndex,
    len: u32,
    accs: Vec<Acc>,
    fresh: Vec<Acc>,
}

impl GroupTable {
    /// The slot lookup is chosen from the key domain alone, so a query
    /// takes the same path on every partition state.
    fn new(domain: u64, funcs: &[AggFunc]) -> Self {
        let index = if domain <= DENSE_KEY_DOMAIN {
            SlotIndex::Dense(vec![0; domain as usize])
        } else {
            SlotIndex::Ordered(BTreeMap::new())
        };
        GroupTable {
            index,
            len: 0,
            accs: Vec::new(),
            fresh: funcs.iter().map(|&f| Acc::init(f)).collect(),
        }
    }

    fn slot_of(&mut self, key: u64) -> u32 {
        let slot = match &mut self.index {
            SlotIndex::Dense(slots) => {
                let entry = &mut slots[key as usize];
                if *entry == 0 {
                    *entry = self.len + 1;
                }
                *entry - 1
            }
            SlotIndex::Ordered(slots) => *slots.entry(key).or_insert(self.len),
        };
        if slot == self.len {
            self.len += 1;
            self.accs.extend_from_slice(&self.fresh);
        }
        slot
    }

    /// Every group as (key, its accumulators), in ascending key order.
    fn groups(&self) -> impl Iterator<Item = (u64, &[Acc])> {
        let in_key_order: Vec<(u64, u32)> = match &self.index {
            SlotIndex::Dense(slots) => (0..)
                .zip(slots)
                .filter(|&(_, &entry)| entry != 0)
                .map(|(key, &entry)| (key, entry - 1))
                .collect(),
            SlotIndex::Ordered(slots) => slots.iter().map(|(&key, &slot)| (key, slot)).collect(),
        };
        let stride = self.fresh.len();
        in_key_order
            .into_iter()
            .map(move |(key, slot)| (key, &self.accs[slot as usize * stride..][..stride]))
    }

    /// Fold one aggregate's column into its rows' accumulators, in row
    /// order. `AggFunc` is matched once per column, not per row, and
    /// there is one scalar accumulator per (group, aggregate), so every
    /// sum adds in the order the rows are stored.
    fn fold(&mut self, agg: usize, func: AggFunc, rows: Rows<'_>, values: &[f64]) {
        let values = values.iter().copied();
        match func {
            // `count` reads no column: one tick per row.
            AggFunc::Count => {
                let ticks = std::iter::repeat_n(0.0, rows.len());
                self.each(agg, rows, ticks, |acc, _| acc.count += 1)
            }
            AggFunc::Sum => self.each(agg, rows, values, |acc, v| acc.value += v),
            AggFunc::Min => self.each(agg, rows, values, |acc, v| acc.value = acc.value.min(v)),
            AggFunc::Max => self.each(agg, rows, values, |acc, v| acc.value = acc.value.max(v)),
            AggFunc::Avg => self.each(agg, rows, values, |acc, v| {
                acc.value += v;
                acc.count += 1;
            }),
        }
    }

    fn each(
        &mut self,
        agg: usize,
        rows: Rows<'_>,
        values: impl Iterator<Item = f64>,
        step: impl Fn(&mut Acc, f64),
    ) {
        let stride = self.fresh.len();
        match rows {
            // One accumulator for the whole column: the loop keeps it in
            // a register.
            Rows::OneSlot { slot, .. } => {
                let acc = &mut self.accs[slot as usize * stride + agg];
                values.for_each(|v| step(acc, v));
            }
            Rows::Slots(slots) => {
                for (&slot, v) in slots.iter().zip(values) {
                    step(&mut self.accs[slot as usize * stride + agg], v);
                }
            }
        }
    }
}

/// Where the selected rows of one brick accumulate.
#[derive(Clone, Copy)]
enum Rows<'a> {
    /// All `rows` of them in one slot: the ungrouped query.
    OneSlot { slot: u32, rows: usize },
    /// Row by row.
    Slots(&'a [u32]),
}

impl Rows<'_> {
    fn len(&self) -> usize {
        match self {
            Rows::OneSlot { rows, .. } => *rows,
            Rows::Slots(slots) => slots.len(),
        }
    }
}

/// Per-brick buffers, reused from brick to brick.
#[derive(Default)]
struct Scratch {
    ordinals: Vec<u32>,
    keys: Vec<u64>,
    slots: Vec<u32>,
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

    let mut result = PartialResult::new(query.aggs.clone(), table_partitions);
    let compiled = expr::compile(partition, &query.predicates)?;
    if !compiled.satisfiable {
        return Ok(result);
    }

    let mut table = GroupTable::new(layout.domain, &funcs);
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
                Rows::OneSlot {
                    slot: table.slot_of(0),
                    rows,
                }
            } else {
                layout.pack(brick, sel, rows, &mut scratch);
                scratch.slots.clear();
                scratch
                    .slots
                    .extend(scratch.keys.iter().map(|&key| table.slot_of(key)));
                Rows::Slots(&scratch.slots)
            };
            for (agg, (&func, col)) in funcs.iter().zip(&metric_cols).enumerate() {
                let values = match col {
                    Some(m) => gather(&brick.metrics[*m], sel, &mut scratch.values),
                    None => &[],
                };
                table.fold(agg, func, target, values);
            }
        },
    );

    // Groups leave in packed-key order, the order of the decoded keys: each
    // is decoded once, after the scan, straight onto the partial's columns.
    let (mut vals, mut states) = (Vec::new(), Vec::new());
    for (key, accs) in table.groups() {
        layout.unpack(key, partition, &schema, &mut vals)?;
        states.clear();
        states.extend(accs.iter().zip(&funcs).map(|(acc, &f)| acc.state(f)));
        result.push(&vals, &states)?;
    }
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
