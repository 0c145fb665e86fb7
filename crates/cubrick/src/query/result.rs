//! Partial results and coordinator-side merging.
//!
//! Every server executes the query over its local partitions and returns
//! a [`PartialResult`]: a flat column per group-by dimension (strings
//! decoded — dictionary ids are partition-local and must not cross the
//! wire) and the scan's own accumulator columns, groups in key order.
//! The coordinator merges partials in one k-way pass over their keys and
//! one fold per accumulator column; only `finalize` makes rows (DESIGN.md
//! "Engine scan contract", "A partial is the scan's columns").
//!
//! Result metadata carries the table's current partition count: "the
//! number of partitions per table is always included as part of query
//! results metadata, and updates the proxy's cache" (§IV-C).

use std::cmp::Ordering;
use std::mem::discriminant;

use crate::error::{CubrickError, CubrickResult};
use crate::query::agg::{AggFunc, AggSpec, AggState};
use crate::value::Value;

/// One decoded value of a group key, owned: what tests build partials from
/// and read them as. A dimension's, so never a float: `Eq`/`Ord` are sound.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum GroupVal {
    Int(i64),
    Str(String),
}

impl From<GroupVal> for Value {
    fn from(g: GroupVal) -> Value {
        match g {
            GroupVal::Int(v) => Value::Int(v),
            GroupVal::Str(s) => Value::Str(s),
        }
    }
}

/// One value of a group key, borrowed. Keys compare as slices of these:
/// column by column, so `("a", "bc")` is not `("ab", "c")`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum KeyRef<'a> {
    Int(i64),
    Str(&'a str),
}

impl From<KeyRef<'_>> for GroupVal {
    fn from(val: KeyRef<'_>) -> GroupVal {
        match val {
            KeyRef::Int(v) => GroupVal::Int(v),
            KeyRef::Str(s) => GroupVal::Str(s.to_string()),
        }
    }
}

fn internal(detail: &str) -> CubrickError {
    CubrickError::Internal {
        detail: detail.into(),
    }
}

/// One group-by dimension of a partial: a value per group, in group order.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum KeyColumn {
    Int(Vec<i64>),
    /// Every group's string back to back, and `0` then where each ends
    /// (checked into `u32` as it is pushed): group `g` is `ends[g]..ends[g + 1]`.
    /// Built by [`KeyColumn::str_with_capacity`] and `push`, never by hand.
    Str(String, Vec<u32>),
}

impl KeyColumn {
    /// An empty string column with room for `groups` strings, `bytes` in all.
    pub(crate) fn str_with_capacity(groups: usize, bytes: usize) -> KeyColumn {
        let mut ends = Vec::with_capacity(groups + 1);
        ends.push(0);
        KeyColumn::Str(String::with_capacity(bytes), ends)
    }

    /// Empty, of this column's kind, with room for as many values and
    /// string bytes.
    fn empty_like(&self) -> KeyColumn {
        match self {
            KeyColumn::Int(vals) => KeyColumn::Int(Vec::with_capacity(vals.len())),
            KeyColumn::Str(buf, ends) => KeyColumn::str_with_capacity(ends.len(), buf.len()),
        }
    }

    /// The integers, and the string bytes with their ends; the other
    /// kind's empty.
    fn parts(&self) -> (&[i64], &[u8], &[u32]) {
        match self {
            KeyColumn::Int(vals) => (vals, &[], &[]),
            KeyColumn::Str(buf, ends) => (&[], buf.as_bytes(), ends),
        }
    }

    fn len(&self) -> usize {
        match self {
            KeyColumn::Int(vals) => vals.len(),
            KeyColumn::Str(_, ends) => ends.len().saturating_sub(1),
        }
    }

    fn get(&self, g: usize) -> KeyRef<'_> {
        match self {
            KeyColumn::Int(vals) => KeyRef::Int(vals[g]),
            KeyColumn::Str(buf, ends) => KeyRef::Str(&buf[ends[g] as usize..ends[g + 1] as usize]),
        }
    }

    pub(crate) fn push(&mut self, val: KeyRef<'_>) -> CubrickResult<()> {
        match (self, val) {
            (KeyColumn::Int(vals), KeyRef::Int(v)) => vals.push(v),
            (KeyColumn::Str(buf, ends), KeyRef::Str(s)) => {
                buf.push_str(s);
                let end = u32::try_from(buf.len());
                ends.push(end.map_err(|_| internal("group-key strings exceed 4 GiB"))?);
            }
            _ => return Err(internal("group keys of different kinds in one column")),
        }
        Ok(())
    }
}

/// Partial result from one partition (or a merge of several): a column
/// per key dimension and per accumulator, a value per group each, groups
/// ascending by key. Private fields: the scan's partial comes through
/// [`Self::from_columns`], which checks every column's length; the merge
/// and [`Self::from_groups`] fill the columns of [`Self::new`] in place.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PartialResult {
    aggs: Vec<AggSpec>,
    /// One column per group-by dimension; none for the ungrouped query,
    /// whose one group has the empty key, nor for a partial without groups.
    keys: Vec<KeyColumn>,
    groups: usize,
    /// Per aggregate, plan order: the rows of each group for `count` and
    /// `avg`, empty for the rest.
    counts: Vec<Vec<u64>>,
    /// Per aggregate, plan order: the metric folded over each group's rows
    /// for `sum`, `min`, `max` and `avg`, empty for `count`.
    values: Vec<Vec<f64>>,
    /// Rows that survived filters on this partition.
    pub rows_scanned: u64,
    /// Current partition count of the table (proxy cache refresh).
    pub table_partitions: u32,
}

impl PartialResult {
    pub fn new(aggs: Vec<AggSpec>, table_partitions: u32) -> Self {
        PartialResult {
            counts: vec![Vec::new(); aggs.len()],
            values: vec![Vec::new(); aggs.len()],
            aggs,
            table_partitions,
            ..Default::default()
        }
    }

    /// A partial from whole columns, groups ascending by key (the caller's
    /// to keep): a key column per group-by dimension, and per aggregate a
    /// count column and a value column, each `groups` long where the
    /// aggregate keeps it and empty where not. A column of another length
    /// is a typed error; a partial without groups keeps no key columns.
    pub(crate) fn from_columns(
        aggs: Vec<AggSpec>,
        table_partitions: u32,
        mut keys: Vec<KeyColumn>,
        groups: usize,
        counts: Vec<Vec<u64>>,
        values: Vec<Vec<f64>>,
    ) -> CubrickResult<Self> {
        let len = |kept: bool| if kept { groups } else { 0 };
        let mut columns = aggs.iter().zip(counts.iter().zip(&values));
        let fits = counts.len() == aggs.len()
            && values.len() == aggs.len()
            && keys.iter().all(|column| column.len() == groups)
            && columns.all(|(spec, (counts, values))| {
                counts.len() == len(matches!(spec.func, AggFunc::Count | AggFunc::Avg))
                    && values.len() == len(spec.func != AggFunc::Count)
            });
        if !fits {
            return Err(internal("a column holds another group count"));
        }
        if groups == 0 {
            keys.clear();
        }
        Ok(PartialResult {
            aggs,
            keys,
            groups,
            counts,
            values,
            rows_scanned: 0,
            table_partitions,
        })
    }

    /// A partial from decoded groups in any order, for tests. A repeated
    /// key, keys of other lengths or kinds, and states unlike the agg list
    /// are typed errors, as [`Self::from_columns`]'s are.
    pub fn from_groups(
        aggs: Vec<AggSpec>,
        table_partitions: u32,
        mut groups: Vec<(Vec<GroupVal>, Vec<AggState>)>,
    ) -> CubrickResult<Self> {
        groups.sort_by(|a, b| a.0.cmp(&b.0));
        if !groups.is_sorted_by(|a, b| a.0 < b.0) {
            return Err(internal("a group key repeats within one partial"));
        }
        fn key_ref(val: &GroupVal) -> KeyRef<'_> {
            match val {
                GroupVal::Int(v) => KeyRef::Int(*v),
                GroupVal::Str(s) => KeyRef::Str(s),
            }
        }
        let mut partial = PartialResult::new(aggs, table_partitions);
        let empty = |val: &GroupVal| match val {
            GroupVal::Int(_) => KeyColumn::Int(Vec::new()),
            GroupVal::Str(_) => KeyColumn::str_with_capacity(0, 0),
        };
        let first = groups.first().map_or(&[][..], |(key, _)| key.as_slice());
        partial.keys = first.iter().map(empty).collect();
        for (key, states) in &groups {
            if key.len() != partial.keys.len() || states.len() != partial.aggs.len() {
                return Err(internal("a group's key or states have another length"));
            }
            for (column, val) in partial.keys.iter_mut().zip(key) {
                column.push(key_ref(val))?;
            }
            for (a, (spec, state)) in partial.aggs.iter().zip(states).enumerate() {
                let (count, value) = match (spec.func, *state) {
                    (AggFunc::Count, AggState::Count(n)) => (Some(n), None),
                    (AggFunc::Sum, AggState::Sum(v))
                    | (AggFunc::Min, AggState::Min(v))
                    | (AggFunc::Max, AggState::Max(v)) => (None, Some(v)),
                    (AggFunc::Avg, AggState::Avg { sum, count }) => (Some(count), Some(sum)),
                    _ => return Err(internal("a group's states do not match the agg list")),
                };
                partial.counts[a].extend(count);
                partial.values[a].extend(value);
            }
            partial.groups += 1;
        }
        Ok(partial)
    }

    /// Every group decoded, in key order: the view tests compare against.
    pub fn groups(&self) -> Vec<(Vec<GroupVal>, Vec<AggState>)> {
        let key = |g| self.key_of(g).map(GroupVal::from).collect();
        let states = |g| (0..self.aggs.len()).map(|a| self.state(a, g)).collect();
        (0..self.groups).map(|g| (key(g), states(g))).collect()
    }

    fn key_of(&self, g: usize) -> impl Iterator<Item = KeyRef<'_>> + Clone {
        self.keys.iter().map(move |column| column.get(g))
    }

    /// Aggregate `a`'s state of group `g`.
    fn state(&self, a: usize, g: usize) -> AggState {
        let (count, value) = (|| self.counts[a][g], || self.values[a][g]);
        match self.aggs[a].func {
            AggFunc::Count => AggState::Count(count()),
            AggFunc::Sum => AggState::Sum(value()),
            AggFunc::Min => AggState::Min(value()),
            AggFunc::Max => AggState::Max(value()),
            AggFunc::Avg => AggState::Avg {
                sum: value(),
                count: count(),
            },
        }
    }

    /// Merge the partials of one query: one k-way pass over their keys
    /// (`merge_keys`), then one pass per accumulator column, plan order
    /// (`fold`), so a group adds up just as a left fold of the partials
    /// adds it. `None` for no partials; typed errors for partials of other
    /// agg lists or key kinds.
    pub fn merge_all(partials: Vec<PartialResult>) -> CubrickResult<Option<PartialResult>> {
        let partials = partials.as_slice();
        let Some(first) = partials.first() else {
            return Ok(None);
        };
        // The key kinds, from the first partial with a group: one without
        // has no key columns to disagree with.
        let with_groups = partials.iter().find(|p| p.groups > 0);
        let shape = with_groups.map_or(&[][..], |p| p.keys.as_slice());
        let (mut rows_scanned, mut table_partitions) = (0, 0);
        for partial in partials {
            let kinds = partial.keys.iter().map(discriminant);
            if partial.aggs != first.aggs
                || (partial.groups > 0 && !kinds.eq(shape.iter().map(discriminant)))
            {
                return Err(internal("merging partials of other agg lists or key kinds"));
            }
            rows_scanned += partial.rows_scanned;
            table_partitions = table_partitions.max(partial.table_partitions);
        }
        let mut merged = PartialResult::new(first.aggs.clone(), table_partitions);
        merged.rows_scanned = rows_scanned;
        // Room for the largest input's keys up front.
        let widest = partials.iter().max_by_key(|p| p.groups).unwrap_or(first);
        merged.keys = widest.keys.iter().map(KeyColumn::empty_like).collect();
        // A one-column key compares as itself, an `i64` or a string's bytes
        // (`str` order is byte order); a wider one column by column.
        let none = (&[][..], &[][..], &[][..]);
        let parts = partials
            .iter()
            .map(|p| p.keys.first().map_or(none, KeyColumn::parts));
        let parts: Vec<_> = parts.collect();
        let lands = match shape {
            [KeyColumn::Int(_)] => merged.merge_keys(partials, |p, g| parts[p].0[g], Ord::cmp)?,
            [KeyColumn::Str(..)] => {
                let key = |p: usize, g: usize| {
                    let (_, buf, ends) = parts[p];
                    &buf[ends[g] as usize..ends[g + 1] as usize]
                };
                merged.merge_keys(partials, key, Ord::cmp)?
            }
            _ => merged.merge_keys(
                partials,
                |p, g| (p, g),
                |&(p, g), &(q, h)| partials[p].key_of(g).cmp(partials[q].key_of(h)),
            )?,
        };
        let groups = merged.groups;
        for (a, spec) in first.aggs.iter().enumerate() {
            if matches!(spec.func, AggFunc::Count | AggFunc::Avg) {
                let rows = partials.iter().map(|p| p.counts[a].as_slice());
                merged.counts[a] = fold(groups, &lands, rows, |x, y| x + y);
            }
            let metric = || partials.iter().map(|p| p.values[a].as_slice());
            merged.values[a] = match spec.func {
                AggFunc::Count => Vec::new(),
                AggFunc::Sum | AggFunc::Avg => fold(groups, &lands, metric(), |x, y| x + y),
                AggFunc::Min => fold(groups, &lands, metric(), f64::min),
                AggFunc::Max => fold(groups, &lands, metric(), f64::max),
            };
        }
        Ok(Some(merged))
    }

    /// The k-way merge of the partials' keys into this partial's empty key
    /// columns, a cursor per partial holding its current key (`key`, ordered
    /// by `cmp`): each step finds the smallest in one comparison per live
    /// cursor (no heap does better when most keys are in every partial) and
    /// pushes it once. Returns where each group of each partial lands, plan
    /// order: its merged group, doubled, plus one for the first on it.
    fn merge_keys<K: Copy>(
        &mut self,
        partials: &[PartialResult],
        key: impl Fn(usize, usize) -> K,
        cmp: impl Fn(&K, &K) -> Ordering,
    ) -> CubrickResult<Vec<usize>> {
        let mut lands = vec![0; partials.iter().map(|p| p.groups).sum()];
        // (key, partial, group, where the group lands in `lands`), plan order.
        let starts = partials
            .iter()
            .scan(0, |at, p| Some(std::mem::replace(at, *at + p.groups)));
        let live = starts.enumerate().filter(|&(p, _)| partials[p].groups > 0);
        let mut cursors: Vec<_> = live.map(|(p, at)| (key(p, 0), p, 0, at)).collect();
        let mut lowest = Vec::with_capacity(cursors.len());
        while let Some(&(mut min, ..)) = cursors.first() {
            lowest.clear();
            for (c, cursor) in cursors.iter().enumerate() {
                let order = cmp(&cursor.0, &min);
                if order == Ordering::Less {
                    min = cursor.0;
                    lowest.clear();
                }
                if order != Ordering::Greater {
                    lowest.push(c);
                }
            }
            let mut spent = false;
            for (n, &c) in lowest.iter().enumerate() {
                let (now, p, g, at) = &mut cursors[c];
                let partial = &partials[*p];
                if n == 0 {
                    for (column, val) in self.keys.iter_mut().zip(partial.key_of(*g)) {
                        column.push(val)?;
                    }
                }
                lands[*at] = self.groups << 1 | usize::from(n == 0);
                (*g, *at) = (*g + 1, *at + 1);
                if *g < partial.groups {
                    *now = key(*p, *g);
                } else {
                    spent = true;
                }
            }
            self.groups += 1;
            if spent {
                cursors.retain(|&(_, p, g, _)| g < partials[p].groups);
            }
        }
        Ok(lands)
    }

    /// Finalize into output rows, in group order (ascending key): the one
    /// place a group becomes `Value`s and per-row vectors.
    pub fn finalize(self) -> QueryOutput {
        let row = |g| ResultRow {
            key: (self.key_of(g).map(|val| GroupVal::from(val).into())).collect(),
            aggs: Vec::with_capacity(self.aggs.len()),
        };
        let mut rows: Vec<ResultRow> = (0..self.groups).map(row).collect();
        for (a, spec) in self.aggs.iter().enumerate() {
            let (counts, values) = (&self.counts[a], &self.values[a]);
            for (g, row) in rows.iter_mut().enumerate() {
                row.aggs.push(match spec.func {
                    AggFunc::Count => counts[g] as f64,
                    AggFunc::Sum | AggFunc::Min | AggFunc::Max => values[g],
                    AggFunc::Avg if counts[g] == 0 => f64::NAN,
                    AggFunc::Avg => values[g] / counts[g] as f64,
                });
            }
        }
        QueryOutput {
            columns: self.aggs.iter().map(AggSpec::label).collect(),
            rows,
            rows_scanned: self.rows_scanned,
            table_partitions: self.table_partitions,
        }
    }
}

/// One accumulator column of a merge from each partial's (`columns`, plan
/// order) and where their groups land (`merge_keys`): a merged group is
/// its lead's value, each later partial's folded in by `step`.
fn fold<'a, T: Copy + Default + 'a>(
    groups: usize,
    lands: &[usize],
    columns: impl Iterator<Item = &'a [T]>,
    step: impl Fn(T, T) -> T,
) -> Vec<T> {
    let mut merged = vec![T::default(); groups];
    let mut lands = lands;
    for column in columns {
        let (mine, rest) = lands.split_at(column.len());
        lands = rest;
        for (&v, &land) in column.iter().zip(mine) {
            let m = land >> 1;
            merged[m] = if land & 1 == 1 { v } else { step(merged[m], v) };
        }
    }
    merged
}

/// Why a shard's sub-query did (or did not) contribute to a degraded
/// result (the typed per-shard status of best-effort serving).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardState {
    /// The sub-query answered and its partial was merged.
    Answered,
    /// The sub-query exceeded its per-shard deadline.
    TimedOut,
    /// The shard's owner was unreachable, not owning, or still loading.
    Unavailable,
    /// The resolved host was blacklisted at the proxy; never contacted.
    Blacklisted,
}

/// Per-shard status of a (possibly degraded) query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStatus {
    pub partition: u32,
    pub state: ShardState,
}

/// The coverage contract of a degraded-mode answer: how many partitions
/// were planned, and which of them did not answer and why. `fraction` is
/// the headline number a client checks against its accuracy budget.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Coverage {
    /// Shards pushed, answered or not.
    total: usize,
    /// The shards that did not answer, each with its place in push order.
    missing: Vec<(usize, ShardStatus)>,
}

impl Coverage {
    pub fn push(&mut self, partition: u32, state: ShardState) {
        if state != ShardState::Answered {
            self.missing
                .push((self.total, ShardStatus { partition, state }));
        }
        self.total += 1;
    }

    /// Every pushed shard's state, push order (plan order).
    pub fn states(&self) -> impl Iterator<Item = ShardState> + '_ {
        let mut missing = self.missing.iter().peekable();
        let mut state = move |at| missing.next_if(|(pos, _)| *pos == at).map(|(_, s)| s.state);
        (0..self.total).map(move |at| state(at).unwrap_or(ShardState::Answered))
    }

    /// Partitions that answered.
    pub fn answered(&self) -> usize {
        self.total - self.missing.len()
    }

    pub fn total(&self) -> usize {
        self.total
    }

    /// Fraction of planned partitions that answered (1.0 for an empty
    /// plan: nothing was missing).
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.answered() as f64 / self.total as f64
        }
    }

    pub fn complete(&self) -> bool {
        self.missing.is_empty()
    }
}

/// One output row: group key values followed by finalized aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultRow {
    pub key: Vec<Value>,
    pub aggs: Vec<f64>,
}

/// Final, merged, finalized query result.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutput {
    /// Aggregate column labels (group-by columns precede them in `rows`).
    pub columns: Vec<String>,
    pub rows: Vec<ResultRow>,
    pub rows_scanned: u64,
    pub table_partitions: u32,
}

impl QueryOutput {
    /// The single scalar of an ungrouped single-agg query.
    pub fn scalar(&self) -> Option<f64> {
        match self.rows.as_slice() {
            [row] if row.key.is_empty() && row.aggs.len() == 1 => row.aggs.first().copied(),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::agg::AggFunc;

    fn spec() -> Vec<AggSpec> {
        vec![AggSpec::count_star(), AggSpec::new(AggFunc::Sum, "m")]
    }

    fn partial_with(groups: Vec<(Vec<GroupVal>, u64, f64)>) -> PartialResult {
        let rows = groups.iter().map(|(_, count, _)| count).sum();
        let groups = groups
            .into_iter()
            .map(|(key, count, sum)| (key, vec![AggState::Count(count), AggState::Sum(sum)]))
            .collect();
        let mut p = PartialResult::from_groups(spec(), 8, groups).unwrap();
        p.rows_scanned = rows;
        p
    }

    #[test]
    fn merge_combines_groups() {
        let a = partial_with(vec![
            (vec![GroupVal::Str("US".into())], 2, 10.0),
            (vec![GroupVal::Str("BR".into())], 1, 5.0),
        ]);
        let b = partial_with(vec![
            (vec![GroupVal::Str("US".into())], 3, 7.0),
            (vec![GroupVal::Str("JP".into())], 4, 1.0),
        ]);
        let merged = PartialResult::merge_all(vec![a, b]).unwrap().unwrap();
        let group = |key: &str, count, sum| {
            let states = vec![AggState::Count(count), AggState::Sum(sum)];
            (vec![GroupVal::Str(key.into())], states)
        };
        assert_eq!(
            merged.groups(),
            vec![
                group("BR", 1, 5.0),
                group("JP", 4, 1.0),
                group("US", 5, 17.0)
            ]
        );
        assert_eq!(merged.rows_scanned, 10);
    }

    #[test]
    fn merge_of_nothing_is_none_and_of_one_is_itself() {
        assert_eq!(PartialResult::merge_all(vec![]).unwrap(), None);
        let only = partial_with(vec![(vec![GroupVal::Int(3)], 2, 1.5)]);
        assert_eq!(
            PartialResult::merge_all(vec![only.clone()]).unwrap(),
            Some(only)
        );
    }

    #[test]
    fn merge_takes_max_partition_count() {
        // During a re-partition different servers may report different
        // counts; the proxy should learn the newest (largest... the rule
        // here: max) one.
        let a = PartialResult::new(spec(), 8);
        let b = PartialResult::new(spec(), 16);
        let merged = PartialResult::merge_all(vec![a, b]).unwrap().unwrap();
        assert_eq!(merged.table_partitions, 16);
    }

    #[test]
    fn finalize_sorted_and_labelled() {
        let p = partial_with(vec![
            (vec![GroupVal::Str("US".into())], 2, 10.0),
            (vec![GroupVal::Str("BR".into())], 1, 5.0),
        ]);
        let out = p.finalize();
        assert_eq!(out.columns, vec!["count(*)", "sum(m)"]);
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.rows[0].key, vec![Value::Str("BR".into())]);
        assert_eq!(out.rows[1].key, vec![Value::Str("US".into())]);
        assert_eq!(out.rows[1].aggs, vec![2.0, 10.0]);
    }

    #[test]
    fn scalar_extraction() {
        let ungrouped = vec![(vec![], vec![AggState::Count(7)])];
        let p = PartialResult::from_groups(vec![AggSpec::count_star()], 8, ungrouped).unwrap();
        assert_eq!(p.finalize().scalar(), Some(7.0));
        // Grouped output has no scalar.
        let p = partial_with(vec![(vec![GroupVal::Int(1)], 1, 1.0)]);
        assert_eq!(p.finalize().scalar(), None);
    }

    #[test]
    fn coverage_accounting() {
        let mut c = Coverage::default();
        assert_eq!(c.fraction(), 1.0, "empty plan is fully covered");
        c.push(0, ShardState::Answered);
        c.push(1, ShardState::TimedOut);
        c.push(2, ShardState::Blacklisted);
        c.push(3, ShardState::Answered);
        assert_eq!(c.answered(), 2);
        assert_eq!(c.total(), 4);
        assert_eq!(c.fraction(), 0.5);
        assert!(!c.complete());
        use ShardState::{Answered, Blacklisted, TimedOut};
        assert_eq!(
            c.states().collect::<Vec<_>>(),
            [Answered, TimedOut, Blacklisted, Answered]
        );
        let missing: Vec<_> = c
            .missing
            .iter()
            .map(|(at, s)| (*at, s.partition, s.state))
            .collect();
        assert_eq!(missing, [(1, 1, TimedOut), (2, 2, Blacklisted)]);
        let mut full = Coverage::default();
        full.push(0, ShardState::Answered);
        assert!(full.complete());
        assert_eq!(full.fraction(), 1.0);
    }

    #[test]
    fn merge_mismatched_specs_is_a_typed_error() {
        let a = PartialResult::new(vec![AggSpec::count_star()], 8);
        let b = PartialResult::new(spec(), 8);
        assert!(matches!(
            PartialResult::merge_all(vec![a, b]),
            Err(CubrickError::Internal { .. })
        ));
        let a = partial_with(vec![(vec![GroupVal::Int(1)], 1, 1.0)]);
        // Same agg list, the key column of another kind or one column more.
        for key in [
            vec![GroupVal::Str("1".into())],
            vec![GroupVal::Int(1), GroupVal::Int(1)],
        ] {
            let b = partial_with(vec![(key, 1, 1.0)]);
            assert!(matches!(
                PartialResult::merge_all(vec![a.clone(), b]),
                Err(CubrickError::Internal { .. })
            ));
        }
    }

    #[test]
    fn keys_compare_per_column_not_on_concatenated_bytes() {
        let key = |a: &str, b: &str| vec![GroupVal::Str(a.into()), GroupVal::Str(b.into())];
        let a = partial_with(vec![(key("ab", "c"), 1, 1.0), (key("a", ""), 1, 1.0)]);
        let b = partial_with(vec![(key("a", "bc"), 2, 2.0), (key("", "a"), 2, 2.0)]);
        let merged = PartialResult::merge_all(vec![a, b]).unwrap().unwrap();
        let keys: Vec<_> = merged.groups().into_iter().map(|(key, _)| key).collect();
        assert_eq!(
            keys,
            vec![key("", "a"), key("a", ""), key("a", "bc"), key("ab", "c")]
        );
    }

    #[test]
    fn from_columns_refuses_a_column_of_another_group_count() {
        // `count(*)` and `sum(m)`: a count column for the first, a value
        // column for the second, two groups.
        let build =
            |keys, counts, values| PartialResult::from_columns(spec(), 8, keys, 2, counts, values);
        let ints = |n: usize| vec![KeyColumn::Int((0..n as i64).collect())];
        let (counts, values) = (vec![vec![1, 2], vec![]], vec![vec![], vec![0.5, 1.5]]);
        assert!(build(ints(2), counts.clone(), values.clone()).is_ok());
        for (keys, counts, values) in [
            (ints(3), counts.clone(), values.clone()),
            (ints(2), vec![vec![1], vec![]], values.clone()),
            (ints(2), counts.clone(), vec![vec![], vec![0.5, 1.5, 2.5]]),
            // A column an aggregate does not keep, and one it lacks.
            (ints(2), vec![vec![1, 2], vec![1, 2]], values.clone()),
            (ints(2), counts.clone(), vec![vec![], vec![]]),
            // Columns for another agg list.
            (ints(2), vec![vec![1, 2]], vec![vec![]]),
        ] {
            assert!(matches!(
                build(keys, counts, values),
                Err(CubrickError::Internal { .. })
            ));
        }
    }

    #[test]
    fn a_cloned_partial_merges_to_the_same_bits() {
        let key = |s: &str| vec![GroupVal::Str(s.into())];
        let a = partial_with(vec![(key("a"), 1, f64::NAN), (key("ab"), 2, -0.0)]);
        let b = partial_with(vec![(key("ab"), 3, f64::INFINITY), (key("b"), 4, 0.5)]);
        let bits = |p: PartialResult| {
            let state = |s: &AggState| match *s {
                AggState::Count(n) => (n, 0),
                AggState::Sum(v) | AggState::Min(v) | AggState::Max(v) => (v.to_bits(), 0),
                AggState::Avg { sum, count } => (sum.to_bits(), count),
            };
            let group = |(key, states): (_, Vec<_>)| (key, states.iter().map(state).collect());
            p.groups()
                .into_iter()
                .map(group)
                .collect::<Vec<(_, Vec<_>)>>()
        };
        let cloned = PartialResult::merge_all(vec![a.clone(), b.clone()]).unwrap();
        let merged = PartialResult::merge_all(vec![a.clone(), b]).unwrap();
        assert_eq!(bits(cloned.unwrap()), bits(merged.unwrap()));
        // A lone partial merges to itself, NaN and -0.0 as they were.
        let alone = PartialResult::merge_all(vec![a.clone()]).unwrap().unwrap();
        assert_eq!(bits(alone), bits(a));
    }

    #[test]
    fn from_groups_rejects_what_the_columns_cannot_hold() {
        let count = |n| vec![AggState::Count(n)];
        let build = |groups| PartialResult::from_groups(vec![AggSpec::count_star()], 8, groups);
        let int = |v| vec![GroupVal::Int(v)];
        for groups in [
            vec![(int(1), count(1)), (int(1), count(2))],
            vec![
                (int(1), count(1)),
                (vec![GroupVal::Str("1".into())], count(1)),
            ],
            vec![(int(1), count(1)), (vec![], count(1))],
            vec![(int(1), vec![])],
            // Accumulators of another shape than the agg list's.
            vec![(int(1), vec![AggState::Sum(1.0)])],
        ] {
            assert!(matches!(build(groups), Err(CubrickError::Internal { .. })));
        }
    }
}
