//! Partial results and coordinator-side merging.
//!
//! Every server executes the query over its local partitions and returns
//! a [`PartialResult`]: a flat column per group-by dimension (strings
//! decoded — dictionary ids are partition-local and must not cross the
//! wire) and one arena of mergeable accumulators, groups in key order.
//! The coordinator merges partials in one k-way pass; only `finalize`
//! makes rows (DESIGN.md "Engine scan contract", point 6).
//!
//! Result metadata carries the table's current partition count: "the
//! number of partitions per table is always included as part of query
//! results metadata, and updates the proxy's cache" (§IV-C).

use std::cmp::Ordering;

use crate::error::{CubrickError, CubrickResult};
use crate::query::agg::{AggSpec, AggState};
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
    /// Built by [`KeyColumn::strings`] or `push`, never by hand.
    Str(String, Vec<u32>),
}

impl KeyColumn {
    /// An empty string column with room for `groups` strings, `bytes` in all.
    fn str_with_capacity(groups: usize, bytes: usize) -> KeyColumn {
        let mut ends = Vec::with_capacity(groups + 1);
        ends.push(0);
        KeyColumn::Str(String::with_capacity(bytes), ends)
    }

    /// A string column holding `vals`, its buffer and offsets sized once.
    pub(crate) fn strings(vals: &[&str]) -> CubrickResult<KeyColumn> {
        let bytes = vals.iter().map(|s| s.len()).sum();
        let mut column = KeyColumn::str_with_capacity(vals.len(), bytes);
        for &s in vals {
            column.push(KeyRef::Str(s))?;
        }
        Ok(column)
    }

    /// Empty, of this column's kind, with room for `groups` values and
    /// this column's string bytes.
    fn empty_like(&self, groups: usize) -> KeyColumn {
        match self {
            KeyColumn::Int(_) => KeyColumn::Int(Vec::with_capacity(groups)),
            KeyColumn::Str(buf, _) => KeyColumn::str_with_capacity(groups, buf.len()),
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

    fn push(&mut self, val: KeyRef<'_>) -> CubrickResult<()> {
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

/// Partial result from one partition (or a merge of several). Private
/// fields, two ways in, [`Self::from_columns`] for the scan and
/// [`Self::push`] for the merge: `states.len() == groups × aggs.len()`,
/// `groups` values a key column, groups ascending by key.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PartialResult {
    aggs: Vec<AggSpec>,
    /// One column per group-by dimension, made by the first group; none
    /// for the ungrouped query, whose one group has the empty key.
    keys: Vec<KeyColumn>,
    groups: usize,
    /// Group-major: group `g`'s are `states[g * aggs.len()..][..aggs.len()]`.
    states: Vec<AggState>,
    /// Rows that survived filters on this partition.
    pub rows_scanned: u64,
    /// Current partition count of the table (proxy cache refresh).
    pub table_partitions: u32,
}

impl PartialResult {
    pub fn new(aggs: Vec<AggSpec>, table_partitions: u32) -> Self {
        PartialResult {
            aggs,
            table_partitions,
            ..Default::default()
        }
    }

    /// A partial from whole columns, the scan's way in: a key column per
    /// group-by dimension and the states group-major, groups ascending by
    /// key (the caller's to keep, as for [`Self::push`]). A column or an
    /// arena of another group count is a typed error; a partial without
    /// groups keeps no columns, as one built by `push` has none.
    pub(crate) fn from_columns(
        aggs: Vec<AggSpec>,
        table_partitions: u32,
        mut keys: Vec<KeyColumn>,
        groups: usize,
        states: Vec<AggState>,
    ) -> CubrickResult<Self> {
        let arena = groups.checked_mul(aggs.len());
        if arena != Some(states.len()) || keys.iter().any(|column| column.len() != groups) {
            return Err(internal(
                "a key column or the states hold another group count",
            ));
        }
        if groups == 0 {
            keys.clear();
        }
        Ok(PartialResult {
            aggs,
            keys,
            groups,
            states,
            rows_scanned: 0,
            table_partitions,
        })
    }

    /// Append a group, the merge's way in; the caller pushes in ascending
    /// key order. The first group makes the columns unless they are made
    /// already; a key unlike them in length or kind is a typed error (drop
    /// the partial).
    pub(crate) fn push(&mut self, key: &[KeyRef<'_>], states: &[AggState]) -> CubrickResult<()> {
        if self.groups == 0 && self.keys.is_empty() {
            let column = |val: &KeyRef<'_>| match val {
                KeyRef::Int(_) => KeyColumn::Int(Vec::new()),
                KeyRef::Str(_) => KeyColumn::str_with_capacity(0, 0),
            };
            self.keys = key.iter().map(column).collect();
        }
        if key.len() != self.keys.len() || states.len() != self.aggs.len() {
            return Err(internal("a group's key or states have another length"));
        }
        for (column, &val) in self.keys.iter_mut().zip(key) {
            column.push(val)?;
        }
        self.states.extend_from_slice(states);
        self.groups += 1;
        Ok(())
    }

    /// A partial from decoded groups in any order, for tests. A repeated
    /// key is a typed error, like all that [`Self::push`] refuses.
    pub fn from_groups(
        aggs: Vec<AggSpec>,
        table_partitions: u32,
        mut groups: Vec<(Vec<GroupVal>, Vec<AggState>)>,
    ) -> CubrickResult<Self> {
        groups.sort_by(|a, b| a.0.cmp(&b.0));
        if !groups.is_sorted_by(|a, b| a.0 < b.0) {
            return Err(internal("a group key repeats within one partial"));
        }
        let mut partial = PartialResult::new(aggs, table_partitions);
        for (key, states) in &groups {
            let key = key.iter().map(|val| match val {
                GroupVal::Int(v) => KeyRef::Int(*v),
                GroupVal::Str(s) => KeyRef::Str(s),
            });
            partial.push(&key.collect::<Vec<_>>(), states)?;
        }
        Ok(partial)
    }

    /// Every group decoded, in key order: the view tests compare against.
    pub fn groups(&self) -> Vec<(Vec<GroupVal>, Vec<AggState>)> {
        let key = |g| self.key_of(g).map(GroupVal::from).collect();
        let group = |g| (key(g), self.states_of(g).to_vec());
        (0..self.groups).map(group).collect()
    }

    fn key_of(&self, g: usize) -> impl Iterator<Item = KeyRef<'_>> + Clone {
        self.keys.iter().map(move |column| column.get(g))
    }

    fn states_of(&self, g: usize) -> &[AggState] {
        &self.states[g * self.aggs.len()..][..self.aggs.len()]
    }

    /// Merge the partials of one query in one k-way pass, a cursor each:
    /// the smallest key under a cursor is copied once and every partial on
    /// it folds its accumulators in, in the order given (plan order), just
    /// as a left fold of the partials adds them. The scan of the cursors is
    /// linear: a group in every partial costs each one comparison, which no
    /// heap gets under. `None` for no partials; typed errors for partials
    /// of other agg lists or key kinds.
    pub fn merge_all(partials: Vec<PartialResult>) -> CubrickResult<Option<PartialResult>> {
        let Some(first) = partials.first() else {
            return Ok(None);
        };
        let mut merged = PartialResult::new(first.aggs.clone(), 0);
        let mut widest = first;
        for partial in &partials {
            if partial.aggs != first.aggs {
                return Err(internal("merging partials from different queries"));
            }
            merged.rows_scanned += partial.rows_scanned;
            merged.table_partitions = merged.table_partitions.max(partial.table_partitions);
            if partial.groups > widest.groups {
                widest = partial;
            }
        }
        // Room for the largest input up front; `push` still checks every
        // key against these columns.
        merged.keys = widest
            .keys
            .iter()
            .map(|c| c.empty_like(widest.groups))
            .collect();
        merged.states.reserve(widest.states.len());
        let mut cursors = vec![0usize; partials.len()];
        // The smallest key under a cursor; who stands on it, plan order.
        let mut key: Vec<KeyRef<'_>> = Vec::new();
        let mut lowest: Vec<usize> = Vec::with_capacity(partials.len());
        loop {
            lowest.clear();
            for (i, (partial, &g)) in partials.iter().zip(&cursors).enumerate() {
                if g == partial.groups {
                    continue;
                }
                let against = |_| partial.key_of(g).cmp(key.iter().copied());
                let order = lowest.first().map_or(Ordering::Less, against);
                if order == Ordering::Less {
                    lowest.clear();
                    key.clear();
                    key.extend(partial.key_of(g));
                }
                if order != Ordering::Greater {
                    lowest.push(i);
                }
            }
            let mut standing = lowest.iter().map(|&i| partials[i].states_of(cursors[i]));
            let Some(lead) = standing.next() else {
                return Ok(Some(merged));
            };
            let base = merged.states.len();
            merged.push(&key, lead)?;
            for states in standing {
                for (mine, theirs) in merged.states[base..].iter_mut().zip(states) {
                    mine.merge(theirs)?;
                }
            }
            lowest.iter().for_each(|&i| cursors[i] += 1);
        }
    }

    /// Finalize into output rows, in group order (ascending key). The one
    /// place a group becomes `Value`s and per-row vectors.
    pub fn finalize(self) -> QueryOutput {
        let row = |g| ResultRow {
            key: (self.key_of(g).map(|val| GroupVal::from(val).into())).collect(),
            aggs: self.states_of(g).iter().map(AggState::finalize).collect(),
        };
        QueryOutput {
            columns: self.aggs.iter().map(AggSpec::label).collect(),
            rows: (0..self.groups).map(row).collect(),
            rows_scanned: self.rows_scanned,
            table_partitions: self.table_partitions,
        }
    }
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

/// The coverage contract of a degraded-mode answer: which partitions
/// contributed, and why the rest are missing. `coverage_fraction` is
/// the headline number a client checks against its accuracy budget.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Coverage {
    /// One entry per planned partition, plan order.
    pub per_shard: Vec<ShardStatus>,
}

impl Coverage {
    pub fn push(&mut self, partition: u32, state: ShardState) {
        self.per_shard.push(ShardStatus { partition, state });
    }

    /// Partitions that answered.
    pub fn answered(&self) -> usize {
        self.per_shard
            .iter()
            .filter(|s| s.state == ShardState::Answered)
            .count()
    }

    pub fn total(&self) -> usize {
        self.per_shard.len()
    }

    /// Fraction of planned partitions that answered (1.0 for an empty
    /// plan: nothing was missing).
    pub fn fraction(&self) -> f64 {
        if self.per_shard.is_empty() {
            1.0
        } else {
            self.answered() as f64 / self.total() as f64
        }
    }

    pub fn complete(&self) -> bool {
        self.answered() == self.total()
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
        let full = Coverage {
            per_shard: vec![ShardStatus {
                partition: 0,
                state: ShardState::Answered,
            }],
        };
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
        // Same agg list, accumulators of another shape under one key.
        let a = partial_with(vec![(vec![GroupVal::Int(1)], 1, 1.0)]);
        let sums = vec![AggState::Sum(1.0), AggState::Sum(1.0)];
        let b = PartialResult::from_groups(spec(), 8, vec![(vec![GroupVal::Int(1)], sums)]);
        assert!(matches!(
            PartialResult::merge_all(vec![a.clone(), b.unwrap()]),
            Err(CubrickError::Internal { .. })
        ));
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
        ] {
            assert!(matches!(build(groups), Err(CubrickError::Internal { .. })));
        }
    }
}
