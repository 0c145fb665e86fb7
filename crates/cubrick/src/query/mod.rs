//! The query layer.
//!
//! Cubrick queries are aggregations over one table with conjunctive
//! per-dimension filters and optional group-by — the OLAP shape its
//! dashboards issue. The layer is split the way the system executes:
//!
//! * [`expr`] — predicate AST and per-partition compilation to ordinal
//!   ranges (the input to brick pruning).
//! * [`agg`] — aggregate functions and their mergeable accumulators.
//! * [`exec`] — single-partition execution against a
//!   [`PartitionData`](crate::store::PartitionData): prune bricks, filter
//!   rows, accumulate groups. Runs on every server holding a partition.
//! * [`result`] — partial results and coordinator-side merging.
//! * [`parser`] — the textual query dialect used by examples and tools.

pub mod agg;
pub mod exec;
pub mod expr;
pub mod parser;
pub mod result;

pub use agg::{AggFunc, AggSpec, AggState};
pub use exec::execute_partition;
pub use expr::{PredOp, Predicate};
pub use parser::parse_query;
pub use result::{Coverage, PartialResult, QueryOutput, ResultRow, ShardState, ShardStatus};

/// A logical query: aggregations over one table, conjunctive filters,
/// optional group-by, optional top-N (`ORDER BY ... LIMIT n`).
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub table: String,
    pub aggs: Vec<AggSpec>,
    pub predicates: Vec<Predicate>,
    /// Dimension names to group by (result rows carry them in order).
    pub group_by: Vec<String>,
    /// Result ordering (applied by the coordinator after the merge —
    /// exact top-N needs every group, so nothing is pushed down).
    pub order_by: Option<OrderBy>,
    /// Row cap applied after ordering.
    pub limit: Option<usize>,
}

/// What an `ORDER BY` sorts on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderTarget {
    /// Index into `Query::aggs`.
    Agg(usize),
    /// Index into `Query::group_by`.
    Dim(usize),
}

/// A result ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrderBy {
    pub target: OrderTarget,
    pub descending: bool,
}

impl Query {
    /// A full-table `count(*)`, the simplest well-formed query.
    pub fn count_star(table: impl Into<String>) -> Self {
        Query {
            table: table.into(),
            aggs: vec![AggSpec {
                func: AggFunc::Count,
                metric: None,
            }],
            predicates: Vec::new(),
            group_by: Vec::new(),
            order_by: None,
            limit: None,
        }
    }

    /// Whether `ORDER BY` names a column the result has. The parser bounds
    /// the index; a hand-built `Query` (the fields are public) need not.
    pub fn order_in_range(&self) -> bool {
        self.order_by.is_none_or(|order| match order.target {
            OrderTarget::Agg(i) => i < self.aggs.len(),
            OrderTarget::Dim(i) => i < self.group_by.len(),
        })
    }

    /// Apply this query's ordering and limit to a merged output. No
    /// `ORDER BY`, or one past the row's columns (the coordinator refuses
    /// it before the fan-out), keeps `finalize`'s group-key order.
    pub fn apply_order_limit(&self, output: &mut result::QueryOutput) {
        if let Some(order) = self.order_by {
            let cmp = |a: &result::ResultRow, b: &result::ResultRow| -> std::cmp::Ordering {
                let ord = match order.target {
                    OrderTarget::Agg(i) => {
                        (a.aggs.get(i).zip(b.aggs.get(i))).map(|(x, y)| x.total_cmp(y))
                    }
                    OrderTarget::Dim(i) => (a.key.get(i).zip(b.key.get(i)))
                        .map(|(x, y)| crate::value::cmp_values(x, y)),
                };
                let ord = ord.unwrap_or(std::cmp::Ordering::Equal);
                if order.descending {
                    ord.reverse()
                } else {
                    ord
                }
            };
            output.rows.sort_by(cmp);
        }
        if let Some(limit) = self.limit {
            output.rows.truncate(limit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_star_shape() {
        let q = Query::count_star("t");
        assert_eq!(q.table, "t");
        assert_eq!(q.aggs.len(), 1);
        assert!(q.predicates.is_empty());
        assert!(q.group_by.is_empty());
        assert!(q.order_by.is_none() && q.limit.is_none());
    }

    #[test]
    fn order_and_limit_application() {
        use crate::value::Value;
        let mut q = Query::count_star("t");
        q.aggs = vec![AggSpec::count_star()];
        q.group_by = vec!["d".into()];
        q.order_by = Some(OrderBy {
            target: OrderTarget::Agg(0),
            descending: true,
        });
        q.limit = Some(2);
        assert!(q.order_in_range());
        let mut out = result::QueryOutput {
            columns: vec!["count(*)".into()],
            rows: vec![
                result::ResultRow {
                    key: vec![Value::Str("a".into())],
                    aggs: vec![1.0],
                },
                result::ResultRow {
                    key: vec![Value::Str("b".into())],
                    aggs: vec![9.0],
                },
                result::ResultRow {
                    key: vec![Value::Str("c".into())],
                    aggs: vec![5.0],
                },
            ],
            rows_scanned: 15,
            table_partitions: 8,
        };
        q.apply_order_limit(&mut out);
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.rows[0].aggs[0], 9.0);
        assert_eq!(out.rows[1].aggs[0], 5.0);

        // Dim ordering, ascending.
        q.order_by = Some(OrderBy {
            target: OrderTarget::Dim(0),
            descending: false,
        });
        q.limit = None;
        q.apply_order_limit(&mut out);
        assert_eq!(out.rows[0].key[0], Value::Str("b".into()));

        // A target past the row's columns (only a hand-built query has
        // one) orders nothing and does not panic.
        let before = out.clone();
        for target in [OrderTarget::Agg(1), OrderTarget::Dim(1)] {
            q.order_by = Some(OrderBy {
                target,
                descending: true,
            });
            assert!(!q.order_in_range());
            q.apply_order_limit(&mut out);
            assert_eq!(out, before);
        }
    }
}
