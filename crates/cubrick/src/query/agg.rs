//! Aggregate functions and mergeable accumulators.
//!
//! Aggregation state must be *mergeable*, because every partition produces
//! a partial result that the query coordinator merges (§IV-C): `avg` is
//! therefore carried as `(sum, count)` until finalization.

use crate::error::{CubrickError, CubrickResult};
use crate::schema::Schema;

/// Supported aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

impl AggFunc {
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
        }
    }
}

/// One aggregation in a query's SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    pub func: AggFunc,
    /// Metric name; `None` only for `count(*)`.
    pub metric: Option<String>,
}

impl AggSpec {
    pub fn count_star() -> Self {
        AggSpec {
            func: AggFunc::Count,
            metric: None,
        }
    }

    pub fn new(func: AggFunc, metric: impl Into<String>) -> Self {
        AggSpec {
            func,
            metric: Some(metric.into()),
        }
    }

    /// Resolve the metric column index, validating against the schema.
    pub fn metric_index(&self, schema: &Schema, table: &str) -> CubrickResult<Option<usize>> {
        match &self.metric {
            None => {
                if self.func == AggFunc::Count {
                    Ok(None)
                } else {
                    Err(CubrickError::InvalidQuery {
                        detail: format!("{}(*) is not supported", self.func.name()),
                    })
                }
            }
            Some(name) => {
                schema
                    .metric_index(name)
                    .map(Some)
                    .ok_or_else(|| CubrickError::NoSuchColumn {
                        table: table.to_string(),
                        column: name.clone(),
                    })
            }
        }
    }

    /// Human-readable output column name, e.g. `sum(clicks)`.
    pub fn label(&self) -> String {
        match &self.metric {
            Some(m) => format!("{}({m})", self.func.name()),
            None => format!("{}(*)", self.func.name()),
        }
    }
}

/// Mergeable accumulator for one aggregation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AggState {
    Count(u64),
    Sum(f64),
    Min(f64),
    Max(f64),
    Avg { sum: f64, count: u64 },
}

impl AggState {
    /// Merge another partial accumulator of the same shape. A different
    /// shape means the two partials answer different queries: a typed
    /// error, because this runs on the coordinator's merge path.
    pub fn merge(&mut self, other: &AggState) -> CubrickResult<()> {
        match (self, other) {
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (AggState::Sum(a), AggState::Sum(b)) => *a += b,
            (AggState::Min(a), AggState::Min(b)) => *a = a.min(*b),
            (AggState::Max(a), AggState::Max(b)) => *a = a.max(*b),
            (AggState::Avg { sum: s1, count: c1 }, AggState::Avg { sum: s2, count: c2 }) => {
                *s1 += s2;
                *c1 += c2;
            }
            (a, b) => {
                return Err(CubrickError::Internal {
                    detail: format!("merging mismatched accumulators {a:?} / {b:?}"),
                })
            }
        }
        Ok(())
    }

    /// Final scalar value. A group exists only once a row lands in it, so
    /// no engine path finalizes an identity state: `min` and `max` answer
    /// what they hold, an infinite metric included.
    pub fn finalize(&self) -> f64 {
        match self {
            AggState::Count(c) => *c as f64,
            AggState::Sum(s) | AggState::Min(s) | AggState::Max(s) => *s,
            AggState::Avg { sum, count } => {
                if *count == 0 {
                    f64::NAN
                } else {
                    sum / *count as f64
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;

    /// Row-at-a-time folding, the reference these tests check against.
    impl AggState {
        /// Fresh accumulator for a function.
        fn init(func: AggFunc) -> Self {
            match func {
                AggFunc::Count => AggState::Count(0),
                AggFunc::Sum => AggState::Sum(0.0),
                AggFunc::Min => AggState::Min(f64::INFINITY),
                AggFunc::Max => AggState::Max(f64::NEG_INFINITY),
                AggFunc::Avg => AggState::Avg { sum: 0.0, count: 0 },
            }
        }

        /// Fold one row's metric value in (`v` is ignored by `Count`).
        fn update(&mut self, v: f64) {
            match self {
                AggState::Count(c) => *c += 1,
                AggState::Sum(s) => *s += v,
                AggState::Min(m) => *m = m.min(v),
                AggState::Max(m) => *m = m.max(v),
                AggState::Avg { sum, count } => {
                    *sum += v;
                    *count += 1;
                }
            }
        }
    }

    #[test]
    fn accumulate_each_function() {
        let values = [3.0, -1.0, 4.0, 4.0];
        let mut states: Vec<AggState> = [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Avg,
        ]
        .iter()
        .map(|&f| AggState::init(f))
        .collect();
        for &v in &values {
            for s in &mut states {
                s.update(v);
            }
        }
        assert_eq!(states[0].finalize(), 4.0);
        assert_eq!(states[1].finalize(), 10.0);
        assert_eq!(states[2].finalize(), -1.0);
        assert_eq!(states[3].finalize(), 4.0);
        assert_eq!(states[4].finalize(), 2.5);
    }

    #[test]
    fn merge_equals_single_pass() {
        let (a_vals, b_vals) = ([1.0, 2.0], [3.0, 4.0, 5.0]);
        for func in [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Avg,
        ] {
            let mut left = AggState::init(func);
            let mut right = AggState::init(func);
            let mut whole = AggState::init(func);
            for &v in &a_vals {
                left.update(v);
                whole.update(v);
            }
            for &v in &b_vals {
                right.update(v);
                whole.update(v);
            }
            left.merge(&right).unwrap();
            assert_eq!(left.finalize(), whole.finalize(), "{func:?}");
        }
    }

    #[test]
    fn identity_states_finalize_to_what_they_hold() {
        assert_eq!(AggState::init(AggFunc::Count).finalize(), 0.0);
        assert_eq!(AggState::init(AggFunc::Sum).finalize(), 0.0);
        assert_eq!(AggState::init(AggFunc::Min).finalize(), f64::INFINITY);
        assert_eq!(AggState::init(AggFunc::Max).finalize(), f64::NEG_INFINITY);
        assert!(AggState::init(AggFunc::Avg).finalize().is_nan());
    }

    #[test]
    fn min_max_over_infinities_answer_their_value() {
        let fold = |func, values: &[f64]| {
            let mut state = AggState::init(func);
            values.iter().for_each(|&v| state.update(v));
            state.finalize()
        };
        assert_eq!(
            fold(AggFunc::Min, &[1.0, f64::NEG_INFINITY]),
            f64::NEG_INFINITY
        );
        assert_eq!(fold(AggFunc::Max, &[f64::INFINITY, 3.0]), f64::INFINITY);
        assert_eq!(fold(AggFunc::Min, &[f64::INFINITY, 3.0]), 3.0);
    }

    #[test]
    fn merge_mismatch_is_a_typed_error() {
        let mut a = AggState::init(AggFunc::Sum);
        assert!(matches!(
            a.merge(&AggState::init(AggFunc::Count)),
            Err(CubrickError::Internal { .. })
        ));
    }

    #[test]
    fn spec_validation() {
        let schema = SchemaBuilder::new()
            .int_dim("d", 0, 10, 1)
            .metric("m")
            .build()
            .unwrap();
        assert_eq!(
            AggSpec::count_star().metric_index(&schema, "t").unwrap(),
            None
        );
        assert_eq!(
            AggSpec::new(AggFunc::Sum, "m")
                .metric_index(&schema, "t")
                .unwrap(),
            Some(0)
        );
        assert!(AggSpec::new(AggFunc::Sum, "zz")
            .metric_index(&schema, "t")
            .is_err());
        let bad = AggSpec {
            func: AggFunc::Sum,
            metric: None,
        };
        assert!(bad.metric_index(&schema, "t").is_err());
    }

    #[test]
    fn labels() {
        assert_eq!(AggSpec::count_star().label(), "count(*)");
        assert_eq!(AggSpec::new(AggFunc::Avg, "x").label(), "avg(x)");
    }
}
