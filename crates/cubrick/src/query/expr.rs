//! Predicates and their compilation to ordinal constraints.
//!
//! Queries carry predicates over *logical* values; each partition compiles
//! them against its own schema and dictionaries into inclusive ordinal
//! ranges per dimension. Those ranges drive both brick pruning (bucket
//! granularity) and the residual row filter (exact granularity).

use crate::brick::Brick;
use crate::error::{CubrickError, CubrickResult};
use crate::schema::{DimKind, Schema};
use crate::store::PartitionData;
use crate::value::Value;

/// Comparison forms supported on dimensions.
#[derive(Debug, Clone, PartialEq)]
pub enum PredOp {
    /// `dim = value`
    Eq(Value),
    /// `dim IN (v1, v2, ...)`
    In(Vec<Value>),
    /// `dim BETWEEN lo AND hi` (inclusive; integer dimensions only).
    Between(i64, i64),
}

/// One conjunct of a query's WHERE clause.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    pub dim: String,
    pub op: PredOp,
}

impl Predicate {
    pub fn eq(dim: impl Into<String>, v: impl Into<Value>) -> Self {
        Predicate {
            dim: dim.into(),
            op: PredOp::Eq(v.into()),
        }
    }

    pub fn is_in(dim: impl Into<String>, vs: Vec<Value>) -> Self {
        Predicate {
            dim: dim.into(),
            op: PredOp::In(vs),
        }
    }

    pub fn between(dim: impl Into<String>, lo: i64, hi: i64) -> Self {
        Predicate {
            dim: dim.into(),
            op: PredOp::Between(lo, hi),
        }
    }
}

/// Compiled constraints: for each dimension (schema order), `None` =
/// unconstrained, or sorted disjoint inclusive ordinal ranges.
///
/// `satisfiable == false` means some predicate can never match in this
/// partition (e.g. a string literal absent from the dictionary) — the
/// partition contributes an empty result without scanning.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledPredicates {
    pub per_dim: Vec<Option<Vec<(u32, u32)>>>,
    pub satisfiable: bool,
}

impl CompiledPredicates {
    /// The residual filter over one brick, one dimension column at a
    /// time: leave in `selected` the rows (ascending) whose ordinal on
    /// every dimension of `dims` falls in that dimension's ranges.
    pub fn select_rows(&self, brick: &Brick, dims: &[usize], selected: &mut Vec<u32>) {
        selected.clear();
        selected.extend(0..brick.rows() as u32);
        for &d in dims {
            let Some(ranges) = &self.per_dim[d] else {
                continue;
            };
            let column = brick.dim(d);
            // Compact in place without a data-dependent branch (a
            // dictionary id sits anywhere in its range, so `lo <= ord`
            // alone is a coin flip): every row is written, only a match
            // advances the write position.
            let mut kept = 0;
            for i in 0..selected.len() {
                let row = selected[i];
                let ord = column[row as usize];
                let hit = ranges
                    .iter()
                    .fold(false, |hit, &(lo, hi)| hit | ((lo <= ord) & (ord <= hi)));
                selected[kept] = row;
                kept += usize::from(hit);
            }
            selected.truncate(kept);
        }
    }
}

/// Normalize ranges: sort, merge overlaps/adjacency.
fn normalize(mut ranges: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
    ranges.retain(|&(lo, hi)| lo <= hi);
    ranges.sort_unstable();
    let mut out: Vec<(u32, u32)> = Vec::with_capacity(ranges.len());
    for (lo, hi) in ranges {
        match out.last_mut() {
            Some(last) if lo <= last.1.saturating_add(1) => last.1 = last.1.max(hi),
            _ => out.push((lo, hi)),
        }
    }
    out
}

/// Intersect two normalized range sets.
fn intersect(a: &[(u32, u32)], b: &[(u32, u32)]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if lo <= hi {
            out.push((lo, hi));
        }
        if a[i].1 < b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    out
}

/// Ordinal ranges matched by one predicate value on one dimension.
fn value_ranges(
    partition: &PartitionData,
    schema: &Schema,
    dim_idx: usize,
    v: &Value,
) -> CubrickResult<Vec<(u32, u32)>> {
    let dim = &schema.dimensions[dim_idx];
    match (&dim.kind, v) {
        (DimKind::Int { .. }, Value::Int(x)) => match dim.int_ordinal(*x) {
            Ok(ord) => Ok(vec![(ord, ord)]),
            // Out-of-range literal matches nothing (not an error: the
            // query is valid, the value just cannot exist).
            Err(CubrickError::ValueOutOfRange { .. }) => Ok(vec![]),
            Err(e) => Err(e),
        },
        (DimKind::Str { .. }, Value::Str(s)) => {
            Ok(match partition.dict(dim_idx).and_then(|d| d.lookup(s)) {
                Some(id) => vec![(id, id)],
                None => vec![], // string never ingested here
            })
        }
        (DimKind::Int { .. }, _) => Err(CubrickError::TypeMismatch {
            column: dim.name.clone(),
            expected: "int",
        }),
        (DimKind::Str { .. }, _) => Err(CubrickError::TypeMismatch {
            column: dim.name.clone(),
            expected: "string",
        }),
    }
}

/// Compile a conjunction of predicates against one partition.
pub fn compile(
    partition: &PartitionData,
    predicates: &[Predicate],
) -> CubrickResult<CompiledPredicates> {
    let schema = partition.schema().clone();
    let mut per_dim: Vec<Option<Vec<(u32, u32)>>> = vec![None; schema.dimensions.len()];
    let mut satisfiable = true;

    for pred in predicates {
        let dim_idx = schema
            .dim_index(&pred.dim)
            .ok_or_else(|| CubrickError::NoSuchColumn {
                table: String::new(),
                column: pred.dim.clone(),
            })?;
        let ranges: Vec<(u32, u32)> = match &pred.op {
            PredOp::Eq(v) => value_ranges(partition, &schema, dim_idx, v)?,
            PredOp::In(vs) => {
                let mut all = Vec::new();
                for v in vs {
                    all.extend(value_ranges(partition, &schema, dim_idx, v)?);
                }
                all
            }
            PredOp::Between(lo, hi) => {
                let dim = &schema.dimensions[dim_idx];
                match dim.kind {
                    DimKind::Int { min, max } => {
                        let lo_c = (*lo).max(min);
                        let hi_c = (*hi).min(max - 1);
                        if lo_c > hi_c {
                            vec![]
                        } else {
                            let (Ok(lo_o), Ok(hi_o)) =
                                (dim.int_ordinal(lo_c), dim.int_ordinal(hi_c))
                            else {
                                return Err(CubrickError::Internal {
                                    detail: format!("clamped BETWEEN bound outside {:?}", pred.dim),
                                });
                            };
                            vec![(lo_o, hi_o)]
                        }
                    }
                    DimKind::Str { .. } => {
                        return Err(CubrickError::InvalidQuery {
                            detail: format!("BETWEEN on string dimension {:?}", pred.dim),
                        })
                    }
                }
            }
        };
        let ranges = normalize(ranges);
        let merged = match &per_dim[dim_idx] {
            None => ranges,
            Some(existing) => intersect(existing, &ranges),
        };
        if merged.is_empty() {
            satisfiable = false;
        }
        per_dim[dim_idx] = Some(merged);
    }
    Ok(CompiledPredicates {
        per_dim,
        satisfiable,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;
    use crate::value::Row;
    use std::sync::Arc;

    fn partition() -> PartitionData {
        let schema = Arc::new(
            SchemaBuilder::new()
                .int_dim("ds", 0, 100, 10)
                .str_dim("country", 100, 10)
                .metric("m")
                .build()
                .unwrap(),
        );
        let mut p = PartitionData::new(schema);
        for ds in 0..50 {
            for c in ["US", "BR"] {
                p.ingest(&Row::new(vec![Value::Int(ds), Value::from(c)], vec![1.0]))
                    .unwrap();
            }
        }
        p
    }

    #[test]
    fn normalize_merges() {
        assert_eq!(normalize(vec![(5, 9), (0, 3), (4, 4)]), vec![(0, 9)]);
        assert_eq!(normalize(vec![(0, 2), (5, 7)]), vec![(0, 2), (5, 7)]);
        assert_eq!(normalize(vec![(3, 1)]), Vec::<(u32, u32)>::new());
    }

    #[test]
    fn intersect_works() {
        assert_eq!(intersect(&[(0, 10)], &[(5, 20)]), vec![(5, 10)]);
        assert_eq!(
            intersect(&[(0, 3), (8, 12)], &[(2, 9)]),
            vec![(2, 3), (8, 9)]
        );
        assert_eq!(intersect(&[(0, 3)], &[(5, 9)]), vec![]);
    }

    #[test]
    fn eq_int_compiles_to_point() {
        let p = partition();
        let c = compile(&p, &[Predicate::eq("ds", 42i64)]).unwrap();
        assert_eq!(c.per_dim[0], Some(vec![(42, 42)]));
        assert_eq!(c.per_dim[1], None);
        assert!(c.satisfiable);
    }

    #[test]
    fn select_rows_filters_column_by_column() {
        let p = partition();
        let br = p.dict(1).unwrap().lookup("BR").unwrap();
        let c = compile(
            &p,
            &[
                Predicate::is_in("ds", vec![Value::Int(1), Value::Int(3)]),
                Predicate::eq("country", "BR"),
            ],
        )
        .unwrap();
        let mut brick = Brick::new(2, 1);
        for (ds, country) in [(1, br), (2, br), (3, 1 - br), (3, br), (1, 1 - br)] {
            brick.push(&[ds, country], &[1.0]);
        }
        let mut selected = vec![9];
        c.select_rows(&brick, &[0, 1], &mut selected);
        assert_eq!(selected, vec![0, 3]);
        c.select_rows(&brick, &[0], &mut selected);
        assert_eq!(selected, vec![0, 2, 3, 4]);
        c.select_rows(&brick, &[], &mut selected);
        assert_eq!(selected, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn eq_string_uses_dictionary() {
        let p = partition();
        let c = compile(&p, &[Predicate::eq("country", "BR")]).unwrap();
        let id = p.dict(1).unwrap().lookup("BR").unwrap();
        assert_eq!(c.per_dim[1], Some(vec![(id, id)]));
    }

    #[test]
    fn missing_string_is_unsatisfiable() {
        let p = partition();
        let c = compile(&p, &[Predicate::eq("country", "JP")]).unwrap();
        assert!(!c.satisfiable);
    }

    #[test]
    fn in_merges_adjacent_values() {
        let p = partition();
        let c = compile(
            &p,
            &[Predicate::is_in(
                "ds",
                vec![Value::Int(3), Value::Int(4), Value::Int(9)],
            )],
        )
        .unwrap();
        assert_eq!(c.per_dim[0], Some(vec![(3, 4), (9, 9)]));
    }

    #[test]
    fn between_clamps_to_dimension_range() {
        let p = partition();
        let c = compile(&p, &[Predicate::between("ds", -5, 12)]).unwrap();
        assert_eq!(c.per_dim[0], Some(vec![(0, 12)]));
        let c = compile(&p, &[Predicate::between("ds", 150, 200)]).unwrap();
        assert!(!c.satisfiable);
    }

    #[test]
    fn between_on_string_rejected() {
        let p = partition();
        assert!(matches!(
            compile(&p, &[Predicate::between("country", 0, 1)]),
            Err(CubrickError::InvalidQuery { .. })
        ));
    }

    #[test]
    fn conjunction_on_same_dim_intersects() {
        let p = partition();
        let c = compile(
            &p,
            &[
                Predicate::between("ds", 0, 20),
                Predicate::between("ds", 10, 30),
            ],
        )
        .unwrap();
        assert_eq!(c.per_dim[0], Some(vec![(10, 20)]));
        // Disjoint conjunction → unsatisfiable.
        let c = compile(
            &p,
            &[
                Predicate::between("ds", 0, 5),
                Predicate::between("ds", 50, 60),
            ],
        )
        .unwrap();
        assert!(!c.satisfiable);
    }

    #[test]
    fn unknown_column_and_type_mismatch() {
        let p = partition();
        assert!(matches!(
            compile(&p, &[Predicate::eq("nope", 1i64)]),
            Err(CubrickError::NoSuchColumn { .. })
        ));
        assert!(matches!(
            compile(&p, &[Predicate::eq("ds", "x")]),
            Err(CubrickError::TypeMismatch { .. })
        ));
        assert!(matches!(
            compile(&p, &[Predicate::eq("country", 3i64)]),
            Err(CubrickError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn out_of_range_int_literal_matches_nothing() {
        let p = partition();
        let c = compile(&p, &[Predicate::eq("ds", 5_000i64)]).unwrap();
        assert!(!c.satisfiable);
    }
}
