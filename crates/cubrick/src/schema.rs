//! Table schemas.
//!
//! Granular Partitioning "range partitions the dataset on every dimension
//! column" (§IV), so each dimension declares, at table-creation time, the
//! shape of its key space:
//!
//! * integer dimensions declare `[min, max)` and a `range_size` (bucket
//!   width);
//! * string dimensions declare an expected cardinality and a `range_size`
//!   over dictionary ids.
//!
//! A dimension's value maps to an *ordinal* (offset for ints, dictionary
//! id for strings) and its ordinal to a *coordinate* `ordinal /
//! range_size`; the vector of coordinates addresses a brick.

use crate::error::{CubrickError, CubrickResult};

/// Kind and range configuration of a dimension.
#[derive(Debug, Clone, PartialEq)]
pub enum DimKind {
    /// Integer dimension over `[min, max)`.
    Int { min: i64, max: i64 },
    /// String dimension with a maximum dictionary cardinality.
    Str { max_cardinality: u32 },
}

/// A dimension column.
#[derive(Debug, Clone, PartialEq)]
pub struct Dimension {
    pub name: String,
    pub kind: DimKind,
    /// Bucket width of the range partitioning over this dimension's
    /// ordinal space. Must be ≥ 1.
    pub range_size: u32,
}

impl Dimension {
    pub fn int(name: impl Into<String>, min: i64, max: i64, range_size: u32) -> Self {
        Dimension {
            name: name.into(),
            kind: DimKind::Int { min, max },
            range_size,
        }
    }

    pub fn string(name: impl Into<String>, max_cardinality: u32, range_size: u32) -> Self {
        Dimension {
            name: name.into(),
            kind: DimKind::Str { max_cardinality },
            range_size,
        }
    }

    /// Size of the ordinal space (number of representable ordinals).
    pub fn cardinality(&self) -> u64 {
        match self.kind {
            DimKind::Int { min, max } => (max - min).max(0) as u64,
            DimKind::Str { max_cardinality } => max_cardinality as u64,
        }
    }

    /// Number of buckets (coordinates) along this dimension.
    pub fn bucket_count(&self) -> u64 {
        let card = self.cardinality();
        card.div_ceil(self.range_size as u64).max(1)
    }

    /// Map an integer value to its ordinal, checking range.
    pub fn int_ordinal(&self, v: i64) -> CubrickResult<u32> {
        match self.kind {
            DimKind::Int { min, max } => {
                if v < min || v >= max {
                    return Err(CubrickError::ValueOutOfRange {
                        dimension: self.name.clone(),
                        detail: format!("{v} outside [{min},{max})"),
                    });
                }
                Ok((v - min) as u32)
            }
            DimKind::Str { .. } => Err(CubrickError::TypeMismatch {
                column: self.name.clone(),
                expected: "string",
            }),
        }
    }

    /// Map an ordinal back to the integer value (integer dims only).
    pub fn int_value(&self, ordinal: u32) -> Option<i64> {
        match self.kind {
            DimKind::Int { min, .. } => Some(min + ordinal as i64),
            DimKind::Str { .. } => None,
        }
    }
}

/// A metric column (always aggregated as `f64`).
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
}

impl Metric {
    pub fn new(name: impl Into<String>) -> Self {
        Metric { name: name.into() }
    }
}

/// A table schema: ordered dimensions then ordered metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Schema {
    pub dimensions: Vec<Dimension>,
    pub metrics: Vec<Metric>,
}

impl Schema {
    pub fn new(dimensions: Vec<Dimension>, metrics: Vec<Metric>) -> CubrickResult<Self> {
        if dimensions.is_empty() {
            return Err(CubrickError::Internal {
                detail: "schema needs ≥1 dimension".into(),
            });
        }
        let mut names: Vec<&str> = dimensions
            .iter()
            .map(|d| d.name.as_str())
            .chain(metrics.iter().map(|m| m.name.as_str()))
            .collect();
        names.sort_unstable();
        if names.windows(2).any(|w| matches!(w, [a, b] if a == b)) {
            return Err(CubrickError::Internal {
                detail: "duplicate column name".into(),
            });
        }
        for d in &dimensions {
            if d.range_size == 0 {
                return Err(CubrickError::Internal {
                    detail: format!("dimension {:?} has range_size 0", d.name),
                });
            }
            if let DimKind::Int { min, max } = d.kind {
                if max <= min {
                    return Err(CubrickError::Internal {
                        detail: format!("dimension {:?} has empty range", d.name),
                    });
                }
                if (max - min) as u64 > u32::MAX as u64 {
                    return Err(CubrickError::Internal {
                        detail: format!("dimension {:?} range exceeds u32 ordinal space", d.name),
                    });
                }
            }
        }
        Ok(Schema {
            dimensions,
            metrics,
        })
    }

    pub fn dim_index(&self, name: &str) -> Option<usize> {
        self.dimensions.iter().position(|d| d.name == name)
    }

    pub fn metric_index(&self, name: &str) -> Option<usize> {
        self.metrics.iter().position(|m| m.name == name)
    }

    /// Validate a row's shape against the schema (type checks happen
    /// during encoding).
    pub fn check_row(&self, row: &crate::value::Row) -> CubrickResult<()> {
        if row.dims.len() != self.dimensions.len() {
            return Err(CubrickError::RowShape {
                table: String::new(),
                detail: format!(
                    "expected {} dimensions, got {}",
                    self.dimensions.len(),
                    row.dims.len()
                ),
            });
        }
        if row.metrics.len() != self.metrics.len() {
            return Err(CubrickError::RowShape {
                table: String::new(),
                detail: format!(
                    "expected {} metrics, got {}",
                    self.metrics.len(),
                    row.metrics.len()
                ),
            });
        }
        Ok(())
    }
}

/// Convenience builder used throughout tests and examples.
#[derive(Debug, Default)]
pub struct SchemaBuilder {
    dimensions: Vec<Dimension>,
    metrics: Vec<Metric>,
}

impl SchemaBuilder {
    pub fn new() -> Self {
        SchemaBuilder::default()
    }

    pub fn int_dim(mut self, name: &str, min: i64, max: i64, range_size: u32) -> Self {
        self.dimensions
            .push(Dimension::int(name, min, max, range_size));
        self
    }

    pub fn str_dim(mut self, name: &str, max_cardinality: u32, range_size: u32) -> Self {
        self.dimensions
            .push(Dimension::string(name, max_cardinality, range_size));
        self
    }

    pub fn metric(mut self, name: &str) -> Self {
        self.metrics.push(Metric::new(name));
        self
    }

    pub fn build(self) -> CubrickResult<Schema> {
        Schema::new(self.dimensions, self.metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{Row, Value};

    fn schema() -> Schema {
        SchemaBuilder::new()
            .int_dim("ds", 0, 100, 10)
            .str_dim("country", 1_000, 100)
            .metric("clicks")
            .build()
            .unwrap()
    }

    #[test]
    fn bucket_counts() {
        let s = schema();
        assert_eq!(s.dimensions[0].bucket_count(), 10);
        assert_eq!(s.dimensions[1].bucket_count(), 10);
        // Non-divisible range rounds up.
        let d = Dimension::int("x", 0, 95, 10);
        assert_eq!(d.bucket_count(), 10);
    }

    #[test]
    fn int_ordinal_round_trip_and_range_check() {
        let d = Dimension::int("x", -50, 50, 10);
        assert_eq!(d.int_ordinal(-50).unwrap(), 0);
        assert_eq!(d.int_ordinal(49).unwrap(), 99);
        assert_eq!(d.int_value(99), Some(49));
        assert!(d.int_ordinal(50).is_err());
        assert!(d.int_ordinal(-51).is_err());
    }

    #[test]
    fn type_mismatch() {
        let d = Dimension::string("c", 10, 2);
        assert!(matches!(
            d.int_ordinal(1),
            Err(CubrickError::TypeMismatch { .. })
        ));
        assert_eq!(d.int_value(0), None);
    }

    #[test]
    fn schema_validation() {
        assert!(Schema::new(vec![], vec![]).is_err());
        assert!(SchemaBuilder::new()
            .int_dim("a", 0, 10, 1)
            .int_dim("a", 0, 10, 1)
            .build()
            .is_err());
        assert!(SchemaBuilder::new()
            .int_dim("a", 10, 10, 1)
            .build()
            .is_err());
        assert!(SchemaBuilder::new().int_dim("a", 0, 10, 0).build().is_err());
        // Dim/metric name clash.
        assert!(SchemaBuilder::new()
            .int_dim("a", 0, 10, 1)
            .metric("a")
            .build()
            .is_err());
    }

    #[test]
    fn row_shape_check() {
        let s = schema();
        let good = Row::new(vec![Value::Int(5), Value::from("US")], vec![1.0]);
        assert!(s.check_row(&good).is_ok());
        let bad = Row::new(vec![Value::Int(5)], vec![1.0]);
        assert!(s.check_row(&bad).is_err());
        let bad = Row::new(vec![Value::Int(5), Value::from("US")], vec![]);
        assert!(s.check_row(&bad).is_err());
    }

    #[test]
    fn lookups() {
        let s = schema();
        assert_eq!(s.dim_index("country"), Some(1));
        assert_eq!(s.dim_index("nope"), None);
        assert_eq!(s.metric_index("clicks"), Some(0));
    }
}
