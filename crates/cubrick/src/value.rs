//! Logical values.
//!
//! Cubrick columns are either *dimensions* (indexed, range-partitioned,
//! group-by-able) or *metrics* (aggregated). Dimension values are integers
//! or strings; metric values are numeric.

use std::fmt;

/// A logical value flowing through ingestion and query results.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Int(i64),
    Double(f64),
    Str(String),
    /// Absent group key / null metric (only produced internally).
    Null,
}

impl Value {
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Double(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Null => write!(f, "NULL"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// Total order over values for result sorting: numerics before strings
/// before null; numerics compare via `total_cmp` (group keys within one
/// dimension are homogeneous, so the cross-type arms are tie-breakers).
pub fn cmp_values(a: &Value, b: &Value) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    fn rank(v: &Value) -> u8 {
        match v {
            Value::Int(_) | Value::Double(_) => 0,
            Value::Str(_) => 1,
            Value::Null => 2,
        }
    }
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x.cmp(y),
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        (Value::Double(x), Value::Double(y)) => x.total_cmp(y),
        (Value::Int(x), Value::Double(y)) => (*x as f64).total_cmp(y),
        (Value::Double(x), Value::Int(y)) => x.total_cmp(&(*y as f64)),
        _ => rank(a).cmp(&rank(b)).then(Ordering::Equal),
    }
}

/// A row presented for ingestion: one value per dimension (schema order)
/// followed by one numeric value per metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub dims: Vec<Value>,
    pub metrics: Vec<f64>,
}

impl Row {
    pub fn new(dims: Vec<Value>, metrics: Vec<f64>) -> Self {
        Row { dims, metrics }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(2.5), Value::Double(2.5));
        assert_eq!(Value::from("x"), Value::Str("x".into()));
        assert_eq!(Value::Str("a".into()).as_str(), Some("a"));
        assert_eq!(Value::Int(1).as_str(), None);
    }

    #[test]
    fn cmp_values_total_order() {
        use std::cmp::Ordering::*;
        assert_eq!(cmp_values(&Value::Int(1), &Value::Int(2)), Less);
        assert_eq!(
            cmp_values(&Value::Str("a".into()), &Value::Str("b".into())),
            Less
        );
        assert_eq!(cmp_values(&Value::Double(1.5), &Value::Int(1)), Greater);
        assert_eq!(cmp_values(&Value::Int(3), &Value::Str("a".into())), Less);
        assert_eq!(cmp_values(&Value::Null, &Value::Str("a".into())), Greater);
    }

    #[test]
    fn display() {
        assert_eq!(Value::Int(-4).to_string(), "-4");
        assert_eq!(Value::Str("hi".into()).to_string(), "hi");
        assert_eq!(Value::Null.to_string(), "NULL");
    }
}
