//! The brick: Cubrick's columnar data block.
//!
//! A brick holds the rows whose dimension coordinates all fall in one
//! bucket of the granular-partitioning grid. Within a brick, storage is
//! columnar and append-only: one `u32` ordinal column per dimension and
//! one `f64` column per metric. Bricks are the unit of pruning, of
//! hotness tracking and of adaptive compression.

/// An uncompressed columnar data block.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Brick {
    /// One ordinal column per dimension (schema order).
    pub dims: Vec<Vec<u32>>,
    /// One value column per metric (schema order).
    pub metrics: Vec<Vec<f64>>,
    rows: usize,
}

impl Brick {
    pub fn new(num_dims: usize, num_metrics: usize) -> Self {
        Brick {
            dims: vec![Vec::new(); num_dims],
            metrics: vec![Vec::new(); num_metrics],
            rows: 0,
        }
    }

    /// Append one row (`ordinals` in schema dimension order).
    pub fn push(&mut self, ordinals: &[u32], metrics: &[f64]) {
        debug_assert_eq!(ordinals.len(), self.dims.len());
        debug_assert_eq!(metrics.len(), self.metrics.len());
        for (col, &v) in self.dims.iter_mut().zip(ordinals) {
            col.push(v);
        }
        for (col, &v) in self.metrics.iter_mut().zip(metrics) {
            col.push(v);
        }
        self.rows += 1;
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// In-memory footprint in bytes (column payloads only; per-brick
    /// overhead is accounted once at the store level).
    pub fn footprint(&self) -> u64 {
        let dim_bytes: usize = self.dims.iter().map(|c| c.capacity() * 4).sum();
        let metric_bytes: usize = self.metrics.iter().map(|c| c.capacity() * 8).sum();
        (dim_bytes + metric_bytes) as u64
    }

    /// Exact payload size (lengths, not capacities) — the "decompressed
    /// size" load-balancing metric is derived from this.
    pub fn payload_bytes(&self) -> u64 {
        (self.dims.len() * self.rows * 4 + self.metrics.len() * self.rows * 8) as u64
    }

    /// Rebuild from decoded columns (decompression). A column may be
    /// left empty when the caller decoded only part of the brick; any
    /// other length disagreeing with `rows` panics.
    pub(crate) fn from_columns(dims: Vec<Vec<u32>>, metrics: Vec<Vec<f64>>, rows: usize) -> Self {
        assert!(
            dims.iter().all(|c| c.len() == rows || c.is_empty()),
            "dim column length mismatch"
        );
        assert!(
            metrics.iter().all(|c| c.len() == rows || c.is_empty()),
            "metric column length mismatch"
        );
        Brick {
            dims,
            metrics,
            rows,
        }
    }

    /// Release excess capacity (after bulk loads).
    pub fn shrink(&mut self) {
        for c in &mut self.dims {
            c.shrink_to_fit();
        }
        for c in &mut self.metrics {
            c.shrink_to_fit();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_back() {
        let mut b = Brick::new(2, 1);
        b.push(&[1, 2], &[10.0]);
        b.push(&[3, 4], &[20.0]);
        assert_eq!(b.rows(), 2);
        assert_eq!(b.dims[0], vec![1, 3]);
        assert_eq!(b.dims[1], vec![2, 4]);
        assert_eq!(b.metrics[0], vec![10.0, 20.0]);
    }

    #[test]
    fn footprints() {
        let mut b = Brick::new(2, 1);
        assert_eq!(b.payload_bytes(), 0);
        for i in 0..100 {
            b.push(&[i, i], &[i as f64]);
        }
        assert_eq!(b.payload_bytes(), 100 * (2 * 4 + 8));
        assert!(b.footprint() >= b.payload_bytes());
        b.shrink();
        assert_eq!(b.footprint(), b.payload_bytes());
    }

    #[test]
    fn zero_metric_brick() {
        let mut b = Brick::new(1, 0);
        b.push(&[7], &[]);
        assert_eq!(b.rows(), 1);
        assert_eq!(b.payload_bytes(), 4);
    }
}
