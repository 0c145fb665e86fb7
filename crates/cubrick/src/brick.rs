//! The brick: Cubrick's columnar data block.
//!
//! A brick holds the rows whose dimension coordinates all fall in one bucket
//! of the granular-partitioning grid. Within a brick, storage is columnar and
//! append-only: the dimensions' `u32` ordinal columns sit back to back in one
//! buffer and the metrics' `f64` columns in another, each at a stride of `cap`
//! rows, so a brick is two heap blocks whatever the schema's width (`cap` is
//! modelled: DESIGN.md "Ingest path contract", order 4). Bricks are the unit
//! of pruning, of hotness tracking and of adaptive compression.

/// Columns of one kind a partial decode can leave out (a bit each of a `u32`).
const SKIPPABLE: usize = u32::BITS as usize;

/// An uncompressed columnar data block (`u32` counts: its header fits a cache line).
#[derive(Debug, Default)]
pub struct Brick {
    dims: Columns<u32>,
    metrics: Columns<f64>,
    rows: u32,
    /// 0, then `max(2·cap, 4)` when a push finds it full; `rows` after a clone, shrink or decode.
    cap: u32,
}

impl Brick {
    pub fn new(num_dims: usize, num_metrics: usize) -> Self {
        let dims = Columns {
            count: num_dims as u32,
            ..Columns::default()
        };
        let metrics = Columns {
            count: num_metrics as u32,
            ..Columns::default()
        };
        Brick {
            dims,
            metrics,
            rows: 0,
            cap: 0,
        }
    }

    /// Append one row (`ordinals` in schema dimension order).
    pub fn push(&mut self, ordinals: &[u32], metrics: &[f64]) {
        if self.rows == self.cap {
            assert!(
                self.cap < u32::MAX,
                "a brick holds fewer than u32::MAX rows"
            );
            *self = self.at_cap(self.cap.saturating_mul(2).max(4));
        }
        self.dims.put(self.rows, self.cap, ordinals);
        self.metrics.put(self.rows, self.cap, metrics);
        self.rows += 1;
    }

    pub fn rows(&self) -> usize {
        self.rows as usize
    }

    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    pub fn num_dims(&self) -> usize {
        self.dims.count as usize
    }

    pub fn num_metrics(&self) -> usize {
        self.metrics.count as usize
    }

    /// Dimension column `d`, empty if a partial decode left it out.
    pub fn dim(&self, d: usize) -> &[u32] {
        self.dims.get(d, self.cap, self.rows)
    }

    /// Metric column `m`, empty if a partial decode left it out.
    pub fn metric(&self, m: usize) -> &[f64] {
        self.metrics.get(m, self.cap, self.rows)
    }

    /// Bytes of the columns at the modelled capacity (per-brick overhead is the store's).
    pub fn footprint(&self) -> u64 {
        (self.dims.values.len() * 4 + self.metrics.values.len() * 8) as u64
    }

    /// Exact payload size (lengths, not capacities) — the "decompressed
    /// size" load-balancing metric is derived from this.
    pub fn payload_bytes(&self) -> u64 {
        (self.num_dims() * 4 + self.num_metrics() * 8) as u64 * u64::from(self.rows)
    }

    /// Rebuild from decoded columns (decompression) at `cap = rows`.
    pub(crate) fn from_columns(rows: usize, dims: Columns<u32>, metrics: Columns<f64>) -> Self {
        Brick {
            dims,
            metrics,
            rows: rows as u32,
            cap: rows as u32,
        }
    }

    /// Release excess capacity (after bulk loads).
    pub fn shrink(&mut self) {
        *self = self.at_cap(self.rows);
    }

    /// A copy with its columns at stride `cap` (≥ `rows`).
    fn at_cap(&self, cap: u32) -> Self {
        let dims = self.dims.restride(self.cap, cap, self.rows);
        let metrics = self.metrics.restride(self.cap, cap, self.rows);
        Brick {
            dims,
            metrics,
            cap,
            ..*self
        }
    }
}

impl Clone for Brick {
    /// The copy's columns are exactly `rows` long: its `cap` is its `rows`.
    fn clone(&self) -> Self {
        self.at_cap(self.rows)
    }
}

impl PartialEq for Brick {
    /// Equal logical columns, whatever the capacities.
    fn eq(&self, other: &Self) -> bool {
        (self.rows, self.dims.count, self.metrics.count)
            == (other.rows, other.dims.count, other.metrics.count)
            && (0..self.num_dims()).all(|d| self.dim(d) == other.dim(d))
            && (0..self.num_metrics()).all(|m| self.metric(m) == other.metric(m))
    }
}

/// One kind of a brick's columns, bit `c` of `skipped` set if a partial decode left `c` out.
#[derive(Debug, Default)]
pub(crate) struct Columns<T> {
    values: Box<[T]>,
    count: u32,
    skipped: u32,
}

impl<T: Copy + Default> Columns<T> {
    /// Decode with `decode`, at stride `rows`, the `encoded` columns `want`
    /// picks and every one past the first [`SKIPPABLE`].
    pub(crate) fn decode<E>(
        rows: usize,
        encoded: &[E],
        want: impl Fn(usize) -> bool,
        decode: impl Fn(&E) -> Vec<T>,
    ) -> Self {
        let left_out = (0..encoded.len().min(SKIPPABLE)).filter(|&c| !want(c));
        let skipped: u32 = left_out.fold(0, |mask, c| mask | 1 << c);
        let mut values = Vec::with_capacity((encoded.len() - skipped.count_ones() as usize) * rows);
        for (c, column) in encoded.iter().enumerate() {
            if c >= SKIPPABLE || want(c) {
                let column = decode(column);
                assert_eq!(column.len(), rows, "column length mismatch");
                values.extend_from_slice(&column);
            }
        }
        let (values, count) = (values.into_boxed_slice(), encoded.len() as u32);
        Columns {
            values,
            count,
            skipped,
        }
    }

    /// Column `c`, or none if it was left out.
    fn get(&self, c: usize, cap: u32, rows: u32) -> &[T] {
        if c < SKIPPABLE && self.skipped >> c & 1 == 1 {
            return &[];
        }
        // The stored columns before `c`: `c` less the skipped ones up to it.
        let upto = u64::from(self.skipped) & ((2 << c.min(SKIPPABLE)) - 1);
        let slot = c - upto.count_ones() as usize;
        &self.values[slot * cap as usize..][..rows as usize]
    }

    /// Write one row's values (one per column) at row `row`.
    fn put(&mut self, row: u32, cap: u32, row_values: &[T]) {
        debug_assert_eq!((row_values.len(), self.skipped), (self.count as usize, 0));
        let slots = self.values.iter_mut().skip(row as usize);
        for (slot, &v) in slots.step_by(cap as usize).zip(row_values) {
            *slot = v;
        }
    }

    /// A copy at stride `to` (≥ `rows`) of these columns at stride `from`.
    fn restride(&self, from: u32, to: u32, rows: u32) -> Self {
        let (from, to, rows) = (from as usize, to as usize, rows as usize);
        let stored = (self.count - self.skipped.count_ones()) as usize;
        let mut values = vec![T::default(); stored * to].into_boxed_slice();
        for c in 0..stored {
            values[c * to..][..rows].copy_from_slice(&self.values[c * from..][..rows]);
        }
        Columns { values, ..*self }
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
        assert_eq!(b.dim(0), [1, 3]);
        assert_eq!(b.dim(1), [2, 4]);
        assert_eq!(b.metric(0), [10.0, 20.0]);
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

    #[test]
    fn a_header_fits_a_cache_line() {
        assert!(std::mem::size_of::<Brick>() <= 64);
    }
}
