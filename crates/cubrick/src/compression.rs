//! Whole-brick compression.
//!
//! The unit of adaptive compression is the brick: when the memory monitor
//! decides a brick is cold enough, every one of its columns is encoded
//! with the best-fitting codec and the uncompressed representation is
//! dropped. Decompression restores the exact original columns.

use crate::brick::{Brick, Columns};
use crate::encoding::{self, EncodedF64, EncodedU32};

/// A fully compressed brick.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedBrick {
    dims: Vec<EncodedU32>,
    metrics: Vec<EncodedF64>,
    rows: usize,
    /// Payload bytes of the original (for ratio accounting and the gen-2
    /// "decompressed size" metric).
    original_bytes: u64,
}

impl CompressedBrick {
    /// Compress a brick (the original is consumed).
    pub fn compress(brick: Brick) -> Self {
        let original_bytes = brick.payload_bytes();
        let rows = brick.rows();
        CompressedBrick {
            dims: (0..brick.num_dims())
                .map(|d| encoding::encode_u32_auto(brick.dim(d)))
                .collect(),
            metrics: (0..brick.num_metrics())
                .map(|m| encoding::encode_f64(brick.metric(m)))
                .collect(),
            rows,
            original_bytes,
        }
    }

    /// Restore the original brick.
    pub fn decompress(&self) -> Brick {
        self.decode_columns(|_| true, |_| true)
    }

    /// Decode only the dimension and metric columns the predicates pick
    /// (by schema index). Columns not asked for come back empty (past
    /// the 32nd of a kind they are decoded anyway); `rows()` is the
    /// brick's row count either way.
    pub fn decode_columns(
        &self,
        want_dim: impl Fn(usize) -> bool,
        want_metric: impl Fn(usize) -> bool,
    ) -> Brick {
        Brick::from_columns(
            self.rows,
            Columns::decode(self.rows, &self.dims, want_dim, encoding::decode_u32),
            Columns::decode(self.rows, &self.metrics, want_metric, encoding::decode_f64),
        )
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Compressed in-memory footprint in bytes.
    pub fn footprint(&self) -> u64 {
        let d: u64 = self.dims.iter().map(|e| e.encoded_bytes()).sum();
        let m: u64 = self.metrics.iter().map(|e| e.encoded_bytes()).sum();
        d + m
    }

    /// Payload bytes the brick occupies when decompressed.
    pub fn decompressed_bytes(&self) -> u64 {
        self.original_bytes
    }

    /// `original / compressed` (1.0 for empty bricks).
    pub fn ratio(&self) -> f64 {
        let c = self.footprint();
        if c == 0 {
            1.0
        } else {
            self.original_bytes as f64 / c as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_brick(rows: usize) -> Brick {
        let mut b = Brick::new(3, 2);
        for i in 0..rows {
            // dim0 constant-ish, dim1 monotonic, dim2 small domain.
            b.push(
                &[7, i as u32, (i % 5) as u32],
                &[i as f64, 1000.0 + (i % 3) as f64],
            );
        }
        b
    }

    #[test]
    fn round_trip_exact() {
        let brick = sample_brick(5_000);
        let original = brick.clone();
        let compressed = CompressedBrick::compress(brick);
        let restored = compressed.decompress();
        assert_eq!(restored, original);
        assert_eq!(restored.rows(), 5_000);
    }

    #[test]
    fn compression_actually_shrinks() {
        let brick = sample_brick(10_000);
        let payload = brick.payload_bytes();
        let compressed = CompressedBrick::compress(brick);
        assert!(
            compressed.footprint() < payload / 3,
            "expected ≥3× compression, got {} → {}",
            payload,
            compressed.footprint()
        );
        assert!(compressed.ratio() > 3.0);
        assert_eq!(compressed.decompressed_bytes(), payload);
    }

    #[test]
    fn decode_columns_restores_only_what_is_asked() {
        let original = sample_brick(1_000);
        let compressed = CompressedBrick::compress(original.clone());
        let partial = compressed.decode_columns(|d| d == 2, |m| m == 0);
        assert_eq!(partial.rows(), 1_000);
        assert!(partial.dim(0).is_empty() && partial.dim(1).is_empty());
        assert_eq!(partial.dim(2), original.dim(2));
        assert_eq!(partial.metric(0), original.metric(0));
        assert!(partial.metric(1).is_empty());
    }

    #[test]
    fn decode_columns_decodes_every_column_past_the_skippable_ones() {
        let mut original = Brick::new(40, 1);
        for i in 0..10 {
            let ordinals: Vec<u32> = (0..40).map(|d| d * 100 + i).collect();
            original.push(&ordinals, &[f64::from(i)]);
        }
        let compressed = CompressedBrick::compress(original.clone());
        let partial = compressed.decode_columns(|d| d % 3 == 1, |_| false);
        for d in 0..40 {
            if d < 32 && d % 3 != 1 {
                assert!(partial.dim(d).is_empty(), "dim {d}");
            } else {
                assert_eq!(partial.dim(d), original.dim(d), "dim {d}");
            }
        }
        assert!(partial.metric(0).is_empty());
    }

    #[test]
    fn empty_brick() {
        let brick = Brick::new(2, 1);
        let compressed = CompressedBrick::compress(brick);
        assert_eq!(compressed.rows(), 0);
        let restored = compressed.decompress();
        assert!(restored.is_empty());
    }
}
