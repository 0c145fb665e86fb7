//! Granular Partitioning.
//!
//! Cubrick range-partitions every table partition on *all* dimension
//! columns: each dimension's ordinal space is cut into buckets of
//! `range_size`, and the cross product of bucket coordinates addresses a
//! **brick**. A row's brick id is computed in O(#dims) at ingestion time
//! (no index maintenance), and a query's per-dimension predicates prune
//! whole bricks before any column is touched — the property that gives
//! Cubrick "fast and low overhead indexing abilities over multiple
//! columns" (§IV).

use crate::schema::Schema;

/// Precomputed coordinate geometry of a table partition's brick space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BrickSpace {
    /// Bucket count per dimension.
    buckets: Vec<u64>,
    /// Bucket width (range_size) per dimension.
    widths: Vec<u32>,
    /// Row-major strides: `strides[i]` = product of bucket counts of
    /// dimensions after `i`.
    strides: Vec<u64>,
}

impl BrickSpace {
    pub fn from_schema(schema: &Schema) -> Self {
        let buckets: Vec<u64> = schema.dimensions.iter().map(|d| d.bucket_count()).collect();
        let widths: Vec<u32> = schema.dimensions.iter().map(|d| d.range_size).collect();
        let mut strides = vec![1u64; buckets.len()];
        for i in (0..buckets.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * buckets[i + 1];
        }
        BrickSpace {
            buckets,
            widths,
            strides,
        }
    }

    pub fn num_dims(&self) -> usize {
        self.buckets.len()
    }

    /// Total number of addressable bricks.
    pub fn brick_count(&self) -> u64 {
        self.buckets.iter().product()
    }

    /// Coordinate of an ordinal along dimension `dim`.
    #[inline]
    pub fn coord_of(&self, dim: usize, ordinal: u32) -> u64 {
        (ordinal / self.widths[dim]) as u64
    }

    /// Brick id for a full ordinal vector (one ordinal per dimension).
    pub fn brick_id(&self, ordinals: &[u32]) -> u64 {
        debug_assert_eq!(ordinals.len(), self.buckets.len());
        let mut id = 0u64;
        for (dim, &ord) in ordinals.iter().enumerate() {
            let coord = self.coord_of(dim, ord);
            debug_assert!(coord < self.buckets[dim], "ordinal beyond dimension range");
            id += coord * self.strides[dim];
        }
        id
    }

    /// Decompose a brick id back into per-dimension coordinates.
    pub fn coords(&self, brick_id: u64) -> Vec<u64> {
        let mut rest = brick_id;
        let mut out = Vec::with_capacity(self.buckets.len());
        for dim in 0..self.buckets.len() {
            out.push(rest / self.strides[dim]);
            rest %= self.strides[dim];
        }
        out
    }

    /// The inclusive ordinal range `[lo, hi]` covered by bucket `coord` of
    /// dimension `dim`.
    pub fn bucket_ordinal_range(&self, dim: usize, coord: u64) -> (u32, u32) {
        let lo = coord as u32 * self.widths[dim];
        let hi = lo + self.widths[dim] - 1;
        (lo, hi)
    }

    /// Whether the brick can contain rows satisfying per-dimension ordinal
    /// constraints.
    ///
    /// `constraints[dim]` is `None` for unconstrained dimensions, or a set
    /// of inclusive ordinal ranges the dimension must fall into. A brick
    /// survives pruning iff, for every constrained dimension, its bucket's
    /// ordinal interval intersects at least one allowed range.
    pub fn brick_matches(&self, brick_id: u64, constraints: &[Option<Vec<(u32, u32)>>]) -> bool {
        self.residual_dims(brick_id, constraints, &mut Vec::new())
    }

    /// [`Self::brick_matches`], and for a surviving brick the dimensions
    /// a scan still has to filter row by row: `residual` is cleared and
    /// filled with every constrained dimension whose bucket interval is
    /// not wholly inside one allowed range. It stays empty when buckets
    /// alone decide the predicate (always, for an unconstrained query).
    pub fn residual_dims(
        &self,
        brick_id: u64,
        constraints: &[Option<Vec<(u32, u32)>>],
        residual: &mut Vec<usize>,
    ) -> bool {
        debug_assert_eq!(constraints.len(), self.buckets.len());
        residual.clear();
        let mut rest = brick_id;
        for (dim, constraint) in constraints.iter().enumerate() {
            let coord = rest / self.strides[dim];
            rest %= self.strides[dim];
            if let Some(ranges) = constraint {
                let (blo, bhi) = self.bucket_ordinal_range(dim, coord);
                if !ranges.iter().any(|&(lo, hi)| lo <= bhi && blo <= hi) {
                    return false;
                }
                if !ranges.iter().any(|&(lo, hi)| lo <= blo && bhi <= hi) {
                    residual.push(dim);
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;

    fn space() -> BrickSpace {
        // dims: a in [0,100) width 10 → 10 buckets; b card 40 width 8 → 5 buckets.
        let schema = SchemaBuilder::new()
            .int_dim("a", 0, 100, 10)
            .str_dim("b", 40, 8)
            .metric("m")
            .build()
            .unwrap();
        BrickSpace::from_schema(&schema)
    }

    #[test]
    fn geometry() {
        let s = space();
        assert_eq!(s.num_dims(), 2);
        assert_eq!(s.brick_count(), 50);
        assert_eq!(s.coord_of(0, 0), 0);
        assert_eq!(s.coord_of(0, 99), 9);
        assert_eq!(s.coord_of(1, 39), 4);
    }

    #[test]
    fn brick_id_coords_round_trip() {
        let s = space();
        for a in [0u32, 9, 10, 55, 99] {
            for b in [0u32, 7, 8, 39] {
                let id = s.brick_id(&[a, b]);
                let coords = s.coords(id);
                assert_eq!(coords, vec![s.coord_of(0, a), s.coord_of(1, b)]);
                assert!(id < s.brick_count());
            }
        }
    }

    #[test]
    fn distinct_buckets_distinct_ids() {
        let s = space();
        let mut seen = std::collections::HashSet::new();
        for a_coord in 0..10u32 {
            for b_coord in 0..5u32 {
                let id = s.brick_id(&[a_coord * 10, b_coord * 8]);
                assert!(seen.insert(id), "duplicate id {id}");
            }
        }
        assert_eq!(seen.len(), 50);
    }

    #[test]
    fn bucket_ordinal_ranges() {
        let s = space();
        assert_eq!(s.bucket_ordinal_range(0, 0), (0, 9));
        assert_eq!(s.bucket_ordinal_range(0, 9), (90, 99));
        assert_eq!(s.bucket_ordinal_range(1, 4), (32, 39));
    }

    #[test]
    fn pruning_unconstrained_matches_everything() {
        let s = space();
        let constraints = vec![None, None];
        for id in 0..s.brick_count() {
            assert!(s.brick_matches(id, &constraints));
        }
    }

    #[test]
    fn pruning_point_constraint() {
        let s = space();
        // a = 55 → bucket 5 only.
        let constraints = vec![Some(vec![(55, 55)]), None];
        let matches: Vec<u64> = (0..s.brick_count())
            .filter(|&id| s.brick_matches(id, &constraints))
            .collect();
        assert_eq!(matches.len(), 5, "one a-bucket × 5 b-buckets");
        for id in matches {
            assert_eq!(s.coords(id)[0], 5);
        }
    }

    #[test]
    fn pruning_range_and_multi_range() {
        let s = space();
        // a in [8, 12] spans buckets 0 and 1; b in {0..=1, 33..=39} spans
        // buckets 0 and 4.
        let constraints = vec![Some(vec![(8, 12)]), Some(vec![(0, 1), (33, 39)])];
        let matches: Vec<u64> = (0..s.brick_count())
            .filter(|&id| s.brick_matches(id, &constraints))
            .collect();
        assert_eq!(matches.len(), 2 * 2);
        for id in matches {
            let c = s.coords(id);
            assert!(c[0] <= 1);
            assert!(c[1] == 0 || c[1] == 4);
        }
    }

    #[test]
    fn residual_dims_lists_partly_covered_buckets() {
        let s = space();
        let mut residual = vec![7];
        // a-bucket 1 is [10, 19], b-bucket 4 is [32, 39].
        let id = s.brick_id(&[10, 32]);
        assert!(s.residual_dims(id, &[None, None], &mut residual));
        assert!(residual.is_empty(), "cleared, nothing constrained");
        // a wholly inside its range, b cut by its range.
        let constraints = vec![Some(vec![(0, 4), (10, 25)]), Some(vec![(35, 39)])];
        assert!(s.residual_dims(id, &constraints, &mut residual));
        assert_eq!(residual, vec![1]);
        // Two ranges that only together cover the bucket: still filtered.
        let split = vec![Some(vec![(10, 14), (16, 19)]), None];
        assert!(s.residual_dims(id, &split, &mut residual));
        assert_eq!(residual, vec![0]);
        // Pruned.
        assert!(!s.residual_dims(id, &[Some(vec![(20, 29)]), None], &mut residual));
    }

    #[test]
    fn single_dimension_space() {
        let schema = SchemaBuilder::new()
            .int_dim("only", 0, 7, 3)
            .metric("m")
            .build()
            .unwrap();
        let s = BrickSpace::from_schema(&schema);
        assert_eq!(s.brick_count(), 3); // ceil(7/3)
        assert_eq!(s.brick_id(&[6]), 2);
        assert_eq!(s.coords(2), vec![2]);
    }
}
