//! The partition store: one table partition's bricks.
//!
//! A `PartitionData` is what a Cubrick server holds for each table
//! partition mapped (via the shard function) to a shard it owns. It owns
//! the dictionaries, the brick map keyed by granular-partitioning brick
//! id, per-brick hotness, and the two-state brick lifecycle behind the
//! load-balancing metric generations of §IV-F:
//!
//! ```text
//! Hot(Brick)            uncompressed, in memory       (gen 1 footprint)
//! Cold(CompressedBrick) compressed, in memory         (gen 2 era)
//! ```

use std::collections::BTreeMap;
use std::sync::Arc;

use scalewall_sim::SimRng;

use crate::brick::Brick;
use crate::compression::CompressedBrick;
use crate::dictionary::{Dictionary, StringRanks, Suffix};
use crate::error::{CubrickError, CubrickResult};
use crate::hotness::{self, Band, Hotness, MemoryMonitorConfig};
use crate::partition::BrickSpace;
use crate::schema::Schema;
use crate::value::{Row, Value};

/// Storage state of one brick.
#[derive(Debug, Clone)]
enum BrickState {
    Hot(Brick),
    Cold(CompressedBrick),
}

/// Where a brick's bytes sit ([`PartitionData::brick_census`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Residency {
    Hot,
    Cold,
}

impl BrickState {
    /// Where the brick's bytes sit, and how many.
    fn residency(&self) -> (Residency, u64) {
        match self {
            BrickState::Hot(b) => (Residency::Hot, b.footprint()),
            BrickState::Cold(c) => (Residency::Cold, c.footprint()),
        }
    }
}

#[derive(Debug, Clone)]
struct Slot {
    state: BrickState,
    hotness: Hotness,
}

/// Totals over a partition's bricks, so that no footprint is a walk. A
/// brick is counted out before anything that changes its state or grows
/// its columns and back in after (DESIGN.md "Maintenance pass contract").
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    /// Bytes of the hot and cold bricks.
    resident_bytes: u64,
    hot: usize,
    cold: usize,
}

impl Tally {
    fn count(&mut self, state: &BrickState, entering: bool) {
        let (residency, bytes) = state.residency();
        let bricks = match residency {
            Residency::Hot => &mut self.hot,
            Residency::Cold => &mut self.cold,
        };
        if entering {
            self.resident_bytes += bytes;
            *bricks += 1;
        } else {
            self.resident_bytes -= bytes;
            *bricks -= 1;
        }
    }
}

/// A slice encoded once ([`PartitionData::encode_batch`]): the ordinals, the
/// sorted `(brick id, row index)` of accepted rows, and per string dimension
/// the strings added to its dictionary, whole.
#[derive(Debug)]
pub struct EncodedBatch {
    ordinals: Vec<u32>,
    placed: Vec<(u64, usize)>,
    new_strings: Vec<Suffix>,
}

/// Scan/ingest statistics for observability and experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    pub rows_ingested: u64,
    pub bricks_scanned: u64,
    pub bricks_pruned: u64,
    pub transient_decompressions: u64,
}

/// One table partition's data.
#[derive(Debug)]
pub struct PartitionData {
    schema: Arc<Schema>,
    space: BrickSpace,
    /// Per-dimension dictionary (string dimensions only).
    dicts: Vec<Option<Dictionary>>,
    bricks: BTreeMap<u64, Slot>,
    rows: u64,
    stats: StoreStats,
    tally: Tally,
    /// Ids of the bricks whose hotness counter is above zero, each once,
    /// sorted by each decay pass: in on a scan's first touch, out when a
    /// decay halves a counter to zero.
    warm: Vec<u64>,
}

impl Clone for PartitionData {
    /// The copy recounts its bricks: a cloned brick's `cap` is its rows,
    /// and a hot brick's footprint reads `cap`.
    fn clone(&self) -> Self {
        let mut copy = PartitionData {
            schema: self.schema.clone(),
            space: self.space.clone(),
            dicts: self.dicts.clone(),
            bricks: self.bricks.clone(),
            tally: Tally::default(),
            warm: self.warm.clone(),
            ..*self
        };
        for slot in copy.bricks.values() {
            copy.tally.count(&slot.state, true);
        }
        copy
    }
}

impl PartitionData {
    pub fn new(schema: Arc<Schema>) -> Self {
        let space = BrickSpace::from_schema(&schema);
        let dicts = schema
            .dimensions
            .iter()
            .map(|d| match d.kind {
                crate::schema::DimKind::Str { max_cardinality } => {
                    Some(Dictionary::new(max_cardinality))
                }
                crate::schema::DimKind::Int { .. } => None,
            })
            .collect();
        PartitionData {
            schema,
            space,
            dicts,
            bricks: BTreeMap::new(),
            rows: 0,
            stats: StoreStats::default(),
            tally: Tally::default(),
            warm: Vec::new(),
        }
    }

    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    pub fn space(&self) -> &BrickSpace {
        &self.space
    }

    pub fn rows(&self) -> u64 {
        self.rows
    }

    pub fn brick_count(&self) -> usize {
        self.bricks.len()
    }

    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Dictionary for a string dimension (by dimension index).
    pub fn dict(&self, dim: usize) -> Option<&Dictionary> {
        self.dicts.get(dim).and_then(|d| d.as_ref())
    }

    /// String order of a string dimension's dictionary ids.
    pub(crate) fn string_ranks(&mut self, dim: usize) -> Option<Arc<StringRanks>> {
        self.dicts
            .get_mut(dim)
            .and_then(|d| d.as_mut())
            .map(Dictionary::ranks)
    }

    // --------------------------------------------------------------- ingest

    /// Check a row and append its dimension ordinals to `ordinals`. A
    /// refused row may leave some behind, and the strings of its earlier
    /// dimensions in their dictionaries.
    #[inline(always)]
    fn encode_row(&mut self, row: &Row, ordinals: &mut Vec<u32>) -> CubrickResult<()> {
        self.schema.check_row(row)?;
        let dims = self.schema.dimensions.iter().zip(&mut self.dicts);
        for (v, (dim, dict)) in row.dims.iter().zip(dims) {
            ordinals.push(match (v, dict) {
                (Value::Int(x), None) => dim.int_ordinal(*x)?,
                (Value::Str(s), Some(dict)) => dict.encode(&dim.name, s)?,
                (_, dict) => {
                    return Err(CubrickError::TypeMismatch {
                        column: dim.name.clone(),
                        expected: if dict.is_some() { "string" } else { "int" },
                    })
                }
            });
        }
        Ok(())
    }

    /// Ingest one row: the one-row [`Self::ingest_batch`].
    pub fn ingest(&mut self, row: &Row) -> CubrickResult<()> {
        self.ingest_batch(&[row])
    }

    /// Ingest rows up to the first one the schema refuses, whose error is
    /// returned. Appending to a compressed brick transparently
    /// decompresses it (writes re-heat data). Stores what one-row ingests
    /// in row order store, bit for bit and capacity for capacity
    /// (DESIGN.md "Ingest path contract"): the two stages, without the
    /// strings only replicas need.
    pub fn ingest_batch(&mut self, rows: &[&Row]) -> CubrickResult<()> {
        let mut ordinals = Vec::with_capacity(rows.len() * self.schema.dimensions.len());
        let mut placed = Vec::with_capacity(rows.len());
        let refused = self.encode_rows(rows, &mut ordinals, &mut placed);
        self.append_rows(&ordinals, &placed, rows)?;
        refused
    }

    /// Stage one of an ingest: encode `rows`, noting the strings they add
    /// to each dictionary; return the batch and the refusal. Every replica
    /// takes the batch ([`Self::adopt_strings`], [`Self::append_batch`]).
    pub fn encode_batch(&mut self, rows: &[&Row]) -> (EncodedBatch, CubrickResult<()>) {
        let before: Vec<usize> = self.dicts.iter().flatten().map(Dictionary::len).collect();
        let mut batch = EncodedBatch {
            ordinals: Vec::with_capacity(rows.len() * self.schema.dimensions.len()),
            placed: Vec::with_capacity(rows.len()),
            new_strings: Vec::new(),
        };
        let refused = self.encode_rows(rows, &mut batch.ordinals, &mut batch.placed);
        let dicts = self.dicts.iter().flatten().zip(before);
        batch.new_strings = dicts.map(|(dict, len)| dict.suffix(len)).collect();
        (batch, refused)
    }

    /// Encode `rows` in row order (dictionary ids are first-seen) up to the
    /// first refusal; sort the accepted rows into `placed`. Inlined, as are
    /// `encode_row` and `append_rows`: apart, a one-row batch costs ~20 % more.
    #[inline(always)]
    fn encode_rows(
        &mut self,
        rows: &[&Row],
        ordinals: &mut Vec<u32>,
        placed: &mut Vec<(u64, usize)>,
    ) -> CubrickResult<()> {
        let num_dims = self.schema.dimensions.len();
        let mut refused = Ok(());
        for (i, row) in rows.iter().enumerate() {
            refused = self.encode_row(row, ordinals);
            if refused.is_err() {
                break;
            }
            placed.push((self.space.brick_id(&ordinals[i * num_dims..]), i));
        }
        placed.sort_unstable();
        refused
    }

    /// Append `batch`'s new strings to each dictionary whole, so its
    /// ordinals mean here what they meant where it was encoded. A
    /// dictionary that does not end where they start, or already holds one
    /// of them, is `Internal` and left as it was: do not append the batch.
    pub fn adopt_strings(&mut self, batch: &EncodedBatch) -> CubrickResult<()> {
        let string_dims = (self.schema.dimensions.iter().zip(&mut self.dicts))
            .filter_map(|(dim, dict)| Some((&dim.name, dict.as_mut()?)));
        for ((name, dict), suffix) in string_dims.zip(&batch.new_strings) {
            if !dict.adopt(suffix) {
                let detail = format!("{name}: the dictionary differs from the encoding replica's");
                return Err(CubrickError::Internal { detail });
            }
        }
        Ok(())
    }

    /// Stage two of an ingest: append `batch`, encoded from `rows`.
    pub fn append_batch(&mut self, batch: &EncodedBatch, rows: &[&Row]) -> CubrickResult<()> {
        self.append_rows(&batch.ordinals, &batch.placed, rows)
    }

    /// Append brick by brick: one lookup and at most one re-heat per run, one
    /// push per row (`cap` grows as pushes grow it; the footprint reads it).
    #[inline(always)]
    fn append_rows(
        &mut self,
        ordinals: &[u32],
        placed: &[(u64, usize)],
        rows: &[&Row],
    ) -> CubrickResult<()> {
        let num_dims = self.schema.dimensions.len();
        let num_metrics = self.schema.metrics.len();
        for run in placed.chunk_by(|a, b| a.0 == b.0) {
            let Some(&(brick_id, _)) = run.first() else {
                continue;
            };
            let slot = self.bricks.entry(brick_id).or_insert_with(|| {
                let state = BrickState::Hot(Brick::new(num_dims, num_metrics));
                self.tally.count(&state, true);
                Slot {
                    state,
                    hotness: Hotness::default(),
                }
            });
            // Out as the run finds the brick, back in as it leaves it.
            self.tally.count(&slot.state, false);
            if let BrickState::Cold(c) = &slot.state {
                slot.state = BrickState::Hot(c.decompress());
            }
            let BrickState::Hot(brick) = &mut slot.state else {
                return Err(CubrickError::Internal {
                    detail: format!("brick {brick_id} is not hot after re-heating"),
                });
            };
            for &(_, i) in run {
                brick.push(&ordinals[i * num_dims..][..num_dims], &rows[i].metrics);
            }
            self.tally.count(&slot.state, true);
            self.rows += run.len() as u64;
            self.stats.rows_ingested += run.len() as u64;
        }
        Ok(())
    }

    // ----------------------------------------------------------------- scan

    /// Visit every brick matching the per-dimension ordinal constraints,
    /// touching hotness counters. Compressed bricks are
    /// decompressed transiently (their stored state is unchanged; the
    /// memory monitor, not the scan, changes states).
    pub fn for_each_matching_brick<F: FnMut(&Brick)>(
        &mut self,
        constraints: &[Option<Vec<(u32, u32)>>],
        mut f: F,
    ) {
        self.scan_bricks(constraints, |_| true, |_| true, |brick, _| f(brick));
    }

    /// The scan under [`Self::for_each_matching_brick`], for a caller that
    /// knows which columns it reads. `f` gets each surviving brick, in
    /// brick-id order, with the dimensions it still has to filter row by
    /// row ([`BrickSpace::residual_dims`]). A compressed brick
    /// arrives with only those dimensions and the columns `reads_dim` /
    /// `reads_metric` pick decoded; the rest of its columns are empty.
    pub(crate) fn scan_bricks(
        &mut self,
        constraints: &[Option<Vec<(u32, u32)>>],
        reads_dim: impl Fn(usize) -> bool,
        reads_metric: impl Fn(usize) -> bool,
        mut f: impl FnMut(&Brick, &[usize]),
    ) {
        let PartitionData {
            space,
            bricks,
            stats,
            warm,
            ..
        } = self;
        let mut residual = Vec::new();
        for (&id, slot) in bricks.iter_mut() {
            if !space.residual_dims(id, constraints, &mut residual) {
                stats.bricks_pruned += 1;
                continue;
            }
            if slot.hotness.0 == 0 {
                warm.push(id);
            }
            slot.hotness.touch();
            stats.bricks_scanned += 1;
            match &slot.state {
                BrickState::Hot(b) => f(b, &residual),
                BrickState::Cold(c) => {
                    stats.transient_decompressions += 1;
                    let wants_dim = |d| reads_dim(d) || residual.contains(&d);
                    f(&c.decode_columns(wants_dim, &reads_metric), &residual);
                }
            }
        }
    }

    /// Decode every stored row back to logical values (repartitioning and
    /// verification oracles).
    pub fn all_rows(&self) -> Vec<Row> {
        let mut out = Vec::with_capacity(self.rows as usize);
        for slot in self.bricks.values() {
            let decoded;
            let brick: &Brick = match &slot.state {
                BrickState::Hot(b) => b,
                BrickState::Cold(c) => {
                    decoded = c.decompress();
                    &decoded
                }
            };
            for r in 0..brick.rows() {
                // An ordinal that does not decode (none is stored) is `Null`.
                let dims: Vec<Value> = (self.schema.dimensions.iter().zip(&self.dicts))
                    .zip((0..).map(|d| brick.dim(d)))
                    .map(|((dim, dict), column)| match dict {
                        Some(dict) => dict
                            .decode(column[r])
                            .map_or(Value::Null, |s| Value::Str(s.to_string())),
                        None => dim.int_value(column[r]).map_or(Value::Null, Value::Int),
                    })
                    .collect();
                let metrics: Vec<f64> = (0..self.schema.metrics.len())
                    .map(|m| brick.metric(m)[r])
                    .collect();
                out.push(Row::new(dims, metrics));
            }
        }
        out
    }

    // ------------------------------------------------------------ footprints

    /// Bytes currently resident in memory (gen-1 metric).
    pub fn memory_footprint(&self) -> u64 {
        let dicts: u64 = self.dicts.iter().flatten().map(|d| d.footprint()).sum();
        self.tally.resident_bytes + dicts
    }

    /// Bytes this partition would occupy fully decompressed (gen-2
    /// metric — invariant to the node's current memory pressure).
    ///
    /// A hot brick's payload is its rows × the schema's row width, a
    /// compressed brick remembers the payload it was built from, and
    /// every stored row sits in exactly one brick, so the sum over bricks
    /// is `rows × row width` in any hot/cold mix (`tests/props.rs`
    /// pins it).
    pub fn decompressed_bytes(&self) -> u64 {
        let row_width = 4 * self.schema.dimensions.len() + 8 * self.schema.metrics.len();
        self.rows * row_width as u64
    }

    /// Counts of bricks by state: (hot, cold).
    pub fn state_counts(&self) -> (usize, usize) {
        (self.tally.hot, self.tally.cold)
    }

    /// Bricks a scan has touched since a decay last halved them to zero.
    pub fn warm_bricks(&self) -> usize {
        self.warm.len()
    }

    /// The ids [`Self::decay_pass`] visits, ascending: the walk
    /// `tests/props.rs` checks them against. No pass calls it.
    pub fn warm_brick_ids(&self) -> Vec<u64> {
        let mut ids = self.warm.clone();
        ids.sort_unstable();
        ids
    }

    /// Every brick as `(id, where its bytes sit, how many)`, in id order:
    /// the walk the getters above are checked against (`tests/props.rs`).
    /// No pass calls it.
    pub fn brick_census(&self) -> Vec<(u64, Residency, u64)> {
        let entry = |(&id, slot): (&u64, &Slot)| {
            let (residency, bytes) = slot.state.residency();
            (id, residency, bytes)
        };
        self.bricks.iter().map(entry).collect()
    }

    /// Snapshot of `(brick_id, hotness)` for Fig 4e.
    pub fn hotness_snapshot(&self) -> Vec<(u64, u32)> {
        self.bricks
            .iter()
            .map(|(&id, s)| (id, s.hotness.0))
            .collect()
    }

    // -------------------------------------------------------- memory monitor

    /// One stochastic decay pass over all hotness counters. It visits
    /// the warm bricks in id order: [`Hotness::decay`] draws only for
    /// counters above zero, so a walk over every brick would draw the
    /// same numbers in the same order.
    pub fn decay_pass(&mut self, p: f64, rng: &mut SimRng) {
        let bricks = &mut self.bricks;
        self.warm.sort_unstable();
        self.warm.retain(|id| {
            bricks.get_mut(id).is_some_and(|slot| {
                slot.hotness.decay(p, rng);
                slot.hotness.0 > 0
            })
        });
    }

    /// The [`Band`] `config` puts the footprint in, and how many bricks a
    /// monitor pass could move there: the hot ones over budget, the cold
    /// ones under the watermark. Zero bricks, and the pass is a no-op.
    pub fn movable_bricks(&self, config: &MemoryMonitorConfig) -> (Band, usize) {
        let band = config.band(self.memory_footprint());
        let movable = match band {
            Band::Over(_) => self.tally.hot,
            Band::Under(_) => self.tally.cold,
            Band::Within => 0,
        };
        (band, movable)
    }

    /// Run the adaptive-compression monitor against a *partition-level*
    /// byte budget. Returns (bricks compressed, bricks decompressed).
    /// Looks at bricks only when some are [movable](Self::movable_bricks).
    ///
    /// Node-level budgets are apportioned to partitions by the node.
    pub fn run_memory_monitor(&mut self, config: &MemoryMonitorConfig) -> (usize, usize) {
        let (band, movable) = self.movable_bricks(config);
        if movable == 0 {
            return (0, 0);
        }
        let candidate = |(&id, slot): (&u64, &Slot)| match (band, &slot.state) {
            (Band::Over(_), BrickState::Hot(b)) => Some((id, slot.hotness, b.payload_bytes())),
            (Band::Under(_), BrickState::Cold(c)) => {
                Some((id, slot.hotness, c.decompressed_bytes()))
            }
            _ => None,
        };
        let moved = hotness::plan(band, self.bricks.iter().filter_map(candidate).collect());
        for id in &moved {
            let Some(Slot { state, .. }) = self.bricks.get_mut(id) else {
                continue;
            };
            self.tally.count(state, false);
            match state {
                BrickState::Hot(b) => {
                    *state = BrickState::Cold(CompressedBrick::compress(std::mem::take(b)))
                }
                BrickState::Cold(c) => *state = BrickState::Hot(c.decompress()),
            }
            self.tally.count(state, true);
        }
        match band {
            Band::Over(_) => (moved.len(), 0),
            _ => (0, moved.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;

    fn schema() -> Arc<Schema> {
        Arc::new(
            SchemaBuilder::new()
                .int_dim("ds", 0, 100, 10)
                .str_dim("country", 100, 10)
                .metric("clicks")
                .metric("cost")
                .build()
                .unwrap(),
        )
    }

    fn row(ds: i64, country: &str, clicks: f64, cost: f64) -> Row {
        Row::new(
            vec![Value::Int(ds), Value::from(country)],
            vec![clicks, cost],
        )
    }

    fn loaded() -> PartitionData {
        let mut p = PartitionData::new(schema());
        for ds in 0..100 {
            for (ci, c) in ["US", "BR", "IN"].iter().enumerate() {
                p.ingest(&row(ds, c, (ds + ci as i64) as f64, 0.5)).unwrap();
            }
        }
        p
    }

    #[test]
    fn ingest_counts_and_bricks() {
        let p = loaded();
        assert_eq!(p.rows(), 300);
        // ds has 10 buckets; all 3 countries share dict-id bucket 0.
        assert_eq!(p.brick_count(), 10);
        assert_eq!(p.stats().rows_ingested, 300);
    }

    #[test]
    fn ingest_validates() {
        let mut p = PartitionData::new(schema());
        assert!(p
            .ingest(&Row::new(vec![Value::Int(5)], vec![1.0, 1.0]))
            .is_err());
        assert!(p
            .ingest(&Row::new(
                vec![Value::Int(500), Value::from("US")],
                vec![1.0, 1.0]
            ))
            .is_err());
        assert!(p
            .ingest(&Row::new(
                vec![Value::from("oops"), Value::from("US")],
                vec![1.0, 1.0]
            ))
            .is_err());
        assert!(p
            .ingest(&Row::new(
                vec![Value::Int(5), Value::Int(3)],
                vec![1.0, 1.0]
            ))
            .is_err());
    }

    #[test]
    fn scan_prunes_by_constraint() {
        let mut p = loaded();
        // ds = 55 → exactly one brick.
        let constraints = vec![Some(vec![(55, 55)]), None];
        let mut rows_seen = 0usize;
        p.for_each_matching_brick(&constraints, |b| rows_seen += b.rows());
        assert_eq!(rows_seen, 30, "one ds bucket of 10 values × 3 countries");
        assert_eq!(p.stats().bricks_scanned, 1);
        assert_eq!(p.stats().bricks_pruned, 9);
    }

    #[test]
    fn all_rows_round_trip() {
        let p = loaded();
        let rows = p.all_rows();
        assert_eq!(rows.len(), 300);
        // Spot-check decode fidelity.
        assert!(rows
            .iter()
            .any(|r| { r.dims[0] == Value::Int(42) && r.dims[1] == Value::Str("BR".into()) }));
        let total: f64 = rows.iter().map(|r| r.metrics[1]).sum();
        assert!((total - 150.0).abs() < 1e-9);
    }

    #[test]
    fn memory_monitor_compresses_and_scan_still_works() {
        let mut p = loaded();
        let before = p.memory_footprint();
        let config = MemoryMonitorConfig {
            budget_bytes: 0,
            ..Default::default()
        };
        let (compressed, _) = p.run_memory_monitor(&config);
        assert_eq!(compressed, 10, "all bricks compressed under zero budget");
        assert!(p.memory_footprint() < before);
        assert_eq!(p.state_counts(), (0, 10));
        // Scans still return all data (transient decompression).
        let mut rows_seen = 0usize;
        p.for_each_matching_brick(&[None, None], |b| rows_seen += b.rows());
        assert_eq!(rows_seen, 300);
        assert_eq!(p.stats().transient_decompressions, 10);
        // Decompressed size is invariant to compression state.
        assert_eq!(p.decompressed_bytes(), loaded().decompressed_bytes());
    }

    #[test]
    fn memory_monitor_decompresses_hot_bricks_under_surplus() {
        let mut p = loaded();
        let zero = MemoryMonitorConfig {
            budget_bytes: 0,
            ..Default::default()
        };
        p.run_memory_monitor(&zero);
        // Heat every brick by scanning everything hot_threshold times.
        for _ in 0..4 {
            p.for_each_matching_brick(&[None, None], |_| {});
        }
        let roomy = MemoryMonitorConfig {
            budget_bytes: 1 << 30,
            ..Default::default()
        };
        let (_, decompressed) = p.run_memory_monitor(&roomy);
        assert_eq!(decompressed, 10, "all hot bricks brought back");
        assert_eq!(p.state_counts(), (10, 0));
    }

    #[test]
    fn ingest_into_compressed_brick_reheats_it() {
        let mut p = loaded();
        let zero = MemoryMonitorConfig {
            budget_bytes: 0,
            ..Default::default()
        };
        p.run_memory_monitor(&zero);
        p.ingest(&row(55, "US", 1.0, 1.0)).unwrap();
        let (hot, cold) = p.state_counts();
        assert_eq!(hot, 1);
        assert_eq!(cold, 9);
        assert_eq!(p.rows(), 301);
    }

    #[test]
    fn decay_cools_counters() {
        let mut p = loaded();
        for _ in 0..8 {
            p.for_each_matching_brick(&[None, None], |_| {});
        }
        let hot_before: u32 = p.hotness_snapshot().iter().map(|&(_, h)| h).sum();
        let mut rng = SimRng::new(3);
        for _ in 0..20 {
            p.decay_pass(0.5, &mut rng);
        }
        let hot_after: u32 = p.hotness_snapshot().iter().map(|&(_, h)| h).sum();
        assert!(hot_after < hot_before / 4, "{hot_before} → {hot_after}");
    }
}
