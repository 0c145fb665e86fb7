//! Workload generation.
//!
//! The paper's operational figures are emergent properties of a
//! multi-tenant workload: thousands of small-to-medium tables (log-normal
//! size distribution, capped at ~1 TB), skewed query traffic (recent data
//! is hotter than old data), and dashboard-style filtered aggregations.
//! This module generates that population.

use std::sync::Arc;

use cubrick::catalog::DEFAULT_PARTITIONS;
use cubrick::query::{AggFunc, AggSpec, Predicate, Query};
use cubrick::repartition::{evaluate, RepartitionDecision, RepartitionPolicy};
use cubrick::schema::{Schema, SchemaBuilder};
use cubrick::value::{Row, Value};
use scalewall_sim::{LogNormal, SimRng, Zipf};

/// Median table size in bytes (log-normal): 64 MiB.
const MEDIAN_TABLE_BYTES: f64 = 64.0 * (1 << 20) as f64;

/// Knobs for the synthetic tenant population.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadConfig {
    pub tables: usize,
    /// Log-space sigma of the size distribution. Production tenant sizes
    /// span several orders of magnitude; σ ≈ 1.5–2 reproduces the
    /// "vast majority at 8 partitions, max ≈ 60" shape of Fig 4b.
    pub size_sigma: f64,
    /// Per-partition growth threshold driving re-partitioning.
    pub repartition: RepartitionPolicy,
    /// Zipf exponent of table popularity (query traffic skew).
    pub table_popularity_s: f64,
    /// Number of distinct `ds` (date) values per table.
    pub ds_range: i64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            tables: 200,
            size_sigma: 1.6,
            repartition: RepartitionPolicy {
                partition_size_threshold: 256 << 20, // 256 MiB / partition
                ..Default::default()
            },
            table_popularity_s: 1.1,
            ds_range: 365,
        }
    }
}

/// One synthetic tenant table.
#[derive(Debug, Clone)]
pub struct TableSpec {
    pub name: String,
    pub schema: Arc<Schema>,
    /// Total size the table will grow to.
    pub target_bytes: u64,
    /// Partition count after the table's growth has been absorbed by the
    /// re-partitioning policy (§IV-B).
    pub partitions: u32,
}

/// The standard tenant schema: a date dimension, an entity dimension and
/// two metrics (the dashboard shape the paper's intro motivates).
pub fn standard_schema(ds_range: i64) -> Arc<Schema> {
    let built = SchemaBuilder::new()
        .int_dim("ds", 0, ds_range, (ds_range / 24).max(1) as u32)
        .str_dim("entity", 10_000, 500)
        .metric("clicks")
        .metric("cost")
        .build();
    match built {
        Ok(schema) => Arc::new(schema),
        // The day range is all `Schema::new` can refuse here (empty, or
        // beyond an int dimension's ordinals): a year of days, then.
        Err(_) => standard_schema(365),
    }
}

/// The generated population.
#[derive(Debug, Clone)]
pub struct TablePopulation {
    pub tables: Vec<TableSpec>,
    popularity: Zipf,
}

impl TablePopulation {
    /// Generate a population under `config`.
    ///
    /// Partition counts are derived by replaying the dynamic
    /// re-partitioning policy against each table's growth: start at 8 and
    /// grow while any partition would exceed the threshold — reusing the
    /// exact policy code production would run.
    pub fn generate(config: &WorkloadConfig, rng: &mut SimRng) -> Self {
        let sizes = LogNormal::from_median(MEDIAN_TABLE_BYTES, config.size_sigma);
        let mut tables = Vec::with_capacity(config.tables);
        for i in 0..config.tables {
            let mut target_bytes = sizes.sample(rng) as u64;
            // The deployment's 1 TB table-size cap (§IV-B footnote).
            target_bytes = target_bytes.min(1 << 40);
            let partitions = settle_partitions(&config.repartition, target_bytes);
            tables.push(TableSpec {
                name: format!("tbl_{i:05}"),
                schema: standard_schema(config.ds_range),
                target_bytes,
                partitions,
            });
        }
        TablePopulation {
            tables,
            popularity: Zipf::new(config.tables.max(1), config.table_popularity_s),
        }
    }

    /// Pick a table for the next query (Zipf-skewed).
    pub fn pick_table<'a>(&'a self, rng: &mut SimRng) -> &'a TableSpec {
        &self.tables[self.popularity.sample(rng)]
    }

    /// Like [`Self::pick_table`], also returning the population index —
    /// the key the traffic model's sticky tenant → QoS-class assignment
    /// is indexed by.
    pub fn pick_table_index<'a>(&'a self, rng: &mut SimRng) -> (usize, &'a TableSpec) {
        let idx = self.popularity.sample(rng);
        (idx, &self.tables[idx])
    }

    /// Distribution of partitions per table — the Fig 4b histogram.
    pub fn partitions_histogram(&self) -> Vec<(u32, usize)> {
        let mut counts = std::collections::BTreeMap::new();
        for t in &self.tables {
            *counts.entry(t.partitions).or_insert(0usize) += 1;
        }
        counts.into_iter().collect()
    }
}

/// Replay the re-partitioning policy for a table growing to
/// `target_bytes`: the partition count the table settles at.
pub fn settle_partitions(policy: &RepartitionPolicy, target_bytes: u64) -> u32 {
    let mut partitions = DEFAULT_PARTITIONS;
    loop {
        let per_partition = target_bytes.div_ceil(partitions as u64);
        let sizes = vec![per_partition; partitions as usize];
        match evaluate(policy, partitions, &sizes) {
            RepartitionDecision::Grow(n) => partitions = n,
            _ => return partitions,
        }
    }
}

/// Generate `n` rows for a table spec. `day_horizon` bounds the `ds`
/// values generated so far (data "arrives over time"): rows are biased
/// toward recent days, matching production recency skew.
pub fn gen_rows(spec: &TableSpec, n: usize, day_horizon: i64, rng: &mut SimRng) -> Vec<Row> {
    let mut rows = Vec::with_capacity(n);
    gen_rows_into(spec, n, day_horizon, rng, &mut rows);
    rows
}

/// [`gen_rows`] into `rows`, which ends up holding just those rows, the
/// ones already there of their shape overwritten in place (so a reused
/// buffer allocates only to grow): the same draws in the same order.
pub fn gen_rows_into(
    _spec: &TableSpec,
    n: usize,
    day_horizon: i64,
    rng: &mut SimRng,
    rows: &mut Vec<Row>,
) {
    let ds_max = day_horizon.max(1);
    let blank = || Row::new(vec![Value::Int(0), Value::Str(String::new())], vec![0.0; 2]);
    rows.resize_with(n, blank);
    for row in rows.iter_mut() {
        // Recency bias: square the uniform draw toward the horizon.
        let u = rng.unit();
        let ds = (((1.0 - u * u) * ds_max as f64) as i64)
            .min(ds_max - 1)
            .max(0);
        let entity = rng.below(2_000);
        let clicks = rng.below(100) as f64;
        let cost = rng.unit() * 10.0;
        if !matches!(
            (&*row.dims, &*row.metrics),
            ([Value::Int(_), Value::Str(_)], [_, _])
        ) {
            *row = blank();
        }
        if let ([Value::Int(d), Value::Str(name)], [c, k]) = (&mut *row.dims, &mut *row.metrics) {
            (*d, *c, *k) = (ds, clicks, cost);
            // `e` and the entity's decimal digits.
            name.clear();
            name.push('e');
            let digit = |place| char::from(b'0' + (entity / 10u64.pow(place) % 10) as u8);
            name.extend((0..=entity.checked_ilog10().unwrap_or(0)).rev().map(digit));
        }
    }
}

/// Generate a dashboard-style query against a table: an aggregate over a
/// recent `ds` window, sometimes grouped by day.
pub fn gen_query(spec: &TableSpec, day_horizon: i64, rng: &mut SimRng) -> Query {
    // The legacy shape is the best-effort one: up to 28 days, grouped by
    // day half the time, the same two draws.
    gen_query_for_class(
        spec,
        cubrick::admission::QosClass::BestEffort,
        day_horizon,
        rng,
    )
}

/// Class-shaped variant of [`gen_query`]: interactive dashboards look
/// at narrow recent windows, best-effort reports at about a month, and
/// batch jobs scan a quarter with a group-by (the expensive shape that
/// makes shedding them first worthwhile).
pub fn gen_query_for_class(
    spec: &TableSpec,
    class: cubrick::admission::QosClass,
    day_horizon: i64,
    rng: &mut SimRng,
) -> Query {
    use cubrick::admission::QosClass;
    let (max_window, group_p) = match class {
        QosClass::Interactive => (7, 0.3),
        QosClass::BestEffort => (28, 0.5),
        QosClass::Batch => (90, 1.0),
    };
    let window = 1 + rng.below(max_window) as i64;
    let hi = (day_horizon - 1).max(0);
    let lo = (hi - window).max(0);
    let group_by = if rng.chance(group_p) {
        vec!["ds".to_string()]
    } else {
        Vec::new()
    };
    Query {
        table: spec.name.clone(),
        aggs: vec![AggSpec::new(AggFunc::Sum, "clicks"), AggSpec::count_star()],
        predicates: vec![Predicate::between("ds", lo, hi)],
        group_by,
        order_by: None,
        limit: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `gen_rows_into` over a dirty buffer, longer or shorter than `n` and
    /// holding rows of other shapes, equals `gen_rows`: the same rows, and
    /// the same next draw after them.
    #[test]
    fn prop_gen_rows_into_a_dirty_buffer_equals_gen_rows() {
        use scalewall_sim::prop::{self, gen};
        prop::check_n(
            "prop_gen_rows_into_a_dirty_buffer_equals_gen_rows",
            64,
            |rng| {
                let n = gen::usize_in(rng, 0, 300);
                let held = gen::usize_in(rng, 0, 300);
                let horizon = gen::usize_in(rng, 0, 400) as i64;
                (n, held, horizon, gen::any_u64(rng))
            },
            |&(n, held, horizon, seed)| {
                let spec = TableSpec {
                    name: "t".to_string(),
                    schema: standard_schema(365),
                    target_bytes: 0,
                    partitions: 8,
                };
                let mut rows = gen_rows(&spec, held, 30, &mut SimRng::new(seed ^ 1));
                for row in rows.iter_mut().step_by(3) {
                    let long = "a name longer than any entity's".to_string();
                    *row = Row::new(vec![Value::Str(long)], vec![1.0; 3]);
                }
                let (mut into_rng, mut rng) = (SimRng::new(seed), SimRng::new(seed));
                gen_rows_into(&spec, n, horizon, &mut into_rng, &mut rows);
                assert_eq!(rows, gen_rows(&spec, n, horizon, &mut rng));
                assert_eq!(into_rng.next_u64(), rng.next_u64());
            },
        );
    }

    #[test]
    fn standard_schema_is_valid_at_any_range() {
        let days = |schema: &Schema| match schema.dimensions[0].kind {
            cubrick::schema::DimKind::Int { min, max } => max - min,
            _ => panic!("ds is an int dimension"),
        };
        for ds_range in [1, 23, 24, 365, u32::MAX as i64] {
            assert_eq!(days(&standard_schema(ds_range)), ds_range);
        }
        // No int dimension holds these; the fallback is a year of days.
        for ds_range in [i64::MIN, -1, 0, u32::MAX as i64 + 1, i64::MAX] {
            assert_eq!(
                standard_schema(ds_range),
                standard_schema(365),
                "ds_range {ds_range}"
            );
        }
    }

    #[test]
    fn population_shapes_like_fig4b() {
        let config = WorkloadConfig {
            tables: 2_000,
            ..Default::default()
        };
        let mut rng = SimRng::new(4);
        let pop = TablePopulation::generate(&config, &mut rng);
        assert_eq!(pop.tables.len(), 2_000);
        let hist = pop.partitions_histogram();
        let at_default = hist
            .iter()
            .find(|&&(p, _)| p == DEFAULT_PARTITIONS)
            .map(|&(_, c)| c)
            .unwrap_or(0);
        let frac_default = at_default as f64 / 2_000.0;
        assert!(
            frac_default > 0.75,
            "vast majority should stay at 8 partitions, got {frac_default}"
        );
        let max_partitions = hist.iter().map(|&(p, _)| p).max().unwrap();
        assert!(
            (16..=256).contains(&max_partitions),
            "a long tail of re-partitioned tables: max {max_partitions}"
        );
        // Powers-of-two ladder only (doubling policy).
        for &(p, _) in &hist {
            assert!(p.is_power_of_two() && p >= 8, "{p}");
        }
    }

    #[test]
    fn settle_partitions_ladder() {
        let policy = RepartitionPolicy {
            partition_size_threshold: 100,
            ..Default::default()
        };
        assert_eq!(settle_partitions(&policy, 0), 8);
        assert_eq!(settle_partitions(&policy, 800), 8);
        assert_eq!(settle_partitions(&policy, 801), 16);
        assert_eq!(settle_partitions(&policy, 3_000), 32);
    }

    #[test]
    fn popularity_is_skewed() {
        let config = WorkloadConfig {
            tables: 100,
            ..Default::default()
        };
        let mut rng = SimRng::new(5);
        let pop = TablePopulation::generate(&config, &mut rng);
        let mut counts = vec![0usize; 100];
        for _ in 0..10_000 {
            let t = pop.pick_table(&mut rng);
            let idx: usize = t.name[4..].parse().unwrap();
            counts[idx] += 1;
        }
        assert!(counts[0] > counts[50] && counts[0] > counts[99]);
    }

    #[test]
    fn rows_respect_schema_and_recency() {
        let config = WorkloadConfig::default();
        let mut rng = SimRng::new(6);
        let pop = TablePopulation::generate(&config, &mut rng);
        let spec = &pop.tables[0];
        let rows = gen_rows(spec, 1_000, 30, &mut rng);
        assert_eq!(rows.len(), 1_000);
        let mut recent = 0;
        for r in &rows {
            let ds = r.dims[0].as_int().unwrap();
            assert!((0..30).contains(&ds));
            if ds >= 15 {
                recent += 1;
            }
            spec.schema.check_row(r).unwrap();
        }
        assert!(
            recent > 600,
            "recency bias: {recent}/1000 in the recent half"
        );
    }

    #[test]
    fn class_shaped_queries_widen_down_the_priority_ladder() {
        use cubrick::admission::QosClass;
        let config = WorkloadConfig::default();
        let mut rng = SimRng::new(8);
        let pop = TablePopulation::generate(&config, &mut rng);
        let spec = &pop.tables[0];
        let max_window = |class| {
            let mut rng = SimRng::new(9);
            (0..200)
                .map(|_| {
                    let q = gen_query_for_class(spec, class, 100, &mut rng);
                    match &q.predicates[0].op {
                        cubrick::query::PredOp::Between(lo, hi) => hi - lo,
                        other => panic!("{other:?}"),
                    }
                })
                .max()
                .unwrap()
        };
        let interactive = max_window(QosClass::Interactive);
        let best_effort = max_window(QosClass::BestEffort);
        let batch = max_window(QosClass::Batch);
        assert!(interactive <= 7, "{interactive}");
        assert!(best_effort > interactive && best_effort <= 28);
        assert!(batch > best_effort && batch <= 90);
        // Batch always groups (the expensive shape).
        let mut rng = SimRng::new(10);
        for _ in 0..50 {
            let q = gen_query_for_class(spec, QosClass::Batch, 100, &mut rng);
            assert_eq!(q.group_by, vec!["ds".to_string()]);
        }
    }

    #[test]
    fn pick_table_index_matches_pick_table() {
        let config = WorkloadConfig {
            tables: 50,
            ..Default::default()
        };
        let mut rng = SimRng::new(12);
        let pop = TablePopulation::generate(&config, &mut rng);
        let mut a = SimRng::new(13);
        let mut b = SimRng::new(13);
        for _ in 0..500 {
            let by_ref = pop.pick_table(&mut a).name.clone();
            let (idx, spec) = pop.pick_table_index(&mut b);
            assert_eq!(spec.name, by_ref);
            assert_eq!(pop.tables[idx].name, by_ref);
        }
    }

    #[test]
    fn queries_are_valid_recent_windows() {
        let config = WorkloadConfig::default();
        let mut rng = SimRng::new(7);
        let pop = TablePopulation::generate(&config, &mut rng);
        let spec = &pop.tables[0];
        for _ in 0..100 {
            let q = gen_query(spec, 100, &mut rng);
            assert_eq!(q.table, spec.name);
            assert_eq!(q.predicates.len(), 1);
            match &q.predicates[0].op {
                cubrick::query::PredOp::Between(lo, hi) => {
                    assert!(lo <= hi);
                    assert!(*hi <= 99);
                    assert!(*lo >= 0);
                }
                other => panic!("{other:?}"),
            }
        }
    }
}
