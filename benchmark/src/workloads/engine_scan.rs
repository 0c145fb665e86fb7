//! `engine_scan`: 3×8 hosts, one 8-partition table of `standard_schema`
//! rows under the default 8 GiB budget (every brick stays uncompressed),
//! five query shapes round-robin with `execute_data: true`. Almost all
//! host time is `execute_partition` and the coordinator merge; the
//! control plane is idle.

use cubrick::catalog::RowMapping;
use cubrick::proxy::{CubrickProxy, ProxyConfig};
use cubrick::query::{AggFunc, AggSpec, Predicate, Query};
use cubrick::sharding::ShardMapping;
use scalewall_cluster::deployment::{Deployment, DeploymentConfig};
use scalewall_cluster::driver::{run_query, QueryOptions};
use scalewall_cluster::net::{NetModel, NetModelConfig};
use scalewall_cluster::workload::{gen_rows, standard_schema, TableSpec};
use scalewall_sim::{SimDuration, SimRng, SimTime};

use super::{closed_loop, sub_seed, ProbeSample, Scale, SimOutcome, Workload};
use crate::spec::{Span, EXECUTE_PARTITION_PROBES};
use crate::trace::{spanned, Trace};
use crate::{oracle, probes};

pub const HOSTS_PER_REGION: u32 = 8;
pub const PARTITIONS: u32 = 8;
pub const ROWS: u64 = 120_000;
const LOAD_BATCH: usize = 10_000;
/// Rounds of the five shapes.
pub const ROUNDS: u64 = 30;
const TABLE: &str = "scan";
const DS_RANGE: i64 = 365;
const START: SimTime = SimTime::from_secs(3_600);
const INTERVAL: SimDuration = SimDuration::from_millis(500);

pub struct EngineScan {
    dep: Deployment,
    net: NetModel,
    seed: u64,
    shapes: [Query; 5],
    rounds: u64,
}

/// The five shapes, `Span::SHAPES` order. The pruned window and the
/// filtered entity come from the seed.
fn shapes(seed: u64) -> [Query; 5] {
    let mut rng = SimRng::new(sub_seed(seed, 3));
    let sum_count = || vec![AggSpec::new(AggFunc::Sum, "clicks"), AggSpec::count_star()];
    let query = |aggs, predicates, group_by: &[&str]| Query {
        table: TABLE.to_string(),
        aggs,
        predicates,
        group_by: group_by.iter().map(|s| s.to_string()).collect(),
        order_by: None,
        limit: None,
    };
    let hi = DS_RANGE - 1;
    let lo = hi - 7 - rng.below(14) as i64;
    let entity = format!("e{}", rng.below(2_000));
    [
        query(sum_count(), vec![], &[]),
        query(sum_count(), vec![Predicate::between("ds", lo, hi)], &[]),
        query(sum_count(), vec![], &["ds"]),
        query(
            vec![
                AggSpec::new(AggFunc::Sum, "clicks"),
                AggSpec::new(AggFunc::Avg, "cost"),
            ],
            vec![],
            &["entity"],
        ),
        query(
            vec![AggSpec::new(AggFunc::Sum, "cost"), AggSpec::count_star()],
            vec![Predicate::eq("entity", entity.as_str())],
            &[],
        ),
    ]
}

const OPTS: QueryOptions = closed_loop(true);

impl Workload for EngineScan {
    fn setup(seed: u64, scale: Scale) -> Self {
        let mut dep = Deployment::new(DeploymentConfig {
            regions: 3,
            hosts_per_region: HOSTS_PER_REGION,
            max_shards: 10_000,
            seed: sub_seed(seed, 1),
            ..Default::default()
        });
        let schema = standard_schema(DS_RANGE);
        dep.create_table(
            TABLE,
            schema.clone(),
            PARTITIONS,
            RowMapping::Hash,
            ShardMapping::Monotonic,
            SimTime::ZERO,
        )
        .expect("fresh deployment takes the table");
        let spec = TableSpec {
            name: TABLE.to_string(),
            schema,
            target_bytes: 0,
            partitions: PARTITIONS,
        };
        let mut rng = SimRng::new(sub_seed(seed, 2));
        // Load in batches so the peak resident set is the loaded table,
        // not the generator's staging vector.
        let mut left = scale.of(ROWS) as usize;
        while left > 0 {
            let batch = left.min(LOAD_BATCH);
            let rows = gen_rows(&spec, batch, DS_RANGE, &mut rng);
            dep.ingest(TABLE, &rows)
                .expect("generated rows fit the schema");
            left -= batch;
        }
        EngineScan {
            dep,
            net: NetModel::new(NetModelConfig::default()),
            seed,
            shapes: shapes(seed),
            rounds: scale.of(ROUNDS),
        }
    }

    fn check(seed: u64, scale: Scale) -> Result<(), String> {
        let mut state = Self::setup(seed, scale);
        let mut proxy = CubrickProxy::new(ProxyConfig::default());
        let mut rng = SimRng::new(sub_seed(seed, 5));
        for query in &state.shapes {
            let outcome = run_query(
                &mut state.dep,
                &mut proxy,
                &state.net,
                query,
                &OPTS,
                START,
                &mut rng,
            );
            let output = outcome
                .output
                .ok_or_else(|| format!("{query:?} failed: {:?}", outcome.error))?;
            oracle::check(&state.dep, query, &output)?;
            if output.rows.is_empty() {
                return Err(format!("{query:?} matched no row: the check is vacuous"));
            }
        }
        Ok(())
    }

    fn run(mut self, mut trace: Option<&mut Trace>) -> SimOutcome {
        let mut out = SimOutcome::new(self.rounds * 5);
        let mut proxy = CubrickProxy::new(ProxyConfig::default());
        let mut rng = SimRng::new(sub_seed(self.seed, 4));
        let mut now = START;
        let mut rows_scanned = [0u64; 5];
        for _ in 0..self.rounds {
            for (i, query) in self.shapes.iter().enumerate() {
                let outcome = spanned(&mut trace, Span::SHAPES[i], || {
                    run_query(
                        &mut self.dep,
                        &mut proxy,
                        &self.net,
                        query,
                        &OPTS,
                        now,
                        &mut rng,
                    )
                });
                now += INTERVAL;
                out.attempted += 1;
                match outcome.output {
                    Some(output) if outcome.success => {
                        out.succeeded += 1;
                        out.latency.record_duration(outcome.latency);
                        rows_scanned[i] += output.rows_scanned;
                    }
                    _ => out.broken += 1,
                }
            }
        }
        out.extra.extend(rows_scanned);
        let queries = out.attempted as f64;
        let attempts = queries + proxy.stats.retries as f64;
        out.query_path(queries, attempts, attempts * f64::from(PARTITIONS));
        out.counts
            .insert("region_failovers", proxy.stats.retries as f64);
        let c = &mut out.calls;
        // Probes report per stored row of one partition: calls × rows.
        let stored = {
            let store = self.dep.regions[0].store.read();
            (0..PARTITIONS)
                .filter_map(|p| store.partition(TABLE, p))
                .map(|p| p.rows())
                .sum::<u64>() as f64
        };
        for name in EXECUTE_PARTITION_PROBES {
            c.insert(name, self.rounds as f64 * stored);
        }
        // The probe merges the widest shape; charge it to that shape only
        // (the other four merge a handful of groups).
        c.insert("cubrick.coordinator.merge_partials", self.rounds as f64);
        c.insert("sim.stats.histogram_record", out.succeeded as f64);
        out
    }

    fn probes(seed: u64, scale: Scale) -> Vec<ProbeSample> {
        let state = Self::setup(seed, scale);
        let mut out = probes::engine(&state.dep, TABLE, &state.shapes);
        out.extend(probes::plumbing(
            &state.dep,
            &state.net,
            TABLE,
            sub_seed(seed, 900),
        ));
        out
    }
}
