//! `ingest_pressure`: 3×4 hosts with a 1 MB memory budget each (data far
//! above the budget), 4 tables × 8 partitions. Each iteration ingests one
//! generated batch and runs five dashboards; every tenth iteration every
//! node runs a decay pass and the memory monitor, so bricks compress
//! while scans keep hitting them.

use cubrick::catalog::RowMapping;
use cubrick::proxy::{CubrickProxy, ProxyConfig};
use cubrick::sharding::ShardMapping;
use scalewall_cluster::deployment::{Deployment, DeploymentConfig};
use scalewall_cluster::driver::{run_query, QueryOptions};
use scalewall_cluster::net::{NetModel, NetModelConfig};
use scalewall_cluster::workload::{gen_query, gen_rows, standard_schema, TableSpec};
use scalewall_shard_manager::HostId;
use scalewall_sim::{SimDuration, SimRng, SimTime};

use super::{closed_loop, sub_seed, ProbeSample, Scale, SimOutcome, Workload};
use crate::spec::Span;
use crate::trace::{spanned, Trace};
use crate::{oracle, probes};

pub const HOSTS_PER_REGION: u32 = 4;
pub const HOST_MEMORY_BYTES: u64 = 1_000_000;
pub const TABLES: usize = 4;
pub const PARTITIONS: u32 = 8;
pub const ITERATIONS: u64 = 40;
pub const BATCH_ROWS: u64 = 5_000;
pub const DASHBOARDS_PER_ITERATION: u64 = 5;
pub const MONITOR_EVERY: u64 = 10;
/// Dashboards compared with the naive scan before timing.
const CHECKED_DASHBOARDS: usize = 8;
const DS_RANGE: i64 = 365;
const START: SimTime = SimTime::from_secs(3_600);

pub struct IngestPressure {
    dep: Deployment,
    net: NetModel,
    seed: u64,
    specs: Vec<TableSpec>,
    iterations: u64,
    batch_rows: usize,
}

const OPTS: QueryOptions = closed_loop(true);

/// Decay pass then memory monitor on every node of every region, as the
/// experiment engine's periodic events do. Returns bricks
/// (compressed, decompressed).
fn maintenance(dep: &mut Deployment, trace: &mut Option<&mut Trace>) -> (u64, u64) {
    let nodes: Vec<(usize, HostId)> = dep
        .regions
        .iter()
        .enumerate()
        .flat_map(|(r, region)| region.nodes.hosts().map(move |h| (r, h)))
        .collect();
    spanned(trace, Span::DecayPass, || {
        for &(r, host) in &nodes {
            if let Some(node) = dep.regions[r].nodes.node_mut(host) {
                node.decay_pass();
            }
        }
    });
    spanned(trace, Span::MemoryMonitor, || {
        let mut moved = (0u64, 0u64);
        for &(r, host) in &nodes {
            if let Some(node) = dep.regions[r].nodes.node_mut(host) {
                let (c, d) = node.run_memory_monitor();
                moved.0 += c as u64;
                moved.1 += d as u64;
            }
        }
        moved
    })
}

/// Transient decompressions by scans so far, all regions.
fn transient_decompressions(dep: &Deployment) -> u64 {
    dep.regions
        .iter()
        .map(|region| {
            let store = region.store.read();
            store
                .keys()
                .iter()
                .filter_map(|(table, p)| store.partition(table, *p))
                .map(|part| part.stats().transient_decompressions)
                .sum::<u64>()
        })
        .sum()
}

impl Workload for IngestPressure {
    fn setup(seed: u64, scale: Scale) -> Self {
        let mut dep = Deployment::new(DeploymentConfig {
            regions: 3,
            hosts_per_region: HOSTS_PER_REGION,
            max_shards: 10_000,
            host_memory_bytes: HOST_MEMORY_BYTES,
            seed: sub_seed(seed, 1),
            ..Default::default()
        });
        let batch_rows = scale.of(BATCH_ROWS) as usize;
        let mut rng = SimRng::new(sub_seed(seed, 2));
        let specs: Vec<TableSpec> = (0..TABLES)
            .map(|i| TableSpec {
                name: format!("ingest_{i}"),
                schema: standard_schema(DS_RANGE),
                target_bytes: 0,
                partitions: PARTITIONS,
            })
            .collect();
        for spec in &specs {
            dep.create_table(
                &spec.name,
                spec.schema.clone(),
                spec.partitions,
                RowMapping::Hash,
                ShardMapping::Monotonic,
                SimTime::ZERO,
            )
            .expect("fresh deployment takes every table");
            // One batch up front and a monitor pass after, so the first
            // dashboards already scan partly compressed data.
            let rows = gen_rows(spec, batch_rows, DS_RANGE, &mut rng);
            dep.ingest(&spec.name, &rows)
                .expect("generated rows fit the schema");
        }
        maintenance(&mut dep, &mut None);
        IngestPressure {
            dep,
            net: NetModel::new(NetModelConfig::default()),
            seed,
            specs,
            iterations: scale.of(ITERATIONS),
            batch_rows,
        }
    }

    fn check(seed: u64, scale: Scale) -> Result<(), String> {
        let mut state = Self::setup(seed, scale);
        let mut proxy = CubrickProxy::new(ProxyConfig::default());
        let mut rng = SimRng::new(sub_seed(seed, 5));
        for i in 0..CHECKED_DASHBOARDS {
            let query = gen_query(&state.specs[i % TABLES], DS_RANGE, &mut rng);
            let outcome = run_query(
                &mut state.dep,
                &mut proxy,
                &state.net,
                &query,
                &OPTS,
                START,
                &mut rng,
            );
            let output = outcome
                .output
                .ok_or_else(|| format!("{query:?} failed: {:?}", outcome.error))?;
            oracle::check(&state.dep, &query, &output)?;
        }
        Ok(())
    }

    fn run(mut self, mut trace: Option<&mut Trace>) -> SimOutcome {
        let mut out = SimOutcome::new(0);
        let mut proxy = CubrickProxy::new(ProxyConfig::default());
        let mut row_rng = SimRng::new(sub_seed(self.seed, 3));
        let mut query_rng = SimRng::new(sub_seed(self.seed, 4));
        let decompressed_before = transient_decompressions(&self.dep);
        let mut now = START;
        let (mut queries, mut compressed, mut decompressed, mut passes) = (0u64, 0u64, 0u64, 0u64);
        let mut rows_scanned = 0u64;
        for it in 0..self.iterations {
            let spec = &self.specs[it as usize % TABLES];
            let rows = spanned(&mut trace, Span::GenRows, || {
                gen_rows(spec, self.batch_rows, DS_RANGE, &mut row_rng)
            });
            out.attempted += 1;
            match spanned(&mut trace, Span::Ingest, || {
                self.dep.ingest(&spec.name, &rows)
            }) {
                Ok(()) => {
                    out.succeeded += 1;
                    out.ops += rows.len() as u64;
                }
                Err(_) => out.broken += 1,
            }
            for _ in 0..DASHBOARDS_PER_ITERATION {
                let target = &self.specs[query_rng.below(TABLES as u64) as usize];
                let query = gen_query(target, DS_RANGE, &mut query_rng);
                let outcome = spanned(&mut trace, Span::RunQuery, || {
                    run_query(
                        &mut self.dep,
                        &mut proxy,
                        &self.net,
                        &query,
                        &OPTS,
                        now,
                        &mut query_rng,
                    )
                });
                now += SimDuration::from_secs(10);
                queries += 1;
                out.attempted += 1;
                match outcome.output {
                    Some(output) if outcome.success => {
                        out.succeeded += 1;
                        out.latency.record_duration(outcome.latency);
                        rows_scanned += output.rows_scanned;
                    }
                    _ => out.broken += 1,
                }
            }
            if (it + 1) % MONITOR_EVERY == 0 {
                let (c, d) = maintenance(&mut self.dep, &mut trace);
                compressed += c;
                decompressed += d;
                passes += 1;
            }
        }
        let transient = transient_decompressions(&self.dep) - decompressed_before;
        out.extra
            .extend([rows_scanned, compressed, decompressed, transient]);
        let attempts = (queries + proxy.stats.retries) as f64;
        out.query_path(queries as f64, attempts, attempts * f64::from(PARTITIONS));
        out.counts
            .insert("region_failovers", proxy.stats.retries as f64);
        out.counts.insert(
            "cubrick.node.run_memory_monitor.bricks_compressed",
            compressed as f64,
        );
        out.counts.insert(
            "cubrick.node.run_memory_monitor.bricks_decompressed",
            decompressed as f64,
        );
        let regions = self.dep.regions.len() as f64;
        let partitions = (TABLES as u32 * PARTITIONS) as f64;
        let c = &mut out.calls;
        c.insert("cubrick.store.ingest", out.ops as f64 * regions);
        c.insert("cubrick.compression.compress", compressed as f64);
        c.insert(
            "cubrick.compression.decompress",
            (decompressed + transient) as f64,
        );
        c.insert(
            "cubrick.store.run_memory_monitor",
            passes as f64 * partitions * regions,
        );
        c.insert(
            "cubrick.store.decay_pass",
            passes as f64 * partitions * regions,
        );
        c.insert("sim.stats.histogram_record", queries as f64);
        out
    }

    fn probes(seed: u64, scale: Scale) -> Vec<ProbeSample> {
        let state = Self::setup(seed, scale);
        let table = state.specs[0].name.as_str();
        let mut rng = SimRng::new(sub_seed(seed, 901));
        // A partition's share of what the table holds mid-run.
        let rows = gen_rows(
            &state.specs[0],
            state.batch_rows * (state.iterations as usize / TABLES / 2).max(1)
                / PARTITIONS as usize,
            DS_RANGE,
            &mut rng,
        );
        let mut out = probes::storage(&state.dep, table, &rows, sub_seed(seed, 902));
        out.extend(probes::plumbing(
            &state.dep,
            &state.net,
            table,
            sub_seed(seed, 900),
        ));
        out
    }
}
