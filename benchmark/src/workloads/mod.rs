//! The five workloads. Each builds its state from the seed alone
//! (`setup`), runs one fixed-size timed region on it (`run`) and reports
//! what the simulation did (`SimOutcome`), which repeats bit for bit for
//! one seed. Sizes are frozen constants in each module; `--smoke`
//! divides them by 100.

use std::collections::BTreeMap;

use cubrick::catalog::RowMapping;
use cubrick::sharding::ShardMapping;
use scalewall_cluster::deployment::Deployment;
use scalewall_cluster::driver::QueryOptions;
use scalewall_cluster::experiment::{Experiment, ExperimentConfig, ExperimentStats};
use scalewall_cluster::workload::{gen_rows, TablePopulation};
use scalewall_sim::{Histogram, SimRng, SimTime};

use crate::spec::Span;
use crate::trace::{spanned, Trace};

pub mod engine_scan;
pub mod fanout_sweep;
pub mod ingest_pressure;
pub mod ops_churn;
pub mod qos_overload;

/// Full size, or sizes ÷ 100 for `--smoke`.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub smoke: bool,
}

impl Scale {
    pub fn of(self, full: u64) -> u64 {
        if self.smoke {
            (full / 100).max(1)
        } else {
            full
        }
    }
}

/// Independent seed for input stream `label`, through the repo's own
/// fork-stable RNG so streams never alias.
pub fn sub_seed(seed: u64, label: u64) -> u64 {
    SimRng::new(seed).fork(label).next_u64()
}

/// Options of the closed-loop workloads' queries: one interactive client
/// in region 0, strict (no partial or best-effort answers), the proxy's
/// own admission.
pub const fn closed_loop(execute_data: bool) -> QueryOptions {
    QueryOptions {
        strategy: cubrick::proxy::CoordinatorStrategy::CachedRandom,
        execute_data,
        client_region: scalewall_shard_manager::Region(0),
        best_effort: false,
        qos: cubrick::admission::QosClass::Interactive,
        partial_results: false,
        shard_timeout: None,
        admission_held: false,
    }
}

/// What one timed region did, in simulation terms. Identical for every
/// repetition of one seed, traced or not.
pub struct SimOutcome {
    /// The workload's operation count (`ops_per_s` numerator).
    pub ops: u64,
    /// Queries (and ingest batches) offered to the system.
    pub attempted: u64,
    /// Those that completed; shed, refused, timed-out and errored ones
    /// do not.
    pub succeeded: u64,
    /// Operations that broke although the workload injects no fault for
    /// them: reported as `failed` on the result line.
    pub broken: u64,
    /// Simulated latency of successful queries, ms.
    pub latency: Histogram,
    /// Exact per-seed counts for the per-layer table.
    pub counts: BTreeMap<&'static str, f64>,
    /// How often each probed function ran inside the timed region,
    /// keyed by probe name: exact where public stats allow, a stated
    /// estimate otherwise (see README).
    pub calls: BTreeMap<&'static str, f64>,
    /// Further state folded into the digest only.
    pub extra: Vec<u64>,
}

impl SimOutcome {
    pub fn new(ops: u64) -> Self {
        SimOutcome {
            ops,
            attempted: 0,
            succeeded: 0,
            broken: 0,
            latency: Histogram::latency_ms(),
            counts: BTreeMap::new(),
            calls: BTreeMap::new(),
            extra: Vec::new(),
        }
    }

    /// Record the query path's counts and how often its probed functions
    /// ran: one catalog lookup per query and one more per attempt, one
    /// proxy choice per attempt, one resolve, network draw and shard
    /// mapping per planned sub-query (fan-out × attempts; an attempt that
    /// fails fast issues fewer).
    pub fn query_path(&mut self, queries: f64, attempts: f64, subqueries: f64) {
        self.counts.insert("queries", queries);
        self.counts.insert("subqueries", subqueries);
        self.counts.insert(
            "cluster.driver.attempts_per_query",
            attempts / queries.max(1.0),
        );
        let c = &mut self.calls;
        c.insert("cubrick.catalog.get", queries + attempts);
        c.insert("cubrick.proxy.choose", attempts);
        for name in [
            "discovery.resolve",
            "cluster.net.server_response",
            "cubrick.sharding.shard_of",
        ] {
            c.insert(name, subqueries);
        }
    }

    /// FNV-1a over everything the simulation produced.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        };
        mix(self.ops);
        mix(self.attempted);
        mix(self.succeeded);
        mix(self.broken);
        let s = self.latency.summary();
        mix(s.count);
        for v in [s.mean, s.min, s.p50, s.p90, s.p99, s.p999, s.max] {
            mix(v.to_bits());
        }
        for v in self.counts.values() {
            mix(v.to_bits());
        }
        for &v in &self.extra {
            mix(v);
        }
        h
    }

    /// Fold an `ExperimentStats` in: counters into `counts`, the rest
    /// into the digest.
    pub fn absorb_experiment(&mut self, stats: &ExperimentStats) {
        self.latency = stats.latency.clone();
        let migrations: u64 = stats.migrations_per_day.iter().sum();
        let c = &mut self.counts;
        c.insert("region_failovers", stats.region_failovers as f64);
        c.insert("sm.migrations", migrations as f64);
        c.insert("sm.failover_migrations", stats.failover_migrations as f64);
        c.insert(
            "sm.drains_denied_share",
            stats.drains_denied as f64 / stats.drains_requested.max(1) as f64,
        );
        c.insert("zk.failovers", stats.zk_failovers as f64);
        c.insert("zk.session_moves", stats.zk_session_moves as f64);
        let q = &stats.qos;
        let sum = |f: fn(&scalewall_cluster::traffic::ClassCounters) -> u64| -> f64 {
            q.classes.iter().map(f).sum::<u64>() as f64
        };
        c.insert("admission.shed", sum(|c| c.shed));
        c.insert("admission.queue_timeouts", sum(|c| c.queue_timeouts));
        c.insert("admission.partials", sum(|c| c.partials));
        c.insert(
            "admission.sla_met.interactive",
            q.sla_met_ratio(cubrick::admission::QosClass::Interactive),
        );
        self.extra.extend([
            stats.queries_ok,
            stats.queries_failed,
            stats.population_fingerprint,
            stats.drains_requested,
            stats.drains_denied,
            stats.fault_injections,
            stats.fault_repairs,
            stats.same_table_collisions,
            stats.repairs_per_day.iter().sum(),
            stats.final_hotness.len() as u64,
            stats.final_hotness.iter().map(|&h| u64::from(h)).sum(),
        ]);
        self.extra.extend(stats.migrations_per_day.iter().copied());
        for class in &q.classes {
            self.extra.extend([
                class.offered,
                class.admitted,
                class.queued,
                class.shed,
                class.queue_timeouts,
                class.completed,
                class.partials,
                class.failed,
                class.sla_met,
            ]);
        }
    }
}

/// State of the two `Experiment`-backed workloads.
pub struct Prepared {
    experiment: Experiment,
    config: ExperimentConfig,
}

impl Prepared {
    /// `Experiment::new`: builds the deployment, creates and loads tables.
    pub fn new(config: ExperimentConfig) -> Self {
        Prepared {
            experiment: Experiment::new(config.clone()),
            config,
        }
    }

    /// `Experiment::run` under its span, folded into an outcome.
    /// `tally` reads (ops, attempted, succeeded) off the stats.
    pub fn run(
        self,
        mut trace: Option<&mut Trace>,
        tally: impl FnOnce(&ExperimentConfig, &ExperimentStats) -> (u64, u64, u64),
    ) -> SimOutcome {
        let stats = spanned(&mut trace, Span::ExperimentRun, || self.experiment.run());
        let (ops, attempted, succeeded) = tally(&self.config, &stats);
        let mut out = SimOutcome::new(ops);
        out.attempted = attempted;
        out.succeeded = succeeded;
        out.absorb_experiment(&stats);
        let population = experiment_population(&self.config);
        experiment_calls(&self.config, &stats, &population, &mut out);
        out
    }
}

/// The table population `Experiment::new(config)` draws.
pub fn experiment_population(config: &ExperimentConfig) -> TablePopulation {
    TablePopulation::generate(&config.workload, &mut SimRng::new(config.seed).fork(1))
}

/// The deployment `Experiment::new(config)` builds and loads, rebuilt from
/// the same public pieces and RNG forks: `Experiment` keeps its own
/// private, so probes run on this twin.
pub fn experiment_twin(config: &ExperimentConfig) -> (Deployment, TablePopulation) {
    let mut rng = SimRng::new(config.seed);
    let mut dep = Deployment::new(config.deployment.clone());
    let population = TablePopulation::generate(&config.workload, &mut rng.fork(1));
    let mut load_rng = rng.fork(2);
    for spec in &population.tables {
        let created = dep.create_table(
            &spec.name,
            spec.schema.clone(),
            spec.partitions,
            RowMapping::Hash,
            ShardMapping::Monotonic,
            SimTime::ZERO,
        );
        let rows = gen_rows(
            spec,
            config.rows_per_table,
            config.workload.ds_range,
            &mut load_rng,
        );
        if created.is_ok() {
            let _ = dep.ingest(&spec.name, &rows);
        }
    }
    (dep, population)
}

/// Call counts of the probed functions inside one `Experiment::run`,
/// from its public stats. The experiment does not expose its event count,
/// so events are estimated as queries (plus one completion each in QoS
/// mode) plus the periodic passes plus two per repair, drain and fault
/// window; per-event and per-pass multipliers follow from the config.
fn experiment_calls(
    config: &ExperimentConfig,
    stats: &ExperimentStats,
    population: &TablePopulation,
    out: &mut SimOutcome,
) {
    let offered: u64 = stats.qos.classes.iter().map(|c| c.offered).sum();
    let admitted: u64 = stats.qos.classes.iter().map(|c| c.admitted).sum();
    let ran = stats.queries_ok + stats.queries_failed;
    let horizon = config.duration.as_nanos() as f64;
    let [metrics, balance, decay, monitor] = [
        config.metrics_interval,
        config.load_balance_interval,
        config.decay_interval,
        config.memory_monitor_interval,
    ]
    .map(|interval| (horizon / interval.as_nanos() as f64).floor());
    let repairs: u64 = stats.repairs_per_day.iter().sum();
    let sporadic = 2 * (repairs + stats.drains_requested + stats.fault_injections);
    let events = offered.max(ran) as f64
        + admitted as f64
        + metrics
        + balance
        + decay
        + monitor
        + sporadic as f64;
    let regions = f64::from(config.deployment.regions);
    let hosts = regions * f64::from(config.deployment.hosts_per_region);
    let partitions: f64 = population
        .tables
        .iter()
        .map(|t| f64::from(t.partitions))
        .sum();
    // Popularity-weighted mean fan-out, from the population's own draw.
    let mut pick_rng = SimRng::new(sub_seed(config.seed, 77));
    const DRAWS: u32 = 2_000;
    let mean_fanout = (0..DRAWS)
        .map(|_| f64::from(population.pick_table(&mut pick_rng).partitions))
        .sum::<f64>()
        / f64::from(DRAWS);
    let attempts = (ran + stats.region_failovers) as f64;
    out.query_path(ran as f64, attempts, (attempts * mean_fanout).round());
    // In QoS mode shed and timed-out arrivals never reach the driver.
    out.counts.insert("queries", offered.max(ran) as f64);
    let c = &mut out.calls;
    c.insert("cluster.deployment.tick", events);
    c.insert("sim.event.schedule_pop", events);
    if config.deployment.sm.replication.is_some() {
        c.insert("zk.ensemble.commit", events * (hosts + 2.0 * regions));
        c.insert("zk.plane.tick", events * regions);
    }
    c.insert("sm.server.collect_metrics", metrics);
    c.insert("sm.server.run_load_balancer", balance);
    c.insert("sm.balancer.propose_rebalance", balance * regions);
    c.insert(
        "sm.placement.rank_candidates",
        stats.migrations_per_day.iter().sum::<u64>() as f64,
    );
    c.insert(
        "cubrick.store.run_memory_monitor",
        monitor * partitions * regions,
    );
    c.insert("cubrick.store.decay_pass", decay * partitions * regions);
    c.insert("sim.stats.histogram_record", stats.queries_ok as f64);
    if config.qos.is_some() {
        c.insert("cubrick.admission.offer_complete", offered as f64);
        c.insert("cluster.traffic.next_arrival", offered as f64);
    }
}

/// One probe's measurement on the workload's built state.
pub struct ProbeSample {
    /// Name from `spec::PROBES`.
    pub name: &'static str,
    /// Host nanoseconds per call (per row / brick / op / event where the
    /// probe's unit says so).
    pub ns: f64,
}

pub trait Workload: Sized {
    /// Span the traced pass records around `setup`, if the layer table
    /// names one.
    const SETUP_SPAN: Option<Span> = None;

    /// Everything before the timed region: build the deployment or
    /// experiment, create and load tables.
    fn setup(seed: u64, scale: Scale) -> Self;

    /// Compare the program's answers with a naive reference before any
    /// timing. Runs on a state of its own.
    fn check(_seed: u64, _scale: Scale) -> Result<(), String> {
        Ok(())
    }

    /// The timed region. With a trace, spans are recorded around each
    /// call into the repo's crates; the outcome must not change.
    fn run(self, trace: Option<&mut Trace>) -> SimOutcome;

    /// Time the layers this workload exercises, each through its public
    /// function, on state built like `setup` builds it.
    fn probes(seed: u64, scale: Scale) -> Vec<ProbeSample>;
}
