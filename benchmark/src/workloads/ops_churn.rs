//! `ops_churn`: the operational envelope on the replicated control plane.
//! 3×24 hosts, 60 small tables, a trickle of queries, host failures at a
//! 60-day MTBF, three planned drains a day, one six-host drain storm per
//! simulated day and one coordination-replica crash, all through
//! `Experiment::run` with a three-node zk ensemble per region. Per-event
//! `Deployment::tick`, SM metric collection and balancing, zk commits and
//! the monitor and decay passes do the work; the query path does little.

use scalewall_cluster::deployment::DeploymentConfig;
use scalewall_cluster::experiment::ExperimentConfig;
use scalewall_cluster::fault::{FaultKind, FaultScript};
use scalewall_cluster::net::NetModel;
use scalewall_cluster::workload::{gen_rows, WorkloadConfig};
use scalewall_shard_manager::SmConfig;
use scalewall_sim::{SimDuration, SimRng, SimTime};
use scalewall_zk::ZkReplicationConfig;

use super::{experiment_twin, sub_seed, Prepared, ProbeSample, Scale, SimOutcome, Workload};
use crate::probes;
use crate::spec::Span;
use crate::trace::Trace;

pub const HOSTS_PER_REGION: u32 = 24;
pub const TABLES: usize = 60;
pub const ROWS_PER_TABLE: usize = 1_500;
pub const SIM_HOURS: u64 = 12;
pub const QUERY_RATE: f64 = 0.02;
pub const HOST_MTBF_DAYS: u64 = 60;
pub const DRAINS_PER_DAY: f64 = 3.0;
pub const STORM_DRAINS: u32 = 6;
pub const ZK_REPLICAS: u32 = 3;

pub struct OpsChurn(Prepared);

pub fn config(seed: u64, scale: Scale) -> ExperimentConfig {
    // Smoke keeps at least two hours so every periodic pass still fires.
    let hours = if scale.smoke { 2 } else { SIM_HOURS };
    let duration = SimDuration::from_hours(hours);
    let at = |num: u64, den: u64| SimTime::from_nanos(duration.as_nanos() * num / den);
    // One storm per simulated day, a third of the way into it, in
    // rotating regions; the coordination crash lands mid-run.
    let days = hours.div_ceil(24);
    let mut faults = FaultScript::new();
    for day in 0..days {
        faults = faults.with(
            FaultKind::DrainStorm {
                region: (day % 3) as u32,
                drains: STORM_DRAINS,
            },
            at(3 * day + 1, 3 * days),
            SimDuration::from_hours(2).min(SimDuration::from_nanos(duration.as_nanos() / 4)),
        );
    }
    faults = faults.with(
        FaultKind::ZkNodeCrash { region: 1 },
        at(1, 2),
        SimDuration::from_nanos(duration.as_nanos() / 12),
    );
    ExperimentConfig {
        deployment: DeploymentConfig {
            regions: 3,
            hosts_per_region: HOSTS_PER_REGION,
            max_shards: 20_000,
            sm: SmConfig {
                replication: Some(ZkReplicationConfig {
                    replicas: ZK_REPLICAS,
                    ..Default::default()
                }),
                ..Default::default()
            },
            seed: sub_seed(seed, 1),
            ..Default::default()
        },
        workload: WorkloadConfig {
            tables: TABLES,
            ..Default::default()
        },
        duration,
        query_rate: QUERY_RATE,
        rows_per_table: ROWS_PER_TABLE,
        host_mtbf: SimDuration::from_days(HOST_MTBF_DAYS),
        drains_per_day: DRAINS_PER_DAY,
        faults,
        seed: sub_seed(seed, 2),
        ..Default::default()
    }
}

impl Workload for OpsChurn {
    const SETUP_SPAN: Option<Span> = Some(Span::ExperimentNew);

    fn setup(seed: u64, scale: Scale) -> Self {
        OpsChurn(Prepared::new(config(seed, scale)))
    }

    fn run(self, trace: Option<&mut Trace>) -> SimOutcome {
        self.0.run(trace, |config, stats| {
            let hours = config.duration.as_nanos() / SimDuration::from_hours(1).as_nanos();
            (
                hours,
                stats.queries_ok + stats.queries_failed,
                stats.queries_ok,
            )
        })
    }

    fn probes(seed: u64, scale: Scale) -> Vec<ProbeSample> {
        let config = config(seed, scale);
        let (mut dep, population) = experiment_twin(&config);
        let spec = &population.tables[0];
        let net = NetModel::new(config.net);
        let mut out = probes::plumbing(&dep, &net, &spec.name, sub_seed(seed, 900));
        let mut rng = SimRng::new(sub_seed(seed, 901));
        let rows = gen_rows(
            spec,
            (config.rows_per_table / spec.partitions as usize).max(1),
            config.workload.ds_range,
            &mut rng,
        );
        out.extend(probes::storage(
            &dep,
            &spec.name,
            &rows,
            sub_seed(seed, 902),
        ));
        out.extend(probes::control(&mut dep));
        out
    }
}
