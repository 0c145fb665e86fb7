//! `qos_overload`: the `fig_qos_sla` full-profile cell at 2× offered load
//! with shedding on. Eight admission slots, ~400 ms service, arrivals on
//! a diurnal curve whose one cycle spans the horizon plus an evening
//! flash crowd, and a region outage centred on the peak. The only
//! workload on the admission plane: classful admission, deadline queues,
//! depth-aware proxy choices, typed partial results and the
//! arrival/completion events.

use cubrick::admission::AdmissionConfig;
use scalewall_cluster::deployment::DeploymentConfig;
use scalewall_cluster::experiment::ExperimentConfig;
use scalewall_cluster::fault::{FaultKind, FaultScript};
use scalewall_cluster::net::{NetModel, NetModelConfig};
use scalewall_cluster::traffic::{FlashCrowd, QosConfig, TrafficConfig};
use scalewall_cluster::workload::WorkloadConfig;
use scalewall_sim::{SimDuration, SimTime};

use super::{experiment_twin, sub_seed, Prepared, ProbeSample, Scale, SimOutcome, Workload};
use crate::probes;
use crate::spec::Span;
use crate::trace::Trace;

pub const HOSTS_PER_REGION: u32 = 4;
pub const TABLES: usize = 240;
/// Flatter than the default 1.1, so that no single tenant's class decides
/// the offered mix and `success_share` holds steady from seed to seed.
pub const TABLE_POPULARITY_S: f64 = 0.4;
/// Every tenant the same size, hence the default 8 partitions: the mean
/// fan-out, and with it serving capacity and the cost of an offered
/// query, is then the same from seed to seed.
pub const TABLE_SIZE_SIGMA: f64 = 0.0;
pub const ROWS_PER_TABLE: usize = 100;
pub const SLOTS: usize = 8;
pub const OFFERED_LOAD: f64 = 2.0;
pub const SIM_MINUTES: u64 = 120;
pub const MEDIAN_SERVICE_MS: f64 = 400.0;

pub struct QosOverload(Prepared);

fn traffic(duration: SimDuration) -> TrafficConfig {
    TrafficConfig {
        // ~1.7 qps true per-slot throughput at 400 ms median service,
        // derated for the region share withdrawn during the outage.
        capacity_qps: SLOTS as f64 * 0.8,
        offered_load: OFFERED_LOAD,
        diurnal_amplitude: 0.5,
        diurnal_period: duration,
        flash_crowds: vec![FlashCrowd {
            at: SimTime::from_nanos(3 * duration.as_nanos() / 4),
            duration: SimDuration::from_nanos(duration.as_nanos() / 24),
            multiplier: 2.0,
        }],
        class_mix: [0.2, 0.4, 0.4],
    }
}

pub fn config(seed: u64, scale: Scale) -> ExperimentConfig {
    let duration = SimDuration::from_mins(scale.of(SIM_MINUTES).max(4));
    let window = SimDuration::from_nanos(duration.as_nanos() / 12);
    let onset = SimTime::from_nanos(duration.as_nanos() / 2 - window.as_nanos() / 2);
    ExperimentConfig {
        deployment: DeploymentConfig {
            regions: 3,
            hosts_per_region: HOSTS_PER_REGION,
            max_shards: 5_000,
            seed: sub_seed(seed, 1),
            ..Default::default()
        },
        workload: WorkloadConfig {
            tables: TABLES,
            table_popularity_s: TABLE_POPULARITY_S,
            size_sigma: TABLE_SIZE_SIGMA,
            ..Default::default()
        },
        net: NetModelConfig {
            median_service_ms: MEDIAN_SERVICE_MS,
            ..Default::default()
        },
        duration,
        rows_per_table: ROWS_PER_TABLE,
        host_mtbf: SimDuration::from_days(3_650),
        drains_per_day: 0.0,
        faults: FaultScript::new().with(FaultKind::RegionOutage { region: 0 }, onset, window),
        seed: sub_seed(seed, 2),
        qos: Some(QosConfig {
            traffic: traffic(duration),
            admission: AdmissionConfig::qos(SLOTS),
            degraded: true,
            ..Default::default()
        }),
        ..Default::default()
    }
}

impl Workload for QosOverload {
    const SETUP_SPAN: Option<Span> = Some(Span::ExperimentNew);

    fn setup(seed: u64, scale: Scale) -> Self {
        QosOverload(Prepared::new(config(seed, scale)))
    }

    fn run(self, trace: Option<&mut Trace>) -> SimOutcome {
        self.0.run(trace, |_, stats| {
            let offered: u64 = stats.qos.classes.iter().map(|c| c.offered).sum();
            let completed: u64 = stats.qos.classes.iter().map(|c| c.completed).sum();
            (offered, offered, completed)
        })
    }

    fn probes(seed: u64, scale: Scale) -> Vec<ProbeSample> {
        let config = config(seed, scale);
        let (mut dep, population) = experiment_twin(&config);
        let net = NetModel::new(config.net);
        let mut out = probes::plumbing(&dep, &net, &population.tables[0].name, sub_seed(seed, 900));
        out.extend(probes::admission(
            AdmissionConfig::qos(SLOTS),
            &traffic(config.duration),
            sub_seed(seed, 903),
        ));
        out.extend(probes::control(&mut dep));
        out
    }
}
