//! Fixtures more than one bench target times.

use cubrick::catalog::RowMapping;
use cubrick::sharding::ShardMapping;
use scalewall_cluster::deployment::{Deployment, DeploymentConfig};
use scalewall_cluster::workload::{gen_rows, TablePopulation, WorkloadConfig};
use scalewall_sim::{SimRng, SimTime};

/// The `ops_churn` fleet: 3×24 hosts, 60 tables of 1,500 rows each, the
/// default gen-2 metric, with the workload and population it was loaded
/// from.
pub fn ops_churn_fleet() -> (Deployment, WorkloadConfig, TablePopulation) {
    let workload = WorkloadConfig {
        tables: 60,
        ..Default::default()
    };
    let mut dep = Deployment::new(DeploymentConfig {
        regions: 3,
        hosts_per_region: 24,
        max_shards: 20_000,
        ..Default::default()
    });
    let mut rng = SimRng::new(12);
    let population = TablePopulation::generate(&workload, &mut rng.fork(1));
    let mut load_rng = rng.fork(2);
    for spec in &population.tables {
        dep.create_table(
            &spec.name,
            spec.schema.clone(),
            spec.partitions,
            RowMapping::Hash,
            ShardMapping::Monotonic,
            SimTime::ZERO,
        )
        .expect("fresh table");
        let rows = gen_rows(spec, 1_500, workload.ds_range, &mut load_rng);
        dep.ingest(&spec.name, &rows).expect("load");
    }
    (dep, workload, population)
}
