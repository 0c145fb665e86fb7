//! **Headline ablation** — full sharding vs partial sharding as the
//! cluster scales. The paper's central claim: a fully-sharded system's
//! query success ratio decays with cluster size and crosses the SLA (the
//! scalability wall), while a partially-sharded system's fan-out — and
//! therefore its success ratio — is independent of cluster size.
//!
//! Both modes run through the identical end-to-end query path; the only
//! difference is the table's partition count (= cluster size for full
//! sharding, 8 for partial).

use cubrick::catalog::RowMapping;
use cubrick::proxy::{CubrickProxy, ProxyConfig};
use cubrick::query::Query;
use cubrick::sharding::ShardMapping;
use scalewall_cluster::deployment::{Deployment, DeploymentConfig};
use scalewall_cluster::driver::{run_query_series, QueryOptions};
use scalewall_cluster::net::{NetModel, NetModelConfig};
use scalewall_cluster::report::{banner, TextTable};
use scalewall_cluster::wall::success_ratio;
use scalewall_cluster::workload::standard_schema;
use scalewall_sim::{Histogram, SimDuration, SimRng, SimTime};

use crate::Profile;

pub struct WallPoint {
    pub hosts: u32,
    pub full_success: f64,
    pub full_p99_ms: f64,
    pub partial_success: f64,
    pub partial_p99_ms: f64,
    pub model_full: f64,
}

/// Per-server transient failure probability (the paper's 0.01 %).
pub const FAILURE_P: f64 = 1e-4;
pub const SLA: f64 = 0.99;

fn measure(dep: &mut Deployment, table: &str, queries: u64, rng: &mut SimRng) -> (f64, f64) {
    // Single-attempt success (no proxy retries): the wall is a property
    // of the raw fan-out, which retries merely mask at added latency.
    let mut proxy = CubrickProxy::new(ProxyConfig {
        max_retries: 0,
        ..Default::default()
    });
    let net = NetModel::new(NetModelConfig {
        server_failure_probability: FAILURE_P,
        ..Default::default()
    });
    let query = Query::count_star(table);
    let opts = QueryOptions {
        execute_data: false,
        ..Default::default()
    };
    let mut hist = Histogram::latency_ms();
    let (ok, _) = run_query_series(
        dep,
        &mut proxy,
        &net,
        &query,
        &opts,
        SimTime::from_secs(3_600),
        SimDuration::from_millis(500),
        queries,
        rng,
        &mut hist,
    );
    (ok as f64 / queries as f64, hist.quantile(0.99))
}

pub fn compute(profile: Profile) -> Vec<WallPoint> {
    let sizes: Vec<u32> = profile.pick(vec![8, 32, 96, 192], vec![8, 16, 32, 64, 128, 256, 512]);
    let queries = profile.pick(3_000u64, 50_000u64);
    let mut out = Vec::new();
    for &hosts in &sizes {
        let mut dep = Deployment::new(DeploymentConfig {
            regions: 3,
            hosts_per_region: hosts,
            racks_per_region: (hosts / 8).max(1),
            max_shards: 100_000,
            ..Default::default()
        });
        // Full sharding: the table spans every host in a region.
        dep.create_table(
            "full",
            standard_schema(365),
            hosts,
            RowMapping::Hash,
            ShardMapping::Monotonic,
            SimTime::ZERO,
        )
        .expect("full table");
        // Partial sharding: fixed 8 partitions regardless of cluster size.
        dep.create_table(
            "partial",
            standard_schema(365),
            8,
            RowMapping::Hash,
            ShardMapping::Monotonic,
            SimTime::ZERO,
        )
        .expect("partial table");

        let mut rng = SimRng::new(0xA11 ^ hosts as u64);
        let (full_success, full_p99) = measure(&mut dep, "full", queries, &mut rng);
        let (partial_success, partial_p99) = measure(&mut dep, "partial", queries, &mut rng);
        out.push(WallPoint {
            hosts,
            full_success,
            full_p99_ms: full_p99,
            partial_success,
            partial_p99_ms: partial_p99,
            model_full: success_ratio(hosts as u64, FAILURE_P),
        });
    }
    out
}

pub fn run(profile: Profile) -> String {
    let points = compute(profile);
    let mut table = TextTable::new(vec![
        "hosts/region",
        "full: success",
        "full: model",
        "full: p99_ms",
        "partial: success",
        "partial: p99_ms",
        "full meets SLA",
    ]);
    for p in &points {
        table.row(vec![
            p.hosts.to_string(),
            format!("{:.4}", p.full_success),
            format!("{:.4}", p.model_full),
            format!("{:.1}", p.full_p99_ms),
            format!("{:.4}", p.partial_success),
            format!("{:.1}", p.partial_p99_ms),
            if p.full_success >= SLA {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }
    let mut out = banner(
        "Ablation: breaching the wall",
        "full vs partial sharding as the cluster scales (single-attempt)",
    );
    out.push_str(&table.render());
    out.push_str(
        "\nreading: full sharding tracks the (1-p)^n model and crosses the 99%\n\
         SLA near 100 hosts; partial sharding holds a constant fan-out of 8, so\n\
         success and tail latency are flat in cluster size — the system scales\n\
         out by adding hosts without touching the SLA.\n",
    );
    out.push_str("\nCSV:\n");
    out.push_str(&table.to_csv());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partial_flat_full_decays() {
        let points = compute(Profile::Fast);
        let first = points.first().unwrap();
        let last = points.last().unwrap();
        // Full sharding decays with size and roughly tracks the model.
        assert!(last.full_success < first.full_success);
        assert!(
            (last.full_success - last.model_full).abs() < 0.02,
            "measured {} vs model {}",
            last.full_success,
            last.model_full
        );
        // At 192 hosts the SLA is breached (model: 0.9999^192 ≈ 0.981).
        assert!(last.full_success < SLA, "{}", last.full_success);
        // Partial sharding stays put.
        assert!(last.partial_success > 0.995, "{}", last.partial_success);
        assert!((last.partial_success - first.partial_success).abs() < 0.01);
        // Full-sharding tails grow with fan-out; partial's do not.
        assert!(last.full_p99_ms > first.full_p99_ms);
        assert!((last.partial_p99_ms / first.partial_p99_ms) < 1.5);
    }
}
