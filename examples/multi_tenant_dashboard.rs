//! Multi-tenant dashboard serving — the workload the paper's partial
//! sharding targets: many small/medium tenant tables on a shared
//! three-region cluster, interactive queries through the proxy, and a
//! host failure handled transparently by failover + cross-region retry.
//!
//! Run: `cargo run --release --example multi_tenant_dashboard`

use scalewall::cluster::deployment::{Deployment, DeploymentConfig};
use scalewall::cluster::driver::{run_query, QueryOptions};
use scalewall::cluster::net::{NetModel, NetModelConfig};
use scalewall::cluster::workload::{gen_query, gen_rows, TablePopulation, WorkloadConfig};
use scalewall::cubrick::catalog::RowMapping;
use scalewall::cubrick::proxy::{CubrickProxy, ProxyConfig};
use scalewall::cubrick::sharding::ShardMapping;
use scalewall::shard_manager::Region;
use scalewall::sim::{Histogram, SimDuration, SimRng, SimTime};

fn main() {
    let mut rng = SimRng::new(2026);

    // A 3-region cluster, 12 hosts per region.
    let mut dep = Deployment::new(DeploymentConfig {
        regions: 3,
        hosts_per_region: 12,
        max_shards: 100_000,
        ..Default::default()
    });

    // Onboard 8 tenants; each table is partially sharded (8 partitions),
    // so query fan-out stays 8 no matter how many hosts join later.
    let population = TablePopulation::generate(
        &WorkloadConfig {
            tables: 8,
            ..Default::default()
        },
        &mut rng,
    );
    for spec in &population.tables {
        dep.create_table(
            &spec.name,
            spec.schema.clone(),
            8,
            RowMapping::Hash,
            ShardMapping::Monotonic,
            SimTime::ZERO,
        )
        .expect("tenant onboarding");
        let rows = gen_rows(spec, 3_000, 365, &mut rng);
        dep.ingest(&spec.name, &rows).expect("backfill");
    }
    println!("onboarded {} tenants on {} hosts x 3 regions\n", 8, 12);

    // Serve dashboard traffic.
    let mut proxy = CubrickProxy::new(ProxyConfig::default());
    let net = NetModel::new(NetModelConfig::default());
    let mut latency = Histogram::latency_ms();
    let mut now = SimTime::from_secs(3_600);
    let mut ok = 0u64;
    for i in 0..500u64 {
        // Inject a failure mid-run: kill a host in region 0 at query 250.
        if i == 250 {
            let victim = dep.regions[0].nodes.hosts().next().expect("hosts exist");
            println!("!! killing {victim} in region 0 (queries keep succeeding)");
            dep.fail_host(0, victim, now);
        }
        dep.tick(now);
        let spec = population.pick_table(&mut rng).clone();
        let query = gen_query(&spec, 365, &mut rng);
        let outcome = run_query(
            &mut dep,
            &mut proxy,
            &net,
            &query,
            &QueryOptions {
                client_region: Region((i % 3) as u32),
                ..Default::default()
            },
            now,
            &mut rng,
        );
        if outcome.success {
            ok += 1;
            latency.record_duration(outcome.latency);
            if i % 100 == 0 {
                let out = outcome.output.expect("data mode");
                println!(
                    "q{i:03} {} → {} groups, {} rows scanned, {:.1} ms, {} attempt(s)",
                    spec.name,
                    out.rows.len(),
                    out.rows_scanned,
                    outcome.latency.as_millis_f64(),
                    outcome.attempts,
                );
            }
        } else {
            println!("q{i:03} FAILED: {:?}", outcome.error);
        }
        now += SimDuration::from_millis(500);
    }

    // A dashboard staple: top-5 days by clicks for the busiest tenant.
    let top = scalewall::cubrick::query::parse_query(&format!(
        "select sum(clicks), count(*) from {} group by ds order by sum(clicks) desc limit 5",
        population.tables[0].name
    ))
    .expect("valid query");
    let outcome = run_query(
        &mut dep,
        &mut proxy,
        &net,
        &top,
        &QueryOptions::default(),
        now,
        &mut rng,
    );
    if let Some(out) = outcome.output {
        println!(
            "
top 5 days by clicks for {}:",
            population.tables[0].name
        );
        for row in &out.rows {
            println!(
                "  ds={:<4} clicks={:<8} rows={}",
                row.key[0], row.aggs[0], row.aggs[1]
            );
        }
    }

    let s = latency.summary();
    println!(
        "\nserved {ok}/500 queries | latency p50={:.1}ms p99={:.1}ms max={:.1}ms",
        s.p50, s.p99, s.max
    );
    println!(
        "proxy stats: {} retries in another region, partition cache hits {}",
        proxy.stats.retries, proxy.stats.cache_hits
    );
    println!(
        "region-0 migrations after the failure (failovers): {}",
        dep.regions[0].sm.migration_history().len()
    );
}
