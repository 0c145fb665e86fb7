//! **Ablation: graceful shard migration (§IV-E)** — plain live migration
//! drops the old replica the instant the new mapping is published, so
//! clients behind SMC propagation delay error against the old server for
//! several seconds; the graceful protocol keeps the old server
//! *forwarding* through that window, making the migration invisible.
//!
//! The experiment migrates a loaded shard both ways under continuous
//! traffic (one query every 100 ms) and counts disrupted queries.

use cubrick::catalog::RowMapping;
use cubrick::proxy::{CubrickProxy, ProxyConfig};
use cubrick::query::Query;
use cubrick::sharding::ShardMapping;
use cubrick::value::{Row, Value};
use scalewall_cluster::deployment::{Deployment, DeploymentConfig, APP};
use scalewall_cluster::driver::{run_query, QueryOptions};
use scalewall_cluster::net::{NetModel, NetModelConfig};
use scalewall_cluster::report::{banner, TextTable};
use scalewall_cluster::workload::standard_schema;
use scalewall_shard_manager::migration::PROPAGATION_WAIT;
use scalewall_shard_manager::{MigrationCause, ShardId};
use scalewall_sim::{SimDuration, SimRng, SimTime};

use crate::Profile;

pub struct GracefulResult {
    pub graceful: bool,
    pub queries: u64,
    pub failed: u64,
    pub retried: u64,
    pub forwarded_window_secs: f64,
}

fn run_one(graceful: bool, queries_total: u64, seed: u64) -> GracefulResult {
    let mut dep = Deployment::new(DeploymentConfig {
        regions: 3,
        hosts_per_region: 10,
        max_shards: 10_000,
        seed,
        ..Default::default()
    });
    dep.create_table(
        "t",
        standard_schema(365),
        4,
        RowMapping::Hash,
        ShardMapping::Monotonic,
        SimTime::ZERO,
    )
    .expect("table");
    let mut rng = SimRng::new(seed);
    let rows: Vec<Row> = (0..2_000)
        .map(|i| {
            Row::new(
                vec![Value::Int(i % 365), Value::Str(format!("e{}", i % 50))],
                vec![1.0, 0.5],
            )
        })
        .collect();
    dep.ingest("t", &rows).expect("ingest");

    // No proxy retries: we want to observe raw disruption. (Production
    // masks it by retrying in another region; the ablation measures what
    // is being masked.)
    let mut proxy = CubrickProxy::new(ProxyConfig {
        max_retries: 0,
        ..Default::default()
    });
    let net = NetModel::new(NetModelConfig {
        server_failure_probability: 0.0, // isolate migration effects
        ..Default::default()
    });
    let query = Query::count_star("t");
    let opts = QueryOptions {
        execute_data: true,
        ..Default::default()
    };

    // Start the migration a quarter of the way in.
    let shard = dep.catalog.read().shards_of_table("t").unwrap()[0];
    let from = dep.regions[0].authoritative_host(shard).unwrap();
    let migration_at = SimTime::from_secs(3_600);
    let mut migration_started = false;

    let mut failed = 0u64;
    let mut retried = 0u64;
    let mut now = SimTime::from_secs(3_540);
    for q in 0..queries_total {
        if !migration_started && now >= migration_at {
            // Pick a target that owns no shard of "t" (avoids the veto).
            let target = dep.regions[0]
                .nodes
                .hosts()
                .find(|&h| h != from && dep.regions[0].sm.shards_on(APP, h).is_empty())
                .expect("free host exists");
            let region = &mut dep.regions[0];
            region
                .sm
                .begin_migration(
                    ShardId(shard),
                    target,
                    graceful,
                    MigrationCause::Manual,
                    now,
                    &mut region.nodes,
                )
                .expect("migration starts");
            migration_started = true;
        }
        dep.tick(now);
        let outcome = run_query(&mut dep, &mut proxy, &net, &query, &opts, now, &mut rng);
        if !outcome.success {
            failed += 1;
        } else if outcome.attempts > 1 {
            retried += 1;
        } else if let Some(output) = &outcome.output {
            assert_eq!(
                output.rows[0].aggs[0], 2_000.0,
                "results stay exact (q {q})"
            );
        }
        now += SimDuration::from_millis(100);
    }

    GracefulResult {
        graceful,
        queries: queries_total,
        failed,
        retried,
        forwarded_window_secs: PROPAGATION_WAIT.as_secs_f64(),
    }
}

pub fn compute(profile: Profile) -> Vec<GracefulResult> {
    let queries = profile.pick(3_000u64, 20_000u64);
    vec![
        run_one(false, queries, 0x6A1),
        run_one(true, queries, 0x6A1),
    ]
}

pub fn run(profile: Profile) -> String {
    let results = compute(profile);
    let mut table = TextTable::new(vec!["protocol", "queries", "failed", "failure_rate"]);
    for r in &results {
        table.row(vec![
            if r.graceful {
                "graceful".into()
            } else {
                "plain".to_string()
            },
            r.queries.to_string(),
            r.failed.to_string(),
            format!("{:.4}%", r.failed as f64 / r.queries as f64 * 100.0),
        ]);
    }
    let mut out = banner(
        "Ablation: graceful migration",
        "queries disrupted while migrating a live shard (no proxy retries)",
    );
    out.push_str(&table.render());
    out.push_str(&format!(
        "\nplain migration errors for roughly the SMC propagation window after\n\
         the old replica drops; graceful migration forwards through it (old\n\
         server keeps serving for the configured {}s drain wait) — zero failures.\n",
        results[1].forwarded_window_secs
    ));
    out.push_str("\nCSV:\n");
    out.push_str(&table.to_csv());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_disrupts_graceful_does_not() {
        let results = compute(Profile::Fast);
        let plain = &results[0];
        let graceful = &results[1];
        assert!(
            plain.failed > 0,
            "plain migration must show an error window"
        );
        assert_eq!(graceful.failed, 0, "graceful migration must be invisible");
        // The plain error window is bounded by SMC propagation (seconds,
        // not minutes): at 10 queries/sec, under ~1000 failures.
        assert!(plain.failed < 1_000, "{}", plain.failed);
    }
}
