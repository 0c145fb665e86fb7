//! Bit-level goldens for the stale-discovery window of a shard migration,
//! captured on the commit before the per-table route cache (PR 16) and
//! pinned here. One shard of a four-partition table moves at `t`; the
//! same `count(*)` runs against region 0 every 250 ms from `t − 5 s` to
//! `t + 60 s`, plus one query a nanosecond before and one exactly at the
//! instant each mapping update published along the way becomes visible
//! to region 0's proxy. Per query the pin covers success, the error,
//! the attempt count, the latency bits and which host served the moved
//! shard. A route that goes stale a nanosecond too early or too late, or
//! a changed RNG draw order, moves a digest.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::Arc;

use scalewall::cluster::deployment::{Deployment, DeploymentConfig, APP};
use scalewall::cluster::driver::{run_query, QueryOptions};
use scalewall::cluster::net::{NetModel, NetModelConfig};
use scalewall::cubrick::catalog::RowMapping;
use scalewall::cubrick::error::CubrickError;
use scalewall::cubrick::proxy::{CubrickProxy, ProxyConfig};
use scalewall::cubrick::query::parse_query;
use scalewall::cubrick::schema::SchemaBuilder;
use scalewall::cubrick::sharding::ShardMapping;
use scalewall::cubrick::value::{Row, Value};
use scalewall::shard_manager::{HostId, MigrationCause, ShardId};
use scalewall::sim::hash::{fnv1a, FNV_OFFSET};
use scalewall::sim::{SimDuration, SimRng, SimTime};

const ROWS: i64 = 800;
const MIGRATE_AT: SimTime = SimTime::from_secs(3_600);

fn build(seed: u64) -> Deployment {
    let mut dep = Deployment::new(DeploymentConfig {
        regions: 3,
        hosts_per_region: 8,
        max_shards: 10_000,
        seed,
        ..Default::default()
    });
    let schema = Arc::new(
        SchemaBuilder::new()
            .int_dim("k", 0, 1_000, 50)
            .metric("v")
            .build()
            .unwrap(),
    );
    dep.create_table(
        "t",
        schema,
        4,
        RowMapping::Hash,
        ShardMapping::Monotonic,
        SimTime::ZERO,
    )
    .unwrap();
    let rows: Vec<Row> = (0..ROWS)
        .map(|k| Row::new(vec![Value::Int(k)], vec![k as f64]))
        .collect();
    dep.ingest("t", &rows).unwrap();
    dep
}

/// What one query of the timeline looked like from outside.
#[derive(Debug, Clone, PartialEq)]
struct Observed {
    at: SimTime,
    success: bool,
    error: Option<CubrickError>,
    attempts: u32,
    latency: SimDuration,
    /// Region-0 host whose scan counter moved for the migrating shard:
    /// the old owner, the new owner, or neither (the attempt died before
    /// a scan, or another region answered).
    served: Option<HostId>,
}

struct Timeline {
    from: HostId,
    to: HostId,
    /// `visible_at` to region 0's proxy of every update the migration
    /// published for the moved shard, publish order.
    visible: Vec<SimTime>,
    queries: Vec<Observed>,
}

fn timeline(graceful: bool, proxy_config: ProxyConfig) -> Timeline {
    let mut dep = build(if graceful { 0x61 } else { 0x70 });
    let mut proxy = CubrickProxy::new(proxy_config);
    let net = NetModel::new(NetModelConfig {
        server_failure_probability: 0.0,
        ..Default::default()
    });
    let mut rng = SimRng::new(0xC0DE);
    let query = parse_query("select count(*) from t").unwrap();

    let shard = dep.catalog.read().shards_of_table("t").unwrap()[1];
    let from = dep.regions[0].authoritative_host(shard).unwrap();
    assert_eq!(dep.regions[0].sm.shards_on(APP, from).len(), 1);
    let to = dep.regions[0]
        .nodes
        .hosts()
        .find(|&h| h != from && dep.regions[0].sm.shards_on(APP, h).is_empty())
        .unwrap();

    let start = MIGRATE_AT.as_nanos() - SimDuration::from_secs(5).as_nanos();
    let step = SimDuration::from_millis(250).as_nanos();
    let mut pending: BTreeSet<u64> = (0..=260).map(|i| start + i * step).collect();
    let mut last_seq = dep.regions[0].sm.mappings().latest(shard).unwrap().seq;
    let mut migrating = false;
    let mut visible = Vec::new();
    let mut queries = Vec::new();

    while let Some(at) = pending.pop_first() {
        let now = SimTime::from_nanos(at);
        if !migrating && now >= MIGRATE_AT {
            migrating = true;
            let region = &mut dep.regions[0];
            region
                .sm
                .begin_migration(
                    ShardId(shard),
                    to,
                    graceful,
                    MigrationCause::Manual,
                    now,
                    &mut region.nodes,
                )
                .unwrap();
        }
        dep.tick(now);
        // Every update the tick published gets a probe pair around the
        // instant region 0's proxy learns of it.
        let latest = dep.regions[0].sm.mappings().latest(shard).unwrap();
        if latest.seq != last_seq {
            last_seq = latest.seq;
            let v = dep.regions[0].discovery.visible_at(&latest);
            assert!(v > now, "propagation takes time");
            visible.push(v);
            pending.insert(v.as_nanos() - 1);
            pending.insert(v.as_nanos());
        }

        let served_before = |dep: &Deployment, h: HostId| {
            dep.regions[0].nodes.node(h).map_or(0, |n| n.queries_served)
        };
        let (from_before, to_before) = (served_before(&dep, from), served_before(&dep, to));
        let opts = QueryOptions::default();
        let outcome = run_query(&mut dep, &mut proxy, &net, &query, &opts, now, &mut rng);
        let served = if served_before(&dep, to) > to_before {
            Some(to)
        } else if served_before(&dep, from) > from_before {
            Some(from)
        } else {
            None
        };
        if let Some(out) = &outcome.output {
            assert_eq!(out.scalar(), Some(ROWS as f64), "exact or nothing");
        }
        queries.push(Observed {
            at: now,
            success: outcome.success,
            error: outcome.error,
            attempts: outcome.attempts,
            latency: outcome.latency,
            served,
        });
    }
    Timeline {
        from,
        to,
        visible,
        queries,
    }
}

/// `(queries, failures, retried, served by the new owner, digest)`.
type Golden = (usize, usize, usize, usize, u64);

fn summarize(t: &Timeline) -> (Golden, String) {
    let mut text = String::new();
    for q in &t.queries {
        writeln!(
            text,
            "{} {} {:?} {} {:016x} {:?}",
            q.at.as_nanos(),
            q.success,
            q.error,
            q.attempts,
            q.latency.as_nanos(),
            q.served
        )
        .unwrap();
    }
    let golden = (
        t.queries.len(),
        t.queries.iter().filter(|q| !q.success).count(),
        t.queries.iter().filter(|q| q.attempts > 1).count(),
        t.queries.iter().filter(|q| q.served == Some(t.to)).count(),
        fnv1a(FNV_OFFSET, text.as_bytes()),
    );
    (golden, text)
}

fn check(name: &str, t: &Timeline, want: Golden) {
    let (got, text) = summarize(t);
    if got != want {
        let (n, f, r, s, d) = got;
        panic!("{name}: timeline moved; observed ({n}, {f}, {r}, {s}, 0x{d:016x}):\n{text}");
    }
}

/// No retries and no blacklisting: every disruption is visible as the
/// error the first attempt met.
fn bare_proxy() -> ProxyConfig {
    ProxyConfig {
        max_retries: 0,
        blacklist_threshold: u32::MAX,
        ..Default::default()
    }
}

fn at(t: &Timeline, when: SimTime) -> &Observed {
    t.queries
        .iter()
        .find(|q| q.at == when)
        .expect("probe ran at that instant")
}

#[test]
fn regression_route_window_plain_bare() {
    let t = timeline(false, bare_proxy());
    // The new owner's publish is the last one; the route flips to it at
    // exactly its visibility instant and not a nanosecond earlier.
    let v = *t.visible.last().unwrap();
    let before = at(&t, SimTime::from_nanos(v.as_nanos() - 1));
    assert!(!before.success, "{before:?}");
    assert!(matches!(
        before.error,
        Some(CubrickError::ShardNotOwned { partition: 1, .. })
    ));
    let after = at(&t, v);
    assert!(after.success, "{after:?}");
    assert_eq!(after.served, Some(t.to));
    for q in &t.queries {
        if q.at >= v {
            assert_eq!((q.success, q.served), (true, Some(t.to)), "{q:?}");
        } else {
            assert_ne!(q.served, Some(t.to), "{q:?}");
        }
    }
    check("plain_bare", &t, PLAIN_BARE);
}

#[test]
fn regression_route_window_plain_default_proxy() {
    let t = timeline(false, ProxyConfig::default());
    assert!(
        t.queries.iter().all(|q| q.success),
        "retries mask the window"
    );
    let v = *t.visible.last().unwrap();
    for q in &t.queries {
        // Region 0 serves the moved shard again from `v` on, first try.
        assert_eq!(q.served == Some(t.to), q.at >= v, "{q:?}");
        if q.at >= v {
            assert_eq!(q.attempts, 1, "{q:?}");
        }
    }
    check("plain_default", &t, PLAIN_DEFAULT);
}

#[test]
fn regression_route_window_graceful_bare() {
    let t = timeline(true, bare_proxy());
    assert!(
        t.queries.iter().all(|q| q.success),
        "graceful never disrupts"
    );
    // The old owner keeps serving through the propagation wait; region
    // 0's proxy switches to the new one at the visibility instant.
    let v = *t.visible.last().unwrap();
    for q in &t.queries {
        let owner = if q.at >= v { t.to } else { t.from };
        assert_eq!(q.served, Some(owner), "{q:?}");
    }
    check("graceful_bare", &t, GRACEFUL_BARE);
}

const PLAIN_BARE: Golden = (263, 33, 0, 208, 0x5c4b5850a48d1323);
const PLAIN_DEFAULT: Golden = (263, 0, 33, 208, 0x5df3dbf8e0cf9aa1);
const GRACEFUL_BARE: Golden = (263, 0, 0, 208, 0x926d5508bcb7aa15);
