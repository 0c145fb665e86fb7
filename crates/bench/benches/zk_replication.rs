//! Replicated-coordination-plane micro-benchmarks: what a mutating
//! coordination op costs once every ack implies majority replication,
//! and how long a lease-driven failover takes to reach its first commit.
//!
//! * `proposal_commit_{3,5}node` — steady-state commit latency of one
//!   `RefreshSession` proposal through `ZkEnsemble::submit_to` (apply
//!   on the leader and every reachable follower). The 3-vs-5 pair
//!   prices the ensemble-size knob directly. The JSON's oldest prefixed
//!   history rows were recorded when it committed a znode `SetData`,
//!   its `c613fec:` rows when every replica still kept a 1,024-entry
//!   log.
//! * `heartbeat_round_24_sessions_3node` — one region tick's worth of
//!   liveness: 24 sessions refreshed through `CoordinationPlane` (one
//!   `RefreshSessions` commit; it was 24 `RefreshSession` commits
//!   before PR 15, which is what the `parent:` entry measures).
//! * `region_tick_4_sessions_default_plane` — one region tick of the
//!   plane a deployment without replication runs (what
//!   `SmServer::new(SmConfig::default(), …)` builds, a one-replica
//!   ensemble no fault reaches; the `dd31b03:` row is the single
//!   in-process store that plane replaced): a 4-session heartbeat
//!   commit, the lease tick and the expiry check. `qos_overload` ticks
//!   every region before every event, so this is the per-tick price its
//!   throughput sees.
//! * `client_submit_via_redirect` — the same commit submitted through
//!   `ZkClient` with a deliberately stale leader hint, measuring the
//!   `NotLeader`-redirect discovery path the shard manager rides after
//!   every failover.
//! * `failover_to_first_commit` — wall clock from leader crash to the
//!   first post-election committed op (election + `TouchSessions` +
//!   catchup + the session's one `SessionMoved` handshake + commit),
//!   recorded via `push_record` over many cycles.
//!
//! Regenerate the trajectory from the repo root with (the bench binary's
//! cwd is `crates/bench`, hence the absolute path):
//! `cargo bench -p scalewall-bench --bench zk_replication -- --bench --json "$PWD/BENCH_zk_replication.json"`

use scalewall_bench::microbench::{Bench, Record};
use scalewall_shard_manager::{AppSpec, SmConfig, SmServer};
use scalewall_sim::{SimDuration, SimTime};
use scalewall_zk::{CoordinationPlane, SessionId, ZkClient, ZkEnsemble, ZkOp, ZkReplicationConfig};
use std::sync::Arc;
use std::time::Instant;

/// Sessions `prepped` opens; the commits cycle through them.
const SESSIONS: u64 = 8;

fn refresh(i: u64) -> ZkOp {
    ZkOp::RefreshSession {
        session: SessionId(1 + i % SESSIONS),
    }
}

/// An ensemble with a few sessions registered, so commits run against
/// non-trivial store state.
fn prepped(replicas: u32) -> ZkEnsemble {
    let cfg = ZkReplicationConfig {
        replicas,
        ..ZkReplicationConfig::default()
    };
    let mut ens = ZkEnsemble::new(&cfg);
    for _ in 0..SESSIONS {
        ens.submit_to(0, ZkOp::CreateSession, SimTime::from_secs(1))
            .expect("seed session");
    }
    ens
}

fn bench_proposal_commit(c: &mut Bench, replicas: u32) {
    let mut ens = prepped(replicas);
    let mut group = c.group("zk_replication");
    group.sample_size(20);
    group.throughput(1);
    let mut i = 0u64;
    group.bench_function(&format!("proposal_commit_{replicas}node"), |b| {
        b.iter(|| {
            i += 1;
            ens.submit_to(
                ens.leader().expect("healthy ensemble"),
                refresh(i),
                SimTime::from_secs(2) + SimDuration::from_nanos(i),
            )
            .expect("commit")
        })
    });
}

fn bench_heartbeat_round(c: &mut Bench) {
    let mut plane = CoordinationPlane::new(&ZkReplicationConfig::default());
    let sessions: Arc<[SessionId]> = (0..24)
        .map(|_| {
            plane
                .create_session(SimTime::from_secs(1))
                .expect("healthy ensemble")
        })
        .collect();
    let mut group = c.group("zk_replication");
    group.sample_size(20);
    group.throughput(24);
    let mut i = 0u64;
    group.bench_function("heartbeat_round_24_sessions_3node", |b| {
        b.iter(|| {
            i += 1;
            plane.refresh_sessions(
                sessions.clone(),
                SimTime::from_secs(2) + SimDuration::from_nanos(i),
            )
        })
    });
}

/// One region tick of the plane `SmServer::new(SmConfig::default(), …)`
/// builds, as `Deployment::tick` drives it: one heartbeat commit for 4
/// sessions, the lease tick, the expiry check.
fn bench_region_tick_default_plane(c: &mut Bench) {
    let mut sm = SmServer::new(SmConfig::default(), AppSpec::primary_only("bench", 16));
    let plane = sm.coordination_mut();
    let sessions: Arc<[SessionId]> = (0..4)
        .map(|_| {
            plane
                .create_session(SimTime::from_secs(1))
                .expect("healthy plane")
        })
        .collect();
    let mut group = c.group("zk_replication");
    group.sample_size(20);
    group.throughput(1);
    let mut i = 0u64;
    group.bench_function("region_tick_4_sessions_default_plane", |b| {
        b.iter(|| {
            i += 1;
            let now = SimTime::from_secs(2) + SimDuration::from_nanos(i);
            plane.refresh_sessions(sessions.clone(), now);
            plane.tick(now);
            plane.expire_sessions(now)
        })
    });
}

fn bench_client_redirect(c: &mut Bench) {
    let cfg = ZkReplicationConfig::default();
    let mut ens = prepped(cfg.replicas);
    let mut client = ZkClient::default();
    let mut group = c.group("zk_replication");
    group.sample_size(20);
    group.throughput(1);
    let mut i = 0u64;
    let n = ens.replica_count();
    group.bench_function("client_submit_via_redirect", |b| {
        b.iter(|| {
            i += 1;
            // Poison the hint each iteration so every submit pays one
            // NotLeader redirect before committing.
            client.set_hint((ens.leader().unwrap() + 1) % n);
            client
                .submit(
                    &mut ens,
                    refresh(i),
                    SimTime::from_secs(2) + SimDuration::from_nanos(i),
                )
                .expect("commit after redirect")
        })
    });
}

/// Crash-elect-commit cycles timed as one wall-clock shot: the cost of
/// automatic failover itself, not of the lease wait (sim time is free).
fn bench_failover_to_first_commit(c: &mut Bench) {
    let cycles: u64 = if c.timing() { 2_000 } else { 50 };
    let cfg = ZkReplicationConfig::default();
    let mut ens = prepped(cfg.replicas);
    let mut client = ZkClient::default();
    let lease_step = SimDuration::from_secs(30);
    let mut now = SimTime::from_secs(10);
    let t0 = Instant::now();
    for i in 0..cycles {
        let old = ens.leader().expect("leader before cycle");
        ens.crash_replica(old);
        now += lease_step;
        let new = ens.tick(now).expect("deterministic election");
        client.set_hint(new);
        client
            .submit(&mut ens, refresh(i), now)
            .expect("first post-failover commit");
        ens.restore_replica(old);
        now += lease_step;
        ens.tick(now); // catchup for the repaired replica
    }
    let elapsed_ns = t0.elapsed().as_nanos() as f64;
    c.push_record(Record {
        name: "zk_replication/failover_to_first_commit".to_string(),
        mode: if c.timing() { "timed" } else { "smoke" }.to_string(),
        median_ns: elapsed_ns / cycles as f64,
        min_ns: elapsed_ns / cycles as f64,
        rate_per_sec: Some(cycles as f64 / (elapsed_ns * 1e-9)),
        samples: 1,
        iters_per_sample: cycles,
    });
}

fn main() {
    let mut bench = Bench::from_args();
    bench_proposal_commit(&mut bench, 3);
    bench_proposal_commit(&mut bench, 5);
    bench_heartbeat_round(&mut bench);
    bench_region_tick_default_plane(&mut bench);
    bench_client_redirect(&mut bench);
    bench_failover_to_first_commit(&mut bench);
    bench.finish();
}
