//! Replay-order regression tests.
//!
//! These pin the iteration-order hazards the determinism lint (rule D2)
//! exists to prevent. Before the `HashMap` → `BTreeMap` conversions, both
//! scenarios below could diverge between two runs of the same seed: every
//! `HashMap` instance hashes with its own per-instance key, so two stores
//! holding identical logical state could iterate — and therefore emit
//! events or sum floats — in different orders. With ordered maps the
//! sequences are pinned, and this test would have caught the divergence.

use scalewall::shard_manager::balancer::{propose_rebalance, BalanceProposal};
use scalewall::shard_manager::ids::{HostId, HostInfo, HostState, Rack, Region, ShardId};
use scalewall::shard_manager::placement::HostSnapshot;
use scalewall::shard_manager::spec::BalancerConfig;
use scalewall::sim::{SimRng, SimTime};
use scalewall::zk::{SessionId, ZkEnsemble, ZkOp, ZkReplicationConfig, ZkResp, ZkStore};

// ------------------------------------------------------------------ zk

fn t(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

/// Sessions 1..=4, opened at time zero, heartbeat once each in `order`
/// (indices into the ids), one second apart, through `op`. An expiry
/// pass at 11 s then finds every opening deadline due and re-arms each
/// session at its own heartbeat's, so the expiry deadline queue holds
/// the sessions in `order`.
fn heartbeat_in(order: &[usize], mut op: impl FnMut(ZkOp, SimTime) -> ZkResp) -> Vec<SessionId> {
    let sids: Vec<SessionId> = order
        .iter()
        .map(|_| match op(ZkOp::CreateSession, t(0)) {
            ZkResp::Session(sid) => sid,
            other => panic!("{other:?}"),
        })
        .collect();
    for (j, &i) in order.iter().enumerate() {
        let beat = op(ZkOp::RefreshSession { session: sids[i] }, t(1 + j as u64));
        assert_eq!(beat, ZkResp::Refreshed(true));
    }
    assert_eq!(op(ZkOp::ExpireSessions, t(11)), ZkResp::Sessions(vec![]));
    sids
}

/// The sessions an `ExpireSessions` at each of `times` returns.
fn expiries(times: &[u64], mut op: impl FnMut(ZkOp, SimTime) -> ZkResp) -> Vec<Vec<SessionId>> {
    let mut expire = |at| match op(ZkOp::ExpireSessions, t(at)) {
        ZkResp::Sessions(dead) => dead,
        other => panic!("{other:?}"),
    };
    times.iter().map(|&at| expire(at)).collect()
}

#[test]
fn zk_expiry_order_is_identical_across_equivalent_stores() {
    // Same logical state, different heartbeat interleavings, so the
    // deadline queue hands the candidates over in different orders: mass
    // expiry must report the same sessions in the same order in every
    // store.
    let orders: [&[usize]; 3] = [&[0, 1, 2, 3], &[3, 2, 1, 0], &[2, 0, 3, 1]];
    let mut streams = Vec::new();
    for order in orders {
        let mut zk = ZkStore::default();
        heartbeat_in(order, |op, at| zk.apply(&op, at));
        let expired = zk.expire_sessions(t(1_000));
        assert_eq!(expired.len(), 4);
        streams.push(expired);
    }
    assert_eq!(streams[0], streams[1]);
    assert_eq!(streams[0], streams[2]);
}

/// The golden order of one schedule: the sessions that beat at 1 s and
/// 2 s (ids 4 and 2, in that order on the queue) lapse first, then the
/// other two, each pass in ascending id order.
const ORDER: [usize; 4] = [3, 1, 2, 0];
const EXPIRY_TIMES: [u64; 2] = [13, 1_000];

fn pinned_expiries() -> Vec<Vec<SessionId>> {
    vec![vec![SessionId(2), SessionId(4)], vec![SessionId(1), SessionId(3)]]
}

#[test]
fn zk_mass_expiry_event_sequence_is_pinned() {
    // Sessions expire in session-id order whatever order the deadline
    // queue delivers them in. Any change here is a replay-contract
    // break — see crates/sim/src/rng.rs for the policy on re-deriving
    // goldens.
    let mut zk = ZkStore::default();
    heartbeat_in(&ORDER, |op, at| zk.apply(&op, at));
    assert_eq!(expiries(&EXPIRY_TIMES, |op, at| zk.apply(&op, at)), pinned_expiries());
}

#[test]
fn zk_replicated_expiry_shares_the_pinned_order() {
    // The replicated apply path shares the same order: the schedule
    // committed through an ensemble expires the identical sequence, and
    // every replica ends in the same state.
    let mut ens = ZkEnsemble::new(&ZkReplicationConfig::default());
    let mut op = |op, at| ens.submit_to(0, op, at).unwrap();
    heartbeat_in(&ORDER, &mut op);
    assert_eq!(expiries(&EXPIRY_TIMES, &mut op), pinned_expiries());
    for id in 1..ens.replica_count() {
        assert_eq!(ens.replica_digest(id), ens.replica_digest(0), "replica {id}");
    }
}

// ------------------------------------------------------------ balancer

fn snap(id: u64, capacity: f64, load: f64) -> HostSnapshot {
    HostSnapshot {
        info: HostInfo::new(HostId(id), Rack(0), Region(0), capacity),
        state: HostState::Alive,
        load,
    }
}

#[test]
fn balancer_proposals_are_invariant_under_input_permutation() {
    // A deliberately tie-heavy fleet: equal capacities, equal weights,
    // several equally-loaded donors/receivers. Candidate enumeration must
    // resolve ties by id, never by memory or hash layout.
    let mut rng = SimRng::new(0xB41A);
    let hosts: Vec<HostSnapshot> = (0..12)
        .map(|i| snap(i, 100.0, if i < 4 { 90.0 } else { 10.0 }))
        .collect();
    let mut locations: Vec<(ShardId, HostId, f64)> = (0..36)
        .map(|s| (ShardId(s), HostId(s % 4), 10.0))
        .collect();
    let config = BalancerConfig {
        max_migrations_per_run: 16,
        ..BalancerConfig::default()
    };

    let baseline: Vec<BalanceProposal> = propose_rebalance(&hosts, &locations, &config);
    assert!(!baseline.is_empty(), "scenario must actually rebalance");

    for _ in 0..8 {
        let mut shuffled_hosts = hosts.clone();
        rng.shuffle(&mut shuffled_hosts);
        rng.shuffle(&mut locations);
        let proposals = propose_rebalance(&shuffled_hosts, &locations, &config);
        assert_eq!(
            proposals, baseline,
            "proposals changed under input permutation"
        );
    }
}
