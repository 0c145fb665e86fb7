//! Replicated coordination plane: linearizability vs a single-store
//! oracle (ISSUE 8 tentpole acceptance).
//!
//! The ensemble's commit rule is synchronous — an op is acknowledged iff
//! it was applied, through the shared `ZkStore::apply` path, on the
//! leader and every reachable follower while the leader held a strict
//! majority. Under that rule the acked-op history *is* a serial history,
//! so the linearizability check collapses to an equality check: mirror
//! every acked op (and every election-time `TouchSessions`) into one
//! plain `ZkStore` at the same sim-time, and both the per-op responses
//! and the final `state_digest` must match exactly — across every up
//! replica, under arbitrary crash/partition/repair schedules.
//!
//! Targeted tests pin the individual failover behaviours the property
//! exercises in bulk: no acked write lost across a leader crash,
//! minority/majority partitions, catch-up of a repaired follower by
//! copying the leader's store, and `SessionMoved` fencing.

use std::collections::BTreeMap;
use std::sync::Arc;

use scalewall::shard_manager::{AppSpec, SmConfig, SmServer};
use scalewall::sim::prop::{self, gen};
use scalewall::sim::{SimDuration, SimRng, SimTime};
use scalewall::zk::{
    SessionId, ZkClient, ZkEnsemble, ZkError, ZkOp, ZkReplicationConfig, ZkResp, ZkResult,
    ZkStore, SESSION_TIMEOUT,
};

fn t(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

// --------------------------------------------------------------- property

/// One step of a replication schedule: advance time, maybe flip a fault,
/// then submit one op through the client.
#[derive(Debug)]
struct Step {
    advance_ms: u64,
    fault: Option<Fault>,
    op: OpKind,
}

#[derive(Debug, Clone, Copy)]
enum Fault {
    Crash(u32),
    Restore(u32),
    Cut(u32, u32),
    Heal(u32, u32),
}

/// Op templates; concrete sessions are resolved against the run's live
/// state so ops hit a mix of live, closed, expired and bogus sessions.
#[derive(Debug, Clone, Copy)]
enum OpKind {
    NewSession,
    Refresh,
    RefreshBatch,
    CloseSession,
    Expire,
}

/// Apply a committed op to the single-store oracle. A batched refresh is
/// mirrored as the single refreshes it stands for, so the oracle never
/// runs the batch code it is checking.
fn mirror(oracle: &mut ZkStore, op: &ZkOp, now: SimTime) -> ZkResult<ZkResp> {
    let ZkOp::RefreshSessions { sessions } = op else {
        return Ok(oracle.apply(op, now));
    };
    let mut gone = Vec::new();
    for &session in sessions.iter() {
        if oracle.apply(&ZkOp::RefreshSession { session }, now) != ZkResp::Refreshed(true) {
            gone.push(session);
        }
    }
    Ok(ZkResp::Sessions(gone))
}

fn gen_step(rng: &mut SimRng) -> Step {
    let fault = if rng.below(100) < 18 {
        Some(match rng.below(4) {
            0 => Fault::Crash(rng.below(3) as u32),
            1 => Fault::Restore(rng.below(3) as u32),
            2 => {
                let pairs = [(0, 1), (0, 2), (1, 2)];
                let &(a, b) = rng.pick(&pairs);
                Fault::Cut(a, b)
            }
            _ => {
                let pairs = [(0, 1), (0, 2), (1, 2)];
                let &(a, b) = rng.pick(&pairs);
                Fault::Heal(a, b)
            }
        })
    } else {
        None
    };
    let op = *rng.pick(&[
        OpKind::NewSession,
        OpKind::NewSession,
        OpKind::Refresh,
        OpKind::Refresh,
        OpKind::RefreshBatch,
        OpKind::RefreshBatch,
        OpKind::CloseSession,
        OpKind::Expire,
    ]);
    Step {
        advance_ms: rng.range(50, 4_000),
        fault,
        op,
    }
}

/// Run one schedule against ensemble + oracle; panics on any divergence.
fn run_schedule(steps: &[Step]) {
    let mut ens = ZkEnsemble::new(&ZkReplicationConfig::default());
    let mut client = ZkClient::default();
    let mut oracle = ZkStore::new();
    // Deterministic session *selection* stream — separate from the
    // schedule generator so a shrunk schedule replays identically.
    let mut sel = SimRng::new(0x0f_ace).fork(0x51);

    let mut now_ms = 0u64;
    let mut sessions: Vec<SessionId> = Vec::new();

    for step in steps {
        now_ms += step.advance_ms;
        let now = SimTime::ZERO + SimDuration::from_millis(now_ms);
        if let Some(fault) = step.fault {
            match fault {
                Fault::Crash(id) => ens.crash_replica(id),
                Fault::Restore(id) => ens.restore_replica(id),
                Fault::Cut(a, b) => ens.cut_regions(a, b),
                Fault::Heal(a, b) => ens.heal_regions(a, b),
            }
        }
        if ens.tick(now).is_some() {
            // The new leader committed `TouchSessions` at `now`; mirror
            // it so the oracle's expiry outcomes stay aligned.
            let _ = oracle.apply(&ZkOp::TouchSessions, now);
        }
        let session = |sel: &mut SimRng, sessions: &[SessionId]| {
            if sessions.is_empty() || sel.below(8) == 0 {
                SessionId(sel.below(64)) // sometimes bogus on purpose
            } else {
                *sel.pick(sessions)
            }
        };
        let op = match step.op {
            OpKind::NewSession => ZkOp::CreateSession,
            OpKind::Refresh => ZkOp::RefreshSession {
                session: session(&mut sel, &sessions),
            },
            OpKind::RefreshBatch => ZkOp::RefreshSessions {
                sessions: (0..sel.range(1, 6))
                    .map(|_| session(&mut sel, &sessions))
                    .collect(),
            },
            OpKind::CloseSession => ZkOp::CloseSession {
                session: session(&mut sel, &sessions),
            },
            OpKind::Expire => ZkOp::ExpireSessions,
        };
        match client.submit(&mut ens, op.clone(), now) {
            // Not committed: the plane was leaderless/minority for the
            // whole retry budget, or the session was fenced right at the
            // budget edge. Nothing to mirror.
            Err(ZkError::NotLeader { .. }) | Err(ZkError::SessionMoved { .. }) => {}
            // Committed: the oracle must agree exactly.
            outcome => {
                let mirrored = mirror(&mut oracle, &op, now);
                assert_eq!(
                    outcome, mirrored,
                    "acked response diverged from oracle for {op:?} at {now_ms}ms"
                );
                // Every replica at the commit index holds the oracle's
                // state — and, for the sessions this op spoke for, the
                // oracle's heartbeat (the digest leaves heartbeats out).
                let still_alive_at = now + SESSION_TIMEOUT;
                let committed = ens.replica_applied(ens.leader().expect("acked"));
                for id in (0..3).filter(|&id| ens.replica_applied(id) == committed) {
                    assert_eq!(
                        ens.replica_digest(id),
                        oracle.state_digest(),
                        "replica {id} diverged at commit index {committed} after {op:?}"
                    );
                    let store = ens.replica_store(id).expect("member");
                    for &sid in op.sessions() {
                        assert_eq!(
                            store.session_alive(sid, still_alive_at),
                            oracle.session_alive(sid, still_alive_at),
                            "replica {id} disagrees on {sid}'s heartbeat after {op:?}"
                        );
                    }
                }
                if let Ok(ZkResp::Session(sid)) = &outcome {
                    sessions.push(*sid);
                }
                if let Ok(ZkResp::Sessions(dead)) = &outcome {
                    sessions.retain(|s| !dead.contains(s));
                }
                if let (ZkOp::CloseSession { session }, Ok(_)) = (&op, &outcome) {
                    sessions.retain(|s| s != session);
                }
            }
        }
    }

    // Quiesce: repair everything and let anti-entropy converge the
    // ensemble, mirroring any final election's TouchSessions.
    for id in 0..3 {
        ens.restore_replica(id);
    }
    for (a, b) in [(0, 1), (0, 2), (1, 2)] {
        ens.heal_regions(a, b);
    }
    let end = SimTime::ZERO + SimDuration::from_millis(now_ms) + SimDuration::from_secs(30);
    if ens.tick(end).is_some() {
        let _ = oracle.apply(&ZkOp::TouchSessions, end);
    }
    assert!(ens.leader().is_some(), "fully-healed ensemble must have a leader");
    let want = oracle.state_digest();
    for id in 0..3 {
        assert_eq!(
            ens.replica_digest(id),
            want,
            "replica {id} diverged from the single-store oracle after quiescence"
        );
    }
}

#[test]
fn prop_replicated_plane_matches_single_store_oracle() {
    prop::check_n(
        "zk_replication_oracle",
        48,
        |rng| gen::vec_with(rng, 10, 60, gen_step),
        |steps| run_schedule(steps),
    );
}

// ------------------------------------------------- the unreplicated plane

/// One step against the plane a deployment without replication runs:
/// advance time and tick, then one session op or one fault hook.
#[derive(Debug, Clone, Copy)]
struct PlaneStep {
    advance_ms: u64,
    op: PlaneOp,
}

/// Session ops name the `k`-th session opened so far (modulo), or a
/// bogus id before any; fault hooks name any region, `u32::MAX`
/// included.
#[derive(Debug, Clone, Copy)]
enum PlaneOp {
    Create,
    Refresh(u8),
    /// Refresh the kept heartbeat list in one commit, as SM's heartbeat
    /// round does: the same `Arc` from round to round.
    RefreshBatch,
    /// Rebuild the heartbeat list from every session opened so far,
    /// closed and expired ones included.
    Relist,
    Close(u8),
    Expire,
    Crash(u32),
    Restore(u32),
    Cut(u32, u32),
    Heal(u32, u32),
}

fn gen_region(rng: &mut SimRng) -> u32 {
    if rng.below(8) == 0 {
        u32::MAX
    } else {
        rng.below(6) as u32
    }
}

fn gen_plane_step(rng: &mut SimRng) -> PlaneStep {
    let k = gen::any_u8(rng);
    let op = match rng.below(12) {
        0 | 1 => PlaneOp::Create,
        2 => PlaneOp::Refresh(k),
        3 | 4 => PlaneOp::RefreshBatch,
        5 => PlaneOp::Relist,
        6 => PlaneOp::Close(k),
        7 => PlaneOp::Expire,
        8 => PlaneOp::Crash(gen_region(rng)),
        9 => PlaneOp::Restore(gen_region(rng)),
        10 => PlaneOp::Cut(gen_region(rng), gen_region(rng)),
        _ => PlaneOp::Heal(gen_region(rng), gen_region(rng)),
    };
    PlaneStep {
        advance_ms: rng.range(0, 8_000),
        op,
    }
}

/// The `k`-th session opened so far (modulo), or a bogus id before any.
fn pick_session(opened: &[SessionId], k: u8) -> SessionId {
    let n = opened.len().max(1);
    opened
        .get(usize::from(k) % n)
        .copied()
        .unwrap_or(SessionId(u64::from(k)))
}

/// Drive the plane `SmServer::new(SmConfig::default(), …)` builds and a
/// bare `ZkStore` with the same steps; panics on any divergence.
fn run_default_plane_against_store(steps: &[PlaneStep]) {
    let mut sm = SmServer::new(SmConfig::default(), AppSpec::primary_only("zk", 16));
    let plane = sm.coordination_mut();
    let mut store = ZkStore::new();
    let mut opened: Vec<SessionId> = Vec::new();
    let mut batch: Arc<[SessionId]> = Arc::from([]);
    let mut now = SimTime::ZERO;
    for (i, step) in steps.iter().enumerate() {
        now += SimDuration::from_millis(step.advance_ms);
        assert_eq!(plane.tick(now), None, "step {i}: no election, ever");
        let pick = |k: u8| pick_session(&opened, k);
        match step.op {
            PlaneOp::Create => {
                let sid = plane.create_session(now);
                assert_eq!(sid, Ok(store.create_session(now)), "step {i}");
                opened.extend(sid);
            }
            PlaneOp::Refresh(k) => {
                let s = pick(k);
                let want = store.refresh_session(s, now);
                assert_eq!(plane.refresh_session(s, now), want, "step {i}");
            }
            PlaneOp::RefreshBatch => {
                plane.refresh_sessions(Arc::clone(&batch), now);
                store.refresh_sessions(&batch, now);
            }
            PlaneOp::Relist => batch = opened.iter().copied().collect(),
            PlaneOp::Close(k) => {
                let s = pick(k);
                plane.close_session(s, now);
                store.close_session(s);
            }
            PlaneOp::Expire => {
                let want = store.expire_sessions(now);
                assert_eq!(plane.expire_sessions(now), want, "step {i}");
            }
            PlaneOp::Crash(r) => plane.crash_home(r),
            PlaneOp::Restore(r) => plane.restore_home(r),
            PlaneOp::Cut(a, b) => plane.cut_regions(a, b),
            PlaneOp::Heal(a, b) => plane.heal_regions(a, b),
        }
        assert_eq!(
            plane.ensemble().replica_digest(0),
            store.state_digest(),
            "state diverged at step {i}: {step:?}"
        );
    }
    assert_eq!(plane.failovers(), 0);
    assert_eq!(plane.session_moves(), 0);
    assert_eq!(plane.leader(), Some(0));
    assert_eq!(plane.epoch(), 1);
}

/// A deployment without replication runs a one-replica ensemble homed in
/// no region: no fault hook reaches it, so it answers every session op
/// as a bare store does and never elects, fences or fails over.
#[test]
fn prop_default_plane_behaves_as_the_store() {
    prop::check_n(
        "zk_default_plane_is_the_store",
        64,
        |rng| gen::vec_with(rng, 10, 120, gen_plane_step),
        |steps| run_default_plane_against_store(steps),
    );
}

// ------------------------------------------------- the fencing shortcut

/// The leader's session-fencing walk, kept here as the reference for
/// the ensemble's shortcut (a kept heartbeat batch that already passed
/// in this epoch skips it): the epoch each session last spoke in.
#[derive(Debug, Default)]
struct FencingWalk(BTreeMap<SessionId, u64>);

impl FencingWalk {
    /// What the walk answers for `op` reaching a serving leader of
    /// `epoch`: a pass, or one `SessionMoved` for every stale session.
    fn fence(&mut self, op: &ZkOp, epoch: u64) -> ZkResult<()> {
        let mut first = None;
        let mut moved = 0;
        for &sid in op.sessions() {
            let e = self.0.entry(sid).or_insert(epoch);
            if *e != epoch {
                *e = epoch;
                first.get_or_insert(sid);
                moved += 1;
            }
        }
        match first {
            Some(sid) => Err(ZkError::SessionMoved {
                session: sid.0,
                moved,
            }),
            None => Ok(()),
        }
    }

    fn committed(&mut self, op: &ZkOp, resp: &ZkResp, epoch: u64) {
        match (op, resp) {
            (ZkOp::CreateSession, ZkResp::Session(sid)) => {
                self.0.insert(*sid, epoch);
            }
            (ZkOp::CloseSession { session }, _) => {
                self.0.remove(session);
            }
            (ZkOp::ExpireSessions, ZkResp::Sessions(dead)) => {
                for sid in dead {
                    self.0.remove(sid);
                }
            }
            _ => {}
        }
    }
}

/// A session op, or a crash / restore of one replica. Leader crashes
/// with long advances make elections; `Relist` keeps expired and closed
/// ids in the kept batch.
#[derive(Debug, Clone, Copy)]
enum FenceOp {
    Create,
    Refresh(u8),
    RefreshBatch,
    Relist,
    Close(u8),
    Expire,
    CrashLeader,
    Restore(u32),
}

fn gen_fence_step(rng: &mut SimRng) -> (u64, FenceOp) {
    let k = gen::any_u8(rng);
    let op = match rng.below(12) {
        0 | 1 => FenceOp::Create,
        2 => FenceOp::Refresh(k),
        3..=5 => FenceOp::RefreshBatch,
        6 => FenceOp::Relist,
        7 => FenceOp::Close(k),
        8 => FenceOp::Expire,
        9 => FenceOp::CrashLeader,
        _ => FenceOp::Restore(rng.below(3) as u32),
    };
    (rng.range(0, 6_000), op)
}

/// Submit `op` to the leader as a client would, one `SessionMoved`
/// retry included, checking each answer against the reference walk.
/// Returns the committed response, if any.
fn submit_against_walk(
    ens: &mut ZkEnsemble,
    walk: &mut FencingWalk,
    op: &ZkOp,
    now: SimTime,
) -> Option<ZkResp> {
    for _ in 0..2 {
        let epoch = ens.epoch();
        match ens.submit_to(ens.leader().unwrap_or(0), op.clone(), now) {
            // Refused before the walk: no leader, or no quorum.
            Err(ZkError::NotLeader { .. }) => return None,
            Err(moved @ ZkError::SessionMoved { .. }) => {
                assert_eq!(walk.fence(op, epoch), Err(moved), "{op:?} at {now:?}");
            }
            Ok(resp) => {
                assert_eq!(walk.fence(op, epoch), Ok(()), "{op:?} at {now:?}");
                walk.committed(op, &resp, epoch);
                return Some(resp);
            }
            Err(other) => panic!("{other:?}"),
        }
    }
    None
}

/// Drive a 3-replica ensemble and the reference walk with the same
/// steps; panics when a fencing answer differs.
fn run_fencing_against_walk(steps: &[(u64, FenceOp)]) {
    let mut ens = ZkEnsemble::new(&ZkReplicationConfig::default());
    let mut walk = FencingWalk::default();
    let mut opened: Vec<SessionId> = Vec::new();
    let mut batch: Arc<[SessionId]> = Arc::from([]);
    let mut now = SimTime::ZERO;
    for &(advance_ms, step) in steps {
        now += SimDuration::from_millis(advance_ms);
        ens.tick(now);
        let pick = |k: u8| pick_session(&opened, k);
        let op = match step {
            FenceOp::Create => ZkOp::CreateSession,
            FenceOp::Refresh(k) => ZkOp::RefreshSession { session: pick(k) },
            FenceOp::RefreshBatch => ZkOp::RefreshSessions {
                sessions: Arc::clone(&batch),
            },
            FenceOp::Close(k) => ZkOp::CloseSession { session: pick(k) },
            FenceOp::Expire => ZkOp::ExpireSessions,
            FenceOp::Relist => {
                batch = opened.iter().copied().collect();
                continue;
            }
            FenceOp::CrashLeader => {
                if let Some(l) = ens.leader() {
                    ens.crash_replica(l);
                }
                continue;
            }
            FenceOp::Restore(id) => {
                ens.restore_replica(id);
                continue;
            }
        };
        if let Some(ZkResp::Session(sid)) = submit_against_walk(&mut ens, &mut walk, &op, now) {
            opened.push(sid);
        }
    }
}

#[test]
fn prop_fencing_shortcut_matches_the_walk() {
    prop::check_n(
        "zk_fencing_shortcut_is_the_walk",
        64,
        |rng| gen::vec_with(rng, 10, 150, gen_fence_step),
        |steps| run_fencing_against_walk(steps),
    );
}

// ---------------------------------------------------------------- targeted

/// Open one session through `client`: the writes of these tests.
fn open(client: &mut ZkClient, ens: &mut ZkEnsemble, now: SimTime) -> ZkResult<SessionId> {
    match client.submit(ens, ZkOp::CreateSession, now)? {
        ZkResp::Session(sid) => Ok(sid),
        other => panic!("{other:?}"),
    }
}

/// No acked write is lost across a leader crash: every session the old
/// leader acknowledged is live on the post-failover leader.
#[test]
fn acked_writes_survive_leader_crash() {
    let mut ens = ZkEnsemble::new(&ZkReplicationConfig::default());
    let mut client = ZkClient::default();
    let sids: Vec<SessionId> = (0..10)
        .map(|_| open(&mut client, &mut ens, t(1)).unwrap())
        .collect();
    ens.crash_replica(0);
    let new = ens.tick(t(30)).expect("failover");
    let store = ens.replica_store(new).unwrap();
    for sid in sids {
        assert!(store.session_alive(sid, t(30)), "acked {sid} lost in failover");
    }
}

/// A partition that leaves the leader in the minority: the majority side
/// elects, commits, and the healed minority catches back up.
#[test]
fn majority_side_wins_partition_and_minority_catches_up() {
    let mut ens = ZkEnsemble::new(&ZkReplicationConfig::default());
    let mut client = ZkClient::default();
    open(&mut client, &mut ens, t(1)).unwrap();
    // Isolate replica 0 (the leader) from both peers.
    ens.cut_regions(0, 1);
    ens.cut_regions(0, 2);
    let new = ens.tick(t(30)).expect("majority-side election");
    assert_eq!(new, 1, "equal applied indices → lowest surviving id");
    let during = open(&mut client, &mut ens, t(31)).unwrap();
    assert!(
        !ens.replica_store(0).unwrap().session_alive(during, t(31)),
        "minority replica must not see uncommitted-for-it writes"
    );
    ens.heal_regions(0, 1);
    ens.heal_regions(0, 2);
    ens.tick(t(40));
    for id in 0..3 {
        assert_eq!(
            ens.replica_digest(id),
            ens.replica_digest(new),
            "replica {id} did not converge after heal"
        );
        assert!(ens.replica_store(id).unwrap().session_alive(during, t(40)));
    }
}

/// While no side has a majority nothing commits anywhere — writes are
/// refused rather than acknowledged into a minority.
#[test]
fn leaderless_ensemble_refuses_rather_than_loses() {
    let mut ens = ZkEnsemble::new(&ZkReplicationConfig::default());
    ens.crash_replica(1);
    ens.crash_replica(2);
    ens.tick(t(30));
    assert_eq!(ens.leader(), None, "no quorum anywhere → leaderless");
    let mut client = ZkClient::default();
    let err = open(&mut client, &mut ens, t(31)).unwrap_err();
    assert!(matches!(err, ZkError::NotLeader { hint: None }));
    // Repair: the ensemble recovers and the write is accepted — exactly
    // once, with nothing phantom from the refused attempts.
    ens.restore_replica(1);
    ens.restore_replica(2);
    ens.tick(t(60)).expect("re-election after repair");
    let sid = open(&mut client, &mut ens, t(61)).unwrap();
    assert_eq!(sid, SessionId(1), "a refused attempt opened a session");
    for id in 0..3 {
        if ens.replica_up(id) {
            assert!(ens.replica_store(id).unwrap().session_alive(sid, t(61)));
        }
    }
}

/// A follower that slept through a thousand commits re-joins by copying
/// the leader's store and ends bit-identical, at the leader's index.
#[test]
fn repaired_follower_catches_up_by_copy() {
    let mut ens = ZkEnsemble::new(&ZkReplicationConfig::default());
    let mut client = ZkClient::default();
    ens.crash_replica(2);
    for _ in 0..1_040 {
        open(&mut client, &mut ens, t(1)).unwrap();
    }
    ens.restore_replica(2);
    ens.tick(t(2));
    assert_eq!(ens.replica_digest(2), ens.replica_digest(0));
    assert_eq!(ens.replica_applied(2), ens.replica_applied(0));
}

/// Session fencing: after a failover the first op of each surviving
/// session absorbs exactly one `SessionMoved`, then proceeds.
#[test]
fn each_session_absorbs_one_session_moved_per_failover() {
    let mut ens = ZkEnsemble::new(&ZkReplicationConfig::default());
    let mut client = ZkClient::default();
    let sids: Vec<SessionId> = (0..3)
        .map(|_| open(&mut client, &mut ens, t(1)).unwrap())
        .collect();
    ens.crash_replica(0);
    ens.tick(t(30)).expect("failover");
    for (i, sid) in sids.iter().enumerate() {
        let resp = client
            .submit(&mut ens, ZkOp::RefreshSession { session: *sid }, t(31))
            .unwrap();
        assert_eq!(resp, ZkResp::Refreshed(true));
        assert_eq!(
            client.session_moves,
            (i + 1) as u64,
            "exactly one SessionMoved per session per failover"
        );
    }
    // Second op on the same session in the same epoch: no new fencing.
    client
        .submit(&mut ens, ZkOp::RefreshSession { session: sids[0] }, t(32))
        .unwrap();
    assert_eq!(client.session_moves, sids.len() as u64);
}

/// A heartbeat round as one op: a batch naming a closed session
/// refreshes the rest and reports the closed one; after a failover the
/// batch is refused once, accounting one `SessionMoved` per session.
#[test]
fn batched_refresh_reports_gone_sessions_and_fences_once() {
    let mut ens = ZkEnsemble::new(&ZkReplicationConfig::default());
    let mut client = ZkClient::default();
    let sids: Vec<SessionId> = (0..4)
        .map(|_| open(&mut client, &mut ens, t(1)).unwrap())
        .collect();
    let closed = sids[1];
    client
        .submit(&mut ens, ZkOp::CloseSession { session: closed }, t(2))
        .unwrap();
    let batch = ZkOp::RefreshSessions {
        sessions: sids.as_slice().into(),
    };
    let resp = client.submit(&mut ens, batch, t(9)).unwrap();
    assert_eq!(resp, ZkResp::Sessions(vec![closed]));
    // The rest were refreshed at t=9 on every replica: still alive at
    // t=19, where the t=1 heartbeat would have lapsed.
    for id in 0..3 {
        let store = ens.replica_store(id).unwrap();
        for &sid in sids.iter().filter(|&&s| s != closed) {
            assert!(store.session_alive(sid, t(19)), "replica {id}, {sid}");
        }
    }
    assert_eq!(client.session_moves, 0);

    ens.crash_replica(0);
    ens.tick(t(30)).expect("failover");
    let live: Vec<SessionId> = sids.iter().copied().filter(|&s| s != closed).collect();
    let batch = ZkOp::RefreshSessions {
        sessions: live.as_slice().into(),
    };
    let resp = client.submit(&mut ens, batch.clone(), t(31)).unwrap();
    assert_eq!(resp, ZkResp::Sessions(vec![]));
    assert_eq!(
        client.session_moves,
        live.len() as u64,
        "one SessionMoved per session, from one refusal"
    );
    // Same epoch again: nobody is fenced twice.
    client.submit(&mut ens, batch, t(32)).unwrap();
    assert_eq!(client.session_moves, live.len() as u64);
}
