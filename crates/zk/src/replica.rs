//! Lease-based replicated coordination plane.
//!
//! A [`ZkEnsemble`] is a replicated state machine over [`ZkStore`], in
//! the pragmatic ScalienDB mold (PAPERS.md): a single
//! leader holds a sim-clock **lease**, and every mutating op is applied
//! synchronously, through the shared [`ZkStore::apply`] path, on the
//! leader and every *reachable* follower. The leader refuses writes
//! unless it can reach a strict majority, so **acknowledged ⇔
//! majority-replicated** holds by construction and a linearizability
//! check against a single-store oracle is an equality check
//! (`tests/zk_replication.rs`). A follower that missed commits (crashed
//! or cut off) copies the leader's store when it is reachable again,
//! which is exactly the state replaying the missed ops would produce.
//!
//! Failover is lease-driven and deterministic: a quorum-holding leader
//! renews its lease on every tick/commit, and when the lease lapses the
//! election picks — among up replicas that can reach a majority — the
//! highest applied index, breaking ties by lowest replica id. No
//! randomness, no wall clock: an election replays bit-identically.
//!
//! Replicas are *homed* in fault regions. Region outages, rack-level
//! coordinator kills (`ZkNodeCrash`), and inter-region partitions map
//! onto [`ZkEnsemble::crash_home`] / [`ZkEnsemble::cut_regions`], which
//! is how the fault DSL finally gets to kill the coordinator.
//!
//! A deployment without replication runs the same plane with one replica
//! homed in no region ([`ZkReplicationConfig::unreplicated`]): it is its
//! own majority, no fault hook reaches it, so its lease never lapses and
//! it serves every op exactly as a bare [`ZkStore`] would.

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::sync::Arc;

use scalewall_sim::{SimDuration, SimTime};

use crate::error::{ZkError, ZkResult};
use crate::session::SessionId;
use crate::store::{ZkOp, ZkResp, ZkStore};

/// Leader lease length. Failover latency after a leader loss is at most
/// one lease (the successor must wait out the old lease).
const LEASE: SimDuration = SimDuration::from_secs(2);

/// Retries a client makes after the first attempt (total attempts
/// `MAX_RETRIES + 1`) before it hands the refusal to its caller.
const MAX_RETRIES: u32 = 4;

/// Configuration for a coordination plane.
#[derive(Debug, Clone)]
pub struct ZkReplicationConfig {
    /// Ensemble size: 3 or 5 replicated (majority `replicas/2 + 1`), 1 not.
    pub replicas: u32,
    /// Fault region of each replica, `None` for none; a replica past the
    /// end is homed in the region of its id. The deployment layer homes
    /// replica 0, the initial leader, in the owning region.
    pub homes: Vec<Option<u32>>,
}

impl Default for ZkReplicationConfig {
    fn default() -> Self {
        ZkReplicationConfig {
            replicas: 3,
            homes: Vec::new(),
        }
    }
}

impl ZkReplicationConfig {
    /// The plane of a deployment without replication: one replica homed
    /// in no region, so no crash, restore, cut or heal reaches it.
    pub fn unreplicated() -> Self {
        ZkReplicationConfig {
            replicas: 1,
            homes: vec![None],
        }
    }
}

/// One member of the ensemble: a full [`ZkStore`] replica plus the
/// number of commits it has applied. A crashed replica keeps its state
/// (the disk survives the process); on restore it copies the leader's.
#[derive(Debug)]
pub struct ZkReplica {
    pub id: u32,
    /// Fault region this replica is homed in; `None` for none.
    pub home: Option<u32>,
    pub up: bool,
    store: ZkStore,
    applied: u64,
}

/// The replicated state machine: replicas + leader lease + commit path.
#[derive(Debug)]
pub struct ZkEnsemble {
    replicas: Vec<ZkReplica>,
    leader: Option<u32>,
    /// The leader while it can reach a majority, recomputed by every
    /// fault hook and election so no op or tick counts peers.
    serving: Option<u32>,
    /// Every replica has applied the same index, so no follower needs a
    /// catch-up. Cleared by a commit that skips an unreachable follower.
    synced: bool,
    epoch: u64,
    lease_until: SimTime,
    /// When `tick` next looks at the lease; renewals leave it, and a
    /// check that finds the lease renewed moves it to `lease_until`.
    lease_check: SimTime,
    /// Severed region pairs (normalized `(lo, hi)`), mirroring the
    /// cluster `NetModel`: replicas homed in the same region are never
    /// partitioned from each other.
    cuts: BTreeSet<(u32, u32)>,
    /// Epoch in which each live session last spoke; a session op
    /// arriving in a newer epoch gets one `SessionMoved` refusal (the
    /// reconnect handshake) before being served.
    session_epoch: BTreeMap<SessionId, u64>,
    /// The last `RefreshSessions` batch that passed fencing and its
    /// epoch: until a close or an expiry drops a `session_epoch` entry,
    /// the same batch in the same epoch would pass again untouched.
    fenced: Option<(Arc<[SessionId]>, u64)>,
    elections: u64,
}

impl ZkEnsemble {
    pub fn new(cfg: &ZkReplicationConfig) -> Self {
        let n = cfg.replicas.max(1);
        let replicas = (0..n)
            .map(|id| ZkReplica {
                id,
                home: cfg.homes.get(id as usize).copied().unwrap_or(Some(id)),
                up: true,
                store: ZkStore::new(),
                applied: 0,
            })
            .collect();
        let lease_until = SimTime::ZERO + LEASE;
        let mut ens = ZkEnsemble {
            replicas,
            leader: Some(0),
            serving: None,
            synced: true,
            epoch: 1,
            lease_until,
            lease_check: lease_until,
            cuts: BTreeSet::new(),
            session_epoch: BTreeMap::new(),
            fenced: None,
            elections: 0,
        };
        ens.reassess();
        ens
    }

    pub fn replica_count(&self) -> u32 {
        self.replicas.len() as u32
    }

    pub fn leader(&self) -> Option<u32> {
        self.leader
    }

    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of leader changes since construction.
    pub fn elections(&self) -> u64 {
        self.elections
    }

    fn replica(&self, id: u32) -> ZkResult<&ZkReplica> {
        self.replicas
            .get(id as usize)
            .ok_or(ZkError::UnknownReplica { id })
    }

    /// Digest of one replica's store (tests compare these across the
    /// ensemble and against the oracle). Unknown ids digest to 0.
    pub fn replica_digest(&self, id: u32) -> u64 {
        self.replica(id).map_or(0, |r| r.store.state_digest())
    }

    /// Read access to one replica's store, for assertions.
    pub fn replica_store(&self, id: u32) -> ZkResult<&ZkStore> {
        self.replica(id).map(|r| &r.store)
    }

    pub fn replica_up(&self, id: u32) -> bool {
        self.replica(id).is_ok_and(|r| r.up)
    }

    /// Index of the last commit a replica has applied; 0 for an unknown
    /// id. Replicas with equal indices hold equal state.
    pub fn replica_applied(&self, id: u32) -> u64 {
        self.replica(id).map_or(0, |r| r.applied)
    }

    fn reachable(&self, from: u32, to: u32) -> bool {
        let (Ok(f), Ok(t)) = (self.replica(from), self.replica(to)) else {
            return false;
        };
        let cut = match (f.home, t.home) {
            (Some(a), Some(b)) => a != b && self.cuts.contains(&(a.min(b), a.max(b))),
            _ => false,
        };
        f.up && t.up && !cut
    }

    /// Whether `id` is up and can assemble a strict majority (itself
    /// plus reachable up peers).
    fn has_quorum(&self, id: u32) -> bool {
        if !self.replica_up(id) {
            return false;
        }
        let peers = (0..self.replica_count())
            .filter(|&j| j != id && self.reachable(id, j))
            .count();
        peers + 1 > self.replicas.len() / 2
    }

    /// Recompute [`Self::serving`] after the leader or reachability moved.
    fn reassess(&mut self) {
        self.serving = self.leader.filter(|&l| self.has_quorum(l));
    }

    // ------------------------------------------------------------- fault hooks

    pub fn crash_replica(&mut self, id: u32) {
        self.set_up(|r| r.id == id, false);
    }

    pub fn restore_replica(&mut self, id: u32) {
        self.set_up(|r| r.id == id, true);
    }

    /// Crash every replica homed in `region` (coordinator-aware fault
    /// kinds: `ZkNodeCrash`, region outage).
    pub fn crash_home(&mut self, region: u32) {
        self.set_up(|r| r.home == Some(region), false);
    }

    pub fn restore_home(&mut self, region: u32) {
        self.set_up(|r| r.home == Some(region), true);
    }

    fn set_up(&mut self, pick: impl Fn(&ZkReplica) -> bool, up: bool) {
        for r in self.replicas.iter_mut().filter(|r| pick(r)) {
            r.up = up;
        }
        self.reassess();
    }

    /// Sever connectivity between replicas homed in the two regions.
    pub fn cut_regions(&mut self, a: u32, b: u32) {
        if a != b {
            self.cuts.insert((a.min(b), a.max(b)));
        }
        self.reassess();
    }

    pub fn heal_regions(&mut self, a: u32, b: u32) {
        self.cuts.remove(&(a.min(b), a.max(b)));
        self.reassess();
    }

    // ------------------------------------------------------------ lease + tick

    /// Advance the lease machinery to `now`: a healthy quorum-holding
    /// leader renews; a lapsed lease triggers a deterministic election.
    /// Also runs anti-entropy catchup for lagging reachable followers.
    /// Returns the new leader's id if an election happened this tick.
    pub fn tick(&mut self, now: SimTime) -> Option<u32> {
        // Renew first: a live leader that can commit keeps its lease
        // fresh regardless of write traffic.
        if self.serving.is_some() {
            self.lease_until = self.lease_until.max(now + LEASE);
        }
        let elected = if self.lease_lapsed(now) {
            self.elect(now)
        } else {
            None
        };
        // Anti-entropy: bring reachable followers up to date even
        // without new writes, so a repaired replica holds the session
        // table again without waiting for traffic.
        if let (Some(l), false) = (self.serving, self.synced) {
            self.catch_up_followers(l);
        }
        elected
    }

    /// Whether the lease lapsed by `now`. Before its check is due the
    /// answer is no; a due check that finds the lease renewed moves
    /// itself to the renewed expiry.
    fn lease_lapsed(&mut self, now: SimTime) -> bool {
        if self.lease_check <= now && self.lease_until > now {
            self.lease_check = self.lease_until;
        }
        self.lease_check <= now
    }

    /// Deterministic election at lease expiry: among up replicas that
    /// can reach a majority, pick the highest applied index, tie-break
    /// lowest id. The winner's first commit is `TouchSessions`, so
    /// sessions survive the leaderless window.
    fn elect(&mut self, now: SimTime) -> Option<u32> {
        let winner = (0..self.replica_count())
            .filter(|&id| self.has_quorum(id))
            .max_by_key(|&id| (self.replica_applied(id), std::cmp::Reverse(id)));
        // Either way the lease is checked again one lease out, where a
        // leaderless ensemble re-runs the election.
        self.lease_until = now + LEASE;
        self.lease_check = self.lease_until;
        if winner.is_some() {
            self.elections += u64::from(self.leader != winner);
            self.epoch += 1;
        }
        (self.leader, self.serving) = (winner, winner);
        let w = winner?;
        let _ = self.commit_as(w, &ZkOp::TouchSessions, now);
        Some(w)
    }

    // ----------------------------------------------------------------- commits

    /// Submit an op to replica `target`, as a client would. Non-leaders
    /// redirect with a hint; a leader that cannot assemble a majority
    /// (or whose lease lapsed) refuses with `NotLeader { hint: None }`.
    pub fn submit_to(&mut self, target: u32, op: ZkOp, now: SimTime) -> ZkResult<ZkResp> {
        self.submit(target, &op, now)
    }

    /// [`submit_to`](Self::submit_to) by reference: a client retrying an
    /// op hands the same one in again instead of a fresh clone.
    fn submit(&mut self, target: u32, op: &ZkOp, now: SimTime) -> ZkResult<ZkResp> {
        let target = target % self.replica_count();
        // A leader serves while it holds a majority, even past its lease
        // deadline: lease expiry only *triggers elections* in `tick`
        // (DESIGN.md §6). The hint names only a serving leader.
        if self.serving != Some(target) {
            return Err(ZkError::NotLeader { hint: self.serving });
        }
        self.fence(op)?;
        self.commit_as(target, op, now)
    }

    /// Session fencing: the first op a session sends to a leader of a
    /// newer epoch is refused once with SessionMoved; the refusal
    /// records the reconnect, so the client's retry lands. A batch is
    /// refused once for all of its stale sessions together.
    fn fence(&mut self, op: &ZkOp) -> ZkResult<()> {
        let batch = match op {
            ZkOp::RefreshSessions { sessions } => Some(sessions),
            _ => None,
        };
        if let (Some(b), Some((fenced, epoch))) = (batch, &self.fenced) {
            if Arc::ptr_eq(b, fenced) && *epoch == self.epoch {
                return Ok(());
            }
        }
        let mut first_moved = None;
        let mut moved = 0u64;
        for &sid in op.sessions() {
            let e = self.session_epoch.entry(sid).or_insert(self.epoch);
            if *e != self.epoch {
                *e = self.epoch;
                first_moved.get_or_insert(sid);
                moved += 1;
            }
        }
        if let Some(first) = first_moved {
            return Err(ZkError::SessionMoved {
                session: first.0,
                moved,
            });
        }
        if let Some(b) = batch {
            self.fenced = Some((Arc::clone(b), self.epoch));
        }
        Ok(())
    }

    /// Replicate + apply, with the quorum precondition already checked
    /// (and, for session ops, `fence` having found every named session
    /// at the current epoch). Every reachable
    /// up follower is caught up and applies the op at the leader's `now`,
    /// so acked ⇔ majority-replicated by construction.
    fn commit_as(&mut self, l: u32, op: &ZkOp, now: SimTime) -> ZkResult<ZkResp> {
        self.lease_until = self.lease_until.max(now + LEASE);
        if !self.synced {
            self.catch_up_followers(l);
        }
        // A leader id missing from the ensemble refuses rather than
        // panicking mid-failover.
        let index = self.replica(l)?.applied + 1;
        for id in (0..self.replica_count()).filter(|&id| id != l) {
            if !self.reachable(l, id) {
                self.synced = false;
            } else if let Some(r) = self.replicas.get_mut(id as usize) {
                r.store.apply(op, now);
                r.applied = index;
            }
        }
        let Some(leader) = self.replicas.get_mut(l as usize) else {
            return Err(ZkError::NotLeader { hint: None });
        };
        let resp = leader.store.apply(op, now);
        leader.applied = index;
        // Session lifecycle bookkeeping on the committed outcome.
        match (op, &resp) {
            (ZkOp::CreateSession, ZkResp::Session(sid)) => {
                self.session_epoch.insert(*sid, self.epoch);
            }
            (ZkOp::CloseSession { session }, _) => {
                self.session_epoch.remove(session);
                self.fenced = None;
            }
            (ZkOp::ExpireSessions, ZkResp::Sessions(dead)) if !dead.is_empty() => {
                for sid in dead {
                    self.session_epoch.remove(sid);
                }
                self.fenced = None;
            }
            _ => {}
        }
        Ok(resp)
    }

    /// Whether an `ExpireSessions` proposed at `now` could do anything:
    /// `false` only when a serving leader sees nothing due on its expiry
    /// deadline queue, in which case the op would commit as a no-op on
    /// every replica. Without a serving leader the answer is `true` and
    /// the proposal takes its usual refusal path.
    pub fn expiry_due(&self, now: SimTime) -> bool {
        self.serving
            .and_then(|l| self.replicas.get(l as usize))
            .is_none_or(|r| r.store.expiry_due(now))
    }

    /// Bring every reachable up follower that is behind the leader to
    /// its state by copying the leader's store. Commits are applied in
    /// one order everywhere and apply is a pure function of `(state, op,
    /// at)`, so the copy is exactly what replaying the missed commits on
    /// the follower's own state would produce, expiry queue included.
    /// Nothing to do while `synced`; callers skip the call then.
    fn catch_up_followers(&mut self, l: u32) {
        let applied = self.replica_applied(l);
        for id in 0..self.replica_count() {
            if id == l || self.replica_applied(id) >= applied || !self.reachable(l, id) {
                continue;
            }
            let Ok(store) = self.replica(l).map(|r| r.store.clone()) else {
                return;
            };
            if let Some(follower) = self.replicas.get_mut(id as usize) {
                follower.store = store;
                follower.applied = applied;
            }
        }
        self.synced = self.replicas.iter().all(|r| r.applied == applied);
    }
}

/// Client-side leader discovery: tracks a leader hint, follows
/// `NotLeader` redirects and probes round-robin while leaderless, for at
/// most `MAX_RETRIES` retries per op. The simulation is synchronous, so
/// a retry goes out at the same instant as the attempt it follows.
#[derive(Debug, Default)]
pub struct ZkClient {
    hint: u32,
    /// Redirects followed (stale hint corrected by a `NotLeader` hint).
    pub redirects: u64,
    /// `SessionMoved` reconnect handshakes absorbed.
    pub session_moves: u64,
}

impl ZkClient {
    /// Override the cached leader hint. Tests and benches use this to
    /// exercise the redirect path by pointing the client at a follower.
    pub fn set_hint(&mut self, hint: u32) {
        self.hint = hint;
    }

    /// Submit through leader discovery with bounded deterministic
    /// retries. Returns the committed outcome, or the last refusal once
    /// the retry budget is exhausted (the ensemble is down or
    /// leaderless; the caller degrades instead of blocking).
    pub fn submit(&mut self, ens: &mut ZkEnsemble, op: ZkOp, now: SimTime) -> ZkResult<ZkResp> {
        self.submit_ref(ens, &op, now)
    }

    fn submit_ref(&mut self, ens: &mut ZkEnsemble, op: &ZkOp, now: SimTime) -> ZkResult<ZkResp> {
        // One `outcome`, retried in place: the committed response is
        // never moved between slots on the way out.
        let mut outcome = ens.submit(self.hint, op, now);
        if matches!(&outcome, Err(err) if err.is_retryable()) {
            self.retry(ens, op, now, &mut outcome);
        }
        outcome
    }

    /// Follow refusals for the rest of the retry budget: take a leader
    /// hint, probe the next replica while leaderless, count a reconnect.
    #[cold]
    fn retry(
        &mut self,
        ens: &mut ZkEnsemble,
        op: &ZkOp,
        now: SimTime,
        outcome: &mut ZkResult<ZkResp>,
    ) {
        for attempt in 1..=MAX_RETRIES + 1 {
            match *outcome {
                Err(ZkError::NotLeader { hint: Some(h) }) if h != self.hint => {
                    self.hint = h;
                    self.redirects += 1;
                }
                Err(ZkError::NotLeader { hint: None }) => {
                    self.hint = (self.hint + 1) % ens.replica_count();
                }
                Err(ZkError::SessionMoved { moved, .. }) => self.session_moves += moved,
                _ => {}
            }
            if attempt > MAX_RETRIES {
                return;
            }
            *outcome = ens.submit(self.hint, op, now);
            if !matches!(outcome, Err(err) if err.is_retryable()) {
                return;
            }
        }
    }
}

/// The coordination endpoint the shard manager talks to: an ensemble
/// fronted by a leader-discovering client. Without replication the
/// ensemble is one replica no fault reaches
/// ([`ZkReplicationConfig::unreplicated`]), which answers every op as a
/// bare [`ZkStore`] would (`tests/zk_replication.rs`).
#[derive(Debug)]
pub struct CoordinationPlane {
    ensemble: ZkEnsemble,
    client: ZkClient,
}

impl CoordinationPlane {
    pub fn new(cfg: &ZkReplicationConfig) -> Self {
        CoordinationPlane {
            ensemble: ZkEnsemble::new(cfg),
            client: ZkClient::default(),
        }
    }

    /// Whether the ensemble has more than one replica.
    pub fn is_replicated(&self) -> bool {
        self.ensemble.replica_count() > 1
    }

    /// Read access to the ensemble, for assertions.
    pub fn ensemble(&self) -> &ZkEnsemble {
        &self.ensemble
    }

    /// Lease/election heartbeat. Returns the newly elected leader if a
    /// failover completed this tick.
    pub fn tick(&mut self, now: SimTime) -> Option<u32> {
        self.ensemble.tick(now)
    }

    /// Every op's one path: the leader-discovering client.
    fn submit(&mut self, op: &ZkOp, now: SimTime) -> ZkResult<ZkResp> {
        self.client.submit_ref(&mut self.ensemble, op, now)
    }

    pub fn create_session(&mut self, now: SimTime) -> ZkResult<SessionId> {
        match self.submit(&ZkOp::CreateSession, now)? {
            ZkResp::Session(sid) => Ok(sid),
            _ => Err(ZkError::UnexpectedResponse {
                op: "CreateSession",
            }),
        }
    }

    /// Refresh a session's heartbeat. `false` when the session is gone
    /// — or, in degraded mode, when the plane is unreachable *and* the
    /// refresh could not be recorded (the election-time `TouchSessions`
    /// covers the gap, so this is safe to ignore).
    pub fn refresh_session(&mut self, session: SessionId, now: SimTime) -> bool {
        let refreshed = self.submit(&ZkOp::RefreshSession { session }, now);
        matches!(refreshed, Ok(ZkResp::Refreshed(true)))
    }

    /// One heartbeat round: refresh every listed session, as
    /// [`refresh_session`](Self::refresh_session) per id would, in one
    /// commit. Ids the store no longer knows are skipped; an unreachable
    /// plane records nothing (same degraded mode as the single refresh).
    pub fn refresh_sessions(&mut self, sessions: Arc<[SessionId]>, now: SimTime) {
        if !sessions.is_empty() {
            let _ = self.submit(&ZkOp::RefreshSessions { sessions }, now);
        }
    }

    /// Best-effort close; losing the race to a dead plane is fine (the
    /// session will expire once the plane recovers).
    pub fn close_session(&mut self, session: SessionId, now: SimTime) {
        let _ = self.submit(&ZkOp::CloseSession { session }, now);
    }

    /// Degraded-but-live: while the plane is leaderless nobody expires
    /// (an unreachable coordinator must not declare the fleet dead);
    /// expiry resumes, with touched heartbeats, after failover. Nothing
    /// is submitted when the leader's store has nothing due.
    pub fn expire_sessions(&mut self, now: SimTime) -> Vec<SessionId> {
        let due = self.ensemble.expiry_due(now);
        match due.then(|| self.submit(&ZkOp::ExpireSessions, now)) {
            Some(Ok(ZkResp::Sessions(dead))) => dead,
            _ => Vec::new(),
        }
    }

    // ------------------------------------------------------- health + faults

    pub fn leader(&self) -> Option<u32> {
        self.ensemble.leader()
    }

    pub fn epoch(&self) -> u64 {
        self.ensemble.epoch()
    }

    /// Leader changes since startup.
    pub fn failovers(&self) -> u64 {
        self.ensemble.elections()
    }

    /// `SessionMoved` reconnect handshakes absorbed by the client.
    pub fn session_moves(&self) -> u64 {
        self.client.session_moves
    }

    /// Crash every ensemble replica homed in `region`.
    pub fn crash_home(&mut self, region: u32) {
        self.ensemble.crash_home(region);
    }

    pub fn restore_home(&mut self, region: u32) {
        self.ensemble.restore_home(region);
    }

    pub fn cut_regions(&mut self, a: u32, b: u32) {
        self.ensemble.cut_regions(a, b);
    }

    pub fn heal_regions(&mut self, a: u32, b: u32) {
        self.ensemble.heal_regions(a, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn ensemble() -> ZkEnsemble {
        ZkEnsemble::new(&ZkReplicationConfig::default())
    }

    #[test]
    fn initial_leader_commits_everywhere() {
        let mut ens = ensemble();
        let resp = ens.submit_to(0, ZkOp::CreateSession, t(1)).unwrap();
        assert_eq!(resp, ZkResp::Session(SessionId(1)));
        let d0 = ens.replica_digest(0);
        assert_eq!(d0, ens.replica_digest(1));
        assert_eq!(d0, ens.replica_digest(2));
    }

    #[test]
    fn follower_redirects_with_hint() {
        let mut ens = ensemble();
        let err = ens.submit_to(1, ZkOp::CreateSession, t(1)).unwrap_err();
        assert_eq!(err, ZkError::NotLeader { hint: Some(0) });
    }

    #[test]
    fn leader_crash_fails_over_after_lease() {
        let mut ens = ensemble();
        ens.submit_to(0, ZkOp::CreateSession, t(1)).unwrap();
        ens.tick(t(1));
        ens.crash_replica(0);
        // Lease still held: no election yet, writes refused.
        assert!(ens.tick(t(2)).is_none());
        assert!(matches!(
            ens.submit_to(0, ZkOp::CreateSession, t(2)),
            Err(ZkError::NotLeader { hint: None })
        ));
        // Past the lease the survivors elect deterministically: equal
        // applied indices, lowest id wins.
        let new = ens.tick(t(10)).expect("election");
        assert_eq!(new, 1);
        assert_eq!(ens.leader(), Some(1));
        assert!(ens.elections() >= 1);
        ens.submit_to(1, ZkOp::CreateSession, t(10)).unwrap();
    }

    #[test]
    fn minority_leader_refuses_writes() {
        let mut ens = ensemble(); // homes 0,1,2
        ens.cut_regions(0, 1);
        ens.cut_regions(0, 2);
        assert!(matches!(
            ens.submit_to(0, ZkOp::CreateSession, t(1)),
            Err(ZkError::NotLeader { hint: None })
        ));
        // Majority side elects once the lease lapses.
        let new = ens.tick(t(10)).expect("majority-side election");
        assert_eq!(new, 1);
        ens.submit_to(new, ZkOp::CreateSession, t(10)).unwrap();
    }

    #[test]
    fn client_follows_redirects_and_survives_failover() {
        let mut ens = ensemble();
        let mut client = ZkClient::default();
        let sid = match client.submit(&mut ens, ZkOp::CreateSession, t(1)).unwrap() {
            ZkResp::Session(s) => s,
            other => panic!("{other:?}"),
        };
        ens.crash_replica(0);
        ens.tick(t(10));
        // First session op after failover absorbs one SessionMoved.
        let resp = client
            .submit(&mut ens, ZkOp::RefreshSession { session: sid }, t(10))
            .unwrap();
        assert_eq!(resp, ZkResp::Refreshed(true));
        assert_eq!(client.session_moves, 1);
        assert!(client.redirects >= 1);
    }

    #[test]
    fn lagging_follower_copies_the_leader() {
        let mut ens = ensemble();
        ens.crash_replica(2);
        for _ in 0..16 {
            ens.submit_to(0, ZkOp::CreateSession, t(1)).unwrap();
        }
        ens.restore_replica(2);
        ens.tick(t(2));
        assert_eq!(ens.replica_digest(2), ens.replica_digest(0));
        assert_eq!(ens.replica_applied(2), ens.replica_applied(0));
    }

    /// A follower that slept through more than 1,024 commits gets the
    /// leader's expiry queue, not one rebuilt from heartbeats: a session
    /// refreshed after its entry was armed keeps the entry at its old
    /// deadline, so both replicas must call the same instants due.
    #[test]
    fn caught_up_follower_sees_expiry_due_when_the_leader_does() {
        let mut ens = ensemble();
        ens.crash_replica(2);
        let Ok(ZkResp::Session(sid)) = ens.submit_to(0, ZkOp::CreateSession, t(1)) else {
            panic!("session open refused");
        };
        // The refresh at 5 s, then 1,100 more.
        for _ in 0..=1_100 {
            ens.submit_to(0, ZkOp::RefreshSession { session: sid }, t(5))
                .unwrap();
        }
        ens.restore_replica(2);
        ens.tick(t(5));
        let (leader, follower) = (ens.replica_store(0).unwrap(), ens.replica_store(2).unwrap());
        for s in 0..=30 {
            assert_eq!(
                follower.expiry_due(t(s)),
                leader.expiry_due(t(s)),
                "at {s} s"
            );
        }
        assert_eq!(ens.replica_digest(2), ens.replica_digest(0));
        assert_eq!(ens.replica_applied(2), ens.replica_applied(0));
    }

    #[test]
    fn touch_sessions_preserves_sessions_across_failover() {
        let mut ens = ensemble();
        let sid = match ens.submit_to(0, ZkOp::CreateSession, t(0)).unwrap() {
            ZkResp::Session(s) => s,
            other => panic!("{other:?}"),
        };
        ens.crash_replica(0);
        // Leaderless gap far past the session timeout.
        let new = ens.tick(t(60)).expect("election");
        // TouchSessions at election time keeps the session alive.
        let resp = ens.submit_to(new, ZkOp::ExpireSessions, t(61)).unwrap();
        assert_eq!(resp, ZkResp::Sessions(vec![]), "session {sid} survived");
    }
}
