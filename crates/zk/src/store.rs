//! The session table.
//!
//! Every session the coordination plane knows, with its last heartbeat,
//! and the deadline queue that finds the ones that went silent. This is
//! all Shard Manager reads from its coordination store: heartbeat
//! liveness of the application servers (§III-A "Datastore").

use std::collections::BTreeMap;
use std::sync::Arc;

use scalewall_sim::{hash, DeadlineQueue, SimDuration, SimTime};

use crate::session::{Session, SessionId, SESSION_TIMEOUT};

/// A mutating coordination-store operation: the full write surface of
/// [`ZkStore`], the session lifecycle. Every replica applies it through
/// [`ZkStore::apply`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZkOp {
    CreateSession,
    RefreshSession {
        session: SessionId,
    },
    /// One commit for a whole heartbeat round: applies exactly as one
    /// [`ZkOp::RefreshSession`] per id, in order, at the commit's
    /// timestamp. The ids sit behind an `Arc` so a heartbeat list is
    /// built once and shared from round to round.
    RefreshSessions {
        sessions: Arc<[SessionId]>,
    },
    CloseSession {
        session: SessionId,
    },
    ExpireSessions,
    /// Committed by a freshly elected leader as its first op: resets
    /// every live session's heartbeat to election time, so sessions are
    /// not mass-expired for silence accumulated during the leaderless
    /// window (clients *couldn't* heartbeat — the plane was down, not
    /// them). This is the "degraded but live" behaviour the LinkedIn
    /// OLAP-resilience paper argues for (PAPERS.md).
    TouchSessions,
}

impl ZkOp {
    /// The sessions this op speaks for — used by the leader to detect
    /// sessions whose connection moved across a failover
    /// ([`ZkError::SessionMoved`]).
    ///
    /// [`ZkError::SessionMoved`]: crate::error::ZkError::SessionMoved
    pub fn sessions(&self) -> &[SessionId] {
        match self {
            ZkOp::RefreshSession { session } | ZkOp::CloseSession { session } => {
                std::slice::from_ref(session)
            }
            ZkOp::RefreshSessions { sessions } => sessions,
            _ => &[],
        }
    }
}

/// Successful result of applying a [`ZkOp`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZkResp {
    Unit,
    Session(SessionId),
    /// `ExpireSessions`: the sessions that expired. `RefreshSessions`:
    /// the named sessions that no longer exist (the rest were refreshed).
    Sessions(Vec<SessionId>),
    Refreshed(bool),
}

/// In-process coordination store under simulated time.
///
/// All mutating calls take `now` explicitly; the store never consults a
/// wall clock. A lagging replica catches up by cloning the leader's
/// store, expiry queue included.
#[derive(Debug, Clone)]
pub struct ZkStore {
    // A BTreeMap, not a HashMap: `touch_sessions` and `state_digest`
    // iterate it, and the order is part of the replay contract
    // (DESIGN.md "Determinism invariants", lint rule D2).
    sessions: BTreeMap<SessionId, Session>,
    next_session: u64,
    /// Expiry candidates on the simulation kernel's deadline queue: each
    /// live session keeps exactly one armed entry (created at session
    /// open, re-armed lazily when a candidate turns out to have kept
    /// heartbeating), so `expire_sessions` is O(due) instead of a scan
    /// over every session. Heartbeats never touch the queue.
    expiry: DeadlineQueue<SessionId>,
    expiry_scratch: Vec<SessionId>,
}

impl Default for ZkStore {
    fn default() -> Self {
        Self::new()
    }
}

impl ZkStore {
    pub fn new() -> Self {
        ZkStore {
            sessions: BTreeMap::new(),
            next_session: 1,
            expiry: DeadlineQueue::new(),
            expiry_scratch: Vec::new(),
        }
    }

    /// First instant at which `s` counts as expired (`is_expired` is a
    /// strict comparison, so one nanosecond past the timeout).
    fn expiry_deadline(s: &Session) -> SimTime {
        s.last_heartbeat
            .saturating_add(SESSION_TIMEOUT)
            .saturating_add(SimDuration::from_nanos(1))
    }

    // ---------------------------------------------------------------- sessions

    /// Open a new session.
    pub fn create_session(&mut self, now: SimTime) -> SessionId {
        let id = SessionId(self.next_session);
        self.next_session += 1;
        let session = Session::new(now);
        self.expiry.arm(Self::expiry_deadline(&session), id);
        self.sessions.insert(id, session);
        id
    }

    /// Record a heartbeat: refresh a session even past its timeout, as
    /// long as expiry has not been *processed* yet (the session still
    /// exists). The simulation advances time in jumps, and a beat asserts
    /// "this client was alive and heartbeating throughout the interval we
    /// just skipped". Returns `false` for a session that no longer exists:
    /// a late beat cannot resurrect it; the client must open a new one.
    pub fn refresh_session(&mut self, session: SessionId, now: SimTime) -> bool {
        match self.sessions.get_mut(&session) {
            Some(s) => {
                s.last_heartbeat = now;
                true
            }
            None => false,
        }
    }

    /// Refresh every listed session exactly as one [`refresh_session`]
    /// call each, in order; returns the ids that no longer exist.
    ///
    /// [`refresh_session`]: ZkStore::refresh_session
    pub fn refresh_sessions(&mut self, sessions: &[SessionId], now: SimTime) -> Vec<SessionId> {
        sessions
            .iter()
            .copied()
            .filter(|&s| !self.refresh_session(s, now))
            .collect()
    }

    /// Whether a session exists and has not timed out as of `now`.
    pub fn session_alive(&self, session: SessionId, now: SimTime) -> bool {
        self.sessions
            .get(&session)
            .is_some_and(|s| !s.is_expired(now))
    }

    /// Expire timed-out sessions. Returns the sessions that expired, in
    /// ascending id order. Call this whenever the driver advances time.
    pub fn expire_sessions(&mut self, now: SimTime) -> Vec<SessionId> {
        // Candidates come off the deadline queue; each is re-validated
        // because heartbeats move the real deadline without touching the
        // queue. Still-alive candidates re-arm at their current deadline,
        // entries for closed sessions die here (ids are never reused).
        let mut due = std::mem::take(&mut self.expiry_scratch);
        self.expiry.due(now, &mut due);
        let mut expired: Vec<SessionId> = Vec::new();
        for id in due.drain(..) {
            match self.sessions.get(&id) {
                None => {}
                Some(s) if s.is_expired(now) => expired.push(id),
                Some(s) => {
                    let deadline = Self::expiry_deadline(s);
                    self.expiry.arm(deadline, id);
                }
            }
        }
        self.expiry_scratch = due;
        // The replay contract pins the old full-scan order: ascending id.
        expired.sort_unstable();
        expired.dedup();
        for id in &expired {
            self.sessions.remove(id);
        }
        expired
    }

    /// Whether [`expire_sessions`] at `now` has any candidate to look at.
    /// `false` means the call would expire nobody and leave the deadline
    /// queue as it is: every live session keeps an entry armed no later
    /// than its real deadline, so an expired session always shows up as
    /// due.
    ///
    /// [`expire_sessions`]: ZkStore::expire_sessions
    pub fn expiry_due(&self, now: SimTime) -> bool {
        self.expiry.next_deadline().is_some_and(|t| t <= now)
    }

    /// Close a session explicitly (clean shutdown).
    pub fn close_session(&mut self, session: SessionId) {
        self.sessions.remove(&session);
    }

    // ------------------------------------------------------- replicated apply

    /// The single apply path shared by the standalone store and every
    /// replica of the replicated coordination plane: apply one committed
    /// operation at the leader's timestamp `at`.
    ///
    /// Apply is a pure function of `(state, op, at)`, and every op
    /// applies: nothing a replica commits can fail.
    pub fn apply(&mut self, op: &ZkOp, at: SimTime) -> ZkResp {
        match op {
            ZkOp::CreateSession => ZkResp::Session(self.create_session(at)),
            ZkOp::RefreshSession { session } => {
                ZkResp::Refreshed(self.refresh_session(*session, at))
            }
            ZkOp::RefreshSessions { sessions } => {
                ZkResp::Sessions(self.refresh_sessions(sessions, at))
            }
            ZkOp::CloseSession { session } => {
                self.close_session(*session);
                ZkResp::Unit
            }
            ZkOp::ExpireSessions => ZkResp::Sessions(self.expire_sessions(at)),
            ZkOp::TouchSessions => {
                self.touch_sessions(at);
                ZkResp::Unit
            }
        }
    }

    /// Reset every live session's heartbeat to `now`. Committed by a
    /// newly elected leader so sessions are not punished for the
    /// leaderless window during which nobody could heartbeat.
    pub fn touch_sessions(&mut self, now: SimTime) {
        for s in self.sessions.values_mut() {
            s.last_heartbeat = now;
        }
    }

    /// FNV-1a digest of the linearizable-visible state: the live session
    /// ids and the next id to hand out. Session heartbeat times are
    /// deliberately excluded — they are refreshed wholesale by
    /// `TouchSessions` at elections, and two stores that agree on
    /// everything else are observationally equal.
    pub fn state_digest(&self) -> u64 {
        let mut h = hash::FNV_OFFSET;
        for id in self.sessions.keys().chain([&SessionId(self.next_session)]) {
            h = hash::fnv1a(h, &id.0.to_le_bytes());
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn heartbeats_keep_a_session_and_silence_expires_it() {
        let mut zk = ZkStore::default();
        let sid = zk.create_session(t(0));
        // Heartbeats keep it alive.
        assert!(zk.refresh_session(sid, t(5)));
        assert!(zk.expire_sessions(t(14)).is_empty());
        assert!(zk.session_alive(sid, t(14)));

        // Silence past the timeout expires it.
        assert_eq!(zk.expire_sessions(t(16)), vec![sid]);
        // Late heartbeat cannot resurrect.
        assert!(!zk.refresh_session(sid, t(17)));
        assert!(!zk.session_alive(sid, t(17)));
    }

    #[test]
    fn closed_sessions_never_expire_and_ids_are_not_reused() {
        let mut zk = ZkStore::default();
        let (a, b) = (zk.create_session(t(0)), zk.create_session(t(0)));
        zk.close_session(a);
        assert!(!zk.session_alive(a, t(1)));
        assert_eq!(zk.expire_sessions(t(100)), vec![b]);
        assert_eq!(zk.create_session(t(100)), SessionId(3));
    }

    #[test]
    fn copy_digests_equal_and_expires_alike() {
        let mut zk = ZkStore::default();
        let sids: Vec<_> = (0..3).map(|_| zk.create_session(t(0))).collect();
        zk.refresh_session(sids[1], t(8));
        let mut copy = zk.clone();
        assert_eq!(copy.state_digest(), zk.state_digest());
        assert_eq!(copy.expire_sessions(t(12)), zk.expire_sessions(t(12)));
        assert_eq!(copy.state_digest(), zk.state_digest());
    }

    #[test]
    fn sessions_covers_session_scoped_ops() {
        let sid = SessionId(7);
        assert_eq!(ZkOp::RefreshSession { session: sid }.sessions(), [sid]);
        assert_eq!(ZkOp::CloseSession { session: sid }.sessions(), [sid]);
        let batch = [SessionId(3), sid];
        assert_eq!(
            ZkOp::RefreshSessions {
                sessions: batch.into()
            }
            .sessions(),
            batch
        );
        assert!(ZkOp::ExpireSessions.sessions().is_empty());
        assert!(ZkOp::CreateSession.sessions().is_empty());
    }

    #[test]
    fn session_alive_reflects_heartbeats() {
        let mut zk = ZkStore::default();
        let sid = zk.create_session(t(0));
        assert!(zk.session_alive(sid, t(10)));
        assert!(!zk.session_alive(sid, t(11)));
        assert!(!zk.session_alive(SessionId(999), t(0)));
    }
}
