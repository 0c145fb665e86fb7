//! The znode tree.
//!
//! A hierarchical namespace of versioned nodes with Zookeeper's core write
//! semantics: create-with-parent-check, conditional `set_data`/`delete` on
//! version, ephemeral ownership by session, and watch firing on mutation.

use std::collections::BTreeMap;

use scalewall_sim::{hash, DeadlineQueue, SimDuration, SimTime};

use crate::error::{ZkError, ZkResult};
use crate::log::{ZkOp, ZkResp};
use crate::session::{Session, SessionId, SESSION_TIMEOUT};
use crate::watch::{WatchEvent, WatchEventKind, WatchKind, WatchReg};

/// Persistence class of a znode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// Survives session expiry.
    Persistent,
    /// Deleted automatically when the owning session expires.
    Ephemeral,
}

/// Metadata returned by read operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeStat {
    pub version: u64,
    pub kind: NodeKind,
    /// Owning session for ephemeral nodes.
    pub owner: Option<SessionId>,
    pub created_at: SimTime,
    pub modified_at: SimTime,
    pub num_children: usize,
}

#[derive(Debug, Clone)]
struct Node {
    data: Vec<u8>,
    version: u64,
    kind: NodeKind,
    owner: Option<SessionId>,
    created_at: SimTime,
    modified_at: SimTime,
    children: Vec<String>, // child *names* (last path segment), sorted
}

/// In-process coordination store under simulated time.
///
/// All mutating calls take `now` explicitly; the store never consults a
/// wall clock. Fired watch events accumulate internally and are drained by
/// the single consumer via [`ZkStore::drain_events`].
#[derive(Debug)]
pub struct ZkStore {
    // BTreeMaps, not HashMaps: `expire_sessions` and watch dispatch
    // iterate these, and the event order they produce is part of the
    // replay contract (DESIGN.md "Determinism invariants", lint rule D2).
    nodes: BTreeMap<String, Node>,
    sessions: BTreeMap<SessionId, Session>,
    watches: BTreeMap<String, Vec<WatchReg>>,
    pending_events: Vec<WatchEvent>,
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

/// Validate a path: absolute, no empty or dot segments, no trailing slash
/// (except the root itself).
fn validate_path(path: &str) -> ZkResult<()> {
    let invalid = |reason| {
        Err(ZkError::InvalidPath {
            path: path.to_string(),
            reason,
        })
    };
    let Some(rest) = path.strip_prefix('/') else {
        return invalid("must be absolute");
    };
    if rest.is_empty() {
        return Ok(());
    }
    if rest.ends_with('/') {
        return invalid("trailing slash");
    }
    for seg in rest.split('/') {
        if seg.is_empty() {
            return invalid("empty segment");
        }
        if seg == "." || seg == ".." {
            return invalid("dot segment");
        }
    }
    Ok(())
}

/// Parent path of a validated non-root path.
fn parent_of(path: &str) -> &str {
    match path.rfind('/') {
        Some(0) => "/",
        Some(i) => &path[..i],
        None => "/",
    }
}

/// Last segment of a validated non-root path.
fn leaf_of(path: &str) -> &str {
    &path[path.rfind('/').map(|i| i + 1).unwrap_or(0)..]
}

impl ZkStore {
    pub fn new() -> Self {
        let mut nodes = BTreeMap::new();
        nodes.insert(
            "/".to_string(),
            Node {
                data: Vec::new(),
                version: 0,
                kind: NodeKind::Persistent,
                owner: None,
                created_at: SimTime::ZERO,
                modified_at: SimTime::ZERO,
                children: Vec::new(),
            },
        );
        ZkStore {
            nodes,
            sessions: BTreeMap::new(),
            watches: BTreeMap::new(),
            pending_events: Vec::new(),
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

    /// Expire timed-out sessions, deleting their ephemeral nodes (firing
    /// watches). Returns the sessions that expired. Call this whenever the
    /// driver advances time.
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
            self.close_session_inner(*id, now);
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

    /// Close a session explicitly (clean shutdown), deleting its ephemerals.
    pub fn close_session(&mut self, session: SessionId, now: SimTime) {
        self.close_session_inner(session, now);
    }

    fn close_session_inner(&mut self, session: SessionId, now: SimTime) {
        let Some(s) = self.sessions.remove(&session) else {
            return;
        };
        // Pinned order: ascending path. Ephemerals are always leaves
        // (they cannot have children), so no delete can be blocked by a
        // sibling ephemeral and plain lexicographic order is safe. This
        // single order is shared by explicit close, expiry, and the
        // replicated apply path, and `tests/replay_order.rs` pins the
        // resulting watch-event sequence.
        let mut paths = s.ephemerals;
        paths.sort_unstable();
        for path in paths {
            // Ignore errors: the node may already be gone.
            let _ = self.delete_inner(&path, None, now, /* bypass_owner */ true);
        }
    }

    // ------------------------------------------------------------------ writes

    /// Create a node. Parent must exist and not be ephemeral. Ephemeral
    /// creates require a live session.
    pub fn create(
        &mut self,
        path: &str,
        data: &[u8],
        kind: NodeKind,
        session: Option<SessionId>,
        now: SimTime,
    ) -> ZkResult<()> {
        validate_path(path)?;
        if path == "/" {
            return Err(ZkError::NodeExists {
                path: path.to_string(),
            });
        }
        if self.nodes.contains_key(path) {
            return Err(ZkError::NodeExists {
                path: path.to_string(),
            });
        }
        let owner = match kind {
            NodeKind::Ephemeral => {
                let sid = session.ok_or(ZkError::SessionExpired { session: 0 })?;
                if !self.sessions.contains_key(&sid) {
                    return Err(ZkError::SessionExpired { session: sid.0 });
                }
                Some(sid)
            }
            NodeKind::Persistent => None,
        };
        let parent = parent_of(path).to_string();
        {
            let p = self
                .nodes
                .get_mut(&parent)
                .ok_or_else(|| ZkError::NoParent {
                    path: path.to_string(),
                })?;
            if p.kind == NodeKind::Ephemeral {
                return Err(ZkError::NoChildrenForEphemerals {
                    path: parent.clone(),
                });
            }
            // A name already listed without its node (an invariant
            // breach) is healed by the insert below, not a panic.
            let leaf = leaf_of(path).to_string();
            if let Err(pos) = p.children.binary_search(&leaf) {
                p.children.insert(pos, leaf);
            }
        }
        self.nodes.insert(
            path.to_string(),
            Node {
                data: data.to_vec(),
                version: 0,
                kind,
                owner,
                created_at: now,
                modified_at: now,
                children: Vec::new(),
            },
        );
        if let Some(s) = owner.and_then(|sid| self.sessions.get_mut(&sid)) {
            s.ephemerals.push(path.to_string());
        }
        self.fire(path, WatchEventKind::Created);
        self.fire(&parent, WatchEventKind::ChildrenChanged);
        Ok(())
    }

    /// Create the node and any missing persistent ancestors.
    pub fn create_recursive(
        &mut self,
        path: &str,
        data: &[u8],
        kind: NodeKind,
        session: Option<SessionId>,
        now: SimTime,
    ) -> ZkResult<()> {
        validate_path(path)?;
        // Build missing ancestors (the prefixes ending before each
        // inner slash) as persistent empty nodes.
        for (slash, _) in path.match_indices('/').skip(1) {
            let prefix = &path[..slash];
            if !self.nodes.contains_key(prefix) {
                self.create(prefix, &[], NodeKind::Persistent, None, now)?;
            }
        }
        self.create(path, data, kind, session, now)
    }

    /// Overwrite node data. `expected_version` of `None` is unconditional.
    pub fn set_data(
        &mut self,
        path: &str,
        data: &[u8],
        expected_version: Option<u64>,
        now: SimTime,
    ) -> ZkResult<u64> {
        validate_path(path)?;
        let node = self.nodes.get_mut(path).ok_or_else(|| ZkError::NoNode {
            path: path.to_string(),
        })?;
        if let Some(expected) = expected_version {
            if node.version != expected {
                return Err(ZkError::BadVersion {
                    path: path.to_string(),
                    expected,
                    actual: node.version,
                });
            }
        }
        node.data = data.to_vec();
        node.version += 1;
        node.modified_at = now;
        let v = node.version;
        self.fire(path, WatchEventKind::DataChanged);
        Ok(v)
    }

    /// Delete a childless node. `expected_version` of `None` is unconditional.
    pub fn delete(
        &mut self,
        path: &str,
        expected_version: Option<u64>,
        now: SimTime,
    ) -> ZkResult<()> {
        validate_path(path)?;
        self.delete_inner(path, expected_version, now, false)
    }

    fn delete_inner(
        &mut self,
        path: &str,
        expected_version: Option<u64>,
        _now: SimTime,
        bypass_owner: bool,
    ) -> ZkResult<()> {
        if path == "/" {
            return Err(ZkError::InvalidPath {
                path: path.into(),
                reason: "cannot delete root",
            });
        }
        let node = self.nodes.get(path).ok_or_else(|| ZkError::NoNode {
            path: path.to_string(),
        })?;
        if !node.children.is_empty() {
            return Err(ZkError::NotEmpty {
                path: path.to_string(),
            });
        }
        if let Some(expected) = expected_version {
            if node.version != expected {
                return Err(ZkError::BadVersion {
                    path: path.to_string(),
                    expected,
                    actual: node.version,
                });
            }
        }
        let owner = node.owner;
        self.nodes.remove(path);
        let parent = parent_of(path).to_string();
        if let Some(p) = self.nodes.get_mut(&parent) {
            let leaf = leaf_of(path);
            if let Ok(pos) = p.children.binary_search_by(|c| c.as_str().cmp(leaf)) {
                p.children.remove(pos);
            }
        }
        if !bypass_owner {
            if let Some(sid) = owner {
                if let Some(s) = self.sessions.get_mut(&sid) {
                    s.ephemerals.retain(|p| p != path);
                }
            }
        }
        self.fire(path, WatchEventKind::Deleted);
        self.fire(&parent, WatchEventKind::ChildrenChanged);
        Ok(())
    }

    // ------------------------------------------------------------------- reads

    pub fn exists(&self, path: &str) -> bool {
        self.nodes.contains_key(path)
    }

    pub fn stat(&self, path: &str) -> ZkResult<NodeStat> {
        self.nodes
            .get(path)
            .map(|n| NodeStat {
                version: n.version,
                kind: n.kind,
                owner: n.owner,
                created_at: n.created_at,
                modified_at: n.modified_at,
                num_children: n.children.len(),
            })
            .ok_or_else(|| ZkError::NoNode {
                path: path.to_string(),
            })
    }

    /// Sorted child *names* (not full paths).
    pub fn get_children(&self, path: &str) -> ZkResult<&[String]> {
        self.nodes
            .get(path)
            .map(|n| n.children.as_slice())
            .ok_or_else(|| ZkError::NoNode {
                path: path.to_string(),
            })
    }

    /// Number of nodes excluding the root.
    pub fn len(&self) -> usize {
        self.nodes.len() - 1
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    // ----------------------------------------------------------------- watches

    /// Register a one-shot watch. The path need not exist yet (a `Node`
    /// watch on a missing path fires on creation).
    pub fn watch(&mut self, path: &str, kind: WatchKind, token: u64) -> ZkResult<()> {
        validate_path(path)?;
        self.watches
            .entry(path.to_string())
            .or_default()
            .push(WatchReg { kind, token });
        Ok(())
    }

    /// Drain all watch events fired since the last drain.
    pub fn drain_events(&mut self) -> Vec<WatchEvent> {
        std::mem::take(&mut self.pending_events)
    }

    /// Whether [`drain_events`] would return anything.
    ///
    /// [`drain_events`]: ZkStore::drain_events
    pub fn has_pending_events(&self) -> bool {
        !self.pending_events.is_empty()
    }

    // ------------------------------------------------------- replicated apply

    /// The single apply path shared by the standalone store and every
    /// replica of the replicated coordination plane: apply one logged
    /// operation at the (replicated) timestamp `at`.
    ///
    /// Apply is a pure function of `(state, op, at)`; errors are
    /// deterministic committed outcomes (a `BadVersion` commits on every
    /// replica and returns `Err` on every replica), never rollbacks.
    pub fn apply(&mut self, op: &ZkOp, at: SimTime) -> ZkResult<ZkResp> {
        match op {
            ZkOp::Create {
                path,
                data,
                kind,
                session,
            } => self
                .create(path, data, *kind, *session, at)
                .map(|()| ZkResp::Unit),
            ZkOp::CreateRecursive {
                path,
                data,
                kind,
                session,
            } => self
                .create_recursive(path, data, *kind, *session, at)
                .map(|()| ZkResp::Unit),
            ZkOp::SetData {
                path,
                data,
                expected_version,
            } => self
                .set_data(path, data, *expected_version, at)
                .map(ZkResp::Version),
            ZkOp::Delete {
                path,
                expected_version,
            } => self.delete(path, *expected_version, at).map(|()| ZkResp::Unit),
            ZkOp::CreateSession => Ok(ZkResp::Session(self.create_session(at))),
            ZkOp::RefreshSession { session } => {
                Ok(ZkResp::Refreshed(self.refresh_session(*session, at)))
            }
            ZkOp::RefreshSessions { sessions } => {
                Ok(ZkResp::Sessions(self.refresh_sessions(sessions, at)))
            }
            ZkOp::CloseSession { session } => {
                self.close_session(*session, at);
                Ok(ZkResp::Unit)
            }
            ZkOp::ExpireSessions => Ok(ZkResp::Sessions(self.expire_sessions(at))),
            ZkOp::Watch { path, kind, token } => {
                self.watch(path, *kind, *token).map(|()| ZkResp::Unit)
            }
            ZkOp::DrainEvents => Ok(ZkResp::Events(self.drain_events())),
            ZkOp::TouchSessions => {
                self.touch_sessions(at);
                Ok(ZkResp::Unit)
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

    /// A full copy of the logical state, used for follower catchup when
    /// the leader's log has been truncated past the follower's position.
    ///
    /// The deadline queue is not clonable (it is kernel state, not
    /// logical state); it is rebuilt by re-arming every live session at
    /// its current expiry deadline. `expire_sessions` re-validates and
    /// sorts its candidates, so entry provenance never affects the
    /// expiry outcome or order.
    pub fn snapshot(&self) -> ZkStore {
        let mut expiry = DeadlineQueue::new();
        for (id, s) in &self.sessions {
            expiry.arm(Self::expiry_deadline(s), *id);
        }
        ZkStore {
            nodes: self.nodes.clone(),
            sessions: self.sessions.clone(),
            watches: self.watches.clone(),
            pending_events: self.pending_events.clone(),
            next_session: self.next_session,
            expiry,
            expiry_scratch: Vec::new(),
        }
    }

    /// FNV-1a digest of the linearizable-visible state: nodes, sessions
    /// and their ephemeral sets, watch registrations, and undrained
    /// events. Session heartbeat times are deliberately excluded — they
    /// are refreshed wholesale by `TouchSessions` at elections, and two
    /// stores that agree on everything else are observationally equal.
    pub fn state_digest(&self) -> u64 {
        fn eat(h: &mut u64, bytes: &[u8]) {
            *h = hash::fnv1a(*h, bytes);
        }
        fn eat_u64(h: &mut u64, v: u64) {
            eat(h, &v.to_le_bytes());
        }
        let mut h = hash::FNV_OFFSET;
        for (path, node) in &self.nodes {
            eat(&mut h, path.as_bytes());
            eat(&mut h, &node.data);
            eat_u64(&mut h, node.version);
            eat_u64(&mut h, matches!(node.kind, NodeKind::Ephemeral) as u64);
            eat_u64(&mut h, node.owner.map(|s| s.0).unwrap_or(0));
        }
        for (id, s) in &self.sessions {
            eat_u64(&mut h, id.0);
            let mut eph = s.ephemerals.clone();
            eph.sort_unstable();
            for p in &eph {
                eat(&mut h, p.as_bytes());
            }
        }
        for (path, regs) in &self.watches {
            eat(&mut h, path.as_bytes());
            for r in regs {
                eat_u64(&mut h, r.token);
            }
        }
        for ev in &self.pending_events {
            eat(&mut h, ev.path.as_bytes());
            eat_u64(&mut h, ev.token);
        }
        eat_u64(&mut h, self.next_session);
        h
    }

    fn fire(&mut self, path: &str, ev: WatchEventKind) {
        let Some(regs) = self.watches.get_mut(path) else {
            return;
        };
        let mut fired = Vec::new();
        regs.retain(|r| {
            if r.matches(ev) {
                fired.push(WatchEvent {
                    path: path.to_string(),
                    kind: ev,
                    token: r.token,
                });
                false // one-shot: consumed
            } else {
                true
            }
        });
        if regs.is_empty() {
            self.watches.remove(path);
        }
        self.pending_events.extend(fired);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn store() -> ZkStore {
        ZkStore::default()
    }

    #[test]
    fn create_and_read() {
        let mut zk = store();
        zk.create("/a", b"hello", NodeKind::Persistent, None, t(1))
            .unwrap();
        assert_eq!(zk.nodes["/a"].data, b"hello");
        let stat = zk.stat("/a").unwrap();
        assert_eq!(stat.version, 0);
        assert_eq!(stat.kind, NodeKind::Persistent);
        assert_eq!(stat.created_at, t(1));
    }

    #[test]
    fn create_requires_parent() {
        let mut zk = store();
        let err = zk
            .create("/a/b", b"", NodeKind::Persistent, None, t(0))
            .unwrap_err();
        assert!(matches!(err, ZkError::NoParent { .. }));
        zk.create_recursive("/a/b/c", b"x", NodeKind::Persistent, None, t(0))
            .unwrap();
        assert!(zk.exists("/a"));
        assert!(zk.exists("/a/b"));
        assert_eq!(zk.nodes["/a/b/c"].data, b"x");
    }

    #[test]
    fn duplicate_create_rejected() {
        let mut zk = store();
        zk.create("/a", b"", NodeKind::Persistent, None, t(0))
            .unwrap();
        let err = zk
            .create("/a", b"", NodeKind::Persistent, None, t(0))
            .unwrap_err();
        assert!(matches!(err, ZkError::NodeExists { .. }));
    }

    #[test]
    fn path_validation() {
        let mut zk = store();
        for bad in ["relative", "/a/", "/a//b", "/a/./b", "/a/../b", ""] {
            let err = zk
                .create(bad, b"", NodeKind::Persistent, None, t(0))
                .unwrap_err();
            assert!(matches!(err, ZkError::InvalidPath { .. }), "{bad}");
        }
    }

    #[test]
    fn versioned_set_and_delete() {
        let mut zk = store();
        zk.create("/a", b"v0", NodeKind::Persistent, None, t(0))
            .unwrap();
        let v1 = zk.set_data("/a", b"v1", Some(0), t(1)).unwrap();
        assert_eq!(v1, 1);
        let err = zk.set_data("/a", b"v2", Some(0), t(2)).unwrap_err();
        assert!(matches!(
            err,
            ZkError::BadVersion {
                expected: 0,
                actual: 1,
                ..
            }
        ));
        let err = zk.delete("/a", Some(0), t(3)).unwrap_err();
        assert!(matches!(err, ZkError::BadVersion { .. }));
        zk.delete("/a", Some(1), t(3)).unwrap();
        assert!(!zk.exists("/a"));
    }

    #[test]
    fn delete_refuses_non_empty() {
        let mut zk = store();
        zk.create_recursive("/a/b", b"", NodeKind::Persistent, None, t(0))
            .unwrap();
        let err = zk.delete("/a", None, t(1)).unwrap_err();
        assert!(matches!(err, ZkError::NotEmpty { .. }));
        zk.delete("/a/b", None, t(1)).unwrap();
        zk.delete("/a", None, t(1)).unwrap();
    }

    #[test]
    fn children_sorted() {
        let mut zk = store();
        zk.create("/svc", b"", NodeKind::Persistent, None, t(0))
            .unwrap();
        for name in ["c", "a", "b"] {
            zk.create(
                &format!("/svc/{name}"),
                b"",
                NodeKind::Persistent,
                None,
                t(0),
            )
            .unwrap();
        }
        assert_eq!(zk.get_children("/svc").unwrap(), &["a", "b", "c"]);
    }

    #[test]
    fn ephemeral_requires_session_and_dies_with_it() {
        let mut zk = store();
        zk.create("/hb", b"", NodeKind::Persistent, None, t(0))
            .unwrap();
        let err = zk
            .create("/hb/x", b"", NodeKind::Ephemeral, None, t(0))
            .unwrap_err();
        assert!(matches!(err, ZkError::SessionExpired { .. }));

        let sid = zk.create_session(t(0));
        zk.create("/hb/x", b"", NodeKind::Ephemeral, Some(sid), t(0))
            .unwrap();
        assert!(zk.exists("/hb/x"));

        // Heartbeats keep it alive.
        assert!(zk.refresh_session(sid, t(5)));
        assert!(zk.expire_sessions(t(14)).is_empty());
        assert!(zk.exists("/hb/x"));

        // Silence past the timeout kills session and node.
        let expired = zk.expire_sessions(t(16));
        assert_eq!(expired, vec![sid]);
        assert!(!zk.exists("/hb/x"));
        // Late heartbeat cannot resurrect.
        assert!(!zk.refresh_session(sid, t(17)));
        assert!(!zk.session_alive(sid, t(17)));
    }

    #[test]
    fn ephemeral_cannot_have_children() {
        let mut zk = store();
        let sid = zk.create_session(t(0));
        zk.create("/e", b"", NodeKind::Ephemeral, Some(sid), t(0))
            .unwrap();
        let err = zk
            .create("/e/c", b"", NodeKind::Persistent, None, t(0))
            .unwrap_err();
        assert!(matches!(err, ZkError::NoChildrenForEphemerals { .. }));
    }

    #[test]
    fn close_session_removes_ephemerals_only() {
        let mut zk = store();
        let sid = zk.create_session(t(0));
        zk.create("/p", b"", NodeKind::Persistent, None, t(0))
            .unwrap();
        zk.create("/p/e1", b"", NodeKind::Ephemeral, Some(sid), t(0))
            .unwrap();
        zk.create("/p/e2", b"", NodeKind::Ephemeral, Some(sid), t(0))
            .unwrap();
        zk.close_session(sid, t(1));
        assert!(zk.exists("/p"));
        assert!(!zk.exists("/p/e1"));
        assert!(!zk.exists("/p/e2"));
    }

    #[test]
    fn node_watch_fires_once() {
        let mut zk = store();
        zk.create("/a", b"", NodeKind::Persistent, None, t(0))
            .unwrap();
        zk.watch("/a", WatchKind::Node, 7).unwrap();
        zk.set_data("/a", b"x", None, t(1)).unwrap();
        zk.set_data("/a", b"y", None, t(2)).unwrap();
        let events = zk.drain_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, WatchEventKind::DataChanged);
        assert_eq!(events[0].token, 7);
        assert!(zk.drain_events().is_empty());
    }

    #[test]
    fn watch_on_missing_path_fires_on_create() {
        let mut zk = store();
        zk.watch("/later", WatchKind::Node, 1).unwrap();
        zk.create("/later", b"", NodeKind::Persistent, None, t(1))
            .unwrap();
        let events = zk.drain_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, WatchEventKind::Created);
    }

    #[test]
    fn children_watch_fires_on_membership_change() {
        let mut zk = store();
        zk.create("/svc", b"", NodeKind::Persistent, None, t(0))
            .unwrap();
        zk.watch("/svc", WatchKind::Children, 3).unwrap();
        zk.create("/svc/a", b"", NodeKind::Persistent, None, t(1))
            .unwrap();
        let events = zk.drain_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, WatchEventKind::ChildrenChanged);
        // One-shot: second change needs re-registration.
        zk.create("/svc/b", b"", NodeKind::Persistent, None, t(2))
            .unwrap();
        assert!(zk.drain_events().is_empty());
    }

    #[test]
    fn session_expiry_fires_watches_on_ephemerals() {
        let mut zk = store();
        zk.create("/hb", b"", NodeKind::Persistent, None, t(0))
            .unwrap();
        let sid = zk.create_session(t(0));
        zk.create("/hb/h1", b"", NodeKind::Ephemeral, Some(sid), t(0))
            .unwrap();
        zk.watch("/hb/h1", WatchKind::Node, 42).unwrap();
        zk.drain_events();
        zk.expire_sessions(t(100));
        let events = zk.drain_events();
        assert!(events
            .iter()
            .any(|e| e.kind == WatchEventKind::Deleted && e.token == 42));
    }

    #[test]
    fn session_alive_reflects_heartbeats() {
        let mut zk = store();
        let sid = zk.create_session(t(0));
        assert!(zk.session_alive(sid, t(10)));
        assert!(!zk.session_alive(sid, t(11)));
        assert!(!zk.session_alive(SessionId(999), t(0)));
    }
}
