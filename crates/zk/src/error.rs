//! Error type for coordination-store operations.

use std::fmt;

/// Result alias for store operations.
pub type ZkResult<T> = Result<T, ZkError>;

/// Errors mirroring the classic Zookeeper error surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZkError {
    /// The target node does not exist.
    NoNode { path: String },
    /// A node already exists at the target path.
    NodeExists { path: String },
    /// The parent of the target path does not exist.
    NoParent { path: String },
    /// Delete refused because the node still has children.
    NotEmpty { path: String },
    /// Conditional write failed: expected vs actual version.
    BadVersion {
        path: String,
        expected: u64,
        actual: u64,
    },
    /// Ephemeral nodes cannot have children.
    NoChildrenForEphemerals { path: String },
    /// The session is unknown or has expired.
    SessionExpired { session: u64 },
    /// The path is syntactically invalid.
    InvalidPath { path: String, reason: &'static str },
    /// The contacted replica is not the leader. `hint` carries the
    /// current leader's replica id when one is known; `None` means the
    /// ensemble is leaderless (lease not yet expired, or no quorum) and
    /// the client should retry another replica.
    NotLeader { hint: Option<u32> },
    /// First session-scoped operation to reach a leader elected after
    /// the session last spoke: the session's connection "moved" across a
    /// failover. The refusal doubles as the reconnect handshake — an
    /// immediate retry of the same operation succeeds. A batched op is
    /// refused once for all of its stale sessions: `session` is the
    /// first of them and `moved` counts them (1 for a single-session op).
    SessionMoved { session: u64, moved: u64 },
    /// The replica id is not a member of the ensemble — a malformed
    /// ensemble config (or an id computed against a different config)
    /// degrades to this instead of an out-of-bounds panic mid-failover.
    UnknownReplica { id: u32 },
    /// A committed operation produced a response of the wrong shape —
    /// a replication-plane invariant breach surfaced as a typed error
    /// so the experiment degrades instead of panicking mid-replay.
    UnexpectedResponse { op: &'static str },
}

impl fmt::Display for ZkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ZkError::NoNode { path } => write!(f, "no node at {path}"),
            ZkError::NodeExists { path } => write!(f, "node already exists at {path}"),
            ZkError::NoParent { path } => write!(f, "parent of {path} does not exist"),
            ZkError::NotEmpty { path } => write!(f, "node {path} has children"),
            ZkError::BadVersion {
                path,
                expected,
                actual,
            } => {
                write!(
                    f,
                    "bad version for {path}: expected {expected}, actual {actual}"
                )
            }
            ZkError::NoChildrenForEphemerals { path } => {
                write!(f, "ephemeral node {path} cannot have children")
            }
            ZkError::SessionExpired { session } => write!(f, "session {session} expired"),
            ZkError::InvalidPath { path, reason } => write!(f, "invalid path {path:?}: {reason}"),
            ZkError::NotLeader { hint: Some(id) } => write!(f, "not leader; try replica {id}"),
            ZkError::NotLeader { hint: None } => write!(f, "not leader; ensemble leaderless"),
            ZkError::SessionMoved { session, moved } => {
                write!(
                    f,
                    "session {session} moved across a failover ({moved} in this op); reconnect"
                )
            }
            ZkError::UnknownReplica { id } => {
                write!(f, "replica {id} is not a member of the ensemble")
            }
            ZkError::UnexpectedResponse { op } => {
                write!(f, "unexpected response shape for {op}")
            }
        }
    }
}

impl std::error::Error for ZkError {}

impl ZkError {
    /// Whether a client-side retry (possibly against a different
    /// replica) can succeed without the caller changing the request.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            ZkError::NotLeader { .. } | ZkError::SessionMoved { .. }
        )
    }
}
