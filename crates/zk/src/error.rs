//! Error type for coordination-plane operations.

use std::fmt;

/// Result alias for coordination-plane operations.
pub type ZkResult<T> = Result<T, ZkError>;

/// Why the coordination plane did not commit an operation. Every op the
/// session table applies succeeds, so each variant is a replication-plane
/// refusal, never a committed outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZkError {
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
