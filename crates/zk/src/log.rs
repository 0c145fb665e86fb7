//! The replicated operation log.
//!
//! Every mutating call on the coordination plane is serialized as a
//! [`ZkOp`], appended to the leader's [`ReplicatedLog`], copied to a
//! majority, and then applied to each replica's [`ZkStore`] through the
//! single shared apply path ([`ZkStore::apply`]). Because apply is a pure
//! function of `(store state, op, at)` and the leader's timestamp is
//! replicated inside each [`LogEntry`], every replica that applies the
//! same prefix reaches bit-identical state.
//!
//! The log is prefix-truncated once it exceeds a configured length;
//! followers that fall behind the truncation horizon catch up by
//! snapshot install instead of log replay (ScalienDB's recipe, PAPERS.md).
//!
//! [`ZkStore`]: crate::store::ZkStore
//! [`ZkStore::apply`]: crate::store::ZkStore::apply

use std::sync::Arc;

use scalewall_sim::SimTime;

use crate::session::SessionId;

/// A mutating coordination-store operation, as replicated through the log.
///
/// This covers the full write surface of [`ZkStore`]: the session
/// lifecycle.
///
/// [`ZkStore`]: crate::store::ZkStore
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZkOp {
    CreateSession,
    RefreshSession {
        session: SessionId,
    },
    /// One commit for a whole heartbeat round: applies exactly as one
    /// [`ZkOp::RefreshSession`] per id, in order, at the entry's
    /// timestamp. The ids sit behind an `Arc` because the op is cloned
    /// once per client attempt and once per replica log.
    RefreshSessions {
        sessions: Arc<[SessionId]>,
    },
    CloseSession {
        session: SessionId,
    },
    ExpireSessions,
    /// Committed by a freshly elected leader as its first entry: resets
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

/// One committed log entry. The leader's clock reading at commit time is
/// part of the entry so followers apply with the same timestamp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// 1-based, dense, monotonically increasing.
    pub index: u64,
    /// Leadership epoch that committed this entry.
    pub epoch: u64,
    /// Leader's sim-clock at commit; replicated so apply is deterministic.
    pub at: SimTime,
    pub op: ZkOp,
}

/// An append-only, prefix-truncatable operation log.
///
/// Under the synchronous-commit model there are no divergent suffixes:
/// entries are only ever appended by a quorum-holding leader and applied
/// immediately, so every replica's log is a prefix of the leader's.
#[derive(Debug, Clone, Default)]
pub struct ReplicatedLog {
    /// Index of `entries[0]`; 1 when nothing has been truncated.
    start: u64,
    entries: Vec<LogEntry>,
}

impl ReplicatedLog {
    pub fn new() -> Self {
        ReplicatedLog {
            start: 1,
            entries: Vec::new(),
        }
    }

    /// Index of the most recent entry; 0 when the log is empty and
    /// untruncated.
    pub fn last_index(&self) -> u64 {
        self.start + self.entries.len() as u64 - 1
    }

    /// Index of the oldest retained entry.
    pub fn first_index(&self) -> u64 {
        self.start
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Append a pre-built entry; its index must be `last_index() + 1`.
    pub fn append(&mut self, entry: LogEntry) {
        debug_assert_eq!(entry.index, self.last_index() + 1, "non-dense append");
        self.entries.push(entry);
    }

    /// The retained tail starting at `from` (inclusive), or `None` if
    /// `from` has been truncated away (the caller needs a snapshot).
    pub fn tail_from(&self, from: u64) -> Option<&[LogEntry]> {
        if from < self.start {
            return None;
        }
        let off = (from - self.start) as usize;
        Some(self.entries.get(off.min(self.entries.len())..).unwrap_or(&[]))
    }

    /// Drop entries so that at most `keep` remain.
    pub fn truncate_to_last(&mut self, keep: usize) {
        if self.entries.len() > keep {
            let drop = self.entries.len() - keep;
            self.entries.drain(..drop);
            self.start += drop as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(i: u64) -> LogEntry {
        LogEntry {
            index: i,
            epoch: 1,
            at: SimTime::from_secs(i),
            op: ZkOp::CreateSession,
        }
    }

    #[test]
    fn append_and_tail() {
        let mut log = ReplicatedLog::new();
        assert_eq!(log.last_index(), 0);
        for i in 1..=5 {
            log.append(entry(i));
        }
        assert_eq!(log.last_index(), 5);
        assert_eq!(log.tail_from(1).unwrap().len(), 5);
        assert_eq!(log.tail_from(4).unwrap().len(), 2);
        assert_eq!(log.tail_from(6).unwrap().len(), 0);
    }

    #[test]
    fn truncation_forces_snapshot_path() {
        let mut log = ReplicatedLog::new();
        for i in 1..=10 {
            log.append(entry(i));
        }
        log.truncate_to_last(3);
        assert_eq!(log.first_index(), 8);
        assert_eq!(log.last_index(), 10);
        assert!(log.tail_from(7).is_none(), "truncated tail must be None");
        assert_eq!(log.tail_from(8).unwrap().len(), 3);
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
}
