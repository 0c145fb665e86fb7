//! Client sessions and heartbeat liveness.
//!
//! Application servers heartbeat their session, and when heartbeats stop
//! for longer than the session timeout, the session expires. Shard
//! Manager learns of a dead application server from the expired session
//! ids (§III-A: "If heartbeats stop, SM Server gets notified").

use scalewall_sim::{SimDuration, SimTime};

/// Unique session identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sess-{}", self.0)
    }
}

/// A session expires when no heartbeat is seen for this long.
/// Production Zookeeper session timeouts are typically seconds to tens of
/// seconds; 10 s is a common default.
pub const SESSION_TIMEOUT: SimDuration = SimDuration::from_secs(10);

/// Internal per-session state.
#[derive(Debug, Clone)]
pub(crate) struct Session {
    pub last_heartbeat: SimTime,
}

impl Session {
    pub(crate) fn new(now: SimTime) -> Self {
        Session {
            last_heartbeat: now,
        }
    }

    pub(crate) fn is_expired(&self, now: SimTime) -> bool {
        now.since(self.last_heartbeat) > SESSION_TIMEOUT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expiry_honours_timeout() {
        let t0 = SimTime::from_secs(100);
        let s = Session::new(t0);
        assert!(!s.is_expired(t0));
        assert!(!s.is_expired(t0 + SimDuration::from_secs(10)));
        assert!(s.is_expired(t0 + SimDuration::from_secs(11)));
    }

    #[test]
    fn heartbeat_resets_expiry() {
        let t0 = SimTime::from_secs(0);
        let mut s = Session::new(t0);
        s.last_heartbeat = t0 + SimDuration::from_secs(4);
        assert!(!s.is_expired(t0 + SimDuration::from_secs(12)));
        assert!(s.is_expired(t0 + SimDuration::from_secs(15)));
    }
}
