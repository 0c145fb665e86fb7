//! Shard migration workflows.
//!
//! "There are two types of shard migration: *live* shard migrations and
//! *failovers*" (§III-A2), plus the zero-downtime *graceful* variant
//! (§IV-E). Each migration is an explicit state machine advanced under
//! simulated time by [`SmServer::advance_migrations`]; the phases map
//! one-to-one onto the endpoint sequence the paper lists:
//!
//! ```text
//! graceful:  prepareAddShard(new) → [copy] → prepareDropShard(old)
//!            → addShard(new) → publish to SMC → [propagation wait]
//!            → dropShard(old)
//! plain:     addShard(new) → [copy] → publish to SMC → dropShard(old)
//! failover:  addShard(new, Failover) → [recovery copy] → publish to SMC
//! ```
//!
//! The interesting difference is *when clients can be wrong*: in a plain
//! migration the old server drops the shard while stale SMC caches still
//! route to it (an error window); in a graceful migration the old server
//! forwards during that window instead, so no request fails.
//!
//! [`SmServer::advance_migrations`]: crate::server::SmServer::advance_migrations

use scalewall_sim::{SimDuration, SimTime};

use crate::ids::{HostId, ShardId};

/// Unique migration identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MigrationId(pub u64);

/// Which workflow this migration follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationKind {
    /// Live migration without the graceful protocol: a brief error window
    /// exists while discovery propagates.
    Plain,
    /// Zero-downtime live migration using prepare endpoints + forwarding.
    Graceful,
    /// Source host is dead; data recovered from a healthy replica/region.
    Failover,
}

/// Current phase of a migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationPhase {
    /// Data copy to the new server is in flight; completes at `deadline`.
    Copying,
    /// (Graceful only) new server owns the shard, old server forwards;
    /// waiting out the discovery propagation window until `deadline`.
    Forwarding,
    /// Finished successfully.
    Done,
    /// Abandoned (e.g. target died mid-copy, or the shard was
    /// deallocated).
    Failed,
}

/// Why a migration was started (for operational accounting — Fig 4d counts
/// daily migrations across all causes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationCause {
    LoadBalance,
    Drain,
    HostFailure,
    Manual,
}

/// Full record of one migration, live or completed.
#[derive(Debug, Clone)]
pub struct MigrationRecord {
    pub id: MigrationId,
    pub shard: ShardId,
    /// Source host (for a failover, the dead one).
    pub from: HostId,
    pub to: HostId,
    pub kind: MigrationKind,
    pub cause: MigrationCause,
    pub phase: MigrationPhase,
    pub started_at: SimTime,
    /// When the current phase completes.
    pub deadline: SimTime,
    pub finished_at: Option<SimTime>,
    /// Bytes moved (drives the copy-time model).
    pub bytes: u64,
}

impl MigrationRecord {
    pub fn is_finished(&self) -> bool {
        matches!(self.phase, MigrationPhase::Done | MigrationPhase::Failed)
    }

    /// Whether requests for the shard routed to the *old* server right now
    /// would be served (directly or by forwarding).
    ///
    /// * `Copying`: old server still owns the shard — serves normally
    ///   (failover excepted: the old server is dead).
    /// * `Forwarding`: graceful protocol — old server forwards; plain
    ///   migrations never enter this phase.
    pub fn old_server_serves(&self) -> bool {
        match self.kind {
            MigrationKind::Failover => false,
            MigrationKind::Plain | MigrationKind::Graceful => !self.is_finished(),
        }
    }
}

/// Sequential copy bandwidth for live migrations (old → new server, same
/// region), bytes/sec: ~1 GiB/s intra-region.
const LIVE_COPY_BANDWIDTH: f64 = 1_073_741_824.0;

/// Recovery bandwidth for failovers (cross-region download), bytes/sec:
/// ~256 MiB/s.
const FAILOVER_COPY_BANDWIDTH: f64 = 268_435_456.0;

/// Fixed per-migration overhead (metadata creation, RPC setup).
const FIXED_OVERHEAD: SimDuration = SimDuration::from_millis(250);

/// How long the graceful protocol waits after publishing the new mapping
/// before dropping the old replica — "Cubrick waits for a pre-defined
/// number of seconds (SMC's usual propagation delay)" (§IV-E).
pub const PROPAGATION_WAIT: SimDuration = SimDuration::from_secs(30);

/// Duration of the data-copy phase for a migration of `bytes`.
pub fn copy_duration(kind: MigrationKind, bytes: u64) -> SimDuration {
    let bandwidth = match kind {
        MigrationKind::Failover => FAILOVER_COPY_BANDWIDTH,
        _ => LIVE_COPY_BANDWIDTH,
    };
    FIXED_OVERHEAD + SimDuration::from_secs_f64(bytes as f64 / bandwidth)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(kind: MigrationKind, phase: MigrationPhase) -> MigrationRecord {
        MigrationRecord {
            id: MigrationId(1),
            shard: ShardId(1),
            from: HostId(1),
            to: HostId(2),
            kind,
            cause: MigrationCause::LoadBalance,
            phase,
            started_at: SimTime::ZERO,
            deadline: SimTime::from_secs(10),
            finished_at: None,
            bytes: 0,
        }
    }

    #[test]
    fn old_server_serves_through_live_migrations() {
        assert!(record(MigrationKind::Plain, MigrationPhase::Copying).old_server_serves());
        assert!(record(MigrationKind::Graceful, MigrationPhase::Copying).old_server_serves());
        assert!(record(MigrationKind::Graceful, MigrationPhase::Forwarding).old_server_serves());
        assert!(!record(MigrationKind::Failover, MigrationPhase::Copying).old_server_serves());
        assert!(!record(MigrationKind::Plain, MigrationPhase::Done).old_server_serves());
    }

    #[test]
    fn finished_detection() {
        assert!(!record(MigrationKind::Plain, MigrationPhase::Copying).is_finished());
        assert!(record(MigrationKind::Plain, MigrationPhase::Done).is_finished());
        assert!(record(MigrationKind::Plain, MigrationPhase::Failed).is_finished());
    }

    #[test]
    fn copy_duration_scales_with_bytes_and_kind() {
        let gib = 1_073_741_824u64;
        let live = copy_duration(MigrationKind::Graceful, gib);
        let fo = copy_duration(MigrationKind::Failover, gib);
        // 1 GiB at 1 GiB/s ≈ 1 s + overhead; cross-region 4× slower.
        assert!((live.as_secs_f64() - 1.25).abs() < 0.01, "{live}");
        assert!((fo.as_secs_f64() - 4.25).abs() < 0.01, "{fo}");
        // Zero bytes still pays fixed overhead.
        let empty = copy_duration(MigrationKind::Plain, 0);
        assert_eq!(empty, FIXED_OVERHEAD);
    }
}
