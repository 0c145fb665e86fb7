//! Shard migration workflows.
//!
//! "There are two types of shard migration: *live* shard migrations and
//! *failovers*" (§III-A2), plus the zero-downtime *graceful* variant
//! (§IV-E), whose order is prepareAddShard(new) → [copy] →
//! prepareDropShard(old) → addShard(new) → publish → [propagation wait]
//! → dropShard(old). `begin_migration` makes the first call (`addShard`
//! for a plain copy or a failover) and opens the record in `Copying`;
//! from there `SmServer::transition` alone moves it:
//!
//! ```text
//! kind             phase       event        calls                    next
//! graceful         Copying     DeadlineDue  prepareDropShard(old),   Forwarding
//!                                           addShard(new), publish   (PROPAGATION_WAIT)
//! graceful         Forwarding  DeadlineDue  —                        Done
//! plain, failover  Copying     DeadlineDue  publish                  Done
//! any              unfinished  Abort        —                        Failed
//! ```
//!
//! **Terminal rule.** Entering `Done` or `Failed`, every reachable end
//! (`from`, `to`) that is not the shard's assignment gets `dropShard`:
//! the old server after a move, and whichever end an abort (an end died,
//! or the shard was released) left holding, prepared or forwarding. A
//! failover's source is dead, unless it rejoined and reloaded the shard.
//!
//! Plain and graceful differ in *when clients can be wrong*: a plain move
//! drops the old copy while stale SMC caches still route to it (an error
//! window); a graceful one forwards through that window instead.

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
