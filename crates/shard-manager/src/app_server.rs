//! The application-server contract.
//!
//! "Application Servers are fully responsible for implementing the
//! business logic of addShard() and dropShard() endpoints" (§III-A). SM
//! calls these endpoints during initial allocation, live migration,
//! graceful migration and failover; the [`ShardContext`] tells the
//! application *why* it is being asked, and — for stateful recovery —
//! where the data can be copied from.

use crate::error::AppError;
use crate::ids::{HostId, ShardId};

/// Why SM is invoking a shard endpoint on this host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddShardReason {
    /// Brand-new shard allocation (no prior data exists).
    NewAllocation,
    /// Live migration: the source host is healthy and can be copied from.
    LiveMigration,
    /// Failover: the source host is dead; data must be recovered from
    /// elsewhere (for Cubrick, a healthy replica in a different region).
    Failover,
}

/// Context passed to every shard endpoint invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardContext {
    pub shard: ShardId,
    pub reason: AddShardReason,
    /// Host currently (or previously) responsible for the shard, if any.
    /// For `LiveMigration` this is the healthy source; for `Failover` it is
    /// the dead host (useful for logging, not for recovery).
    pub source: Option<HostId>,
}

impl ShardContext {
    pub fn new(shard: ShardId, reason: AddShardReason, source: Option<HostId>) -> Self {
        ShardContext {
            shard,
            reason,
            source,
        }
    }
}

/// The endpoints an application links into its server binary.
///
/// All methods are invoked by SM Server (never by clients) and run on the
/// *target* host of the operation. Implementations return [`AppError`] to
/// signal failure; a non-retryable error makes SM pick a different target.
pub trait AppServer {
    /// Graceful migration step 1 on the *new* server: pre-copy data and be
    /// ready to answer forwarded requests for the shard (§IV-E).
    fn prepare_add_shard(&mut self, ctx: ShardContext) -> Result<(), AppError>;

    /// Take responsibility for the shard. For a plain (non-graceful) add
    /// this also performs any data recovery the context requires.
    fn add_shard(&mut self, ctx: ShardContext) -> Result<(), AppError>;

    /// Graceful migration step 2 on the *old* server: start forwarding all
    /// requests for the shard to the new server.
    fn prepare_drop_shard(&mut self, ctx: ShardContext, target: HostId) -> Result<(), AppError>;

    /// Drop the shard's data and metadata, prepared and forwarding state included.
    fn drop_shard(&mut self, ctx: ShardContext) -> Result<(), AppError>;

    /// Invoked by SM when the asynchronous data copy behind a previous
    /// `prepare_add_shard`/`add_shard` finishes and the shard's data is
    /// fully present on this host. Default: no-op (stateless apps).
    fn on_copy_complete(&mut self, _ctx: ShardContext) {}

    /// Per-shard load metrics, in the application's chosen unit (§III-A3:
    /// metrics are exported *per-shard* so SM can handle asymmetric
    /// shards). Only shards this host currently stores are reported.
    fn shard_metrics(&self) -> Vec<(ShardId, f64)>;

    /// Generations of all [`shard_metrics`](Self::shard_metrics) reads:
    /// a stamp the same server gave before promises a bit-identical report
    /// (so the poll may skip it); `None`, the default, promises nothing. A
    /// server put behind a host id must not repeat its predecessor's.
    fn metrics_stamp(&self) -> Option<[u64; 3]> {
        None
    }

    /// This host's current total capacity in the same unit. Applications
    /// may change it over time (heterogeneous hardware, §III-A3; Cubrick's
    /// compression-ratio-scaled capacity, §IV-F2).
    fn capacity(&self) -> f64;

    /// Bytes that must move to migrate this shard (drives simulated copy
    /// time). Defaults to the metric value, which is correct whenever the
    /// metric is a byte count.
    fn shard_transfer_bytes(&self, shard: ShardId) -> u64 {
        self.shard_metrics()
            .iter()
            .find(|(s, _)| *s == shard)
            .map(|&(_, w)| w.max(0.0) as u64)
            .unwrap_or(0)
    }
}

/// How SM reaches the application server running on a given host.
///
/// The cluster harness owns the actual server objects; SM borrows them
/// through this registry during migration workflows. Returning `None`
/// means the host is unreachable (SM treats endpoint calls to it as
/// retryable failures).
pub trait AppServerRegistry {
    fn server(&mut self, host: HostId) -> Option<&mut dyn AppServer>;

    /// The same server for callers that only read it (the metric poll's
    /// `capacity` and `shard_metrics`). A registry that keeps count of
    /// what it lends mutably overrides this so that a poll is not counted.
    fn server_ref(&mut self, host: HostId) -> Option<&dyn AppServer> {
        self.server(host).map(|server| &*server)
    }
}

/// A trivial in-memory application server for tests: accepts every shard,
/// tracks what it stores, and can be programmed to veto specific shards
/// (imitating Cubrick's collision veto).
#[derive(Debug, Default)]
pub struct MockAppServer {
    pub shards: std::collections::BTreeMap<u64, f64>,
    /// Shards this server refuses with a non-retryable error.
    pub vetoed: std::collections::BTreeSet<u64>,
    pub capacity: f64,
    /// Shards currently in "prepared" state (graceful migration step 1).
    pub prepared: std::collections::BTreeSet<u64>,
    /// Shards currently being forwarded to a new owner.
    pub forwarding: std::collections::BTreeMap<u64, HostId>,
    pub default_shard_weight: f64,
    /// What `metrics_stamp` answers: a test that sets it moves it with
    /// `shards`. `metric_calls` counts `shard_metrics` calls.
    pub stamp: Option<[u64; 3]>,
    pub metric_calls: std::cell::Cell<u64>,
}

impl MockAppServer {
    pub fn with_capacity(capacity: f64) -> Self {
        MockAppServer {
            capacity,
            default_shard_weight: 1.0,
            ..Default::default()
        }
    }
}

impl AppServer for MockAppServer {
    fn prepare_add_shard(&mut self, ctx: ShardContext) -> Result<(), AppError> {
        if self.vetoed.contains(&ctx.shard.0) {
            return Err(AppError::non_retryable("vetoed"));
        }
        self.prepared.insert(ctx.shard.0);
        Ok(())
    }

    fn add_shard(&mut self, ctx: ShardContext) -> Result<(), AppError> {
        if self.vetoed.contains(&ctx.shard.0) {
            return Err(AppError::non_retryable("vetoed"));
        }
        self.prepared.remove(&ctx.shard.0);
        self.shards.insert(ctx.shard.0, self.default_shard_weight);
        Ok(())
    }

    fn prepare_drop_shard(&mut self, ctx: ShardContext, target: HostId) -> Result<(), AppError> {
        if !self.shards.contains_key(&ctx.shard.0) {
            return Err(AppError::retryable("shard not here"));
        }
        self.forwarding.insert(ctx.shard.0, target);
        Ok(())
    }

    fn drop_shard(&mut self, ctx: ShardContext) -> Result<(), AppError> {
        self.forwarding.remove(&ctx.shard.0);
        self.prepared.remove(&ctx.shard.0);
        self.shards
            .remove(&ctx.shard.0)
            .map(|_| ())
            .ok_or_else(|| AppError::retryable("shard not here"))
    }

    fn shard_metrics(&self) -> Vec<(ShardId, f64)> {
        self.metric_calls.set(self.metric_calls.get() + 1);
        self.shards.iter().map(|(&s, &w)| (ShardId(s), w)).collect()
    }

    fn metrics_stamp(&self) -> Option<[u64; 3]> {
        self.stamp
    }

    fn capacity(&self) -> f64 {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(shard: u64) -> ShardContext {
        ShardContext {
            shard: ShardId(shard),
            reason: AddShardReason::NewAllocation,
            source: None,
        }
    }

    #[test]
    fn mock_add_drop_cycle() {
        let mut s = MockAppServer::with_capacity(10.0);
        s.add_shard(ctx(1)).unwrap();
        assert_eq!(s.shard_metrics(), vec![(ShardId(1), 1.0)]);
        s.drop_shard(ctx(1)).unwrap();
        assert!(s.shard_metrics().is_empty());
        assert!(s.drop_shard(ctx(1)).is_err());
    }

    #[test]
    fn mock_veto_is_non_retryable() {
        let mut s = MockAppServer::with_capacity(10.0);
        s.vetoed.insert(5);
        let err = s.add_shard(ctx(5)).unwrap_err();
        assert!(!err.is_retryable());
        let err = s.prepare_add_shard(ctx(5)).unwrap_err();
        assert!(!err.is_retryable());
    }

    #[test]
    fn graceful_steps_track_state() {
        let mut old = MockAppServer::with_capacity(10.0);
        let mut new = MockAppServer::with_capacity(10.0);
        old.add_shard(ctx(3)).unwrap();
        new.prepare_add_shard(ctx(3)).unwrap();
        assert!(new.prepared.contains(&3));
        old.prepare_drop_shard(ctx(3), HostId(99)).unwrap();
        assert_eq!(old.forwarding.get(&3), Some(&HostId(99)));
        new.add_shard(ctx(3)).unwrap();
        assert!(!new.prepared.contains(&3));
        old.drop_shard(ctx(3)).unwrap();
        assert!(old.forwarding.is_empty());
    }

    #[test]
    fn transfer_bytes_defaults_to_metric() {
        let mut s = MockAppServer::with_capacity(10.0);
        s.default_shard_weight = 123.0;
        s.add_shard(ctx(7)).unwrap();
        assert_eq!(s.shard_transfer_bytes(ShardId(7)), 123);
        assert_eq!(s.shard_transfer_bytes(ShardId(8)), 0);
    }
}
