//! Zookeeper-like coordination store.
//!
//! The paper's Shard Manager persists its state in *Zeus*, Facebook's
//! Zookeeper implementation, and uses it to collect heartbeats from
//! application servers (§III-A "Datastore"). This crate provides the
//! semantics SM actually depends on, in process and under simulated time:
//!
//! * a hierarchical namespace of versioned **znodes** ([`store`]),
//! * **ephemeral** nodes bound to client **sessions** that expire when
//!   heartbeats stop ([`session`]),
//! * one-shot **watches** that fire on create / data change / delete /
//!   children change ([`watch`]).
//!
//! The store is deliberately synchronous and single-writer: the simulation
//! driver owns it and advances its clock, which keeps every run
//! deterministic. Nothing here knows about shards — it is a general
//! coordination substrate.
//!
//! Since the replicated-coordination PR the store also has a fault-
//! tolerant deployment shape: a [`replica::ZkEnsemble`] of 3–5 replicas
//! homed across fault regions, with lease-based deterministic leader
//! failover and a majority-replicated [`log::ReplicatedLog`] of every
//! mutating op. [`replica::CoordinationPlane`] is the endpoint the shard
//! manager talks to — either the original single store or the ensemble.

pub mod error;
pub mod log;
pub mod replica;
pub mod session;
pub mod store;
pub mod watch;

pub use error::{ZkError, ZkResult};
pub use log::{LogEntry, ReplicatedLog, ZkOp, ZkResp};
pub use replica::{CoordinationPlane, ZkClient, ZkEnsemble, ZkReplica, ZkReplicationConfig};
pub use session::{SessionId, SESSION_TIMEOUT};
pub use store::{NodeKind, NodeStat, ZkStore};
pub use watch::{WatchEvent, WatchEventKind, WatchKind};
