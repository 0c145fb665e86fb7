//! Zookeeper-like coordination store.
//!
//! The paper's Shard Manager uses *Zeus*, Facebook's Zookeeper
//! implementation, to collect heartbeats from application servers
//! (§III-A "Datastore"). Heartbeat liveness is all SM reads from it, so
//! this crate provides exactly that, in process and under simulated time:
//! a table of client **sessions** that expire when heartbeats stop
//! ([`session`], [`store`]).
//!
//! The store is deliberately synchronous and single-writer: the simulation
//! driver owns it and advances its clock, which keeps every run
//! deterministic. Nothing here knows about shards.
//!
//! The store runs as the replicas of a [`replica::ZkEnsemble`], with
//! lease-based deterministic leader failover. Every mutating op
//! ([`store::ZkOp`]) is applied on a majority before it is acknowledged,
//! and a replica that missed commits copies the leader's store.
//! [`replica::CoordinationPlane`] is the endpoint the shard manager talks
//! to: 3 or 5 replicas homed across fault regions when replicated, one
//! replica no fault reaches otherwise.

// Tests may unwrap, expect and panic; library code may not (DESIGN.md §5c).
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(test, allow(clippy::panic, clippy::unreachable))]

pub mod error;
pub mod replica;
pub mod session;
pub mod store;

pub use error::{ZkError, ZkResult};
pub use replica::{CoordinationPlane, ZkClient, ZkEnsemble, ZkReplica, ZkReplicationConfig};
pub use session::{SessionId, SESSION_TIMEOUT};
pub use store::{ZkOp, ZkResp, ZkStore};
