//! **Shard Manager (SM)** — sharding-as-a-service, re-implemented from the
//! description in §III of *Breaching the Scalability Wall* (ICDE 2021).
//!
//! SM abstracts every shard-management task a sharded application would
//! otherwise hand-roll: shard placement, load balancing on
//! application-exported metrics, live and graceful shard migration,
//! failover on heartbeat loss, drain/maintenance safety checks, and
//! machine-automation integration. Applications only implement the
//! [`AppServer`] endpoints (`prepare_add_shard`, `add_shard`,
//! `prepare_drop_shard`, `drop_shard`) and export per-shard metrics plus a
//! host capacity — exactly the contract the paper's Cubrick integrates
//! against.
//!
//! Module map:
//!
//! * [`ids`] — host and shard identifiers, failure-domain topology.
//! * [`spec`] — the configuration of the one application a server runs:
//!   name, shard space and balancer tunables. The app is primary-only:
//!   one host per shard.
//! * [`app_server`] — the application-side trait and migration contexts.
//! * [`error`] — SM and application error surfaces, including the
//!   *non-retryable* rejection applications use to veto a placement
//!   (Cubrick's shard-collision defence, §IV-A).
//! * [`placement`] — capacity- and spread-aware target selection.
//! * [`balancer`] — the load-balancing pass: per-host load from per-shard
//!   application metrics, greedy rebalancing proposals, migration throttle.
//! * [`migration`] — migration workflows as explicit state machines: plain
//!   live migration, zero-downtime *graceful* migration
//!   (`prepareAddShard → prepareDropShard → addShard → discovery
//!   propagation wait → dropShard`, §IV-E), and failover.
//! * [`server`] — [`SmServer`], the server of one application:
//!   assignment authority, heartbeat monitor (via the `scalewall-zk`
//!   store), discovery publisher, drain engine.
//! * [`automation`] — data-center automation front door: maintenance
//!   requests with safety checks (§IV-G).
//!
//! Clients resolve shards through `scalewall-discovery`'s
//! `DiscoveryClient`, borrowing the mappings [`SmServer::mappings`] holds.

// Tests may unwrap, expect and panic; library code may not (DESIGN.md §5c).
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

pub mod app_server;
pub mod automation;
pub mod balancer;
pub mod error;
pub mod ids;
pub mod migration;
pub mod placement;
pub mod server;
pub mod spec;

pub use app_server::{AddShardReason, AppServer, AppServerRegistry, ShardContext};
pub use automation::{AutomationEngine, MaintenanceRequest, MaintenanceVerdict};
pub use balancer::{BalanceProposal, BalancerStats};
pub use error::{AppError, SmError, SmResult};
pub use ids::{HostId, HostInfo, HostState, Rack, Region, ShardId};
pub use migration::{MigrationCause, MigrationId, MigrationKind, MigrationPhase, MigrationRecord};
pub use placement::SpreadHint;
pub use server::{SmConfig, SmServer};
pub use spec::{AppSpec, BalancerConfig, SpreadDomain};
