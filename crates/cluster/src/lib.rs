//! Cluster harness: the simulated deployment every experiment runs on.
//!
//! This crate replaces the paper's production fleet. It wires the real
//! pieces together — `cubrick` nodes, one `scalewall-shard-manager`
//! per region, a shared catalog, service discovery with propagation
//! delay — and adds the parts only a datacenter can otherwise provide:
//! a network/tail-latency model, failure processes, and workload
//! generators.
//!
//! * [`registry`] — the per-region map of live Cubrick nodes (SM's view
//!   of application servers).
//! * [`deployment`] — a three-region deployment: create tables, ingest,
//!   fail/repair/drain hosts, advance time.
//! * [`net`] — per-request latency and transient-failure models (the
//!   Dean & Barroso tail environment behind Figs 1, 2 and 5).
//! * [`driver`] — the end-to-end query path: proxy → region → coordinator
//!   → fan-out → merge, with retries and stale-discovery semantics.
//! * [`workload`] — table populations (log-normal sizes), row and query
//!   generators, Zipf access skew.
//! * [`experiment`] — the discrete-event experiment engine used by the
//!   week-long operational figures (4d, 4e, 4f).
//! * [`traffic`] — production offered-load curves: diurnal sinusoid,
//!   flash crowds, QoS-class tenant mix, non-homogeneous Poisson
//!   arrivals by thinning.
//! * [`fault`] — correlated fault scenarios (rack/region outages,
//!   inter-region partitions, drain storms) as a replayable script DSL.
//! * [`wall`] — the analytic scalability-wall model (Figs 1 and 2) plus
//!   Monte-Carlo cross-check.
//! * [`report`] — plain-text table/CSV rendering for the bench binaries.

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

pub mod deployment;
pub mod driver;
pub mod experiment;
pub mod fault;
pub mod net;
pub mod registry;
pub mod report;
pub mod traffic;
pub mod wall;
pub mod workload;

pub use deployment::{Deployment, DeploymentConfig, RegionState};
pub use driver::{run_query, QueryOptions, QueryOutcome};
pub use fault::{FaultKind, FaultScript};
pub use net::{NetModel, NetModelConfig};
pub use registry::NodeRegistry;
pub use traffic::{FlashCrowd, QosConfig, QosStats, TrafficConfig, TrafficModel};
pub use wall::{success_ratio, wall_point};
pub use workload::{TablePopulation, TableSpec, WorkloadConfig};
