//! Deterministic discrete-event simulation substrate for the `scalewall`
//! reproduction of *Interactive Analytic DBMSs: Breaching the Scalability
//! Wall* (ICDE 2021).
//!
//! The paper's evaluation ran on a production fleet of thousands of servers;
//! this crate replaces that hardware with a deterministic simulation kernel:
//!
//! * [`time`] — simulated time as integer nanoseconds ([`SimTime`],
//!   [`SimDuration`]); a simulated week advances event time only.
//! * [`event`] — a binary-heap event queue ordered by `(time, seq)`, so
//!   equal-time events pop in schedule order and the same seed always
//!   replays the same history (see `DESIGN.md` §5 for the ordering
//!   contract), plus the [`DeadlineQueue`] built on it.
//! * [`rng`] — seedable, forkable random source ([`SimRng`]); every stochastic
//!   process in the workspace draws from one of these, forked from an
//!   [`RngRoot`] under a [`Stream`] label.
//! * [`dist`] — the parametric families used by the paper's models:
//!   exponential (Poisson inter-arrival gaps), normal/log-normal (tail
//!   latency), Pareto (heavy tails), Zipf (access skew) and Bernoulli
//!   (instantaneous failures).
//! * [`stats`] — online statistics: log-bucketed latency histograms with
//!   percentile queries and daily time-series counters.
//! * [`sync`] — a poison-free `RwLock` wrapper over `std::sync`
//!   (the workspace is hermetic: no external lock crates).
//! * [`hash`] — the stable hashes (FNV-1a, the SplitMix64 finaliser)
//!   behind shard mapping, row routing, replay digests and seed streams.
//! * [`prop`] — a lightweight property-based testing harness over
//!   [`SimRng`], used by every crate's invariant suites.
//! * [`json`] — the workspace's one JSON codec: value type, strict
//!   linear-time parser and string escaper behind every `BENCH_*.json`
//!   and benchmark result file.
//!
//! Nothing in this crate knows about databases or shards; it is the
//! hardware-and-physics layer everything else runs on.

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

pub mod dist;
pub mod event;
pub mod hash;
pub mod json;
pub mod prop;
pub mod rng;
pub mod stats;
pub mod sync;
pub mod time;

pub use dist::{Bernoulli, Exponential, LogNormal, Normal, Pareto, TailLatency, Zipf};
pub use event::{DeadlineQueue, EventQueue, ScheduledEvent};
pub use rng::{FaultRng, RngRoot, SimRng, Stream};
pub use stats::{DailyCounter, Histogram, Summary};
pub use time::{SimDuration, SimTime};
