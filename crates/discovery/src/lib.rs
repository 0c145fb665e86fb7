//! Service discovery (the paper's **SMC** — Services Management
//! Configuration).
//!
//! SMC exposes shard ↔ server mappings to clients. Because the number of
//! clients is large, it distributes data through a **multi-level caching
//! tree** backed by a local proxy on every host — which means a mapping
//! update published by SM Server takes a few seconds to become visible to
//! every client (§III-A; the delay distribution is the paper's Fig 4c).
//!
//! This crate models exactly that:
//!
//! * [`map`] — the authoritative, versioned shard → history store that
//!   SM Server owns and publishes its one application's assignments into.
//! * [`delay`] — the propagation-delay model: per (subscriber, update) the
//!   delay is the sum of per-level hop delays plus local-proxy poll jitter,
//!   sampled *lazily and deterministically* from a hash of the pair, so we
//!   never materialize `updates × hosts` state.
//! * [`cache`] — the per-host view: `resolve(store, shard, now)`
//!   returns the value the host's local proxy would have seen by `now`,
//!   i.e. possibly stale; a [`Route`] holds that answer for a whole shard
//!   list until it can change. The view borrows the store per lookup.
//!
//! The staleness is load-bearing for the reproduction: Cubrick's graceful
//! shard migration protocol (§IV-E) exists precisely because clients keep
//! routing to the old server until SMC propagation completes.

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

pub mod cache;
pub mod delay;
pub mod map;

pub use cache::{DiscoveryClient, Route};
pub use delay::{DelayModel, DELAY_SEED};
pub use map::{MappingStore, MappingUpdate};
