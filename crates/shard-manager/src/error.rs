//! Error surfaces.
//!
//! Two layers: [`AppError`] is what application servers return from the
//! `addShard`/`dropShard` family; [`SmError`] is what SM itself raises.
//! The crucial application-side distinction is *retryable* vs
//! *non-retryable*: "a non-retryable exception alerts SM server that the
//! application server cannot take this particular shard, and that it
//! should try migrating it somewhere else" (§IV-A) — Cubrick's veto
//! against shard collisions.

use std::fmt;

use crate::ids::{HostId, ShardId};

/// Result alias for SM operations.
pub type SmResult<T> = Result<T, SmError>;

/// Errors returned by application-server endpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppError {
    /// Transient failure; SM may retry the same operation on the same host.
    Retryable { reason: String },
    /// Permanent rejection of this shard on this host; SM must pick a
    /// different target.
    NonRetryable { reason: String },
}

impl AppError {
    pub fn retryable(reason: impl Into<String>) -> Self {
        AppError::Retryable {
            reason: reason.into(),
        }
    }

    pub fn non_retryable(reason: impl Into<String>) -> Self {
        AppError::NonRetryable {
            reason: reason.into(),
        }
    }

    pub fn is_retryable(&self) -> bool {
        matches!(self, AppError::Retryable { .. })
    }
}

impl fmt::Display for AppError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AppError::Retryable { reason } => write!(f, "retryable: {reason}"),
            AppError::NonRetryable { reason } => write!(f, "non-retryable: {reason}"),
        }
    }
}

impl std::error::Error for AppError {}

/// Errors raised by SM server operations.
#[derive(Debug, Clone, PartialEq)]
pub enum SmError {
    /// Unknown host.
    UnknownHost { host: HostId },
    /// Host already registered.
    HostExists { host: HostId },
    /// Shard id outside the app's key space.
    ShardOutOfRange { shard: ShardId, max_shards: u64 },
    /// Shard already has an assignment.
    AlreadyAssigned { shard: ShardId },
    /// Shard has no assignment.
    NotAssigned { shard: ShardId },
    /// No host satisfies capacity + spread constraints for a placement.
    NoFeasibleHost { shard: ShardId, needed_weight: f64 },
    /// The application vetoed every candidate target.
    AllTargetsVetoed { shard: ShardId, attempts: usize },
    /// A maintenance request failed its safety checks, or an app spec
    /// its validation.
    SafetyCheckFailed { reason: String },
    /// Operation invalid in the host's current state.
    BadHostState { host: HostId, reason: &'static str },
    /// A migration id was not found or is already finished.
    UnknownMigration { id: u64 },
}

impl fmt::Display for SmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SmError::UnknownHost { host } => write!(f, "unknown {host}"),
            SmError::HostExists { host } => write!(f, "{host} already registered"),
            SmError::ShardOutOfRange { shard, max_shards } => {
                write!(f, "{shard} outside key space [0,{max_shards})")
            }
            SmError::AlreadyAssigned { shard } => write!(f, "{shard} already assigned"),
            SmError::NotAssigned { shard } => write!(f, "{shard} not assigned"),
            SmError::NoFeasibleHost {
                shard,
                needed_weight,
            } => {
                write!(f, "no feasible host for {shard} (weight {needed_weight})")
            }
            SmError::AllTargetsVetoed { shard, attempts } => {
                write!(f, "all {attempts} candidate targets vetoed {shard}")
            }
            SmError::SafetyCheckFailed { reason } => write!(f, "safety check failed: {reason}"),
            SmError::BadHostState { host, reason } => write!(f, "{host}: {reason}"),
            SmError::UnknownMigration { id } => write!(f, "unknown migration {id}"),
        }
    }
}

impl std::error::Error for SmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_error_classification() {
        assert!(AppError::retryable("net blip").is_retryable());
        assert!(!AppError::non_retryable("collision").is_retryable());
    }

    #[test]
    fn display_is_informative() {
        let e = SmError::NoFeasibleHost {
            shard: ShardId(5),
            needed_weight: 3.0,
        };
        assert!(e.to_string().contains("shard-5"));
        let e = AppError::non_retryable("would collide with test_table#2");
        assert!(e.to_string().contains("collide"));
    }
}
