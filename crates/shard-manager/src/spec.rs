//! The configuration of the one application an SM server runs.
//!
//! Applications using SM specify (§III-A): a shard space size and
//! load-balancing tunables including the migration throttle ("SM allows
//! application owners to configure and throttle the maximum number of
//! shard migrations allowed on a single load balancing run"). SM runs
//! the app primary-only, one host per shard: Cubrick deploys one
//! primary-only SM service per region and takes its redundancy from the
//! three regions (§IV-D).

use std::sync::Arc;

/// A failure-domain scope: what [`HostInfo::domain`] keys a host by when
/// placement excludes or avoids domains.
///
/// [`HostInfo::domain`]: crate::ids::HostInfo::domain
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpreadDomain {
    /// Each host is its own domain.
    Host,
    /// A rack of one region.
    Rack,
}

/// Load-balancer tunables.
#[derive(Debug, Clone, Copy)]
pub struct BalancerConfig {
    /// A rebalance is proposed only when
    /// `max_host_load / mean_host_load > 1 + imbalance_tolerance`.
    pub imbalance_tolerance: f64,
    /// Maximum migrations proposed per load-balancing run.
    pub max_migrations_per_run: usize,
    /// Never fill a host beyond this fraction of its exported capacity.
    pub capacity_headroom: f64,
}

impl Default for BalancerConfig {
    fn default() -> Self {
        BalancerConfig {
            imbalance_tolerance: 0.10,
            max_migrations_per_run: 16,
            capacity_headroom: 0.90,
        }
    }
}

/// The application an [`SmServer`](crate::SmServer) is built for.
#[derive(Debug, Clone)]
pub struct AppSpec {
    /// Service name (the discovery namespace).
    pub name: Arc<str>,
    /// Size of the flat shard key space `[0, max_shards)`. "A usual
    /// deployment utilizes between 100k and 1M total shards" (§IV-A).
    pub max_shards: u64,
    pub balancer: BalancerConfig,
}

impl AppSpec {
    /// A primary-only app, the mode Cubrick deploys per region.
    pub fn primary_only(name: impl Into<Arc<str>>, max_shards: u64) -> Self {
        AppSpec {
            name: name.into(),
            max_shards,
            balancer: BalancerConfig::default(),
        }
    }

    pub fn with_balancer(mut self, balancer: BalancerConfig) -> Self {
        self.balancer = balancer;
        self
    }

    /// Validate internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("app name must be non-empty".into());
        }
        if self.max_shards == 0 {
            return Err("max_shards must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.balancer.capacity_headroom) {
            return Err("capacity_headroom must be in [0,1]".into());
        }
        if self.balancer.imbalance_tolerance < 0.0 {
            return Err("imbalance_tolerance must be non-negative".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_validation() {
        let balancer = BalancerConfig {
            max_migrations_per_run: 4,
            ..Default::default()
        };
        let spec = AppSpec::primary_only("cubrick", 100_000).with_balancer(balancer);
        assert!(spec.validate().is_ok());
        assert_eq!(spec.balancer.max_migrations_per_run, 4);
    }

    #[test]
    fn validation_rejects_bad_specs() {
        assert!(AppSpec::primary_only("", 10).validate().is_err());
        assert!(AppSpec::primary_only("x", 0).validate().is_err());
        let mut spec = AppSpec::primary_only("x", 10);
        spec.balancer.capacity_headroom = 1.5;
        assert!(spec.validate().is_err());
        let mut spec = AppSpec::primary_only("x", 10);
        spec.balancer.imbalance_tolerance = -0.1;
        assert!(spec.validate().is_err());
    }
}
