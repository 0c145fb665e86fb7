//! Data-center automation integration (§IV-G).
//!
//! SM is "a centralized control plane for all maintenance and machine
//! management requests", running safety checks before approving them:
//! (a) the request must not compromise the fault-tolerance model, (b) it
//! must not conflict with in-flight load-balancing migrations beyond a
//! threshold, and (c) enough capacity must remain to operate the cluster
//! afterwards. Approved drain requests are executed through
//! [`SmServer::drain_host`]. Permanent failures do not come through here:
//! the cluster's repair workflow (host dies → failover → replacement host
//! → decommission) drives [`SmServer`] directly.
//!
//! [`SmServer::drain_host`]: crate::server::SmServer::drain_host

use scalewall_sim::SimTime;

use crate::app_server::AppServerRegistry;
use crate::error::SmResult;
use crate::ids::{HostId, HostState};
use crate::server::SmServer;

/// A machine-management request arriving from automation tooling.
#[derive(Debug, Clone, PartialEq)]
pub struct MaintenanceRequest {
    /// Hosts the tooling wants to take out of service.
    pub hosts: Vec<HostId>,
    /// Human-readable cause (decommission, rack move, kernel upgrade...).
    pub reason: String,
}

/// Outcome of the safety checks.
#[derive(Debug, Clone, PartialEq)]
pub enum MaintenanceVerdict {
    /// Request approved; drains started (count of migrations kicked off).
    Approved { migrations_started: usize },
    /// Request denied with the failing check.
    Denied { reason: String },
}

/// Remaining fleet load fraction must stay below this after the request
/// (capacity check).
const MAX_POST_DRAIN_UTILIZATION: f64 = 0.85;

/// Deny if more than this fraction of the fleet would be out of service
/// at once (fault-tolerance check).
const MAX_UNAVAILABLE_FRACTION: f64 = 0.10;

/// Deny while more than this many migrations are in flight
/// (load-balancing conflict check).
const MAX_CONCURRENT_MIGRATIONS: usize = 64;

/// The automation front door.
#[derive(Debug, Clone, Default)]
pub struct AutomationEngine {
    /// Requests processed (approved, denied) — operational accounting.
    pub approved: u64,
    pub denied: u64,
}

impl AutomationEngine {
    /// Run safety checks; if they pass, start draining every requested
    /// host.
    pub fn submit<R: AppServerRegistry>(
        &mut self,
        sm: &mut SmServer,
        request: &MaintenanceRequest,
        now: SimTime,
        registry: &mut R,
    ) -> SmResult<MaintenanceVerdict> {
        if let Err(reason) = self.safety_check(sm, request) {
            self.denied += 1;
            return Ok(MaintenanceVerdict::Denied { reason });
        }
        let mut migrations = 0usize;
        for &host in &request.hosts {
            migrations += sm.drain_host(host, now, registry)?;
        }
        self.approved += 1;
        Ok(MaintenanceVerdict::Approved {
            migrations_started: migrations,
        })
    }

    fn safety_check(&self, sm: &SmServer, request: &MaintenanceRequest) -> Result<(), String> {
        if request.hosts.is_empty() {
            return Err("empty host list".to_string());
        }
        // All hosts must be known and not already dead.
        for &host in &request.hosts {
            match sm.host_state(host) {
                None => return Err(format!("{host} unknown")),
                Some(HostState::Dead) => return Err(format!("{host} is dead")),
                _ => {}
            }
        }
        // Conflict check: too many in-flight migrations.
        if sm.active_migration_count() > MAX_CONCURRENT_MIGRATIONS {
            return Err(format!(
                "{} migrations already in flight (limit {MAX_CONCURRENT_MIGRATIONS})",
                sm.active_migration_count(),
            ));
        }
        // Fault-tolerance check: bounded simultaneous unavailability.
        let total: usize = sm.host_ids().count();
        let already_out = total - sm.alive_host_count();
        let would_be_out = already_out + request.hosts.len();
        if total == 0 || would_be_out as f64 / total as f64 > MAX_UNAVAILABLE_FRACTION {
            return Err(format!(
                "{would_be_out}/{total} hosts out of service exceeds {:.0}% budget",
                MAX_UNAVAILABLE_FRACTION * 100.0
            ));
        }
        // Capacity check: remaining fleet must absorb the drained load.
        let mut remaining_capacity = 0.0;
        let mut total_load = 0.0;
        for host in sm.host_ids() {
            let (Some(state), Some(info)) = (sm.host_state(host), sm.host_info(host)) else {
                continue;
            };
            total_load += sm.host_load(host);
            if state == HostState::Alive && !request.hosts.contains(&host) {
                remaining_capacity += info.capacity;
            }
        }
        if remaining_capacity <= 0.0 || total_load / remaining_capacity > MAX_POST_DRAIN_UTILIZATION
        {
            return Err(format!(
                "post-drain utilization {:.0}% exceeds {:.0}% budget",
                if remaining_capacity > 0.0 {
                    total_load / remaining_capacity * 100.0
                } else {
                    f64::INFINITY
                },
                MAX_POST_DRAIN_UTILIZATION * 100.0
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app_server::{AppServer, MockAppServer};
    use crate::ids::{HostInfo, Rack, Region, ShardId};
    use crate::server::SmConfig;
    use crate::spec::AppSpec;
    use std::collections::HashMap;

    #[derive(Default)]
    struct Reg {
        servers: HashMap<HostId, MockAppServer>,
        down: std::collections::HashSet<HostId>,
    }

    impl AppServerRegistry for Reg {
        fn server(&mut self, host: HostId) -> Option<&mut dyn AppServer> {
            if self.down.contains(&host) {
                return None;
            }
            self.servers.get_mut(&host).map(|s| s as &mut dyn AppServer)
        }
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn setup(hosts: u64) -> (SmServer, Reg) {
        let mut sm = SmServer::new(SmConfig::default(), AppSpec::primary_only("app", 1_000));
        let mut reg = Reg::default();
        for i in 0..hosts {
            sm.register_host(HostInfo::new(HostId(i), Rack(0), Region(0), 100.0), t(0))
                .unwrap();
            reg.servers
                .insert(HostId(i), MockAppServer::with_capacity(100.0));
        }
        (sm, reg)
    }

    #[test]
    fn approves_safe_drain() {
        let (mut sm, mut reg) = setup(20);
        for s in 0..10 {
            sm.allocate_shard(ShardId(s), 5.0, None, t(0), &mut reg)
                .unwrap();
        }
        let mut engine = AutomationEngine::default();
        let req = MaintenanceRequest {
            hosts: vec![HostId(0)],
            reason: "kernel upgrade".into(),
        };
        let verdict = engine.submit(&mut sm, &req, t(10), &mut reg).unwrap();
        assert!(matches!(verdict, MaintenanceVerdict::Approved { .. }));
        assert_eq!(sm.host_state(HostId(0)), Some(HostState::Draining));
        assert_eq!(engine.approved, 1);
    }

    #[test]
    fn denies_oversized_request() {
        let (mut sm, mut reg) = setup(10);
        let mut engine = AutomationEngine::default();
        // 2/10 = 20% > 10% budget.
        let req = MaintenanceRequest {
            hosts: vec![HostId(0), HostId(1)],
            reason: "rack move".into(),
        };
        let verdict = engine.submit(&mut sm, &req, t(0), &mut reg).unwrap();
        assert!(matches!(verdict, MaintenanceVerdict::Denied { .. }));
        assert_eq!(sm.host_state(HostId(0)), Some(HostState::Alive));
        assert_eq!(engine.denied, 1);
    }

    #[test]
    fn denies_when_capacity_would_be_exceeded() {
        let (mut sm, mut reg) = setup(20);
        // Load the fleet to 85%: 20 hosts × 100 cap, 170 shards of weight
        // 10 (under the 90 % placement headroom).
        for s in 0..170 {
            sm.allocate_shard(ShardId(s), 10.0, None, t(0), &mut reg)
                .unwrap();
        }
        let mut engine = AutomationEngine::default();
        // Draining one host: 1700 / 1900 ≈ 0.895 > 0.85 → denied.
        let req = MaintenanceRequest {
            hosts: vec![HostId(0)],
            reason: "test".into(),
        };
        let verdict = engine.submit(&mut sm, &req, t(1), &mut reg).unwrap();
        assert!(
            matches!(verdict, MaintenanceVerdict::Denied { .. }),
            "{verdict:?}"
        );
    }

    #[test]
    fn denies_unknown_or_dead_hosts_and_empty() {
        let (mut sm, mut reg) = setup(10);
        let mut engine = AutomationEngine::default();
        let req = MaintenanceRequest {
            hosts: vec![HostId(99)],
            reason: "x".into(),
        };
        assert!(matches!(
            engine.submit(&mut sm, &req, t(0), &mut reg).unwrap(),
            MaintenanceVerdict::Denied { .. }
        ));
        reg.down.insert(HostId(3));
        sm.host_failed(HostId(3), t(0), &mut reg).unwrap();
        let req = MaintenanceRequest {
            hosts: vec![HostId(3)],
            reason: "x".into(),
        };
        assert!(matches!(
            engine.submit(&mut sm, &req, t(0), &mut reg).unwrap(),
            MaintenanceVerdict::Denied { .. }
        ));
        let req = MaintenanceRequest {
            hosts: vec![],
            reason: "x".into(),
        };
        assert!(matches!(
            engine.submit(&mut sm, &req, t(0), &mut reg).unwrap(),
            MaintenanceVerdict::Denied { .. }
        ));
    }
}
