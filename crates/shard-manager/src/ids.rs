//! Identifiers and cluster topology.
//!
//! Hosts live in racks, racks live in regions; these are the *failure
//! domains* replica spread can be configured over (§III-A1: "whether
//! failure domains are composed of single servers, racks, or entire
//! regions").

use std::fmt;

/// A physical server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub u64);

/// A shard in an application's flat key space `[0, max_shards)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardId(pub u64);

/// A rack within a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Rack(pub u32);

/// A data-center region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Region(pub u32);

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "host-{}", self.0)
    }
}

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard-{}", self.0)
    }
}

impl fmt::Display for Rack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rack-{}", self.0)
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "region-{}", self.0)
    }
}

/// Lifecycle state of a host from SM's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostState {
    /// Heartbeating and eligible for placement.
    Alive,
    /// Being emptied (maintenance/decommission); serves existing shards but
    /// receives no new ones.
    Draining,
    /// Heartbeats lost; shards must fail over. Not eligible for placement.
    Dead,
}

impl HostState {
    /// Whether new shards may be placed on a host in this state.
    pub fn placeable(self) -> bool {
        matches!(self, HostState::Alive)
    }

    /// Whether the host can currently serve traffic / source a live copy.
    pub fn serving(self) -> bool {
        matches!(self, HostState::Alive | HostState::Draining)
    }
}

/// Static description of a host registered with SM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostInfo {
    pub id: HostId,
    pub rack: Rack,
    pub region: Region,
    /// Capacity in the application's load-balancing metric unit (e.g.
    /// bytes of memory for gen-1 Cubrick). Heterogeneous fleets export
    /// different capacities per host (§III-A3), and applications may update
    /// it at runtime.
    pub capacity: f64,
}

impl HostInfo {
    pub fn new(id: HostId, rack: Rack, region: Region, capacity: f64) -> Self {
        assert!(
            capacity >= 0.0 && capacity.is_finite(),
            "invalid capacity {capacity}"
        );
        HostInfo {
            id,
            rack,
            region,
            capacity,
        }
    }

    /// The identifier of this host's failure domain at the given scope.
    pub fn domain(&self, scope: crate::spec::SpreadDomain) -> u64 {
        match scope {
            crate::spec::SpreadDomain::Host => self.id.0,
            // Racks are globally identified by (region, rack) so two
            // regions may both have a rack 0 without aliasing.
            crate::spec::SpreadDomain::Rack => ((self.region.0 as u64) << 32) | self.rack.0 as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SpreadDomain;

    #[test]
    fn host_state_predicates() {
        assert!(HostState::Alive.placeable());
        assert!(!HostState::Draining.placeable());
        assert!(!HostState::Dead.placeable());
        assert!(HostState::Alive.serving());
        assert!(HostState::Draining.serving());
        assert!(!HostState::Dead.serving());
    }

    #[test]
    fn domains_distinguish_scopes() {
        let a = HostInfo::new(HostId(1), Rack(0), Region(0), 1.0);
        let b = HostInfo::new(HostId(2), Rack(0), Region(0), 1.0);
        let c = HostInfo::new(HostId(3), Rack(0), Region(1), 1.0);
        assert_ne!(a.domain(SpreadDomain::Host), b.domain(SpreadDomain::Host));
        assert_eq!(a.domain(SpreadDomain::Rack), b.domain(SpreadDomain::Rack));
        // Same rack number, different region → different rack domain.
        assert_ne!(a.domain(SpreadDomain::Rack), c.domain(SpreadDomain::Rack));
    }

    #[test]
    #[should_panic(expected = "invalid capacity")]
    fn negative_capacity_rejected() {
        HostInfo::new(HostId(0), Rack(0), Region(0), -1.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(HostId(3).to_string(), "host-3");
        assert_eq!(ShardId(9).to_string(), "shard-9");
        assert_eq!(Rack(1).to_string(), "rack-1");
        assert_eq!(Region(2).to_string(), "region-2");
    }
}
