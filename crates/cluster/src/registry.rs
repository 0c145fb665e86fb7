//! The per-region node registry.
//!
//! Owns the actual [`CubrickNode`] objects for one region and implements
//! SM's [`AppServerRegistry`] so the region's SM server can invoke shard
//! endpoints. A host in the `down` set is unreachable — endpoint calls
//! fail exactly as they would against a crashed process.
//! It is the only way to a node, so it can say when nothing a sub-query
//! would find at a host has changed: [`NodeRegistry::changes`] (DESIGN.md
//! "Serving verdicts").

use std::collections::{BTreeMap, BTreeSet};

use cubrick::node::CubrickNode;
use scalewall_shard_manager::{AppServer, AppServerRegistry, HostId};

/// Registry of one region's Cubrick processes.
#[derive(Debug, Default)]
pub struct NodeRegistry {
    nodes: BTreeMap<HostId, CubrickNode>,
    down: BTreeSet<HostId>,
    changes: u64,
}

impl NodeRegistry {
    pub fn new() -> Self {
        NodeRegistry::default()
    }

    /// Edits of the down set and of membership plus `&mut` nodes handed
    /// out (each may have gained, lost or reloaded a shard by the end of the
    /// borrow): equal counts mean all three are as they were.
    pub fn changes(&self) -> u64 {
        self.changes
    }

    pub fn insert(&mut self, node: CubrickNode) {
        self.changes += 1;
        self.nodes.insert(node.host(), node);
    }

    /// Mark a host crashed (unreachable until [`revive`]).
    ///
    /// [`revive`]: NodeRegistry::revive
    pub fn crash(&mut self, host: HostId) {
        self.changes += 1;
        self.down.insert(host);
    }

    /// Bring a crashed host back (with empty state — a fresh process).
    pub fn revive(&mut self, host: HostId) {
        self.changes += 1;
        self.down.remove(&host);
    }

    pub fn is_down(&self, host: HostId) -> bool {
        self.down.contains(&host)
    }

    /// Direct access to a node regardless of reachability (for inspection
    /// by the driver and experiments, not for SM calls).
    pub fn node(&self, host: HostId) -> Option<&CubrickNode> {
        self.nodes.get(&host)
    }

    pub fn node_mut(&mut self, host: HostId) -> Option<&mut CubrickNode> {
        self.changes += 1;
        self.nodes.get_mut(&host)
    }

    /// The node a sub-query scans on, uncounted: the only caller runs
    /// [`CubrickNode::execute_local`], which writes the served counter and
    /// brick hotness and never a shard.
    pub(crate) fn scanning_node_mut(&mut self, host: HostId) -> Option<&mut CubrickNode> {
        self.nodes.get_mut(&host)
    }

    pub fn hosts(&self) -> impl Iterator<Item = HostId> + '_ {
        self.nodes.keys().copied()
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Remove a node entirely (decommission).
    pub fn remove(&mut self, host: HostId) -> Option<CubrickNode> {
        self.changes += 1;
        self.down.remove(&host);
        self.nodes.remove(&host)
    }
}

impl AppServerRegistry for NodeRegistry {
    fn server(&mut self, host: HostId) -> Option<&mut dyn AppServer> {
        if self.down.contains(&host) {
            return None;
        }
        self.changes += 1;
        self.nodes.get_mut(&host).map(|n| n as &mut dyn AppServer)
    }

    fn server_ref(&mut self, host: HostId) -> Option<&dyn AppServer> {
        if self.down.contains(&host) {
            return None;
        }
        self.nodes.get(&host).map(|n| n as &dyn AppServer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubrick::catalog::shared_catalog;
    use cubrick::node::{NodeConfig, RegionStore};
    use scalewall_shard_manager::Region;
    use scalewall_sim::sync::RwLock;
    use std::sync::Arc;

    fn node(id: u64) -> CubrickNode {
        CubrickNode::new(
            NodeConfig::new(HostId(id), Region(0)),
            shared_catalog(100),
            Arc::new(RwLock::new(RegionStore::new())),
        )
    }

    #[test]
    fn crash_makes_unreachable_revive_restores() {
        let mut reg = NodeRegistry::new();
        reg.insert(node(1));
        assert!(reg.server(HostId(1)).is_some());
        reg.crash(HostId(1));
        assert!(reg.server(HostId(1)).is_none());
        assert!(reg.is_down(HostId(1)));
        assert!(reg.node(HostId(1)).is_some(), "inspection still possible");
        assert!(reg.server_ref(HostId(1)).is_none());
        reg.revive(HostId(1));
        assert!(reg.server(HostId(1)).is_some());
    }

    /// `changes` moves with every edit and every `&mut` node handed out,
    /// and with nothing else: not with reads, not with the poll's shared
    /// reach, not with the scan's.
    #[test]
    fn changes_counts_edits_and_mutable_handouts_only() {
        let mut reg = NodeRegistry::new();
        let mut last = reg.changes();
        let mut moved = |reg: &NodeRegistry| {
            let moved = reg.changes() != last;
            last = reg.changes();
            moved
        };
        reg.insert(node(1));
        assert!(moved(&reg), "insert");
        reg.crash(HostId(1));
        assert!(moved(&reg), "crash");
        reg.revive(HostId(1));
        assert!(moved(&reg), "revive");
        assert!(reg.node_mut(HostId(1)).is_some());
        assert!(moved(&reg), "node_mut");
        assert!(reg.server(HostId(1)).is_some());
        assert!(moved(&reg), "server");

        assert!(reg.node(HostId(1)).is_some() && !reg.is_down(HostId(1)));
        assert_eq!((reg.len(), reg.hosts().count()), (1, 1));
        assert!(reg.server_ref(HostId(1)).is_some());
        assert!(reg.scanning_node_mut(HostId(1)).is_some());
        assert!(
            !moved(&reg),
            "reads, the poll's reach and the scan's do not count"
        );

        assert!(reg.remove(HostId(1)).is_some());
        assert!(moved(&reg), "remove");
    }

    #[test]
    fn unknown_host_is_none() {
        let mut reg = NodeRegistry::new();
        assert!(reg.server(HostId(9)).is_none());
    }

    #[test]
    fn remove_decommissions() {
        let mut reg = NodeRegistry::new();
        reg.insert(node(2));
        reg.crash(HostId(2));
        let n = reg.remove(HostId(2));
        assert!(n.is_some());
        assert!(reg.is_empty());
        assert!(!reg.is_down(HostId(2)), "down set cleaned");
    }
}
