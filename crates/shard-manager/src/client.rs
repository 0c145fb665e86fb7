//! SM Client — the library application clients link to reach shards.
//!
//! "SM Client learns from a Service Discovery system where a particular
//! shard is located, and dispatches requests to the appropriate servers"
//! (§III-A). Crucially it reads the *cached, propagated* view, not SM
//! Server's authoritative state — clients can be seconds stale, which is
//! what makes graceful migration necessary.

use std::sync::Arc;

use scalewall_discovery::DiscoveryClient;
use scalewall_sim::SimTime;

use crate::ids::{HostId, ShardId};

/// A client-side resolver for one service.
#[derive(Debug, Clone)]
pub struct SmClient {
    service: Arc<str>,
    discovery: DiscoveryClient,
}

impl SmClient {
    pub fn new(service: impl Into<Arc<str>>, discovery: DiscoveryClient) -> Self {
        SmClient {
            service: service.into(),
            discovery,
        }
    }

    pub fn service(&self) -> &str {
        &self.service
    }

    /// Resolve a shard to the host this client currently believes owns it.
    ///
    /// `None` means the shard is unknown or currently unassigned *as seen
    /// through this client's cache* — the authoritative mapping may
    /// already say otherwise.
    pub fn resolve(&self, shard: ShardId, now: SimTime) -> Option<HostId> {
        self.discovery
            .resolve_shard(&self.service, shard.0, now)
            .and_then(|u| u.host)
            .map(HostId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalewall_sim::sync::RwLock;
    use scalewall_discovery::{DelayModel, DelayModelConfig, MappingStore, ShardKey};

    #[test]
    fn resolves_through_propagation_delay() {
        let store = Arc::new(RwLock::new(MappingStore::new()));
        let model = DelayModel::new(DelayModelConfig::default());
        let client = SmClient::new("cubrick", DiscoveryClient::new(store.clone(), model, 5));

        assert_eq!(client.resolve(ShardId(1), SimTime::from_secs(0)), None);
        let update = store.write().publish(
            ShardKey::new("cubrick", 1),
            Some(42),
            SimTime::from_secs(100),
        );
        // Before propagation the client may still see nothing... but the
        // fallback-to-oldest rule means the first publish is visible
        // immediately (there is no older state to serve).
        let resolved = client.resolve(ShardId(1), SimTime::from_secs(100));
        assert_eq!(resolved, Some(HostId(42)));
        let _ = update;
    }

    #[test]
    fn stale_read_during_reassignment() {
        let store = Arc::new(RwLock::new(MappingStore::new()));
        let model = DelayModel::new(DelayModelConfig::default());
        let dc = DiscoveryClient::new(store.clone(), model, 9);
        let client = SmClient::new("cubrick", dc.clone());

        let key = ShardKey::new("cubrick", 2);
        store
            .write()
            .publish(key.clone(), Some(1), SimTime::from_secs(0));
        let second = store
            .write()
            .publish(key.clone(), Some(2), SimTime::from_secs(1_000));
        let visible = dc.visible_at(&second);
        // One tick before visibility: still the old host.
        let before = SimTime::from_nanos(visible.as_nanos() - 1);
        assert_eq!(client.resolve(ShardId(2), before), Some(HostId(1)));
        assert_eq!(client.resolve(ShardId(2), visible), Some(HostId(2)));
    }
}
