//! Per-host discovery view.
//!
//! A [`DiscoveryClient`] is what an application client (or the Cubrick
//! proxy) holds on each host: it resolves a shard to a host id
//! *as seen through the distribution tree* — i.e. the newest update that
//! has already propagated to this subscriber, which may lag the
//! authoritative mapping by a few seconds.
//!
//! The private `DiscoveryClient::visible` is the one definition of "which
//! update does this subscriber see", and it also says for how long that
//! answer holds. [`Route`] builds on the second half: the hosts of a
//! fixed shard list, resolved once and reused until the window
//! closes or the store takes a publish (DESIGN.md "Route cache contract").

use scalewall_sim::SimTime;

use crate::delay::DelayModel;
use crate::map::{MappingStore, MappingUpdate};

/// The update a subscriber sees at some instant, and the half-open
/// window `[from, until)` of instants at which it sees that same update
/// provided nothing is published to the shard in between.
struct Visible {
    update: MappingUpdate,
    from: SimTime,
    until: SimTime,
}

/// The resolved hosts of a fixed list of shards, as one
/// subscriber sees them, with the window over which they stay exact.
///
/// Owned by the caller and refilled in place by
/// [`DiscoveryClient::route`], so a refill allocates nothing once the
/// buffers have grown to the shard count.
#[derive(Debug, Clone, Default)]
pub struct Route {
    shards: Vec<u64>,
    hosts: Vec<Option<u64>>,
    /// Intersection of the per-shard visibility windows. Empty (the
    /// `Default`) until the first fill, so a fresh route always misses.
    from: SimTime,
    until: SimTime,
    /// `MappingStore::publish_count` the hosts were resolved at.
    publishes: u64,
}

impl Route {
    /// The shard list, in the caller's order.
    pub fn shards(&self) -> &[u64] {
        &self.shards
    }

    /// Resolved host per shard, parallel to [`Route::shards`].
    pub fn hosts(&self) -> &[Option<u64>] {
        &self.hosts
    }

    /// Shard and resolved host at one position of the list.
    pub fn get(&self, index: usize) -> Option<(u64, Option<u64>)> {
        Some((*self.shards.get(index)?, *self.hosts.get(index)?))
    }

    /// First instant past the fill at which some shard's answer may
    /// change without a publish.
    pub fn until(&self) -> SimTime {
        self.until
    }

    /// Start a new shard list: hands out the emptied buffer to push
    /// into and drops the resolved hosts, so the next lookup refills.
    pub fn reset_shards(&mut self) -> &mut Vec<u64> {
        self.shards.clear();
        self.hosts.clear();
        (self.from, self.until) = (SimTime::ZERO, SimTime::ZERO);
        &mut self.shards
    }
}

/// A subscriber's view of the mapping, filtered through propagation
/// delay. Holds no store: SM Server owns the one [`MappingStore`] and
/// every lookup borrows it.
#[derive(Debug, Clone, Copy)]
pub struct DiscoveryClient {
    delays: DelayModel,
    /// Stable subscriber identity (normally the host id the client runs on).
    subscriber: u64,
}

impl DiscoveryClient {
    pub fn new(delays: DelayModel, subscriber: u64) -> Self {
        DiscoveryClient { delays, subscriber }
    }

    /// The newest update of `history` (oldest first) whose
    /// [`DiscoveryClient::visible_at`] has passed at `now`. If none has,
    /// the oldest retained update stands in for the fully-propagated
    /// past, so it needs no delay sample and is visible from the
    /// beginning of time. `None` only for an empty history.
    ///
    /// The window ends when the first of the still-invisible newer
    /// updates arrives; arrival order need not follow publish order.
    fn visible(&self, history: &[MappingUpdate], now: SimTime) -> Option<Visible> {
        let (oldest, newer) = history.split_first()?;
        let mut until = SimTime::MAX;
        for update in newer.iter().rev() {
            let at = self.visible_at(update);
            if at <= now {
                return Some(Visible {
                    update: *update,
                    from: at,
                    until,
                });
            }
            until = until.min(at);
        }
        Some(Visible {
            update: *oldest,
            from: SimTime::ZERO,
            until,
        })
    }

    /// Resolve `shard` in `store` to the update visible to this
    /// subscriber at `now`.
    ///
    /// Walks the retained history newest-first and returns the first update
    /// whose publish time plus this subscriber's propagation delay has
    /// elapsed. If even the oldest retained update has not propagated yet,
    /// the oldest is returned (it stands in for the fully-propagated past).
    /// Returns `None` only if the shard has never been published.
    pub fn resolve(&self, store: &MappingStore, shard: u64, now: SimTime) -> Option<MappingUpdate> {
        self.visible(store.history(shard), now).map(|v| v.update)
    }

    /// Bring `route` up to date in `store` at `now`; afterwards
    /// `route.hosts()[i]` is the host of
    /// `resolve(store, route.shards()[i], now)` for every `i`.
    /// Returns whether the cached hosts were reused.
    ///
    /// A hit costs one publish-count compare and one window check. Anything
    /// else — a publish to *any* shard of the store since the fill, or a
    /// `now` outside the window in either direction — re-resolves every
    /// shard in place. Invalidation is per store, not per shard: telling
    /// which shard a publish touched is the map walk the route exists to
    /// skip. The publish count only means something against the store
    /// that filled the route, so a route is only ever passed back with it.
    pub fn route(&self, store: &MappingStore, route: &mut Route, now: SimTime) -> bool {
        let publishes = store.publish_count();
        if route.publishes == publishes && route.from <= now && now < route.until {
            return true;
        }
        route.hosts.clear();
        let (mut from, mut until) = (SimTime::ZERO, SimTime::MAX);
        for &shard in &route.shards {
            let host = match self.visible(store.history(shard), now) {
                Some(seen) => {
                    from = from.max(seen.from);
                    until = until.min(seen.until);
                    seen.update.host
                }
                None => None,
            };
            route.hosts.push(host);
        }
        (route.from, route.until, route.publishes) = (from, until, publishes);
        false
    }

    /// When update `seq` becomes visible to this subscriber (for tests and
    /// the Fig 4c experiment).
    pub fn visible_at(&self, update: &MappingUpdate) -> SimTime {
        update
            .published_at
            .saturating_add(self.delays.delay(self.subscriber, update.seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::DELAY_SEED;
    use scalewall_sim::SimDuration;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn client(subscriber: u64) -> DiscoveryClient {
        DiscoveryClient::new(DelayModel::new(DELAY_SEED), subscriber)
    }

    #[test]
    fn unpublished_key_resolves_to_none() {
        let store = MappingStore::new();
        assert!(client(1).resolve(&store, 0, t(100)).is_none());
    }

    #[test]
    fn update_invisible_until_propagated_then_visible() {
        let (mut store, client) = (MappingStore::new(), client(1));
        let host_at = |store: &MappingStore, now| client.resolve(store, 1, now).unwrap().host;
        let u0 = store.publish(1, Some(10), t(100));
        let visible = client.visible_at(&u0);
        assert!(visible > t(100), "propagation adds delay");

        // Just before visibility: falls back to oldest retained (same update).
        let before = SimTime::from_nanos(visible.as_nanos() - 1);
        assert_eq!(host_at(&store, before), Some(10));

        // New update published later: before it propagates the client still
        // sees the old host; after, the new one.
        let u1 = store.publish(1, Some(20), visible + SimDuration::from_secs(60));
        let u1_visible = client.visible_at(&u1);
        let mid = SimTime::from_nanos(u1_visible.as_nanos() - 1);
        assert_eq!(
            host_at(&store, mid),
            Some(10),
            "stale read during propagation"
        );
        assert_eq!(host_at(&store, u1_visible), Some(20));
    }

    #[test]
    fn different_subscribers_see_updates_at_different_times() {
        let mut store = MappingStore::new();
        let u = store.publish(2, Some(1), t(0));
        let times: Vec<SimTime> = (0..50).map(|h| client(h).visible_at(&u)).collect();
        let distinct: std::collections::HashSet<_> = times.iter().map(|t| t.as_nanos()).collect();
        assert!(distinct.len() > 40, "delays should vary across subscribers");
    }

    #[test]
    fn unassigned_resolves_to_no_host() {
        let mut store = MappingStore::new();
        store.publish(3, None, t(0));
        // After full propagation the entry exists but carries no host.
        let update = client(1).resolve(&store, 3, t(10_000)).unwrap();
        assert_eq!(update.host, None);
    }
}
