//! Authoritative shard→host mapping store.
//!
//! SM Server is the single writer; it publishes `(service, shard) → host`
//! assignments here. Each key keeps a short history of updates so that
//! subscribers observing the world through propagation delay can be served
//! the value that was visible to *them* at a given time.

use std::collections::BTreeMap;
use std::sync::Arc;

use scalewall_sim::SimTime;

/// Key of a mapping entry: a shard of a named service.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardKey {
    pub service: Arc<str>,
    pub shard: u64,
}

impl ShardKey {
    pub fn new(service: impl Into<Arc<str>>, shard: u64) -> Self {
        ShardKey {
            service: service.into(),
            shard,
        }
    }
}

impl std::fmt::Display for ShardKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.service, self.shard)
    }
}

/// One published update for a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MappingUpdate {
    /// Host now responsible for the shard, or `None` for "unassigned".
    pub host: Option<u64>,
    /// When SM Server published this update.
    pub published_at: SimTime,
    /// Global publish sequence number (unique across all keys); feeds the
    /// deterministic lazy delay sampling.
    pub seq: u64,
}

/// How many historical updates to keep per key. Propagation delays are
/// seconds while assignment churn per shard is minutes-to-days, so a short
/// history suffices; the oldest retained entry acts as "fully propagated".
const HISTORY: usize = 4;

/// One service's retained histories by shard id, each oldest first.
pub type ServiceHistories = BTreeMap<u64, Vec<MappingUpdate>>;

/// The authoritative mapping store.
#[derive(Debug, Default)]
pub struct MappingStore {
    /// Service → shard → history. Two levels so that readers look up by
    /// borrowed `(&str, u64)` without building a [`ShardKey`], and a
    /// whole-table route pays the string compares once, not per shard.
    entries: BTreeMap<Arc<str>, ServiceHistories>,
    next_seq: u64,
    publishes: u64,
}

impl MappingStore {
    pub fn new() -> Self {
        MappingStore::default()
    }

    /// Publish a new assignment for `key`. Returns the update record.
    pub fn publish(&mut self, key: ShardKey, host: Option<u64>, now: SimTime) -> MappingUpdate {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.publishes += 1;
        let update = MappingUpdate {
            host,
            published_at: now,
            seq,
        };
        let hist = self
            .entries
            .entry(key.service)
            .or_default()
            .entry(key.shard)
            .or_default();
        hist.push(update);
        if hist.len() > HISTORY {
            hist.remove(0);
        }
        update
    }

    /// The authoritative (latest) assignment, ignoring propagation.
    pub fn latest(&self, key: &ShardKey) -> Option<MappingUpdate> {
        self.history(key).last().copied()
    }

    /// Full retained history for a key, oldest first.
    pub fn history(&self, key: &ShardKey) -> &[MappingUpdate] {
        history_of(self.service(&key.service), key.shard)
    }

    /// Every retained history of one service (`None` if it never
    /// published); feed it to [`history_of`] per shard.
    pub fn service(&self, service: &str) -> Option<&ServiceHistories> {
        self.entries.get(service)
    }

    /// Total publishes ever made (for run reports).
    pub fn publish_count(&self) -> u64 {
        self.publishes
    }
}

/// One shard's retained history out of a [`MappingStore::service`] view,
/// oldest first; empty if the shard was never published.
pub fn history_of(service: Option<&ServiceHistories>, shard: u64) -> &[MappingUpdate] {
    service
        .and_then(|shards| shards.get(&shard))
        .map_or(&[], Vec::as_slice)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn publish_and_latest() {
        let mut m = MappingStore::new();
        let k = ShardKey::new("cubrick", 42);
        assert!(m.latest(&k).is_none());
        m.publish(k.clone(), Some(7), t(1));
        m.publish(k.clone(), Some(9), t(5));
        let latest = m.latest(&k).unwrap();
        assert_eq!(latest.host, Some(9));
        assert_eq!(latest.published_at, t(5));
    }

    #[test]
    fn seq_is_globally_unique_and_monotone() {
        let mut m = MappingStore::new();
        let a = m.publish(ShardKey::new("s", 1), Some(1), t(0));
        let b = m.publish(ShardKey::new("s", 2), Some(1), t(0));
        let c = m.publish(ShardKey::new("s", 1), Some(2), t(1));
        assert!(a.seq < b.seq && b.seq < c.seq);
    }

    #[test]
    fn history_is_bounded() {
        let mut m = MappingStore::new();
        let k = ShardKey::new("s", 0);
        for i in 0..10 {
            m.publish(k.clone(), Some(i), t(i));
        }
        let h = m.history(&k);
        assert_eq!(h.len(), HISTORY);
        // Oldest retained is publish #6, newest #9.
        assert_eq!(h.first().unwrap().host, Some(6));
        assert_eq!(h.last().unwrap().host, Some(9));
    }

    #[test]
    fn unassignment_is_representable() {
        let mut m = MappingStore::new();
        let k = ShardKey::new("s", 3);
        m.publish(k.clone(), Some(5), t(0));
        m.publish(k.clone(), None, t(1));
        assert_eq!(m.latest(&k).unwrap().host, None);
    }

    #[test]
    fn counters() {
        let mut m = MappingStore::new();
        m.publish(ShardKey::new("a", 0), Some(0), t(0));
        m.publish(ShardKey::new("a", 1), Some(0), t(0));
        m.publish(ShardKey::new("a", 0), Some(1), t(1));
        assert_eq!(m.publish_count(), 3);
    }
}
