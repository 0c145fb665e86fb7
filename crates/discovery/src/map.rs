//! Authoritative shard→host mapping store.
//!
//! SM Server is the single writer; it publishes its one application's
//! `shard → host` assignments here. Each shard keeps a short history of
//! updates so that subscribers observing the world through propagation
//! delay can be served the value that was visible to *them* at a given
//! time.

use std::collections::BTreeMap;

use scalewall_sim::SimTime;

/// One published update for a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MappingUpdate {
    /// Host now responsible for the shard, or `None` for "unassigned".
    pub host: Option<u64>,
    /// When SM Server published this update.
    pub published_at: SimTime,
    /// Global publish sequence number (unique across all shards); feeds
    /// the deterministic lazy delay sampling.
    pub seq: u64,
}

/// How many historical updates to keep per shard. Propagation delays are
/// seconds while assignment churn per shard is minutes-to-days, so a short
/// history suffices; the oldest retained entry acts as "fully propagated".
const HISTORY: usize = 4;

/// The authoritative mapping store.
#[derive(Debug, Default)]
pub struct MappingStore {
    /// Shard → retained history, oldest first.
    entries: BTreeMap<u64, Vec<MappingUpdate>>,
    /// Publishes ever made, which is also the next publish's `seq`.
    publishes: u64,
}

impl MappingStore {
    pub fn new() -> Self {
        MappingStore::default()
    }

    /// Publish a new assignment for `shard`. Returns the update record.
    pub fn publish(&mut self, shard: u64, host: Option<u64>, now: SimTime) -> MappingUpdate {
        let update = MappingUpdate {
            host,
            published_at: now,
            seq: self.publishes,
        };
        self.publishes += 1;
        let hist = self.entries.entry(shard).or_default();
        hist.push(update);
        if hist.len() > HISTORY {
            hist.remove(0);
        }
        update
    }

    /// The authoritative (latest) assignment, ignoring propagation.
    pub fn latest(&self, shard: u64) -> Option<MappingUpdate> {
        self.history(shard).last().copied()
    }

    /// Full retained history for a shard, oldest first; empty if the
    /// shard was never published.
    pub fn history(&self, shard: u64) -> &[MappingUpdate] {
        self.entries.get(&shard).map_or(&[], Vec::as_slice)
    }

    /// Total publishes ever made (for run reports).
    pub fn publish_count(&self) -> u64 {
        self.publishes
    }
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
        assert!(m.latest(42).is_none());
        m.publish(42, Some(7), t(1));
        m.publish(42, Some(9), t(5));
        let latest = m.latest(42).unwrap();
        assert_eq!(latest.host, Some(9));
        assert_eq!(latest.published_at, t(5));
    }

    #[test]
    fn seq_is_globally_unique_and_monotone() {
        let mut m = MappingStore::new();
        let a = m.publish(1, Some(1), t(0));
        let b = m.publish(2, Some(1), t(0));
        let c = m.publish(1, Some(2), t(1));
        assert!(a.seq < b.seq && b.seq < c.seq);
    }

    #[test]
    fn history_is_bounded() {
        let mut m = MappingStore::new();
        for i in 0..10 {
            m.publish(0, Some(i), t(i));
        }
        let h = m.history(0);
        assert_eq!(h.len(), HISTORY);
        // Oldest retained is publish #6, newest #9.
        assert_eq!(h.first().unwrap().host, Some(6));
        assert_eq!(h.last().unwrap().host, Some(9));
    }

    #[test]
    fn unassignment_is_representable() {
        let mut m = MappingStore::new();
        m.publish(3, Some(5), t(0));
        m.publish(3, None, t(1));
        assert_eq!(m.latest(3).unwrap().host, None);
    }

    #[test]
    fn counters() {
        let mut m = MappingStore::new();
        m.publish(0, Some(0), t(0));
        m.publish(1, Some(0), t(0));
        m.publish(0, Some(1), t(1));
        assert_eq!(m.publish_count(), 3);
    }
}
