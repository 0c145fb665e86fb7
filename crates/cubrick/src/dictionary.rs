//! Dictionary encoding for string dimensions.
//!
//! Each string dimension of each table partition owns a dictionary mapping
//! strings to dense `u32` ids in first-seen order. Range partitioning on a
//! string dimension operates over these ids, exactly as in Cubrick's
//! granular-partitioning design.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::error::{CubrickError, CubrickResult};

/// An insert-ordered string ↔ id dictionary with a capacity bound.
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    forward: BTreeMap<String, u32>,
    reverse: Vec<String>,
    max_cardinality: u32,
    /// [`Self::ranks`], kept until the next new string.
    ranks: Option<Arc<StringRanks>>,
}

/// A dictionary's ids against the ranks of their strings in ascending
/// string order (ids are handed out in first-seen order, so a group-by
/// that must emit its keys sorted orders by rank, not by id).
#[derive(Debug)]
pub struct StringRanks {
    pub rank_of_id: Vec<u32>,
    pub id_of_rank: Vec<u32>,
}

impl Dictionary {
    pub fn new(max_cardinality: u32) -> Self {
        Dictionary {
            forward: BTreeMap::new(),
            reverse: Vec::new(),
            max_cardinality,
            ranks: None,
        }
    }

    /// Id for `s`, inserting if new. Fails once the configured cardinality
    /// is exhausted (the dimension's declared key space is full).
    pub fn encode(&mut self, dim_name: &str, s: &str) -> CubrickResult<u32> {
        if let Some(&id) = self.forward.get(s) {
            return Ok(id);
        }
        let id = self.reverse.len() as u32;
        if id >= self.max_cardinality {
            return Err(CubrickError::ValueOutOfRange {
                dimension: dim_name.to_string(),
                detail: format!("dictionary full ({} distinct values)", self.max_cardinality),
            });
        }
        self.forward.insert(s.to_string(), id);
        self.reverse.push(s.to_string());
        self.ranks = None;
        Ok(id)
    }

    /// Id for `s` without inserting.
    pub fn lookup(&self, s: &str) -> Option<u32> {
        self.forward.get(s).copied()
    }

    /// String for an id.
    pub fn decode(&self, id: u32) -> Option<&str> {
        self.reverse.get(id as usize).map(|s| s.as_str())
    }

    /// The string order of the ids. One walk of the sorted map (a cache
    /// miss per node on a dictionary no query touched lately), computed
    /// on first use and shared until a new string arrives; not counted
    /// by [`Self::footprint`], which sizes what ingest stores.
    pub fn ranks(&mut self) -> Arc<StringRanks> {
        let (forward, len) = (&self.forward, self.reverse.len());
        self.ranks
            .get_or_insert_with(|| {
                let id_of_rank: Vec<u32> = forward.values().copied().collect();
                let mut rank_of_id = vec![0; len];
                for (rank, &id) in (0..).zip(&id_of_rank) {
                    rank_of_id[id as usize] = rank;
                }
                Arc::new(StringRanks {
                    rank_of_id,
                    id_of_rank,
                })
            })
            .clone()
    }

    pub fn len(&self) -> usize {
        self.reverse.len()
    }

    pub fn is_empty(&self) -> bool {
        self.reverse.is_empty()
    }

    /// Approximate heap footprint in bytes.
    pub fn footprint(&self) -> u64 {
        // Strings stored twice (map key + reverse) plus map/vec overhead.
        let chars: usize = self.reverse.iter().map(|s| s.len()).sum();
        (chars * 2 + self.reverse.len() * (std::mem::size_of::<String>() * 2 + 8)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_is_dense_and_stable() {
        let mut d = Dictionary::new(10);
        assert_eq!(d.encode("c", "US").unwrap(), 0);
        assert_eq!(d.encode("c", "BR").unwrap(), 1);
        assert_eq!(d.encode("c", "US").unwrap(), 0, "re-encode returns same id");
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn decode_round_trip() {
        let mut d = Dictionary::new(10);
        for s in ["a", "b", "c"] {
            let id = d.encode("x", s).unwrap();
            assert_eq!(d.decode(id), Some(s));
        }
        assert_eq!(d.decode(99), None);
        assert_eq!(d.lookup("b"), Some(1));
        assert_eq!(d.lookup("zz"), None);
    }

    #[test]
    fn ranks_order_by_string_and_follow_new_strings() {
        let mut d = Dictionary::new(10);
        for s in ["pear", "apple", "fig"] {
            d.encode("x", s).unwrap();
        }
        let ranks = d.ranks();
        assert_eq!(ranks.id_of_rank, vec![1, 2, 0]);
        assert_eq!(ranks.rank_of_id, vec![2, 0, 1]);
        // Re-encoding a known string keeps the memo; a new one drops it.
        d.encode("x", "fig").unwrap();
        assert!(Arc::ptr_eq(&ranks, &d.ranks()));
        d.encode("x", "banana").unwrap();
        assert_eq!(d.ranks().id_of_rank, vec![1, 3, 2, 0]);
    }

    #[test]
    fn capacity_enforced() {
        let mut d = Dictionary::new(2);
        d.encode("x", "a").unwrap();
        d.encode("x", "b").unwrap();
        assert!(matches!(
            d.encode("x", "c"),
            Err(CubrickError::ValueOutOfRange { .. })
        ));
        // Existing values still encode fine at capacity.
        assert_eq!(d.encode("x", "a").unwrap(), 0);
    }

    #[test]
    fn footprint_grows() {
        let mut d = Dictionary::new(100);
        let f0 = d.footprint();
        d.encode("x", "hello world").unwrap();
        assert!(d.footprint() > f0);
    }
}
