//! Dictionary encoding for string dimensions.
//!
//! Each string dimension of each table partition owns a dictionary mapping
//! strings to dense `u32` ids in first-seen order. Range partitioning on a
//! string dimension operates over these ids, exactly as in Cubrick's
//! granular-partitioning design. The strings sit back to back in one
//! `String` arena with a `Vec` of end offsets, so a dictionary is three
//! heap blocks (arena, offsets, index) however many strings it holds.

use std::sync::Arc;

use crate::error::{CubrickError, CubrickResult};
use crate::sharding::fnv1a;

/// A free slot of [`Dictionary::index`] (ids stay below `u32::MAX`).
const FREE: u32 = u32::MAX;

/// An insert-ordered string ↔ id dictionary with a capacity bound.
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    /// The strings, in id order and back to back; each is stored once.
    arena: String,
    /// Where each id's string ends in `arena` (it starts where the last ends).
    ends: Vec<u32>,
    /// Open-addressing index over the ids: slot → id or [`FREE`], linear
    /// probing from the low bits of the string's FNV-1a hash; a power of
    /// two ≥ 2 × `len()`, rebuilt when it has to grow.
    index: Vec<u32>,
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

/// The strings after a dictionary's first `len` ids, from arena offset
/// `start`, with their end offsets: what a replica adopts whole.
#[derive(Debug)]
pub struct Suffix {
    len: usize,
    start: usize,
    arena: String,
    ends: Vec<u32>,
}

impl Dictionary {
    pub fn new(max_cardinality: u32) -> Self {
        Dictionary {
            max_cardinality,
            ..Default::default()
        }
    }

    /// Id for `s`, inserting if new. Fails once the configured cardinality
    /// is exhausted (the dimension's declared key space is full), or when
    /// the arena would pass `u32::MAX` bytes.
    pub fn encode(&mut self, dim_name: &str, s: &str) -> CubrickResult<u32> {
        let free = match self.probe(s) {
            Ok(id) => return Ok(id),
            Err(free) => free,
        };
        let id = u32::try_from(self.ends.len()).unwrap_or(u32::MAX);
        let end = u32::try_from(self.arena.len() + s.len()).ok();
        let Some(end) = end.filter(|_| id < self.max_cardinality) else {
            let full = end.map_or(format!("{} string bytes", u32::MAX), |_| {
                format!("{} distinct values", self.max_cardinality)
            });
            return Err(CubrickError::ValueOutOfRange {
                dimension: dim_name.to_string(),
                detail: format!("dictionary full ({full})"),
            });
        };
        self.arena.push_str(s);
        self.ends.push(end);
        self.ranks = None;
        if self.ends.len() * 2 > self.index.len() {
            self.index_ids(0);
        } else {
            // The slot the lookup above ended in.
            self.index[free] = id;
        }
        Ok(id)
    }

    /// The strings after the first `len` ids: one copy of the arena's
    /// tail and one of their end offsets.
    pub fn suffix(&self, len: usize) -> Suffix {
        let start = self
            .ends
            .get(..len)
            .and_then(|e| e.last())
            .map_or(0, |&e| e as usize);
        Suffix {
            len,
            start,
            arena: self.arena.get(start..).unwrap_or_default().to_string(),
            ends: self.ends.get(len..).unwrap_or_default().to_vec(),
        }
    }

    /// Append `suffix` of a dictionary that held what this one holds (and
    /// has its cardinality) in one copy; index each new id with one probe.
    /// False, this one left exactly as it was, when it has another length,
    /// does not end where `suffix` starts or holds one of its strings.
    pub fn adopt(&mut self, suffix: &Suffix) -> bool {
        let (len, slots) = (self.ends.len(), self.index.len());
        if len != suffix.len || self.arena.len() != suffix.start {
            return false;
        }
        self.arena.push_str(&suffix.arena);
        self.ends.extend_from_slice(&suffix.ends);
        if self.index_ids(len as u32) {
            // An empty suffix keeps the cached ranks.
            self.ranks = self.ranks.take().filter(|_| suffix.ends.is_empty());
            return true;
        }
        // The old ids re-entered in order at the old size: the old layout.
        self.arena.truncate(suffix.start);
        self.ends.truncate(len);
        self.index = vec![FREE; slots];
        self.index_ids(0);
        false
    }

    /// Id for `s` without inserting.
    pub fn lookup(&self, s: &str) -> Option<u32> {
        self.probe(s).ok()
    }

    /// The id of `s`, or the free slot its probe sequence ends in (any
    /// value while the index is still empty).
    fn probe(&self, s: &str) -> Result<u32, usize> {
        let mask = self.index.len().wrapping_sub(1);
        let mut slot = fnv1a(s.as_bytes()) as usize & mask;
        // At most half the slots are taken, so a free one ends the walk
        // (`FREE` is no string's id).
        while let Some(&id) = self.index.get(slot) {
            match self.decode(id) {
                Some(known) if known == s => return Ok(id),
                Some(_) => slot = (slot + 1) & mask,
                None => break,
            }
        }
        Err(slot)
    }

    /// Enter ids `from..len()` each at the free slot its probe ends in,
    /// first doubling the index (from 8 slots) and re-entering every id
    /// when they outgrow it. False at a string already indexed.
    fn index_ids(&mut self, mut from: u32) -> bool {
        if self.ends.len() * 2 > self.index.len() {
            self.index = vec![FREE; (self.ends.len() * 2).next_power_of_two().max(8)];
            from = 0;
        }
        (from..self.ends.len() as u32).all(|id| {
            let free = self.decode(id).and_then(|s| self.probe(s).err());
            free.map(|free| self.index[free] = id).is_some()
        })
    }

    /// String for an id.
    pub fn decode(&self, id: u32) -> Option<&str> {
        let id = id as usize;
        let start = id
            .checked_sub(1)
            .map_or(Some(&0), |before| self.ends.get(before))?;
        self.arena
            .get(*start as usize..*self.ends.get(id)? as usize)
    }

    /// Bytes of every string together.
    pub fn bytes(&self) -> usize {
        self.arena.len()
    }

    /// The string order of the ids (byte-wise `str` order). One sort of
    /// the ids, computed on first use and shared until a new string
    /// arrives; not counted by [`Self::footprint`].
    pub fn ranks(&mut self) -> Arc<StringRanks> {
        let (arena, ends) = (&self.arena, &self.ends);
        self.ranks
            .get_or_insert_with(|| {
                let starts = std::iter::once(0).chain(ends.iter().copied());
                let strings = starts
                    .zip(ends)
                    .map(|(at, &end)| &arena[at as usize..end as usize]);
                let mut by_string: Vec<(&str, u32)> = strings.zip(0..).collect();
                by_string.sort_unstable();
                let id_of_rank: Vec<u32> = by_string.iter().map(|&(_, id)| id).collect();
                let mut rank_of_id = vec![0; id_of_rank.len()];
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
        self.ends.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Modelled cost per entry (the string's bytes twice, two `String`
    /// headers, an 8-byte slot): an accounting constant the gen-1 metric
    /// and every monitor plan are pinned to (DESIGN.md "Ingest path
    /// contract"), not a measurement of this struct.
    pub fn footprint(&self) -> u64 {
        let per_entry = std::mem::size_of::<String>() * 2 + 8;
        (self.arena.len() * 2 + self.ends.len() * per_entry) as u64
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
    fn empty_and_multibyte_strings_round_trip() {
        let mut d = Dictionary::new(10);
        for s in ["", "naïve", "", "日本", "a"] {
            let id = d.encode("x", s).unwrap();
            assert_eq!(d.decode(id), Some(s));
        }
        assert_eq!(d.len(), 4);
        assert_eq!(d.lookup(""), Some(0));
        assert_eq!(d.ranks().id_of_rank, vec![0, 3, 1, 2]);
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
