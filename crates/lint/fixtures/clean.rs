//! Clean fixture: everything a sim-facing file may legitimately do,
//! plus every lexical trap that must NOT false-positive — forbidden
//! names inside strings, raw strings, char-literal context, nested
//! block comments, and `#[cfg(test)]` items.
//!
//! `lint_source` under `RuleSet::SIM` must report nothing here.

use std::collections::{BTreeMap, BTreeSet};

/* A block comment mentioning HashMap, Instant, and unsafe.
   /* Nested: SystemTime, std::thread::spawn, SimRng::new(42). */
   Still inside the outer comment. */

pub struct Registry<'a> {
    label: &'a str,
    members: BTreeMap<u64, BTreeSet<u64>>,
}

impl<'a> Registry<'a> {
    pub fn new(label: &'a str) -> Self {
        Registry { label, members: BTreeMap::new() }
    }

    pub fn decoys(&self) -> Vec<String> {
        // Forbidden names inside literals are not code.
        let plain = "HashMap and Instant and unsafe".to_string();
        let raw = r#"SystemTime::now() in a raw "string""#.to_string();
        let hashed = r##"even r#"nested"# raw strings: std::thread::spawn"##.to_string();
        let bytes = b"HashMap".to_vec();
        let marker = 'u'; // not the start of `unsafe`
        let newline = '\n';
        let _ = (marker, newline, bytes);
        vec![plain, raw, hashed, self.label.to_string()]
    }

    pub fn ordered_sum(&self) -> u64 {
        // BTreeMap iteration is deterministic — the sanctioned pattern.
        self.members.values().map(|s| s.len() as u64).sum()
    }
}

pub fn seeded_from_config(seed: u64) -> u64 {
    // Non-literal RNG seeding is fine (the seed flows from outside).
    let range = 0..10u64;
    seed.wrapping_add(range.end)
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    use std::time::Instant;

    #[test]
    fn tests_may_use_anything() {
        let mut m = HashMap::new();
        m.insert(1u64, Instant::now());
        let _t = std::thread::spawn(|| {}).join();
        assert_eq!(m.len(), 1);
    }
}
