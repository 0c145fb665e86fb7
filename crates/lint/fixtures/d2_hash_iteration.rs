//! Seeded D2 violations: hash-ordered collections in sim-facing code,
//! including the order-sensitive iteration shapes the rule exists for.
//! `lint_source` under `RuleSet::SIM` must report D2 here.

use std::collections::{HashMap, HashSet};

pub fn sum_in_hash_order(m: &HashMap<u64, f64>) -> f64 {
    // Float summation order = hash order = replay divergence.
    let mut total = 0.0;
    for (_k, v) in m.iter() {
        total += v;
    }
    total
}

pub fn first_in_hash_order(s: &HashSet<u64>) -> Option<u64> {
    s.iter().next().copied()
}

pub fn drain_in_hash_order(m: &mut HashMap<u64, u64>) -> Vec<u64> {
    m.drain().map(|(k, _)| k).collect()
}
