//! Old-pragma fixture: every seeded violation carries a comment in the
//! retired `scalewall-lint: allow(…)` suppression syntax. Comments are
//! skipped like whitespace, so each D1 and D2 hit is still reported on
//! its own line.

use std::collections::HashMap; // scalewall-lint: allow(D2) -- fixture: point-lookup cache, never iterated

pub struct Cache {
    // scalewall-lint: allow(D2) -- fixture: same cache, field declaration
    slots: HashMap<u64, u64>,
}

impl Cache {
    pub fn probe_wall(&self) -> u128 {
        // Stacked old pragmas, once meant for the next code line.
        // scalewall-lint: allow(D1) -- fixture: sanctioned wall-clock probe
        // scalewall-lint: allow(D2) -- fixture: scratch map, never iterated
        let (t, scratch) = (std::time::Instant::now(), HashMap::<u64, u64>::new());
        t.elapsed().as_nanos() + scratch.len() as u128 + self.slots.len() as u128
    }
}
