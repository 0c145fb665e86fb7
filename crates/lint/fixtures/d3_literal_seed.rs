//! Seeded D3 violation: a literal-seeded RNG outside `crates/sim`,
//! breaking the fork discipline. `lint_source` under `RuleSet::SIM` must
//! report D3 here.

use scalewall_sim::SimRng;

pub fn private_randomness() -> u64 {
    // A component minting its own stream from a magic number: adding or
    // removing draws anywhere else no longer replays identically.
    let mut rng = SimRng::new(0xDEAD_BEEF);
    rng.next_u64()
}

pub fn sanctioned(parent: &mut SimRng, config_seed: u64) -> (SimRng, SimRng) {
    // These two shapes are the allowed ones and must NOT be flagged.
    (parent.fork(7), SimRng::new(config_seed))
}
