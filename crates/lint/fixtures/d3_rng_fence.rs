//! Seeded D3 fixture: the RNG fence. Outside `crates/sim`, sim-facing
//! non-test code builds no `SimRng` and forks none; under a `cluster`
//! path every line marked below reports D3, in `crates/sim` and under
//! `#[cfg(test)]` none does.

use scalewall_sim::rng::{RngRoot, Stream};
use scalewall_sim::SimRng;

pub fn private_randomness() -> u64 {
    // A component minting its own stream from a magic number: adding or
    // removing draws anywhere else no longer replays identically.
    let mut rng = SimRng::new(0xDEAD_BEEF); // expect: D3
    rng.next_u64()
}

pub fn untyped(parent: &mut SimRng, cfg: &Config) -> (SimRng, SimRng) {
    // A config seed and a label fork are fenced too: a second
    // `SimRng::new(cfg.seed)` is the same stream twice.
    (SimRng::new(cfg.seed), parent.fork(1)) // expect: D3
}

pub fn sanctioned(cfg: &Config, host: u64) -> (SimRng, SimRng) {
    // The typed streams are the allowed shapes and must NOT be flagged.
    let mut root = RngRoot::new(cfg.seed);
    let mut load = root.stream(Stream::Load);
    (load.child(host), root.into_rng())
}

#[cfg(test)]
mod tests {
    use scalewall_sim::SimRng;

    fn replay(seed: u64) -> SimRng {
        SimRng::new(seed).fork(1)
    }
}
