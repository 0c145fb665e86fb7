//! Propagation-delay model for the SMC distribution tree.
//!
//! SMC "uses a multi-level data distribution tree to cache and propagate"
//! mappings, adding "a small delay to how long it takes for clients to
//! learn about changes to shard assignment" (§III-A). The delay a given
//! subscriber experiences for a given update is modelled as
//!
//! ```text
//! delay = Σ_levels Exp(mean_hop)  +  Uniform(0, poll_interval)
//! ```
//!
//! — hop latencies through the tree plus the local proxy's poll jitter.
//!
//! Sampling is **lazy and deterministic**: the delay for `(subscriber,
//! update_seq)` is drawn from an RNG seeded by hashing the pair, so
//! repeated queries return the same answer and no `updates × hosts` state
//! is ever materialized.

use scalewall_sim::{Exponential, RngRoot, SimDuration};

/// Number of cache levels between the authoritative store and a host's
/// local proxy. With the two below it lands the bulk of delays in the
/// "few seconds" band the paper reports for Fig 4c, with a tail into
/// tens of seconds.
const LEVELS: u32 = 3;

/// Mean per-level propagation hop delay, seconds.
const MEAN_HOP_SECS: f64 = 1.0;

/// Local proxy poll interval, seconds (jitter is uniform over it).
const POLL_INTERVAL_SECS: f64 = 10.0;

/// The seed the figures and the deployment mix per-pair samples from
/// (the deployment xors in the region index).
pub const DELAY_SEED: u64 = 0x5AC5;

/// Deterministic lazy delay sampler.
#[derive(Debug, Clone, Copy)]
pub struct DelayModel {
    /// Mixed into every per-pair sample.
    seed: u64,
    hop: Exponential,
}

impl DelayModel {
    pub fn new(seed: u64) -> Self {
        DelayModel {
            seed,
            hop: Exponential::from_mean(MEAN_HOP_SECS),
        }
    }

    /// Propagation delay experienced by `subscriber` for update `seq`.
    ///
    /// Pure function of `(seed, subscriber, seq)`.
    pub fn delay(&self, subscriber: u64, seq: u64) -> SimDuration {
        let mut rng = RngRoot::new(mix(self.seed, subscriber, seq)).into_rng();
        let mut secs = 0.0;
        for _ in 0..LEVELS {
            secs += self.hop.sample(&mut rng);
        }
        secs += rng.unit() * POLL_INTERVAL_SECS;
        SimDuration::from_secs_f64(secs)
    }
}

/// Mix three words into a seed (xorshift-multiply avalanche).
fn mix(a: u64, b: u64, c: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ c.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_pair() {
        let m = DelayModel::new(DELAY_SEED);
        assert_eq!(m.delay(3, 17), m.delay(3, 17));
        assert_ne!(m.delay(3, 17), m.delay(4, 17));
        assert_ne!(m.delay(3, 17), m.delay(3, 18));
    }

    #[test]
    fn delays_land_in_seconds_band() {
        let m = DelayModel::new(DELAY_SEED);
        let mut delays: Vec<f64> = (0..10_000)
            .map(|i| m.delay(i % 100, i / 100).as_secs_f64())
            .collect();
        delays.sort_by(f64::total_cmp);
        let p50 = delays[5_000];
        let p99 = delays[9_900];
        // Expected median ≈ 3 hops × 1 s (skewed) + 5 s poll ≈ 7–8 s.
        assert!(p50 > 3.0 && p50 < 12.0, "p50 {p50}");
        assert!(p99 < 60.0, "p99 {p99}");
        assert!(delays[0] >= 0.0);
    }

    #[test]
    fn seed_changes_samples() {
        let (a, b) = (DelayModel::new(1), DelayModel::new(2));
        assert_ne!(a.delay(0, 0), b.delay(0, 0));
    }
}
