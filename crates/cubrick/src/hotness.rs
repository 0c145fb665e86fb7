//! Hotness counters and the adaptive-compression memory monitor (§IV-F2).
//!
//! Cubrick "maintains hotness counters for each data block ... that are
//! incremented once they are needed by a query, and slowly and
//! stochastically decay over time if not used" (the classification
//! strategy is LeanStore-inspired). Under memory pressure the memory
//! monitor compresses bricks coldest-first; under surplus it decompresses
//! hottest-first.
//!
//! This module owns the counter mechanics and the compress/decompress
//! *ordering policy*; the actual state changes are applied by the
//! partition store, which owns the bricks.

use scalewall_sim::SimRng;

/// A single brick's hotness counter.
///
/// Saturating increments on touch; stochastic halving on decay passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Hotness(pub u32);

impl Hotness {
    /// Record one access.
    pub fn touch(&mut self) {
        self.0 = self.0.saturating_add(1);
    }

    /// One decay pass: with probability `p`, halve the counter.
    /// Stochasticity avoids synchronized cliffs across millions of bricks.
    pub fn decay(&mut self, p: f64, rng: &mut SimRng) {
        if self.0 > 0 && rng.chance(p) {
            self.0 /= 2;
        }
    }
}

/// Counter value at which a brick counts as *hot* (Fig 4e split).
pub const HOT_THRESHOLD: u32 = 4;

/// Decompression resumes below this fraction of the budget (hysteresis so
/// the monitor does not thrash at the boundary).
const LOW_WATERMARK: f64 = 0.8;

/// Memory-monitor policy parameters.
#[derive(Debug, Clone, Copy)]
pub struct MemoryMonitorConfig {
    /// Node memory budget in bytes: compression starts above this.
    pub budget_bytes: u64,
    /// Per-pass halving probability for decay.
    pub decay_probability: f64,
}

impl Default for MemoryMonitorConfig {
    fn default() -> Self {
        MemoryMonitorConfig {
            budget_bytes: 8 << 30, // 8 GiB of the host for data
            decay_probability: 0.1,
        }
    }
}

/// Where a footprint stands against the budget: what a monitor pass may
/// move, and how many bytes of it. The one place the comparison is made;
/// a pass asks it before looking at any brick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Band {
    /// Over budget by this many bytes: compress.
    Over(u64),
    /// This many bytes below the low watermark: decompress.
    Under(u64),
    /// Between the two (the hysteresis band): nothing moves.
    Within,
}

impl MemoryMonitorConfig {
    /// The band a `footprint` puts its partition in.
    pub fn band(&self, footprint: u64) -> Band {
        let low = self.budget_bytes as f64 * LOW_WATERMARK;
        if footprint > self.budget_bytes {
            Band::Over(footprint - self.budget_bytes)
        } else if (footprint as f64) < low {
            Band::Under(low as u64 - footprint)
        } else {
            Band::Within
        }
    }
}

/// The brick keys one pass moves, in order.
///
/// `candidates` are `(key, hotness, payload bytes)` of the bricks `band`
/// can move: the uncompressed ones when over budget, the compressed ones
/// (by decompressed size) when under the watermark.
///
/// Over budget: compress coldest-first until the projected footprint fits
/// (compression is conservatively assumed to reclaim 75 % of a brick's
/// payload — the monitor re-runs next pass with real numbers). Under the
/// low watermark: decompress hottest-first while staying under it.
pub fn plan(band: Band, mut candidates: Vec<(u64, Hotness, u64)>) -> Vec<u64> {
    let mut moved = Vec::new();
    match band {
        Band::Over(mut need) => {
            // Coldest first; ties by key for determinism.
            candidates.sort_by_key(|&(k, h, _)| (h.0, k));
            for (key, _, bytes) in candidates {
                if need == 0 {
                    break;
                }
                moved.push(key);
                need = need.saturating_sub(bytes * 3 / 4);
            }
        }
        Band::Under(mut room) => {
            // Hottest first; ties by key.
            candidates.sort_by_key(|&(k, h, _)| (std::cmp::Reverse(h.0), k));
            for (key, hot, bytes) in candidates {
                // Only bring back bricks that are actually warm; cold data can
                // stay compressed forever.
                if hot.0 == 0 {
                    break;
                }
                // Growth = decompressed − compressed ≈ 75 % of payload.
                let growth = bytes * 3 / 4;
                if growth > room {
                    break;
                }
                moved.push(key);
                room -= growth;
            }
        }
        Band::Within => {}
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn touch_and_saturate() {
        let mut h = Hotness::default();
        h.touch();
        h.touch();
        assert_eq!(h.0, 2);
        let mut h = Hotness(u32::MAX);
        h.touch();
        assert_eq!(h.0, u32::MAX);
    }

    #[test]
    fn decay_halves_probabilistically() {
        let mut rng = SimRng::new(1);
        let mut counters = vec![Hotness(100); 10_000];
        for c in &mut counters {
            c.decay(0.5, &mut rng);
        }
        let halved = counters.iter().filter(|c| c.0 == 50).count();
        assert!((halved as f64 / 10_000.0 - 0.5).abs() < 0.03, "{halved}");
        // p=0 never decays; p=1 always does.
        let mut c = Hotness(8);
        c.decay(0.0, &mut rng);
        assert_eq!(c.0, 8);
        c.decay(1.0, &mut rng);
        assert_eq!(c.0, 4);
    }

    #[test]
    fn repeated_decay_reaches_zero() {
        let mut rng = SimRng::new(2);
        let mut c = Hotness(1_000);
        for _ in 0..200 {
            c.decay(0.5, &mut rng);
        }
        assert_eq!(c.0, 0);
    }

    fn config(budget: u64) -> MemoryMonitorConfig {
        MemoryMonitorConfig {
            budget_bytes: budget,
            ..Default::default()
        }
    }

    #[test]
    fn over_budget_compresses_coldest_first() {
        let uncompressed = vec![
            (1u64, Hotness(10), 1_000u64),
            (2, Hotness(0), 1_000),
            (3, Hotness(5), 1_000),
        ];
        let band = config(2_000).band(3_000);
        assert_eq!(band, Band::Over(1_000));
        assert_eq!(
            plan(band, uncompressed),
            vec![2, 3],
            "coldest until reclaim covers overage"
        );
    }

    #[test]
    fn under_watermark_decompresses_hottest_first() {
        let compressed = vec![
            (1u64, Hotness(1), 1_000u64),
            (2, Hotness(9), 1_000),
            (3, Hotness(0), 1_000),
        ];
        // budget 10k, watermark 8k, footprint 5k → 3k room.
        let band = config(10_000).band(5_000);
        assert_eq!(band, Band::Under(3_000));
        assert_eq!(
            plan(band, compressed),
            vec![2, 1],
            "hottest first, cold stays compressed"
        );
    }

    #[test]
    fn in_band_does_nothing() {
        // The band's edges belong to it: at the budget, at the watermark.
        for footprint in [8_000, 9_000, 10_000] {
            let band = config(10_000).band(footprint);
            assert_eq!(band, Band::Within, "{footprint}");
            assert!(plan(band, vec![(1, Hotness(0), 100), (2, Hotness(9), 100)]).is_empty());
        }
        assert_eq!(config(10_000).band(10_001), Band::Over(1));
        assert_eq!(config(10_000).band(7_999), Band::Under(1));
    }

    #[test]
    fn decompression_respects_room() {
        let compressed = vec![(1u64, Hotness(9), 10_000u64), (2, Hotness(8), 100)];
        // Room = 8k − 7.9k = 100 bytes: brick 1 (growth 7.5k) won't fit,
        // and the policy stops at the first non-fitting brick.
        assert!(plan(config(10_000).band(7_900), compressed).is_empty());
    }

    #[test]
    fn deterministic_tie_break_by_key() {
        let uncompressed = vec![(9u64, Hotness(0), 100u64), (4, Hotness(0), 100)];
        assert_eq!(plan(config(0).band(150), uncompressed), vec![4, 9]);
    }
}
