//! Deterministic random source.
//!
//! Every stochastic process in the workspace (tail latency, failures, shard
//! placement randomization, workload generation) draws from a [`SimRng`]
//! seeded at experiment start, so a run is fully reproducible from its seed.
//!
//! Components that evolve independently each get their own stream, so
//! adding draws to one component does not perturb the sequence observed by
//! another (a classic replay-stability pitfall). Outside this crate the
//! streams are types:
//!
//! * an [`RngRoot`] is a seed that forks but cannot draw: named children
//!   come from a [`Stream`] label, dynamic ones (a host, an instant) from
//!   [`RngRoot::child`];
//! * a [`FaultRng`] is the fault stream, and only [`RngRoot::fault`]
//!   builds one, so fault victim selection cannot be handed a workload
//!   stream;
//! * a [`SimRng`] draws, and [`SimRng::child`] forks it by index where a
//!   component draws and forks from one stream.
//!
//! ```
//! use scalewall_sim::rng::{RngRoot, Stream};
//!
//! let mut root = RngRoot::new(7);
//! let mut load = root.stream(Stream::Load);
//! let mut faults = root.fault();
//! let host = *faults.pick(&[10, 11, 12]);
//! let jitter = load.child(host).unit();
//! assert!((0.0..1.0).contains(&jitter));
//! ```
//!
//! A root cannot draw:
//!
//! ```compile_fail
//! let mut root = scalewall_sim::rng::RngRoot::new(7);
//! let _ = root.next_u64();
//! ```
//!
//! and fault code typed on [`FaultRng`] refuses any other stream:
//!
//! ```compile_fail
//! use scalewall_sim::rng::{FaultRng, RngRoot, Stream};
//!
//! fn victim(rng: &mut FaultRng, hosts: &[u64]) -> u64 {
//!     *rng.pick(hosts)
//! }
//! let mut workload = RngRoot::new(7).stream(Stream::Load);
//! victim(&mut workload, &[10, 11, 12]);
//! ```
//!
//! # Stream-stability contract
//!
//! The generator is a self-contained **xoshiro256++** (Blackman & Vigna)
//! seeded through a **SplitMix64** expansion of the 64-bit seed — no external
//! crates, no platform dependence. The byte stream for a given seed is part
//! of the repo's reproducibility contract (EXPERIMENTS.md: one run = one
//! seed) and must not change silently:
//!
//! * `SimRng::new(seed)` always produces the same sequence for the same
//!   seed, on every platform, forever. Golden numbers derived from it (in
//!   `tests/` and `crates/bench/src/figures/`) pin this stream.
//! * `fork(label)` consumes one draw of the parent and mixes the label
//!   into it. A child's stream therefore depends only on the parent's
//!   *position at fork time* and the label — never on how many draws a
//!   *sibling* stream later makes — and two forks of one label on one
//!   stream give two different children. Fork before fan-out, then hand
//!   each component its own stream.
//! * The duplicate-stream hazard is building a stream twice from one
//!   seed: two roots of one seed fork and draw in lockstep. Outside
//!   `crates/sim`, sim-facing code names neither `SimRng::new` nor
//!   `.fork(` (lint rule D3), so every stream comes from an [`RngRoot`]
//!   built from a config seed. [`Stream`], [`RngRoot`] and [`FaultRng`]
//!   are that same `fork(label)` call under a type: every stream they hand
//!   out is bit-identical to the label fork it replaced.
//! * Changing the algorithm, the seeding path, or the draw order of any
//!   helper below is a breaking change to recorded experiments: re-derive
//!   the golden values and say so in the changelog.
//!
//! The previous implementation wrapped `rand::rngs::StdRng` (ChaCha12); the
//! stream changed once, when that external dependency was excised. Any test
//! that pinned exact StdRng outputs was re-derived at the same time.

/// SplitMix64 step: advances `state` and returns the next output.
///
/// Used only for seed expansion and fork-label mixing; the main sequence
/// comes from xoshiro256++.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    crate::hash::mix64(*state)
}

/// A seedable, forkable deterministic RNG.
///
/// Self-contained xoshiro256++ with stable stream forking. See the module
/// docs for the stream-stability contract.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Create a root RNG from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut s: [u64; 4] = [0; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // xoshiro requires a non-zero state; SplitMix64 cannot emit four
        // consecutive zeros, but guard anyway so the invariant is local.
        if s == [0; 4] {
            s = [0x9E37_79B9_7F4A_7C15, 0, 0, 0];
        }
        SimRng { s }
    }

    /// Next raw output of the xoshiro256++ sequence.
    #[inline]
    fn next(&mut self) -> u64 {
        let [s0, s1, s2, s3] = &mut self.s;
        let result = s0.wrapping_add(*s3).rotate_left(23).wrapping_add(*s0);
        let t = *s1 << 17;
        *s2 ^= *s0;
        *s3 ^= *s1;
        *s1 ^= *s2;
        *s0 ^= *s3;
        *s2 ^= t;
        *s3 = s3.rotate_left(45);
        result
    }

    /// Derive a child stream from one draw of this one and `label`.
    ///
    /// The draw is consumed, so a second fork under the same label gives a
    /// different child. Mixing `label` into the derived seed lets callers
    /// create stable, named streams (e.g. one per host) whose sequences do
    /// not change when unrelated streams are added or reordered. Outside
    /// `crates/sim`, sim-facing code forks through [`RngRoot`] and
    /// [`SimRng::child`] instead (module docs).
    pub fn fork(&mut self, label: u64) -> SimRng {
        // SplitMix64 finalizer: cheap, well-distributed seed derivation.
        let mut z = self.next() ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        SimRng::new(z)
    }

    /// The child at a dynamic `index` (a host id, an instant): the
    /// `fork(index)` of a stream that also draws.
    #[inline]
    pub fn child(&mut self, index: u64) -> SimRng {
        self.fork(index)
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    ///
    /// Unbiased via Lemire's multiply-shift with rejection.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        let mut m = (self.next() as u128) * (n as u128);
        let mut lo = m as u64;
        if lo < n {
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                m = (self.next() as u128) * (n as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in `[lo, hi)`. Panics if the range is empty.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.below(hi - lo)
    }

    /// Bernoulli trial with probability `p` of `true` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick from empty slice");
        &items[self.below(items.len() as u64) as usize]
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Raw 64-bit draw (for hashing-style uses).
    pub fn next_u64(&mut self) -> u64 {
        self.next()
    }

    /// Raw 32-bit draw (high bits of the 64-bit output).
    pub fn next_u32(&mut self) -> u32 {
        (self.next() >> 32) as u32
    }

    /// Fill a byte slice with uniformly random bytes.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

/// The static stream labels. Each discriminant is the `fork` label its
/// stream has always had.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stream {
    /// `Experiment`'s table population.
    Population = 1,
    /// `Experiment`'s initial table loads.
    Load = 2,
    /// `Experiment`'s fault victim selection, handed out as a [`FaultRng`]
    /// by [`RngRoot::fault`].
    Fault = 3,
    /// `Experiment`'s QoS arrivals and tenant classes.
    Traffic = 4,
    /// `Deployment`'s rack topology, a root of its own.
    RackTopology = 0x7ac0,
}

/// A seed that forks streams but cannot draw. It is not `Clone`: a copy
/// would fork the same children again.
#[derive(Debug)]
pub struct RngRoot(SimRng);

impl RngRoot {
    /// The root of a config seed.
    #[inline]
    pub fn new(seed: u64) -> Self {
        RngRoot(SimRng::new(seed))
    }

    /// The named stream `stream`.
    #[inline]
    pub fn stream(&mut self, stream: Stream) -> SimRng {
        self.0.fork(stream as u64)
    }

    /// The named stream `stream`, as a root of its own.
    #[inline]
    pub fn branch(&mut self, stream: Stream) -> RngRoot {
        RngRoot(self.stream(stream))
    }

    /// The fault stream ([`Stream::Fault`]).
    #[inline]
    pub fn fault(&mut self) -> FaultRng {
        FaultRng(self.stream(Stream::Fault))
    }

    /// The child at a dynamic `index`.
    #[inline]
    pub fn child(&mut self, index: u64) -> SimRng {
        self.0.fork(index)
    }

    /// The root's own sequence, positioned after every fork so far, as a
    /// stream that draws: a component whose one stream draws and forks
    /// (`Experiment`, `Deployment`), or one that never forks.
    #[inline]
    pub fn into_rng(self) -> SimRng {
        self.0
    }
}

/// The fault stream: only [`RngRoot::fault`] builds one, and it offers
/// only the draws fault victim selection makes.
#[derive(Debug)]
pub struct FaultRng(SimRng);

impl FaultRng {
    /// [`SimRng::pick`].
    #[inline]
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        self.0.pick(items)
    }

    /// [`SimRng::shuffle`].
    #[inline]
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        self.0.shuffle(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference vector for xoshiro256++ seeded from SplitMix64(0), as
    /// produced by the canonical C implementations (Blackman & Vigna).
    /// Pins the stream-stability contract: if this test fails, recorded
    /// experiment outputs are no longer reproducible.
    #[test]
    fn reference_stream_is_pinned() {
        let mut sm = 0u64;
        let expect_state: [u64; 4] = [
            0xE220_A839_7B1D_CDAF,
            0x6E78_9E6A_A1B9_65F4,
            0x06C4_5D18_8009_454F,
            0xF88B_B8A8_724C_81EC,
        ];
        let mut state = [0u64; 4];
        for slot in &mut state {
            *slot = splitmix64(&mut sm);
        }
        assert_eq!(state, expect_state, "SplitMix64 seed expansion drifted");

        let mut rng = SimRng::new(0);
        assert_eq!(rng.s, expect_state);
        // First outputs of xoshiro256++ from that state, computed from the
        // recurrence (rotl(s0 + s3, 23) + s0) and pinned here.
        let first = rng.next_u64();
        let second = rng.next_u64();
        assert_eq!(
            first,
            expect_state[0]
                .wrapping_add(expect_state[3])
                .rotate_left(23)
                .wrapping_add(expect_state[0])
        );
        assert_ne!(first, second);
    }

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seed_different_sequence() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forks_are_independent_and_stable() {
        let mut root1 = SimRng::new(7);
        let mut root2 = SimRng::new(7);
        let mut a1 = root1.fork(1);
        let mut a2 = root2.fork(1);
        // Same label, same parent state → same stream.
        for _ in 0..16 {
            assert_eq!(a1.next_u64(), a2.next_u64());
        }
        // Different labels from same parent state → different streams.
        let mut r1 = SimRng::new(9);
        let mut r2 = SimRng::new(9);
        let mut x = r1.fork(1);
        let mut y = r2.fork(2);
        assert_ne!(x.next_u64(), y.next_u64());
    }

    #[test]
    fn a_repeated_label_forks_a_different_child() {
        // Each fork consumes a parent draw, so one label twice on one
        // stream is two streams, not one.
        let mut parent = SimRng::new(31);
        let (mut a, mut b) = (parent.fork(1), parent.fork(1));
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn fork_streams_survive_sibling_draws() {
        // The replay-stability pitfall: draws on one child stream must not
        // perturb a sibling forked earlier or later from the same parent.
        let mut parent_a = SimRng::new(123);
        let mut parent_b = SimRng::new(123);

        let mut first_a = parent_a.fork(10);
        let mut first_b = parent_b.fork(10);
        // Burn many draws on one copy of the first child only.
        for _ in 0..1_000 {
            first_a.next_u64();
        }
        let _ = first_b.next_u64(); // single draw on the other copy

        // The *second* fork is identical regardless of sibling activity.
        let mut second_a = parent_a.fork(20);
        let mut second_b = parent_b.fork(20);
        for _ in 0..32 {
            assert_eq!(second_a.next_u64(), second_b.next_u64());
        }
    }

    #[test]
    fn unit_in_range() {
        let mut rng = SimRng::new(3);
        for _ in 0..1_000 {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn below_and_range_bounds() {
        let mut rng = SimRng::new(5);
        for _ in 0..1_000 {
            assert!(rng.below(7) < 7);
            let v = rng.range(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut rng = SimRng::new(29);
        let mut counts = [0u32; 7];
        for _ in 0..70_000 {
            counts[rng.below(7) as usize] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(11);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-0.5));
        assert!(rng.chance(1.5));
    }

    #[test]
    fn chance_statistics() {
        let mut rng = SimRng::new(13);
        let hits = (0..100_000).filter(|_| rng.chance(0.25)).count();
        let ratio = hits as f64 / 100_000.0;
        assert!((ratio - 0.25).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SimRng::new(17);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "100-element shuffle left input sorted");
    }

    #[test]
    fn pick_returns_member() {
        let mut rng = SimRng::new(19);
        let items = [10, 20, 30];
        for _ in 0..50 {
            assert!(items.contains(rng.pick(&items)));
        }
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut a = SimRng::new(23);
        let mut b = SimRng::new(23);
        let mut buf_a = [0u8; 13];
        let mut buf_b = [0u8; 13];
        a.fill_bytes(&mut buf_a);
        b.fill_bytes(&mut buf_b);
        assert_eq!(buf_a, buf_b);
        assert!(buf_a.iter().any(|&x| x != 0), "13 random bytes all zero");
    }
}
