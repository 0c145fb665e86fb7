//! Lightweight property-based testing over [`SimRng`].
//!
//! An in-repo replacement for the `proptest` dependency (the workspace is
//! hermetic; see DESIGN.md). A property is an ordinary closure that panics
//! (via `assert!` and friends) when the invariant it checks is violated;
//! the harness generates many random inputs and reports the failing case
//! seed so the exact input can be replayed.
//!
//! ```
//! use scalewall_sim::prop::{self, gen};
//!
//! prop::check("reverse_is_involutive", |rng| {
//!     gen::vec_with(rng, 0, 50, |r| r.next_u64())
//! }, |v| {
//!     let mut w = v.clone();
//!     w.reverse();
//!     w.reverse();
//!     assert_eq!(&w, v);
//! });
//! ```
//!
//! # Knobs
//!
//! * `SCALEWALL_PROP_CASES=<n>` — run `n` cases per property (overrides the
//!   per-property count; crank it up for a soak run).
//! * `SCALEWALL_PROP_REPLAY=<seed>` — replay exactly one case per property,
//!   the one with that case seed (decimal or `0x…` hex). Combine with
//!   `cargo test <property_name>` to re-run a single reported failure.
//!
//! # Regression cases
//!
//! When a run fails, the harness prints the failing case seed. Pin it
//! forever by adding an explicit test that calls [`replay`] with that seed
//! — the moral equivalent of a `proptest-regressions` file, but a named,
//! greppable test case instead of an opaque artifact.

use crate::hash::{fnv1a, mix64, FNV_OFFSET};
use crate::rng::SimRng;
use std::fmt::Debug;
use std::panic::{self, AssertUnwindSafe};

/// Default number of generated cases per property.
pub const DEFAULT_CASES: u32 = 256;

/// Marker payload used by [`assume`] to reject a generated case.
struct AssumeReject;

/// Discard the current case (without failing) when `cond` is false.
///
/// Rejected cases are regenerated from the next seed; a property that
/// rejects nearly everything will fail loudly rather than silently pass
/// on a handful of inputs.
#[expect(
    clippy::panic,
    reason = "the harness catches the `AssumeReject` unwind and regenerates the case"
)]
pub fn assume(cond: bool) {
    if !cond {
        panic::panic_any(AssumeReject);
    }
}

/// SplitMix64 finalizer for case-seed derivation.
fn mix(a: u64, b: u64) -> u64 {
    mix64(a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A harness variable: `None` when unset, `Err` says what is wrong with it.
fn env_u64(name: &str) -> Result<Option<u64>, String> {
    let Ok(raw) = std::env::var(name) else {
        return Ok(None);
    };
    let parsed = if let Some(hex) = raw.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        raw.parse()
    };
    parsed
        .map(Some)
        .map_err(|_| format!("{name}={raw:?} is not a u64"))
}

/// Run one generated input through the property, reporting context on panic.
///
/// Returns `false` if the case was rejected by [`assume`].
fn run_case<T: Debug>(
    name: &str,
    case_seed: u64,
    case_no: Option<(u32, u32)>,
    gen: &impl Fn(&mut SimRng) -> T,
    prop: &impl Fn(&T),
) -> bool {
    let mut rng = SimRng::new(case_seed);
    let input = gen(&mut rng);
    let result = panic::catch_unwind(AssertUnwindSafe(|| prop(&input)));
    match result {
        Ok(()) => true,
        Err(payload) if payload.is::<AssumeReject>() => false,
        Err(payload) => {
            let position = match case_no {
                Some((i, n)) => format!("case {}/{n}", i + 1),
                None => "replay".to_string(),
            };
            eprintln!(
                "\nproperty '{name}' failed ({position}, case seed {case_seed:#018x})\n\
                 input: {input:?}\n\
                 replay: SCALEWALL_PROP_REPLAY={case_seed:#x} cargo test {name}\n\
                 pin:    prop::replay(\"{name}\", {case_seed:#x}, <gen>, <prop>)\n"
            );
            panic::resume_unwind(payload);
        }
    }
}

/// Check a property over `cases` generated inputs.
///
/// `gen` builds an input from a per-case [`SimRng`]; `prop` panics if the
/// property does not hold. The case count can be overridden globally with
/// `SCALEWALL_PROP_CASES`.
pub fn check_n<T: Debug>(
    name: &str,
    cases: u32,
    gen: impl Fn(&mut SimRng) -> T,
    prop: impl Fn(&T),
) {
    // A malformed variable fails the property the way a failing case does:
    // said on stderr, then unwound to the test runner.
    let setting = |var| {
        env_u64(var).unwrap_or_else(|malformed| {
            eprintln!("\nproperty '{name}' not run: {malformed}\n");
            panic::resume_unwind(Box::new(malformed))
        })
    };
    let base = setting("SCALEWALL_PROP_SEED").unwrap_or(0);
    // The name's hash gives every property its own seed stream.
    let stream = mix(base, fnv1a(FNV_OFFSET, name.as_bytes()));

    if let Some(seed) = setting("SCALEWALL_PROP_REPLAY") {
        run_case(name, seed, None, &gen, &prop);
        return;
    }

    let cases = setting("SCALEWALL_PROP_CASES")
        .map(|n| n as u32)
        .unwrap_or(cases);
    let mut accepted = 0u32;
    let mut attempts = 0u64;
    // Allow a bounded number of `assume` rejections before declaring the
    // generator too narrow (proptest's "too many global rejects" check).
    let max_attempts = (cases as u64) * 16 + 64;
    while accepted < cases {
        assert!(
            attempts < max_attempts,
            "property '{name}': generator rejected too many cases \
             ({accepted}/{cases} accepted after {attempts} attempts) — \
             tighten the generator instead of leaning on assume()"
        );
        let case_seed = mix(stream, attempts);
        if run_case(name, case_seed, Some((accepted, cases)), &gen, &prop) {
            accepted += 1;
        }
        attempts += 1;
    }
}

/// Check a property over [`DEFAULT_CASES`] generated inputs.
pub fn check<T: Debug>(name: &str, gen: impl Fn(&mut SimRng) -> T, prop: impl Fn(&T)) {
    check_n(name, DEFAULT_CASES, gen, prop);
}

/// Replay a single failing case by its reported seed.
///
/// This is the regression-pinning entry point: a past failure becomes a
/// named `#[test]` that calls `replay` with the seed the harness printed.
pub fn replay<T: Debug>(
    name: &str,
    case_seed: u64,
    gen: impl Fn(&mut SimRng) -> T,
    prop: impl Fn(&T),
) {
    let accepted = run_case(name, case_seed, None, &gen, &prop);
    assert!(
        accepted,
        "regression case {case_seed:#x} was rejected by assume()"
    );
}

/// Input generators. All are plain functions over [`SimRng`], so arbitrary
/// structures compose by ordinary function calls — no macro DSL.
pub mod gen {
    use crate::rng::SimRng;

    pub const LOWER: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
    pub const DIGITS: &[u8] = b"0123456789";

    /// Uniform `usize` in `[lo, hi)`.
    pub fn usize_in(rng: &mut SimRng, lo: usize, hi: usize) -> usize {
        rng.range(lo as u64, hi as u64) as usize
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn f64_in(rng: &mut SimRng, lo: f64, hi: f64) -> f64 {
        lo + rng.unit() * (hi - lo)
    }

    /// Any `u64` (full range).
    pub fn any_u64(rng: &mut SimRng) -> u64 {
        rng.next_u64()
    }

    /// Any `u32` (full range).
    pub fn any_u32(rng: &mut SimRng) -> u32 {
        rng.next_u32()
    }

    /// Any `u8` (full range).
    pub fn any_u8(rng: &mut SimRng) -> u8 {
        (rng.next_u64() >> 56) as u8
    }

    /// Any `i64` (full range).
    pub fn any_i64(rng: &mut SimRng) -> i64 {
        rng.next_u64() as i64
    }

    /// Fair coin.
    pub fn any_bool(rng: &mut SimRng) -> bool {
        rng.next_u64() & 1 == 1
    }

    /// A `Vec` with length in `[min_len, max_len)`, elements from `f`.
    pub fn vec_with<T>(
        rng: &mut SimRng,
        min_len: usize,
        max_len: usize,
        mut f: impl FnMut(&mut SimRng) -> T,
    ) -> Vec<T> {
        let len = usize_in(rng, min_len, max_len);
        (0..len).map(|_| f(rng)).collect()
    }

    /// A string of `len` characters drawn uniformly from `charset`.
    pub fn string_from(rng: &mut SimRng, charset: &[u8], len: usize) -> String {
        (0..len).map(|_| *rng.pick(charset) as char).collect()
    }

    /// An identifier: one char from `first`, then `[min_rest, max_rest)`
    /// chars from `rest`. Covers the `[a-z][a-z0-9_]{0,20}`-style regex
    /// strategies the proptest suites used.
    pub fn ident(
        rng: &mut SimRng,
        first: &[u8],
        rest: &[u8],
        min_rest: usize,
        max_rest: usize,
    ) -> String {
        let mut s = String::with_capacity(max_rest + 1);
        s.push(*rng.pick(first) as char);
        let n = usize_in(rng, min_rest, max_rest);
        for _ in 0..n {
            s.push(*rng.pick(rest) as char);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_passes_trivial_property() {
        check_n(
            "unit_is_bounded",
            64,
            |rng| rng.unit(),
            |&u| {
                assert!((0.0..1.0).contains(&u));
            },
        );
    }

    #[test]
    fn failing_property_reports_and_panics() {
        let result = panic::catch_unwind(|| {
            check_n(
                "always_fails",
                8,
                |rng| rng.below(10),
                |_| {
                    panic!("intentional failure");
                },
            );
        });
        assert!(result.is_err(), "failing property must propagate the panic");
    }

    #[test]
    fn replay_is_deterministic() {
        // Capture the input replay() would generate for a fixed seed, twice.
        let capture = |seed: u64| {
            let seen = std::cell::RefCell::new(Vec::new());
            replay(
                "capture",
                seed,
                |rng| rng.next_u64(),
                |&v| seen.borrow_mut().push(v),
            );
            seen.into_inner()
        };
        assert_eq!(capture(0xDEAD_BEEF), capture(0xDEAD_BEEF));
    }

    #[test]
    fn assume_rejects_without_failing() {
        // Half the inputs are rejected; the property still completes.
        check_n(
            "assume_filters",
            32,
            |rng| rng.below(100),
            |&v| {
                assume(v % 2 == 0);
                assert_eq!(v % 2, 0);
            },
        );
    }

    #[test]
    fn over_rejecting_generator_fails_loudly() {
        let result = panic::catch_unwind(|| {
            check_n(
                "rejects_everything",
                16,
                |rng| rng.below(10),
                |_| {
                    assume(false);
                },
            );
        });
        assert!(result.is_err(), "an all-rejecting property must not pass");
    }

    #[test]
    fn ident_matches_charset_contract() {
        let mut rng = SimRng::new(1);
        for _ in 0..200 {
            let s = gen::ident(&mut rng, gen::LOWER, gen::DIGITS, 0, 5);
            let mut chars = s.chars();
            assert!(chars.next().unwrap().is_ascii_lowercase());
            assert!(chars.all(|c| c.is_ascii_digit()));
            assert!(s.len() <= 6);
        }
    }
}
