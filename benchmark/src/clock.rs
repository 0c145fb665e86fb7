//! Host time, corrected for the core's speed state.
//!
//! One core of the reference box (a 2-vCPU VM on a shared host) runs at
//! its base clock while the host is busy and boosts by about 29 % when
//! it is not, switching every few seconds. Raw wall-clock medians of
//! identical work then differ by 12–16 % from one 20-second run to the
//! next. A fixed dependent-ALU spin timed just before and just after a
//! piece of work reads the state the work ran in: work ÷ spin stays
//! within 2 % across states (measured on `fanout_sweep` and
//! `engine_scan`, seven 20-second windows each).
//!
//! Every host-clock number this package reports is therefore wall-clock
//! seconds × (`REFERENCE_SPIN_S` ÷ the spin's time around the work): the
//! seconds the work takes on a core that runs the spin in
//! `REFERENCE_SPIN_S`, which is the reference box at its base clock.
//! Where the spin takes exactly that long the correction is 1.

use std::hint::black_box;
use std::time::Instant;

const SPIN_ITERS: u64 = 20_000_000;

/// The spin's duration on the reference box at base clock
/// (1.875 ns per iteration).
pub const REFERENCE_SPIN_S: f64 = 0.0375;

/// Time the reference spin once: a xorshift chain, every step depending
/// on the last, no memory traffic.
pub fn spin_s() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..SPIN_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    t0.elapsed().as_secs_f64()
}

/// Factor that turns wall-clock time spent between two spin readings
/// into time at reference speed. Above 1 when the core ran boosted.
pub fn correction(spin_before_s: f64, spin_after_s: f64) -> f64 {
    REFERENCE_SPIN_S / ((spin_before_s + spin_after_s) / 2.0)
}
