//! Seeded D1 violations: wall-clock time and OS threads in what the
//! lint is told is sim-facing code. `lint_source` under `RuleSet::SIM`
//! must report D1 here.

use std::time::{Instant, SystemTime};

pub fn elapsed_wall() -> u128 {
    let t0 = Instant::now();
    let _epoch = SystemTime::now();
    std::thread::spawn(|| {}).join().ok();
    t0.elapsed().as_nanos()
}
