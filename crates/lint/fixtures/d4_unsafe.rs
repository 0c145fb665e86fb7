//! Seeded D4 violation: `unsafe`. Any tier must reject this file (D4 is
//! on in every tier).

pub fn reinterpret(v: u64) -> f64 {
    unsafe { std::mem::transmute::<u64, f64>(v) }
}
