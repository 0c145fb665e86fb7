//! Clean pair for the D7 fixture: the same shapes written to degrade —
//! `?`, `.get`/`.first` with defaults, and the fixed-size-array idiom on
//! a field and on a local.

fn checked(x: Option<u32>) -> Option<u32> {
    let a = x?;
    Some(a + 1)
}

fn first(v: &[u32]) -> u32 {
    v.first().copied().unwrap_or(0)
}

fn indexed(v: &[u32], i: usize) -> u32 {
    v.get(i).copied().unwrap_or_default()
}

struct Wheel {
    occupied: [u64; 4],
}

impl Wheel {
    /// Literal index into a fixed-size array field: the kernel's
    /// occupancy-bitmask idiom, bounded by the type.
    fn level0(&self) -> u64 {
        self.occupied[0]
    }
}

/// Literal index into a local declared as an array: the seed-expansion
/// idiom of `sim::rng`, bounded by the type like the field above.
fn expand(seed: u64) -> [u64; 4] {
    let mut state: [u64; 4] = [seed; 4];
    if state == [0; 4] {
        state[0] = 1;
    }
    state
}
