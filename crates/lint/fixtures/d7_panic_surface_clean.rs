//! Clean pair for the D7 fixture: the same shapes written to degrade —
//! `.get`/`.first`/`.split_first` with defaults, and a fixed-size array
//! destructured instead of indexed.

fn first(v: &[u32]) -> u32 {
    v.first().copied().unwrap_or(0)
}

fn indexed(v: &[u32], i: usize) -> u32 {
    v.get(i).copied().unwrap_or_default()
}

fn rest(v: &[u32]) -> &[u32] {
    v.split_first().map_or(&[], |(_, rest)| rest)
}

struct Wheel {
    occupied: [u64; 4],
}

impl Wheel {
    fn level0(&self) -> u64 {
        let [level0, ..] = self.occupied;
        level0
    }
}

/// The seed-expansion idiom of `sim::rng`: the array is replaced whole.
fn expand(seed: u64) -> [u64; 4] {
    let mut state: [u64; 4] = [seed; 4];
    if state == [0; 4] {
        state = [1, 0, 0, 0];
    }
    state
}
