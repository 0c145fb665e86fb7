//! Seeded D7 fixture: every literal-index shape the audit flags. The rest
//! of the panic surface (`unwrap`, `expect`, the `panic!` family) is
//! clippy's.

fn literal_index(v: &[u32]) -> u32 {
    v[0]
}

fn literal_range_start(v: &[u32]) -> &[u32] {
    &v[1..]
}

/// The lint does not read types: a fixed-size array is indexed like any
/// other collection.
fn literal_index_into_array(s: [u64; 4]) -> u64 {
    s[0]
}
