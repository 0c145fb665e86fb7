//! The workspace's stable hashes: FNV-1a and the SplitMix64 finaliser.
//!
//! Shard mapping, row routing, anti-affinity group keys, replay digests
//! and seed derivation all need a hash whose output never changes across
//! Rust releases or platforms (`DefaultHasher` promises neither), and all
//! of them must agree on the constants. They are spelled here once.

/// FNV-1a 64-bit offset basis: the hash of the empty input.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// FNV-1a over `bytes`, continuing from `hash` (start at [`FNV_OFFSET`]):
/// `fnv1a(fnv1a(h, a), b)` hashes the concatenation `ab`.
#[inline]
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| fnv1a_word(h, b as u64))
}

/// One FNV-1a step that absorbs a whole word at once. Not the byte-wise
/// hash of the word's encoding: digests that fold counters and ids use
/// this, and only ever compare against themselves.
#[inline]
pub fn fnv1a_word(hash: u64, word: u64) -> u64 {
    (hash ^ word).wrapping_mul(FNV_PRIME)
}

/// The SplitMix64 output function: a bijective avalanche mix. Raw FNV-1a
/// is too structured on inputs that differ in a short suffix; this
/// restores ideal-hash behaviour before a modulo.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Published FNV-1a 64 test vectors, and the word step against the
    /// byte step on one-byte words.
    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            fnv1a(FNV_OFFSET, b"foobar")
        );
        assert_eq!(fnv1a_word(FNV_OFFSET, b'a' as u64), fnv1a(FNV_OFFSET, b"a"));
    }

    /// First output of the reference SplitMix64 generator seeded with 0.
    #[test]
    fn mix64_matches_splitmix_reference() {
        assert_eq!(mix64(0x9E37_79B9_7F4A_7C15), 0xE220_A839_7B1D_CDAF);
        assert_eq!(mix64(0), 0);
    }
}
