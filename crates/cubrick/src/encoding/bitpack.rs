//! Fixed-width bit packing.
//!
//! Format: LEB128 row count, one byte of bit width `w`, then the values
//! packed little-endian at `w` bits each. `w` is the minimum width that
//! represents the column's maximum value, so dense ordinal columns (the
//! common case inside a brick) pack tightly.

use super::varint;

/// Minimum bits needed to represent `v` (at least 1).
pub(super) fn width_of(v: u32) -> u32 {
    (32 - v.leading_zeros()).max(1)
}

/// Encode a column.
pub fn encode(values: &[u32]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(values, &mut out);
    out
}

/// Append a column's encoding to `out`, 32 bits at a time.
pub fn encode_into(values: &[u32], out: &mut Vec<u8>) {
    varint::write_u64(out, values.len() as u64);
    let Some(max) = values.iter().copied().max() else {
        return;
    };
    let width = width_of(max);
    out.push(width as u8);
    // Under 32 bits wait in `acc` before each value, so at most 63 after.
    let (mut acc, mut bits) = (0u64, 0u32);
    for &v in values {
        acc |= (v as u64) << bits;
        bits += width;
        if bits >= 32 {
            out.extend_from_slice(&(acc as u32).to_le_bytes());
            acc >>= 32;
            bits -= 32;
        }
    }
    out.extend_from_slice(&acc.to_le_bytes()[..bits.div_ceil(8) as usize]);
}

/// Decode a column: value `i` is read from the word at the byte its
/// first bit falls in.
#[expect(clippy::expect_used, reason = "infallible until ROADMAP item 8")]
pub fn decode(payload: &[u8]) -> Vec<u32> {
    let mut pos = 0;
    let rows = varint::read_u64(payload, &mut pos).expect("bitpack header") as usize;
    if rows == 0 {
        return Vec::new();
    }
    let (width, packed) = (payload[pos] as usize, &payload[pos + 1..]);
    assert!((1..=32).contains(&width), "corrupt bit width {width}");
    assert!(
        packed.len() >= (rows * width).div_ceil(8),
        "truncated payload"
    );
    let mask = u64::MAX >> (64 - width);
    (0..rows)
        .map(|i| {
            let bit = i * width;
            ((super::word_at(packed, bit / 8) >> (bit % 8)) & mask) as u32
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_of_basics() {
        assert_eq!(width_of(0), 1);
        assert_eq!(width_of(1), 1);
        assert_eq!(width_of(2), 2);
        assert_eq!(width_of(255), 8);
        assert_eq!(width_of(256), 9);
        assert_eq!(width_of(u32::MAX), 32);
    }

    #[test]
    fn round_trip_small_domain() {
        let values: Vec<u32> = (0..10_000).map(|i| i % 7).collect();
        let e = encode(&values);
        // 3 bits/value ≈ 3750 bytes.
        assert!(e.len() < 4_000, "{} bytes", e.len());
        assert_eq!(decode(&e), values);
    }

    #[test]
    fn round_trip_full_range() {
        let values = vec![0, u32::MAX, 1, 0x8000_0000, 12345];
        assert_eq!(decode(&encode(&values)), values);
    }

    #[test]
    fn round_trip_awkward_widths() {
        for max in [1u32, 3, 5, 17, 100, 1 << 13, (1 << 21) - 1] {
            let values: Vec<u32> = (0..257).map(|i| i % (max + 1)).collect();
            assert_eq!(decode(&encode(&values)), values, "max {max}");
        }
    }

    #[test]
    fn empty() {
        assert_eq!(decode(&encode(&[])), Vec::<u32>::new());
    }

    #[test]
    fn single_value() {
        assert_eq!(decode(&encode(&[42])), vec![42]);
    }
}
