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

/// Append a column's encoding to `out`.
pub fn encode_into(values: &[u32], out: &mut Vec<u8>) {
    varint::write_u64(out, values.len() as u64);
    let Some(max) = values.iter().copied().max() else {
        return;
    };
    let width = width_of(max);
    out.push(width as u8);
    let mut acc: u64 = 0;
    let mut bits: u32 = 0;
    for &v in values {
        acc |= (v as u64) << bits;
        bits += width;
        while bits >= 8 {
            out.push((acc & 0xFF) as u8);
            acc >>= 8;
            bits -= 8;
        }
    }
    if bits > 0 {
        out.push((acc & 0xFF) as u8);
    }
}

/// Decode a column.
pub fn decode(payload: &[u8]) -> Vec<u32> {
    let mut pos = 0;
    let rows = varint::read_u64(payload, &mut pos).expect("bitpack header") as usize;
    if rows == 0 {
        return Vec::new();
    }
    let width = payload[pos] as u32;
    pos += 1;
    assert!((1..=32).contains(&width), "corrupt bit width {width}");
    let mask: u64 = if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    };
    let mut out = Vec::with_capacity(rows);
    let mut acc: u64 = 0;
    let mut bits: u32 = 0;
    for &byte in &payload[pos..] {
        acc |= (byte as u64) << bits;
        bits += 8;
        while bits >= width && out.len() < rows {
            out.push((acc & mask) as u32);
            acc >>= width;
            bits -= width;
        }
        if out.len() == rows {
            break;
        }
    }
    assert_eq!(out.len(), rows, "truncated bitpack payload");
    out
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
