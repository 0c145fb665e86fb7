//! Delta + zig-zag + varint encoding.
//!
//! Format: LEB128 row count, first value as LEB128, then zig-zag deltas as
//! LEB128. Near-monotonic columns (time-ordered ingestion keys) collapse
//! to ~1 byte per value.

use super::varint;

/// Encode a column.
pub fn encode(values: &[u32]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(values, &mut out);
    out
}

/// Append a column's encoding to `out`.
pub fn encode_into(values: &[u32], out: &mut Vec<u8>) {
    varint::write_u64(out, values.len() as u64);
    let Some((&first, rest)) = values.split_first() else {
        return;
    };
    varint::write_u32(out, first);
    let mut prev = first as i64;
    for &v in rest {
        varint::write_u64(out, varint::zigzag(v as i64 - prev));
        prev = v as i64;
    }
}

/// Decode a column.
#[expect(clippy::expect_used, reason = "infallible until ROADMAP item 8")]
pub fn decode(payload: &[u8]) -> Vec<u32> {
    let mut pos = 0;
    let rows = varint::read_u64(payload, &mut pos).expect("delta header") as usize;
    if rows == 0 {
        return Vec::new();
    }
    let first = varint::read_u32(payload, &mut pos).expect("delta first");
    let mut out = Vec::with_capacity(rows);
    out.push(first);
    let mut prev = first as i64;
    for _ in 1..rows {
        let d = varint::unzigzag(varint::read_u64(payload, &mut pos).expect("delta value"));
        prev += d;
        out.push(prev as u32);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_monotonic() {
        let values: Vec<u32> = (1_000..11_000).collect();
        let e = encode(&values);
        // First value + ~1 byte per delta.
        assert!(e.len() < values.len() + 16, "{} bytes", e.len());
        assert_eq!(decode(&e), values);
    }

    #[test]
    fn round_trip_descending_and_mixed() {
        let values: Vec<u32> = (0..1_000).rev().collect();
        assert_eq!(decode(&encode(&values)), values);
        let values = vec![5, 1_000_000, 3, 999_999, 0, u32::MAX];
        assert_eq!(decode(&encode(&values)), values);
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(decode(&encode(&[])), Vec::<u32>::new());
        assert_eq!(decode(&encode(&[7])), vec![7]);
    }

    #[test]
    fn constant_column() {
        let values = vec![3u32; 500];
        let e = encode(&values);
        assert!(e.len() < 520);
        assert_eq!(decode(&e), values);
    }
}
