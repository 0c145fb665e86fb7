//! Run-length encoding for ordinal columns.
//!
//! Format: LEB128 row count, then `(value, run_length)` LEB128 pairs.
//! Dimension columns inside a brick are frequently constant or
//! low-cardinality (all rows in a brick share bucket coordinates, and
//! ingestion is bursty), which makes RLE the usual winner for them.

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
    let mut i = 0;
    while i < values.len() {
        let v = values[i];
        let mut run = 1usize;
        while i + run < values.len() && values[i + run] == v {
            run += 1;
        }
        varint::write_u32(out, v);
        varint::write_u64(out, run as u64);
        i += run;
    }
}

/// Decode a column. Panics on corrupt payloads (they can only come from a
/// bug in this process, never from the network).
#[expect(clippy::expect_used, reason = "infallible until ROADMAP item 8")]
pub fn decode(payload: &[u8]) -> Vec<u32> {
    let mut pos = 0;
    let rows = varint::read_u64(payload, &mut pos).expect("rle header") as usize;
    let mut out = Vec::with_capacity(rows);
    while out.len() < rows {
        let v = varint::read_u32(payload, &mut pos).expect("rle value");
        let run = varint::read_u64(payload, &mut pos).expect("rle run") as usize;
        out.extend(std::iter::repeat_n(v, run));
    }
    debug_assert_eq!(out.len(), rows);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_runs() {
        let values = vec![1, 1, 1, 2, 2, 3, 3, 3, 3, 1];
        assert_eq!(decode(&encode(&values)), values);
    }

    #[test]
    fn round_trip_no_runs() {
        let values: Vec<u32> = (0..1_000).collect();
        assert_eq!(decode(&encode(&values)), values);
    }

    #[test]
    fn empty() {
        assert_eq!(decode(&encode(&[])), Vec::<u32>::new());
    }

    #[test]
    fn constant_column_is_tiny() {
        let values = vec![9u32; 100_000];
        let e = encode(&values);
        assert!(e.len() <= 8, "{} bytes", e.len());
        assert_eq!(decode(&e), values);
    }

    #[test]
    fn worst_case_bounded() {
        // Alternating values: 2 varints per value, each ≤ 5 bytes for u32.
        let values: Vec<u32> = (0..1_000).map(|i| i % 2).collect();
        let e = encode(&values);
        assert!(e.len() <= values.len() * 2 + 8);
        assert_eq!(decode(&e), values);
    }
}
