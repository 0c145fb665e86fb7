//! Byte-granular XOR compression for `f64` metric columns.
//!
//! A simplification of Gorilla's bit-level scheme that keeps the key
//! insight — consecutive metric values XOR to mostly-zero words — while
//! staying byte-aligned for simplicity and speed:
//!
//! ```text
//! header:   LEB128 row count
//! value 0:  8 raw little-endian bytes
//! value i:  control byte `(leading_zero_bytes << 4) | payload_len`
//!           followed by `payload_len` significant bytes of
//!           `bits(v[i]) ^ bits(v[i-1])`
//! ```
//!
//! Identical consecutive values cost exactly one byte.

use super::varint;

/// Encode a metric column.
pub fn encode(values: &[f64]) -> Vec<u8> {
    // Room for repeats and near-repeats. A value is its control byte and
    // one 8-byte store cut back to its significant bytes; the payload ends
    // at its length, which `EncodedF64::encoded_bytes` reports.
    let mut out = Vec::with_capacity(values.len() * 3 + 8);
    varint::write_u64(&mut out, values.len() as u64);
    let mut prev = values.first().map_or(0, |v| v.to_bits());
    if !values.is_empty() {
        out.extend_from_slice(&prev.to_le_bytes());
    }
    for (i, value) in values.iter().enumerate().skip(1) {
        let xor = prev ^ value.to_bits();
        prev = value.to_bits();
        if xor == 0 {
            out.push(0);
            continue;
        }
        if out.capacity() - out.len() < 9 {
            // Random metrics: the rest at its worst, so one growth at most.
            out.reserve_exact(9 * (values.len() - i));
        }
        // The significant bytes: what is left of the word once the zero
        // bytes are cut from both ends.
        let lo = xor.trailing_zeros() / 8;
        let len = 8 - xor.leading_zeros() / 8 - lo;
        out.push(((lo as u8) << 4) | len as u8);
        out.extend_from_slice(&(xor >> (8 * lo)).to_le_bytes());
        out.truncate(out.len() - 8 + len as usize);
    }
    out.shrink_to_fit();
    out
}

/// Decode a metric column.
#[expect(clippy::expect_used, reason = "infallible until ROADMAP item 8")]
pub fn decode(payload: &[u8]) -> Vec<f64> {
    let mut pos = 0;
    let rows = varint::read_u64(payload, &mut pos).expect("xor header") as usize;
    if rows == 0 {
        return Vec::new();
    }
    let mut prev = super::word_at(&payload[pos..pos + 8], 0);
    pos += 8;
    let mut out = Vec::with_capacity(rows);
    out.push(f64::from_bits(prev));
    for _ in 1..rows {
        let control = payload[pos];
        pos += 1;
        if control != 0 {
            let (lo, len) = (u32::from(control >> 4), u32::from(control & 0x0F));
            let bytes = super::word_at(payload, pos) & (u64::MAX >> (64 - 8 * len));
            prev ^= bytes << (8 * lo);
            pos += len as usize;
        }
        out.push(f64::from_bits(prev));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(values: &[f64]) {
        let decoded = decode(&encode(values));
        assert_eq!(decoded.len(), values.len());
        for (a, b) in values.iter().zip(&decoded) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn round_trips() {
        round_trip(&[]);
        round_trip(&[1.0]);
        round_trip(&[1.0, 1.0, 1.0]);
        round_trip(&[0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY]);
        round_trip(&[1.5, 2.5, 3.75, -10.125, 0.1, 0.2, 0.3]);
        round_trip(&[f64::MAX, f64::MIN, f64::MIN_POSITIVE, f64::EPSILON]);
    }

    #[test]
    fn nan_bit_pattern_preserved() {
        let values = [f64::NAN, 1.0, f64::NAN];
        let decoded = decode(&encode(&values));
        assert!(decoded[0].is_nan());
        assert_eq!(decoded[0].to_bits(), values[0].to_bits());
    }

    #[test]
    fn identical_runs_cost_one_byte_each() {
        let values = vec![123.456; 1_000];
        let e = encode(&values);
        // header + 8 bytes + 999 zero controls.
        assert!(e.len() <= 8 + 8 + 999, "{} bytes", e.len());
    }

    #[test]
    fn similar_values_compress() {
        // Counter-like metrics: small increments → few significant bytes.
        let values: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
        let e = encode(&values);
        assert!(e.len() < 10_000 * 8 / 2, "{} bytes", e.len());
        round_trip(&values);
    }
}
