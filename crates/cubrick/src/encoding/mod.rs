//! Column codecs backing adaptive compression.
//!
//! Cubrick "incrementally compresses data blocks based on their hotness
//! counter" (§IV-F2). The codecs here are the real thing, chosen per
//! column at compression time:
//!
//! * [`varint`] — LEB128 integers, the byte-level substrate.
//! * [`rle`] — run-length encoding, wins on low-cardinality / sorted
//!   dimension columns.
//! * [`bitpack`] — fixed-width bit packing, wins on dense ordinal columns.
//! * [`delta`] — delta + zig-zag + varint, wins on near-monotonic columns
//!   (e.g. time-ordered ingestion).
//! * [`xor`] — Gorilla-style XOR compression for `f64` metric columns.
//!
//! [`encode_u32_auto`] sizes each integer codec and keeps the smallest —
//! the classic lightweight-compression scheme selection.

pub mod bitpack;
pub mod delta;
pub mod rle;
pub mod varint;
pub mod xor;

/// The little-endian word of the 8 bytes from `at`, zeros past the end
/// (the decoders read whole words; a payload has no slack).
pub(crate) fn word_at(bytes: &[u8], at: usize) -> u64 {
    let mut word = [0; 8];
    let tail = bytes.get(at..).unwrap_or_default();
    match tail.get(..8) {
        Some(whole) => word.copy_from_slice(whole),
        None => word[..tail.len()].copy_from_slice(tail),
    }
    u64::from_le_bytes(word)
}

/// Identifies the codec used for an encoded integer column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntCodec {
    Rle = 1,
    BitPack = 2,
    Delta = 3,
}

/// An encoded integer column: codec tag + payload.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedU32 {
    pub codec: IntCodec,
    pub payload: Vec<u8>,
    pub rows: usize,
}

impl EncodedU32 {
    pub fn encoded_bytes(&self) -> u64 {
        self.payload.len() as u64 + 1
    }
}

/// The size of each codec's output for `values`, in `[Rle, BitPack,
/// Delta]` order, from one pass over the column (the formats are
/// specified in the codec modules).
fn encoded_sizes(values: &[u32]) -> [usize; 3] {
    let header = varint::len_u64(values.len() as u64);
    let Some((&first, rest)) = values.split_first() else {
        return [header; 3];
    };
    let (mut rle, mut delta) = (0, varint::len_u64(first as u64));
    // `all_bits` has the maximum's highest set bit: all the width needs.
    let (mut prev, mut run, mut all_bits) = (first, 1u64, first);
    for &v in rest {
        if v != prev {
            rle += varint::len_u64(prev as u64) + varint::len_u64(run);
            run = 0;
        }
        run += 1;
        delta += varint::len_u64(varint::zigzag(v as i64 - prev as i64));
        all_bits |= v;
        prev = v;
    }
    rle += varint::len_u64(prev as u64) + varint::len_u64(run);
    let packed = 1 + (values.len() * bitpack::width_of(all_bits) as usize).div_ceil(8);
    [header + rle, header + packed, header + delta]
}

/// Encode with the codec whose output is smallest (the first of them on
/// a tie): only the winner is materialised, at exactly its size.
pub fn encode_u32_auto(values: &[u32]) -> EncodedU32 {
    let (codec, size) = [IntCodec::Rle, IntCodec::BitPack, IntCodec::Delta]
        .into_iter()
        .zip(encoded_sizes(values))
        .min_by_key(|&(_, size)| size)
        .unwrap_or((IntCodec::Rle, 0));
    let mut payload = Vec::with_capacity(size);
    match codec {
        IntCodec::Rle => rle::encode_into(values, &mut payload),
        IntCodec::BitPack => bitpack::encode_into(values, &mut payload),
        IntCodec::Delta => delta::encode_into(values, &mut payload),
    }
    debug_assert_eq!(payload.len(), size, "{codec:?} size model");
    EncodedU32 {
        codec,
        payload,
        rows: values.len(),
    }
}

/// Decode an [`EncodedU32`] back to the original values.
pub fn decode_u32(encoded: &EncodedU32) -> Vec<u32> {
    match encoded.codec {
        IntCodec::Rle => rle::decode(&encoded.payload),
        IntCodec::BitPack => bitpack::decode(&encoded.payload),
        IntCodec::Delta => delta::decode(&encoded.payload),
    }
}

/// An encoded float column.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedF64 {
    pub payload: Vec<u8>,
    pub rows: usize,
}

impl EncodedF64 {
    pub fn encoded_bytes(&self) -> u64 {
        self.payload.len() as u64
    }
}

/// Encode a metric column with XOR compression.
pub fn encode_f64(values: &[f64]) -> EncodedF64 {
    EncodedF64 {
        payload: xor::encode(values),
        rows: values.len(),
    }
}

/// Decode a metric column.
pub fn decode_f64(encoded: &EncodedF64) -> Vec<f64> {
    xor::decode(&encoded.payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_picks_rle_for_constant_columns() {
        let values = vec![7u32; 10_000];
        let e = encode_u32_auto(&values);
        assert_eq!(e.codec, IntCodec::Rle);
        assert!(e.payload.len() < 16, "constant column should be tiny");
        assert_eq!(decode_u32(&e), values);
    }

    #[test]
    fn auto_picks_delta_for_monotonic_columns() {
        let values: Vec<u32> = (0..10_000).collect();
        let e = encode_u32_auto(&values);
        assert_eq!(e.codec, IntCodec::Delta);
        assert_eq!(decode_u32(&e), values);
    }

    #[test]
    fn auto_handles_random_small_domain() {
        // Values in [0, 16): bitpack should land near 4 bits/value.
        let values: Vec<u32> = (0..8_192)
            .map(|i| (i * 2_654_435_761u64 as usize % 16) as u32)
            .collect();
        let e = encode_u32_auto(&values);
        assert!(
            e.payload.len() < 8_192,
            "must beat 1 byte/value: {}",
            e.payload.len()
        );
        assert_eq!(decode_u32(&e), values);
    }

    #[test]
    fn empty_columns() {
        let e = encode_u32_auto(&[]);
        assert_eq!(decode_u32(&e), Vec::<u32>::new());
        let f = encode_f64(&[]);
        assert_eq!(decode_f64(&f), Vec::<f64>::new());
    }

    #[test]
    fn f64_round_trip() {
        let values = vec![1.5, 1.5, 2.25, -7.125, 0.0, f64::MAX, f64::MIN_POSITIVE];
        let e = encode_f64(&values);
        assert_eq!(decode_f64(&e), values);
    }

    #[test]
    fn f64_compresses_repeats() {
        let values = vec![42.0; 4_096];
        let e = encode_f64(&values);
        assert!(
            (e.encoded_bytes() as usize) < 4_096 * 2,
            "repeated metric should compress well: {} bytes",
            e.encoded_bytes()
        );
    }
}
