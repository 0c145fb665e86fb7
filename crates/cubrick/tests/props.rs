//! Property-based tests of the Cubrick engine's core invariants.

// Tests may unwrap, expect and panic; library code may not (DESIGN.md §5c).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

use cubrick::brick::Brick;
use cubrick::compression::CompressedBrick;
use cubrick::dictionary::Dictionary;
use cubrick::encoding;
use cubrick::partition::BrickSpace;
use cubrick::schema::{Schema, SchemaBuilder};
use cubrick::sharding::{partition_name, stable_hash, ShardMapping};
use scalewall_sim::prop::{self, gen};
use scalewall_sim::SimRng;

// ----------------------------------------------------------------- codecs

/// Every integer codec round-trips arbitrary columns exactly.
#[test]
fn u32_codecs_round_trip() {
    prop::check(
        "u32_codecs_round_trip",
        |rng| gen::vec_with(rng, 0, 2_000, gen::any_u32),
        |values| {
            let auto = encoding::encode_u32_auto(values);
            assert_eq!(encoding::decode_u32(&auto), values.clone());
            for payload in [
                (
                    encoding::IntCodec::Rle,
                    cubrick::encoding::rle::encode(values),
                ),
                (
                    encoding::IntCodec::BitPack,
                    cubrick::encoding::bitpack::encode(values),
                ),
                (
                    encoding::IntCodec::Delta,
                    cubrick::encoding::delta::encode(values),
                ),
            ] {
                let encoded = encoding::EncodedU32 {
                    codec: payload.0,
                    payload: payload.1,
                    rows: values.len(),
                };
                assert_eq!(
                    encoding::decode_u32(&encoded),
                    values.clone(),
                    "{:?}",
                    payload.0
                );
            }
        },
    );
}

/// Auto-selection never does worse than any individual codec.
#[test]
fn auto_codec_is_minimal() {
    prop::check(
        "auto_codec_is_minimal",
        |rng| gen::vec_with(rng, 1, 1_000, |r| r.below(1_000) as u32),
        |values| {
            let auto = encoding::encode_u32_auto(values);
            let rle = cubrick::encoding::rle::encode(values);
            let bp = cubrick::encoding::bitpack::encode(values);
            let delta = cubrick::encoding::delta::encode(values);
            let min = rle.len().min(bp.len()).min(delta.len());
            assert_eq!(auto.payload.len(), min);
        },
    );
}

/// Columns of the kinds the three codecs are each good at, so every
/// codec wins some and the sizes tie on others.
fn gen_u32_column(rng: &mut SimRng) -> Vec<u32> {
    let len = gen::usize_in(rng, 0, 400);
    let start = gen::any_u32(rng) >> rng.below(32);
    match rng.below(5) {
        0 => (0..len).map(|_| gen::any_u32(rng)).collect(),
        1 => {
            let domain = 1 + rng.below(64);
            (0..len).map(|_| rng.below(domain) as u32).collect()
        }
        2 => {
            // Runs of a few values.
            let mut column = Vec::new();
            while column.len() < len {
                let v = start.wrapping_add(rng.below(4) as u32);
                column.extend(std::iter::repeat_n(v, 1 + rng.below(20) as usize));
            }
            column
        }
        3 => (0..len as u32)
            .map(|i| start.wrapping_add(i * rng.below(3) as u32))
            .collect(),
        _ => vec![start; len],
    }
}

/// What `encode_u32_auto` did before it sized first: all three payloads
/// built, the first smallest kept.
fn three_way_encode(values: &[u32]) -> (encoding::IntCodec, Vec<u8>) {
    [
        (encoding::IntCodec::Rle, encoding::rle::encode(values)),
        (
            encoding::IntCodec::BitPack,
            encoding::bitpack::encode(values),
        ),
        (encoding::IntCodec::Delta, encoding::delta::encode(values)),
    ]
    .into_iter()
    .min_by_key(|(_, payload)| payload.len())
    .expect("three candidates")
}

fn assert_auto_is_three_way(values: &[u32]) {
    let auto = encoding::encode_u32_auto(values);
    let (codec, payload) = three_way_encode(values);
    assert_eq!((auto.codec, &auto.payload), (codec, &payload), "{values:?}");
    assert_eq!(auto.rows, values.len());
    // One allocation, of the size `encoded_bytes` accounts for.
    assert_eq!(auto.payload.capacity(), auto.payload.len(), "{codec:?}");
}

/// Sizing the codecs first picks the codec and emits the bytes that
/// building all three did, ties included.
#[test]
fn auto_codec_equals_three_way_encode() {
    prop::check(
        "auto_codec_equals_three_way_encode",
        gen_u32_column,
        |values| assert_auto_is_three_way(values),
    );
    let max = u32::MAX;
    let ties: [&[u32]; 9] = [
        &[],
        &[0],
        &[1],
        &[7; 3],
        &[0; 200],
        &[max],
        &[max; 130],
        &[0, max, 0, max],
        &[127, 128, 16_383, 16_384, 2_097_151, 2_097_152],
    ];
    for values in ties {
        assert_auto_is_three_way(values);
    }
    // Every codec's win goes through the exact-capacity path.
    let wins = |values: &[u32]| encoding::encode_u32_auto(values).codec;
    assert_eq!(wins(&[5; 50]), encoding::IntCodec::Rle);
    assert_eq!(
        wins(&[3, 1, 2, 0, 3, 2, 1, 0, 2]),
        encoding::IntCodec::BitPack
    );
    assert_eq!(
        wins(&[1_000, 1_001, 1_003, 1_004, 1_006]),
        encoding::IntCodec::Delta
    );
}

/// Float XOR codec preserves bit patterns exactly (incl. -0.0, NaN).
#[test]
fn f64_codec_round_trips() {
    prop::check(
        "f64_codec_round_trips",
        |rng| {
            // Repeats and words with zero bytes at either end, so XORs of
            // every significant length come up.
            let (mask, shift) = (u64::MAX >> rng.below(64), rng.below(33));
            gen::vec_with(rng, 0, 1_000, |r| match r.below(4) {
                0 => 0,
                _ => (gen::any_u64(r) & mask) << shift,
            })
        },
        |bits| {
            let values: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
            let encoded = encoding::encode_f64(&values);
            assert_eq!(encoded.payload.capacity(), encoded.payload.len());
            let decoded = encoding::decode_f64(&encoded);
            assert_eq!(decoded.len(), values.len());
            for (a, b) in values.iter().zip(&decoded) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        },
    );
}

/// Varints round-trip and zig-zag is a bijection.
#[test]
fn varint_round_trip() {
    prop::check(
        "varint_round_trip",
        |rng| gen::vec_with(rng, 0, 500, gen::any_u64),
        |values| {
            let mut buf = Vec::new();
            for &v in values {
                cubrick::encoding::varint::write_u64(&mut buf, v);
            }
            let mut pos = 0;
            for &v in values {
                assert_eq!(cubrick::encoding::varint::read_u64(&buf, &mut pos), Some(v));
            }
            assert_eq!(pos, buf.len());
        },
    );
}

#[test]
fn zigzag_bijective() {
    prop::check("zigzag_bijective", gen::any_i64, |&v| {
        assert_eq!(
            cubrick::encoding::varint::unzigzag(cubrick::encoding::varint::zigzag(v)),
            v
        );
    });
}

/// The byte-at-a-time XOR, bit-packing and delta codecs the word-at-a-time
/// kernels replaced, as they were: the formats are frozen (a compressed
/// brick's footprint drives the memory monitor), so the kernels must
/// emit these bytes and read them back.
mod byte_codecs {
    use cubrick::encoding::varint;

    pub fn xor_encode(values: &[f64]) -> Vec<u8> {
        let mut out = Vec::new();
        varint::write_u64(&mut out, values.len() as u64);
        if let Some(first) = values.first() {
            out.extend_from_slice(&first.to_bits().to_le_bytes());
        }
        for w in values.windows(2) {
            let xor = w[0].to_bits() ^ w[1].to_bits();
            if xor == 0 {
                out.push(0);
                continue;
            }
            let lo = (xor.trailing_zeros() / 8) as usize;
            let len = 7 - (xor.leading_zeros() / 8) as usize - lo + 1;
            out.push(((lo as u8) << 4) | len as u8);
            out.extend_from_slice(&xor.to_le_bytes()[lo..lo + len]);
        }
        out
    }

    pub fn xor_decode(payload: &[u8]) -> Vec<f64> {
        let mut pos = 0;
        let rows = varint::read_u64(payload, &mut pos).unwrap() as usize;
        if rows == 0 {
            return Vec::new();
        }
        let mut prev = u64::from_le_bytes(payload[pos..pos + 8].try_into().unwrap());
        pos += 8;
        let mut out = vec![f64::from_bits(prev)];
        for _ in 1..rows {
            let control = payload[pos];
            pos += 1;
            let (lo, len) = ((control >> 4) as usize, (control & 0x0F) as usize);
            let mut bytes = [0u8; 8];
            bytes[lo..lo + len].copy_from_slice(&payload[pos..pos + len]);
            pos += len;
            prev ^= u64::from_le_bytes(bytes);
            out.push(f64::from_bits(prev));
        }
        out
    }

    pub fn bitpack_encode(values: &[u32]) -> Vec<u8> {
        let mut out = Vec::new();
        varint::write_u64(&mut out, values.len() as u64);
        let Some(max) = values.iter().copied().max() else {
            return out;
        };
        let width = (32 - max.leading_zeros()).max(1);
        out.push(width as u8);
        let (mut acc, mut bits) = (0u64, 0u32);
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
        out
    }

    pub fn bitpack_decode(payload: &[u8]) -> Vec<u32> {
        let mut pos = 0;
        let rows = varint::read_u64(payload, &mut pos).unwrap() as usize;
        if rows == 0 {
            return Vec::new();
        }
        let width = payload[pos] as u32;
        let mask = (1u64 << width) - 1;
        let (mut out, mut acc, mut bits) = (Vec::new(), 0u64, 0u32);
        for &byte in &payload[pos + 1..] {
            acc |= (byte as u64) << bits;
            bits += 8;
            while bits >= width && out.len() < rows {
                out.push((acc & mask) as u32);
                acc >>= width;
                bits -= width;
            }
        }
        assert_eq!(out.len(), rows);
        out
    }

    pub fn delta_encode(values: &[u32]) -> Vec<u8> {
        let mut out = Vec::new();
        varint::write_u64(&mut out, values.len() as u64);
        let Some(&first) = values.first() else {
            return out;
        };
        varint::write_u32(&mut out, first);
        let mut prev = first as i64;
        for &v in &values[1..] {
            varint::write_u64(&mut out, varint::zigzag(v as i64 - prev));
            prev = v as i64;
        }
        out
    }

    pub fn delta_decode(payload: &[u8]) -> Vec<u32> {
        let mut pos = 0;
        let rows = varint::read_u64(payload, &mut pos).unwrap() as usize;
        if rows == 0 {
            return Vec::new();
        }
        let first = varint::read_u32(payload, &mut pos).unwrap();
        let (mut out, mut prev) = (vec![first], first as i64);
        for _ in 1..rows {
            prev += varint::unzigzag(varint::read_u64(payload, &mut pos).unwrap());
            out.push(prev as u32);
        }
        out
    }
}

/// A metric column of the bit patterns a codec can trip on: random words,
/// NaNs with payloads, ±0, ±∞, subnormals, repeats and near-repeats (a
/// few bytes flipped at either end of the word). Mostly up to 300 values,
/// now and then 8 k.
fn gen_f64_bits(rng: &mut SimRng) -> Vec<u64> {
    let len = match rng.below(16) {
        0 => gen::usize_in(rng, 8_000, 8_200),
        _ => gen::usize_in(rng, 0, 300),
    };
    let sign = |r: &mut SimRng| r.below(2) << 63;
    let mut bits: Vec<u64> = Vec::with_capacity(len);
    for _ in 0..len {
        let prev = bits.last().copied().unwrap_or(0);
        bits.push(match rng.below(8) {
            0 => gen::any_u64(rng),
            1 => sign(rng) | 0x7FF0_0000_0000_0000 | (gen::any_u64(rng) >> 12).max(1),
            2 => sign(rng) | [0, 0x7FF0_0000_0000_0000][rng.below(2) as usize],
            3 => sign(rng) | (gen::any_u64(rng) >> (12 + rng.below(52))),
            4 | 5 => prev,
            _ => prev ^ ((gen::any_u64(rng) >> rng.below(64)) << (8 * rng.below(8))),
        });
    }
    bits
}

/// An integer column packed at `width` bits (its maximum has exactly that
/// width) in one of the shapes the three codecs are each good at.
fn gen_u32_of_width(rng: &mut SimRng, width: u32, len: usize) -> Vec<u32> {
    let top = u32::MAX >> (32 - width);
    let mut column: Vec<u32> = match rng.below(3) {
        0 => (0..len).map(|_| gen::any_u32(rng) & top).collect(),
        // Near-monotonic: one-byte zig-zag deltas with the odd long jump.
        1 => {
            let mut v = gen::any_u32(rng) & top;
            (0..len)
                .map(|_| {
                    v = match rng.below(16) {
                        0 => gen::any_u32(rng) & top,
                        _ => v.wrapping_add(rng.below(128) as u32).wrapping_sub(64) & top,
                    };
                    v
                })
                .collect()
        }
        _ => (0..len)
            .map(|_| (rng.below(4) as u32 * (top / 3)) & top)
            .collect(),
    };
    if let Some(v) = column.first_mut() {
        *v = top;
    }
    column
}

/// One integer codec against its byte-at-a-time model: the bytes, the
/// decoded values, and a payload written into a buffer of exactly its
/// size staying at that capacity (read back with no slack after it).
fn assert_int_codec_matches(
    ints: &[u32],
    encode: fn(&[u32], &mut Vec<u8>),
    decode: fn(&[u8]) -> Vec<u32>,
    want_encode: fn(&[u32]) -> Vec<u8>,
    want_decode: fn(&[u8]) -> Vec<u32>,
) {
    let want = want_encode(ints);
    let mut payload = Vec::with_capacity(want.len());
    encode(ints, &mut payload);
    assert_eq!(payload, want, "{ints:?}");
    assert_eq!(payload.capacity(), payload.len());
    assert_eq!(decode(&payload), ints);
    assert_eq!(decode(&payload), want_decode(&want));
}

/// Every replaced codec against its byte-at-a-time model ([`byte_codecs`]).
fn assert_codecs_match_byte_codecs(ints: &[u32], bits: &[u64]) {
    use cubrick::encoding::{bitpack, delta};
    assert_int_codec_matches(
        ints,
        bitpack::encode_into,
        bitpack::decode,
        byte_codecs::bitpack_encode,
        byte_codecs::bitpack_decode,
    );
    assert_int_codec_matches(
        ints,
        delta::encode_into,
        delta::decode,
        byte_codecs::delta_encode,
        byte_codecs::delta_decode,
    );
    let to_bits = |values: Vec<f64>| -> Vec<u64> { values.iter().map(|v| v.to_bits()).collect() };
    let values: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
    let encoded = encoding::encode_f64(&values);
    let want = byte_codecs::xor_encode(&values);
    assert_eq!(encoded.payload, want, "{bits:x?}");
    assert_eq!(encoded.payload.capacity(), encoded.payload.len());
    let decoded = to_bits(encoding::decode_f64(&encoded));
    assert_eq!(decoded, bits);
    assert_eq!(decoded, to_bits(byte_codecs::xor_decode(&want)));
}

/// The word-at-a-time codecs emit and read the byte-at-a-time formats:
/// generated columns, then every tail a payload can end in — a last XOR
/// of each significant length at each offset, and bit-packed columns of
/// every width and every bit count of the last word.
#[test]
fn codecs_match_byte_codecs() {
    prop::check_n(
        "codecs_match_byte_codecs",
        384,
        |rng| {
            let width = 1 + rng.below(32) as u32;
            let len = match rng.below(16) {
                0 => gen::usize_in(rng, 8_000, 8_200),
                _ => gen::usize_in(rng, 0, 300),
            };
            (gen_u32_of_width(rng, width, len), gen_f64_bits(rng))
        },
        |(ints, bits)| assert_codecs_match_byte_codecs(ints, bits),
    );
    let mut rng = SimRng::new(40);
    for lo in 0..8 {
        for len in 1..=8 - lo {
            // `len` random bytes, the first and last non-zero, `lo` up.
            let core = (gen::any_u64(&mut rng) >> (64 - 8 * len)) | 1 | 1 << (8 * len - 1);
            let last = core << (8 * lo);
            assert_codecs_match_byte_codecs(&[], &[7, 7 ^ last]);
            assert_codecs_match_byte_codecs(&[], &[0, 3, 3 ^ last]);
        }
    }
    for width in 1..=32 {
        for len in 0..=72 {
            let ints = gen_u32_of_width(&mut rng, width, len);
            assert_codecs_match_byte_codecs(&ints, &[]);
        }
    }
}

// ----------------------------------------------------- brick compression

fn gen_brick(rng: &mut SimRng) -> Brick {
    let dims = gen::usize_in(rng, 1, 4);
    let metrics = gen::usize_in(rng, 0, 3);
    let rows = gen::usize_in(rng, 0, 500);
    let mut b = Brick::new(dims, metrics);
    for _ in 0..rows {
        let ords: Vec<u32> = (0..dims).map(|_| gen::any_u32(rng)).collect();
        let ms: Vec<f64> = (0..metrics).map(|_| gen::f64_in(rng, -1e6, 1e6)).collect();
        b.push(&ords, &ms);
    }
    b
}

#[test]
fn brick_compression_round_trips() {
    prop::check_n("brick_compression_round_trips", 64, gen_brick, |brick| {
        let original = brick.clone();
        let compressed = CompressedBrick::compress(brick.clone());
        assert_eq!(compressed.rows(), original.rows());
        assert_eq!(compressed.decompressed_bytes(), original.payload_bytes());
        assert_eq!(compressed.decompress(), original);
    });
}

// ------------------------------------------------- brick footprint model

/// One step of a generated brick life.
#[derive(Debug)]
enum BrickStep {
    Push(Vec<(Vec<u32>, Vec<f64>)>),
    Clone,
    Shrink,
    /// Compress, decompress, then push the rows.
    Recompress(Vec<(Vec<u32>, Vec<f64>)>),
}

fn gen_brick_life(rng: &mut SimRng) -> (usize, usize, Vec<BrickStep>) {
    let dims = gen::usize_in(rng, 0, 5);
    let metrics = gen::usize_in(rng, 0, 4);
    let steps = gen::vec_with(rng, 1, 12, |rng| {
        let rows = |rng: &mut SimRng| {
            gen::vec_with(rng, 0, 40, |rng| {
                let ords = (0..dims).map(|_| gen::any_u32(rng)).collect();
                let ms = (0..metrics).map(|_| gen::f64_in(rng, -1e6, 1e6)).collect();
                (ords, ms)
            })
        };
        match rng.range(0, 4) {
            0 => BrickStep::Clone,
            1 => BrickStep::Shrink,
            2 => BrickStep::Recompress(rows(rng)),
            _ => BrickStep::Push(rows(rng)),
        }
    });
    (dims, metrics, steps)
}

/// The layout a brick had before its columns were flat: a `Vec` per
/// column, grown by `push`, its footprint the sum of the capacities.
#[derive(Debug, Clone)]
struct ColumnModel {
    dims: Vec<Vec<u32>>,
    metrics: Vec<Vec<f64>>,
    rows: usize,
}

impl ColumnModel {
    fn push(&mut self, rows: &[(Vec<u32>, Vec<f64>)]) {
        for (ords, ms) in rows {
            for (column, &v) in self.dims.iter_mut().zip(ords) {
                column.push(v);
            }
            for (column, &v) in self.metrics.iter_mut().zip(ms) {
                column.push(v);
            }
        }
        self.rows += rows.len();
    }

    fn shrink(&mut self) {
        self.dims.iter_mut().for_each(Vec::shrink_to_fit);
        self.metrics.iter_mut().for_each(Vec::shrink_to_fit);
    }

    /// Decompression: every column rebuilt at its length.
    fn rebuild(&mut self) {
        self.dims = self.dims.iter().map(|c| c.as_slice().to_vec()).collect();
        self.metrics = self.metrics.iter().map(|c| c.as_slice().to_vec()).collect();
    }

    fn footprint(&self) -> u64 {
        let dims: usize = self.dims.iter().map(|c| c.capacity() * 4).sum();
        let metrics: usize = self.metrics.iter().map(|c| c.capacity() * 8).sum();
        (dims + metrics) as u64
    }
}

/// Ingest order 4 (DESIGN.md "Ingest path contract"): after every push,
/// clone, shrink and compress → decompress → push, a brick's footprint,
/// payload and columns equal those of a `Vec` per column put through the
/// same steps (decompression rebuilt each column at its length).
#[test]
fn brick_footprint_follows_the_column_model() {
    prop::check_n(
        "brick_footprint_follows_the_column_model",
        128,
        gen_brick_life,
        |(dims, metrics, steps)| {
            let mut brick = Brick::new(*dims, *metrics);
            let mut model = ColumnModel {
                dims: vec![Vec::new(); *dims],
                metrics: vec![Vec::new(); *metrics],
                rows: 0,
            };
            let push = |brick: &mut Brick, rows: &[(Vec<u32>, Vec<f64>)]| {
                rows.iter().for_each(|(ords, ms)| brick.push(ords, ms));
            };
            for (i, step) in steps.iter().enumerate() {
                match step {
                    BrickStep::Push(rows) => {
                        push(&mut brick, rows);
                        model.push(rows);
                    }
                    BrickStep::Clone => {
                        brick = brick.clone();
                        model = model.clone();
                    }
                    BrickStep::Shrink => {
                        brick.shrink();
                        model.shrink();
                    }
                    BrickStep::Recompress(rows) => {
                        brick = CompressedBrick::compress(brick).decompress();
                        model.rebuild();
                        push(&mut brick, rows);
                        model.push(rows);
                    }
                }
                assert_eq!(brick.rows(), model.rows, "step {i}");
                assert_eq!(brick.footprint(), model.footprint(), "step {i}: {step:?}");
                let payload = (*dims * 4 + *metrics * 8) * model.rows;
                assert_eq!(brick.payload_bytes(), payload as u64, "step {i}");
                for (d, column) in model.dims.iter().enumerate() {
                    assert_eq!(brick.dim(d), column.as_slice(), "step {i}, dim {d}");
                }
                for (m, column) in model.metrics.iter().enumerate() {
                    assert_eq!(brick.metric(m), column.as_slice(), "step {i}, metric {m}");
                }
            }
        },
    );
}

// ----------------------------------------------------- granular partitioning

fn gen_schema(rng: &mut SimRng) -> Schema {
    let dims = gen::vec_with(rng, 1, 4, |r| {
        (r.range(1, 200) as i64, r.range(1, 40) as u32)
    });
    let mut b = SchemaBuilder::new();
    for (i, (card, range)) in dims.iter().enumerate() {
        b = b.int_dim(&format!("d{i}"), 0, *card, *range);
    }
    b.metric("m").build().expect("generated schema is valid")
}

/// brick_id ∘ coords is the identity on every valid ordinal vector,
/// and brick ids never exceed the brick space.
#[test]
fn brick_id_bijection() {
    prop::check(
        "brick_id_bijection",
        |rng| (gen_schema(rng), gen::any_u64(rng)),
        |(schema, seed)| {
            let space = BrickSpace::from_schema(schema);
            let mut state = *seed;
            let mut next = || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state
            };
            for _ in 0..50 {
                let ordinals: Vec<u32> = schema
                    .dimensions
                    .iter()
                    .map(|d| (next() % d.cardinality().max(1)) as u32)
                    .collect();
                let id = space.brick_id(&ordinals);
                assert!(id < space.brick_count());
                let coords = space.coords(id);
                for (dim, (&ord, &coord)) in ordinals.iter().zip(&coords).enumerate() {
                    assert_eq!(space.coord_of(dim, ord), coord);
                    let (lo, hi) = space.bucket_ordinal_range(dim, coord);
                    assert!(ord >= lo && ord <= hi);
                }
            }
        },
    );
}

/// Pruning is conservative: a brick matching a point constraint always
/// contains the bucket for that point.
#[test]
fn pruning_never_drops_matching_bricks() {
    prop::check(
        "pruning_never_drops_matching_bricks",
        |rng| (gen_schema(rng), gen::any_u64(rng)),
        |(schema, seed)| {
            let space = BrickSpace::from_schema(schema);
            let mut state = *seed | 1;
            let mut next = || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state
            };
            let ordinals: Vec<u32> = schema
                .dimensions
                .iter()
                .map(|d| (next() % d.cardinality().max(1)) as u32)
                .collect();
            let id = space.brick_id(&ordinals);
            let constraints: Vec<Option<Vec<(u32, u32)>>> =
                ordinals.iter().map(|&o| Some(vec![(o, o)])).collect();
            assert!(space.brick_matches(id, &constraints));
        },
    );
}

/// The residual filter may be skipped only when buckets decide the
/// predicate: for a surviving brick, every ordinal of a constrained
/// dimension left off the residual list satisfies its ranges.
#[test]
fn residual_dims_cover_every_undecided_dimension() {
    prop::check(
        "residual_dims_cover_every_undecided_dimension",
        |rng| {
            let schema = gen_schema(rng);
            let constraints: Vec<Option<Vec<(u32, u32)>>> = schema
                .dimensions
                .iter()
                .map(|d| {
                    gen::any_bool(rng).then(|| {
                        gen::vec_with(rng, 1, 3, |r| {
                            let a = r.below(d.cardinality()) as u32;
                            let b = r.below(d.cardinality()) as u32;
                            (a.min(b), a.max(b))
                        })
                    })
                })
                .collect();
            let brick = rng.below(BrickSpace::from_schema(&schema).brick_count());
            (schema, constraints, brick)
        },
        |(schema, constraints, brick)| {
            let space = BrickSpace::from_schema(schema);
            let mut residual = Vec::new();
            let survives = space.residual_dims(*brick, constraints, &mut residual);
            assert_eq!(survives, space.brick_matches(*brick, constraints));
            if !survives {
                return;
            }
            for (dim, &coord) in space.coords(*brick).iter().enumerate() {
                let Some(ranges) = &constraints[dim] else {
                    assert!(!residual.contains(&dim), "unconstrained dimension filtered");
                    continue;
                };
                if residual.contains(&dim) {
                    continue;
                }
                let (lo, hi) = space.bucket_ordinal_range(dim, coord);
                for ord in lo..=hi {
                    assert!(
                        ranges.iter().any(|&(a, b)| a <= ord && ord <= b),
                        "dimension {dim} ordinal {ord} skipped the filter outside {ranges:?}"
                    );
                }
            }
        },
    );
}

// ---------------------------------------------------------------- sharding

const IDENT_REST: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";

/// The monotonic mapping never self-collides while partitions ≤ shards.
#[test]
fn monotonic_mapping_injective_within_table() {
    prop::check(
        "monotonic_mapping_injective_within_table",
        |rng| {
            (
                gen::ident(rng, gen::LOWER, IDENT_REST, 0, 21),
                rng.range(1, 200) as u32,
                rng.range(200, 100_000),
            )
        },
        |(table, partitions, max_shards)| {
            let mut shards =
                ShardMapping::Monotonic.shards_of_table(table, *partitions, *max_shards);
            shards.sort_unstable();
            shards.dedup();
            assert_eq!(shards.len(), *partitions as usize);
        },
    );
}

/// Shard ids always live in the key space.
#[test]
fn shards_in_key_space() {
    prop::check(
        "shards_in_key_space",
        |rng| {
            let len = gen::usize_in(rng, 1, 11);
            (
                gen::string_from(rng, gen::LOWER, len),
                gen::any_u32(rng),
                rng.range(1, 1_000_000),
            )
        },
        |(table, partition, max_shards)| {
            for mapping in [ShardMapping::Naive, ShardMapping::Monotonic] {
                assert!(mapping.shard_of(table, *partition, *max_shards) < *max_shards);
            }
        },
    );
}

/// Both mappings hash the partition name without building it; the
/// result is the documented formula over the rendered name, bit for bit,
/// for any name (`#` and non-ASCII included), every digit count and every
/// key-space size.
#[test]
fn shard_of_matches_the_rendered_name_formula() {
    const NAME_BYTES: &[u8] = b"abcXYZ019_.#";
    prop::check(
        "shard_of_matches_the_rendered_name_formula",
        |rng| {
            let len = gen::usize_in(rng, 0, 24);
            let mut table = gen::string_from(rng, NAME_BYTES, len);
            if gen::any_bool(rng) {
                table.push('é');
            }
            (table, gen::any_u32(rng), gen::any_u64(rng).max(1))
        },
        |(table, random_partition, random_max)| {
            for partition in [0, 9, 10, 99, 100, u32::MAX, *random_partition] {
                for max_shards in [1, 2, 100_000, u64::MAX, *random_max] {
                    let hash_of = |p| stable_hash(partition_name(table, p).as_bytes());
                    assert_eq!(
                        ShardMapping::Naive.shard_of(table, partition, max_shards),
                        hash_of(partition) % max_shards
                    );
                    let modulus = u128::from(max_shards);
                    let base = u128::from(hash_of(0)) % modulus;
                    assert_eq!(
                        u128::from(ShardMapping::Monotonic.shard_of(table, partition, max_shards)),
                        (base + u128::from(partition)) % modulus
                    );
                }
            }
        },
    );
}

// -------------------------------------------------------------- dictionary

#[test]
fn dictionary_encode_decode_bijective() {
    prop::check(
        "dictionary_encode_decode_bijective",
        |rng| {
            gen::vec_with(rng, 0, 200, |r| {
                let len = gen::usize_in(r, 1, 9);
                gen::string_from(r, gen::LOWER, len)
            })
        },
        |words| {
            let mut dict = Dictionary::new(10_000);
            let mut first_id: std::collections::HashMap<String, u32> = Default::default();
            for w in words {
                let id = dict.encode("d", w).unwrap();
                // Same string always gets the same id.
                let prev = first_id.entry(w.clone()).or_insert(id);
                assert_eq!(*prev, id);
                assert_eq!(dict.decode(id), Some(w.as_str()));
            }
            let distinct: std::collections::HashSet<&String> = words.iter().collect();
            assert_eq!(dict.len(), distinct.len());
        },
    );
}

/// A pool whose strings fall on two slots of every index size up to 64,
/// so probe sequences run long and wrap, followed by ordinary strings.
fn colliding_pool() -> Vec<String> {
    let mut pool: Vec<String> = (0..)
        .map(|i| format!("k{i}"))
        .filter(|s| cubrick::sharding::fnv1a(s.as_bytes()) & 63 < 2)
        .take(48)
        .collect();
    pool.extend((0..48).map(|i| format!("plain-{i}")));
    pool.push(String::new());
    pool
}

/// The hashed dictionary against the sorted-map one it replaced: ids,
/// `lookup`, `decode`, `ranks()`, `len`, `footprint()`, the capacity
/// error, and a refused insert leaving no trace — across index growths
/// (8 → 16 → 32 → 64 → 128 slots) and with colliding strings.
#[test]
fn dictionary_matches_sorted_map_model() {
    let pool = colliding_pool();
    prop::check_n(
        "dictionary_matches_sorted_map_model",
        96,
        |rng| {
            let max_cardinality = *rng.pick(&[0, 1, 5, 17, 40, 200]);
            let words = gen::vec_with(rng, 0, 300, |r| r.below(pool.len() as u64) as usize);
            (max_cardinality, words)
        },
        |(max_cardinality, words)| {
            let mut dict = Dictionary::new(*max_cardinality);
            let mut forward = std::collections::BTreeMap::<&str, u32>::new();
            let mut reverse = Vec::<&str>::new();
            for &w in words {
                let word = pool[w].as_str();
                let ranks_before = dict.ranks();
                let got = dict.encode("dim", word);
                match forward.get(word) {
                    Some(&id) => assert_eq!(got, Ok(id)),
                    None if reverse.len() as u32 >= *max_cardinality => {
                        let Err(cubrick::error::CubrickError::ValueOutOfRange {
                            dimension, ..
                        }) = got
                        else {
                            panic!("{word:?} fits a full dictionary: {got:?}");
                        };
                        assert_eq!(dimension, "dim");
                        // No trace: not even the rank memo was dropped.
                        assert!(Arc::ptr_eq(&ranks_before, &dict.ranks()));
                    }
                    None => {
                        assert_eq!(got, Ok(reverse.len() as u32));
                        forward.insert(word, reverse.len() as u32);
                        reverse.push(word);
                    }
                }
                assert_eq!(dict.len(), reverse.len());
                assert_eq!(dict.is_empty(), reverse.is_empty());
            }
            for word in &pool {
                assert_eq!(
                    dict.lookup(word),
                    forward.get(word.as_str()).copied(),
                    "{word:?}"
                );
            }
            for (id, word) in (0..).zip(&reverse) {
                assert_eq!(dict.decode(id), Some(*word));
            }
            assert_eq!(dict.decode(reverse.len() as u32), None);
            let ranks = dict.ranks();
            let id_of_rank: Vec<u32> = forward.values().copied().collect();
            for (rank, &id) in (0..).zip(&id_of_rank) {
                assert_eq!(ranks.rank_of_id[id as usize], rank);
            }
            assert_eq!(ranks.id_of_rank, id_of_rank);
            // The accounting constant: two copies of every string, two
            // `String` headers and a map slot per entry.
            let chars: usize = reverse.iter().map(|w| w.len()).sum();
            assert_eq!(dict.footprint(), (2 * chars + 56 * reverse.len()) as u64);
        },
    );
}

/// `len`, `lookup` of every pool string, `decode` of every id and one
/// past, `bytes`, `footprint` and `ranks` of two dictionaries agree.
fn assert_same_dictionary(got: &mut Dictionary, want: &mut Dictionary, pool: &[String]) {
    assert_eq!(got.len(), want.len());
    for word in pool {
        assert_eq!(got.lookup(word), want.lookup(word), "{word:?}");
    }
    for id in 0..=want.len() as u32 {
        assert_eq!(got.decode(id), want.decode(id), "id {id}");
    }
    assert_eq!(got.bytes(), want.bytes());
    assert_eq!(got.footprint(), want.footprint());
    let (got_ranks, want_ranks) = (got.ranks(), want.ranks());
    assert_eq!(got_ranks.id_of_rank, want_ranks.id_of_rank);
    assert_eq!(got_ranks.rank_of_id, want_ranks.rank_of_id);
}

/// A replica that adopts each batch's suffix whole ends as the dictionary
/// that encoded the batch one string at a time, after every batch: across
/// empty batches, batches of known strings only, index growths and
/// colliding strings. A batch that adds nothing keeps the replica's
/// cached ranks.
#[test]
fn adopting_suffixes_equals_encoding_one_at_a_time() {
    let pool = colliding_pool();
    prop::check_n(
        "adopting_suffixes_equals_encoding_one_at_a_time",
        96,
        |rng| {
            gen::vec_with(rng, 0, 12, |r| {
                let len = *r.pick(&[1, 2, 6, 41]);
                gen::vec_with(r, 0, len, |r| r.below(pool.len() as u64) as usize)
            })
        },
        |batches| {
            let mut encoder = Dictionary::new(1_000);
            let mut replica = Dictionary::new(1_000);
            for batch in batches {
                let len = encoder.len();
                for &w in batch {
                    encoder.encode("dim", &pool[w]).unwrap();
                }
                let suffix = encoder.suffix(len);
                let ranks_before = replica.ranks();
                assert!(replica.adopt(&suffix));
                if replica.len() == ranks_before.id_of_rank.len() {
                    assert!(Arc::ptr_eq(&ranks_before, &replica.ranks()));
                }
                assert_same_dictionary(&mut replica, &mut encoder, &pool);
            }
        },
    );
}

/// A replica that does not hold what the encoder held before a suffix
/// refuses it and is left exactly as it was (`Debug` shows every buffer
/// and the cached ranks): one string more, or the same length and bytes
/// with one of the suffix's strings already in it.
#[test]
fn a_diverged_replica_refuses_a_suffix_and_keeps_its_dictionary() {
    // One width, so a swapped string keeps the arena's length; the first
    // half collide on two slots of every index size up to 64.
    let mut pool: Vec<String> = (0..)
        .map(|i| format!("k{i:04}"))
        .filter(|s| cubrick::sharding::fnv1a(s.as_bytes()) & 63 < 2)
        .take(40)
        .collect();
    pool.extend((0..40).map(|i| format!("p{i:04}")));
    prop::check_n(
        "a_diverged_replica_refuses_a_suffix_and_keeps_its_dictionary",
        96,
        |rng| {
            let mut order: Vec<usize> = (0..pool.len()).collect();
            rng.shuffle(&mut order);
            let known = gen::usize_in(rng, 1, 40);
            let added = gen::usize_in(rng, 1, 30);
            let swapped = rng.below(added as u64) as usize;
            (order, known, added, swapped, gen::any_bool(rng))
        },
        |(order, known, added, swapped, one_more)| {
            let words = |ids: &[usize]| ids.iter().map(|&w| pool[w].clone()).collect::<Vec<_>>();
            let (before, new) = order.split_at(*known);
            let new = &new[..*added];
            let mut encoder = Dictionary::new(1_000);
            for w in words(before) {
                encoder.encode("dim", &w).unwrap();
            }
            let mut replica = encoder.clone();
            for w in words(new) {
                encoder.encode("dim", &w).unwrap();
            }
            let suffix = encoder.suffix(*known);
            if *one_more {
                replica.encode("dim", "extra").unwrap();
            } else {
                // The last known string swapped for a new one.
                let mut held = words(before);
                held.pop();
                held.push(pool[new[*swapped]].clone());
                replica = Dictionary::new(1_000);
                for w in held {
                    replica.encode("dim", &w).unwrap();
                }
            }
            let _ = replica.ranks();
            let as_it_was = format!("{replica:?}");
            assert!(!replica.adopt(&suffix));
            assert_eq!(format!("{replica:?}"), as_it_was);
        },
    );
}

// ------------------------------------------------- proxy blacklist / retries

use cubrick::error::CubrickError;
use cubrick::proxy::{CubrickProxy, ProxyConfig, BLACKLIST_TTL};
use scalewall_shard_manager::HostId;
use scalewall_sim::{SimDuration, SimTime};

/// The proxy's blacklist follows its documented state machine exactly:
/// a success wipes the host's record; each failure bumps a consecutive
/// counter; reaching the threshold while not already blacklisted arms a
/// TTL window that is exclusive at its upper boundary and re-arms on
/// the first post-expiry failure at or past the threshold (ISSUE 10
/// satellite: the retry-spin fix). Checked against an independent
/// shadow model over arbitrary failure/success/probe schedules.
#[test]
fn blacklist_decisions_match_shadow_model() {
    prop::check(
        "blacklist_decisions_match_shadow_model",
        |rng| {
            gen::vec_with(rng, 1, 300, |r| {
                // (advance nanos, event: 0 = failure, 1 = success, 2 = probe)
                let gap = r.below(3_000_000_000);
                let ev = if r.chance(0.6) {
                    0u8
                } else if r.chance(0.25) {
                    1
                } else {
                    2
                };
                (gap, ev)
            })
        },
        |schedule| {
            let config = ProxyConfig::default();
            let (threshold, ttl) = (config.blacklist_threshold, BLACKLIST_TTL);
            let mut proxy = CubrickProxy::new(config);
            let host = HostId(7);
            let mut now = SimTime::from_secs(1);
            // Shadow model: (consecutive failures, blacklisted-until).
            let mut failures = 0u32;
            let mut until: Option<SimTime> = None;
            for &(gap, ev) in schedule {
                now += SimDuration::from_nanos(gap);
                match ev {
                    0 => {
                        proxy.record_host_failure(host, now);
                        failures += 1;
                        let active = until.is_some_and(|u| now < u);
                        if failures >= threshold && !active {
                            until = Some(now + ttl);
                        }
                    }
                    1 => {
                        proxy.record_host_success(host);
                        failures = 0;
                        until = None;
                    }
                    _ => {}
                }
                let expected = until.is_some_and(|u| now < u);
                assert_eq!(
                    proxy.is_blacklisted(host, now),
                    expected,
                    "divergence at now={now:?} after {failures} failures (until {until:?})"
                );
                if let Some(u) = until {
                    // The boundary is exclusive: at `until` the host is
                    // already serviceable again.
                    assert!(
                        !proxy.is_blacklisted(host, u),
                        "inclusive boundary at {u:?}"
                    );
                }
            }
        },
    );
}

/// `should_retry` spends the retry budget exactly: a retryable error is
/// retried for attempts `0..max_retries` and never past them, a fatal
/// error never, and every granted retry is counted in the stats.
#[test]
fn retry_budget_is_spent_exactly() {
    prop::check(
        "retry_budget_is_spent_exactly",
        |rng| {
            (
                gen::usize_in(rng, 0, 6) as u32,
                gen::usize_in(rng, 0, 12) as u32,
                gen::any_bool(rng),
            )
        },
        |&(max_retries, attempts, retryable)| {
            let mut proxy = CubrickProxy::new(ProxyConfig {
                max_retries,
                ..Default::default()
            });
            let error = if retryable {
                CubrickError::PartitionUnavailable {
                    table: "t".into(),
                    partition: 0,
                }
            } else {
                CubrickError::Parse {
                    detail: "x".into(),
                    position: 0,
                }
            };
            let mut granted = 0u64;
            for attempt in 0..attempts {
                let decision = proxy.should_retry(&error, attempt);
                assert_eq!(
                    decision,
                    retryable && attempt < max_retries,
                    "attempt {attempt} of budget {max_retries} (retryable {retryable})"
                );
                granted += u64::from(decision);
            }
            assert_eq!(proxy.stats.retries, granted, "every grant is counted");
        },
    );
}

// ------------------------------------------------------- shard size metrics

use std::sync::Arc;

use cubrick::catalog::{shared_catalog, Catalog, RowMapping};
use cubrick::hotness::{Hotness, MemoryMonitorConfig};
use cubrick::metrics::MetricGeneration;
use cubrick::node::{CubrickNode, NodeConfig, RegionStore, SharedRegionStore};
use cubrick::store::{PartitionData, Residency};
use cubrick::value::{Row, Value};
use scalewall_shard_manager::{AddShardReason, AppServer, Region, ShardContext, ShardId};
use scalewall_sim::sync::RwLock;

/// One step of a partition's life, as the ingest path, the memory
/// monitor and the scan drive it.
#[derive(Debug)]
enum StoreOp {
    Ingest(usize),
    /// Monitor pass at this byte budget (0 compresses everything cold).
    Monitor(u64),
    Scan,
}

fn gen_store_op(rng: &mut SimRng) -> StoreOp {
    match rng.below(4) {
        0 | 1 => StoreOp::Ingest(gen::usize_in(rng, 1, 120)),
        2 => StoreOp::Monitor(*rng.pick(&[0, 2_000, 1 << 30])),
        _ => StoreOp::Scan,
    }
}

/// 1–3 int dimensions, maybe a string one, 1–3 metrics.
fn gen_row_schema(rng: &mut SimRng) -> Schema {
    let mut b = SchemaBuilder::new();
    for d in 0..gen::usize_in(rng, 1, 3) {
        b = b.int_dim(&format!("d{d}"), 0, 100, rng.range(5, 50) as u32);
    }
    if gen::any_bool(rng) {
        b = b.str_dim("s", 50, 10);
    }
    for m in 0..gen::usize_in(rng, 1, 3) {
        b = b.metric(&format!("m{m}"));
    }
    b.build().expect("generated schema is valid")
}

fn gen_schema_row(schema: &Schema, rng: &mut SimRng) -> Row {
    let dims = schema
        .dimensions
        .iter()
        .map(|d| match d.kind {
            cubrick::schema::DimKind::Int { .. } => Value::Int(rng.below(100) as i64),
            cubrick::schema::DimKind::Str { .. } => Value::Str(format!("v{}", rng.below(40))),
        })
        .collect();
    let metrics = (0..schema.metrics.len())
        .map(|_| gen::f64_in(rng, 0.0, 100.0))
        .collect();
    Row::new(dims, metrics)
}

fn row_width(schema: &Schema) -> u64 {
    (4 * schema.dimensions.len() + 8 * schema.metrics.len()) as u64
}

fn apply_store_op(p: &mut PartitionData, op: &StoreOp, rng: &mut SimRng) {
    match *op {
        StoreOp::Ingest(n) => {
            let schema = p.schema().clone();
            for _ in 0..n {
                p.ingest(&gen_schema_row(&schema, rng)).expect("valid row");
            }
        }
        StoreOp::Monitor(budget_bytes) => {
            p.run_memory_monitor(&MemoryMonitorConfig {
                budget_bytes,
                ..Default::default()
            });
        }
        StoreOp::Scan => {
            let all = vec![None; p.schema().dimensions.len()];
            p.for_each_matching_brick(&all, |_| {});
        }
    }
}

/// The identity the O(1) gen-2 metric stands on: in any hot / cold mix
/// a partition's decompressed size is its row count times
/// the schema's row width, and every stored row sits in exactly one
/// brick. (Written against the per-brick walk it replaced.)
#[test]
fn decompressed_bytes_is_rows_times_row_width() {
    prop::check_n(
        "decompressed_bytes_is_rows_times_row_width",
        64,
        |rng| {
            (
                gen_row_schema(rng),
                gen::vec_with(rng, 1, 14, gen_store_op),
                gen::any_u64(rng),
            )
        },
        |(schema, ops, seed)| {
            let mut rng = SimRng::new(*seed);
            let mut p = PartitionData::new(Arc::new(schema.clone()));
            for op in ops {
                apply_store_op(&mut p, op, &mut rng);
                assert_eq!(
                    p.decompressed_bytes(),
                    p.rows() * row_width(schema),
                    "{op:?}"
                );
                assert_eq!(p.all_rows().len() as u64, p.rows(), "{op:?}");
            }
        },
    );
}

/// Everything `tests/regression_ingest_bits.rs` pins of a partition, as
/// values: two partitions are the same store iff these are equal (column
/// capacities show in the memory footprint).
fn pinned_state(p: &PartitionData) -> impl PartialEq + std::fmt::Debug {
    let dicts: Vec<_> = (0..p.schema().dimensions.len())
        .filter_map(|d| p.dict(d))
        .map(|dict| {
            let ranks = dict.clone().ranks();
            let ids: Vec<_> = (0..20).map(|i| dict.lookup(&format!("v{i}"))).collect();
            (dict.len(), dict.footprint(), ids, ranks.id_of_rank.clone())
        })
        .collect();
    (
        (p.rows(), p.brick_count(), p.state_counts()),
        (p.memory_footprint(), p.decompressed_bytes()),
        p.stats(),
        p.hotness_snapshot(),
        p.all_rows(),
        dicts,
    )
}

/// A row the schema refuses: a wrong shape, a wrong type, an integer
/// out of range, or (with a string dimension) a string beyond the
/// dictionary's capacity once `v0`‥`v15` are in.
fn gen_refused_row(schema: &Schema, rng: &mut SimRng) -> Row {
    let mut row = gen_schema_row(schema, rng);
    let d = rng.below(row.dims.len() as u64) as usize;
    match rng.below(4) {
        0 => row.metrics.push(1.0),
        1 => row.dims[d] = Value::Double(0.5),
        2 if matches!(row.dims[d], Value::Int(_)) => row.dims[d] = Value::Int(100),
        _ => {
            row.dims.pop();
        }
    }
    row
}

/// `ingest_batch` is the one-row ingest applied in row order — same
/// `Result`, same store down to dictionary ids, brick states, hotness and
/// column capacities — for empty batches, batches that land in one brick,
/// rows landing in cold bricks, and a refused row anywhere.
#[test]
fn ingest_batch_equals_row_at_a_time() {
    prop::check_n(
        "ingest_batch_equals_row_at_a_time",
        96,
        |rng| {
            let mut b = SchemaBuilder::new();
            for d in 0..gen::usize_in(rng, 1, 3) {
                b = b.int_dim(&format!("d{d}"), 0, 100, rng.range(5, 50) as u32);
            }
            if gen::any_bool(rng) {
                // Room for 16 of the generator's 40 strings: the
                // dictionary fills up part-way through most runs.
                b = b.str_dim("s", 16, 4);
            }
            let schema = b.metric("m0").metric("m1").build().expect("valid schema");
            // The store the batch lands on: rows, then squeezes and scans,
            // so bricks are in every state.
            let prelude = gen::vec_with(rng, 0, 8, gen_store_op);
            let one_brick = rng.chance(0.2);
            let template = gen_schema_row(&schema, rng);
            let mut batch = gen::vec_with(rng, 0, 150, |r| match one_brick {
                true => Row::new(template.dims.clone(), vec![r.unit(), r.unit()]),
                false => gen_schema_row(&schema, r),
            });
            if rng.chance(0.5) {
                let at = rng.below(batch.len() as u64 + 1) as usize;
                batch.insert(at, gen_refused_row(&schema, rng));
            }
            (schema, prelude, batch, gen::any_u64(rng))
        },
        |(schema, prelude, batch, seed)| {
            let mut rng = SimRng::new(*seed);
            let mut store = PartitionData::new(Arc::new(schema.clone()));
            for op in prelude {
                if let StoreOp::Ingest(n) = op {
                    // A full dictionary refuses some of these; fine.
                    for _ in 0..*n {
                        let _ = store.ingest(&gen_schema_row(schema, &mut rng));
                    }
                } else {
                    apply_store_op(&mut store, op, &mut rng);
                }
            }
            // Both from clones: a clone's columns come back at exact
            // capacity, and capacities are part of what is compared.
            let (mut batched, mut row_at_a_time) = (store.clone(), store.clone());
            let want = batch.iter().try_for_each(|row| row_at_a_time.ingest(row));
            let rows: Vec<&Row> = batch.iter().collect();
            let got = batched.ingest_batch(&rows);
            assert_eq!(got, want);
            assert_eq!(pinned_state(&batched), pinned_state(&row_at_a_time));
        },
    );
}

/// A partition's maintained totals against walks written here: the
/// brick census summed by state, every dictionary string decoded and
/// measured, the hotness snapshot counted.
fn assert_totals_equal_walks(p: &PartitionData, context: &dyn std::fmt::Debug) {
    let (mut resident, mut counts) = (0u64, (0usize, 0usize));
    for (_, residency, bytes) in p.brick_census() {
        resident += bytes;
        match residency {
            Residency::Hot => counts.0 += 1,
            Residency::Cold => counts.1 += 1,
        }
    }
    for dict in (0..p.schema().dimensions.len()).filter_map(|d| p.dict(d)) {
        let strings = (0..dict.len() as u32).map(|id| dict.decode(id).expect("dense ids"));
        let walked = strings.map(|s| 2 * s.len() + 56).sum::<usize>() as u64;
        assert_eq!(dict.footprint(), walked, "{context:?}");
        resident += walked;
    }
    assert_eq!(p.memory_footprint(), resident, "{context:?}");
    assert_eq!(p.state_counts(), counts, "{context:?}");
    let warm = p.hotness_snapshot().iter().filter(|&&(_, h)| h > 0).count();
    assert_eq!(p.warm_bricks(), warm, "{context:?}");
}

/// One decay pass, checked against a walk over every brick in id order
/// (one [`Hotness::decay`] each) on a copy of the counters and of the
/// RNG: the same counters, the same next draw, and the warm ids are
/// exactly the non-zero counters.
fn checked_decay_pass(p: &mut PartitionData, probability: f64, rng: &mut SimRng) {
    let mut walk_rng = rng.clone();
    let walked: Vec<(u64, u32)> = p
        .hotness_snapshot()
        .into_iter()
        .map(|(id, counter)| {
            let mut hotness = Hotness(counter);
            hotness.decay(probability, &mut walk_rng);
            (id, hotness.0)
        })
        .collect();
    p.decay_pass(probability, rng);
    assert_eq!(p.hotness_snapshot(), walked);
    assert_eq!(rng.clone().next_u64(), walk_rng.next_u64());
    let warm: Vec<u64> = walked.iter().filter(|w| w.1 > 0).map(|w| w.0).collect();
    assert_eq!(p.warm_brick_ids(), warm);
}

/// What moves a maintained total, beyond [`StoreOp`].
#[derive(Debug)]
enum TotalsOp {
    Store(StoreOp),
    /// A batch of this many rows with a refused one at this index.
    RefusedBatch(usize, usize),
    /// A scan pruned to ordinals up to this one of the first dimension.
    PrunedScan(u32),
    /// Decay passes at this halving probability.
    Decay(usize, f64),
    /// Carry on with a clone (columns come back at exact capacity).
    Clone,
}

/// `memory_footprint`, `state_counts`, `warm_bricks` and
/// `Dictionary::footprint` read maintained totals; after every step of any
/// life — ingests with refused rows into a dictionary that fills up,
/// squeezes, roomy passes, rows re-heating cold bricks, full and pruned scans, decay to zero, clones — and in every
/// partition both ways through a re-partition, they equal the walks.
/// Every decay pass, there and after each re-partition's scans, draws
/// what a walk over every brick draws ([`checked_decay_pass`]).
#[test]
fn maintained_totals_equal_the_walks() {
    prop::check_n(
        "maintained_totals_equal_the_walks",
        64,
        |rng| {
            let mut b = SchemaBuilder::new();
            for d in 0..gen::usize_in(rng, 1, 3) {
                b = b.int_dim(&format!("d{d}"), 0, 100, rng.range(5, 50) as u32);
            }
            if rng.chance(0.7) {
                // Room for 16 of the generator's 40 strings.
                b = b.str_dim("s", 16, 4);
            }
            let schema = b.metric("m0").metric("m1").build().expect("valid schema");
            let ops = gen::vec_with(rng, 1, 24, |r| match r.below(9) {
                0..=4 => TotalsOp::Store(gen_store_op(r)),
                5 => {
                    let rows = gen::usize_in(r, 1, 60);
                    TotalsOp::RefusedBatch(rows, r.below(rows as u64) as usize)
                }
                6 => TotalsOp::PrunedScan(r.below(100) as u32),
                7 => TotalsOp::Decay(gen::usize_in(r, 1, 6), *r.pick(&[0.3, 1.0])),
                _ => TotalsOp::Clone,
            });
            (schema, ops, gen::any_u64(rng))
        },
        |(schema, ops, seed)| {
            let mut rng = SimRng::new(*seed);
            let mut p = PartitionData::new(Arc::new(schema.clone()));
            for op in ops {
                match op {
                    TotalsOp::Store(StoreOp::Ingest(n)) => {
                        // A full dictionary refuses some of these; fine.
                        for _ in 0..*n {
                            let _ = p.ingest(&gen_schema_row(schema, &mut rng));
                        }
                    }
                    TotalsOp::Store(op) => apply_store_op(&mut p, op, &mut rng),
                    TotalsOp::RefusedBatch(rows, at) => {
                        let mut batch: Vec<Row> = (0..*rows)
                            .map(|_| gen_schema_row(schema, &mut rng))
                            .collect();
                        batch[*at] = gen_refused_row(schema, &mut rng);
                        let batch: Vec<&Row> = batch.iter().collect();
                        assert!(p.ingest_batch(&batch).is_err());
                    }
                    TotalsOp::PrunedScan(upto) => {
                        let mut constraints = vec![None; schema.dimensions.len()];
                        constraints[0] = Some(vec![(0, *upto)]);
                        p.for_each_matching_brick(&constraints, |_| {});
                    }
                    TotalsOp::Decay(passes, probability) => {
                        for _ in 0..*passes {
                            checked_decay_pass(&mut p, *probability, &mut rng);
                        }
                    }
                    TotalsOp::Clone => p = p.clone(),
                }
                assert_totals_equal_walks(&p, op);
            }

            // Both ways through a re-partition, starting from squeezed
            // partitions.
            let mut catalog = cubrick::catalog::Catalog::new(1_000);
            let mut store = RegionStore::new();
            let def = catalog
                .create_table(
                    "t",
                    Arc::new(schema.clone()),
                    8,
                    RowMapping::Hash,
                    ShardMapping::Monotonic,
                )
                .expect("fresh table");
            let rows = p.all_rows();
            for (partition, routed) in (0..).zip(def.route_rows(&rows, || 0)) {
                store
                    .ingest_batch(&def.name, partition, &def.schema, &routed)
                    .expect("rows a partition stored");
                if let Some(data) = store.partition_mut("t", partition) {
                    apply_store_op(data, &StoreOp::Monitor(0), &mut rng);
                }
            }
            for partitions in [16, 8] {
                let old = catalog.get("t").expect("fresh table").clone();
                catalog
                    .set_partitions("t", partitions)
                    .expect("known table");
                let new = catalog.get("t").expect("known table");
                let stored = cubrick::repartition::stored_rows(&store, &old);
                assert_eq!(stored.len(), rows.len());
                let routed = new.route_rows(&stored, || rng.next_u64());
                cubrick::repartition::reshuffle(&mut store, new, &routed)
                    .expect("rows a partition stored");
                for (table, partition) in store.keys() {
                    let data = store.partition_mut(&table, partition).expect("listed");
                    apply_store_op(data, &StoreOp::Scan, &mut rng);
                    for probability in [0.3, 1.0, 1.0] {
                        checked_decay_pass(data, probability, &mut rng);
                    }
                    assert_totals_equal_walks(data, &(partitions, partition));
                }
            }
        },
    );
}

/// `shard_metrics()` reports, for each generation, what the four-walk
/// computation it replaced reported: every footprint summed over the
/// shard's partitions, one of them picked by the generation.
#[test]
fn shard_metrics_match_the_four_walk_oracle() {
    const GENERATIONS: [MetricGeneration; 2] = [
        MetricGeneration::Gen1MemoryFootprint,
        MetricGeneration::Gen2DecompressedSize,
    ];
    prop::check_n(
        "shard_metrics_match_the_four_walk_oracle",
        32,
        |rng| {
            let tables = gen::vec_with(rng, 1, 3, |r| (gen_row_schema(r), r.range(1, 5) as u32));
            let ops = gen::vec_with(rng, 1, 12, |r| (r.below(16), gen_store_op(r)));
            (tables, ops, gen::any_u64(rng))
        },
        |(tables, ops, seed)| {
            let mut rng = SimRng::new(*seed);
            let catalog = shared_catalog(1_000);
            let store: SharedRegionStore = Arc::new(RwLock::new(RegionStore::new()));
            let mut keys = Vec::new();
            for (i, (schema, partitions)) in tables.iter().enumerate() {
                let def = catalog
                    .write()
                    .create_table(
                        &format!("t{i}"),
                        Arc::new(schema.clone()),
                        *partitions,
                        RowMapping::Hash,
                        ShardMapping::Monotonic,
                    )
                    .expect("fresh table");
                for p in 0..*partitions {
                    // Half the partitions start with rows; the rest stay
                    // without a store entry until an op ingests into them.
                    if gen::any_bool(&mut rng) {
                        let row = gen_schema_row(schema, &mut rng);
                        store
                            .write()
                            .ingest_batch(&def.name, p, &def.schema, &[&row])
                            .expect("valid row");
                    }
                    keys.push((def.name.clone(), p, def.schema.clone()));
                }
            }
            for (pick, op) in ops {
                let (table, p, schema) = &keys[*pick as usize % keys.len()];
                let mut store = store.write();
                match store.partition_mut(table, *p) {
                    Some(data) => apply_store_op(data, op, &mut rng),
                    None => {
                        let row = gen_schema_row(schema, &mut rng);
                        store
                            .ingest_batch(table, *p, schema, &[&row])
                            .expect("valid row");
                    }
                }
            }

            let shards: Vec<u64> = {
                let catalog = catalog.read();
                let mut all: Vec<u64> = (0..tables.len())
                    .flat_map(|i| catalog.shards_of_table(&format!("t{i}")).expect("created"))
                    .collect();
                all.sort_unstable();
                all.dedup();
                all
            };
            for generation in GENERATIONS {
                let mut config = NodeConfig::new(HostId(1), Region(0));
                config.metric_generation = generation;
                let mut node = CubrickNode::new(config, catalog.clone(), store.clone());
                for &shard in &shards {
                    node.add_shard(ShardContext {
                        shard: ShardId(shard),
                        reason: AddShardReason::NewAllocation,
                        source: None,
                    })
                    .expect("new allocations are never vetoed");
                }
                let catalog = catalog.read();
                let store = store.read();
                let oracle: Vec<(ShardId, f64)> = shards
                    .iter()
                    .map(|&shard| {
                        let (mut footprint, mut decompressed) = (0u64, 0u64);
                        for (table, p) in catalog.partitions_of_shard(shard) {
                            if let Some(data) = store.partition(table, *p) {
                                footprint += data.memory_footprint();
                                decompressed +=
                                    data.all_rows().len() as u64 * row_width(data.schema());
                            }
                        }
                        let size = match generation {
                            MetricGeneration::Gen1MemoryFootprint => footprint,
                            MetricGeneration::Gen2DecompressedSize => decompressed,
                        };
                        assert_eq!(node.shard_transfer_bytes(ShardId(shard)), decompressed);
                        (ShardId(shard), size as f64)
                    })
                    .collect();
                assert_eq!(node.shard_metrics(), oracle, "{generation:?}");
            }
        },
    );
}

/// One step of a node's life, as the stamp sees it.
#[derive(Debug)]
enum NodeOp {
    /// Rows into a partition of a live table, maybe with a refused row
    /// at this index.
    Ingest(usize, u32, usize, Option<usize>),
    Scan(usize, u32),
    Decay,
    Monitor,
    /// Take a shard of a live table; a migration may be vetoed.
    AddShard(usize, bool),
    DropShard(usize),
    CopyComplete(usize),
    Reboot,
    CreateTable(u32),
    /// Drop a live table from the catalog and the store, the store first
    /// if set.
    DropTable(usize, bool),
    /// `set_partitions` to twice or half the count, then the reshuffle.
    Repartition(usize, bool),
}

fn gen_node_op(rng: &mut SimRng) -> NodeOp {
    let pick = rng.below(64) as usize;
    let partition = rng.below(16) as u32;
    match rng.below(14) {
        0..=2 => {
            let rows = gen::usize_in(rng, 1, 60);
            let refused = rng.chance(0.3).then(|| rng.below(rows as u64) as usize);
            NodeOp::Ingest(pick, partition, rows, refused)
        }
        3 | 4 => NodeOp::Scan(pick, partition),
        5 => NodeOp::Decay,
        6 | 7 => NodeOp::Monitor,
        8 => NodeOp::AddShard(pick, gen::any_bool(rng)),
        9 => NodeOp::DropShard(pick),
        10 => match rng.below(3) {
            0 => NodeOp::Reboot,
            _ => NodeOp::CopyComplete(pick),
        },
        11 => NodeOp::CreateTable(rng.range(1, 5) as u32),
        12 => NodeOp::DropTable(pick, gen::any_bool(rng)),
        _ => NodeOp::Repartition(pick, gen::any_bool(rng)),
    }
}

/// Whether a monitor pass of `node` would find nothing to move: the
/// node's budget shared out by decompressed size, every owned partition
/// at its share with no movable brick.
fn monitor_is_idle(node: &CubrickNode, catalog: &Catalog, store: &RegionStore) -> bool {
    let parts: Vec<&PartitionData> = node
        .owned_shards()
        .into_iter()
        .flat_map(|s| catalog.partitions_of_shard(s))
        .filter_map(|(t, p)| store.partition(t, *p))
        .collect();
    let total: u64 = parts.iter().map(|d| d.decompressed_bytes()).sum();
    parts.iter().all(|data| {
        let share = data.decompressed_bytes() as f64 / total as f64;
        let config = MemoryMonitorConfig {
            budget_bytes: (node.config().memory_budget_bytes as f64 * share) as u64,
            ..Default::default()
        };
        total == 0 || data.movable_bricks(&config).1 == 0
    })
}

/// The metrics stamp is sound: after every step of a generated life —
/// batches with a refused row, scans, decay, monitor passes that move
/// bricks, shards gained and lost, reboots, tables created, dropped and
/// re-partitioned — an unchanged `metrics_stamp()` comes with a
/// bit-identical `shard_metrics()`, and a monitor pass returns idle —
/// having looked, or at the stamp of the last idle pass without a look —
/// exactly when no owned partition has a movable brick (checked also
/// between the halves of a drop and of a re-partition). And each decay
/// pass visits the partitions the node owns at that step and no other,
/// whatever moved in the owned set or the catalog since its last pass.
#[test]
fn an_unchanged_metrics_stamp_means_an_unchanged_report() {
    prop::check_n(
        "an_unchanged_metrics_stamp_means_an_unchanged_report",
        256,
        |rng| {
            let schema = gen_row_schema(rng);
            let budget = *rng.pick(&[1, 2_000, 20_000, 1 << 30]);
            let generation = *rng.pick(&[
                MetricGeneration::Gen1MemoryFootprint,
                MetricGeneration::Gen2DecompressedSize,
            ]);
            let ops = gen::vec_with(rng, 1, 48, gen_node_op);
            (schema, budget, generation, ops, gen::any_u64(rng))
        },
        |(schema, budget, generation, ops, seed)| {
            let mut rng = SimRng::new(*seed);
            let schema = Arc::new(schema.clone());
            let catalog = shared_catalog(64);
            let store: SharedRegionStore = Arc::new(RwLock::new(RegionStore::new()));
            let mut config = NodeConfig::new(HostId(1), Region(0));
            config.memory_budget_bytes = *budget;
            config.metric_generation = *generation;
            // Every warm counter a pass visits halves, so the counters
            // show which partitions it visited.
            config.decay_probability = 1.0;
            let mut node = CubrickNode::new(config, catalog.clone(), store.clone());
            let (mut tables, mut created) = (Vec::<String>::new(), 0);
            let ctx = |shard: u64, reason| ShardContext {
                shard: ShardId(shard),
                reason,
                source: None,
            };
            // The life starts on a table of four partitions the node owns.
            let ops = std::iter::once(&NodeOp::CreateTable(4)).chain(ops);
            let mut last = (None, Vec::new());
            let mut observe = |node: &CubrickNode, step: &dyn std::fmt::Debug| {
                let stamp = node.metrics_stamp().expect("a node always stamps");
                let bits: Vec<(ShardId, u64)> = node
                    .shard_metrics()
                    .iter()
                    .map(|&(s, w)| (s, w.to_bits()))
                    .collect();
                if last.0 == Some(stamp) {
                    assert_eq!(bits, last.1, "{step:?}");
                }
                last = (Some(stamp), bits);
            };
            let monitor = |node: &mut CubrickNode, step: &dyn std::fmt::Debug| {
                let stamp = node.metrics_stamp();
                let idle = monitor_is_idle(node, &catalog.read(), &store.read());
                let moved = node.run_memory_monitor();
                // A pass that goes back to its partitions moves the stamp;
                // only an idle return, memoized or not, leaves it.
                assert_eq!(node.metrics_stamp() == stamp, idle, "{step:?}");
                assert!(!idle || moved == (0, 0), "{step:?}");
            };
            for op in ops {
                let table = |pick: usize| tables.get(pick % tables.len().max(1)).cloned();
                let shards: Vec<u64> = {
                    let catalog = catalog.read();
                    let of = |t: &String| catalog.shards_of_table(t).expect("live table");
                    tables.iter().flat_map(of).collect()
                };
                let shard = |pick: usize| shards.get(pick % shards.len().max(1)).copied();
                match *op {
                    NodeOp::Ingest(pick, p, rows, refused) => {
                        let Some(name) = table(pick) else { continue };
                        let def = catalog.read().get(&name).expect("live table").clone();
                        let mut batch: Vec<Row> = (0..rows)
                            .map(|_| gen_schema_row(&schema, &mut rng))
                            .collect();
                        if let Some(at) = refused {
                            batch[at] = gen_refused_row(&schema, &mut rng);
                        }
                        let batch: Vec<&Row> = batch.iter().collect();
                        let p = p % def.partitions;
                        let _ = store
                            .write()
                            .ingest_batch(&def.name, p, &def.schema, &batch);
                    }
                    NodeOp::Scan(pick, p) => {
                        let Some(name) = table(pick) else { continue };
                        let text = match schema.dimensions.iter().any(|d| d.name == "s") {
                            true => format!("select count(*) from {name} group by s order by s"),
                            false => format!("select count(*) from {name}"),
                        };
                        let query = cubrick::query::parse_query(&text).expect("valid query");
                        let _ = node.execute_local(&query, p);
                    }
                    NodeOp::Decay => {
                        // Two scans of each owned partition first: counters
                        // at 2 survive this pass at 1, and show at the next
                        // one whether it still visits them.
                        let owned = node.owned_partition_keys();
                        for (table, p) in owned.iter().chain(&owned) {
                            let text = format!("select count(*) from {table}");
                            let query = cubrick::query::parse_query(&text).expect("valid query");
                            let _ = node.execute_local(&query, *p);
                        }
                        let counters = || {
                            let store = store.read();
                            let of = |(t, p): (Arc<str>, u32)| {
                                let owned = owned.contains(&(t.clone(), p));
                                store
                                    .partition(&t, p)
                                    .map(|d| (t, p, owned, d.hotness_snapshot()))
                            };
                            store.keys().into_iter().filter_map(of).collect::<Vec<_>>()
                        };
                        let mut want = counters();
                        for (_, _, owned, snapshot) in &mut want {
                            if *owned {
                                snapshot.iter_mut().for_each(|counter| counter.1 /= 2);
                            }
                        }
                        node.decay_pass();
                        assert_eq!(counters(), want, "{op:?}");
                    }
                    NodeOp::Monitor => monitor(&mut node, op),
                    NodeOp::AddShard(pick, migrating) => {
                        let Some(s) = shard(pick) else { continue };
                        let reason = match migrating {
                            true => AddShardReason::LiveMigration,
                            false => AddShardReason::NewAllocation,
                        };
                        let _ = node.add_shard(ctx(s, reason));
                    }
                    NodeOp::DropShard(pick) => {
                        let Some(s) = shard(pick) else { continue };
                        let _ = node.drop_shard(ctx(s, AddShardReason::NewAllocation));
                    }
                    NodeOp::CopyComplete(pick) => {
                        let Some(s) = shard(pick) else { continue };
                        node.on_copy_complete(ctx(s, AddShardReason::LiveMigration));
                    }
                    NodeOp::Reboot => node.reboot(),
                    NodeOp::CreateTable(partitions) => {
                        let name = format!("t{created}");
                        created += 1;
                        catalog
                            .write()
                            .create_table(
                                &name,
                                schema.clone(),
                                partitions,
                                RowMapping::Hash,
                                ShardMapping::Monotonic,
                            )
                            .expect("fresh table");
                        if created == 1 {
                            for s in catalog.read().shards_of_table(&name).expect("created") {
                                let _ = node.add_shard(ctx(s, AddShardReason::NewAllocation));
                            }
                        }
                        tables.push(name);
                    }
                    NodeOp::DropTable(pick, store_first) => {
                        let Some(name) = table(pick) else { continue };
                        let drop_from_catalog = || {
                            catalog.write().drop_table(&name).expect("live table");
                        };
                        match store_first {
                            true => store.write().drop_table(&name),
                            false => drop_from_catalog(),
                        }
                        observe(&node, &("half dropped", op));
                        monitor(&mut node, &("half dropped", op));
                        match store_first {
                            true => drop_from_catalog(),
                            false => store.write().drop_table(&name),
                        }
                        tables.retain(|t| *t != name);
                    }
                    NodeOp::Repartition(pick, grow) => {
                        let Some(name) = table(pick) else { continue };
                        let old = catalog.read().get(&name).expect("live table").clone();
                        let partitions = match grow {
                            true => (old.partitions * 2).min(32),
                            false => (old.partitions / 2).max(1),
                        };
                        catalog
                            .write()
                            .set_partitions(&name, partitions)
                            .expect("in range");
                        observe(&node, &("set_partitions", op));
                        monitor(&mut node, &("set_partitions", op));
                        let new = catalog.read().get(&name).expect("live table").clone();
                        let stored = cubrick::repartition::stored_rows(&store.read(), &old);
                        let routed = new.route_rows(&stored, || rng.next_u64());
                        cubrick::repartition::reshuffle(&mut store.write(), &new, &routed)
                            .expect("rows a partition stored");
                    }
                }
                observe(&node, op);
            }
        },
    );
}
