//! LEB128 variable-length integers — the byte substrate for the other
//! codecs.

/// Append `v` as LEB128.
pub fn write_u64(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Append a `u32` as LEB128.
pub fn write_u32(out: &mut Vec<u8>, v: u32) {
    write_u64(out, v as u64);
}

/// Bytes [`write_u64`] emits for `v`: one per started group of 7 bits,
/// as `(⌊log2 v⌋ · 9 + 73) / 64` (no division; `encode_u32_auto`'s size
/// pass calls this three times a value).
pub fn len_u64(v: u64) -> usize {
    ((63 - (v | 1).leading_zeros()) * 9 + 73) as usize / 64
}

/// Read a LEB128 integer starting at `*pos`, advancing it.
///
/// Returns `None` on truncated input or overlong encodings past 64 bits.
pub fn read_u64(buf: &[u8], pos: &mut usize) -> Option<u64> {
    // A one-byte value (a small delta, a short run) skips the loop.
    if let Some(&byte) = buf.get(*pos).filter(|&&byte| byte < 0x80) {
        *pos += 1;
        return Some(u64::from(byte));
    }
    let mut result = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = buf.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None;
        }
        result |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Some(result);
        }
        shift += 7;
    }
}

/// Read a LEB128 `u32` (fails if the value exceeds `u32::MAX`).
pub fn read_u32(buf: &[u8], pos: &mut usize) -> Option<u32> {
    read_u64(buf, pos).and_then(|v| u32::try_from(v).ok())
}

/// Zig-zag encode a signed value into unsigned space.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Zig-zag decode.
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_various_magnitudes() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &values {
            write_u64(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_u64(&buf, &mut pos), Some(v));
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn truncated_input_fails() {
        let buf = vec![0x80u8]; // continuation bit set, nothing follows
        let mut pos = 0;
        assert_eq!(read_u64(&buf, &mut pos), None);
    }

    #[test]
    fn u32_overflow_detected() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u32::MAX as u64 + 1);
        let mut pos = 0;
        assert_eq!(read_u32(&buf, &mut pos), None);
    }

    #[test]
    fn len_matches_what_is_written() {
        let edges = (0..64).flat_map(|shift| [(1u64 << shift) - 1, 1 << shift]);
        for v in edges.chain([u64::MAX]) {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            assert_eq!(len_u64(v), buf.len(), "{v}");
        }
    }

    #[test]
    fn compactness() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 5);
        assert_eq!(buf.len(), 1);
        buf.clear();
        write_u64(&mut buf, 1 << 20);
        assert_eq!(buf.len(), 3);
    }

    #[test]
    fn zigzag_round_trip() {
        for v in [0i64, 1, -1, 2, -2, i64::MAX, i64::MIN, 12345, -98765] {
            assert_eq!(unzigzag(zigzag(v)), v, "{v}");
        }
        // Small magnitudes stay small.
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
    }
}
