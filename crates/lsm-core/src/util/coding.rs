//! Integer coding primitives: fixed-width little-endian and LEB128-style
//! varints, the same wire formats LevelDB uses throughout its files.

/// Appends a little-endian u32.
pub(crate) fn put_fixed32(dst: &mut Vec<u8>, v: u32) {
    dst.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian u64.
pub(crate) fn put_fixed64(dst: &mut Vec<u8>, v: u64) {
    dst.extend_from_slice(&v.to_le_bytes());
}

/// Decodes a little-endian u32 from the first 4 bytes of `src`.
pub(crate) fn decode_fixed32(src: &[u8]) -> u32 {
    u32::from_le_bytes(src[..4].try_into().expect("4 bytes"))
}

/// Decodes a little-endian u64 from the first 8 bytes of `src`.
pub(crate) fn decode_fixed64(src: &[u8]) -> u64 {
    u64::from_le_bytes(src[..8].try_into().expect("8 bytes"))
}

/// Appends a varint-encoded u32 (1-5 bytes).
pub(crate) fn put_varint32(dst: &mut Vec<u8>, v: u32) {
    put_varint64(dst, v as u64);
}

/// Appends a varint-encoded u64 (1-10 bytes).
pub fn put_varint64(dst: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        dst.push((v as u8) | 0x80);
        v >>= 7;
    }
    dst.push(v as u8);
}

/// Decodes a varint u64 from the front of `src`, returning the value and
/// the number of bytes consumed, or `None` on truncation/overflow.
pub fn get_varint64(src: &[u8]) -> Option<(u64, usize)> {
    let mut result: u64 = 0;
    for (i, &byte) in src.iter().enumerate().take(10) {
        result |= u64::from(byte & 0x7f) << (7 * i);
        if byte < 0x80 {
            // Reject non-canonical 10th bytes that would overflow.
            if i == 9 && byte > 1 {
                return None;
            }
            return Some((result, i + 1));
        }
    }
    None
}

/// Decodes a varint u32 from the front of `src`.
pub(crate) fn get_varint32(src: &[u8]) -> Option<(u32, usize)> {
    let (v, n) = get_varint64(src)?;
    u32::try_from(v).ok().map(|v| (v, n))
}

/// Appends a length-prefixed byte slice (varint length + bytes).
pub(crate) fn put_length_prefixed(dst: &mut Vec<u8>, slice: &[u8]) {
    put_varint64(dst, slice.len() as u64);
    dst.extend_from_slice(slice);
}

/// Reads a length-prefixed slice from the front of `src`, returning the
/// slice and total bytes consumed.
pub(crate) fn get_length_prefixed(src: &[u8]) -> Option<(&[u8], usize)> {
    let (len, n) = get_varint64(src)?;
    let len = usize::try_from(len).ok()?;
    let end = n.checked_add(len)?;
    if end > src.len() {
        return None;
    }
    Some((&src[n..end], end))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of bytes `put_varint64` should emit for `v`.
    fn varint_length(v: u64) -> usize {
        let bits = 64 - v.max(1).leading_zeros() as usize;
        bits.div_ceil(7).max(1)
    }

    #[test]
    fn fixed_roundtrip() {
        let mut buf = Vec::new();
        put_fixed32(&mut buf, 0xDEADBEEF);
        put_fixed64(&mut buf, 0x0123456789ABCDEF);
        assert_eq!(decode_fixed32(&buf), 0xDEADBEEF);
        assert_eq!(decode_fixed64(&buf[4..]), 0x0123456789ABCDEF);
    }

    #[test]
    fn varint_roundtrip_edge_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            16383,
            16384,
            (1 << 32) - 1,
            1 << 32,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint64(&mut buf, v);
            let (back, n) = get_varint64(&buf).unwrap();
            assert_eq!(back, v);
            assert_eq!(n, buf.len());
            assert_eq!(n, varint_length(v));
        }
    }

    #[test]
    fn varint_truncated() {
        let mut buf = Vec::new();
        put_varint64(&mut buf, u64::MAX);
        assert!(get_varint64(&buf[..buf.len() - 1]).is_none());
        assert!(get_varint64(&[]).is_none());
    }

    #[test]
    fn varint_overflow_rejected() {
        // 10 continuation bytes with a large final byte overflow u64.
        let bad = [0xFFu8; 10];
        assert!(get_varint64(&bad).is_none());
    }

    #[test]
    fn varint32_rejects_too_large() {
        let mut buf = Vec::new();
        put_varint64(&mut buf, u64::from(u32::MAX) + 1);
        assert!(get_varint32(&buf).is_none());
    }

    #[test]
    fn length_prefixed_roundtrip() {
        let mut buf = Vec::new();
        put_length_prefixed(&mut buf, b"hello");
        put_length_prefixed(&mut buf, b"");
        let (s1, n1) = get_length_prefixed(&buf).unwrap();
        assert_eq!(s1, b"hello");
        let (s2, n2) = get_length_prefixed(&buf[n1..]).unwrap();
        assert_eq!(s2, b"");
        assert_eq!(n1 + n2, buf.len());
    }

    #[test]
    fn length_prefixed_truncated() {
        let mut buf = Vec::new();
        put_length_prefixed(&mut buf, b"hello");
        assert!(get_length_prefixed(&buf[..3]).is_none());
    }
}
