//! Core types of the LSM engine: sequence numbers, value types and the
//! *internal key* encoding (user key + 8-byte trailer packing the
//! sequence number and the value type), identical in spirit to LevelDB's.

use crate::util::coding::{decode_fixed64, put_fixed64};
use std::cmp::Ordering;

/// Identifies a file (SSTable or log) within one database instance.
pub type FileId = u64;

/// Monotonically increasing per-write sequence number (56 bits usable).
pub type SequenceNumber = u64;

/// Largest representable sequence number.
pub const MAX_SEQUENCE: SequenceNumber = (1 << 56) - 1;

/// Kind of an entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ValueType {
    /// A tombstone.
    Deletion = 0,
    /// A regular value.
    Value = 1,
}

impl ValueType {
    /// Decodes from the trailer's low byte.
    pub fn from_u8(v: u8) -> Option<ValueType> {
        match v {
            0 => Some(ValueType::Deletion),
            1 => Some(ValueType::Value),
            _ => None,
        }
    }
}

/// Packs sequence and type into the 8-byte trailer value.
pub fn pack_seq_type(seq: SequenceNumber, ty: ValueType) -> u64 {
    debug_assert!(seq <= MAX_SEQUENCE);
    (seq << 8) | ty as u64
}

/// Appends `user_key` plus the packed trailer to `dst`.
pub fn append_internal_key(dst: &mut Vec<u8>, user_key: &[u8], seq: SequenceNumber, ty: ValueType) {
    dst.extend_from_slice(user_key);
    put_fixed64(dst, pack_seq_type(seq, ty));
}

/// Builds an internal key as a fresh vector.
pub fn make_internal_key(user_key: &[u8], seq: SequenceNumber, ty: ValueType) -> Vec<u8> {
    let mut v = Vec::with_capacity(user_key.len() + 8);
    append_internal_key(&mut v, user_key, seq, ty);
    v
}

/// The user-key prefix of an internal key.
pub fn user_key(ikey: &[u8]) -> &[u8] {
    debug_assert!(ikey.len() >= 8);
    &ikey[..ikey.len() - 8]
}

/// Decoded trailer of an internal key. Panics on an unknown type byte —
/// only for keys the engine built itself (memtable entries); keys read
/// back from disk go through [`try_parse_trailer`].
pub fn parse_trailer(ikey: &[u8]) -> (SequenceNumber, ValueType) {
    debug_assert!(ikey.len() >= 8);
    let packed = decode_fixed64(&ikey[ikey.len() - 8..]);
    let ty = ValueType::from_u8((packed & 0xFF) as u8).expect("valid value type");
    (packed >> 8, ty)
}

/// Decoded trailer of an internal key that came off the disk: an unknown
/// type byte or a short key is a corruption error, not a panic.
pub fn try_parse_trailer(ikey: &[u8]) -> crate::error::Result<(SequenceNumber, ValueType)> {
    if ikey.len() < 8 {
        return crate::error::corruption("internal key shorter than its trailer");
    }
    let packed = decode_fixed64(&ikey[ikey.len() - 8..]);
    let Some(ty) = ValueType::from_u8((packed & 0xFF) as u8) else {
        return crate::error::corruption(format!(
            "unknown value type {} in internal key",
            packed & 0xFF
        ));
    };
    Ok((packed >> 8, ty))
}

/// Orders internal keys: ascending user key, then *descending* sequence
/// (so the newest version of a key sorts first), then descending type.
pub fn internal_compare(a: &[u8], b: &[u8]) -> Ordering {
    let ua = user_key(a);
    let ub = user_key(b);
    match ua.cmp(ub) {
        Ordering::Equal => {
            let ta = decode_fixed64(&a[a.len() - 8..]);
            let tb = decode_fixed64(&b[b.len() - 8..]);
            tb.cmp(&ta)
        }
        other => other,
    }
}

/// The internal key used to *start* a lookup of `user_key` at `snapshot`:
/// it sorts before every entry of that user key with sequence <= snapshot.
pub fn lookup_key(user_key: &[u8], snapshot: SequenceNumber) -> Vec<u8> {
    make_internal_key(user_key, snapshot, ValueType::Value)
}

/// Shortens `start` in place to a key that is still `>= start` and
/// `< limit` (user-key space); used by table builders to cut index keys.
pub fn find_shortest_separator(start: &mut Vec<u8>, limit: &[u8]) {
    let min_len = start.len().min(limit.len());
    let mut diff = 0;
    while diff < min_len && start[diff] == limit[diff] {
        diff += 1;
    }
    if diff >= min_len {
        return; // one is a prefix of the other
    }
    let byte = start[diff];
    if byte < 0xFF && byte + 1 < limit[diff] {
        start[diff] = byte + 1;
        start.truncate(diff + 1);
        debug_assert!(start.as_slice() < limit);
    }
}

/// Shortens `key` in place to a short key `>= key`.
pub fn find_short_successor(key: &mut Vec<u8>) {
    for i in 0..key.len() {
        if key[i] != 0xFF {
            key[i] += 1;
            key.truncate(i + 1);
            return;
        }
    }
    // All 0xFF: leave unchanged.
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_parse_roundtrip() {
        let ik = make_internal_key(b"foo", 1234, ValueType::Value);
        assert_eq!(user_key(&ik), b"foo");
        assert_eq!(parse_trailer(&ik), (1234, ValueType::Value));
        let ik = make_internal_key(b"", MAX_SEQUENCE, ValueType::Deletion);
        assert_eq!(user_key(&ik), b"");
        assert_eq!(parse_trailer(&ik), (MAX_SEQUENCE, ValueType::Deletion));
    }

    #[test]
    fn ordering_user_key_dominates() {
        let a = make_internal_key(b"aaa", 1, ValueType::Value);
        let b = make_internal_key(b"bbb", 100, ValueType::Value);
        assert_eq!(internal_compare(&a, &b), Ordering::Less);
    }

    #[test]
    fn ordering_newer_sequence_first() {
        let newer = make_internal_key(b"k", 10, ValueType::Value);
        let older = make_internal_key(b"k", 5, ValueType::Value);
        assert_eq!(internal_compare(&newer, &older), Ordering::Less);
    }

    #[test]
    fn lookup_key_sorts_before_visible_entries() {
        let lk = lookup_key(b"k", 10);
        for seq in 0..=10 {
            let e = make_internal_key(b"k", seq, ValueType::Value);
            assert_ne!(internal_compare(&lk, &e), Ordering::Greater);
        }
        let newer = make_internal_key(b"k", 11, ValueType::Value);
        assert_eq!(internal_compare(&lk, &newer), Ordering::Greater);
    }

    #[test]
    fn shortest_separator() {
        // ('o' + 1 = 'p') < 'z': shortened to "fp".
        let mut s = b"foo".to_vec();
        find_shortest_separator(&mut s, b"fz");
        assert_eq!(s, b"fp");

        // 'o' + 1 == 'p' == limit byte: cannot shorten.
        let mut s = b"helloworld".to_vec();
        find_shortest_separator(&mut s, b"hellp");
        assert_eq!(s, b"helloworld");

        // Prefix case: unchanged.
        let mut s = b"abc".to_vec();
        find_shortest_separator(&mut s, b"abcdef");
        assert_eq!(s, b"abc");
    }

    #[test]
    fn short_successor() {
        let mut k = b"abc".to_vec();
        find_short_successor(&mut k);
        assert_eq!(k, b"b");
        let mut k = vec![0xFF, 0xFF];
        find_short_successor(&mut k);
        assert_eq!(k, vec![0xFF, 0xFF]);
        let mut k = vec![0xFF, 0x01];
        find_short_successor(&mut k);
        assert_eq!(k, vec![0xFF, 0x02]);
    }
}
