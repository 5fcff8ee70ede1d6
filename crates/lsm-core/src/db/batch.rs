//! Write batches: the unit of WAL logging and memtable application, using
//! LevelDB's wire format — `sequence(8) | count(4) | records`, where each
//! record is `type(1) | key | [value]` with length-prefixed slices.

use crate::error::{corruption, Result};
use crate::types::{SequenceNumber, ValueType, MAX_SEQUENCE};
use crate::util::coding::{
    decode_fixed32, decode_fixed64, get_length_prefixed, put_length_prefixed,
};
use std::ops::Range;

const HEADER: usize = 12;

/// A batch of writes applied atomically.
#[derive(Clone, Debug)]
pub struct WriteBatch {
    rep: Vec<u8>,
    payload: u64,
}

impl WriteBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        WriteBatch {
            rep: vec![0; HEADER],
            payload: 0,
        }
    }

    /// Adds a put.
    pub fn put(&mut self, key: &[u8], value: &[u8]) {
        self.set_count(self.count() + 1);
        self.rep.push(ValueType::Value as u8);
        put_length_prefixed(&mut self.rep, key);
        put_length_prefixed(&mut self.rep, value);
        self.payload += (key.len() + value.len()) as u64;
    }

    /// Adds a deletion.
    pub fn delete(&mut self, key: &[u8]) {
        self.set_count(self.count() + 1);
        self.rep.push(ValueType::Deletion as u8);
        put_length_prefixed(&mut self.rep, key);
        self.payload += key.len() as u64;
    }

    /// Number of operations in the batch.
    pub fn count(&self) -> u32 {
        decode_fixed32(&self.rep[8..12])
    }

    fn set_count(&mut self, n: u32) {
        self.rep[8..12].copy_from_slice(&n.to_le_bytes());
    }

    /// Base sequence number of the batch.
    pub(crate) fn sequence(&self) -> SequenceNumber {
        decode_fixed64(&self.rep[..8])
    }

    /// The sequence numbers the batch's records take, one each from the
    /// base (empty for an empty batch). A stamped range whose end
    /// overflows, or whose last sequence exceeds [`MAX_SEQUENCE`] — the
    /// 56 bits an internal key holds — is corruption: applying it would
    /// silently cut the sequences.
    pub fn sequence_range(&self) -> Result<Range<SequenceNumber>> {
        let first = self.sequence();
        match first.checked_add(u64::from(self.count())) {
            Some(end) if self.is_empty() || end - 1 <= MAX_SEQUENCE => Ok(first..end),
            _ => corruption(format!(
                "write batch stamps sequence {first} with {} record(s), past the last sequence number {MAX_SEQUENCE}",
                self.count()
            )),
        }
    }

    /// Stamps the base sequence number.
    pub fn set_sequence(&mut self, seq: SequenceNumber) {
        self.rep[..8].copy_from_slice(&seq.to_le_bytes());
    }

    /// Appends every record of `other` to this batch, preserving record
    /// order — LevelDB's `BuildBatchGroup` merge step. The combined batch
    /// is logged as one WAL record and receives one contiguous sequence
    /// range, so group commit amortises the positional sync cost over all
    /// merged writers.
    pub fn append(&mut self, other: &WriteBatch) {
        self.set_count(self.count() + other.count());
        self.rep.extend_from_slice(&other.rep[HEADER..]);
        self.payload += other.payload;
    }

    /// Wire-format size in bytes (group-commit size cap accounting).
    pub fn byte_size(&self) -> usize {
        self.rep.len()
    }

    /// Record bytes without the 12-byte `sequence | count` header.
    /// [`WriteBatch::append`] grows the target by exactly this much —
    /// the merged batch shares the leader's header — so group-commit cap
    /// checks must charge a follow-on batch `body_bytes`, not
    /// `byte_size`, or they refuse merges that land exactly on the cap.
    pub fn body_bytes(&self) -> usize {
        self.rep.len() - HEADER
    }

    /// User payload bytes (key + value sizes) — the paper's `WA`
    /// denominator.
    pub fn payload_bytes(&self) -> u64 {
        self.payload
    }

    /// Wire representation (for the WAL).
    pub fn rep(&self) -> &[u8] {
        &self.rep
    }

    /// Whether the batch holds no operations.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Parses a wire representation (WAL recovery).
    pub fn decode(rep: &[u8]) -> Result<WriteBatch> {
        if rep.len() < HEADER {
            return corruption("write batch shorter than header");
        }
        let batch = WriteBatch {
            rep: rep.to_vec(),
            payload: 0,
        };
        // Validate the records and recompute the payload.
        let mut payload = 0u64;
        let mut n = 0u32;
        let mut src = &batch.rep[HEADER..];
        while !src.is_empty() {
            let ty = ValueType::from_u8(src[0])
                .ok_or_else(|| crate::error::Error::Corruption("bad batch record type".into()))?;
            src = &src[1..];
            let Some((key, used)) = get_length_prefixed(src) else {
                return corruption("truncated batch key");
            };
            payload += key.len() as u64;
            src = &src[used..];
            if ty == ValueType::Value {
                let Some((value, used)) = get_length_prefixed(src) else {
                    return corruption("truncated batch value");
                };
                payload += value.len() as u64;
                src = &src[used..];
            }
            n += 1;
        }
        if n != batch.count() {
            return corruption("batch count mismatch");
        }
        Ok(WriteBatch {
            rep: batch.rep,
            payload,
        })
    }

    /// Iterates over `(sequence, type, key, value)`; deletions carry an
    /// empty value.
    pub fn iter(&self) -> BatchIter<'_> {
        BatchIter {
            src: &self.rep[HEADER..],
            seq: self.sequence(),
        }
    }
}

impl Default for WriteBatch {
    fn default() -> Self {
        Self::new()
    }
}

/// Iterator over batch records.
#[derive(Debug)]
pub struct BatchIter<'a> {
    src: &'a [u8],
    seq: SequenceNumber,
}

impl<'a> Iterator for BatchIter<'a> {
    type Item = (SequenceNumber, ValueType, &'a [u8], &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        if self.src.is_empty() {
            return None;
        }
        let ty = ValueType::from_u8(self.src[0])?;
        self.src = &self.src[1..];
        let (key, used) = get_length_prefixed(self.src)?;
        self.src = &self.src[used..];
        let value: &[u8] = if ty == ValueType::Value {
            let (v, used) = get_length_prefixed(self.src)?;
            self.src = &self.src[used..];
            v
        } else {
            &[]
        };
        let seq = self.seq;
        self.seq += 1;
        Some((seq, ty, key, value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_range_refuses_what_an_internal_key_cannot_hold() {
        let mut b = WriteBatch::new();
        b.put(b"a", b"1");
        b.put(b"b", b"2");
        b.set_sequence(MAX_SEQUENCE - 1);
        assert_eq!(
            b.sequence_range().unwrap(),
            MAX_SEQUENCE - 1..MAX_SEQUENCE + 1
        );
        for first in [MAX_SEQUENCE, u64::MAX - 1, u64::MAX] {
            b.set_sequence(first);
            assert!(b.sequence_range().is_err(), "{first}");
        }
        let mut empty = WriteBatch::new();
        empty.set_sequence(u64::MAX);
        assert!(empty.sequence_range().unwrap().is_empty());
    }

    #[test]
    fn build_and_iterate() {
        let mut b = WriteBatch::new();
        b.put(b"k1", b"v1");
        b.delete(b"k2");
        b.put(b"k3", b"v3");
        b.set_sequence(100);
        assert_eq!(b.count(), 3);
        assert_eq!(b.payload_bytes(), 2 + 2 + 2 + 2 + 2);
        let items: Vec<_> = b.iter().collect();
        assert_eq!(items.len(), 3);
        assert_eq!(items[0], (100, ValueType::Value, &b"k1"[..], &b"v1"[..]));
        assert_eq!(items[1], (101, ValueType::Deletion, &b"k2"[..], &b""[..]));
        assert_eq!(items[2], (102, ValueType::Value, &b"k3"[..], &b"v3"[..]));
    }

    #[test]
    fn decode_roundtrip() {
        let mut b = WriteBatch::new();
        b.put(b"alpha", b"1");
        b.delete(b"beta");
        b.set_sequence(7);
        let d = WriteBatch::decode(b.rep()).unwrap();
        assert_eq!(d.count(), 2);
        assert_eq!(d.sequence(), 7);
        assert_eq!(d.payload_bytes(), b.payload_bytes());
        let x: Vec<_> = b.iter().collect();
        let y: Vec<_> = d.iter().collect();
        assert_eq!(x, y);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(WriteBatch::decode(&[]).is_err());
        let mut b = WriteBatch::new();
        b.put(b"k", b"v");
        let mut rep = b.rep().to_vec();
        rep.truncate(rep.len() - 1);
        assert!(WriteBatch::decode(&rep).is_err());
        // Wrong count.
        let mut rep = b.rep().to_vec();
        rep[8] = 9;
        assert!(WriteBatch::decode(&rep).is_err());
    }

    #[test]
    fn append_merges_in_order_with_contiguous_sequences() {
        let mut leader = WriteBatch::new();
        leader.put(b"a", b"1");
        let mut w2 = WriteBatch::new();
        w2.put(b"b", b"2");
        w2.delete(b"a");
        let mut w3 = WriteBatch::new();
        w3.put(b"c", b"3");
        leader.append(&w2);
        leader.append(&w3);
        leader.set_sequence(50);
        assert_eq!(leader.count(), 4);
        assert_eq!(
            leader.payload_bytes(),
            2 + 2 + 1 + 2 // a1, b2, a, c3
        );
        // Records keep writer order and sequences are contiguous from the
        // leader's base — the group-commit invariant.
        let items: Vec<_> = leader.iter().collect();
        assert_eq!(items[0], (50, ValueType::Value, &b"a"[..], &b"1"[..]));
        assert_eq!(items[1], (51, ValueType::Value, &b"b"[..], &b"2"[..]));
        assert_eq!(items[2], (52, ValueType::Deletion, &b"a"[..], &b""[..]));
        assert_eq!(items[3], (53, ValueType::Value, &b"c"[..], &b"3"[..]));
        // The merged rep is still a valid wire batch.
        let d = WriteBatch::decode(leader.rep()).unwrap();
        assert_eq!(d.count(), 4);
        assert_eq!(d.payload_bytes(), leader.payload_bytes());
    }

    #[test]
    fn append_empty_is_noop() {
        let mut b = WriteBatch::new();
        b.put(b"k", b"v");
        let before = b.rep().to_vec();
        b.append(&WriteBatch::new());
        assert_eq!(b.rep(), &before[..]);
        assert!(b.byte_size() >= before.len());
    }

    #[test]
    fn empty_batch() {
        let b = WriteBatch::new();
        assert!(b.is_empty());
        assert_eq!(b.iter().count(), 0);
        let d = WriteBatch::decode(b.rep()).unwrap();
        assert!(d.is_empty());
    }
}
