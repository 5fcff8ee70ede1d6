//! SSTable data/index blocks with LevelDB's prefix-compressed entry
//! format and restart points:
//!
//! ```text
//! entry*   : varint(shared) varint(non_shared) varint(value_len)
//!            key_delta[non_shared] value[value_len]
//! restarts : fixed32 * num_restarts
//! trailer  : fixed32 num_restarts
//! ```

use crate::error::{corruption, Result};
use crate::iterator::InternalIterator;
use crate::types::internal_compare;
use crate::util::coding::{decode_fixed32, get_varint32, put_fixed32, put_varint32};
use std::cmp::Ordering;
use std::sync::Arc;

/// Builds one block.
#[derive(Debug)]
pub struct BlockBuilder {
    buf: Vec<u8>,
    restarts: Vec<u32>,
    counter: usize,
    restart_interval: usize,
    last_key: Vec<u8>,
    entries: usize,
}

impl BlockBuilder {
    /// Creates a builder with a restart point every `restart_interval`
    /// entries (LevelDB default: 16).
    pub fn new(restart_interval: usize) -> Self {
        BlockBuilder {
            buf: Vec::new(),
            restarts: vec![0],
            counter: 0,
            restart_interval: restart_interval.max(1),
            last_key: Vec::new(),
            entries: 0,
        }
    }

    /// Adds an entry; keys must arrive in strictly increasing order.
    pub fn add(&mut self, key: &[u8], value: &[u8]) {
        debug_assert!(
            self.entries == 0 || internal_compare(&self.last_key, key) == Ordering::Less,
            "keys must be added in order"
        );
        let shared = if self.counter < self.restart_interval {
            self.last_key
                .iter()
                .zip(key.iter())
                .take_while(|(a, b)| a == b)
                .count()
        } else {
            self.restarts.push(self.buf.len() as u32);
            self.counter = 0;
            0
        };
        put_varint32(&mut self.buf, shared as u32);
        put_varint32(&mut self.buf, (key.len() - shared) as u32);
        put_varint32(&mut self.buf, value.len() as u32);
        self.buf.extend_from_slice(&key[shared..]);
        self.buf.extend_from_slice(value);
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        self.counter += 1;
        self.entries += 1;
    }

    /// Serialises the block (entries + restart array + count).
    pub fn finish(mut self) -> Vec<u8> {
        self.seal();
        self.buf
    }

    /// Appends the restart array and count and returns the finished
    /// block's bytes, which stay in the builder until [`Self::reset`] —
    /// a table builder seals, copies the bytes out once, and resets, so
    /// one allocation serves every block of the table.
    pub(crate) fn seal(&mut self) -> &[u8] {
        for &r in &self.restarts {
            put_fixed32(&mut self.buf, r);
        }
        put_fixed32(&mut self.buf, self.restarts.len() as u32);
        &self.buf
    }

    /// Empties the builder for the next block, keeping its allocations.
    pub(crate) fn reset(&mut self) {
        self.buf.clear();
        self.restarts.clear();
        self.restarts.push(0);
        self.counter = 0;
        self.last_key.clear();
        self.entries = 0;
    }

    /// Bytes the finished block would occupy.
    pub(crate) fn current_size_estimate(&self) -> usize {
        self.buf.len() + self.restarts.len() * 4 + 4
    }

    /// Entries added so far.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Whether no entries were added.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }
}

/// An immutable, parsed block. Owns the buffer the device read filled:
/// the block cache and every iterator share the block, never its bytes.
#[derive(Debug)]
pub struct Block {
    data: Vec<u8>,
    restarts_offset: usize,
    num_restarts: usize,
}

impl Block {
    /// Parses block contents (without the table-level CRC trailer).
    pub fn new(data: Vec<u8>) -> Result<Self> {
        if data.len() < 4 {
            return corruption("block too small");
        }
        let num_restarts = decode_fixed32(&data[data.len() - 4..]) as usize;
        let max_restarts = (data.len().saturating_sub(4)) / 4;
        if num_restarts == 0 || num_restarts > max_restarts {
            return corruption("bad restart count");
        }
        let restarts_offset = data.len() - 4 - num_restarts * 4;
        Ok(Block {
            data,
            restarts_offset,
            num_restarts,
        })
    }

    /// Size of the underlying buffer.
    pub fn size(&self) -> usize {
        self.data.len()
    }

    fn restart_point(&self, i: usize) -> usize {
        decode_fixed32(&self.data[self.restarts_offset + i * 4..]) as usize
    }

    /// An iterator over the block.
    pub fn iter(self: &Arc<Self>) -> BlockIter {
        BlockIter {
            block: Arc::clone(self),
            offset: usize::MAX,
            key: Vec::new(),
            value_range: (0, 0),
            next_offset: 0,
        }
    }
}

/// Iterator over one block.
#[derive(Debug)]
pub struct BlockIter {
    block: Arc<Block>,
    /// Offset of the current entry; `usize::MAX` = invalid.
    offset: usize,
    key: Vec<u8>,
    value_range: (usize, usize),
    next_offset: usize,
}

impl BlockIter {
    fn data(&self) -> &[u8] {
        &self.block.data
    }

    /// Parses the entry at `self.next_offset`; the current `self.key` must
    /// be the previous entry's key (or the restart base). Returns false at
    /// the end of entries or on corruption.
    fn parse_next(&mut self) -> bool {
        let off = self.next_offset;
        if off >= self.block.restarts_offset {
            self.offset = usize::MAX;
            return false;
        }
        let data = &self.block.data[off..self.block.restarts_offset];
        let Some((shared, n1)) = get_varint32(data) else {
            self.offset = usize::MAX;
            return false;
        };
        let Some((non_shared, n2)) = get_varint32(&data[n1..]) else {
            self.offset = usize::MAX;
            return false;
        };
        let Some((vlen, n3)) = get_varint32(&data[n1 + n2..]) else {
            self.offset = usize::MAX;
            return false;
        };
        let hdr = n1 + n2 + n3;
        let (shared, non_shared, vlen) = (shared as usize, non_shared as usize, vlen as usize);
        if shared > self.key.len() || hdr + non_shared + vlen > data.len() {
            self.offset = usize::MAX;
            return false;
        }
        self.key.truncate(shared);
        self.key.extend_from_slice(&data[hdr..hdr + non_shared]);
        let vstart = off + hdr + non_shared;
        self.value_range = (vstart, vstart + vlen);
        self.offset = off;
        self.next_offset = vstart + vlen;
        true
    }

    fn seek_to_restart(&mut self, i: usize) {
        self.key.clear();
        self.next_offset = self.block.restart_point(i);
        self.offset = usize::MAX;
    }
}

impl InternalIterator for BlockIter {
    fn valid(&self) -> bool {
        self.offset != usize::MAX
    }

    fn seek_to_first(&mut self) {
        self.seek_to_restart(0);
        self.parse_next();
    }

    fn seek(&mut self, target: &[u8]) {
        // Binary search over restart points: find the last restart whose
        // first key is < target.
        let mut left = 0usize;
        let mut right = self.block.num_restarts - 1;
        while left < right {
            let mid = (left + right).div_ceil(2);
            self.seek_to_restart(mid);
            if !self.parse_next() {
                // Corrupt entry: fall back to a full scan from the start.
                left = 0;
                break;
            }
            if internal_compare(&self.key, target) == Ordering::Less {
                left = mid;
            } else {
                right = mid - 1;
            }
        }
        self.seek_to_restart(left);
        while self.parse_next() {
            if internal_compare(&self.key, target) != Ordering::Less {
                return;
            }
        }
    }

    fn next(&mut self) {
        debug_assert!(self.valid());
        self.parse_next();
    }

    fn key(&self) -> &[u8] {
        debug_assert!(self.valid());
        &self.key
    }

    fn value(&self) -> &[u8] {
        debug_assert!(self.valid());
        &self.data()[self.value_range.0..self.value_range.1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{make_internal_key, user_key, ValueType};

    fn ik(k: &str) -> Vec<u8> {
        make_internal_key(k.as_bytes(), 1, ValueType::Value)
    }

    fn build(keys: &[&str]) -> Arc<Block> {
        let mut b = BlockBuilder::new(3);
        for k in keys {
            b.add(&ik(k), format!("val-{k}").as_bytes());
        }
        Arc::new(Block::new(b.finish()).unwrap())
    }

    #[test]
    fn empty_block_rejected() {
        assert!(Block::new(vec![]).is_err());
        assert!(Block::new(vec![0, 0, 0, 0]).is_err()); // zero restarts
    }

    #[test]
    fn iterate_all() {
        let keys = ["apple", "banana", "cherry", "date", "elderberry", "fig"];
        let block = build(&keys);
        let mut it = block.iter();
        it.seek_to_first();
        for k in keys {
            assert!(it.valid());
            assert_eq!(user_key(it.key()), k.as_bytes());
            assert_eq!(it.value(), format!("val-{k}").as_bytes());
            it.next();
        }
        assert!(!it.valid());
    }

    #[test]
    fn prefix_compression_shrinks() {
        let mut with_prefix = BlockBuilder::new(16);
        let mut unrelated = BlockBuilder::new(16);
        for i in 0..100 {
            with_prefix.add(&ik(&format!("commonprefix{i:03}")), b"v");
            unrelated.add(&ik(&format!("{i:03}zzzzzzzzzzzz")), b"v");
        }
        assert!(with_prefix.finish().len() < unrelated.finish().len());
    }

    #[test]
    fn seek_hits_and_between() {
        let keys = ["b", "d", "f", "h", "j", "l", "n", "p"];
        let block = build(&keys);
        let mut it = block.iter();
        // Exact hit.
        it.seek(&ik("f"));
        assert_eq!(user_key(it.key()), b"f");
        // Between keys: lands on the next.
        it.seek(&ik("g"));
        assert_eq!(user_key(it.key()), b"h");
        // Before the first.
        it.seek(&ik("a"));
        assert_eq!(user_key(it.key()), b"b");
        // Past the last.
        it.seek(&ik("z"));
        assert!(!it.valid());
    }

    #[test]
    fn seek_across_restart_boundaries() {
        let keys: Vec<String> = (0..50).map(|i| format!("key{i:04}")).collect();
        let mut b = BlockBuilder::new(4);
        for k in &keys {
            b.add(&ik(k), k.as_bytes());
        }
        let block = Arc::new(Block::new(b.finish()).unwrap());
        for k in &keys {
            let mut it = block.iter();
            it.seek(&make_internal_key(
                k.as_bytes(),
                u64::MAX >> 8,
                ValueType::Value,
            ));
            assert!(it.valid(), "seek {k}");
            assert_eq!(user_key(it.key()), k.as_bytes());
        }
    }

    #[test]
    fn single_entry_block() {
        let block = build(&["only"]);
        let mut it = block.iter();
        it.seek_to_first();
        assert_eq!(user_key(it.key()), b"only");
        it.next();
        assert!(!it.valid());
    }

    #[test]
    fn reset_builder_matches_a_fresh_one() {
        let mut reused = BlockBuilder::new(3);
        for k in ["zebra", "zoo", "zulu", "zygote"] {
            reused.add(&ik(k), b"first block");
        }
        reused.seal();
        reused.reset();
        assert!(reused.is_empty());
        let mut fresh = BlockBuilder::new(3);
        // Shares a prefix with the last key before the reset: the first
        // entry after it must still be written whole.
        for k in ["zygote2", "zygote3"] {
            reused.add(&ik(k), b"second");
            fresh.add(&ik(k), b"second");
        }
        assert_eq!(
            reused.current_size_estimate(),
            fresh.current_size_estimate()
        );
        assert_eq!(reused.seal(), fresh.finish());
    }

    #[test]
    fn size_estimate_matches() {
        let mut b = BlockBuilder::new(16);
        for i in 0..20 {
            b.add(&ik(&format!("k{i:02}")), b"value");
        }
        let est = b.current_size_estimate();
        let actual = b.finish().len();
        assert_eq!(est, actual);
    }
}
