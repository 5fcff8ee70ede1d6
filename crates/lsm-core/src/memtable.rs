//! The memtable: an arena-backed skiplist keyed by internal key, exactly
//! LevelDB's write-buffer design. Writes are batched here and flushed to
//! an L0 SSTable when the buffer exceeds `write_buffer_size` (step (2) and
//! (3) of the paper's Fig. 1).
//!
//! Entries are stored once in a bump arena as
//! `varint(ikey_len) | internal_key | varint(value_len) | value`;
//! skiplist nodes only carry arena offsets, so memory accounting is exact
//! and inserts never move data.

use crate::iterator::InternalIterator;
use crate::types::{self, internal_compare, SequenceNumber, ValueType};
use crate::util::coding::{get_varint64, put_varint64};
use crate::util::rng::XorShift64;
use std::cmp::Ordering;

const MAX_HEIGHT: usize = 12;
const BRANCHING: u64 = 4;
const NIL: u32 = u32::MAX;

#[derive(Debug)]
struct Node {
    /// Arena offset of the encoded entry.
    entry: u32,
    /// Forward links, one per level up to the node's height; levels above
    /// the node's height stay `NIL` and are never linked.
    next: [u32; MAX_HEIGHT],
}

/// The memtable.
#[derive(Debug)]
pub struct MemTable {
    arena: Vec<u8>,
    nodes: Vec<Node>,
    max_height: usize,
    rng: XorShift64,
    entries: usize,
}

/// Parsed view of one arena entry.
struct Entry<'a> {
    ikey: &'a [u8],
    value: &'a [u8],
}

fn parse_entry(arena: &[u8], off: u32) -> Entry<'_> {
    let s = &arena[off as usize..];
    let (klen, n1) = get_varint64(s).expect("arena entry klen");
    let ikey = &s[n1..n1 + klen as usize];
    let rest = &s[n1 + klen as usize..];
    let (vlen, n2) = get_varint64(rest).expect("arena entry vlen");
    let value = &rest[n2..n2 + vlen as usize];
    Entry { ikey, value }
}

impl MemTable {
    /// Creates an empty memtable; `seed` drives skiplist height choices
    /// (kept deterministic for reproducible figure regeneration).
    pub fn new(seed: u64) -> Self {
        let head = Node {
            entry: 0,
            next: [NIL; MAX_HEIGHT],
        };
        MemTable {
            arena: Vec::with_capacity(1 << 16),
            nodes: vec![head],
            max_height: 1,
            rng: XorShift64::new(seed),
            entries: 0,
        }
    }

    /// Number of entries added.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Whether the memtable holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Approximate memory used by entries (the flush trigger input).
    pub(crate) fn approximate_memory_usage(&self) -> usize {
        self.arena.len() + self.nodes.len() * std::mem::size_of::<Node>()
    }

    fn random_height(&mut self) -> usize {
        let mut h = 1;
        while h < MAX_HEIGHT && self.rng.one_in(BRANCHING) {
            h += 1;
        }
        h
    }

    fn node_key(&self, idx: u32) -> &[u8] {
        parse_entry(&self.arena, self.nodes[idx as usize].entry).ikey
    }

    /// Index of the first node with key >= `ikey`, filling `prev` with the
    /// rightmost node before it at each level.
    fn find_greater_or_equal(&self, ikey: &[u8], mut prev: Option<&mut [u32; MAX_HEIGHT]>) -> u32 {
        let mut x: u32 = 0; // head
        let mut level = self.max_height - 1;
        loop {
            let nxt = self.nodes[x as usize].next[level];
            let advance =
                nxt != NIL && internal_compare(self.node_key(nxt), ikey) == Ordering::Less;
            if advance {
                x = nxt;
            } else {
                if let Some(prev) = prev.as_deref_mut() {
                    prev[level] = x;
                }
                if level == 0 {
                    return nxt;
                }
                level -= 1;
            }
        }
    }

    /// Inserts an entry. Keys are (user_key, seq) pairs, which the caller
    /// guarantees unique (sequence numbers never repeat).
    pub fn add(&mut self, seq: SequenceNumber, ty: ValueType, user_key: &[u8], value: &[u8]) {
        let mut ikey = Vec::with_capacity(user_key.len() + 8);
        types::append_internal_key(&mut ikey, user_key, seq, ty);

        let entry_off = self.arena.len() as u32;
        put_varint64(&mut self.arena, ikey.len() as u64);
        self.arena.extend_from_slice(&ikey);
        put_varint64(&mut self.arena, value.len() as u64);
        self.arena.extend_from_slice(value);

        let mut prev = [0u32; MAX_HEIGHT];
        let _ = self.find_greater_or_equal(&ikey, Some(&mut prev));
        let height = self.random_height();
        if height > self.max_height {
            for p in prev.iter_mut().take(height).skip(self.max_height) {
                *p = 0;
            }
            self.max_height = height;
        }
        let new_idx = self.nodes.len() as u32;
        let mut node = Node {
            entry: entry_off,
            next: [NIL; MAX_HEIGHT],
        };
        for (level, &p) in prev.iter().enumerate().take(height) {
            node.next[level] = self.nodes[p as usize].next[level];
        }
        self.nodes.push(node);
        for (level, &p) in prev.iter().enumerate().take(height) {
            self.nodes[p as usize].next[level] = new_idx;
        }
        self.entries += 1;
    }

    /// Point lookup at `snapshot`:
    /// * `None` — the key is not in this memtable,
    /// * `Some(None)` — a tombstone shadows it,
    /// * `Some(Some(v))` — the newest visible value.
    pub fn get(&self, user_key: &[u8], snapshot: SequenceNumber) -> Option<Option<Vec<u8>>> {
        let lk = types::lookup_key(user_key, snapshot);
        let idx = self.find_greater_or_equal(&lk, None);
        if idx == NIL {
            return None;
        }
        let entry = parse_entry(&self.arena, self.nodes[idx as usize].entry);
        if types::user_key(entry.ikey) != user_key {
            return None;
        }
        match types::parse_trailer(entry.ikey).1 {
            ValueType::Value => Some(Some(entry.value.to_vec())),
            ValueType::Deletion => Some(None),
        }
    }

    /// Iterator over the memtable in internal-key order.
    pub fn iter(&self) -> MemTableIterator<'_> {
        MemTableIterator {
            mem: self,
            node: NIL,
        }
    }
}

/// Iterator over a memtable.
#[derive(Debug)]
pub struct MemTableIterator<'a> {
    mem: &'a MemTable,
    node: u32,
}

impl<'a> InternalIterator for MemTableIterator<'a> {
    fn valid(&self) -> bool {
        self.node != NIL
    }

    fn seek_to_first(&mut self) {
        self.node = self.mem.nodes[0].next[0];
    }

    fn seek(&mut self, target: &[u8]) {
        self.node = self.mem.find_greater_or_equal(target, None);
    }

    fn next(&mut self) {
        debug_assert!(self.valid());
        self.node = self.mem.nodes[self.node as usize].next[0];
    }

    fn key(&self) -> &[u8] {
        parse_entry(&self.mem.arena, self.mem.nodes[self.node as usize].entry).ikey
    }

    fn value(&self) -> &[u8] {
        parse_entry(&self.mem.arena, self.mem.nodes[self.node as usize].entry).value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mt() -> MemTable {
        MemTable::new(42)
    }

    #[test]
    fn empty_lookup() {
        let m = mt();
        assert!(m.is_empty());
        assert_eq!(m.get(b"missing", u64::MAX >> 8), None);
    }

    #[test]
    fn add_get() {
        let mut m = mt();
        m.add(1, ValueType::Value, b"alpha", b"one");
        m.add(2, ValueType::Value, b"beta", b"two");
        assert_eq!(m.get(b"alpha", 100), Some(Some(b"one".to_vec())));
        assert_eq!(m.get(b"beta", 100), Some(Some(b"two".to_vec())));
        assert_eq!(m.get(b"gamma", 100), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn newer_version_shadows() {
        let mut m = mt();
        m.add(1, ValueType::Value, b"k", b"v1");
        m.add(5, ValueType::Value, b"k", b"v5");
        assert_eq!(m.get(b"k", 100), Some(Some(b"v5".to_vec())));
        // Snapshot reads see the old version.
        assert_eq!(m.get(b"k", 1), Some(Some(b"v1".to_vec())));
        // A snapshot before any write sees nothing.
        assert_eq!(m.get(b"k", 0), None);
    }

    #[test]
    fn tombstone_shadows() {
        let mut m = mt();
        m.add(1, ValueType::Value, b"k", b"v");
        m.add(2, ValueType::Deletion, b"k", b"");
        assert_eq!(m.get(b"k", 100), Some(None));
        assert_eq!(m.get(b"k", 1), Some(Some(b"v".to_vec())));
    }

    #[test]
    fn iteration_is_sorted() {
        let mut m = mt();
        let keys = [b"delta" as &[u8], b"alpha", b"echo", b"bravo", b"charlie"];
        for (i, k) in keys.iter().enumerate() {
            m.add(i as u64 + 1, ValueType::Value, k, b"v");
        }
        let mut it = m.iter();
        it.seek_to_first();
        let mut got = Vec::new();
        while it.valid() {
            got.push(types::user_key(it.key()).to_vec());
            it.next();
        }
        let mut expected: Vec<Vec<u8>> = keys.iter().map(|k| k.to_vec()).collect();
        expected.sort();
        assert_eq!(got, expected);
    }

    #[test]
    fn iterator_seek() {
        let mut m = mt();
        for i in 0..100u64 {
            m.add(
                i + 1,
                ValueType::Value,
                format!("key{i:03}").as_bytes(),
                b"v",
            );
        }
        let mut it = m.iter();
        it.seek(&types::lookup_key(b"key050", u64::MAX >> 8));
        assert!(it.valid());
        assert_eq!(types::user_key(it.key()), b"key050");
        it.seek(&types::lookup_key(b"zzz", u64::MAX >> 8));
        assert!(!it.valid());
    }

    #[test]
    fn large_insert_sorted_and_complete() {
        let mut m = mt();
        let n = 10_000u64;
        // Insert in a scrambled order.
        for i in 0..n {
            let k = (i * 2654435761) % n;
            m.add(
                i + 1,
                ValueType::Value,
                format!("{k:08}").as_bytes(),
                &k.to_le_bytes(),
            );
        }
        let mut it = m.iter();
        it.seek_to_first();
        let mut count = 0;
        let mut last: Option<Vec<u8>> = None;
        while it.valid() {
            let k = it.key().to_vec();
            if let Some(l) = &last {
                assert_eq!(internal_compare(l, &k), Ordering::Less);
            }
            last = Some(k);
            count += 1;
            it.next();
        }
        assert_eq!(count, n as usize);
        assert!(m.approximate_memory_usage() > 0);
    }

    #[test]
    fn memory_usage_grows() {
        let mut m = mt();
        let before = m.approximate_memory_usage();
        m.add(1, ValueType::Value, b"key", &vec![0u8; 1000]);
        assert!(m.approximate_memory_usage() >= before + 1000);
    }
}
