//! Capacity-bounded LRU caches: a generic byte-charged LRU used for both
//! the block cache (data blocks by (file, offset)) and the table cache
//! (open table readers by file id). Mirrors LevelDB's two caches.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

#[derive(Debug)]
struct EntryMeta<V> {
    value: Arc<V>,
    charge: u64,
    generation: u64,
}

/// A least-recently-used cache with a byte budget. Recency is tracked with
/// a generation queue and lazy deletion, so hits are O(log n) amortised.
/// Keyed by `Ord` rather than `Hash` so iteration (and therefore any
/// exported state derived from it) has a defined order.
#[derive(Debug)]
pub struct LruCache<K: Ord + Clone, V> {
    map: BTreeMap<K, EntryMeta<V>>,
    order: VecDeque<(K, u64)>,
    capacity: u64,
    used: u64,
    next_gen: u64,
    hits: u64,
    misses: u64,
}

impl<K: Ord + Clone, V> LruCache<K, V> {
    /// Creates a cache holding up to `capacity` charged bytes.
    pub fn new(capacity: u64) -> Self {
        LruCache {
            map: BTreeMap::new(),
            order: VecDeque::new(),
            capacity,
            used: 0,
            next_gen: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn touch(&mut self, key: &K) {
        let generation = self.next_gen;
        self.next_gen += 1;
        if let Some(meta) = self.map.get_mut(key) {
            meta.generation = generation;
        }
        self.order.push_back((key.clone(), generation));
        self.maybe_compact_order();
    }

    /// Bounds the lazy-deletion queue to O(map.len()): every mutation that
    /// can leave a stale queue entry behind (touch, insert, remove) must
    /// call this, or churn below the byte budget grows `order` without
    /// bound.
    fn maybe_compact_order(&mut self) {
        if self.order.len() > 4 * (self.map.len() + 1) {
            self.compact_order();
        }
    }

    fn compact_order(&mut self) {
        let map = &self.map;
        self.order
            .retain(|(k, generation)| map.get(k).is_some_and(|m| m.generation == *generation));
    }

    /// Looks up a key, refreshing its recency.
    pub fn get(&mut self, key: &K) -> Option<Arc<V>> {
        if let Some(meta) = self.map.get(key) {
            let v = Arc::clone(&meta.value);
            self.touch(key);
            self.hits += 1;
            Some(v)
        } else {
            self.misses += 1;
            None
        }
    }

    /// Inserts a value with an explicit byte charge, evicting LRU entries
    /// to respect the budget.
    pub fn insert(&mut self, key: K, value: Arc<V>, charge: u64) {
        if let Some(old) = self.map.remove(&key) {
            self.used -= old.charge;
        }
        let generation = self.next_gen;
        self.next_gen += 1;
        self.order.push_back((key.clone(), generation));
        self.map.insert(
            key,
            EntryMeta {
                value,
                charge,
                generation,
            },
        );
        self.used += charge;
        self.evict();
        self.maybe_compact_order();
    }

    fn evict(&mut self) {
        while self.used > self.capacity && self.map.len() > 1 {
            match self.order.pop_front() {
                Some((k, generation)) => {
                    // A queue entry is authoritative only if its generation
                    // still matches the map's: that means the entry is live
                    // and this is its most recent recency record.
                    let live = self.map.get(&k).is_some_and(|m| m.generation == generation);
                    if live {
                        let meta = self.map.remove(&k).expect("entry just observed");
                        self.used -= meta.charge;
                    }
                }
                None => break,
            }
        }
    }

    /// Removes a key (e.g. when the file is deleted). The stale queue
    /// entry is reclaimed by the bounded compaction.
    pub fn remove(&mut self, key: &K) {
        if let Some(meta) = self.map.remove(key) {
            self.used -= meta.charge;
        }
        self.maybe_compact_order();
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// (hits, misses) counters.
    pub fn hit_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Drops everything, including the hit/miss counters: a cleared cache
    /// (reopen, crash restore) starts a fresh hit-ratio window, so stale
    /// counts cannot skew ratios reported after the clear.
    pub fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
        self.used = 0;
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_miss_then_hit() {
        let mut c: LruCache<u32, String> = LruCache::new(100);
        assert!(c.get(&1).is_none());
        c.insert(1, Arc::new("one".into()), 10);
        assert_eq!(*c.get(&1).unwrap(), "one");
        assert_eq!(c.hit_stats(), (1, 1));
    }

    #[test]
    fn eviction_respects_budget() {
        let mut c: LruCache<u32, u32> = LruCache::new(30);
        for i in 0..10 {
            c.insert(i, Arc::new(i), 10);
        }
        assert!(c.used <= 30);
        assert!(c.len() <= 3);
        // Newest entries survive.
        assert!(c.get(&9).is_some());
        assert!(c.get(&0).is_none());
    }

    #[test]
    fn recency_protects_hot_entries() {
        let mut c: LruCache<u32, u32> = LruCache::new(30);
        c.insert(1, Arc::new(1), 10);
        c.insert(2, Arc::new(2), 10);
        c.insert(3, Arc::new(3), 10);
        // Touch 1 so it becomes most recent.
        assert!(c.get(&1).is_some());
        c.insert(4, Arc::new(4), 10); // evicts 2, the LRU
        assert!(c.get(&1).is_some());
        assert!(c.get(&2).is_none());
        assert!(c.get(&3).is_some());
    }

    #[test]
    fn reinsert_updates_charge() {
        let mut c: LruCache<u32, u32> = LruCache::new(100);
        c.insert(1, Arc::new(1), 10);
        c.insert(1, Arc::new(2), 50);
        assert_eq!(c.used, 50);
        assert_eq!(*c.get(&1).unwrap(), 2);
    }

    #[test]
    fn remove_and_clear() {
        let mut c: LruCache<u32, u32> = LruCache::new(100);
        c.insert(1, Arc::new(1), 10);
        c.insert(2, Arc::new(2), 10);
        c.remove(&1);
        assert_eq!(c.used, 10);
        assert!(c.get(&1).is_none());
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.used, 0);
    }

    #[test]
    fn oversized_entry_keeps_at_least_one() {
        let mut c: LruCache<u32, u32> = LruCache::new(5);
        c.insert(1, Arc::new(1), 100);
        // Budget exceeded but the single entry stays usable.
        assert!(c.get(&1).is_some());
        c.insert(2, Arc::new(2), 100);
        assert!(c.get(&2).is_some());
        assert!(c.get(&1).is_none());
    }

    #[test]
    fn hit_storm_does_not_leak_order_queue() {
        let mut c: LruCache<u32, u32> = LruCache::new(100);
        c.insert(1, Arc::new(1), 10);
        for _ in 0..10_000 {
            c.get(&1);
        }
        assert!(c.order.len() < 100);
    }

    #[test]
    fn insert_remove_churn_does_not_leak_order_queue() {
        // The table-cache pattern: compactions open (insert) and delete
        // (remove) files while staying below the byte budget, so eviction
        // never runs. Pre-fix, only `touch` compacted the queue, and this
        // loop grew `order` to 20_000 entries.
        let mut c: LruCache<u32, u32> = LruCache::new(u64::MAX);
        for i in 0..10_000u32 {
            c.insert(i, Arc::new(i), 1);
            c.remove(&i);
        }
        assert!(c.is_empty());
        assert!(
            c.order.len() <= 4 * (c.map.len() + 1),
            "order queue leaked: {} entries for {} live",
            c.order.len(),
            c.map.len()
        );
    }

    #[test]
    fn clear_resets_hit_stats() {
        let mut c: LruCache<u32, u32> = LruCache::new(100);
        c.insert(1, Arc::new(1), 10);
        c.get(&1);
        c.get(&2);
        assert_eq!(c.hit_stats(), (1, 1));
        c.clear();
        // A cleared cache starts a fresh hit-ratio window.
        assert_eq!(c.hit_stats(), (0, 0));
        c.get(&1);
        assert_eq!(c.hit_stats(), (0, 1));
    }

    /// Seeded xorshift64* so the property test is deterministic without
    /// external crates (same idiom as `tests/prop_engine.rs`).
    struct XorShift64(u64);

    impl XorShift64 {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x.wrapping_mul(0x2545F4914F6CDD1D)
        }
    }

    #[test]
    fn property_order_queue_stays_linear_in_live_entries() {
        // Invariant: after every operation, order.len() <= 4*(map.len()+1)
        // + 1 slack for the entry just pushed before compaction ran.
        // Exercised under arbitrary interleavings of insert/get/remove
        // across several seeds, key ranges and budgets.
        for seed in [1u64, 0xDEADBEEF, 0x5EA1DB, 42, 7_777_777] {
            let mut rng = XorShift64(seed);
            let budget = 1 + rng.next() % 400;
            let key_space = 1 + (rng.next() % 64) as u32;
            let mut c: LruCache<u32, u32> = LruCache::new(budget);
            for step in 0..5_000u32 {
                let key = (rng.next() as u32) % key_space;
                match rng.next() % 3 {
                    0 => c.insert(key, Arc::new(step), 1 + rng.next() % 32),
                    1 => {
                        c.get(&key);
                    }
                    _ => c.remove(&key),
                }
                assert!(
                    c.order.len() <= 4 * (c.map.len() + 1),
                    "seed {seed} step {step}: order {} vs live {}",
                    c.order.len(),
                    c.map.len()
                );
                assert!(c.map.len() <= key_space as usize);
            }
        }
    }
}
