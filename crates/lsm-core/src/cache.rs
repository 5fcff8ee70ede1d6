//! Capacity-bounded caches with a byte budget, used for both the block
//! cache (data blocks by (file, offset)) and the table cache (open table
//! readers by file id) — LevelDB's two caches.
//!
//! The replacement policy is a segmented LRU (Karedla, Love & Wherry,
//! IEEE Computer 1994), not LevelDB 1.19's strict LRU. A new entry enters
//! a *probation* segment; a hit there promotes it to a *protected*
//! segment that holds at most `PROTECTED_PERCENT` (80 %) of the budget;
//! when protected overflows, its least recent entry moves back to
//! probation's most recent end; eviction always takes probation's least
//! recent entry. Without bloom filters a point read probes a block in
//! every level-0 table and in level 1 before it reaches the level that
//! holds the key, so those probe blocks are re-read by every get while
//! the deepest level's blocks are each read about once. Under strict LRU
//! the one-touch stream flushed the re-read set; under SLRU it only
//! cycles through probation (DESIGN.md §5, "Segmented block cache"). The
//! table cache uses the same type and never overflows its budget, so for
//! it the policy changes nothing.
//!
//! A deleted table's blocks are dropped with it (`remove_range`, called
//! by `context::evict_file`): a dead block in protected would otherwise
//! hold budget until enough live blocks were promoted past it.

use std::collections::{BTreeMap, VecDeque};
use std::ops::RangeBounds;
use std::sync::Arc;

/// Share of the byte budget the protected segment may hold.
const PROTECTED_PERCENT: u64 = 80;

#[derive(Debug)]
struct EntryMeta<V> {
    value: Arc<V>,
    charge: u64,
    generation: u64,
    protected: bool,
}

/// A segmented-LRU cache with a byte budget. Recency within each segment
/// is tracked with a generation queue and lazy deletion, so hits are
/// O(log n) amortised: a queue record is live only while its generation
/// matches the entry's, and generations are unique across both queues.
/// Keyed by `Ord` rather than `Hash` so iteration (and therefore any
/// exported state derived from it) has a defined order.
#[derive(Debug)]
pub struct LruCache<K: Ord + Clone, V> {
    map: BTreeMap<K, EntryMeta<V>>,
    probation: VecDeque<(K, u64)>,
    protected: VecDeque<(K, u64)>,
    capacity: u64,
    used: u64,
    protected_used: u64,
    next_gen: u64,
    hits: u64,
    misses: u64,
    promotions: u64,
    purged: u64,
}

impl<K: Ord + Clone, V> LruCache<K, V> {
    /// Creates a cache holding up to `capacity` charged bytes.
    pub fn new(capacity: u64) -> Self {
        LruCache {
            map: BTreeMap::new(),
            probation: VecDeque::new(),
            protected: VecDeque::new(),
            capacity,
            used: 0,
            protected_used: 0,
            next_gen: 0,
            hits: 0,
            misses: 0,
            promotions: 0,
            purged: 0,
        }
    }

    /// Gives `key` a fresh generation and records it at the most recent
    /// end of the segment its entry is in.
    fn touch(&mut self, key: &K) {
        let generation = self.next_gen;
        self.next_gen += 1;
        let Some(meta) = self.map.get_mut(key) else {
            return;
        };
        meta.generation = generation;
        let queue = if meta.protected {
            &mut self.protected
        } else {
            &mut self.probation
        };
        queue.push_back((key.clone(), generation));
    }

    /// Bounds the lazy-deletion queues to O(map.len()): every mutation
    /// that can leave a stale queue record behind (touch, insert, remove,
    /// demotion) must call this, or churn below the byte budget grows the
    /// queues without bound.
    fn maybe_compact_order(&mut self) {
        if self.probation.len() + self.protected.len() > 4 * (self.map.len() + 1) {
            let map = &self.map;
            let live = |(k, generation): &(K, u64)| {
                map.get(k).is_some_and(|m| m.generation == *generation)
            };
            self.probation.retain(live);
            self.protected.retain(live);
        }
    }

    /// Looks up a key, refreshing its recency; a hit in probation
    /// promotes the entry to the protected segment.
    pub fn get(&mut self, key: &K) -> Option<Arc<V>> {
        let Some(meta) = self.map.get_mut(key) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        let value = Arc::clone(&meta.value);
        if !meta.protected {
            meta.protected = true;
            self.protected_used += meta.charge;
            self.promotions += 1;
        }
        self.touch(key);
        self.demote_overflow();
        self.maybe_compact_order();
        Some(value)
    }

    /// Moves protected entries, least recent first, to probation's most
    /// recent end until protected fits its share of the budget.
    fn demote_overflow(&mut self) {
        // `capacity * PROTECTED_PERCENT / 100` without overflowing an
        // unbounded (`u64::MAX`) budget.
        let limit =
            self.capacity / 100 * PROTECTED_PERCENT + self.capacity % 100 * PROTECTED_PERCENT / 100;
        while self.protected_used > limit {
            let Some((k, generation)) = self.protected.pop_front() else {
                break;
            };
            let Some(meta) = self.map.get_mut(&k) else {
                continue;
            };
            if meta.generation != generation {
                continue;
            }
            meta.protected = false;
            self.protected_used -= meta.charge;
            self.touch(&k);
        }
    }

    /// Inserts a value with an explicit byte charge into probation,
    /// evicting from probation's least recent end to respect the budget.
    pub fn insert(&mut self, key: K, value: Arc<V>, charge: u64) {
        self.remove(&key);
        self.map.insert(
            key.clone(),
            EntryMeta {
                value,
                charge,
                generation: 0,
                protected: false,
            },
        );
        self.used += charge;
        self.touch(&key);
        self.evict();
        self.maybe_compact_order();
    }

    /// Evicts from probation until the budget holds. Protected holds at
    /// most its share, so while the budget is exceeded probation is not
    /// empty; the last entry stays even if it alone exceeds the budget.
    fn evict(&mut self) {
        while self.used > self.capacity && self.map.len() > 1 {
            let Some((k, generation)) = self.probation.pop_front() else {
                break;
            };
            if self.map.get(&k).is_some_and(|m| m.generation == generation) {
                self.remove_entry(&k);
            }
        }
    }

    fn remove_entry(&mut self, key: &K) {
        if let Some(meta) = self.map.remove(key) {
            self.used -= meta.charge;
            if meta.protected {
                self.protected_used -= meta.charge;
            }
        }
    }

    /// Removes a key (e.g. when the file is deleted). The stale queue
    /// record is reclaimed by the bounded compaction.
    pub fn remove(&mut self, key: &K) {
        self.remove_entry(key);
        self.maybe_compact_order();
    }

    /// Removes every key in `range` — all blocks of a deleted file — from
    /// both segments, and counts them as purged.
    pub(crate) fn remove_range(&mut self, range: impl RangeBounds<K>) {
        let keys: Vec<K> = self.map.range(range).map(|(k, _)| k.clone()).collect();
        for k in &keys {
            self.remove_entry(k);
        }
        self.purged += keys.len() as u64;
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

    /// (promotions from probation to protected, entries purged by range
    /// removal) counters.
    pub fn policy_stats(&self) -> (u64, u64) {
        (self.promotions, self.purged)
    }

    /// Drops everything, including the counters: a cleared cache (reopen,
    /// crash restore) starts a fresh hit-ratio window, so stale counts
    /// cannot skew ratios reported after the clear.
    pub fn clear(&mut self) {
        *self = LruCache::new(self.capacity);
    }
}

#[cfg(test)]
impl<K: Ord + Clone, V> LruCache<K, V> {
    /// The cached keys in order.
    pub(crate) fn keys(&self) -> impl Iterator<Item = &K> {
        self.map.keys()
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
        // Touch 1 so it is promoted out of probation.
        assert!(c.get(&1).is_some());
        c.insert(4, Arc::new(4), 10); // evicts 2, probation's LRU
        assert!(c.get(&1).is_some());
        assert!(c.get(&2).is_none());
        assert!(c.get(&3).is_some());
    }

    #[test]
    fn reinsert_updates_charge() {
        let mut c: LruCache<u32, u32> = LruCache::new(100);
        c.insert(1, Arc::new(1), 10);
        c.get(&1);
        c.insert(1, Arc::new(2), 50);
        assert_eq!(c.used, 50);
        assert_eq!(c.protected_used, 0, "a re-insert starts in probation");
        assert_eq!(*c.get(&1).unwrap(), 2);
        assert_eq!(c.protected_used, 50);
    }

    #[test]
    fn remove_and_clear() {
        let mut c: LruCache<u32, u32> = LruCache::new(100);
        c.insert(1, Arc::new(1), 10);
        c.insert(2, Arc::new(2), 10);
        c.get(&1);
        c.remove(&1);
        assert_eq!(c.used, 10);
        assert_eq!(c.protected_used, 0);
        assert!(c.get(&1).is_none());
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.used, 0);
        assert_eq!(c.capacity, 100);
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
    fn hot_set_survives_one_touch_streams() {
        // A hot set of half the budget, re-read between one-touch streams
        // of ten times the budget: the block-cache pattern of a point
        // read probing level-0 and level-1 blocks on its way to a block
        // of the deepest level. Strict LRU flushes the hot set on every
        // stream; SLRU keeps it in protected.
        let mut c: LruCache<u32, u32> = LruCache::new(100);
        let hot = 0..5u32;
        for k in hot.clone() {
            c.insert(k, Arc::new(k), 10);
            c.get(&k);
        }
        let mut next_cold = 1_000u32;
        for round in 0..20 {
            for _ in 0..100 {
                if c.get(&next_cold).is_none() {
                    c.insert(next_cold, Arc::new(next_cold), 10);
                }
                next_cold += 1;
            }
            for k in hot.clone() {
                assert!(c.get(&k).is_some(), "round {round}: hot {k} evicted");
            }
        }
        assert!(c.used <= 100);
        assert_eq!(c.hit_stats(), (5 + 20 * 5, 20 * 100));
    }

    #[test]
    fn probation_hit_promotes_and_overflow_demotes() {
        // Budget 100: protected may hold 80.
        let mut c: LruCache<u32, u32> = LruCache::new(100);
        for k in 0..10 {
            c.insert(k, Arc::new(k), 10);
        }
        assert_eq!(c.protected_used, 0);
        for k in 0..8 {
            c.get(&k);
        }
        assert_eq!(c.policy_stats(), (8, 0));
        assert_eq!(c.protected_used, 80);
        assert!((0..8).all(|k| c.map[&k].protected));
        // A protected hit is not a promotion.
        c.get(&0);
        assert_eq!(c.policy_stats().0, 8);
        // A ninth promotion overflows protected: its least recent entry
        // (1; 0 was just refreshed) goes back to probation, not out.
        c.get(&8);
        assert_eq!(c.protected_used, 80);
        assert!(!c.map[&1].protected);
        assert_eq!(c.len(), 10);
        // Demoted to probation's most recent end: the next insert evicts
        // the older probation entry 9, not 1.
        c.insert(10, Arc::new(10), 10);
        assert!(c.map.contains_key(&1));
        assert!(!c.map.contains_key(&9));
    }

    #[test]
    fn range_removal_frees_exactly_that_files_bytes() {
        let mut c: LruCache<(u64, u64), u32> = LruCache::new(1_000);
        for file in 1..=3u64 {
            for off in 0..4u64 {
                c.insert((file, off * 4096), Arc::new(0), 10 * file);
            }
        }
        c.get(&(2, 0));
        c.get(&(2, 4096));
        assert_eq!(c.used, 4 * 10 + 4 * 20 + 4 * 30);
        c.remove_range((2, 0)..=(2, u64::MAX));
        assert_eq!(c.used, 4 * 10 + 4 * 30);
        assert_eq!(c.protected_used, 0);
        assert_eq!(c.policy_stats().1, 4);
        assert!(c.keys().all(|&(file, _)| file != 2));
        assert_eq!(c.len(), 8);
    }

    #[test]
    fn hit_storm_does_not_leak_order_queue() {
        let mut c: LruCache<u32, u32> = LruCache::new(100);
        c.insert(1, Arc::new(1), 10);
        for _ in 0..10_000 {
            c.get(&1);
        }
        assert!(c.probation.len() + c.protected.len() < 100);
    }

    #[test]
    fn insert_remove_churn_does_not_leak_order_queue() {
        // The table-cache pattern: compactions open (insert) and delete
        // (remove) files while staying below the byte budget, so eviction
        // never runs. Pre-fix, only `touch` compacted the queue, and this
        // loop grew it to 20_000 entries.
        let mut c: LruCache<u32, u32> = LruCache::new(u64::MAX);
        for i in 0..10_000u32 {
            c.insert(i, Arc::new(i), 1);
            c.remove(&i);
        }
        assert!(c.is_empty());
        assert!(
            c.probation.len() + c.protected.len() <= 4 * (c.map.len() + 1),
            "order queues leaked: {} + {} records for {} live",
            c.probation.len(),
            c.protected.len(),
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
        assert_eq!(c.policy_stats(), (0, 0));
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
    fn property_order_queues_stay_linear_in_live_entries() {
        // Invariants after every operation: the two queues together hold
        // at most 4*(map.len()+1) records; each live entry has exactly one
        // live record, in the queue of its segment; the byte counters
        // match the entries; protected fits its share; and the budget
        // holds unless one entry alone exceeds it. Exercised under
        // arbitrary interleavings of insert/get/remove/range removal
        // across several seeds, key ranges and budgets.
        for seed in [1u64, 0xDEADBEEF, 0x5EA1DB, 42, 7_777_777] {
            let mut rng = XorShift64(seed);
            let budget = 1 + rng.next() % 400;
            let key_space = 1 + (rng.next() % 64) as u32;
            let mut c: LruCache<u32, u32> = LruCache::new(budget);
            for step in 0..5_000u32 {
                let key = (rng.next() as u32) % key_space;
                match rng.next() % 7 {
                    0..=2 => c.insert(key, Arc::new(step), 1 + rng.next() % 32),
                    3..=5 => {
                        c.get(&key);
                    }
                    _ if step % 2 == 0 => c.remove(&key),
                    _ => c.remove_range(key..key.saturating_add(4)),
                }
                let queued = c.probation.len() + c.protected.len();
                assert!(
                    queued <= 4 * (c.map.len() + 1),
                    "seed {seed} step {step}: {queued} records vs live {}",
                    c.map.len()
                );
                assert!(c.map.len() <= key_space as usize);
                let mut used = 0;
                let mut protected_used = 0;
                for (k, m) in &c.map {
                    used += m.charge;
                    let (own, other) = if m.protected {
                        protected_used += m.charge;
                        (&c.protected, &c.probation)
                    } else {
                        (&c.probation, &c.protected)
                    };
                    let record = (*k, m.generation);
                    assert_eq!(own.iter().filter(|r| **r == record).count(), 1);
                    assert!(!other.contains(&record));
                }
                assert_eq!((c.used, c.protected_used), (used, protected_used));
                assert!(c.protected_used <= budget * PROTECTED_PERCENT / 100);
                assert!(
                    c.used <= budget || c.map.len() == 1,
                    "seed {seed} step {step}"
                );
            }
        }
    }
}
