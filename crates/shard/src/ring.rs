//! Consistent-hash ring with virtual nodes.
//!
//! Each shard owns `vnodes` points on a 64-bit ring; a key routes to
//! the owner of the first point at or clockwise past its hash. Virtual
//! nodes bound placement imbalance (relative spread of a shard's arc
//! share shrinks like `1/sqrt(vnodes)`), and splitting a shard is a
//! pure ownership edit: reassigning alternate points moves about half
//! of that shard's arcs — and no one else's — to the new owner.
//!
//! The ring is a `BTreeMap`, so routing and every enumeration below is
//! deterministic; point positions are a pure function of (shard,
//! replica) indices.

use std::collections::BTreeMap;

/// FNV-1a 64-bit over a byte slice — the key hash of the router.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer: spreads sequential (shard, replica) indices
/// uniformly over the 64-bit ring.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^ (x >> 33)
}

/// A consistent-hash ring mapping 64-bit points to shard indices.
#[derive(Clone, Debug)]
pub struct HashRing {
    points: BTreeMap<u64, usize>,
    vnodes: usize,
}

impl HashRing {
    /// An empty ring placing `vnodes` points per shard (min 1).
    pub fn new(vnodes: usize) -> Self {
        HashRing {
            points: BTreeMap::new(),
            vnodes: vnodes.max(1),
        }
    }

    /// Total points currently on the ring.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the ring has no points (routing is impossible).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Inserts `shard`'s virtual-node points. Point positions depend
    /// only on (shard, replica), so rebuilding a ring with the same
    /// membership yields the same layout; the rare position collision
    /// probes deterministically.
    pub fn add_shard(&mut self, shard: usize) {
        for replica in 0..self.vnodes {
            let mut p = mix64(
                (shard as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(replica as u64),
            );
            while self.points.contains_key(&p) {
                p = mix64(p.wrapping_add(0x9E37_79B9_7F4A_7C15));
            }
            self.points.insert(p, shard);
        }
    }

    /// Removes every point `shard` owns; its arcs fall to the next
    /// clockwise owners.
    pub(crate) fn remove_shard(&mut self, shard: usize) {
        self.points.retain(|_, &mut s| s != shard);
    }

    /// Splits `from` by handing every other of its points (odd
    /// positions in point order) to `to`: about half of `from`'s arcs
    /// — and only `from`'s — change owner. Returns the points moved.
    pub fn split(&mut self, from: usize, to: usize) -> usize {
        let mine: Vec<u64> = self
            .points
            .iter()
            .filter(|&(_, &s)| s == from)
            .map(|(&p, _)| p)
            .collect();
        let mut moved = 0;
        for p in mine.iter().skip(1).step_by(2) {
            self.points.insert(*p, to);
            moved += 1;
        }
        moved
    }

    /// Routes a precomputed 64-bit hash to its owning shard.
    ///
    /// # Panics
    ///
    /// Panics if the ring is empty.
    fn route_hash(&self, h: u64) -> usize {
        match self.points.range(h..).next() {
            Some((_, &s)) => s,
            None => {
                let (_, &s) = self.points.iter().next().expect("routing on an empty ring");
                s
            }
        }
    }

    /// Routes a key to its owning shard (FNV-1a hash, then the first
    /// ring point at or after it, wrapping).
    pub fn route(&self, key: &[u8]) -> usize {
        self.route_hash(fnv1a64(key))
    }

    /// Number of points `shard` currently owns.
    pub(crate) fn points_of(&self, shard: usize) -> usize {
        self.points.values().filter(|&&s| s == shard).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_total_and_stable() {
        let mut r = HashRing::new(64);
        for s in 0..4 {
            r.add_shard(s);
        }
        assert_eq!(r.len(), 4 * 64);
        for i in 0..1000u64 {
            let key = format!("key{i:08}");
            let a = r.route(key.as_bytes());
            let b = r.route(key.as_bytes());
            assert_eq!(a, b);
            assert!(a < 4);
        }
    }

    #[test]
    fn every_shard_owns_keys() {
        let mut r = HashRing::new(128);
        for s in 0..8 {
            r.add_shard(s);
        }
        let mut counts = [0u64; 8];
        for i in 0..20_000u64 {
            counts[r.route(format!("user{i:010}").as_bytes())] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!(c > 0, "shard {s} owns no keys");
        }
        let mean = 20_000.0 / 8.0;
        let max = *counts.iter().max().unwrap() as f64;
        assert!(
            max / mean < 1.25,
            "placement imbalance {:.3} with 128 vnodes",
            max / mean
        );
    }

    #[test]
    fn split_moves_only_the_source_shards_keys() {
        let mut r = HashRing::new(64);
        for s in 0..3 {
            r.add_shard(s);
        }
        let before: Vec<usize> = (0..5000u64)
            .map(|i| r.route(format!("k{i:07}").as_bytes()))
            .collect();
        let moved_points = r.split(1, 3);
        assert!(moved_points > 0);
        assert_eq!(r.points_of(1) + moved_points, 64);
        let mut moved = 0u64;
        for (i, &owner_before) in before.iter().enumerate() {
            let now = r.route(format!("k{i:07}").as_bytes());
            if now != owner_before {
                assert_eq!(owner_before, 1, "split moved a key shard 1 never owned");
                assert_eq!(
                    now, 3,
                    "split moved a key somewhere other than the new shard"
                );
                moved += 1;
            }
        }
        assert!(moved > 0, "split moved no keys");
    }

    #[test]
    fn remove_redistributes_to_survivors() {
        let mut r = HashRing::new(64);
        for s in 0..4 {
            r.add_shard(s);
        }
        r.remove_shard(2);
        assert_eq!(r.points_of(2), 0);
        assert!([0, 1, 3].iter().all(|&s| r.points_of(s) == 64));
        for i in 0..2000u64 {
            assert_ne!(r.route(format!("k{i:07}").as_bytes()), 2);
        }
    }

    #[test]
    #[should_panic(expected = "empty ring")]
    fn empty_ring_routing_panics() {
        HashRing::new(8).route(b"k");
    }
}
