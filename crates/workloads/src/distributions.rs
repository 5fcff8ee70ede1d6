//! Request distributions, following the YCSB core generators: zipfian (Gray et al.'s "Quickly generating billion-record synthetic
//! databases" method, constant 0.99), scrambled zipfian, and latest.

use lsm_core::util::rng::XorShift64;

/// YCSB's default zipfian constant.
const ZIPFIAN_CONSTANT: f64 = 0.99;

/// A generator of item indices in `[0, n)`.
pub trait Distribution {
    /// Next item index; `n_now` is the current item count (the latest
    /// and insert-following distributions track growing keyspaces).
    fn next(&mut self, rng: &mut XorShift64, n_now: u64) -> u64;
}

fn uniform_f64(rng: &mut XorShift64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Zipfian over `[0, n)`: item 0 is the most popular.
#[derive(Clone, Debug)]
pub(crate) struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

fn zeta(n: u64, theta: f64) -> f64 {
    (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
}

impl Zipfian {
    /// Creates a zipfian generator over `n` items.
    pub(crate) fn new(n: u64) -> Self {
        let theta = ZIPFIAN_CONSTANT;
        let zetan = zeta(n, theta);
        let zeta2 = zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipfian {
            n,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    fn sample(&self, rng: &mut XorShift64) -> u64 {
        let u = uniform_f64(rng);
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let v = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        v.min(self.n - 1)
    }
}

impl Distribution for Zipfian {
    fn next(&mut self, rng: &mut XorShift64, _n_now: u64) -> u64 {
        self.sample(rng)
    }
}

/// Zipfian popularity spread over the keyspace by hashing (YCSB's
/// `ScrambledZipfianGenerator`): hot items are scattered, not clustered.
///
/// The scatter is a *bijection* on `[0, n)` (`ScatterPermutation`), not
/// a hash-mod: `fnv1a64(rank) % n` collides, so distinct ranks alias the
/// same item, the effective keyspace shrinks, and anything partitioning
/// the keyspace downstream (the shard router) inherits a silent skew.
#[derive(Clone, Debug)]
pub struct ScrambledZipfian {
    inner: Zipfian,
    perm: ScatterPermutation,
}

/// A keyed bijection on `[0, n)`: a 4-round Feistel network over the
/// smallest even-bit-width power-of-two domain covering `n`, with
/// cycle-walking to stay inside `[0, n)`. Every rank maps to a distinct
/// item, so scattering never shrinks the keyspace.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ScatterPermutation {
    n: u64,
    /// Bits per Feistel half; the walked domain is `2^(2*half_bits)`.
    half_bits: u32,
}

/// Feistel round keys — arbitrary odd constants, fixed so the scatter is
/// stable across runs and processes.
const SCATTER_KEYS: [u64; 4] = [
    0x9E37_79B9_7F4A_7C15,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
    0xD6E8_FEB8_6659_FD93,
];

impl ScatterPermutation {
    /// A permutation of `[0, n)`; `n = 0` behaves as `n = 1`.
    pub(crate) fn new(n: u64) -> Self {
        let n = n.max(1);
        // Smallest even bit width whose power of two covers n, so the
        // Feistel halves are equal-width and the walk terminates fast
        // (at most ~4 steps in expectation; the domain is < 4n).
        let mut half_bits = 1u32;
        while (1u128 << (2 * half_bits)) < u128::from(n) {
            half_bits += 1;
        }
        ScatterPermutation { n, half_bits }
    }

    /// Number of items in the domain.
    fn domain(&self) -> u64 {
        self.n
    }

    fn round(&self, half: u64, key: u64) -> u64 {
        // Multiply-xor-shift mix of one half under a round key, truncated
        // to the half width. Only injectivity of the whole network
        // matters, which the Feistel structure supplies for any round
        // function.
        let mask = (1u64 << self.half_bits) - 1;
        let mut x = half ^ key;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 29;
        x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        x ^= x >> 32;
        x & mask
    }

    fn feistel(&self, v: u64) -> u64 {
        let mask = (1u64 << self.half_bits) - 1;
        let mut left = (v >> self.half_bits) & mask;
        let mut right = v & mask;
        for key in SCATTER_KEYS {
            let next = left ^ self.round(right, key);
            left = right;
            right = next;
        }
        (left << self.half_bits) | right
    }

    /// Maps `v` to its scattered image; a bijection on `[0, n)`.
    /// Values at or past `n` are first folded in with `% n`.
    fn scatter(&self, v: u64) -> u64 {
        // Cycle-walking: iterate the power-of-two-domain bijection until
        // it lands inside [0, n). Restricting a permutation this way is
        // itself a permutation of [0, n).
        let mut x = v % self.n;
        loop {
            x = self.feistel(x);
            if x < self.n {
                return x;
            }
        }
    }
}

impl ScrambledZipfian {
    /// Creates a scrambled zipfian over `n` items.
    pub fn new(n: u64) -> Self {
        ScrambledZipfian {
            inner: Zipfian::new(n),
            perm: ScatterPermutation::new(n),
        }
    }
}

impl Distribution for ScrambledZipfian {
    fn next(&mut self, rng: &mut XorShift64, n_now: u64) -> u64 {
        let rank = self.inner.sample(rng);
        let n_now = n_now.max(1);
        // The keyspace can grow past the permutation's domain (inserts);
        // rebuild lazily so the scatter always covers [0, n_now).
        if self.perm.domain() != n_now {
            self.perm = ScatterPermutation::new(n_now);
        }
        self.perm.scatter(rank)
    }
}

/// YCSB's latest distribution: recently inserted items are the hottest
/// (used by workload D).
#[derive(Clone, Debug)]
pub(crate) struct Latest {
    inner: Zipfian,
}

impl Latest {
    /// Creates a latest-skewed generator sized for up to `n_max` items.
    pub(crate) fn new(n_max: u64) -> Self {
        Latest {
            inner: Zipfian::new(n_max),
        }
    }
}

impl Distribution for Latest {
    fn next(&mut self, rng: &mut XorShift64, n_now: u64) -> u64 {
        let n = n_now.max(1);
        let rank = self.inner.sample(rng) % n;
        n - 1 - rank
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> XorShift64 {
        XorShift64::new(0xABCD)
    }

    /// Share of traffic taken by the hot prefix (the top 1% of items,
    /// floored at one item so small domains still assert something
    /// instead of summing an empty slice).
    fn hot_set_share(counts: &[u32], trials: u64) -> f64 {
        let hot_len = (counts.len() / 100).max(1);
        let hot: u64 = counts[..hot_len].iter().map(|&c| u64::from(c)).sum();
        hot as f64 / trials as f64
    }

    #[test]
    fn zipfian_is_skewed_and_in_range() {
        let n = 10_000u64;
        let mut d = Zipfian::new(n);
        let mut r = rng();
        let mut counts = vec![0u32; n as usize];
        let trials = 100_000;
        for _ in 0..trials {
            let v = d.next(&mut r, n);
            assert!(v < n);
            counts[v as usize] += 1;
        }
        // Item 0 should receive roughly 1/zeta(n) of requests (~10%).
        let p0 = counts[0] as f64 / trials as f64;
        assert!((0.07..0.15).contains(&p0), "p0 = {p0}");
        // Top 1% of items take the majority of traffic.
        assert!(hot_set_share(&counts, trials) > 0.5);
        // Monotone-ish decay: first item beats the 100th by a lot.
        assert!(counts[0] > counts[99] * 5);
    }

    #[test]
    fn zipfian_small_domains_still_assert_skew() {
        // n < 100 used to make the hot-prefix slice empty, so the skew
        // assertion passed vacuously; the floored prefix closes that.
        for n in [2u64, 10, 50, 99] {
            let mut d = Zipfian::new(n);
            let mut r = rng();
            let mut counts = vec![0u32; n as usize];
            let trials = 20_000;
            for _ in 0..trials {
                counts[d.next(&mut r, n) as usize] += 1;
            }
            let share = hot_set_share(&counts, trials);
            // The floored hot set is exactly item 0 here, which holds
            // ~1/zeta(n) of traffic — far above the uniform share.
            assert!(
                share > 1.25 / n as f64,
                "n = {n}: hot share {share} is not skewed"
            );
            assert!(counts[0] > counts[n as usize - 1], "n = {n}");
        }
    }

    #[test]
    fn scatter_is_a_bijection_on_every_domain() {
        // Full-coverage/no-collision property: over the whole domain the
        // scatter hits every item exactly once. The replaced
        // `fnv1a64(rank) % n` scatter fails this for every domain here
        // (e.g. n = 1000 reaches only ~632 distinct items).
        for n in [1u64, 2, 7, 100, 255, 256, 257, 1000, 4096, 10_000] {
            let mut seen = vec![false; n as usize];
            let p = ScatterPermutation::new(n);
            for v in 0..n {
                let s = p.scatter(v);
                assert!(s < n, "n = {n}: image {s} out of range");
                assert!(!seen[s as usize], "n = {n}: collision at image {s}");
                seen[s as usize] = true;
            }
            assert!(seen.iter().all(|&s| s), "n = {n}: coverage hole");
        }
    }

    #[test]
    fn scatter_actually_scatters() {
        // Not the identity and not order-preserving: neighbours land far
        // apart, which is the whole point of scrambling the hot set.
        let n = 10_000u64;
        let p = ScatterPermutation::new(n);
        let moved = (0..n).filter(|&v| p.scatter(v) != v).count();
        assert!(moved as u64 > n * 9 / 10, "only {moved} items moved");
        let mut adjacent = 0;
        for v in 0..n - 1 {
            if p.scatter(v).abs_diff(p.scatter(v + 1)) == 1 {
                adjacent += 1;
            }
        }
        assert!(adjacent < 50, "{adjacent} neighbour pairs stayed adjacent");
    }

    #[test]
    fn scrambled_zipfian_hot_key_skew_is_preserved() {
        // Scrambling permutes identities but must not flatten the
        // distribution: the hottest item still takes ~1/zeta(n) of
        // traffic, exactly like the unscrambled zipfian's item 0.
        let n = 10_000u64;
        let mut plain = Zipfian::new(n);
        let mut scrambled = ScrambledZipfian::new(n);
        let mut r1 = rng();
        let mut r2 = rng();
        let trials = 100_000;
        let mut plain_counts = vec![0u32; n as usize];
        let mut scr_counts = vec![0u32; n as usize];
        for _ in 0..trials {
            plain_counts[plain.next(&mut r1, n) as usize] += 1;
            scr_counts[scrambled.next(&mut r2, n) as usize] += 1;
        }
        let p0 = *plain_counts.iter().max().unwrap() as f64 / trials as f64;
        let s0 = *scr_counts.iter().max().unwrap() as f64 / trials as f64;
        // Same seed, same rank stream — the permutation only relabels, so
        // the ordered count multiset is identical.
        plain_counts.sort_unstable();
        scr_counts.sort_unstable();
        assert_eq!(plain_counts, scr_counts, "scatter changed the skew");
        assert!((s0 - p0).abs() < 1e-12);
    }

    #[test]
    fn scrambled_zipfian_spreads_hot_keys() {
        let n = 10_000u64;
        let mut d = ScrambledZipfian::new(n);
        let mut r = rng();
        let mut counts = vec![0u32; n as usize];
        for _ in 0..100_000 {
            counts[d.next(&mut r, n) as usize] += 1;
        }
        // Still skewed: some item is much hotter than the mean...
        let max = *counts.iter().max().unwrap();
        assert!(max > 1000);
        // ...but the hottest item is NOT item 0 (scrambling moved it)
        // and hot items are not clustered at the front.
        let front: u32 = counts[..100].iter().sum();
        assert!((front as f64) < 100_000.0 * 0.5);
    }

    #[test]
    fn latest_prefers_recent() {
        let n = 1000u64;
        let mut d = Latest::new(n);
        let mut r = rng();
        let mut newest = 0;
        let trials = 10_000;
        for _ in 0..trials {
            let v = d.next(&mut r, n);
            assert!(v < n);
            if v >= n - 10 {
                newest += 1;
            }
        }
        // The newest 1% of items get far more than 1% of requests.
        assert!(newest as f64 / trials as f64 > 0.1);
    }

    #[test]
    fn latest_tracks_growing_keyspace() {
        let mut d = Latest::new(1000);
        let mut r = rng();
        for n_now in [1u64, 5, 100, 1000] {
            for _ in 0..100 {
                assert!(d.next(&mut r, n_now) < n_now);
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = Zipfian::new(1000);
        let mut b = Zipfian::new(1000);
        let mut ra = rng();
        let mut rb = rng();
        for _ in 0..100 {
            assert_eq!(a.next(&mut ra, 1000), b.next(&mut rb, 1000));
        }
    }
}
