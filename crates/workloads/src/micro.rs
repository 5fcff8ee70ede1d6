//! The LevelDB micro-benchmarks the paper uses in §IV-A: fillseq,
//! fillrandom, readseq, readrandom. Throughput is computed from the
//! disk's *simulated* clock, so results are deterministic and
//! hardware-independent.

use crate::generator::RecordGenerator;
use lsm_core::util::rng::XorShift64;
use lsm_core::Result;
use sealdb::Store;

/// Result of one micro-benchmark phase.
#[derive(Clone, Copy, Debug)]
pub struct MicroResult {
    /// Operations executed.
    pub(crate) ops: u64,
    /// Simulated time the phase took, ns.
    pub sim_ns: u64,
    /// Payload bytes moved.
    pub(crate) bytes: u64,
}

impl MicroResult {
    /// Operations per simulated second.
    pub fn ops_per_sec(&self) -> f64 {
        if self.sim_ns == 0 {
            0.0
        } else {
            self.ops as f64 * 1e9 / self.sim_ns as f64
        }
    }

    /// Payload megabytes per simulated second.
    pub fn mb_per_sec(&self) -> f64 {
        if self.sim_ns == 0 {
            0.0
        } else {
            self.bytes as f64 / 1e6 * 1e9 / self.sim_ns as f64
        }
    }
}

fn timed<F: FnOnce(&mut Store) -> Result<u64>>(
    store: &mut Store,
    ops: u64,
    f: F,
) -> Result<MicroResult> {
    let start = store.clock_ns();
    let bytes = f(store)?;
    Ok(MicroResult {
        ops,
        sim_ns: store.clock_ns() - start,
        bytes,
    })
}

/// Loads `n` records in ascending key order (the paper's sequential
/// load), flushing at the end so all data is on disk.
pub fn fill_seq(store: &mut Store, gen: &RecordGenerator, n: u64) -> Result<MicroResult> {
    timed(store, n, |s| {
        let mut bytes = 0;
        for i in 0..n {
            let (k, v) = (gen.key(i), gen.value(i));
            bytes += (k.len() + v.len()) as u64;
            s.put(&k, &v)?;
        }
        s.flush()?;
        Ok(bytes)
    })
}

/// Loads `n` records in uniformly random order (the paper's random
/// load). Every index in `[0, n)` is written exactly once, in a
/// pseudo-random permutation, matching `db_bench`'s fillrandom.
pub fn fill_random(
    store: &mut Store,
    gen: &RecordGenerator,
    n: u64,
    seed: u64,
) -> Result<MicroResult> {
    timed(store, n, |s| {
        let mut bytes = 0;
        for i in 0..n {
            let j = permute(i, n, seed);
            let (k, v) = (gen.key(j), gen.value(j));
            bytes += (k.len() + v.len()) as u64;
            s.put(&k, &v)?;
        }
        s.flush()?;
        Ok(bytes)
    })
}

/// Feistel-style permutation of `[0, n)`: visits every index once in a
/// scrambled order, deterministically.
pub fn permute(i: u64, n: u64, seed: u64) -> u64 {
    debug_assert!(i < n);
    // Cycle-walk a power-of-two block cipher down to [0, n).
    let bits = 64 - (n - 1).max(1).leading_zeros();
    let mask = (1u64 << bits) - 1;
    let mut x = i;
    loop {
        // Two rounds of an xorshift-multiply permutation over `bits`.
        x ^= seed & mask;
        x = x.wrapping_mul(0x9E3779B97F4A7C15) & mask;
        x ^= x >> (bits / 2).max(1);
        x = x.wrapping_mul(0xC2B2AE3D27D4EB4F) & mask;
        x ^= x >> (bits / 2).max(1);
        x &= mask;
        if x < n {
            return x;
        }
    }
}

/// Reads `n` keys uniformly at random from a store holding `record_count`
/// records (the paper: 100 K reads on the 100 GB database).
pub fn read_random(
    store: &mut Store,
    gen: &RecordGenerator,
    record_count: u64,
    n: u64,
    seed: u64,
) -> Result<MicroResult> {
    timed(store, n, |s| {
        let mut rng = XorShift64::new(seed);
        let mut bytes = 0;
        for _ in 0..n {
            let i = rng.next_below(record_count);
            let k = gen.key(i);
            if let Some(v) = s.get(&k)? {
                bytes += (k.len() + v.len()) as u64;
            }
        }
        Ok(bytes)
    })
}

/// Reads `n` consecutive keys starting from a random position via range
/// scans (the paper's sequential read).
pub fn read_seq(
    store: &mut Store,
    gen: &RecordGenerator,
    record_count: u64,
    n: u64,
    seed: u64,
) -> Result<MicroResult> {
    timed(store, n, |s| {
        let mut rng = XorShift64::new(seed);
        let start_idx = rng.next_below(record_count.saturating_sub(n).max(1));
        let mut bytes = 0;
        let mut remaining = n as usize;
        let mut cursor = gen.key(start_idx);
        while remaining > 0 {
            let chunk = remaining.min(1000);
            let got = s.scan(&cursor, chunk)?;
            if got.is_empty() {
                break;
            }
            for (k, v) in &got {
                bytes += (k.len() + v.len()) as u64;
            }
            remaining -= got.len();
            // Continue after the last returned key.
            let mut next = got.last().expect("non-empty").0.clone();
            next.push(0);
            cursor = next;
        }
        Ok(bytes)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sealdb::{StoreConfig, StoreKind};

    fn small_store(kind: StoreKind) -> Store {
        StoreConfig::new(kind, 32 << 10, 1 << 30).build().unwrap()
    }

    fn small_gen() -> RecordGenerator {
        RecordGenerator::new(16, 100, 1)
    }

    #[test]
    fn permute_is_a_permutation() {
        for n in [1u64, 2, 7, 100, 1000] {
            let mut seen = vec![false; n as usize];
            for i in 0..n {
                let j = permute(i, n, 42);
                assert!(j < n);
                assert!(!seen[j as usize], "duplicate at n={n}");
                seen[j as usize] = true;
            }
        }
    }

    #[test]
    fn fill_and_read_roundtrip() {
        let mut s = small_store(StoreKind::SealDb);
        let g = small_gen();
        let n = 2000;
        let w = fill_random(&mut s, &g, n, 7).unwrap();
        assert_eq!(w.ops, n);
        assert!(w.sim_ns > 0);
        assert!(w.ops_per_sec() > 0.0);
        let r = read_random(&mut s, &g, n, 200, 9).unwrap();
        // Every looked-up key exists: payload == 200 * record size.
        assert_eq!(r.bytes, 200 * g.record_size());
        let sq = read_seq(&mut s, &g, n, 500, 11).unwrap();
        assert_eq!(sq.bytes, 500 * g.record_size());
    }

    #[test]
    fn fill_seq_faster_than_fill_random_on_leveldb() {
        let g = small_gen();
        let n = 3000;
        let mut seq = small_store(StoreKind::LevelDb);
        let rs = fill_seq(&mut seq, &g, n).unwrap();
        let mut rnd = small_store(StoreKind::LevelDb);
        let rr = fill_random(&mut rnd, &g, n, 7).unwrap();
        assert!(
            rs.ops_per_sec() > rr.ops_per_sec(),
            "sequential load should beat random load ({} vs {})",
            rs.ops_per_sec(),
            rr.ops_per_sec()
        );
    }
}
