//! Key and value generation. The paper's records are 16-byte keys and
//! 4 KB values; both are parameterised so the benchmarks can run at a
//! reduced scale with identical structure.

use lsm_core::util::rng::XorShift64;

/// Produces fixed-width keys and deterministic pseudo-random values.
#[derive(Clone, Debug)]
pub struct RecordGenerator {
    key_size: usize,
    value_size: usize,
    value_seed: u64,
}

impl RecordGenerator {
    /// Creates a generator. `key_size` must be at least 12 bytes to hold
    /// the formatted index.
    pub fn new(key_size: usize, value_size: usize, value_seed: u64) -> Self {
        assert!(key_size >= 12, "key size too small for formatted indices");
        RecordGenerator {
            key_size,
            value_size,
            value_seed,
        }
    }

    /// The paper's record shape: 16-byte keys, 4 KB values.
    pub fn paper() -> Self {
        RecordGenerator::new(16, 4096, 0x5EED)
    }

    /// Key bytes for item index `i`: `"k"` + zero-padded decimal,
    /// exactly `key_size` bytes, so lexicographic order == numeric order.
    pub fn key(&self, i: u64) -> Vec<u8> {
        let mut k = format!("k{:0width$}", i, width = self.key_size - 1).into_bytes();
        debug_assert_eq!(k.len(), self.key_size);
        k.truncate(self.key_size);
        k
    }

    /// Value bytes for item index `i`: compressible-free pseudo-random
    /// fill, deterministic in `(seed, i)`.
    pub fn value(&self, i: u64) -> Vec<u8> {
        let mut rng = XorShift64::new(self.value_seed ^ i.wrapping_mul(0x9E3779B97F4A7C15));
        let mut v = Vec::with_capacity(self.value_size);
        while v.len() < self.value_size {
            v.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        v.truncate(self.value_size);
        v
    }

    /// Value size in bytes.
    pub fn value_size(&self) -> usize {
        self.value_size
    }

    /// Bytes per record (key + value).
    pub fn record_size(&self) -> u64 {
        (self.key_size + self.value_size) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_fixed_width_and_ordered() {
        let g = RecordGenerator::new(16, 100, 1);
        let a = g.key(5);
        let b = g.key(50);
        let c = g.key(500_000_000);
        assert_eq!(a.len(), 16);
        assert_eq!(b.len(), 16);
        assert_eq!(c.len(), 16);
        assert!(a < b && b < c);
    }

    #[test]
    fn values_are_right_sized_and_deterministic() {
        let g = RecordGenerator::new(16, 4096, 7);
        let v1 = g.value(42);
        let v2 = g.value(42);
        let v3 = g.value(43);
        assert_eq!(v1.len(), 4096);
        assert_eq!(v1, v2);
        assert_ne!(v1, v3);
    }

    #[test]
    fn paper_shape() {
        let g = RecordGenerator::paper();
        assert_eq!(g.key(0).len(), 16);
        assert_eq!(g.value(0).len(), 4096);
        assert_eq!(g.record_size(), 4112);
    }
}
