//! Bloom filter over user keys, one full filter per SSTable (RocksDB-style
//! full filters rather than LevelDB's per-2KB filters; the lookup
//! behaviour the paper's experiments depend on is the same: point reads
//! skip tables that cannot contain the key).
//!
//! Uses double hashing (Kirsch–Mitzenmacher) over a 64-bit FNV-1a base
//! hash, `k` probes derived from the configured bits per key.

/// Builds and queries a bloom filter.
#[derive(Clone, Debug)]
pub struct BloomFilter {
    bits: Vec<u8>,
    k: u32,
}

fn fnv1a64(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn probes(bits_per_key: usize) -> u32 {
    // k = bits_per_key * ln(2), clamped like LevelDB.
    ((bits_per_key as f64 * 0.69) as u32).clamp(1, 30)
}

impl BloomFilter {
    /// Builds a filter for `keys` with `bits_per_key` bits of budget each.
    pub fn build<K: AsRef<[u8]>>(keys: &[K], bits_per_key: usize) -> Self {
        let n_bits = (keys.len() * bits_per_key).max(64);
        let n_bytes = n_bits.div_ceil(8);
        let n_bits = (n_bytes * 8) as u64;
        let mut bits = vec![0u8; n_bytes];
        let k = probes(bits_per_key);
        for key in keys {
            let mut h = fnv1a64(key.as_ref());
            let delta = h.rotate_right(17) | 1;
            for _ in 0..k {
                let pos = (h % n_bits) as usize;
                bits[pos / 8] |= 1 << (pos % 8);
                h = h.wrapping_add(delta);
            }
        }
        BloomFilter { bits, k }
    }

    /// Reconstructs a filter from its serialised form.
    pub(crate) fn decode(data: &[u8]) -> Option<Self> {
        let (&k, bits) = data.split_last()?;
        if k == 0 || k > 30 {
            return None;
        }
        Some(BloomFilter {
            bits: bits.to_vec(),
            k: u32::from(k),
        })
    }

    /// Serialises the filter (bit array + probe count byte).
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = self.bits.clone();
        out.push(self.k as u8);
        out
    }

    /// Whether the key *may* be present (false positives possible, false
    /// negatives impossible).
    pub fn may_contain(&self, key: &[u8]) -> bool {
        let n_bits = (self.bits.len() * 8) as u64;
        if n_bits == 0 {
            return true;
        }
        let mut h = fnv1a64(key);
        let delta = h.rotate_right(17) | 1;
        for _ in 0..self.k {
            let pos = (h % n_bits) as usize;
            if self.bits[pos / 8] & (1 << (pos % 8)) == 0 {
                return false;
            }
            h = h.wrapping_add(delta);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u32) -> Vec<u8> {
        format!("key{i:08}").into_bytes()
    }

    #[test]
    fn empty_filter() {
        let f = BloomFilter::build::<&[u8]>(&[], 10);
        // An empty filter simply never matches... but must not panic.
        assert!(!f.may_contain(b"anything"));
    }

    #[test]
    fn no_false_negatives() {
        let keys: Vec<Vec<u8>> = (0..2000).map(key).collect();
        let f = BloomFilter::build(&keys, 10);
        for k in &keys {
            assert!(f.may_contain(k));
        }
    }

    #[test]
    fn false_positive_rate_reasonable() {
        let keys: Vec<Vec<u8>> = (0..10_000).map(key).collect();
        let f = BloomFilter::build(&keys, 10);
        let mut fp = 0;
        let trials = 10_000;
        for i in 0..trials {
            if f.may_contain(&key(1_000_000 + i)) {
                fp += 1;
            }
        }
        let rate = fp as f64 / trials as f64;
        // 10 bits/key gives ~1% theoretically; allow generous slack.
        assert!(rate < 0.03, "false positive rate {rate}");
    }

    #[test]
    fn encode_decode_roundtrip() {
        let keys: Vec<Vec<u8>> = (0..100).map(key).collect();
        let f = BloomFilter::build(&keys, 10);
        let enc = f.encode();
        assert_eq!(enc.len(), f.bits.len() + 1, "bits plus the probe count");
        let g = BloomFilter::decode(&enc).unwrap();
        for k in &keys {
            assert!(g.may_contain(k));
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(BloomFilter::decode(&[]).is_none());
        assert!(BloomFilter::decode(&[0]).is_none()); // k = 0
        assert!(BloomFilter::decode(&[1, 2, 3, 200]).is_none()); // k = 200
    }
}
