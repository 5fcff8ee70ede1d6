//! Fixture: cluster-router violations. Shard routing, the serving
//! schedule, and migration move order feed the BENCH_pr7 artifact
//! directly, so ambient randomness here breaks byte-identical same-seed
//! replays and makes placement non-deterministic.

/// Routes a key by hashing with the process-random default hasher, so
/// the owning shard differs run to run.
pub fn route(key: &[u8], shards: usize) -> usize {
    use std::hash::{BuildHasher, Hasher};
    let mut h = std::collections::hash_map::RandomState::new().build_hasher();
    h.write(key);
    (h.finish() as usize) % shards
}

#[cfg(test)]
mod tests {
    // Test code is exempt: none of these are findings.
    #[test]
    fn ambient_randomness_is_fine_here() {
        let state = std::collections::hash_map::RandomState::new();
        drop(state);
    }
}
