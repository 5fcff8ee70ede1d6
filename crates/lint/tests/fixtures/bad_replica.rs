//! Fixture: replication-path violations. The cluster's failover and
//! shipping decisions feed the BENCH_pr6 artifact directly, so a host
//! clock read here breaks byte-identical same-seed replays.

/// Measures a failover with the host clock instead of the simulated one.
pub fn measure_rto() -> u64 {
    let started = std::time::Instant::now();
    started.elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    // Test code is exempt: none of these are findings.
    #[test]
    fn host_clock_is_fine_here() {
        let started = std::time::Instant::now();
        assert!(started.elapsed().as_nanos() < u128::MAX);
    }
}
