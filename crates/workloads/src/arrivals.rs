//! Arrival processes for the serving front-end.
//!
//! Latency-under-load experiments need traffic whose *offered* rate is
//! independent of the store's service rate. Two standard shapes:
//!
//! * **Open loop** — requests arrive by a seeded Poisson process at a
//!   target ops/s, whether or not earlier requests finished. Queueing
//!   delay appears as soon as the store saturates, which is what bends
//!   the p99-vs-load curve.
//! * **Closed loop** — each virtual client waits for its previous
//!   request and then thinks for a fixed time before issuing the next.
//!   With zero think time this measures the store's saturation
//!   throughput.
//!
//! Gaps are drawn from a deterministic `XorShift64` stream, so a
//! (process, seed) pair always produces the same arrival schedule.

use lsm_core::util::rng::XorShift64;

/// Traffic shape of one virtual client.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ArrivalProcess {
    /// Open-loop Poisson arrivals at `ops_per_sec` (per client).
    OpenLoopPoisson {
        /// Target offered load, operations per simulated second.
        ops_per_sec: f64,
    },
    /// Closed-loop: issue, wait for completion, think, repeat.
    ClosedLoop {
        /// Think time between completion and the next request, ns.
        think_ns: u64,
    },
}

/// Seeded generator of inter-arrival (or think) gaps for one client.
#[derive(Clone, Debug)]
pub struct InterArrival {
    process: ArrivalProcess,
    rng: XorShift64,
}

impl InterArrival {
    /// A gap generator for `process` with its own RNG stream.
    pub fn new(process: ArrivalProcess, seed: u64) -> Self {
        InterArrival {
            process,
            rng: XorShift64::new(seed),
        }
    }

    /// Next gap, ns. For Poisson arrivals this samples the exponential
    /// inter-arrival distribution by inverse CDF; for closed-loop it is
    /// the constant think time.
    pub fn next_gap_ns(&mut self) -> u64 {
        match self.process {
            ArrivalProcess::OpenLoopPoisson { ops_per_sec } => {
                // 53 uniform bits, offset by half an ulp so u ∈ (0, 1)
                // and ln(u) is finite.
                let u = ((self.rng.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
                let mean_ns = 1e9 / ops_per_sec;
                (-u.ln() * mean_ns) as u64
            }
            ArrivalProcess::ClosedLoop { think_ns } => think_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_gaps_match_target_rate() {
        let mut ia = InterArrival::new(
            ArrivalProcess::OpenLoopPoisson {
                ops_per_sec: 10_000.0,
            },
            42,
        );
        let n = 20_000u64;
        let total: u64 = (0..n).map(|_| ia.next_gap_ns()).sum();
        let mean = total as f64 / n as f64;
        // Expected mean gap: 1e9 / 1e4 = 100_000 ns, ±5%.
        assert!((mean - 100_000.0).abs() < 5_000.0, "mean gap {mean}");
    }

    #[test]
    fn same_seed_same_schedule() {
        let p = ArrivalProcess::OpenLoopPoisson { ops_per_sec: 500.0 };
        let a: Vec<u64> = {
            let mut ia = InterArrival::new(p, 7);
            (0..100).map(|_| ia.next_gap_ns()).collect()
        };
        let b: Vec<u64> = {
            let mut ia = InterArrival::new(p, 7);
            (0..100).map(|_| ia.next_gap_ns()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let mut ia = InterArrival::new(p, 8);
            (0..100).map(|_| ia.next_gap_ns()).collect()
        };
        assert_ne!(a, c, "different seeds must shift the schedule");
    }

    #[test]
    fn closed_loop_gap_is_the_think_time() {
        let mut ia = InterArrival::new(ArrivalProcess::ClosedLoop { think_ns: 250 }, 1);
        for _ in 0..10 {
            assert_eq!(ia.next_gap_ns(), 250);
        }
    }
}
