//! Shared retry-backoff policy for every layer that re-issues work —
//! frontend degraded reads, replica failover redirects, chaos traffic.
//!
//! All of them used to hand-roll the same doubling-and-capping formula;
//! this module is the single home so the semantics stay pinned in one
//! place: [`bounded_backoff_ns`] doubles a base delay per attempt and
//! saturates at a cap, overflow-safe for any input.

/// Bounded exponential backoff: `base * 2^attempt`, floored at 1 ns,
/// capped at `max` (or at `base` when `max < base`). Saturates instead
/// of overflowing for any `attempt`.
pub fn bounded_backoff_ns(base: u64, max: u64, attempt: u32) -> u64 {
    let floor = base.max(1);
    floor
        .saturating_mul(1u64 << attempt.min(62))
        .min(max.max(floor))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doubles_then_caps_and_saturates() {
        assert_eq!(bounded_backoff_ns(100, 1000, 0), 100);
        assert_eq!(bounded_backoff_ns(100, 1000, 1), 200);
        assert_eq!(bounded_backoff_ns(100, 1000, 2), 400);
        assert_eq!(bounded_backoff_ns(100, 1000, 3), 800);
        assert_eq!(bounded_backoff_ns(100, 1000, 4), 1000);
        assert_eq!(bounded_backoff_ns(100, 1000, 60), 1000);
        // Zeroes floor at 1 ns; a cap below base is raised to base.
        assert_eq!(bounded_backoff_ns(0, 0, 0), 1);
        assert_eq!(bounded_backoff_ns(0, 0, 10), 1);
        assert_eq!(bounded_backoff_ns(500, 100, 0), 500);
        // Saturating: enormous attempts never overflow.
        assert_eq!(bounded_backoff_ns(u64::MAX, u64::MAX, 63), u64::MAX);
    }
}
