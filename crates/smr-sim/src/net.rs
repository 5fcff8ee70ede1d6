//! Seeded simulated network connecting replication nodes.
//!
//! A [`NetModel`] is a pure function of (seed, link, message id): the
//! same question always gets the same answer, so cluster runs are fully
//! deterministic without any mutable RNG state. Three effects compose:
//!
//! * **Per-link latency jitter** — each one-way delivery takes the base
//!   link latency plus a seeded jitter of up to a quarter of the base.
//!   Keeping the jitter proportional to the base preserves cross-cell
//!   monotonicity: a sweep over link latencies can assert that measured
//!   recovery times grow with the link, jitter notwithstanding.
//! * **Drops with retransmit** — a seeded per-message drop probability
//!   (in permille). Each consecutive drop charges one retransmit
//!   timeout (four base latencies) before the resend; delivery is
//!   delayed, never lost, modelling a reliable transport over a lossy
//!   link.
//! * **Partitions and kills** — a [`ClusterFaultPlan`] schedule. A
//!   partitioned sender holds its message until the window heals; a
//!   message reaching a partitioned receiver is buffered by the network
//!   and released at heal time. Never-healing partitions and killed
//!   receivers make delivery `None`.
//!
//! Reordering emerges naturally: consecutive messages on one link draw
//! independent jitter, so a later message can carry a smaller delay.
//! Receivers that need ordering (WAL shipping does) hold back
//! out-of-order frames; the model deliberately does not resequence.

use crate::fault::{mix, ClusterFaultPlan};

/// Retransmit timeout as a multiple of the base one-way latency.
const RETRANSMIT_TIMEOUT_FACTOR: u64 = 4;

/// Retransmit attempts before the model gives up jittering and delivers
/// anyway (a reliable transport never loses the message for good).
const MAX_RETRANSMITS: u64 = 8;

/// Deterministic cluster network: seeded per-link latency, drops with
/// retransmit penalties, and a partition/kill schedule.
#[derive(Clone, Debug)]
pub struct NetModel {
    seed: u64,
    base_latency_ns: u64,
    drop_permille: u64,
    faults: ClusterFaultPlan,
}

impl NetModel {
    /// A lossless network with the given seed and base one-way latency.
    pub fn new(seed: u64, base_latency_ns: u64) -> Self {
        NetModel {
            seed,
            base_latency_ns: base_latency_ns.max(1),
            drop_permille: 0,
            faults: ClusterFaultPlan::new(),
        }
    }

    /// Sets the per-message drop probability in permille (clamped to
    /// 999 — a lossy link, not a severed one; use partitions for that).
    pub fn set_drop_permille(&mut self, permille: u64) {
        self.drop_permille = permille.min(999);
    }

    /// The installed cluster fault schedule.
    pub fn faults(&self) -> &ClusterFaultPlan {
        &self.faults
    }

    /// Mutable access to the cluster fault schedule.
    pub fn faults_mut(&mut self) -> &mut ClusterFaultPlan {
        &mut self.faults
    }

    /// Stable per-(link, message) hash feeding every sampled quantity.
    fn link_hash(&self, from: usize, to: usize, msg_id: u64) -> u64 {
        let link = ((from as u64) << 32) ^ (to as u64);
        mix(self.seed ^ mix(link) ^ msg_id.rotate_left(17))
    }

    /// One-way latency for a message on `from -> to`, ns: base latency,
    /// plus seeded jitter bounded by a quarter of the base, plus one
    /// retransmit timeout per seeded consecutive drop. Pure — the same
    /// arguments always sample the same latency.
    pub fn sample_latency_ns(&self, from: usize, to: usize, msg_id: u64) -> u64 {
        let h = self.link_hash(from, to, msg_id);
        let jitter = h % (self.base_latency_ns / 4 + 1);
        let mut penalty = 0u64;
        if self.drop_permille > 0 {
            for attempt in 0..MAX_RETRANSMITS {
                if mix(h ^ attempt) % 1000 < self.drop_permille {
                    penalty += RETRANSMIT_TIMEOUT_FACTOR * self.base_latency_ns;
                } else {
                    break;
                }
            }
        }
        self.base_latency_ns + jitter + penalty
    }

    /// Arrival time of a message sent on `from -> to` at `send_ns`, or
    /// `None` when it can never arrive (a never-healing partition on
    /// either endpoint, or the receiver already killed at arrival). A
    /// partitioned sender departs at its heal time; a delivery into a
    /// receiver's partition window is released when the window closes.
    pub fn delivery_ns(&self, from: usize, to: usize, msg_id: u64, send_ns: u64) -> Option<u64> {
        let depart = self.faults.heal_ns(from, send_ns)?;
        let arrive = depart.saturating_add(self.sample_latency_ns(from, to, msg_id));
        let released = self.faults.heal_ns(to, arrive)?;
        if self.faults.killed_at(to, released) {
            return None;
        }
        Some(released)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_pure_and_jitter_bounded() {
        let net = NetModel::new(0xFEED, 1_000_000);
        for msg in 0..200u64 {
            let a = net.sample_latency_ns(0, 1, msg);
            assert_eq!(a, net.sample_latency_ns(0, 1, msg), "sampling must be pure");
            assert!(a >= 1_000_000);
            assert!(a <= 1_250_000, "jitter above base/4: {a}");
        }
        // Different messages actually jitter (the link is not constant).
        let spread: std::collections::BTreeSet<u64> = (0..200u64)
            .map(|m| net.sample_latency_ns(0, 1, m))
            .collect();
        assert!(
            spread.len() > 10,
            "jitter degenerate: {} values",
            spread.len()
        );
    }

    #[test]
    fn reordering_emerges_from_jitter() {
        let net = NetModel::new(7, 1_000_000);
        // Two messages sent 1us apart: find a pair where the later one
        // arrives first. With ~250us of jitter this must happen quickly.
        let mut reordered = false;
        for m in 0..100u64 {
            let first = net.delivery_ns(0, 1, m, 0).unwrap();
            let second = net.delivery_ns(0, 1, m + 1, 1_000).unwrap();
            if second < first {
                reordered = true;
                break;
            }
        }
        assert!(reordered, "no reordering across 100 message pairs");
    }

    #[test]
    fn drops_add_retransmit_penalties() {
        let mut lossy = NetModel::new(3, 100_000);
        lossy.set_drop_permille(400);
        let clean = NetModel::new(3, 100_000);
        let penalized = (0..500u64)
            .filter(|&m| lossy.sample_latency_ns(0, 1, m) > clean.sample_latency_ns(0, 1, m))
            .count();
        assert!(
            penalized > 100,
            "40% drop rate penalized only {penalized}/500"
        );
        // Penalties come in whole retransmit timeouts.
        for m in 0..500u64 {
            let delta = lossy.sample_latency_ns(0, 1, m) - clean.sample_latency_ns(0, 1, m);
            assert_eq!(delta % (RETRANSMIT_TIMEOUT_FACTOR * 100_000), 0);
        }
    }

    #[test]
    fn partitions_hold_and_release_messages() {
        let mut net = NetModel::new(9, 1_000);
        net.faults_mut().partition(1, 0, 1_000_000);
        // Receiver partitioned: buffered until the window closes.
        let d = net.delivery_ns(0, 1, 1, 0).unwrap();
        assert_eq!(d, 1_000_000);
        // Sender partitioned: departs at heal, then takes link latency.
        let d = net.delivery_ns(1, 0, 2, 500).unwrap();
        assert!(d >= 1_000_000 + 1_000);
        // After the window, normal delivery.
        let d = net.delivery_ns(0, 1, 3, 2_000_000).unwrap();
        assert!((2_001_000..=2_001_250).contains(&d));
    }

    #[test]
    fn dead_endpoints_never_deliver() {
        let mut net = NetModel::new(11, 1_000);
        net.faults_mut().partition(2, 0, u64::MAX);
        assert_eq!(net.delivery_ns(0, 2, 1, 0), None);
        assert_eq!(net.delivery_ns(2, 0, 1, 0), None);
        net.faults_mut().kill(1, 5_000);
        assert!(
            net.delivery_ns(0, 1, 1, 0).is_some(),
            "arrives before the kill"
        );
        assert_eq!(net.delivery_ns(0, 1, 1, 10_000), None, "receiver dead");
    }
}
