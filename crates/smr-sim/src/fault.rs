//! Deterministic fault injection for the simulated disk.
//!
//! A [`FaultPlan`] is seeded and fully reproducible: the same plan
//! against the same workload injects byte-identical faults on every
//! run. Four fault classes model how SMR deployments actually fail —
//! dirtier than a clean "refuse all writes":
//!
//! * **Torn writes** — a power cut mid-write persists only a prefix of
//!   the extent. The sim marks the whole extent valid (the drive *acked
//!   sectors it never persisted*), so the stale/zero suffix is caught by
//!   host-side CRC validation, not by a tidy device error.
//! * **Read-time corruption** — seeded bit-flips in registered extents,
//!   modelling latent sector bit-rot that only surfaces at read time.
//! * **Transient read errors** — a read fails once with
//!   [`crate::DiskError::TransientRead`]; re-issuing the same read
//!   succeeds, so hosts that retry recover.
//! * **Persistent read errors** — latent sector errors and whole-band
//!   failures that fail *every* read of a registered region with
//!   [`crate::DiskError::UnrecoverableRead`]. No retry budget helps;
//!   the host must relocate or re-materialise the data (the scrubber's
//!   job).
//! * **Fail-slow regions** — reads overlapping a registered region take
//!   a deterministic latency multiplier. No error is returned: the
//!   fault is visible only in latency histograms, modelling the
//!   fail-slow drives IMRSim-style device studies document.
//! * **Crash-point snapshots** — the disk takes a cheap copy-on-write
//!   snapshot of its state every Kth write, letting a harness "power
//!   cut" at arbitrary write boundaries and reopen from each image.
//!
//! The plan only decides *whether and how* to inject; the [`crate::Disk`]
//! performs the injection and counts it in [`crate::stats::FaultStats`].

use crate::extent::Extent;
use std::collections::BTreeSet;

/// Deterministic xorshift64 used to derive injection positions from the
/// plan's seed. Self-contained so `smr-sim` stays dependency-free.
/// Shared with [`crate::net`] so network jitter rides the same mixer.
pub(crate) fn mix(mut x: u64) -> u64 {
    // splitmix64 finalizer: decorrelates consecutive/structured inputs.
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Verdict the plan hands the disk for one write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum WriteFault {
    /// No injection: perform the write normally.
    None,
    /// Tear this write: persist only `persist` bytes of the extent, mark
    /// the whole extent valid, and fail the operation.
    Torn { persist: u64 },
    /// Power already lost (a torn write fired earlier): refuse outright.
    PowerLost,
}

/// A seeded, reproducible fault-injection plan installed on a
/// [`crate::Disk`] via [`crate::Disk::faults_mut`].
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    /// Writes remaining before the next write is torn.
    torn_countdown: Option<u64>,
    /// A torn write already fired: all later writes fail until disarm.
    power_lost: bool,
    /// Extents whose reads come back with seeded bit-flips.
    corrupt: Vec<Extent>,
    /// Reads remaining to fail transiently (first attempt per offset).
    transient_budget: u64,
    /// Offsets that already failed once (their retry succeeds).
    transient_seen: BTreeSet<u64>,
    /// Latent sector errors: every read overlapping one fails.
    unrecoverable: Vec<Extent>,
    /// Whole-band failures: like `unrecoverable`, tracked separately so
    /// the placement layer can enumerate bands to quarantine.
    failed_bands: Vec<Extent>,
    /// Fail-slow regions with their read-latency multiplier.
    fail_slow: Vec<(Extent, u64)>,
    /// Take a disk snapshot every `k` completed writes.
    snapshot_every: Option<u64>,
}

impl FaultPlan {
    /// Creates an inert plan with the given determinism seed (a disk's
    /// own plan is the seed-0 default).
    #[cfg(test)]
    pub(crate) fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..Default::default()
        }
    }

    /// Arms a torn write: the next `n` writes succeed, the one after
    /// persists only a seeded prefix of its extent and fails, and every
    /// write after that fails with [`crate::DiskError::Injected`] until
    /// [`FaultPlan::disarm_torn_writes`] ("power restored").
    pub fn tear_write_after(&mut self, n: u64) {
        self.torn_countdown = Some(n);
        self.power_lost = false;
    }

    /// Disarms torn-write injection; subsequent writes succeed again.
    pub fn disarm_torn_writes(&mut self) {
        self.torn_countdown = None;
        self.power_lost = false;
    }

    /// Registers an extent whose future reads return seeded bit-flips.
    pub fn corrupt_extent(&mut self, ext: Extent) {
        if !ext.is_empty() {
            self.corrupt.push(ext);
        }
    }

    /// Clears all registered read-corruption extents.
    pub fn clear_corruption(&mut self) {
        self.corrupt.clear();
    }

    /// Arms `n` transient read errors: the next `n` distinct read
    /// offsets each fail once with [`crate::DiskError::TransientRead`];
    /// retrying the same read succeeds.
    pub fn fail_reads_transiently(&mut self, n: u64) {
        self.transient_budget = n;
        self.transient_seen.clear();
    }

    /// Registers a latent sector error: every future read overlapping
    /// `ext` fails with [`crate::DiskError::UnrecoverableRead`]. Unlike
    /// transient errors, retries never succeed; the data is only
    /// reachable again once the host relocates it off the bad region.
    pub fn fail_reads_permanently(&mut self, ext: Extent) {
        if !ext.is_empty() {
            self.unrecoverable.push(ext);
        }
    }

    /// Registers a whole-band failure spanning `band`. Reads fail like
    /// latent sector errors; the band is additionally reported through
    /// [`FaultPlan::failed_bands`] so placement can fence it.
    pub fn fail_band(&mut self, band: Extent) {
        if !band.is_empty() {
            self.failed_bands.push(band);
        }
    }

    /// The registered whole-band failures, in registration order.
    pub fn failed_bands(&self) -> &[Extent] {
        &self.failed_bands
    }

    /// Clears all persistent read faults (sector errors and bands).
    pub fn clear_persistent_faults(&mut self) {
        self.unrecoverable.clear();
        self.failed_bands.clear();
    }

    /// Registers a fail-slow region: reads overlapping `ext` take
    /// `multiplier`× their modelled service time (`multiplier >= 1`).
    /// The read still succeeds — the fault shows up only in latency.
    pub fn slow_reads(&mut self, ext: Extent, multiplier: u64) {
        assert!(multiplier >= 1, "fail-slow multiplier must be at least 1");
        if !ext.is_empty() && multiplier > 1 {
            self.fail_slow.push((ext, multiplier));
        }
    }

    /// Clears all fail-slow regions.
    pub fn clear_fail_slow(&mut self) {
        self.fail_slow.clear();
    }

    /// Enables automatic copy-on-write disk snapshots every `k` writes
    /// (`k >= 1`). Snapshots accumulate on the disk until drained with
    /// [`crate::Disk::take_crash_snapshots`].
    pub fn snapshot_every(&mut self, k: u64) {
        assert!(k >= 1, "snapshot interval must be at least 1");
        self.snapshot_every = Some(k);
    }

    /// Disables automatic snapshots.
    pub fn disable_snapshots(&mut self) {
        self.snapshot_every = None;
    }

    /// Decides the fate of the next write of `len` bytes.
    pub(crate) fn on_write(&mut self, len: u64) -> WriteFault {
        if self.power_lost {
            return WriteFault::PowerLost;
        }
        match self.torn_countdown.as_mut() {
            None => WriteFault::None,
            Some(n) if *n > 0 => {
                *n -= 1;
                WriteFault::None
            }
            Some(_) => {
                self.torn_countdown = None;
                self.power_lost = true;
                // Persist a seeded prefix: anywhere from 0 bytes to all
                // but one ([0, len)), so sweeps exercise every boundary.
                let persist = if len <= 1 {
                    0
                } else {
                    mix(self.seed ^ len) % len
                };
                WriteFault::Torn { persist }
            }
        }
    }

    /// True when `ext` overlaps a latent sector error or a failed band:
    /// the read must fail persistently, regardless of retries.
    pub(crate) fn persistent_fault(&self, ext: Extent) -> bool {
        let overlaps = |reg: &Extent| reg.offset.max(ext.offset) < reg.end().min(ext.end());
        self.unrecoverable.iter().any(overlaps) || self.failed_bands.iter().any(overlaps)
    }

    /// The fail-slow latency multiplier for a read of `ext`: the largest
    /// multiplier among overlapping fail-slow regions, or 1 when none
    /// overlap. Deterministic — the same read always slows the same way.
    pub(crate) fn fail_slow_factor(&self, ext: Extent) -> u64 {
        self.fail_slow
            .iter()
            .filter(|(reg, _)| reg.offset.max(ext.offset) < reg.end().min(ext.end()))
            .map(|&(_, m)| m)
            .max()
            .unwrap_or(1)
    }

    /// Decides whether a read of `ext` fails transiently right now.
    pub(crate) fn on_read(&mut self, ext: Extent) -> bool {
        if self.transient_budget == 0 || self.transient_seen.contains(&ext.offset) {
            return false;
        }
        self.transient_budget -= 1;
        self.transient_seen.insert(ext.offset);
        true
    }

    /// Applies seeded bit-flips to `buf` (the bytes just read from
    /// `ext`) wherever it overlaps a registered corrupt extent. Returns
    /// the number of bits flipped. Deterministic: the same read always
    /// sees the same corruption.
    pub(crate) fn corrupt_buf(&self, ext: Extent, buf: &mut [u8]) -> u64 {
        let mut flipped = 0u64;
        for reg in &self.corrupt {
            let start = reg.offset.max(ext.offset);
            let end = reg.end().min(ext.end());
            if start >= end {
                continue;
            }
            // One flip per 4 KiB of overlap, at least one: enough to
            // break any CRC without wholesale trashing the buffer.
            let overlap = end - start;
            let flips = 1 + overlap / 4096;
            for i in 0..flips {
                let h = mix(self.seed ^ reg.offset.rotate_left(17) ^ i);
                let pos = start + h % overlap;
                let bit = (h >> 32) % 8;
                buf[(pos - ext.offset) as usize] ^= 1 << bit;
                flipped += 1;
            }
        }
        flipped
    }

    /// True when a snapshot is due after the `write_index`-th write.
    pub(crate) fn snapshot_due(&self, write_index: u64) -> bool {
        match self.snapshot_every {
            Some(k) => write_index.is_multiple_of(k),
            None => false,
        }
    }
}

/// A network-partition window for one cluster node: while the
/// simulated clock is inside `[from_ns, to_ns)` the node can neither
/// send nor receive replication traffic. Messages addressed to a
/// partitioned node are buffered by the network and released when the
/// window closes; `to_ns == u64::MAX` means the partition never heals.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct PartitionWindow {
    /// Cluster node index the window applies to.
    pub(crate) node: usize,
    /// Start of the window (inclusive), simulated ns.
    pub(crate) from_ns: u64,
    /// End of the window (exclusive), simulated ns.
    pub(crate) to_ns: u64,
}

/// A scheduled node kill: at `at_ns` the node's process dies and never
/// acknowledges anything again. Its disk survives (a rejoin rebuilds
/// from a fresh store plus catch-up streaming; promotion of a replica
/// uses its own disk via the crash-image recovery path).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct NodeKill {
    /// Cluster node index to kill.
    pub(crate) node: usize,
    /// Kill time, simulated ns.
    pub(crate) at_ns: u64,
}

/// Cluster-level fault schedule: partitions and node kills keyed by
/// node index on the shared simulated clock. Installed on a
/// [`crate::net::NetModel`]; the replication harness consults it for
/// promotion eligibility, the network for delivery.
#[derive(Clone, Debug, Default)]
pub struct ClusterFaultPlan {
    partitions: Vec<PartitionWindow>,
    kills: Vec<NodeKill>,
}

impl ClusterFaultPlan {
    /// An empty schedule: every node healthy forever.
    pub(crate) fn new() -> Self {
        ClusterFaultPlan::default()
    }

    /// Schedules a partition of `node` over `[from_ns, to_ns)`.
    /// `to_ns == u64::MAX` never heals.
    pub fn partition(&mut self, node: usize, from_ns: u64, to_ns: u64) {
        assert!(from_ns < to_ns, "empty partition window");
        self.partitions.push(PartitionWindow {
            node,
            from_ns,
            to_ns,
        });
    }

    /// Schedules a kill of `node` at `at_ns`.
    pub fn kill(&mut self, node: usize, at_ns: u64) {
        self.kills.push(NodeKill { node, at_ns });
    }

    /// True while `node` is inside any partition window at time `t_ns`.
    pub fn partitioned_at(&self, node: usize, t_ns: u64) -> bool {
        self.partitions
            .iter()
            .any(|w| w.node == node && w.from_ns <= t_ns && t_ns < w.to_ns)
    }

    /// Earliest time `>= t_ns` at which `node` is unpartitioned, or
    /// `None` if a never-healing window covers it. Chained windows are
    /// followed to a fixpoint.
    pub(crate) fn heal_ns(&self, node: usize, t_ns: u64) -> Option<u64> {
        let mut t = t_ns;
        loop {
            let covering = self
                .partitions
                .iter()
                .filter(|w| w.node == node && w.from_ns <= t && t < w.to_ns)
                .map(|w| w.to_ns)
                .max();
            match covering {
                None => return Some(t),
                Some(u64::MAX) => return None,
                Some(end) => t = end,
            }
        }
    }

    /// True once `node` has been killed at or before `t_ns`.
    pub(crate) fn killed_at(&self, node: usize, t_ns: u64) -> bool {
        self.kills.iter().any(|k| k.node == node && k.at_ns <= t_ns)
    }

    /// Clears every kill scheduled for `node` — the node slot rejoins
    /// the cluster as a fresh process and may receive traffic again.
    pub fn revive(&mut self, node: usize) {
        self.kills.retain(|k| k.node != node);
    }
}

/// The device fault classes a [`FaultPlan`] can inject, enumerated so
/// harnesses (chaos generator, bench coverage counters) can reason
/// about coverage by name instead of by API call.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DeviceFaultClass {
    /// Power cut mid-write: a seeded prefix persists, the drive acked
    /// sectors it never wrote ([`FaultPlan::tear_write_after`]).
    TornWrite,
    /// Latent bit-rot surfacing at read time
    /// ([`FaultPlan::corrupt_extent`]).
    Corruption,
    /// Read fails once, the retry succeeds
    /// ([`FaultPlan::fail_reads_transiently`]).
    TransientRead,
    /// Latent sector error: every overlapping read fails forever
    /// ([`FaultPlan::fail_reads_permanently`]).
    UnrecoverableRead,
    /// Whole-band failure the placement layer must fence
    /// ([`FaultPlan::fail_band`]).
    BandFailure,
    /// Reads succeed but take a latency multiplier
    /// ([`FaultPlan::slow_reads`]).
    FailSlow,
}

impl DeviceFaultClass {
    /// Every device fault class, in declaration order.
    pub const ALL: [DeviceFaultClass; 6] = [
        DeviceFaultClass::TornWrite,
        DeviceFaultClass::Corruption,
        DeviceFaultClass::TransientRead,
        DeviceFaultClass::UnrecoverableRead,
        DeviceFaultClass::BandFailure,
        DeviceFaultClass::FailSlow,
    ];

    /// Stable snake_case name used in schedules and bench artifacts.
    pub fn name(self) -> &'static str {
        match self {
            DeviceFaultClass::TornWrite => "torn_write",
            DeviceFaultClass::Corruption => "corruption",
            DeviceFaultClass::TransientRead => "transient_read",
            DeviceFaultClass::UnrecoverableRead => "unrecoverable_read",
            DeviceFaultClass::BandFailure => "band_failure",
            DeviceFaultClass::FailSlow => "fail_slow",
        }
    }
}

/// The cluster fault classes a [`ClusterFaultPlan`] (plus the harness
/// APIs built on it) can inject, mirroring [`DeviceFaultClass`] for the
/// network/process layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ClusterFaultClass {
    /// A node loses replication traffic over a finite window
    /// ([`ClusterFaultPlan::partition`]).
    Partition,
    /// A node process dies ([`ClusterFaultPlan::kill`]).
    Kill,
    /// A killed node slot rejoins as a fresh process
    /// ([`ClusterFaultPlan::revive`]).
    Revive,
}

impl ClusterFaultClass {
    /// Every cluster fault class, in declaration order.
    pub const ALL: [ClusterFaultClass; 3] = [
        ClusterFaultClass::Partition,
        ClusterFaultClass::Kill,
        ClusterFaultClass::Revive,
    ];

    /// Stable snake_case name used in schedules and bench artifacts.
    pub fn name(self) -> &'static str {
        match self {
            ClusterFaultClass::Partition => "partition",
            ClusterFaultClass::Kill => "kill",
            ClusterFaultClass::Revive => "revive",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_class_names_are_stable_and_distinct() {
        let dev: BTreeSet<&str> = DeviceFaultClass::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(dev.len(), DeviceFaultClass::ALL.len());
        let clu: BTreeSet<&str> = ClusterFaultClass::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(clu.len(), ClusterFaultClass::ALL.len());
        assert!(dev.contains("torn_write") && clu.contains("partition"));
    }

    #[test]
    fn torn_write_fires_once_then_power_stays_lost() {
        let mut p = FaultPlan::new(42);
        p.tear_write_after(2);
        assert_eq!(p.on_write(100), WriteFault::None);
        assert_eq!(p.on_write(100), WriteFault::None);
        let fault = p.on_write(100);
        match fault {
            WriteFault::Torn { persist } => assert!(persist < 100),
            other => panic!("expected torn write, got {other:?}"),
        }
        assert_eq!(p.on_write(100), WriteFault::PowerLost);
        assert_eq!(p.on_write(50), WriteFault::PowerLost);
        p.disarm_torn_writes();
        assert_eq!(p.on_write(100), WriteFault::None);
    }

    #[test]
    fn torn_prefix_is_deterministic_per_seed() {
        let persist = |seed: u64| {
            let mut p = FaultPlan::new(seed);
            p.tear_write_after(0);
            match p.on_write(4096) {
                WriteFault::Torn { persist } => persist,
                other => panic!("expected torn write, got {other:?}"),
            }
        };
        assert_eq!(persist(7), persist(7));
        // Different seeds land different crash points (overwhelmingly).
        assert_ne!(persist(7), persist(8));
    }

    #[test]
    fn transient_reads_fail_once_per_offset() {
        let mut p = FaultPlan::new(1);
        p.fail_reads_transiently(2);
        let a = Extent::new(0, 512);
        let b = Extent::new(4096, 512);
        let c = Extent::new(8192, 512);
        assert!(p.on_read(a)); // fails
        assert!(!p.on_read(a)); // retry succeeds
        assert!(p.on_read(b)); // second budgeted failure
        assert!(!p.on_read(b));
        assert!(!p.on_read(c)); // budget exhausted
    }

    #[test]
    fn corruption_flips_bits_deterministically_within_overlap() {
        let p = {
            let mut p = FaultPlan::new(99);
            p.corrupt_extent(Extent::new(1000, 100));
            p
        };
        let read = Extent::new(900, 300);
        let mut buf1 = vec![0u8; 300];
        let n1 = p.corrupt_buf(read, &mut buf1);
        assert!(n1 > 0);
        // Flips stay inside the registered overlap [1000, 1100).
        for (i, &b) in buf1.iter().enumerate() {
            if b != 0 {
                let abs = 900 + i as u64;
                assert!((1000..1100).contains(&abs), "flip outside overlap at {abs}");
            }
        }
        // Same read, same corruption.
        let mut buf2 = vec![0u8; 300];
        let n2 = p.corrupt_buf(read, &mut buf2);
        assert_eq!(n1, n2);
        assert_eq!(buf1, buf2);
        // A read that misses the extent is untouched.
        let mut clean = vec![0u8; 64];
        assert_eq!(p.corrupt_buf(Extent::new(0, 64), &mut clean), 0);
        assert!(clean.iter().all(|&b| b == 0));
    }

    #[test]
    fn persistent_faults_fail_every_overlapping_read() {
        let mut p = FaultPlan::new(3);
        p.fail_reads_permanently(Extent::new(4096, 512));
        p.fail_band(Extent::new(1 << 20, 1 << 16));
        // Overlap anywhere in the region fails, repeatedly.
        for _ in 0..3 {
            assert!(p.persistent_fault(Extent::new(4000, 200)));
            assert!(p.persistent_fault(Extent::new(4500, 4096)));
            assert!(p.persistent_fault(Extent::new((1 << 20) + 100, 8)));
        }
        // Adjacent-but-disjoint reads are fine.
        assert!(!p.persistent_fault(Extent::new(0, 4096)));
        assert!(!p.persistent_fault(Extent::new(4608, 100)));
        assert_eq!(p.failed_bands().len(), 1);
        assert_eq!(p.unrecoverable.len(), 1);
        p.clear_persistent_faults();
        assert!(!p.persistent_fault(Extent::new(4096, 512)));
        assert!(p.failed_bands().is_empty());
    }

    #[test]
    fn fail_slow_factor_is_max_overlap_or_one() {
        let mut p = FaultPlan::new(4);
        assert_eq!(p.fail_slow_factor(Extent::new(0, 100)), 1);
        p.slow_reads(Extent::new(1000, 1000), 4);
        p.slow_reads(Extent::new(1500, 100), 9);
        assert_eq!(p.fail_slow_factor(Extent::new(0, 100)), 1);
        assert_eq!(p.fail_slow_factor(Extent::new(1100, 10)), 4);
        assert_eq!(p.fail_slow_factor(Extent::new(1400, 200)), 9);
        // Multiplier 1 registrations are no-ops.
        p.clear_fail_slow();
        p.slow_reads(Extent::new(1000, 1000), 1);
        assert_eq!(p.fail_slow_factor(Extent::new(1100, 10)), 1);
    }

    #[test]
    fn partition_windows_cover_and_heal() {
        let mut plan = ClusterFaultPlan::new();
        plan.partition(1, 100, 200);
        plan.partition(1, 200, 300); // chained window
        plan.partition(2, 50, u64::MAX);
        assert!(!plan.partitioned_at(1, 99));
        assert!(plan.partitioned_at(1, 100));
        assert!(plan.partitioned_at(1, 250));
        assert!(!plan.partitioned_at(1, 300));
        assert!(!plan.partitioned_at(0, 150));
        assert_eq!(plan.heal_ns(1, 150), Some(300));
        assert_eq!(plan.heal_ns(1, 300), Some(300));
        assert_eq!(plan.heal_ns(0, 150), Some(150));
        assert_eq!(plan.heal_ns(2, 60), None);
    }

    #[test]
    fn kills_are_permanent() {
        let mut plan = ClusterFaultPlan::new();
        plan.kill(0, 500);
        assert!(!plan.killed_at(0, 499));
        assert!(plan.killed_at(0, 500));
        assert!(plan.killed_at(0, u64::MAX));
        assert!(!plan.killed_at(1, u64::MAX));
        assert_eq!(plan.kills.len(), 1);
        assert!(plan.partitions.is_empty());
        plan.revive(0);
        assert!(!plan.killed_at(0, u64::MAX));
    }

    #[test]
    fn snapshot_cadence() {
        let mut p = FaultPlan::new(0);
        assert!(!p.snapshot_due(5));
        p.snapshot_every(3);
        assert!(p.snapshot_due(3));
        assert!(!p.snapshot_due(4));
        assert!(p.snapshot_due(6));
        p.disable_snapshots();
        assert!(!p.snapshot_due(6));
    }
}
