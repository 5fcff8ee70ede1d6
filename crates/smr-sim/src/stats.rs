//! I/O accounting: the paper's Table I quantities.
//!
//! * `WA`  — write amplification of the LSM-tree: bytes written by flushes
//!   and compactions divided by user payload bytes.
//! * `AWA` — auxiliary write amplification of the SMR drive: bytes the
//!   device physically wrote divided by the bytes the host asked it to
//!   write (read-modify-write overhead).
//! * `MWA = WA × AWA` — multiplicative overall write amplification:
//!   device bytes written per user payload byte.

use std::fmt;

/// Classification of each host I/O, used to attribute bytes to the right
/// numerator/denominator of the amplification ratios.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IoKind {
    /// Write-ahead-log append.
    Wal,
    /// Memtable flush writing an L0 table.
    Flush,
    /// Compaction input read.
    CompactionRead,
    /// Compaction output write.
    CompactionWrite,
    /// Point-lookup read.
    Get,
    /// Range-scan read.
    Scan,
    /// Metadata (manifest, footers read at open, ...).
    Meta,
    /// Anything else (raw device micro-benchmarks).
    Raw,
    /// Garbage-collection relocation traffic (set migration).
    Gc,
    /// Value-log segment append (user values diverted out of the LSM).
    VlogAppend,
    /// Value-log garbage collection: live values relocated to a fresh
    /// segment, plus the reads that found them.
    VlogGc,
}

impl IoKind {
    /// All variants, for iteration in reports.
    pub const ALL: [IoKind; 11] = [
        IoKind::Wal,
        IoKind::Flush,
        IoKind::CompactionRead,
        IoKind::CompactionWrite,
        IoKind::Get,
        IoKind::Scan,
        IoKind::Meta,
        IoKind::Raw,
        IoKind::Gc,
        IoKind::VlogAppend,
        IoKind::VlogGc,
    ];

    fn index(self) -> usize {
        match self {
            IoKind::Wal => 0,
            IoKind::Flush => 1,
            IoKind::CompactionRead => 2,
            IoKind::CompactionWrite => 3,
            IoKind::Get => 4,
            IoKind::Scan => 5,
            IoKind::Meta => 6,
            IoKind::Raw => 7,
            IoKind::Gc => 8,
            IoKind::VlogAppend => 9,
            IoKind::VlogGc => 10,
        }
    }
}

/// Per-kind byte and operation counters.
#[derive(Clone, Copy, Default, Debug)]
pub struct KindCounters {
    /// Bytes the host requested to read.
    pub logical_read: u64,
    /// Bytes the host requested to write.
    pub logical_written: u64,
    /// Bytes the device physically read (includes RMW prefix reads).
    pub device_read: u64,
    /// Bytes the device physically wrote (includes RMW rewrites).
    pub device_written: u64,
    /// Host operations issued.
    pub ops: u64,
    /// Simulated time spent servicing this kind, ns.
    pub time_ns: u64,
}

/// Fault-path activity: injected faults and how the stack above reacted.
/// The disk counts what it injects; the engine counts retries and
/// checksum verdicts, so bench runs can report fault-path coverage.
#[derive(Clone, Copy, Default, Debug)]
pub struct FaultStats {
    /// Writes refused outright by injection (`DiskError::Injected`).
    pub injected_write_failures: u64,
    /// Torn writes: only a prefix of the extent reached the platter.
    pub torn_writes: u64,
    /// Reads whose returned bytes had injected bit-flips.
    pub read_corruptions: u64,
    /// Injected transient read errors (`DiskError::TransientRead`).
    pub transient_read_errors: u64,
    /// Injected persistent read errors (`DiskError::UnrecoverableRead`):
    /// latent sector errors and failed bands.
    pub unrecoverable_reads: u64,
    /// Reads slowed by an injected fail-slow region (the read succeeded
    /// but took its multiplier times the modelled service time).
    pub fail_slow_reads: u64,
    /// Read retries issued by the host after a transient error.
    pub read_retries: u64,
    /// Checksum validation failures detected by the host (WAL fragments,
    /// SSTable blocks, manifest records).
    pub checksum_failures: u64,
}

impl FaultStats {
    /// True if any fault-path counter is non-zero.
    pub(crate) fn any(&self) -> bool {
        self.injected_write_failures != 0
            || self.torn_writes != 0
            || self.read_corruptions != 0
            || self.transient_read_errors != 0
            || self.unrecoverable_reads != 0
            || self.fail_slow_reads != 0
            || self.read_retries != 0
            || self.checksum_failures != 0
    }
}

/// Aggregated I/O statistics for one disk.
#[derive(Clone, Default, Debug)]
pub struct IoStats {
    by_kind: [KindCounters; 11],
    /// User payload bytes (key+value sizes of successful puts), reported by
    /// the KV store on top — the denominator of WA and MWA.
    pub user_payload: u64,
    /// Number of accesses that required a mechanical seek.
    pub seeks: u64,
    /// Number of band read-modify-write events (fixed-band layout only).
    pub band_rmw_events: u64,
    /// Fault-injection and recovery-path counters.
    pub faults: FaultStats,
}

impl IoStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a host read.
    pub fn record_read(&mut self, kind: IoKind, logical: u64, device: u64, time_ns: u64) {
        let c = &mut self.by_kind[kind.index()];
        c.logical_read += logical;
        c.device_read += device;
        c.ops += 1;
        c.time_ns += time_ns;
    }

    /// Records a host write; `device` includes any RMW rewrite bytes.
    pub fn record_write(&mut self, kind: IoKind, logical: u64, device: u64, time_ns: u64) {
        let c = &mut self.by_kind[kind.index()];
        c.logical_written += logical;
        c.device_written += device;
        c.ops += 1;
        c.time_ns += time_ns;
    }

    /// Adds extra device-side read bytes (RMW prefix reads) to a kind.
    pub(crate) fn record_device_read_overhead(&mut self, kind: IoKind, bytes: u64) {
        self.by_kind[kind.index()].device_read += bytes;
    }

    /// Counters for one kind.
    pub fn kind(&self, kind: IoKind) -> KindCounters {
        self.by_kind[kind.index()]
    }

    /// Total bytes the host asked to write, all kinds.
    pub fn logical_written_total(&self) -> u64 {
        self.by_kind.iter().map(|c| c.logical_written).sum()
    }

    /// Bytes written by the LSM-tree itself (flush + compaction outputs):
    /// the numerator of the compaction-WA component.
    pub fn lsm_written(&self) -> u64 {
        self.kind(IoKind::Flush).logical_written
            + self.kind(IoKind::CompactionWrite).logical_written
    }

    /// Bytes written to the value log (user-value appends plus GC
    /// relocations): the numerator of the vlog-WA component. Zero when
    /// key-value separation is off.
    pub fn vlog_written(&self) -> u64 {
        self.kind(IoKind::VlogAppend).logical_written + self.kind(IoKind::VlogGc).logical_written
    }

    /// Device bytes attributable to rewrite traffic (flush + compaction +
    /// value-log writes, including RMW overhead): the numerator of AWA
    /// restricted to store-internal write traffic.
    fn lsm_device_written(&self) -> u64 {
        self.kind(IoKind::Flush).device_written
            + self.kind(IoKind::CompactionWrite).device_written
            + self.kind(IoKind::VlogAppend).device_written
            + self.kind(IoKind::VlogGc).device_written
    }

    /// Write amplification of the store (Table I: `WA`), covering every
    /// byte the engine rewrites on the user's behalf: flush + compaction
    /// plus value-log appends and GC relocations. With key-value
    /// separation off this equals the compaction-only ratio the paper
    /// reports; with it on, the components are attributable separately
    /// via [`IoStats::wa_compaction`] and [`IoStats::wa_vlog_gc`].
    pub fn wa(&self) -> f64 {
        neutral_ratio(self.lsm_written() + self.vlog_written(), self.user_payload)
    }

    /// Compaction-driven component of WA: flush + compaction bytes per
    /// user payload byte.
    pub fn wa_compaction(&self) -> f64 {
        neutral_ratio(self.lsm_written(), self.user_payload)
    }

    /// Value-log component of WA: vlog append + GC relocation bytes per
    /// user payload byte. Neutral 1.0 under the zero-denominator
    /// convention; ~0 contribution shows up as `wa() ≈ wa_compaction()`.
    pub fn wa_vlog_gc(&self) -> f64 {
        neutral_ratio(self.vlog_written(), self.user_payload)
    }

    /// Auxiliary write amplification of the SMR drive (Table I: `AWA`),
    /// computed over store-internal write traffic as in the paper.
    pub fn awa(&self) -> f64 {
        neutral_ratio(
            self.lsm_device_written(),
            self.lsm_written() + self.vlog_written(),
        )
    }

    /// Multiplicative overall write amplification (Table I: `MWA`).
    pub fn mwa(&self) -> f64 {
        neutral_ratio(self.lsm_device_written(), self.user_payload)
    }
}

/// Ratio with a defined zero-denominator result: the neutral 1.0. A
/// store opened and closed without traffic has nothing to amplify and
/// nothing to miss; reporting 1.0 (rather than 0.0 or NaN) keeps
/// `MWA = WA × AWA` exact, keeps exported metrics CSVs free of NaN, and
/// reads as "perfect" for hit ratios — the convention every exported
/// ratio in the workspace follows (see DESIGN.md, "Ratio conventions").
pub fn neutral_ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        1.0
    } else {
        num as f64 / den as f64
    }
}

impl fmt::Display for IoStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<16} {:>12} {:>12} {:>12} {:>12} {:>8}",
            "kind", "log.read", "log.write", "dev.read", "dev.write", "ops"
        )?;
        for kind in IoKind::ALL {
            let c = self.kind(kind);
            if c.ops == 0 {
                continue;
            }
            writeln!(
                f,
                "{:<16} {:>12} {:>12} {:>12} {:>12} {:>8}",
                format!("{kind:?}"),
                c.logical_read,
                c.logical_written,
                c.device_read,
                c.device_written,
                c.ops
            )?;
        }
        writeln!(
            f,
            "user payload {}  WA {:.2}  AWA {:.2}  MWA {:.2}  seeks {}  band RMW {}",
            self.user_payload,
            self.wa(),
            self.awa(),
            self.mwa(),
            self.seeks,
            self.band_rmw_events
        )?;
        if self.faults.any() {
            let ft = &self.faults;
            writeln!(
                f,
                "faults: injected-write {}  torn {}  read-corrupt {}  transient-read {}  unrecoverable {}  fail-slow {}  retries {}  checksum-fail {}",
                ft.injected_write_failures,
                ft.torn_writes,
                ft.read_corruptions,
                ft.transient_read_errors,
                ft.unrecoverable_reads,
                ft.fail_slow_reads,
                ft.read_retries,
                ft.checksum_failures
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amplification_math() {
        let mut s = IoStats::new();
        s.user_payload = 100;
        // Flush writes 100 logical / 100 device.
        s.record_write(IoKind::Flush, 100, 100, 1);
        // Compaction writes 900 logical, device amplifies to 4500.
        s.record_write(IoKind::CompactionWrite, 900, 4500, 1);
        assert!((s.wa() - 10.0).abs() < 1e-9);
        assert!((s.awa() - 4.6).abs() < 1e-9);
        assert!((s.mwa() - 46.0).abs() < 1e-9);
        // MWA == WA * AWA by construction.
        assert!((s.mwa() - s.wa() * s.awa()).abs() < 1e-9);
    }

    #[test]
    fn wal_not_counted_in_wa() {
        let mut s = IoStats::new();
        s.user_payload = 100;
        s.record_write(IoKind::Wal, 120, 120, 1);
        s.record_write(IoKind::Flush, 100, 100, 1);
        assert!((s.wa() - 1.0).abs() < 1e-9);
        assert_eq!(s.logical_written_total(), 220);
    }

    #[test]
    fn zero_denominators_yield_neutral_ratio() {
        // Open-and-close with no writes: amplification is defined (1.0),
        // never NaN, and MWA == WA * AWA still holds.
        let s = IoStats::new();
        assert_eq!(s.wa(), 1.0);
        assert_eq!(s.awa(), 1.0);
        assert_eq!(s.mwa(), 1.0);
        assert!(s.wa().is_finite() && s.awa().is_finite() && s.mwa().is_finite());
        assert!((s.mwa() - s.wa() * s.awa()).abs() < 1e-9);
    }

    #[test]
    fn fault_counters_render_only_when_active() {
        let mut s = IoStats::new();
        assert!(!s.faults.any());
        assert!(!format!("{s}").contains("faults:"));
        s.faults.torn_writes += 1;
        s.faults.read_retries += 2;
        assert!(s.faults.any());
        let text = format!("{s}");
        assert!(text.contains("torn 1"));
        assert!(text.contains("retries 2"));
    }

    #[test]
    fn wa_splits_into_compaction_and_vlog_components() {
        let mut s = IoStats::new();
        s.user_payload = 1000;
        s.record_write(IoKind::Flush, 500, 500, 1);
        s.record_write(IoKind::CompactionWrite, 1500, 1500, 1);
        s.record_write(IoKind::VlogAppend, 800, 800, 1);
        s.record_write(IoKind::VlogGc, 200, 200, 1);
        assert!((s.wa_compaction() - 2.0).abs() < 1e-9);
        assert!((s.wa_vlog_gc() - 1.0).abs() < 1e-9);
        assert!((s.wa() - 3.0).abs() < 1e-9);
        // The components sum to the headline number.
        assert!((s.wa() - (s.wa_compaction() + s.wa_vlog_gc())).abs() < 1e-9);
        // MWA == WA * AWA still holds with vlog traffic in both ratios.
        assert!((s.mwa() - s.wa() * s.awa()).abs() < 1e-9);
    }

    #[test]
    fn vlog_off_leaves_wa_unchanged() {
        let mut s = IoStats::new();
        s.user_payload = 100;
        s.record_write(IoKind::Flush, 100, 100, 1);
        s.record_write(IoKind::CompactionWrite, 900, 4500, 1);
        // No vlog traffic: the headline WA equals the compaction-only
        // component, exactly as before key-value separation existed.
        assert_eq!(s.vlog_written(), 0);
        assert!((s.wa() - s.wa_compaction()).abs() < 1e-9);
        assert!((s.wa() - 10.0).abs() < 1e-9);
        assert!((s.awa() - 4.6).abs() < 1e-9);
    }

    #[test]
    fn per_kind_attribution() {
        let mut s = IoStats::new();
        s.record_read(IoKind::Get, 4096, 4096, 15_000_000);
        s.record_read(IoKind::CompactionRead, 1 << 20, 1 << 20, 6_000_000);
        assert_eq!(s.kind(IoKind::Get).ops, 1);
        assert_eq!(s.kind(IoKind::Get).logical_read, 4096);
        let read: u64 = s.by_kind.iter().map(|c| c.logical_read).sum();
        assert_eq!(read, 4096 + (1 << 20));
    }
}
