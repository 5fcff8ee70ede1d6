//! The simulated disk: one backing store, one mechanical time model, and
//! one of four layouts:
//!
//! * [`Layout::Hdd`] — a conventional drive; any write anywhere.
//! * [`Layout::FixedBand`] — a conventional SMR drive with fixed-size
//!   bands. Appending at a band's write pointer (or continuing a
//!   just-written run) is free of penalty; any other write forces a
//!   read-modify-write of the band's written prefix, which is how the
//!   auxiliary write amplification (AWA) of the paper's §II-C arises.
//! * [`Layout::RawHmSmr`] — the paper's primitive host-managed drive
//!   (Caveat-Scriptor style): writes may land anywhere but must never
//!   overlap valid data, and the shingle-direction damage window of
//!   `guard_bytes` following a write must not contain valid data. The
//!   disk *faults* instead of corrupting, so tests can prove SEALDB's
//!   dynamic band manager honours the contract.
//! * [`Layout::HaSmr`] — a host-aware drive: fixed bands plus a
//!   persistent media cache absorbing out-of-order writes, drained by a
//!   stop-the-world cleaning pass (the paper's §II-C bimodality).

use crate::audit::ShingleAuditor;
use crate::error::{DiskError, DiskResult};
use crate::extent::{Extent, ExtentSet};
use crate::fault::{FaultPlan, WriteFault};
use crate::obs::{Obs, ObsEventKind, ObsLayer};
use crate::stats::{IoKind, IoStats};
use crate::store::SparseStore;
use crate::timemodel::TimeModel;
use crate::trace::{TraceDir, TraceRecorder};
use std::collections::BTreeMap;

/// Controller/cache overhead charged to conventional-zone writes (WAL,
/// manifest, filesystem journal), which drives absorb in their write
/// cache without repositioning the data head.
const CONV_WRITE_OVERHEAD_NS: u64 = 200_000;

/// Number of read-ahead segments the drive's track buffer tracks.
/// Reads continuing any live segment cost pure transfer (the data was
/// prefetched), matching real drives' segmented caches. With more
/// concurrent sequential streams than segments, replacement is random,
/// so the hit rate degrades to segments/streams instead of collapsing
/// to zero as strict LRU would — this is the mechanism that makes
/// many-way merges (SMRDB's overlapping level 0) pay near-random-read
/// cost, the paper's 701-second compactions.
const READ_SEGMENTS: usize = 6;

/// On-disk data organisation.
#[derive(Clone, Copy, Debug)]
pub enum Layout {
    /// Conventional (non-shingled) drive.
    Hdd,
    /// Conventional SMR drive with fixed bands of `band_size` bytes.
    FixedBand {
        /// Size of each physical band in bytes.
        band_size: u64,
    },
    /// Raw host-managed SMR: shingled tracks only, no fixed bands.
    RawHmSmr {
        /// Bytes damaged in the shingle direction past a write's end.
        guard_bytes: u64,
    },
    /// Host-aware SMR: fixed bands plus a persistent media cache that
    /// absorbs non-sequential writes; a background cleaning pass
    /// read-modify-writes every dirty band once the cache fills. This is
    /// the drive class the paper's SII-C dismisses: "cache cleaning
    /// processes induce large latency as well as write amplification and
    /// bring a bimodal behavior".
    HaSmr {
        /// Size of each physical band in bytes.
        band_size: u64,
        /// Persistent media-cache capacity in bytes.
        media_cache_bytes: u64,
    },
}

/// Per-band write state for the fixed-band layout.
#[derive(Clone, Copy, Debug, Default)]
struct BandState {
    /// High-water mark of written bytes within the band.
    wp: u64,
    /// Absolute offset at which a sequential continuation may proceed
    /// without a new read-modify-write. `u64::MAX` = none.
    cursor: u64,
}

/// A copy-on-write image of a disk's persistent state at one write
/// boundary: contents, valid-extent set, band write pointers and
/// media-cache occupancy. Cheap to take (chunks are shared until
/// modified) so the crash-point harness can capture one every Kth write
/// and later "power-cut" the disk back to it with [`Disk::restore`].
///
/// Volatile state — the simulated clock, statistics, traces and the
/// read-ahead segments — is deliberately *not* part of the image: a
/// power cut does not rewind time.
#[derive(Debug, Clone)]
pub struct DiskSnapshot {
    write_index: u64,
    store: SparseStore,
    valid: ExtentSet,
    bands: BTreeMap<u64, BandState>,
    cache_used: u64,
    dirty_bands: BTreeMap<u64, u64>,
}

impl DiskSnapshot {
    /// Number of writes the disk had completed when this image was taken.
    pub fn write_index(&self) -> u64 {
        self.write_index
    }
}

/// A simulated disk.
#[derive(Debug)]
pub struct Disk {
    capacity: u64,
    layout: Layout,
    model: TimeModel,
    store: SparseStore,
    clock_ns: u64,
    head: u64,
    stats: IoStats,
    trace: TraceRecorder,
    /// Valid (readable) data. For `RawHmSmr` this is the layout-enforcing
    /// set; for the other layouts it guards against use-after-free reads.
    valid: ExtentSet,
    bands: BTreeMap<u64, BandState>,
    trace_tag: u64,
    trace_file: u64,
    /// Read-ahead segments: end offsets of live streams (random
    /// replacement).
    read_streams: Vec<u64>,
    /// Deterministic replacement state.
    stream_rr: u64,
    /// HA-SMR: bytes currently staged in the media cache.
    cache_used: u64,
    /// HA-SMR: dirty bands (band start -> highest staged end within).
    dirty_bands: BTreeMap<u64, u64>,
    /// HA-SMR: completed cleaning passes.
    cleanings: u64,
    /// Fault injection: remaining writes before the disk starts failing.
    writes_until_failure: Option<u64>,
    /// Seeded fault-injection plan (torn writes, read corruption,
    /// transient read errors, snapshot cadence).
    faults: FaultPlan,
    /// Successfully completed writes, driving the snapshot cadence.
    write_index: u64,
    /// Automatic crash-point snapshots pending collection.
    auto_snaps: Vec<DiskSnapshot>,
    /// Unified observability sink shared by every layer above. Volatile:
    /// like the statistics, it is not rolled back by [`Disk::restore`].
    obs: Obs,
    /// Debug-build shadow check of the raw HM-SMR shingle contract.
    /// `None` in release builds and for every other layout.
    auditor: Option<ShingleAuditor>,
}

impl Disk {
    /// Creates a disk of `capacity` bytes with the given layout and model.
    pub fn new(capacity: u64, layout: Layout, model: TimeModel) -> Self {
        if let Layout::FixedBand { band_size } = layout {
            assert!(band_size > 0, "band size must be positive");
        }
        let auditor = match layout {
            Layout::RawHmSmr { guard_bytes } if cfg!(debug_assertions) => {
                Some(ShingleAuditor::new(capacity, guard_bytes))
            }
            _ => None,
        };
        Disk {
            capacity,
            layout,
            model,
            auditor,
            store: SparseStore::new(),
            clock_ns: 0,
            head: 0,
            stats: IoStats::new(),
            trace: TraceRecorder::new(),
            valid: ExtentSet::new(),
            bands: BTreeMap::new(),
            trace_tag: 0,
            trace_file: 0,
            read_streams: Vec::new(),
            stream_rr: 0x9E3779B97F4A7C15,
            cache_used: 0,
            dirty_bands: BTreeMap::new(),
            cleanings: 0,
            writes_until_failure: None,
            faults: FaultPlan::default(),
            write_index: 0,
            auto_snaps: Vec::new(),
            obs: Obs::new(),
        }
    }

    /// Disk capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// The configured layout.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Band size, when the layout has fixed bands.
    pub fn band_size(&self) -> Option<u64> {
        match self.layout {
            Layout::FixedBand { band_size } | Layout::HaSmr { band_size, .. } => Some(band_size),
            _ => None,
        }
    }

    /// HA-SMR: number of cleaning passes performed.
    pub fn cleaning_passes(&self) -> u64 {
        self.cleanings
    }

    /// Simulated time elapsed since creation, nanoseconds.
    pub fn clock_ns(&self) -> u64 {
        self.clock_ns
    }

    /// Advances the clock without I/O (models CPU work if desired).
    pub fn advance_ns(&mut self, ns: u64) {
        self.clock_ns += ns;
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// Mutable statistics (the KV store credits `user_payload` here).
    pub fn stats_mut(&mut self) -> &mut IoStats {
        &mut self.stats
    }

    /// The unified observability sink (metrics registry, latency
    /// histograms, event tracer). All layers above the disk account here
    /// via `FileStore::disk_mut()`, so one store has exactly one sink.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Mutable observability sink.
    pub fn obs_mut(&mut self) -> &mut Obs {
        &mut self.obs
    }

    /// Records a trace event stamped with the current simulated time.
    pub fn obs_event(&mut self, layer: ObsLayer, kind: ObsEventKind, a: u64, b: u64) {
        let t = self.clock_ns;
        self.obs.event(t, layer, kind, a, b);
    }

    /// The trace recorder.
    pub fn trace(&self) -> &TraceRecorder {
        &self.trace
    }

    /// Mutable trace recorder (enable/clear).
    pub fn trace_mut(&mut self) -> &mut TraceRecorder {
        &mut self.trace
    }

    /// Sets the grouping tag stamped on subsequent traced accesses.
    pub fn set_trace_tag(&mut self, tag: u64) {
        self.trace_tag = tag;
    }

    /// Sets the file id stamped on subsequent traced accesses.
    pub fn set_trace_file(&mut self, file: u64) {
        self.trace_file = file;
    }

    /// Snapshot of the valid-data extents (address order).
    pub fn valid_extents(&self) -> Vec<Extent> {
        self.valid.iter().collect()
    }

    /// Total valid bytes on the disk.
    pub fn valid_bytes(&self) -> u64 {
        self.valid.covered_bytes()
    }

    /// Highest end offset of any valid extent.
    pub fn valid_high_water(&self) -> u64 {
        self.valid.max_end()
    }

    /// Number of distinct fixed bands an extent touches (1 for other
    /// layouts). Used by the Fig. 3(a) analysis.
    pub fn bands_touched(&self, ext: Extent) -> u64 {
        match self.layout {
            Layout::FixedBand { band_size } | Layout::HaSmr { band_size, .. }
                if !ext.is_empty() =>
            {
                let first = ext.offset / band_size;
                let last = (ext.end() - 1) / band_size;
                last - first + 1
            }
            _ => 1,
        }
    }

    /// Fault injection: after `n` more successful writes every further
    /// write fails with [`DiskError::Injected`], modelling a crash or a
    /// dying drive. `None` disables injection.
    pub fn fail_writes_after(&mut self, n: Option<u64>) {
        self.writes_until_failure = n;
    }

    /// The installed fault-injection plan.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Mutable access to the fault-injection plan (arm/disarm faults).
    pub fn faults_mut(&mut self) -> &mut FaultPlan {
        &mut self.faults
    }

    /// Number of writes completed successfully since creation. Torn or
    /// refused writes do not count; this is the index auto-snapshots and
    /// crash-point sweeps are keyed on.
    pub fn writes_issued(&self) -> u64 {
        self.write_index
    }

    /// Takes a copy-on-write snapshot of the disk's persistent state.
    pub fn snapshot(&self) -> DiskSnapshot {
        DiskSnapshot {
            write_index: self.write_index,
            store: self.store.clone(),
            valid: self.valid.clone(),
            bands: self.bands.clone(),
            cache_used: self.cache_used,
            dirty_bands: self.dirty_bands.clone(),
        }
    }

    /// Restores the disk's persistent state from `snap`, as if power was
    /// cut right after the snapshot's write and the machine rebooted.
    /// The clock and statistics keep advancing monotonically (a crash
    /// does not rewind time); the read-ahead segments are cold again.
    pub fn restore(&mut self, snap: &DiskSnapshot) {
        self.store = snap.store.clone();
        self.valid = snap.valid.clone();
        self.bands = snap.bands.clone();
        self.cache_used = snap.cache_used;
        self.dirty_bands = snap.dirty_bands.clone();
        self.write_index = snap.write_index;
        self.read_streams.clear();
        self.head = 0;
        // The valid set was rolled back wholesale; resync the shadow
        // model to the restored state.
        if let Some(aud) = self.auditor.as_mut() {
            aud.reset_to(self.valid.iter());
        }
    }

    /// Drains the automatic crash-point snapshots accumulated so far
    /// (enabled via [`FaultPlan::snapshot_every`]).
    pub fn take_crash_snapshots(&mut self) -> Vec<DiskSnapshot> {
        std::mem::take(&mut self.auto_snaps)
    }

    fn consume_write_budget(&mut self) -> DiskResult<()> {
        if let Some(left) = self.writes_until_failure.as_mut() {
            if *left == 0 {
                self.stats.faults.injected_write_failures += 1;
                self.obs_event(ObsLayer::Device, ObsEventKind::InjectedWriteFailure, 0, 0);
                return Err(DiskError::Injected);
            }
            *left -= 1;
        }
        Ok(())
    }

    /// Bookkeeping after a successful host write: advances the write
    /// index and captures an automatic snapshot when one is due.
    fn note_write_complete(&mut self) {
        self.write_index += 1;
        if self.faults.snapshot_due(self.write_index) {
            self.auto_snaps.push(self.snapshot());
        }
    }

    /// Performs an injected torn write: only `persist` bytes of the
    /// extent reach the platter, yet the whole extent is marked valid —
    /// the drive acknowledged sectors it never persisted, so the stale
    /// suffix must be caught by host-side checksums, not by a device
    /// error. Bypasses layout legality checks (the engine only issues
    /// layout-legal writes; the fault models the *device* dying
    /// mid-transfer, not the host misbehaving).
    fn perform_torn_write(&mut self, ext: Extent, data: &[u8], persist: u64) -> DiskResult<()> {
        if persist > 0 {
            self.store.write(ext.offset, &data[..persist as usize]);
        }
        self.valid.insert(ext);
        self.stats.faults.torn_writes += 1;
        self.obs_event(
            ObsLayer::Device,
            ObsEventKind::TornWrite,
            ext.offset,
            persist,
        );
        Err(DiskError::TornWrite { ext })
    }

    fn check_range(&self, ext: Extent) -> DiskResult<()> {
        if ext.end() > self.capacity {
            return Err(DiskError::OutOfRange {
                ext,
                capacity: self.capacity,
            });
        }
        Ok(())
    }

    /// Reads an extent. The extent must be entirely valid (written and not
    /// invalidated since).
    pub fn read(&mut self, ext: Extent, kind: IoKind) -> DiskResult<Vec<u8>> {
        self.check_range(ext)?;
        if !self.valid.covers(ext) {
            return Err(DiskError::ReadUnwritten { ext });
        }
        // Persistent faults dominate: a latent sector error fails the
        // read before any transient budget is consumed, so retrying the
        // same extent keeps failing exactly the same way.
        if self.faults.persistent_fault(ext) {
            self.stats.faults.unrecoverable_reads += 1;
            self.obs_event(
                ObsLayer::Device,
                ObsEventKind::UnrecoverableRead,
                ext.offset,
                ext.len,
            );
            return Err(DiskError::UnrecoverableRead { ext });
        }
        if self.faults.on_read(ext) {
            self.stats.faults.transient_read_errors += 1;
            self.obs_event(
                ObsLayer::Device,
                ObsEventKind::TransientReadError,
                ext.offset,
                ext.len,
            );
            return Err(DiskError::TransientRead { ext });
        }
        // Segmented read-ahead: a read continuing a live stream is served
        // from the track buffer at transfer speed.
        let stream_hit = self.read_streams.iter().position(|&end| end == ext.offset);
        let t = match stream_hit {
            Some(idx) => {
                self.read_streams[idx] = ext.end();
                TimeModel::xfer_ns(ext.len, self.model.read_bps)
            }
            None => {
                let (t, _) = self.model.read_time(self.head, ext.offset, ext.len);
                if self.head != ext.offset {
                    self.stats.seeks += 1;
                }
                if self.read_streams.len() < READ_SEGMENTS {
                    self.read_streams.push(ext.end());
                } else {
                    // Random replacement keeps partial hit rates under
                    // stream counts above the segment budget.
                    self.stream_rr ^= self.stream_rr << 13;
                    self.stream_rr ^= self.stream_rr >> 7;
                    self.stream_rr ^= self.stream_rr << 17;
                    let slot = (self.stream_rr % READ_SEGMENTS as u64) as usize;
                    self.read_streams[slot] = ext.end();
                }
                t
            }
        };
        // Fail-slow region: the read completes, but at a multiple of its
        // modelled service time — visible only in latency accounting.
        let slow = self.faults.fail_slow_factor(ext);
        let t = if slow > 1 {
            self.stats.faults.fail_slow_reads += 1;
            self.obs_event(
                ObsLayer::Device,
                ObsEventKind::FailSlowRead,
                ext.offset,
                slow,
            );
            t * slow
        } else {
            t
        };
        self.head = ext.end();
        self.clock_ns += t;
        self.stats.record_read(kind, ext.len, ext.len, t);
        self.obs.latency(ObsLayer::Device, "read_ns", t);
        self.trace
            .record(self.trace_tag, self.trace_file, ext, TraceDir::Read, kind);
        let mut buf = self.store.read_vec(ext.offset, ext.len as usize);
        if self.faults.corrupt_buf(ext, &mut buf) > 0 {
            self.stats.faults.read_corruptions += 1;
            self.obs_event(
                ObsLayer::Device,
                ObsEventKind::ReadCorruption,
                ext.offset,
                ext.len,
            );
        }
        Ok(buf)
    }

    /// Writes `data` at `ext` (lengths must match). Layout rules apply; see
    /// the type-level docs.
    pub fn write(&mut self, ext: Extent, data: &[u8], kind: IoKind) -> DiskResult<()> {
        assert_eq!(ext.len as usize, data.len(), "extent/data length mismatch");
        self.check_range(ext)?;
        if ext.is_empty() {
            return Ok(());
        }
        self.consume_write_budget()?;
        match self.faults.on_write(ext.len) {
            WriteFault::None => {}
            WriteFault::Torn { persist } => return self.perform_torn_write(ext, data, persist),
            WriteFault::PowerLost => {
                self.stats.faults.injected_write_failures += 1;
                self.obs_event(
                    ObsLayer::Device,
                    ObsEventKind::InjectedWriteFailure,
                    ext.offset,
                    ext.len,
                );
                return Err(DiskError::Injected);
            }
        }
        let t0 = self.clock_ns;
        match self.layout {
            Layout::Hdd => self.write_hdd(ext, data, kind),
            Layout::FixedBand { band_size } => self.write_fixed_band(ext, data, kind, band_size),
            Layout::RawHmSmr { guard_bytes } => self.write_raw(ext, data, kind, guard_bytes),
            Layout::HaSmr {
                band_size,
                media_cache_bytes,
            } => self.write_ha_smr(ext, data, kind, band_size, media_cache_bytes),
        }?;
        let dt = self.clock_ns - t0;
        self.obs.latency(ObsLayer::Device, "write_ns", dt);
        self.note_write_complete();
        Ok(())
    }

    fn write_ha_smr(
        &mut self,
        ext: Extent,
        data: &[u8],
        kind: IoKind,
        band_size: u64,
        media_cache_bytes: u64,
    ) -> DiskResult<()> {
        let mut off = ext.offset;
        let mut rest = data;
        while !rest.is_empty() {
            let band_start = off / band_size * band_size;
            let within = off - band_start;
            let n = rest.len().min((band_size - within) as usize);
            let band = self.bands.entry(band_start).or_insert_with(|| BandState {
                wp: 0,
                cursor: u64::MAX,
            });
            let sequential = within >= band.wp || off == band.cursor;
            if sequential {
                // In-order writes stream straight to the band.
                let (t, new_head) = self.model.write_time(self.head, off, n as u64);
                if self.head != off {
                    self.stats.seeks += 1;
                }
                self.head = new_head;
                self.clock_ns += t;
                self.stats.record_write(kind, n as u64, n as u64, t);
                band.wp = band.wp.max(within + n as u64);
                band.cursor = off + n as u64;
            } else {
                // Out-of-order: absorb into the persistent media cache.
                if self.cache_used + n as u64 > media_cache_bytes {
                    self.clean_media_cache(kind);
                }
                let t = CONV_WRITE_OVERHEAD_NS + TimeModel::xfer_ns(n as u64, self.model.write_bps);
                self.clock_ns += t;
                self.stats.record_write(kind, n as u64, n as u64, t);
                self.cache_used += n as u64;
                let entry = self.dirty_bands.entry(band_start).or_insert(0);
                *entry = (*entry).max(within + n as u64);
            }
            self.store.write(off, &rest[..n]);
            self.valid.insert(Extent::new(off, n as u64));
            off += n as u64;
            rest = &rest[n..];
        }
        self.trace
            .record(self.trace_tag, self.trace_file, ext, TraceDir::Write, kind);
        Ok(())
    }

    /// Drains the media cache: every dirty band pays a staged
    /// read-modify-write. This is the paper's "cache cleaning" stall —
    /// all foreground progress waits behind it.
    fn clean_media_cache(&mut self, kind: IoKind) {
        // BTreeMap iterates in band order, so the drain is already the
        // elevator-sorted cleaning schedule.
        let dirty: Vec<(u64, u64)> = std::mem::take(&mut self.dirty_bands).into_iter().collect();
        let t_start = self.clock_ns;
        let band_count = dirty.len() as u64;
        let mut moved = 0u64;
        for (band_start, staged_end) in dirty {
            let band = self.bands.entry(band_start).or_insert_with(|| BandState {
                wp: 0,
                cursor: u64::MAX,
            });
            let preserve = band.wp;
            let rewrite = band.wp.max(staged_end);
            let mut t = self.model.seek_ns(self.head, band_start) + self.model.rot_latency_ns;
            t += TimeModel::xfer_ns(preserve, self.model.read_bps);
            t += self.model.rot_latency_ns;
            t += TimeModel::xfer_ns(rewrite, self.model.write_bps);
            self.stats.seeks += 1;
            self.stats.band_rmw_events += 1;
            self.head = band_start + rewrite;
            self.clock_ns += t;
            self.stats.record_write(kind, 0, rewrite, t);
            self.stats.record_device_read_overhead(kind, preserve);
            moved += rewrite;
            band.wp = rewrite;
            band.cursor = u64::MAX;
        }
        self.cache_used = 0;
        self.cleanings += 1;
        self.obs
            .counter_add(ObsLayer::Device, "media_cache_cleanings", 1);
        self.obs.latency(
            ObsLayer::Device,
            "cleaning_stall_ns",
            self.clock_ns - t_start,
        );
        self.obs_event(
            ObsLayer::Device,
            ObsEventKind::MediaCacheClean,
            band_count,
            moved,
        );
    }

    fn write_hdd(&mut self, ext: Extent, data: &[u8], kind: IoKind) -> DiskResult<()> {
        let (t, new_head) = self.model.write_time(self.head, ext.offset, ext.len);
        if self.head != ext.offset {
            self.stats.seeks += 1;
        }
        self.head = new_head;
        self.clock_ns += t;
        self.stats.record_write(kind, ext.len, ext.len, t);
        self.store.write(ext.offset, data);
        self.valid.insert(ext);
        self.trace
            .record(self.trace_tag, self.trace_file, ext, TraceDir::Write, kind);
        Ok(())
    }

    fn write_raw(
        &mut self,
        ext: Extent,
        data: &[u8],
        kind: IoKind,
        guard_bytes: u64,
    ) -> DiskResult<()> {
        if let Some(hit) = self.valid.overlapping(ext).first() {
            return Err(DiskError::WouldOverlapValid { ext, valid: *hit });
        }
        let dmg_len = guard_bytes.min(self.capacity - ext.end());
        let dmg = Extent::new(ext.end(), dmg_len);
        if let Some(hit) = self.valid.overlapping(dmg).first() {
            return Err(DiskError::GuardViolation { ext, damaged: *hit });
        }
        // Shadow-check the accepted write against the independent audit
        // model: if the overlap/guard checks above ever let an illegal
        // write through, this fires in debug builds.
        if let Some(aud) = self.auditor.as_mut() {
            aud.record_write(ext);
        }
        let (t, new_head) = self.model.write_time(self.head, ext.offset, ext.len);
        if self.head != ext.offset {
            self.stats.seeks += 1;
        }
        self.head = new_head;
        self.clock_ns += t;
        self.stats.record_write(kind, ext.len, ext.len, t);
        self.store.write(ext.offset, data);
        self.valid.insert(ext);
        self.trace
            .record(self.trace_tag, self.trace_file, ext, TraceDir::Write, kind);
        Ok(())
    }

    fn write_fixed_band(
        &mut self,
        ext: Extent,
        data: &[u8],
        kind: IoKind,
        band_size: u64,
    ) -> DiskResult<()> {
        // Split the write at band boundaries; each piece is serviced
        // against its own band's state.
        let mut off = ext.offset;
        let mut rest = data;
        while !rest.is_empty() {
            let band_idx = off / band_size;
            let band_start = band_idx * band_size;
            let within = off - band_start;
            let n = rest.len().min((band_size - within) as usize);
            self.write_band_piece(
                Extent::new(off, n as u64),
                &rest[..n],
                kind,
                band_start,
                within,
                band_size,
            );
            off += n as u64;
            rest = &rest[n..];
        }
        self.trace
            .record(self.trace_tag, self.trace_file, ext, TraceDir::Write, kind);
        Ok(())
    }

    fn write_band_piece(
        &mut self,
        ext: Extent,
        data: &[u8],
        kind: IoKind,
        band_start: u64,
        within: u64,
        band_size: u64,
    ) {
        let band = self.bands.entry(band_start).or_insert_with(|| BandState {
            wp: 0,
            cursor: u64::MAX,
        });
        // Writing at or past the write pointer damages nothing (only
        // unwritten shingles follow); continuing a just-written run is a
        // buffered sequential pass. Only a write *below* the write
        // pointer forces the drive to read-modify-write the damaged
        // suffix [offset, wp) of the band.
        let safe = within >= band.wp || ext.offset == band.cursor;
        if safe {
            let (t, new_head) = self.model.write_time(self.head, ext.offset, ext.len);
            if self.head != ext.offset {
                self.stats.seeks += 1;
            }
            self.head = new_head;
            self.clock_ns += t;
            self.stats.record_write(kind, ext.len, ext.len, t);
        } else {
            // Read-modify-write: per the Skylight/HA-SMR characterisations
            // the drive stages the whole written band prefix, merges the
            // new data, and rewrites it to restore the shingle order —
            // reading [0, wp) and writing [0, max(wp, within + len)).
            let preserve = band.wp;
            let rewrite = band.wp.max(within + ext.len);
            let mut t = self.model.seek_ns(self.head, band_start) + self.model.rot_latency_ns;
            t += TimeModel::xfer_ns(preserve, self.model.read_bps);
            t += self.model.rot_latency_ns; // settle before the rewrite pass
            t += TimeModel::xfer_ns(rewrite, self.model.write_bps);
            self.stats.seeks += 1;
            self.stats.band_rmw_events += 1;
            self.head = band_start + rewrite;
            self.clock_ns += t;
            self.stats.record_write(kind, ext.len, rewrite, t);
            self.stats.record_device_read_overhead(kind, preserve);
            self.obs
                .counter_add(ObsLayer::Device, "band_rmw_bytes", rewrite);
            self.obs_event(
                ObsLayer::Device,
                ObsEventKind::BandRmw,
                band_start / band_size,
                rewrite,
            );
        }
        let band = self.bands.get_mut(&band_start).expect("band just touched");
        band.wp = band.wp.max(within + ext.len);
        band.cursor = ext.offset + ext.len;
        self.store.write(ext.offset, data);
        self.valid.insert(ext);
    }

    /// Writes bypassing the shingle layout rules, as if to a conventional
    /// (unshingled) zone. Real HM-SMR drives expose a small conventional
    /// region for metadata; the engines use it for WAL and manifest logs,
    /// whose traffic is sequential appends either way. Costs normal
    /// mechanical time and never amplifies.
    pub fn write_conventional(&mut self, ext: Extent, data: &[u8], kind: IoKind) -> DiskResult<()> {
        assert_eq!(ext.len as usize, data.len(), "extent/data length mismatch");
        self.check_range(ext)?;
        if ext.is_empty() {
            return Ok(());
        }
        self.consume_write_budget()?;
        match self.faults.on_write(ext.len) {
            WriteFault::None => {}
            WriteFault::Torn { persist } => return self.perform_torn_write(ext, data, persist),
            WriteFault::PowerLost => {
                self.stats.faults.injected_write_failures += 1;
                self.obs_event(
                    ObsLayer::Device,
                    ObsEventKind::InjectedWriteFailure,
                    ext.offset,
                    ext.len,
                );
                return Err(DiskError::Injected);
            }
        }
        let t = CONV_WRITE_OVERHEAD_NS + TimeModel::xfer_ns(ext.len, self.model.write_bps);
        self.clock_ns += t;
        self.stats.record_write(kind, ext.len, ext.len, t);
        self.obs.latency(ObsLayer::Device, "write_ns", t);
        self.store.write(ext.offset, data);
        self.valid.insert(ext);
        self.trace
            .record(self.trace_tag, self.trace_file, ext, TraceDir::Write, kind);
        self.note_write_complete();
        Ok(())
    }

    /// Marks an extent's contents as no longer valid (file delete / set
    /// fade). Free space becomes writable again under the raw layout.
    pub fn invalidate(&mut self, ext: Extent) {
        self.valid.remove(ext);
        if let Some(aud) = self.auditor.as_mut() {
            aud.record_invalidate(ext);
        }
        self.trace.record(
            self.trace_tag,
            self.trace_file,
            ext,
            TraceDir::Free,
            IoKind::Raw,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1 << 20;

    fn model(cap: u64) -> TimeModel {
        TimeModel::hdd_st1000dm003(cap)
    }

    fn data(n: u64) -> Vec<u8> {
        (0..n).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn hdd_write_read_roundtrip() {
        let mut d = Disk::new(100 * MB, Layout::Hdd, model(100 * MB));
        let payload = data(4096);
        d.write(Extent::new(1000, 4096), &payload, IoKind::Raw)
            .unwrap();
        let back = d.read(Extent::new(1000, 4096), IoKind::Raw).unwrap();
        assert_eq!(back, payload);
        assert!(d.clock_ns() > 0);
    }

    #[test]
    fn read_unwritten_faults() {
        let mut d = Disk::new(100 * MB, Layout::Hdd, model(100 * MB));
        let err = d.read(Extent::new(0, 10), IoKind::Raw).unwrap_err();
        assert!(matches!(err, DiskError::ReadUnwritten { .. }));
    }

    #[test]
    fn read_after_invalidate_faults() {
        let mut d = Disk::new(100 * MB, Layout::Hdd, model(100 * MB));
        d.write(Extent::new(0, 100), &data(100), IoKind::Raw)
            .unwrap();
        d.invalidate(Extent::new(0, 100));
        assert!(d.read(Extent::new(0, 100), IoKind::Raw).is_err());
    }

    #[test]
    fn out_of_range_faults() {
        let mut d = Disk::new(MB, Layout::Hdd, model(MB));
        let err = d
            .write(Extent::new(MB - 10, 20), &data(20), IoKind::Raw)
            .unwrap_err();
        assert!(matches!(err, DiskError::OutOfRange { .. }));
    }

    #[test]
    fn raw_smr_rejects_overwrite_of_valid() {
        let mut d = Disk::new(
            100 * MB,
            Layout::RawHmSmr { guard_bytes: MB },
            model(100 * MB),
        );
        d.write(Extent::new(0, 1000), &data(1000), IoKind::Raw)
            .unwrap();
        let err = d
            .write(Extent::new(500, 1000), &data(1000), IoKind::Raw)
            .unwrap_err();
        assert!(matches!(err, DiskError::WouldOverlapValid { .. }));
    }

    #[test]
    fn raw_smr_guard_violation() {
        let mut d = Disk::new(
            100 * MB,
            Layout::RawHmSmr { guard_bytes: MB },
            model(100 * MB),
        );
        // Valid data at 10 MB.
        d.write(Extent::new(10 * MB, 1000), &data(1000), IoKind::Raw)
            .unwrap();
        // Writing so the damage window [end, end+1MB) reaches it must fault.
        let err = d
            .write(Extent::new(10 * MB - 4096, 1024), &data(1024), IoKind::Raw)
            .unwrap_err();
        assert!(matches!(err, DiskError::GuardViolation { .. }));
        // Writing with a full guard's clearance is fine.
        d.write(Extent::new(9 * MB - 4096, 1024), &data(1024), IoKind::Raw)
            .unwrap();
    }

    #[test]
    fn raw_smr_sequential_appends_need_no_guard() {
        // The paper: "multiple sets can be appended in a dynamic band
        // without guard regions". Appending forward never damages data.
        let mut d = Disk::new(
            100 * MB,
            Layout::RawHmSmr { guard_bytes: MB },
            model(100 * MB),
        );
        d.write(Extent::new(0, 1000), &data(1000), IoKind::Raw)
            .unwrap();
        d.write(Extent::new(1000, 1000), &data(1000), IoKind::Raw)
            .unwrap();
        d.write(Extent::new(2000, 1000), &data(1000), IoKind::Raw)
            .unwrap();
        assert_eq!(d.valid_bytes(), 3000);
        assert_eq!(d.valid_extents().len(), 1);
    }

    #[test]
    fn raw_smr_insert_after_free_with_guard() {
        let g = MB;
        let mut d = Disk::new(
            100 * MB,
            Layout::RawHmSmr { guard_bytes: g },
            model(100 * MB),
        );
        // Three regions back to back.
        d.write(Extent::new(0, 4 * MB), &data(4 * MB), IoKind::Raw)
            .unwrap();
        d.write(Extent::new(4 * MB, 4 * MB), &data(4 * MB), IoKind::Raw)
            .unwrap();
        d.write(Extent::new(8 * MB, 4 * MB), &data(4 * MB), IoKind::Raw)
            .unwrap();
        // Free the middle one; re-inserting needs req + guard <= 4MB.
        d.invalidate(Extent::new(4 * MB, 4 * MB));
        // 3 MB + 1 MB guard fits exactly.
        d.write(Extent::new(4 * MB, 3 * MB), &data(3 * MB), IoKind::Raw)
            .unwrap();
        // A byte more would damage the third region.
        assert!(d
            .write(Extent::new(7 * MB, 1), &data(1), IoKind::Raw)
            .is_err());
    }

    #[test]
    fn fixed_band_append_has_no_rmw() {
        let bs = 4 * MB;
        let mut d = Disk::new(
            100 * MB,
            Layout::FixedBand { band_size: bs },
            model(100 * MB),
        );
        d.write(Extent::new(0, MB), &data(MB), IoKind::Flush)
            .unwrap();
        d.write(Extent::new(MB, MB), &data(MB), IoKind::Flush)
            .unwrap();
        assert_eq!(d.stats().band_rmw_events, 0);
        let c = d.stats().kind(IoKind::Flush);
        assert_eq!(c.logical_written, 2 * MB);
        assert_eq!(c.device_written, 2 * MB);
    }

    #[test]
    fn fixed_band_rewrite_triggers_rmw() {
        let bs = 4 * MB;
        let mut d = Disk::new(
            100 * MB,
            Layout::FixedBand { band_size: bs },
            model(100 * MB),
        );
        // Fill 3 MB of band 0.
        d.write(Extent::new(0, 3 * MB), &data(3 * MB), IoKind::Flush)
            .unwrap();
        // Rewrite 1 MB in the middle: the device stages and rewrites the
        // whole 3 MB written prefix of the band.
        d.write(Extent::new(MB, MB), &data(MB), IoKind::CompactionWrite)
            .unwrap();
        assert_eq!(d.stats().band_rmw_events, 1);
        let c = d.stats().kind(IoKind::CompactionWrite);
        assert_eq!(c.logical_written, MB);
        assert_eq!(c.device_written, 3 * MB); // prefix rewritten
        assert_eq!(c.device_read, 3 * MB); // prefix staged first
    }

    #[test]
    fn fixed_band_continuation_after_rmw_is_sequential() {
        let bs = 8 * MB;
        let mut d = Disk::new(
            100 * MB,
            Layout::FixedBand { band_size: bs },
            model(100 * MB),
        );
        d.write(Extent::new(0, 6 * MB), &data(6 * MB), IoKind::Flush)
            .unwrap();
        // Hole-reuse write at offset 1 MB: one RMW...
        d.write(Extent::new(MB, MB), &data(MB), IoKind::CompactionWrite)
            .unwrap();
        assert_eq!(d.stats().band_rmw_events, 1);
        // ...and the continuation right after it costs no further RMW.
        d.write(Extent::new(2 * MB, MB), &data(MB), IoKind::CompactionWrite)
            .unwrap();
        assert_eq!(d.stats().band_rmw_events, 1);
    }

    #[test]
    fn fixed_band_write_spanning_bands() {
        let bs = 2 * MB;
        let mut d = Disk::new(
            100 * MB,
            Layout::FixedBand { band_size: bs },
            model(100 * MB),
        );
        let payload = data(3 * MB);
        d.write(Extent::new(MB, 3 * MB), &payload, IoKind::Flush)
            .unwrap();
        // Band 0: write at offset 1 MB on an empty band is safe (nothing
        // shingled after it is valid); band 1: continuation.
        assert_eq!(d.stats().band_rmw_events, 0);
        let back = d.read(Extent::new(MB, 3 * MB), IoKind::Raw).unwrap();
        assert_eq!(back, payload);
        assert_eq!(d.bands_touched(Extent::new(MB, 3 * MB)), 2);
    }

    #[test]
    fn bands_touched_counts() {
        let bs = 4 * MB;
        let d = Disk::new(
            100 * MB,
            Layout::FixedBand { band_size: bs },
            model(100 * MB),
        );
        assert_eq!(d.bands_touched(Extent::new(0, 1)), 1);
        assert_eq!(d.bands_touched(Extent::new(0, bs)), 1);
        assert_eq!(d.bands_touched(Extent::new(0, bs + 1)), 2);
        assert_eq!(d.bands_touched(Extent::new(bs - 1, 2)), 2);
    }

    #[test]
    fn sequential_write_is_much_faster_than_scattered() {
        let cap = 1000 * MB;
        let mk = || Disk::new(cap, Layout::Hdd, model(cap));
        // Sequential: 64 x 1 MB back to back.
        let mut seq = mk();
        for i in 0..64u64 {
            seq.write(Extent::new(i * MB, MB), &data(MB), IoKind::Raw)
                .unwrap();
        }
        // Scattered: same volume, spread over the disk.
        let mut scat = mk();
        for i in 0..64u64 {
            scat.write(
                Extent::new((i * 13 % 64) * 15 * MB, MB),
                &data(MB),
                IoKind::Raw,
            )
            .unwrap();
        }
        assert!(scat.clock_ns() > seq.clock_ns());
    }

    #[test]
    fn torn_write_persists_prefix_and_stays_down() {
        let mut d = Disk::new(100 * MB, Layout::Hdd, model(100 * MB));
        d.faults_mut().tear_write_after(1);
        d.write(Extent::new(0, 1000), &data(1000), IoKind::Raw)
            .unwrap();
        let err = d
            .write(Extent::new(1000, 1000), &vec![0xAB; 1000], IoKind::Raw)
            .unwrap_err();
        assert_eq!(
            err,
            DiskError::TornWrite {
                ext: Extent::new(1000, 1000)
            }
        );
        assert_eq!(d.stats().faults.torn_writes, 1);
        // The extent is valid (the drive acked it) but only a prefix holds
        // the new bytes; the suffix reads as zero.
        let back = d.read(Extent::new(1000, 1000), IoKind::Raw).unwrap();
        let persisted = back.iter().take_while(|&&b| b == 0xAB).count();
        assert!(persisted < 1000);
        assert!(back[persisted..].iter().all(|&b| b == 0));
        // Power stays lost until disarmed.
        assert_eq!(
            d.write(Extent::new(2000, 10), &data(10), IoKind::Raw)
                .unwrap_err(),
            DiskError::Injected
        );
        assert!(d.stats().faults.injected_write_failures >= 1);
        d.faults_mut().disarm_torn_writes();
        d.write(Extent::new(2000, 10), &data(10), IoKind::Raw)
            .unwrap();
    }

    #[test]
    fn transient_read_fails_once_then_succeeds() {
        let mut d = Disk::new(100 * MB, Layout::Hdd, model(100 * MB));
        let payload = data(4096);
        d.write(Extent::new(0, 4096), &payload, IoKind::Raw)
            .unwrap();
        d.faults_mut().fail_reads_transiently(1);
        let err = d.read(Extent::new(0, 4096), IoKind::Raw).unwrap_err();
        assert!(err.is_transient());
        assert_eq!(d.stats().faults.transient_read_errors, 1);
        assert_eq!(d.read(Extent::new(0, 4096), IoKind::Raw).unwrap(), payload);
    }

    #[test]
    fn unrecoverable_read_fails_every_attempt() {
        let mut d = Disk::new(100 * MB, Layout::Hdd, model(100 * MB));
        let payload = data(4096);
        d.write(Extent::new(0, 4096), &payload, IoKind::Raw)
            .unwrap();
        d.write(Extent::new(8192, 4096), &payload, IoKind::Raw)
            .unwrap();
        d.faults_mut().fail_reads_permanently(Extent::new(100, 8));
        for _ in 0..3 {
            let err = d.read(Extent::new(0, 4096), IoKind::Raw).unwrap_err();
            assert_eq!(
                err,
                DiskError::UnrecoverableRead {
                    ext: Extent::new(0, 4096)
                }
            );
            assert!(!err.is_transient(), "persistent faults must not retry");
        }
        assert_eq!(d.stats().faults.unrecoverable_reads, 3);
        // Reads clear of the bad sector still succeed.
        assert_eq!(
            d.read(Extent::new(8192, 4096), IoKind::Raw).unwrap(),
            payload
        );
        // Persistent dominates transient: the budget is untouched.
        d.faults_mut().fail_reads_transiently(1);
        assert!(d.read(Extent::new(0, 4096), IoKind::Raw).is_err());
        assert_eq!(d.stats().faults.transient_read_errors, 0);
    }

    #[test]
    fn failed_band_reads_fail_and_are_enumerable() {
        let mut d = Disk::new(100 * MB, Layout::Hdd, model(100 * MB));
        d.write(Extent::new(0, MB), &data(MB), IoKind::Raw).unwrap();
        d.faults_mut().fail_band(Extent::new(0, MB));
        assert!(matches!(
            d.read(Extent::new(1000, 100), IoKind::Raw),
            Err(DiskError::UnrecoverableRead { .. })
        ));
        assert_eq!(d.faults().failed_bands(), &[Extent::new(0, MB)]);
        d.faults_mut().clear_persistent_faults();
        assert!(d.read(Extent::new(1000, 100), IoKind::Raw).is_ok());
    }

    #[test]
    fn fail_slow_reads_succeed_but_multiply_latency() {
        let cap = 100 * MB;
        let payload = data(4096);
        let run = |slow: Option<(Extent, u64)>| {
            let mut d = Disk::new(cap, Layout::Hdd, model(cap));
            d.write(Extent::new(0, 4096), &payload, IoKind::Raw)
                .unwrap();
            if let Some((ext, m)) = slow {
                d.faults_mut().slow_reads(ext, m);
            }
            let t0 = d.clock_ns();
            let back = d.read(Extent::new(0, 4096), IoKind::Raw).unwrap();
            assert_eq!(back, payload);
            (d.clock_ns() - t0, d.stats().faults.fail_slow_reads)
        };
        let (fast_ns, fast_count) = run(None);
        let (slow_ns, slow_count) = run(Some((Extent::new(0, 4096), 8)));
        assert_eq!(fast_count, 0);
        assert_eq!(slow_count, 1);
        assert_eq!(slow_ns, fast_ns * 8, "multiplier must scale service time");
        // Deterministic: the same slow read costs the same again.
        let (slow_ns2, _) = run(Some((Extent::new(0, 4096), 8)));
        assert_eq!(slow_ns, slow_ns2);
    }

    #[test]
    fn read_corruption_flips_bits_in_registered_extent() {
        let mut d = Disk::new(100 * MB, Layout::Hdd, model(100 * MB));
        let payload = data(8192);
        d.write(Extent::new(0, 8192), &payload, IoKind::Raw)
            .unwrap();
        d.faults_mut().corrupt_extent(Extent::new(0, 8192));
        let back = d.read(Extent::new(0, 8192), IoKind::Raw).unwrap();
        assert_ne!(back, payload);
        assert_eq!(d.stats().faults.read_corruptions, 1);
        // Deterministic: the same read sees the same corruption.
        let again = d.read(Extent::new(0, 8192), IoKind::Raw).unwrap();
        assert_eq!(back, again);
        // Unregistered regions are untouched.
        d.write(Extent::new(MB, 100), &data(100), IoKind::Raw)
            .unwrap();
        assert_eq!(
            d.read(Extent::new(MB, 100), IoKind::Raw).unwrap(),
            data(100)
        );
    }

    #[test]
    fn snapshot_restore_power_cuts_the_disk() {
        let mut d = Disk::new(100 * MB, Layout::Hdd, model(100 * MB));
        d.write(Extent::new(0, 100), &[1u8; 100], IoKind::Raw)
            .unwrap();
        let snap = d.snapshot();
        assert_eq!(snap.write_index(), 1);
        d.write(Extent::new(0, 100), &[2u8; 100], IoKind::Raw)
            .unwrap();
        d.write(Extent::new(200, 100), &[3u8; 100], IoKind::Raw)
            .unwrap();
        let clock_before = d.clock_ns();
        d.restore(&snap);
        // Contents and validity roll back; time does not.
        assert_eq!(
            d.read(Extent::new(0, 100), IoKind::Raw).unwrap(),
            vec![1u8; 100]
        );
        assert!(d.read(Extent::new(200, 100), IoKind::Raw).is_err());
        assert!(d.clock_ns() >= clock_before);
        assert_eq!(d.writes_issued(), 1);
    }

    #[test]
    fn auto_snapshots_every_kth_write() {
        let mut d = Disk::new(100 * MB, Layout::Hdd, model(100 * MB));
        d.faults_mut().snapshot_every(2);
        for i in 0..7u64 {
            d.write(Extent::new(i * 1000, 100), &data(100), IoKind::Raw)
                .unwrap();
        }
        let snaps = d.take_crash_snapshots();
        assert_eq!(
            snaps.iter().map(|s| s.write_index()).collect::<Vec<_>>(),
            vec![2, 4, 6]
        );
        assert!(d.take_crash_snapshots().is_empty());
        // Each snapshot replays to exactly its prefix of writes.
        d.restore(&snaps[1]);
        assert!(d.read(Extent::new(3 * 1000, 100), IoKind::Raw).is_ok());
        assert!(d.read(Extent::new(4 * 1000, 100), IoKind::Raw).is_err());
    }

    #[test]
    fn fixed_band_snapshot_restores_write_pointers() {
        let bs = 4 * MB;
        let mut d = Disk::new(
            100 * MB,
            Layout::FixedBand { band_size: bs },
            model(100 * MB),
        );
        d.write(Extent::new(0, MB), &data(MB), IoKind::Flush)
            .unwrap();
        let snap = d.snapshot();
        d.write(Extent::new(MB, MB), &data(MB), IoKind::Flush)
            .unwrap();
        d.restore(&snap);
        assert_eq!(d.bands.get(&0).map(|b| b.wp), Some(MB));
        // Appending at the restored write pointer is penalty-free.
        d.write(Extent::new(MB, MB), &data(MB), IoKind::Flush)
            .unwrap();
        assert_eq!(d.stats().band_rmw_events, 0);
    }

    #[test]
    fn trace_labels_stamped() {
        let mut d = Disk::new(100 * MB, Layout::Hdd, model(100 * MB));
        d.trace_mut().set_enabled(true);
        d.set_trace_tag(7);
        d.set_trace_file(42);
        d.write(Extent::new(0, 10), &data(10), IoKind::Flush)
            .unwrap();
        let ev = d.trace().events()[0];
        assert_eq!(ev.tag, 7);
        assert_eq!(ev.file, 42);
    }
}

#[cfg(test)]
mod ha_smr_tests {
    use super::*;

    const MB: u64 = 1 << 20;

    fn ha_disk(cache: u64) -> Disk {
        let cap = 1024 * MB;
        Disk::new(
            cap,
            Layout::HaSmr {
                band_size: 4 * MB,
                media_cache_bytes: cache,
            },
            TimeModel::smr_st5000as0011(cap),
        )
    }

    fn data(n: u64) -> Vec<u8> {
        (0..n).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn sequential_writes_bypass_the_cache() {
        let mut d = ha_disk(8 * MB);
        for i in 0..8u64 {
            d.write(Extent::new(i * MB, MB), &data(MB), IoKind::Flush)
                .unwrap();
        }
        assert_eq!(d.cache_used, 0);
        assert_eq!(d.cleaning_passes(), 0);
        let c = d.stats().kind(IoKind::Flush);
        assert_eq!(c.device_written, c.logical_written);
    }

    #[test]
    fn random_writes_stage_then_clean() {
        let mut d = ha_disk(2 * MB);
        // Fill two bands so in-place rewrites are out of order.
        d.write(Extent::new(0, 4 * MB), &data(4 * MB), IoKind::Flush)
            .unwrap();
        d.write(Extent::new(4 * MB, 4 * MB), &data(4 * MB), IoKind::Flush)
            .unwrap();
        // Rewrites go to the cache, fast.
        let t0 = d.clock_ns();
        d.write(Extent::new(MB, MB), &data(MB), IoKind::CompactionWrite)
            .unwrap();
        let fast = d.clock_ns() - t0;
        assert_eq!(d.cache_used, MB);
        assert_eq!(d.cleaning_passes(), 0);
        // Third staged MiB exceeds the 2 MiB cache: cleaning stalls it.
        d.write(Extent::new(5 * MB, MB), &data(MB), IoKind::CompactionWrite)
            .unwrap();
        let t1 = d.clock_ns();
        d.write(Extent::new(2 * MB, MB), &data(MB), IoKind::CompactionWrite)
            .unwrap();
        let stalled = d.clock_ns() - t1;
        assert_eq!(d.cleaning_passes(), 1);
        assert!(
            stalled > fast * 5,
            "cleaning must stall the foreground: {fast} vs {stalled}"
        );
        // Contents remain correct throughout.
        assert_eq!(
            d.read(Extent::new(MB, 4), IoKind::Raw).unwrap(),
            data(MB)[..4]
        );
    }

    #[test]
    fn cleaning_amplifies_writes() {
        let mut d = ha_disk(MB);
        d.write(Extent::new(0, 4 * MB), &data(4 * MB), IoKind::Flush)
            .unwrap();
        // Stage rewrites until several cleanings happen.
        for i in 0..8u64 {
            d.write(
                Extent::new((i % 4) * 512 * 1024, 512 * 1024),
                &data(512 * 1024),
                IoKind::CompactionWrite,
            )
            .unwrap();
        }
        assert!(d.cleaning_passes() >= 3);
        let c = d.stats().kind(IoKind::CompactionWrite);
        // Device wrote far more than the host asked: MWA not solved.
        assert!(c.device_written > 3 * c.logical_written);
    }
}
