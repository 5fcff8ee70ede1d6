//! The database core: LevelDB's write path (WAL → memtable → L0 flush),
//! read path (memtable → L0 → sorted levels), and synchronous leveled
//! compaction. Placement is delegated to a [`PlacementPolicy`], which is
//! where the SEALDB crate plugs in sets and dynamic bands.
//!
//! Compactions run synchronously on the caller thread: LevelDB serialises
//! them on a single background thread anyway, and inline execution makes
//! the simulated-latency attribution of the paper's Fig. 10 exact.

/// Atomic multi-key write batches.
pub mod batch;
/// Full-database merged iterators.
pub mod iter;
/// Tunable open-time options.
pub mod options;
/// Online scrub-and-repair of SSTable blocks.
pub mod scrub;

use crate::context::{evict_file, get_table, new_ctx, SharedCtx};
use crate::error::Result;
use crate::filestore::{CrashImage, FileStore};
use crate::iterator::{InternalIterator, MergingIterator};
use crate::memtable::MemTable;
use crate::policy::PlacementPolicy;
use crate::sstable::{Table, TableBuilder};
use crate::types::{
    lookup_key, try_parse_trailer, user_key, FileId, SequenceNumber, ValueType, MAX_SEQUENCE,
};
use crate::version::{
    Compaction, FileMetaData, FileMetaHandle, VersionEdit, VersionSet, FSMETA_LOG_ID,
    MANIFEST_LOG_ID,
};
use crate::wal::{LogReader, LogWriter};
use batch::WriteBatch;
use iter::{DbIterator, LevelIterator};
use options::Options;
use smr_sim::{Disk, IoKind, ObsEventKind, ObsLayer};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Finished compaction outputs awaiting placement. The encoded tables
/// sit in the `(file id, bytes)` shape [`PlacementPolicy::place_outputs`]
/// takes, so the builder's buffer is handed over as it is, never cloned;
/// each table's key range rides at the same index.
#[derive(Default)]
struct PendingOutputs {
    tables: Vec<(FileId, Vec<u8>)>,
    /// `(smallest, largest)` internal key of `tables[i]`.
    ranges: Vec<(Vec<u8>, Vec<u8>)>,
}

/// First file id reserved for value-log segments. Segment ids live far
/// above anything the version set's file-id counter can reach, so the
/// two id spaces never collide and [`DbCore::reopen`]'s orphan cleanup
/// can tell a vlog segment (reconciled by the value log against its own
/// manifest checkpoint) from an orphaned table.
pub const VLOG_FILE_BASE: FileId = 1 << 48;

/// Details of one executed compaction (drives the paper's Fig. 10).
#[derive(Clone, Debug)]
pub struct CompactionRecord {
    /// 1-based compaction sequence number.
    pub id: u64,
    /// Number of input SSTables (victims + overlapped set).
    pub input_files: usize,
    /// Device streams the inputs need: level-0 victims overlap and are
    /// merged concurrently, so each is one, except that a back-to-back run
    /// of them is read in one device read and counts once; a sorted
    /// level's inputs count one per physically contiguous run of tables —
    /// DESIGN.md §5's "victim + contiguous set" as a number.
    pub input_runs: usize,
    /// Total input bytes.
    pub input_bytes: u64,
    /// Number of output SSTables.
    pub output_files: usize,
    /// Total output bytes (the paper's "compaction data size").
    pub output_bytes: u64,
    /// Simulated clock when the compaction started.
    pub start_ns: u64,
    /// Simulated latency of the compaction.
    pub duration_ns: u64,
    /// Distinct fixed bands the outputs touched (1 per extent elsewhere).
    pub output_bands: u64,
    /// Whether this was a trivial move (no data rewritten).
    pub trivial_move: bool,
}

/// What [`DbCore::reopen`] had to tolerate or repair to come back up.
///
/// All-zero after a clean shutdown; non-zero fields mean the recovery
/// paths did real work (torn WAL tail skipped, manifest truncated to its
/// last consistent prefix, orphaned files reclaimed).
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// WAL records replayed into the recovered memtable.
    pub wal_records_recovered: u64,
    /// WAL records skipped because they were torn or failed their CRC.
    pub wal_records_skipped: u64,
    /// WAL bytes discarded by the log reader while resynchronising.
    pub wal_bytes_dropped: u64,
    /// Manifest records dropped after the first corrupt one.
    pub manifest_records_dropped: u64,
    /// Data files found on disk but absent from the recovered version
    /// (placed by an edit that never committed) and reclaimed.
    orphan_files_dropped: u64,
    /// Version files that failed validation on reopen and were removed
    /// from the tree rather than left to load-bear (see
    /// [`DbCore::quarantine_invalid_files`]).
    pub files_quarantined: u64,
}

impl RecoveryReport {
    /// True if any recovery path had to repair something.
    pub fn any_damage(&self) -> bool {
        self.wal_records_skipped != 0
            || self.wal_bytes_dropped != 0
            || self.manifest_records_dropped != 0
            || self.orphan_files_dropped != 0
            || self.files_quarantined != 0
    }
}

/// Write-stall accounting for deferred-compaction mode: how often and for
/// how long the write path was held back by LevelDB's three backpressure
/// mechanisms. All durations are simulated nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StallStats {
    /// Writes delayed once by the L0 slowdown trigger.
    pub slowdown_count: u64,
    /// Total slowdown delay injected.
    pub slowdown_ns: u64,
    /// Writes stopped at the L0 stop trigger.
    pub stop_count: u64,
    /// Total time writes spent stopped waiting for compaction.
    pub stop_ns: u64,
    /// Writes that waited for a full memtable to flush.
    pub memtable_count: u64,
    /// Total time writes spent waiting on memtable flushes.
    pub memtable_ns: u64,
}

impl StallStats {
    /// Total stalled time of any kind, ns.
    pub fn total_ns(&self) -> u64 {
        self.slowdown_ns + self.stop_ns + self.memtable_ns
    }

    /// Stalls accumulated since `baseline` (a snapshot taken earlier on
    /// the same database).
    pub fn delta_since(&self, baseline: &StallStats) -> StallStats {
        StallStats {
            slowdown_count: self.slowdown_count - baseline.slowdown_count,
            slowdown_ns: self.slowdown_ns - baseline.slowdown_ns,
            stop_count: self.stop_count - baseline.stop_count,
            stop_ns: self.stop_ns - baseline.stop_ns,
            memtable_count: self.memtable_count - baseline.memtable_count,
            memtable_ns: self.memtable_ns - baseline.memtable_ns,
        }
    }
}

/// A pinned read point; obtain via [`DbCore::snapshot`] and return via
/// [`DbCore::release_snapshot`].
#[derive(Debug)]
pub struct Snapshot {
    seq: SequenceNumber,
}

/// The LSM-tree database.
pub struct DbCore {
    opts: Options,
    ctx: SharedCtx,
    mem: MemTable,
    versions: VersionSet,
    wal: LogWriter,
    wal_id: FileId,
    policy: Box<dyn PlacementPolicy>,
    compactions: Vec<CompactionRecord>,
    flush_count: u64,
    /// Sequence numbers pinned by live snapshots.
    snapshots: Vec<SequenceNumber>,
    /// What the last open/reopen had to repair.
    recovery: RecoveryReport,
    /// Serve mode: when true, writes no longer run compactions to
    /// quiescence inline. The write path applies LevelDB's backpressure
    /// (slowdown, stop, memtable-full stalls) and the background thread
    /// is [`DbCore::compact_until`], run by the slowdown sleep and by a
    /// caller's idle loop (the serving front-end's). When false (the
    /// default) the engine keeps the original quiesce-on-write behavior
    /// the paper's db_bench-style experiments rely on. Only
    /// [`DbCore::set_deferred_compaction`] flips it; it survives reopen.
    deferred_compaction: bool,
    /// Write-stall accounting (deferred-compaction mode).
    stalls: StallStats,
    /// Resume point of the incremental scrubber: the (level, file id)
    /// most recently scanned this pass.
    scrub_cursor: Option<(usize, FileId)>,
    /// Lifetime scrub totals across all steps.
    scrub_totals: scrub::ScrubReport,
}

impl std::fmt::Debug for DbCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DbCore")
            .field("policy", &self.policy.name())
            .field("mem_entries", &self.mem.len())
            .field("flush_count", &self.flush_count)
            .finish_non_exhaustive()
    }
}

impl DbCore {
    /// Opens a fresh database on `disk` with the given placement policy.
    pub fn open(disk: Disk, opts: Options, policy: Box<dyn PlacementPolicy>) -> Result<DbCore> {
        opts.validate()
            .map_err(crate::error::Error::InvalidArgument)?;
        let mut fs = FileStore::new(disk, opts.log_zone_bytes());
        fs.set_hold_limit(opts.wal_buffer_bytes);
        let ctx = new_ctx(fs, opts.block_cache_bytes, opts.table_cache_entries);
        let mut versions = VersionSet::new(opts.level_params());
        let mem = MemTable::new(opts.seed);
        let wal_id = {
            let mut guard = ctx.lock();
            versions.create(&mut guard.fs)?;
            let id = versions.new_file_id();
            guard.fs.create_log(id)?;
            versions.set_log_number(id);
            // Persist the counters so a crash before the first flush
            // still recovers a consistent next-file id.
            versions.log_and_apply(&mut guard.fs, VersionEdit::default())?;
            id
        };
        Ok(DbCore {
            opts,
            ctx,
            mem,
            versions,
            wal: LogWriter::new(),
            wal_id,
            policy,
            compactions: Vec::new(),
            flush_count: 0,
            snapshots: Vec::new(),
            recovery: RecoveryReport::default(),
            deferred_compaction: false,
            stalls: StallStats::default(),
            scrub_cursor: None,
            scrub_totals: scrub::ScrubReport::default(),
        })
    }

    /// Re-opens the database from its on-disk state: rebuilds the version
    /// set from the manifest (falling back to its last consistent prefix
    /// if the tail is corrupt), replays outstanding WAL records into a
    /// fresh memtable with skip-and-report on torn or corrupt records,
    /// and reclaims data files that no committed version references.
    /// [`DbCore::recovery_report`] says what was repaired.
    pub fn reopen(self) -> Result<DbCore> {
        let DbCore {
            opts,
            ctx,
            mut policy,
            deferred_compaction,
            ..
        } = self;
        let mut versions = VersionSet::new(opts.level_params());
        let mut mem = MemTable::new(opts.seed ^ 0xC0FFEE);
        let mut max_seq = 0u64;
        let mut report = RecoveryReport::default();
        {
            let mut guard = ctx.lock();
            // Held value-log appends die with the process, like the
            // WAL's unsynced tail.
            guard.fs.discard_held();
            // A restart keeps no open readers: every table the recovered
            // version references is opened — and so verified — from the
            // device again, and a file id the recovered counter hands out
            // a second time can never meet the reader of its first owner.
            guard.table_cache.clear();
            let manifest = versions.recover(&mut guard.fs)?;
            report.manifest_records_dropped = manifest.records_dropped;
            let replay_from = versions.log_number();
            for log_id in guard.fs.log_ids() {
                if log_id == MANIFEST_LOG_ID || log_id == FSMETA_LOG_ID || log_id < replay_from {
                    continue;
                }
                let data = guard.fs.log_read_all(log_id, IoKind::Meta)?;
                let mut reader = LogReader::new(&data);
                while let Some(rec) = reader.next_record() {
                    // Skip-and-report: a torn or corrupt record loses its
                    // batch, but later intact records still replay.
                    let rec = match rec {
                        Ok(rec) => rec,
                        Err(_) => {
                            report.wal_records_skipped += 1;
                            guard.fs.disk_mut().stats_mut().faults.checksum_failures += 1;
                            continue;
                        }
                    };
                    let Ok(batch) = WriteBatch::decode(&rec) else {
                        report.wal_records_skipped += 1;
                        continue;
                    };
                    for (seq, ty, key, value) in batch.iter() {
                        mem.add(seq, ty, key, value);
                        max_seq = max_seq.max(seq);
                    }
                    report.wal_records_recovered += 1;
                }
                report.wal_bytes_dropped += reader.dropped_bytes as u64;
            }
            // Orphan cleanup: a crash between file placement and the
            // manifest commit (or a manifest tail we just dropped) leaves
            // data files no version references. They must not load-bear;
            // reclaim their space.
            let live: std::collections::BTreeSet<FileId> = versions
                .current()
                .files
                .iter()
                .flatten()
                .map(|f| f.id)
                .collect();
            let orphans: Vec<FileId> = guard
                .fs
                .file_extents()
                .into_iter()
                .map(|(id, _)| id)
                // Value-log segments are not version files; the value log
                // reconciles them against its own manifest checkpoint.
                .filter(|id| !live.contains(id) && *id < VLOG_FILE_BASE)
                .collect();
            for id in orphans {
                if policy.delete_file(&mut guard.fs, id).is_ok() {
                    report.orphan_files_dropped += 1;
                }
            }
        }
        if max_seq > versions.last_sequence() {
            versions.set_last_sequence(max_seq);
        }
        // Start a fresh WAL for new writes (replayed logs stay until the
        // recovered memtable flushes).
        let wal_id = {
            let mut guard = ctx.lock();
            let mut id = versions.new_file_id();
            while guard.fs.has_log(id) {
                id = versions.new_file_id();
            }
            guard.fs.create_log(id)?;
            versions.log_and_apply(&mut guard.fs, VersionEdit::default())?;
            id
        };
        Ok(DbCore {
            opts,
            ctx,
            mem,
            versions,
            wal: LogWriter::new(),
            wal_id,
            policy,
            compactions: Vec::new(),
            flush_count: 0,
            snapshots: Vec::new(),
            recovery: report,
            deferred_compaction,
            stalls: StallStats::default(),
            scrub_cursor: None,
            scrub_totals: scrub::ScrubReport::default(),
        })
    }

    /// Rebuilds the database from a crash image: the file store reverts
    /// to the captured power-cut state, both caches drop (they may hold
    /// blocks and readers from the discarded future — the block cache
    /// here, the table cache in [`DbCore::reopen`]), the placement policy
    /// relearns exactly the surviving extents, and normal recovery
    /// (manifest + WAL replay + orphan cleanup) runs on what the disk
    /// retained.
    pub fn restore_crash_image(mut self, image: &CrashImage) -> Result<DbCore> {
        {
            let mut guard = self.ctx.lock();
            guard.fs.restore_crash_image(image);
            guard.block_cache.clear();
            let live = guard.fs.file_extents();
            self.policy.rebuild(&live);
        }
        self.reopen()
    }

    /// Validates every data file the current version references by
    /// opening it as a table (footer, index and filter checks). Files
    /// that fail are *quarantined*: removed from the version through a
    /// committed manifest edit and their space reclaimed, so a corrupt
    /// file can never load-bear a read. Returns the quarantined ids.
    pub fn quarantine_invalid_files(&mut self) -> Result<Vec<FileId>> {
        let version = self.versions.current();
        let mut bad: Vec<(usize, FileId)> = Vec::new();
        for (level, files) in version.files.iter().enumerate() {
            for f in files {
                if get_table(&self.ctx, f.id, f.size).is_err() {
                    bad.push((level, f.id));
                }
            }
        }
        if bad.is_empty() {
            return Ok(Vec::new());
        }
        let mut edit = VersionEdit::default();
        for &(level, id) in &bad {
            edit.delete_file(level, id);
        }
        {
            let mut guard = self.ctx.lock();
            self.versions.log_and_apply(&mut guard.fs, edit)?;
            for &(_, id) in &bad {
                self.policy.delete_file(&mut guard.fs, id)?;
            }
        }
        for &(level, id) in &bad {
            self.obs_event(
                ObsLayer::Lsm,
                ObsEventKind::FileQuarantined,
                id,
                level as u64,
            );
        }
        let ids: Vec<FileId> = bad.into_iter().map(|(_, id)| id).collect();
        for &id in &ids {
            evict_file(&self.ctx, id);
        }
        self.recovery.files_quarantined += ids.len() as u64;
        Ok(ids)
    }

    /// The shared store context (disk stats, traces, caches).
    pub fn ctx(&self) -> &SharedCtx {
        &self.ctx
    }

    /// What the last [`DbCore::reopen`] had to tolerate or repair
    /// (all-zero for a freshly opened database).
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Engine options.
    pub fn options(&self) -> &Options {
        &self.opts
    }

    /// The placement policy.
    pub fn policy(&self) -> &dyn PlacementPolicy {
        self.policy.as_ref()
    }

    /// Runs the placement policy's garbage collector (fragment
    /// coalescing for set-based policies; a no-op report otherwise).
    pub fn collect_garbage(
        &mut self,
        cfg: &crate::policy::GcConfig,
    ) -> Result<crate::policy::GcReport> {
        let mut guard = self.ctx.lock();
        // GC relocations change file extents but not file ids, so the
        // table cache stays valid; the block cache keys include offsets
        // within the file, which are also unchanged.
        self.policy.collect_garbage(&mut guard.fs, cfg)
    }

    /// Executed compactions, in order.
    pub fn compaction_log(&self) -> &[CompactionRecord] {
        &self.compactions
    }

    /// Number of memtable flushes performed.
    pub fn flush_count(&self) -> u64 {
        self.flush_count
    }

    /// The current version (file layout snapshot).
    pub fn current_version(&self) -> std::sync::Arc<crate::version::Version> {
        self.versions.current()
    }

    /// Last sequence number issued.
    pub fn last_sequence(&self) -> SequenceNumber {
        self.versions.last_sequence()
    }

    /// Simulated clock of the underlying disk, ns.
    pub fn clock_ns(&self) -> u64 {
        self.ctx.lock().fs.disk().clock_ns()
    }

    /// Lets simulated time pass with the disk idle until the clock reads
    /// at least `t_ns` (a no-op when it already does).
    pub fn advance_clock_to(&mut self, t_ns: u64) {
        let mut guard = self.ctx.lock();
        let disk = guard.fs.disk_mut();
        let now = disk.clock_ns();
        if t_ns > now {
            disk.advance_ns(t_ns - now);
        }
    }

    // ----- observability plumbing -----
    //
    // The disk owns the store's single `Obs` sink (one clock, one event
    // order, deterministic exports); these helpers reach it through the
    // shared context so every layer of the engine reports into the same
    // registry.

    fn obs_latency(&self, layer: ObsLayer, name: &str, ns: u64) {
        self.ctx
            .lock()
            .fs
            .disk_mut()
            .obs_mut()
            .latency(layer, name, ns);
    }

    fn obs_counter(&self, layer: ObsLayer, name: &str, delta: u64) {
        self.ctx
            .lock()
            .fs
            .disk_mut()
            .obs_mut()
            .counter_add(layer, name, delta);
    }

    fn obs_event(&self, layer: ObsLayer, kind: ObsEventKind, a: u64, b: u64) {
        self.ctx.lock().fs.disk_mut().obs_event(layer, kind, a, b);
    }

    /// Per-level (file count, bytes) summary plus the memtable size —
    /// LevelDB's `leveldb.stats` property in structured form.
    pub fn level_summary(&self) -> (Vec<(usize, u64)>, usize) {
        let v = self.versions.current();
        let levels = (0..v.num_levels())
            .map(|l| (v.level_file_count(l), v.level_bytes(l)))
            .collect();
        (levels, self.mem.approximate_memory_usage())
    }

    // ----- write path -----

    /// Inserts a key/value pair.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        let mut b = WriteBatch::new();
        b.put(key, value);
        self.write(b)
    }

    /// Deletes a key.
    pub fn delete(&mut self, key: &[u8]) -> Result<()> {
        let mut b = WriteBatch::new();
        b.delete(key);
        self.write(b)
    }

    /// Applies a batch atomically: WAL first, then the memtable. In the
    /// default mode, flush and compactions run inline to quiescence when
    /// thresholds trip; in deferred-compaction mode the write instead
    /// passes through `make_room_for_write`'s backpressure and leaves
    /// compaction to [`DbCore::compact_until`].
    pub fn write(&mut self, batch: WriteBatch) -> Result<()> {
        self.write_inner(batch, true)
    }

    fn write_inner(&mut self, mut batch: WriteBatch, account: bool) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        batch.set_sequence(self.versions.last_sequence() + 1);
        // Whole-op latency, flush/compaction stalls included: the paper's
        // Fig. 10 bimodality lives in this histogram's tail.
        self.commit(&batch, account, ObsLayer::Store, "write_ns")
    }

    /// The commit step a local write and a replicated batch share, for a
    /// non-empty `batch` already stamped with its sequence range:
    /// make-room backpressure (deferred-compaction mode), the WAL record
    /// and its buffered flush, the memtable insert, the sequence
    /// advance, payload accounting when `account`, and inline
    /// compaction otherwise. The whole step's latency lands in the
    /// caller's `histogram`.
    fn commit(
        &mut self,
        batch: &WriteBatch,
        account: bool,
        layer: ObsLayer,
        histogram: &'static str,
    ) -> Result<()> {
        let t0 = self.clock_ns();
        if self.deferred_compaction {
            self.make_room_for_write()?;
        }
        self.wal.add_record(batch.rep());
        // The OS page cache absorbs small appends; bytes reach the
        // disk in `wal_buffer_bytes` chunks (sync=false semantics).
        self.flush_wal_buffer(false)?;
        for (s, ty, key, value) in batch.iter() {
            self.mem.add(s, ty, key, value);
        }
        self.versions
            .set_last_sequence(batch.sequence() + u64::from(batch.count()) - 1);
        if account {
            self.ctx.lock().fs.disk_mut().stats_mut().user_payload += batch.payload_bytes();
        }
        if !self.deferred_compaction {
            self.maybe_flush_and_compact()?;
        }
        self.obs_latency(layer, histogram, self.clock_ns() - t0);
        Ok(())
    }

    /// Drains the buffered WAL tail to disk. When `force` is false this
    /// honours the `wal_buffer_bytes` chunking; when true any pending
    /// bytes go down immediately (a durability barrier for callers that
    /// must not let later work overtake an acked record).
    fn flush_wal_buffer(&mut self, force: bool) -> Result<()> {
        let threshold = if force {
            1
        } else {
            self.opts.wal_buffer_bytes.max(1)
        };
        if self.wal.pending_len() < threshold {
            return Ok(());
        }
        let bytes = self.wal.take();
        let mut guard = self.ctx.lock();
        let s0 = guard.fs.disk().clock_ns();
        guard.fs.log_append(self.wal_id, &bytes, IoKind::Wal)?;
        let s1 = guard.fs.disk().clock_ns();
        let obs = guard.fs.disk_mut().obs_mut();
        obs.latency(ObsLayer::Wal, "sync_ns", s1 - s0);
        obs.counter_add(ObsLayer::Wal, "sync_bytes", bytes.len() as u64);
        Ok(())
    }

    /// Forces any buffered WAL bytes to disk, after the value-log
    /// appends the file store holds back (the records their pointers
    /// name). Value-log GC calls this after a pointer-fixup batch so the
    /// fixups are durable before the victim segment is recycled —
    /// otherwise a crash could replay the world to a state where live
    /// pointers still reference freed bytes.
    pub fn sync_wal(&mut self) -> Result<()> {
        self.ctx.lock().fs.drain_held()?;
        self.flush_wal_buffer(true)
    }

    /// Bytes buffered in the WAL but not yet on disk. Zero means every
    /// acked record is durable; the debug-build ordering auditor asserts
    /// this at ack time.
    pub fn wal_pending_bytes(&self) -> u64 {
        self.wal.pending_len() as u64
    }

    /// Applies a batch exactly like [`DbCore::write`] but without
    /// crediting `user_payload`: internal traffic (value-log GC pointer
    /// fixups) must not deflate the write-amplification denominator.
    pub fn write_unaccounted(&mut self, batch: WriteBatch) -> Result<()> {
        self.write_inner(batch, false)
    }

    /// Runs a closure with the file store and placement policy borrowed
    /// together — the value log appends segments and recycles victims
    /// through exactly the allocator state the LSM itself uses.
    pub fn with_fs_and_policy<R>(
        &mut self,
        f: impl FnOnce(&mut FileStore, &mut dyn PlacementPolicy) -> R,
    ) -> R {
        let mut guard = self.ctx.lock();
        f(&mut guard.fs, self.policy.as_mut())
    }

    /// Returns the opaque auxiliary blob the manifest currently carries
    /// (the value log's segment-directory checkpoint), if any.
    pub fn aux_state(&self) -> Option<Vec<u8>> {
        self.versions.aux().map(<[u8]>::to_vec)
    }

    /// Commits a new auxiliary blob through the manifest. Durable once
    /// this returns: recovery hands the latest committed blob back via
    /// [`DbCore::aux_state`].
    pub fn commit_aux_state(&mut self, blob: Vec<u8>) -> Result<()> {
        let edit = VersionEdit {
            aux: Some(blob),
            ..Default::default()
        };
        let mut guard = self.ctx.lock();
        self.versions.log_and_apply(&mut guard.fs, edit)
    }

    /// Applies a batch shipped by a replication primary, keeping the
    /// primary-assigned sequence range instead of allocating a local
    /// one — the replay-from-sequence half of WAL shipping. Idempotent:
    /// a batch whose range is already at or below the local last
    /// sequence is skipped and `Ok(false)` returned, so duplicate
    /// frames (retransmits, catch-up overlap) are harmless. A batch
    /// that would open a sequence gap or straddle the applied boundary
    /// is refused — the shipping layer must deliver frames in order —
    /// and so is a range an internal key cannot hold
    /// ([`WriteBatch::sequence_range`]).
    pub fn apply_replicated(&mut self, batch: WriteBatch) -> Result<bool> {
        if batch.is_empty() {
            return Ok(false);
        }
        let seqs = batch.sequence_range()?;
        let (first, last) = (seqs.start, seqs.end - 1);
        let applied = self.versions.last_sequence();
        if last <= applied {
            return Ok(false);
        }
        if first != applied + 1 {
            return Err(crate::error::Error::InvalidArgument(format!(
                "replicated batch covers sequences {first}..={last} but local state is at {applied}"
            )));
        }
        self.commit(&batch, true, ObsLayer::Replication, "apply_ns")?;
        Ok(true)
    }

    /// Forces the memtable to flush and compactions to quiesce (used at
    /// the end of load phases).
    pub fn flush(&mut self) -> Result<()> {
        self.flush_memtable()?;
        self.compact_until(u64::MAX, &mut 0)
    }

    fn maybe_flush_and_compact(&mut self) -> Result<()> {
        if self.mem.approximate_memory_usage() >= self.opts.write_buffer_size {
            self.flush_memtable()?;
            self.compact_until(u64::MAX, &mut 0)?;
        }
        Ok(())
    }

    /// LevelDB's `MakeRoomForWrite` for deferred-compaction mode: the
    /// three backpressure mechanisms, applied in LevelDB's order, each
    /// surfaced as a first-class stall event.
    ///
    /// 1. **Slowdown** — once per write, if L0 has reached the slowdown
    ///    trigger, the writer sleeps 1 ms so the background thread can win
    ///    some ground; the simulated background thread spends the sleep in
    ///    [`DbCore::compact_until`]. A step may run past the sleep, and
    ///    the elapsed time is the stall.
    /// 2. **Stop** — with the memtable full and L0 at the stop trigger,
    ///    the write cannot proceed at all; compaction runs inline (the
    ///    writer is blocked on the background thread) until L0 drops below
    ///    the trigger, and the elapsed time is the stall.
    /// 3. **Memtable** — with the memtable full (and room in L0), the
    ///    flush itself is what the writer waits on.
    fn make_room_for_write(&mut self) -> Result<()> {
        /// The writer's sleep once per write while the slowdown trigger
        /// is tripped (LevelDB sleeps 1 ms).
        const SLOWDOWN_PENALTY_NS: u64 = 1_000_000;
        let mut allow_delay = true;
        loop {
            let l0 = self.versions.current().level_file_count(0);
            if allow_delay && l0 >= self.opts.l0_slowdown_trigger {
                let t0 = self.clock_ns();
                let until = t0 + SLOWDOWN_PENALTY_NS;
                self.compact_until(until, &mut 0)?;
                self.advance_clock_to(until);
                let dt = self.clock_ns() - t0;
                self.stalls.slowdown_count += 1;
                self.stalls.slowdown_ns += dt;
                self.obs_counter(ObsLayer::Lsm, "stall.slowdown_count", 1);
                self.obs_latency(ObsLayer::Lsm, "stall_slowdown_ns", dt);
                self.obs_event(ObsLayer::Lsm, ObsEventKind::WriteSlowdown, l0 as u64, dt);
                allow_delay = false;
                continue;
            }
            if self.mem.approximate_memory_usage() < self.opts.write_buffer_size {
                return Ok(());
            }
            if l0 >= self.opts.l0_stop_trigger {
                let t0 = self.clock_ns();
                let mut progressed = false;
                while self.versions.current().level_file_count(0) >= self.opts.l0_stop_trigger {
                    if self.compact_step()? {
                        progressed = true;
                    } else {
                        break;
                    }
                }
                let dt = self.clock_ns() - t0;
                self.stalls.stop_count += 1;
                self.stalls.stop_ns += dt;
                self.obs_counter(ObsLayer::Lsm, "stall.stop_count", 1);
                self.obs_latency(ObsLayer::Lsm, "stall_stop_ns", dt);
                self.obs_event(ObsLayer::Lsm, ObsEventKind::WriteStop, l0 as u64, dt);
                if progressed {
                    continue;
                }
                // No compaction available despite a saturated L0 (cannot
                // happen with a sane trigger order) — flush rather than
                // spin.
            }
            let t0 = self.clock_ns();
            self.flush_memtable()?;
            let dt = self.clock_ns() - t0;
            let l0_after = self.versions.current().level_file_count(0) as u64;
            self.stalls.memtable_count += 1;
            self.stalls.memtable_ns += dt;
            self.obs_counter(ObsLayer::Lsm, "stall.memtable_count", 1);
            self.obs_latency(ObsLayer::Lsm, "stall_memtable_ns", dt);
            self.obs_event(ObsLayer::Lsm, ObsEventKind::MemtableStall, l0_after, dt);
        }
    }

    /// Write-stall accounting so far (all-zero outside deferred mode).
    pub fn stall_stats(&self) -> StallStats {
        self.stalls
    }

    /// Switches between inline (quiesce-on-write) and deferred
    /// compaction at runtime — the serving front-end preloads in inline
    /// mode, then flips to deferred for the measured phase so load-time
    /// compactions never pollute the stall accounting.
    pub fn set_deferred_compaction(&mut self, on: bool) {
        self.deferred_compaction = on;
    }

    /// The background compaction thread, run until the simulated clock
    /// reads `until`: while a compaction is due, one `compact_step`,
    /// each one that ran counted into `steps`. A step is never cut short,
    /// so the clock may end past `until`; one that fails ends the loop
    /// with its error, `steps` still counting those before it. Both
    /// places the disk is free for background work come here: the
    /// serving front-end's idle gaps and the writer's sleep on the
    /// slowdown rung of `make_room_for_write`.
    pub fn compact_until(&mut self, until: u64, steps: &mut u64) -> Result<()> {
        while self.clock_ns() < until && self.compact_step()? {
            *steps += 1;
        }
        Ok(())
    }

    /// Runs at most one compaction picked by score and victim priority —
    /// the unit of background-thread work in deferred-compaction mode.
    /// Returns whether a compaction actually ran.
    fn compact_step(&mut self) -> Result<bool> {
        let compaction = {
            let policy = &self.policy;
            let prio = |overlapped: &[FileMetaHandle]| -> u64 {
                let ids: Vec<FileId> = overlapped.iter().map(|f| f.id).collect();
                policy.victim_priority(&ids)
            };
            self.versions.pick_compaction(Some(&prio))
        };
        match compaction {
            Some(c) => {
                self.do_compaction(c)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    fn flush_memtable(&mut self) -> Result<()> {
        if self.mem.is_empty() {
            return Ok(());
        }
        let t0 = self.clock_ns();
        let old_wal = self.wal_id;
        let file_id = self.versions.new_file_id();
        let mut builder = TableBuilder::new(self.opts.table_options());
        {
            let mut it = self.mem.iter();
            it.seek_to_first();
            while it.valid() {
                builder.add(it.key(), it.value());
                it.next();
            }
        }
        let smallest = builder.first_key().expect("non-empty memtable").to_vec();
        let largest = builder.last_key().to_vec();
        let output = [(file_id, builder.finish())];
        let size = output[0].1.len() as u64;
        let set_id = {
            let mut guard = self.ctx.lock();
            guard.fs.disk_mut().set_trace_tag(0);
            let run = self.opts.l0_compaction_trigger as u64 * self.opts.write_buffer_size as u64;
            self.policy
                .place_flush(&mut guard.fs, file_id, &output[0].1, run)?
        };
        let mut edit = VersionEdit::default();
        edit.add_file(
            0,
            FileMetaData {
                id: file_id,
                size,
                smallest,
                largest,
                set_id,
                order: file_id,
            },
        );
        // Rotate the WAL: records up to here are now durable in the table.
        let new_wal = self.versions.new_file_id();
        self.versions.set_log_number(new_wal);
        self.install_tables(edit, &output)?;
        {
            let mut guard = self.ctx.lock();
            guard.fs.delete_log(self.wal_id)?;
            guard.fs.create_log(new_wal)?;
            self.wal_id = new_wal;
            self.wal = LogWriter::new();
            /// Rewrite the manifest as one snapshot record once it
            /// exceeds this many bytes (keeps the log zone bounded on
            /// long runs).
            const MANIFEST_REWRITE_BYTES: u64 = 2 << 20;
            self.versions
                .maybe_compact_manifest(&mut guard.fs, MANIFEST_REWRITE_BYTES)?;
        }
        self.flush_count += 1;
        self.mem = MemTable::new(self.opts.seed.wrapping_add(self.flush_count));
        self.obs_counter(ObsLayer::Lsm, "flush_bytes", size);
        self.obs_latency(ObsLayer::Lsm, "flush_ns", self.clock_ns() - t0);
        self.obs_event(ObsLayer::Lsm, ObsEventKind::Flush, size, file_id);
        self.obs_event(ObsLayer::Wal, ObsEventKind::WalRotate, new_wal, old_wal);
        Ok(())
    }

    /// Whether a compaction can move its single input file down a level
    /// without rewriting (LevelDB's trivial move).
    fn is_trivial_move(&self, c: &Compaction) -> bool {
        c.inputs[0].len() == 1
            && c.inputs[1].is_empty()
            && c.grandparents.iter().map(|f| f.size).sum::<u64>()
                <= self.opts.max_grandparent_overlap_bytes
    }

    /// Physically contiguous runs among `files` taken in order: tables
    /// that do not start where their predecessor ends.
    fn contiguous_runs(&self, files: &[FileMetaHandle]) -> usize {
        let guard = self.ctx.lock();
        let joined = files
            .windows(2)
            .filter(|w| guard.fs.file_follows(w[0].id, w[1].id))
            .count();
        files.len() - joined
    }

    /// Level-0 `files` as device runs of `(offset, id)`: taken in device
    /// order, a table that starts where the one before it ends joins that
    /// table's run.
    fn level0_runs(&self, files: &[FileMetaHandle]) -> Vec<Vec<(u64, FileId)>> {
        let guard = self.ctx.lock();
        let mut by_offset: Vec<(u64, FileId)> = files
            .iter()
            .map(|f| {
                let at = guard.fs.file_extent(f.id).map_or(u64::MAX, |e| e.offset);
                (at, f.id)
            })
            .collect();
        by_offset.sort_unstable();
        let mut runs: Vec<Vec<(u64, FileId)>> = Vec::new();
        for (at, id) in by_offset {
            match runs.last_mut() {
                Some(run)
                    if run
                        .last()
                        .is_some_and(|&(_, prev)| guard.fs.file_follows(prev, id)) =>
                {
                    run.push((at, id))
                }
                _ => runs.push(vec![(at, id)]),
            }
        }
        runs
    }

    fn do_compaction(&mut self, c: Compaction) -> Result<()> {
        let cid = self.compactions.len() as u64 + 1;
        let start_ns = self.clock_ns();
        if self.is_trivial_move(&c) {
            let f = &c.inputs[0][0];
            let f_size = f.size;
            let mut edit = VersionEdit::default();
            edit.delete_file(c.level, f.id);
            edit.add_file(c.level + 1, (**f).clone());
            edit.compact_pointers.push((c.level, f.largest.clone()));
            let mut guard = self.ctx.lock();
            self.versions.log_and_apply(&mut guard.fs, edit)?;
            drop(guard);
            self.compactions.push(CompactionRecord {
                id: cid,
                input_files: 1,
                input_runs: 1,
                input_bytes: f_size,
                output_files: 1,
                output_bytes: 0,
                start_ns,
                duration_ns: 0,
                output_bands: 0,
                trivial_move: true,
            });
            self.obs_counter(ObsLayer::Lsm, "trivial_moves", 1);
            self.obs_event(
                ObsLayer::Lsm,
                ObsEventKind::TrivialMove,
                c.level as u64,
                f_size,
            );
            return Ok(());
        }

        // Every device access of the merge is traced under the compaction's
        // id, and none after it — whichever way it ends.
        self.ctx.lock().fs.disk_mut().set_trace_tag(cid);
        let result = self.merge_compaction(&c, cid, start_ns);
        self.ctx.lock().fs.disk_mut().set_trace_tag(0);
        result
    }

    /// The rewriting half of [`DbCore::do_compaction`]: merge the inputs,
    /// place and install the outputs, drop the inputs, record the run.
    fn merge_compaction(&mut self, c: &Compaction, cid: u64, start_ns: u64) -> Result<()> {
        // Read inputs the way LevelDB does: a merging iterator pulling
        // blocks on demand, uncached. Level-0 victims overlap, so each is
        // its own concurrent stream — except where flushes were chained
        // back-to-back (`Allocator::allocate_in_run`): such a run is read
        // in one device read and merged from memory, every block still
        // verified. Sorted-level inputs are disjoint and stream file after
        // file in key order — which for set-placed files is also disk
        // order: there the level iterator reads through each table's
        // filter/index/footer tail into the next table, and the set
        // arrives as the paper's one large sequential read
        // (`LevelIterator::bridge_to_next`). Files placed apart are read
        // exactly as before. `input_runs` is the resulting stream count;
        // measured against the drive's read-ahead segments, it is what
        // separates the three systems' compaction efficiency.
        let mut children: Vec<Box<dyn InternalIterator>> = Vec::new();
        let mut input_bytes = 0u64;
        let mut input_runs = self.contiguous_runs(&c.inputs[1]);
        if c.level == 0 {
            let runs = self.level0_runs(&c.inputs[0]);
            input_runs += runs.len();
            let mut in_run: BTreeMap<FileId, (Arc<Vec<u8>>, usize)> = BTreeMap::new();
            for run in runs.iter().filter(|run| run.len() > 1) {
                let ids: Vec<FileId> = run.iter().map(|&(_, id)| id).collect();
                let image = self.ctx.lock().fs.read_run(&ids, IoKind::CompactionRead)?;
                let image = Arc::new(image);
                for &(at, id) in run {
                    in_run.insert(id, (Arc::clone(&image), (at - run[0].0) as usize));
                }
                self.obs_counter(
                    ObsLayer::Lsm,
                    "compaction.run_read_bytes",
                    image.len() as u64,
                );
            }
            for f in &c.inputs[0] {
                input_bytes += f.size;
                let table = get_table(&self.ctx, f.id, f.size)?;
                let it = table.iter(self.ctx.clone(), IoKind::CompactionRead);
                children.push(Box::new(match in_run.remove(&f.id) {
                    Some((image, at)) => it.in_run(image, at),
                    None => it,
                }));
            }
        } else if !c.inputs[0].is_empty() {
            input_runs += self.contiguous_runs(&c.inputs[0]);
            input_bytes += c.inputs[0].iter().map(|f| f.size).sum::<u64>();
            children.push(Box::new(LevelIterator::new(
                self.ctx.clone(),
                c.inputs[0].clone(),
                IoKind::CompactionRead,
            )));
        }
        if !c.inputs[1].is_empty() {
            input_bytes += c.inputs[1].iter().map(|f| f.size).sum::<u64>();
            children.push(Box::new(LevelIterator::new(
                self.ctx.clone(),
                c.inputs[1].clone(),
                IoKind::CompactionRead,
            )));
        }
        let mut merged = MergingIterator::new(children);
        merged.seek_to_first();

        // Merge, dropping shadowed versions and obsolete tombstones while
        // preserving everything a live snapshot can still observe
        // (LevelDB's rule: only versions hidden by a *newer* entry that is
        // itself at or below the smallest snapshot may go).
        let version = self.versions.current();
        let smallest_snapshot = self.smallest_snapshot();
        let mut outputs = PendingOutputs::default();
        let mut builder: Option<TableBuilder> = None;
        // The one buffer that must outlive `merged.next()`; reused for
        // every key. The entry itself is read in place from the iterator.
        let mut last_user_key: Option<Vec<u8>> = None;
        let mut last_seq_for_key = MAX_SEQUENCE;
        let mut gp_index = 0usize;
        let mut gp_overlap = 0u64;
        while merged.valid() {
            let ikey = merged.key();
            let ukey = user_key(ikey);
            let first_occurrence = last_user_key.as_deref() != Some(ukey);
            if first_occurrence {
                let last = last_user_key.get_or_insert_with(Vec::new);
                last.clear();
                last.extend_from_slice(ukey);
                last_seq_for_key = MAX_SEQUENCE;
                // Output splitting on grandparent overlap.
                while gp_index < c.grandparents.len()
                    && user_key(&c.grandparents[gp_index].largest) < ukey
                {
                    gp_overlap += c.grandparents[gp_index].size;
                    gp_index += 1;
                }
                if gp_overlap > self.opts.max_grandparent_overlap_bytes {
                    if let Some(b) = builder.take() {
                        Self::finish_output(&mut outputs, &mut self.versions, b);
                    }
                    gp_overlap = 0;
                }
            }
            let (seq, ty) = try_parse_trailer(ikey)?;
            let drop_entry = if last_seq_for_key <= smallest_snapshot {
                // A newer version of this key is visible at every live
                // snapshot: nothing can observe this one.
                true
            } else {
                ty == ValueType::Deletion
                    && seq <= smallest_snapshot
                    && !version.range_overlaps_deeper(c.level + 1, ukey, ukey)
            };
            last_seq_for_key = seq;
            if !drop_entry {
                let b = builder.get_or_insert_with(|| TableBuilder::new(self.opts.table_options()));
                b.add(ikey, merged.value());
                if b.file_size_estimate() >= self.opts.sstable_size {
                    let b = builder.take().expect("builder present");
                    Self::finish_output(&mut outputs, &mut self.versions, b);
                }
            }
            merged.next();
        }
        // A child iterator that hit a read error went invalid, which the
        // merge loop above cannot tell apart from a drained input. Bail
        // out *before* installing the edit: proceeding would write
        // outputs missing the unread tail and then delete the inputs —
        // silent data loss behind a "successful" compaction. Nothing is
        // installed yet, so the failed attempt leaves no state behind
        // and the compaction is simply retried later.
        if let Some(e) = merged.take_error() {
            return Err(e);
        }
        if let Some(b) = builder.take() {
            if b.num_entries() > 0 {
                Self::finish_output(&mut outputs, &mut self.versions, b);
            }
        }

        // Place outputs contiguously (or per-file, policy's choice).
        let (set_id, output_bands) = {
            let mut guard = self.ctx.lock();
            let set_id = self.policy.place_outputs(&mut guard.fs, &outputs.tables)?;
            // Count distinct fixed bands the outputs landed in (Fig. 3a).
            let mut bands = std::collections::BTreeSet::new();
            if let Some(bs) = guard.fs.disk().band_size() {
                for (id, _) in &outputs.tables {
                    let ext = guard.fs.file_extent(*id)?;
                    let first = ext.offset / bs;
                    let last = (ext.end() - 1) / bs;
                    bands.extend(first..=last);
                }
            }
            (set_id, bands.len() as u64)
        };

        // Install the new version.
        let mut edit = VersionEdit::default();
        for (which, level) in [(0usize, c.level), (1usize, c.level + 1)] {
            for f in &c.inputs[which] {
                edit.delete_file(level, f.id);
            }
        }
        let mut output_bytes = 0u64;
        let output_files = outputs.tables.len();
        for ((id, data), (smallest, largest)) in outputs.tables.iter().zip(outputs.ranges) {
            output_bytes += data.len() as u64;
            edit.add_file(
                c.level + 1,
                FileMetaData {
                    id: *id,
                    size: data.len() as u64,
                    smallest,
                    largest,
                    set_id,
                    order: *id,
                },
            );
        }
        if let Some(last) = c.inputs[0].last() {
            edit.compact_pointers.push((c.level, last.largest.clone()));
        }
        self.install_tables(edit, &outputs.tables)?;
        {
            let mut guard = self.ctx.lock();
            for f in c.inputs.iter().flatten() {
                self.policy.delete_file(&mut guard.fs, f.id)?;
            }
        }
        for f in c.inputs.iter().flatten() {
            evict_file(&self.ctx, f.id);
        }
        let end_ns = self.clock_ns();
        self.compactions.push(CompactionRecord {
            id: cid,
            input_files: c.num_input_files(),
            input_runs,
            input_bytes,
            output_files,
            output_bytes,
            start_ns,
            duration_ns: end_ns - start_ns,
            output_bands,
            trivial_move: false,
        });
        let lvl = c.level;
        self.obs_counter(
            ObsLayer::Lsm,
            &format!("compaction.l{lvl}.bytes_in"),
            input_bytes,
        );
        self.obs_counter(
            ObsLayer::Lsm,
            &format!("compaction.l{lvl}.bytes_out"),
            output_bytes,
        );
        self.obs_counter(ObsLayer::Lsm, &format!("compaction.l{lvl}.count"), 1);
        self.obs_counter(ObsLayer::Lsm, "compaction.input_runs", input_runs as u64);
        self.obs_latency(ObsLayer::Lsm, "compaction_ns", end_ns - start_ns);
        self.obs_event(
            ObsLayer::Lsm,
            ObsEventKind::Compaction,
            lvl as u64,
            output_bytes,
        );
        Ok(())
    }

    /// The one place a table the engine built becomes live — flush,
    /// compaction and scrub's rebuild all install through here. Commits
    /// `edit`, which adds `tables` (already placed on the device) to the
    /// version, then hands each table's reader to the table cache, made
    /// from the image the builder still holds, so no compaction opens its
    /// inputs cold (LevelDB's verify-after-build does the same through
    /// the page cache; DESIGN.md §5). The readers pass [`Table::open`]'s
    /// checks before anything is committed and enter the cache only after
    /// the edit is: outputs orphaned by a failed placement or manifest
    /// write never get a reader.
    fn install_tables(&mut self, edit: VersionEdit, tables: &[(FileId, Vec<u8>)]) -> Result<()> {
        let readers = tables
            .iter()
            .map(|(id, image)| Ok((*id, Arc::new(Table::from_image(*id, image)?))))
            .collect::<Result<Vec<_>>>()?;
        let mut guard = self.ctx.lock();
        self.versions.log_and_apply(&mut guard.fs, edit)?;
        for (id, reader) in readers {
            guard.table_cache.insert(id, reader, 1);
        }
        Ok(())
    }

    fn finish_output(
        outputs: &mut PendingOutputs,
        versions: &mut VersionSet,
        builder: TableBuilder,
    ) {
        let smallest = builder.first_key().expect("non-empty output").to_vec();
        let largest = builder.last_key().to_vec();
        outputs.ranges.push((smallest, largest));
        outputs
            .tables
            .push((versions.new_file_id(), builder.finish()));
    }

    // ----- snapshots -----

    /// Pins the current state: reads through the returned handle see the
    /// database as of this moment, regardless of later writes, and
    /// compactions retain the versions the handle can observe.
    pub fn snapshot(&mut self) -> Snapshot {
        let seq = self.versions.last_sequence();
        self.snapshots.push(seq);
        Snapshot { seq }
    }

    /// Releases a snapshot, letting compactions drop its pinned versions.
    pub fn release_snapshot(&mut self, snap: Snapshot) {
        if let Some(pos) = self.snapshots.iter().position(|&s| s == snap.seq) {
            self.snapshots.swap_remove(pos);
        }
    }

    /// The oldest sequence any reader may still observe.
    fn smallest_snapshot(&self) -> SequenceNumber {
        self.snapshots
            .iter()
            .copied()
            .min()
            .unwrap_or_else(|| self.versions.last_sequence())
    }

    /// Point lookup as of a snapshot.
    pub fn get_at(&mut self, key: &[u8], snap: &Snapshot) -> Result<Option<Vec<u8>>> {
        self.get_internal(key, snap.seq)
    }

    // ----- read path -----

    /// Point lookup at the latest state.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let snapshot = self.versions.last_sequence();
        self.get_internal(key, snapshot)
    }

    fn get_internal(&mut self, key: &[u8], snapshot: SequenceNumber) -> Result<Option<Vec<u8>>> {
        let t0 = self.clock_ns();
        let r = self.get_inner(key, snapshot);
        self.obs_latency(ObsLayer::Store, "get_ns", self.clock_ns() - t0);
        r
    }

    fn get_inner(&mut self, key: &[u8], snapshot: SequenceNumber) -> Result<Option<Vec<u8>>> {
        if let Some(hit) = self.mem.get(key, snapshot) {
            return Ok(hit);
        }
        let lk = lookup_key(key, snapshot);
        let version = self.versions.current();
        for (_, f) in version.files_for_get(key) {
            let table = get_table(&self.ctx, f.id, f.size)?;
            if table.bloom_excludes(key) {
                continue;
            }
            let mut it = table.iter(self.ctx.clone(), IoKind::Get);
            it.seek(&lk);
            if let Some(e) = it.take_error() {
                return Err(e);
            }
            if it.valid() && user_key(it.key()) == key {
                let (_, ty) = try_parse_trailer(it.key())?;
                return Ok(match ty {
                    ValueType::Value => Some(it.value().to_vec()),
                    ValueType::Deletion => None,
                });
            }
        }
        Ok(None)
    }

    /// Range scan: up to `limit` visible entries with user key >= `start`.
    pub fn scan(&mut self, start: &[u8], limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let snapshot = self.versions.last_sequence();
        self.scan_internal(start, limit, snapshot, true)
    }

    /// Every visible entry, read past the block cache: a bulk read (a
    /// shard migration's source) streams each block once, as a
    /// compaction input does, so it neither evicts the blocks gets keep
    /// re-reading nor takes hits on them — a hit in the middle of a
    /// device stream would cost the next block a seek.
    pub fn scan_bulk(&mut self) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let snapshot = self.versions.last_sequence();
        self.scan_internal(b"", usize::MAX, snapshot, false)
    }

    fn scan_internal(
        &mut self,
        start: &[u8],
        limit: usize,
        snapshot: SequenceNumber,
        use_cache: bool,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let t0 = self.clock_ns();
        let r = self.scan_inner(start, limit, snapshot, use_cache);
        self.obs_latency(ObsLayer::Store, "scan_ns", self.clock_ns() - t0);
        r
    }

    fn scan_inner(
        &mut self,
        start: &[u8],
        limit: usize,
        snapshot: SequenceNumber,
        use_cache: bool,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let version = self.versions.current();
        let mut children: Vec<Box<dyn InternalIterator + '_>> = vec![Box::new(self.mem.iter())];
        for f in &version.files[0] {
            let table = get_table(&self.ctx, f.id, f.size)?;
            children.push(Box::new(
                table
                    .iter(self.ctx.clone(), IoKind::Scan)
                    .with_cache(use_cache),
            ));
        }
        // The deepest level holds most rows, so its child is the merge's
        // device stream: it keeps that stream off the block cache
        // (`LevelIterator::streaming`).
        let deepest = (1..version.num_levels()).rfind(|&l| !version.files[l].is_empty());
        for level in 1..version.num_levels() {
            if !version.files[level].is_empty() {
                let it = LevelIterator::new(
                    self.ctx.clone(),
                    version.files[level].clone(),
                    IoKind::Scan,
                )
                .with_cache(use_cache);
                children.push(Box::new(if Some(level) == deepest {
                    it.streaming()
                } else {
                    it
                }));
            }
        }
        let mut it = DbIterator::new(MergingIterator::new(children), snapshot);
        it.seek(start);
        it.collect(limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;
    use placement::Ext4Sim;
    use smr_sim::{Extent, Layout, TimeModel};

    const MB: u64 = 1 << 20;

    fn open_db(sstable: u64) -> DbCore {
        let cap = 1024 * MB;
        let disk = Disk::new(cap, Layout::Hdd, TimeModel::hdd_st1000dm003(cap));
        let mut opts = Options::scaled(sstable);
        // Tests exercise durability: sync every write.
        opts.wal_buffer_bytes = 0;
        let alloc = Ext4Sim::new(cap - opts.log_zone_bytes(), 16 * MB);
        let policy = crate::policy::PerFilePolicy::new(Box::new(alloc));
        DbCore::open(disk, opts, Box::new(policy)).unwrap()
    }

    fn kv(i: u64) -> (Vec<u8>, Vec<u8>) {
        (
            format!("key{:012}", i).into_bytes(),
            format!("value-{i:06}-{}", "x".repeat(100)).into_bytes(),
        )
    }

    #[test]
    fn apply_replicated_preserves_sequence_and_is_idempotent() {
        let mut primary = open_db(64 << 10);
        let mut replica = open_db(64 << 10);
        // Ship three batches primary -> replica, preserving sequences.
        let mut frames = Vec::new();
        for round in 0..3u64 {
            let mut b = WriteBatch::new();
            for i in 0..4u64 {
                let (k, v) = kv(round * 4 + i);
                b.put(&k, &v);
            }
            let seq = primary.last_sequence() + 1;
            let mut shipped = WriteBatch::decode(b.rep()).unwrap();
            shipped.set_sequence(seq);
            primary.write(b).unwrap();
            frames.push(shipped);
        }
        for f in &frames {
            assert!(replica
                .apply_replicated(WriteBatch::decode(f.rep()).unwrap())
                .unwrap());
        }
        assert_eq!(replica.last_sequence(), primary.last_sequence());
        // Duplicate frames are skipped, not re-applied.
        let dup = WriteBatch::decode(frames[2].rep()).unwrap();
        assert!(!replica.apply_replicated(dup).unwrap());
        assert_eq!(replica.last_sequence(), primary.last_sequence());
        // A gap is refused.
        let mut gap = WriteBatch::new();
        gap.put(b"gap", b"gap");
        gap.set_sequence(replica.last_sequence() + 5);
        assert!(replica.apply_replicated(gap).is_err());
        // The replica serves the replicated data, including after reopen
        // (the applied frames went through its own WAL).
        for i in 0..12 {
            let (k, v) = kv(i);
            assert_eq!(replica.get(&k).unwrap(), Some(v));
        }
        let mut replica = replica.reopen().unwrap();
        for i in 0..12 {
            let (k, v) = kv(i);
            assert_eq!(replica.get(&k).unwrap(), Some(v));
        }
    }

    #[test]
    fn put_get_small() {
        let mut db = open_db(64 << 10);
        for i in 0..100 {
            let (k, v) = kv(i);
            db.put(&k, &v).unwrap();
        }
        for i in 0..100 {
            let (k, v) = kv(i);
            assert_eq!(db.get(&k).unwrap(), Some(v));
        }
        assert_eq!(db.get(b"missing").unwrap(), None);
    }

    #[test]
    fn overwrite_and_delete() {
        let mut db = open_db(64 << 10);
        db.put(b"k", b"v1").unwrap();
        db.put(b"k", b"v2").unwrap();
        assert_eq!(db.get(b"k").unwrap(), Some(b"v2".to_vec()));
        db.delete(b"k").unwrap();
        assert_eq!(db.get(b"k").unwrap(), None);
        db.put(b"k", b"v3").unwrap();
        assert_eq!(db.get(b"k").unwrap(), Some(b"v3".to_vec()));
    }

    #[test]
    fn flush_creates_l0_tables_and_reads_survive() {
        let mut db = open_db(64 << 10);
        let n = 2000u64;
        for i in 0..n {
            let (k, v) = kv(i);
            db.put(&k, &v).unwrap();
        }
        db.flush().unwrap();
        assert!(db.flush_count() > 0);
        assert!(db.current_version().files.iter().flatten().count() > 0);
        for i in (0..n).step_by(97) {
            let (k, v) = kv(i);
            assert_eq!(db.get(&k).unwrap(), Some(v), "key {i}");
        }
    }

    #[test]
    fn random_load_compacts_and_stays_correct() {
        let mut db = open_db(32 << 10);
        let n = 4000u64;
        // Scrambled insertion order.
        for i in 0..n {
            let j = (i * 2654435761) % n;
            let (k, v) = kv(j);
            db.put(&k, &v).unwrap();
        }
        db.flush().unwrap();
        let real: Vec<&CompactionRecord> = db
            .compaction_log()
            .iter()
            .filter(|c| !c.trivial_move)
            .collect();
        assert!(!real.is_empty(), "expected real compactions");
        // Deeper levels populated.
        let v = db.current_version();
        assert!(v.level_file_count(1) + v.level_file_count(2) > 0);
        v.check_invariants().unwrap();
        for i in (0..n).step_by(131) {
            let (k, val) = kv(i);
            assert_eq!(db.get(&k).unwrap(), Some(val), "key {i}");
        }
    }

    #[test]
    fn scan_returns_sorted_visible_entries() {
        let mut db = open_db(32 << 10);
        let n = 1500u64;
        for i in 0..n {
            let j = (i * 7919) % n;
            let (k, v) = kv(j);
            db.put(&k, &v).unwrap();
        }
        // Delete a stripe.
        for i in 100..120 {
            let (k, _) = kv(i);
            db.delete(&k).unwrap();
        }
        let got = db.scan(&kv(90).0, 40).unwrap();
        assert_eq!(got.len(), 40);
        // Sorted and skipping the deleted stripe.
        let keys: Vec<&[u8]> = got.iter().map(|(k, _)| k.as_slice()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        for i in 100..120 {
            let (k, _) = kv(i);
            assert!(!keys.contains(&k.as_slice()), "deleted key {i} visible");
        }
        // Values are the right ones.
        for (k, v) in &got {
            let i: u64 = String::from_utf8_lossy(&k[3..]).parse().unwrap();
            assert_eq!(v, &kv(i).1);
        }
    }

    #[test]
    fn scan_sees_memtable_and_disk_merged() {
        let mut db = open_db(32 << 10);
        for i in 0..1000u64 {
            let (k, v) = kv(i);
            db.put(&k, &v).unwrap();
        }
        db.flush().unwrap();
        // Fresh writes stay in the memtable.
        db.put(&kv(2000).0, b"fresh").unwrap();
        db.put(&kv(500).0, b"updated").unwrap();
        let got = db.scan(&kv(499).0, 3).unwrap();
        assert_eq!(got[1].0, kv(500).0);
        assert_eq!(got[1].1, b"updated");
        let got = db.scan(&kv(1999).0, 2).unwrap();
        assert_eq!(got[0].1, b"fresh");
    }

    #[test]
    fn wal_recovery_replays_unflushed_writes() {
        let mut db = open_db(256 << 10); // large buffer: nothing flushes
        for i in 0..50 {
            let (k, v) = kv(i);
            db.put(&k, &v).unwrap();
        }
        let seq_before = db.last_sequence();
        // Simulate a crash: reopen without flushing.
        let mut db = db.reopen().unwrap();
        assert_eq!(db.last_sequence(), seq_before);
        for i in 0..50 {
            let (k, v) = kv(i);
            assert_eq!(db.get(&k).unwrap(), Some(v), "key {i} lost in recovery");
        }
    }

    #[test]
    fn recovery_after_flush_uses_manifest() {
        let mut db = open_db(32 << 10);
        for i in 0..2000u64 {
            let (k, v) = kv(i);
            db.put(&k, &v).unwrap();
        }
        db.flush().unwrap();
        for i in 2000..2050u64 {
            let (k, v) = kv(i);
            db.put(&k, &v).unwrap();
        }
        let mut db = db.reopen().unwrap();
        for i in (0..2050u64).step_by(41) {
            let (k, v) = kv(i);
            assert_eq!(db.get(&k).unwrap(), Some(v), "key {i}");
        }
    }

    #[test]
    fn snapshot_reads_see_frozen_state() {
        let mut db = open_db(16 << 10);
        for i in 0..500u64 {
            let (k, v) = kv(i);
            db.put(&k, &v).unwrap();
        }
        let snap = db.snapshot();
        // Overwrite and delete after the snapshot.
        for i in 0..500u64 {
            let (k, _) = kv(i);
            if i % 3 == 0 {
                db.delete(&k).unwrap();
            } else {
                db.put(&k, b"new-value").unwrap();
            }
        }
        db.flush().unwrap();
        for i in (0..500u64).step_by(17) {
            let (k, v) = kv(i);
            assert_eq!(db.get_at(&k, &snap).unwrap(), Some(v), "snapshot read {i}");
            let live = db.get(&k).unwrap();
            if i % 3 == 0 {
                assert_eq!(live, None);
            } else {
                assert_eq!(live, Some(b"new-value".to_vec()));
            }
        }
        // Snapshot scans see the old values too.
        let got = db.scan_internal(&kv(0).0, 5, snap.seq, true).unwrap();
        assert_eq!(got[0].1, kv(0).1);
        db.release_snapshot(snap);
        assert_eq!(db.snapshots.len(), 0);
    }

    #[test]
    fn snapshot_survives_compactions() {
        let mut db = open_db(8 << 10);
        for i in 0..1000u64 {
            let (k, v) = kv(i);
            db.put(&k, &v).unwrap();
        }
        db.flush().unwrap();
        let snap = db.snapshot();
        // Churn hard: several full overwrites force compactions that
        // would drop the old versions were the snapshot not pinned.
        for round in 0..3u64 {
            for i in 0..1000u64 {
                let (k, _) = kv(i);
                db.put(&k, format!("round-{round}").as_bytes()).unwrap();
            }
        }
        db.flush().unwrap();
        for i in (0..1000u64).step_by(41) {
            let (k, v) = kv(i);
            assert_eq!(db.get_at(&k, &snap).unwrap(), Some(v), "pinned version {i}");
            assert_eq!(db.get(&k).unwrap(), Some(b"round-2".to_vec()));
        }
        db.release_snapshot(snap);
        // After release, further churn may reclaim the old versions; the
        // live state stays correct.
        for i in 0..1000u64 {
            let (k, _) = kv(i);
            db.put(&k, b"final").unwrap();
        }
        db.flush().unwrap();
        assert_eq!(db.get(&kv(7).0).unwrap(), Some(b"final".to_vec()));
    }

    fn live_ids(db: &DbCore) -> std::collections::BTreeSet<FileId> {
        let v = db.current_version();
        v.files.iter().flatten().map(|f| f.id).collect()
    }

    #[test]
    fn fresh_tables_enter_the_table_cache_without_device_reads() {
        let mut db = open_db(16 << 10);
        for i in 0..3000u64 {
            let (k, v) = kv((i * 2654435761) % 3000);
            db.put(&k, &v).unwrap();
        }
        db.flush().unwrap();
        assert!(db.compaction_log().iter().any(|c| !c.trivial_move));
        let guard = db.ctx().lock();
        // Every compaction found its inputs' readers where flush or an
        // earlier compaction left them.
        let (hits, misses) = guard.table_cache.hit_stats();
        assert!(hits > 0);
        assert_eq!(misses, 0);
        assert_eq!(guard.fs.disk().stats().kind(IoKind::Meta).logical_read, 0);
        // Exactly the live tables have readers: inputs were evicted.
        assert_eq!(guard.table_cache.len(), live_ids(&db).len());
    }

    #[test]
    fn failed_placement_leaves_no_reader_for_orphaned_outputs() {
        type Arm = fn(&mut Disk);
        let faults: [(Arm, Arm); 2] = [
            (
                |d| d.fail_writes_after(Some(3)),
                |d| d.fail_writes_after(None),
            ),
            (
                |d| d.faults_mut().tear_write_after(3),
                |d| d.faults_mut().disarm_torn_writes(),
            ),
        ];
        for (arm, disarm) in faults {
            let cap = 1024 * MB;
            let disk = Disk::new(cap, Layout::Hdd, TimeModel::hdd_st1000dm003(cap));
            // One 32 KiB table per flush, 8 KiB compaction outputs: the
            // first L0 compaction places a dozen files, one write each.
            let mut opts = Options::scaled(8 << 10);
            opts.write_buffer_size = 32 << 10;
            opts.wal_buffer_bytes = 0;
            let alloc = Ext4Sim::new(cap - opts.log_zone_bytes(), 16 * MB);
            let policy = crate::policy::PerFilePolicy::new(Box::new(alloc));
            let mut db = DbCore::open(disk, opts, Box::new(policy)).unwrap();
            db.set_deferred_compaction(true);
            let mut n = 0u64;
            while db.current_version().level_file_count(0) < 4 {
                let (k, v) = kv((n * 2654435761) % 100_000);
                db.put(&k, &v).unwrap();
                n += 1;
            }
            let live_before = live_ids(&db);

            // The fault lands inside `place_outputs`: three outputs reach
            // the device, the fourth write fails, no edit is committed.
            arm(db.ctx().lock().fs.disk_mut());
            assert!(db.compact_step().is_err());
            disarm(db.ctx().lock().fs.disk_mut());
            assert_eq!(live_ids(&db), live_before, "nothing was installed");
            let on_device: Vec<FileId> = {
                let guard = db.ctx().lock();
                guard.fs.file_extents().iter().map(|(id, _)| *id).collect()
            };
            let orphans: Vec<FileId> = on_device
                .into_iter()
                .filter(|id| !live_before.contains(id))
                .collect();
            assert!(orphans.len() >= 3, "placed outputs: {orphans:?}");
            {
                let mut guard = db.ctx().lock();
                assert_eq!(guard.table_cache.len(), live_before.len());
                for id in &orphans {
                    assert!(guard.table_cache.get(id).is_none(), "reader for {id}");
                }
            }

            // The failed compaction took its trace tag with it: what the
            // engine does next is traced untagged. (The memtable has just
            // been flushed, so this put is one WAL append and no more.)
            let traced = |db: &DbCore| {
                let mut guard = db.ctx().lock();
                let trace = guard.fs.disk_mut().trace_mut();
                let events = trace.events().to_vec();
                trace.clear();
                events
            };
            db.ctx().lock().fs.disk_mut().trace_mut().set_enabled(true);
            db.put(b"after-the-failure", b"v").unwrap();
            let events = traced(&db);
            assert!(!events.is_empty());
            assert!(events.iter().all(|e| e.tag == 0), "{events:?}");

            // The retry runs the same compaction under fresh file ids,
            // and every access it makes carries the id it is recorded by.
            assert!(db.compact_step().unwrap());
            let cid = db.compaction_log().last().expect("recorded").id;
            let events = traced(&db);
            assert!(events.iter().any(|e| e.kind == IoKind::CompactionRead));
            assert!(events.iter().any(|e| e.kind == IoKind::CompactionWrite));
            assert!(events.iter().all(|e| e.tag == cid), "{events:?}");
            db.get(b"after-the-failure").unwrap();
            assert!(traced(&db).iter().all(|e| e.tag == 0));
            assert_eq!(db.current_version().level_file_count(0), 0);
            for i in 0..n {
                let (k, v) = kv((i * 2654435761) % 100_000);
                assert_eq!(db.get(&k).unwrap(), Some(v), "key {i}");
            }
        }
    }

    /// Two L0→L1 compactions on a one-group allocator (first fit, so a
    /// compaction's outputs lie back to back): the second one streams the
    /// first one's outputs through a [`LevelIterator`]. With `fault`, a
    /// latent sector error sits in the footer of the first of them.
    /// Returns the database and the length of that table's tail.
    fn second_compaction_over_a_contiguous_level(fault: bool) -> (DbCore, u64) {
        let cap = 1024 * MB;
        let disk = Disk::new(cap, Layout::Hdd, TimeModel::hdd_st1000dm003(cap));
        let mut opts = Options::scaled(8 << 10);
        opts.write_buffer_size = 32 << 10;
        opts.wal_buffer_bytes = 0;
        // Level 1 holds both rounds: the second step is L0→L1 again.
        opts.level_base_bytes = 1 << 20;
        let data = cap - opts.log_zone_bytes();
        let policy = crate::policy::PerFilePolicy::new(Box::new(Ext4Sim::new(data, data)));
        let mut db = DbCore::open(disk, opts, Box::new(policy)).unwrap();
        db.set_deferred_compaction(true);
        let mut n = 0u64;
        let mut fill_l0 = |db: &mut DbCore| {
            while db.current_version().level_file_count(0) < 4 {
                let (k, v) = kv((n * 2654435761) % 100_000);
                db.put(&k, &v).unwrap();
                n += 1;
            }
        };
        fill_l0(&mut db);
        assert!(db.compact_step().unwrap());
        fill_l0(&mut db);
        let first = db.current_version().files[1][0].clone();
        let tail = {
            let mut guard = db.ctx().lock();
            let ext = guard.fs.file_extent(first.id).unwrap();
            let footer_len = crate::sstable::FOOTER_SIZE as u64;
            let footer = guard
                .fs
                .read_file(first.id, first.size - footer_len, footer_len, IoKind::Raw)
                .unwrap();
            let (filter, index) = crate::sstable::table::parse_footer(&footer).unwrap();
            if fault {
                let bad = Extent::new(ext.end() - 8, 8);
                guard.fs.disk_mut().faults_mut().fail_reads_permanently(bad);
            }
            // The tail starts at the filter, or at the index without one.
            let tail_at = [filter, index].iter().find(|h| h.size > 0).unwrap().offset;
            first.size - tail_at
        };
        assert!(
            db.compact_step().unwrap(),
            "a dropped bridge is not an error"
        );
        (db, tail)
    }

    #[test]
    fn compaction_outcome_does_not_depend_on_the_bridge_read() {
        let (mut clean, _) = second_compaction_over_a_contiguous_level(false);
        let (mut faulted, tail) = second_compaction_over_a_contiguous_level(true);
        let bridged = |db: &DbCore| {
            let guard = db.ctx().lock();
            let reg = &guard.fs.disk().obs().registry;
            reg.counter(ObsLayer::Lsm, "compaction.bridged_bytes")
        };
        // The clean run streamed the old level as one run next to the
        // four level-0 victims, which first fit flushed back to back and
        // so are one run read whole; the faulted one lost exactly one
        // bridge. (What that costs in seeks is pinned in `iter.rs`, on one
        // stream.)
        let rec = clean.compaction_log().last().unwrap().clone();
        assert!(rec.input_files > 8, "{rec:?}");
        assert_eq!(rec.input_runs, 1 + 1, "{rec:?}");
        assert!(bridged(&clean) > 0);
        assert_eq!(bridged(&faulted), bridged(&clean) - tail);
        let faults = faulted.ctx().lock().fs.disk().stats().faults;
        assert_eq!(faults.unrecoverable_reads, 1);
        // Same outputs, byte for byte.
        let tables = |db: &DbCore| -> Vec<(FileId, Vec<u8>)> {
            let version = db.current_version();
            let mut guard = db.ctx().lock();
            let files = version.files.iter().flatten();
            files
                .map(|f| (f.id, guard.fs.read_full(f.id, IoKind::Raw).unwrap()))
                .collect()
        };
        assert_eq!(tables(&faulted), tables(&clean));
        let all = |db: &mut DbCore| db.scan(b"", usize::MAX).unwrap();
        assert_eq!(all(&mut faulted), all(&mut clean));
    }

    /// Four level-0 tables awaiting their L0→L1 compaction, flushed onto
    /// one first-fit group (back to back: a run) or spread over 16 MiB
    /// block groups (scattered).
    fn level0_awaiting_compaction(run: bool) -> DbCore {
        let cap = 1024 * MB;
        let disk = Disk::new(cap, Layout::Hdd, TimeModel::hdd_st1000dm003(cap));
        let mut opts = Options::scaled(8 << 10);
        opts.write_buffer_size = 32 << 10;
        opts.wal_buffer_bytes = 0;
        let data = cap - opts.log_zone_bytes();
        let group = if run { data } else { 16 * MB };
        let policy = crate::policy::PerFilePolicy::new(Box::new(Ext4Sim::new(data, group)));
        let mut db = DbCore::open(disk, opts, Box::new(policy)).unwrap();
        db.set_deferred_compaction(true);
        let mut n = 0u64;
        while db.current_version().level_file_count(0) < 4 {
            let (k, v) = kv((n * 2654435761) % 100_000);
            db.put(&k, &v).unwrap();
            n += 1;
        }
        let level0 = db.current_version().files[0].clone();
        let runs = db.level0_runs(&level0);
        assert_eq!(runs.len(), if run { 1 } else { 4 }, "{runs:?}");
        db
    }

    /// Runs the pending compaction with the trace on; returns its
    /// `CompactionRead` accesses.
    fn traced_compaction(db: &mut DbCore) -> Result<Vec<smr_sim::TraceEvent>> {
        db.ctx().lock().fs.disk_mut().trace_mut().set_enabled(true);
        let done = db.compact_step();
        let mut guard = db.ctx().lock();
        let trace = guard.fs.disk_mut().trace_mut();
        let reads = trace
            .events()
            .iter()
            .filter(|e| e.kind == IoKind::CompactionRead)
            .copied()
            .collect();
        trace.set_enabled(false);
        trace.clear();
        assert!(done?, "a compaction was due");
        Ok(reads)
    }

    /// Every live table's device bytes, level by level in key order.
    fn live_tables(db: &DbCore) -> Vec<Vec<u8>> {
        let version = db.current_version();
        let mut guard = db.ctx().lock();
        let files = version.files.iter().flatten();
        files
            .map(|f| guard.fs.read_full(f.id, IoKind::Raw).unwrap())
            .collect()
    }

    fn run_read_bytes(db: &DbCore) -> u64 {
        let guard = db.ctx().lock();
        let reg = &guard.fs.disk().obs().registry;
        reg.counter(ObsLayer::Lsm, "compaction.run_read_bytes")
    }

    #[test]
    fn a_level0_run_is_merged_from_one_device_read() {
        let mut run = level0_awaiting_compaction(true);
        let inputs: Vec<FileMetaHandle> = run.current_version().files[0].clone();
        let span: u64 = inputs.iter().map(|f| f.size).sum();
        let reads = traced_compaction(&mut run).unwrap();
        assert_eq!(reads.len(), 1, "{reads:?}");
        assert_eq!(reads[0].ext.len, span);
        assert_eq!(run_read_bytes(&run), span);
        let rec = run.compaction_log().last().unwrap().clone();
        assert_eq!((rec.input_files, rec.input_runs), (4, 1), "{rec:?}");

        // Scattered tables keep block-on-demand reads, one stream each.
        let mut scattered = level0_awaiting_compaction(false);
        let reads = traced_compaction(&mut scattered).unwrap();
        assert!(reads.len() > 4, "{} reads", reads.len());
        assert_eq!(run_read_bytes(&scattered), 0);
        let rec = scattered.compaction_log().last().unwrap().clone();
        assert_eq!((rec.input_files, rec.input_runs), (4, 4), "{rec:?}");

        // Same merge either way: the same rows, the same output bytes.
        assert_eq!(run.scan_bulk().unwrap(), scattered.scan_bulk().unwrap());
        assert_eq!(live_tables(&run), live_tables(&scattered));
    }

    #[test]
    fn a_flipped_byte_in_a_level0_run_fails_the_compaction_and_installs_nothing() {
        let mut clean = level0_awaiting_compaction(true);
        traced_compaction(&mut clean).unwrap();
        let mut db = level0_awaiting_compaction(true);
        let before = live_ids(&db);
        {
            let mut guard = db.ctx().lock();
            let second = db.current_version().files[0]
                .iter()
                .map(|f| guard.fs.file_extent(f.id).unwrap())
                .min_by_key(|e| e.offset)
                .map(|first| first.end())
                .unwrap();
            // Inside the first data block of the run's second table.
            let bad = Extent::new(second + 10, 1);
            guard.fs.disk_mut().faults_mut().corrupt_extent(bad);
        }
        let err = traced_compaction(&mut db).unwrap_err();
        assert!(
            matches!(&err, Error::Corruption(m) if m.contains("block at offset 0")),
            "{err}"
        );
        assert_eq!(live_ids(&db), before, "nothing was installed");
        assert_eq!(db.current_version().level_file_count(1), 0);
        assert_eq!(
            db.ctx().lock().fs.disk().stats().faults.checksum_failures,
            1
        );
        // The inputs are untouched: with the damage gone, the retry (under
        // fresh file ids) writes what the clean run wrote.
        db.ctx()
            .lock()
            .fs
            .disk_mut()
            .faults_mut()
            .clear_corruption();
        traced_compaction(&mut db).unwrap();
        assert_eq!(live_tables(&db), live_tables(&clean));
    }

    #[test]
    fn a_transient_error_on_the_level0_run_read_is_retried() {
        let mut clean = level0_awaiting_compaction(true);
        traced_compaction(&mut clean).unwrap();
        let mut db = level0_awaiting_compaction(true);
        db.ctx()
            .lock()
            .fs
            .disk_mut()
            .faults_mut()
            .fail_reads_transiently(1);
        let reads = traced_compaction(&mut db).unwrap();
        assert_eq!(reads.len(), 1, "the retry is the one read: {reads:?}");
        let faults = db.ctx().lock().fs.disk().stats().faults;
        assert_eq!((faults.transient_read_errors, faults.read_retries), (1, 1));
        assert_eq!(live_tables(&db), live_tables(&clean));
    }

    #[test]
    fn scans_over_any_warm_cache_return_the_bulk_rows() {
        let (mut db, _) = second_compaction_over_a_contiguous_level(false);
        let want = db.scan_bulk().unwrap();
        // A latent sector error in the footer of a deepest-level table
        // with an adjacent successor: every scan crossing it loses the
        // bridge and nothing else.
        let version = db.current_version();
        let level = version.files.iter().rposition(|l| !l.is_empty()).unwrap();
        let faulted = {
            let mut guard = db.ctx().lock();
            let pair = version.files[level]
                .windows(2)
                .find(|w| guard.fs.file_follows(w[0].id, w[1].id))
                .expect("a contiguous pair");
            let ext = guard.fs.file_extent(pair[0].id).unwrap();
            let bad = Extent::new(ext.end() - 8, 8);
            guard.fs.disk_mut().faults_mut().fail_reads_permanently(bad);
            user_key(&pair[0].smallest).to_vec()
        };
        assert_eq!(db.scan_bulk().unwrap(), want);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut rand = |n: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % n as u64) as usize
        };
        for round in 0..60 {
            db.ctx().lock().block_cache.clear();
            for _ in 0..rand(40) {
                db.get(&want[rand(want.len())].0).unwrap();
            }
            let (at, limit) = if round == 0 {
                (want.partition_point(|(k, _)| *k < faulted), usize::MAX)
            } else {
                (rand(want.len()), 1 + rand(400))
            };
            let got = db.scan(&want[at].0, limit).unwrap();
            let end = want.len().min(at.saturating_add(limit));
            assert_eq!(got, want[at..end], "round {round}");
        }
        let guard = db.ctx().lock();
        let reg = &guard.fs.disk().obs().registry;
        assert!(reg.counter(ObsLayer::Lsm, "scan.bridged_bytes") > 0);
        assert!(guard.fs.disk().stats().faults.unrecoverable_reads >= 2);
    }

    #[test]
    fn crash_restore_empties_the_table_cache_before_ids_are_reused() {
        let mut db = open_db(16 << 10);
        let load = |db: &mut DbCore, tag: &str| {
            // Scrambled order: overlapping L0 files, so compactions emit
            // runs of consecutive file ids.
            for n in 0..1500u64 {
                let i = (n * 2654435761) % 1500;
                let (k, _) = kv(i);
                db.put(&k, format!("{tag}-{i:06}-{}", "y".repeat(90)).as_bytes())
                    .unwrap();
            }
            db.flush().unwrap();
        };
        load(&mut db, "durable");
        let image = db.ctx().lock().fs.crash_image();
        let at_image = live_ids(&db);
        // The future the power cut discards: its tables have readers.
        load(&mut db, "discarded");
        let discarded: Vec<FileId> = live_ids(&db).difference(&at_image).copied().collect();
        assert!(!discarded.is_empty());
        assert!(db.ctx().lock().table_cache.len() >= discarded.len());

        let mut db = db.restore_crash_image(&image).unwrap();
        assert!(db.ctx().lock().table_cache.is_empty());
        assert_eq!(live_ids(&db), at_image);
        // The recovered counter hands the discarded ids out again.
        load(&mut db, "rewritten");
        assert!(
            discarded.iter().any(|id| live_ids(&db).contains(id)),
            "expected a reused file id among {discarded:?}"
        );
        for i in 0..1500u64 {
            let want = format!("rewritten-{i:06}-{}", "y".repeat(90)).into_bytes();
            assert_eq!(db.get(&kv(i).0).unwrap(), Some(want), "key {i}");
        }
    }

    /// A store holding 12 000 scrambled keys in three or more levels with
    /// level-0 tables present (flushes stopped short of the trigger), and
    /// a uniform get stream over it.
    fn store_with_level0_probes() -> (DbCore, impl Fn(u64) -> Vec<u8>) {
        const N: u64 = 12_000;
        let mut db = open_db(64 << 10);
        for n in 0..N {
            let (k, v) = kv((n * 2654435761) % N);
            db.put(&k, &v).unwrap();
        }
        db.flush().unwrap();
        let (levels, _) = db.level_summary();
        assert!(levels[0].0 >= 2, "level 0 holds {} tables", levels[0].0);
        assert!(levels[2].0 > 0, "no level 2: {levels:?}");
        // SplitMix64 finaliser: a stride would give consecutive gets
        // shared blocks, which is locality a uniform stream has not.
        let key = |g: u64| {
            let mut z = g.wrapping_add(1).wrapping_mul(0x9E3779B97F4A7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            kv((z ^ (z >> 31)) % N).0
        };
        (db, key)
    }

    #[test]
    fn level0_probe_blocks_stay_cached_across_uniform_gets() {
        // Without blooms every get probes a block in each level-0 table
        // and in level 1 before the level that holds the key. Those probe
        // blocks are re-read by every get; the deepest level's are not.
        // Strict LRU let the one-touch blocks flush the probe blocks and
        // paid 2.19 device reads per get here; the segmented cache keeps
        // them and pays 1.58.
        let (mut db, key) = store_with_level0_probes();
        let ops = |db: &DbCore| db.ctx().lock().fs.disk().stats().kind(IoKind::Get).ops;
        let before = ops(&db);
        const GETS: u64 = 1_500;
        for _pass in 0..2 {
            for g in 0..GETS {
                assert!(db.get(&key(g)).unwrap().is_some());
            }
        }
        let per_get = (ops(&db) - before) as f64 / (2 * GETS) as f64;
        assert!(per_get < 1.9, "{per_get:.3} device reads per get");
        let (promotions, _) = db.ctx().lock().block_cache.policy_stats();
        assert!(promotions > 0);
    }

    #[test]
    fn compaction_purges_the_blocks_of_its_inputs() {
        let (mut db, key) = store_with_level0_probes();
        for g in 0..500 {
            db.get(&key(g)).unwrap();
        }
        let cached_files = |db: &DbCore| -> std::collections::BTreeSet<FileId> {
            db.ctx()
                .lock()
                .block_cache
                .keys()
                .map(|&(f, _)| f)
                .collect()
        };
        let level0: Vec<FileId> = db.current_version().files[0].iter().map(|f| f.id).collect();
        assert!(level0.iter().any(|id| cached_files(&db).contains(id)));
        // One flush per put until level 0 reaches its trigger and the
        // flush's compaction consumes the tables the gets cached.
        let mut n = 0;
        while level0.iter().any(|id| live_ids(&db).contains(id)) {
            assert!(n < 16, "level-0 tables survived {n} flushes");
            let (k, v) = kv(n);
            db.put(&k, &v).unwrap();
            db.flush().unwrap();
            n += 1;
        }
        let live = live_ids(&db);
        let stale: Vec<FileId> = cached_files(&db).difference(&live).copied().collect();
        assert!(
            stale.is_empty(),
            "blocks of deleted files cached: {stale:?}"
        );
        let (_, purged) = db.ctx().lock().block_cache.policy_stats();
        assert!(purged > 0);
    }

    #[test]
    fn user_payload_accounted() {
        let mut db = open_db(64 << 10);
        db.put(b"0123456789", &[7u8; 90]).unwrap();
        let payload = db.ctx().lock().fs.disk().stats().user_payload;
        assert_eq!(payload, 100);
    }

    #[test]
    fn sequential_load_uses_trivial_moves() {
        let mut db = open_db(32 << 10);
        for i in 0..4000u64 {
            let (k, v) = kv(i);
            db.put(&k, &v).unwrap();
        }
        db.flush().unwrap();
        let trivial = db
            .compaction_log()
            .iter()
            .filter(|c| c.trivial_move)
            .count();
        assert!(trivial > 0, "sequential load should move files trivially");
        // Sequential load: write amplification stays near 1.
        let stats = db.ctx().lock().fs.disk().stats().clone();
        assert!(
            stats.wa() < 2.0,
            "WA {} too high for sequential load",
            stats.wa()
        );
    }

    /// A deferred-mode database whose L0 triggers trip quickly: a flush
    /// every ~60 writes, compaction due at 2 files, slowdown at 3, stop at
    /// 5. Nothing drains L0 between writes (no `compact_until` caller),
    /// so the write path alone must enforce the backpressure ladder.
    fn deferred_db() -> DbCore {
        let cap = 1024 * MB;
        let disk = Disk::new(cap, Layout::Hdd, TimeModel::hdd_st1000dm003(cap));
        let mut opts = Options::scaled(64 << 10);
        opts.write_buffer_size = 8 << 10;
        opts.wal_buffer_bytes = 0;
        opts.l0_compaction_trigger = 2;
        opts.l0_slowdown_trigger = 3;
        opts.l0_stop_trigger = 5;
        let alloc = Ext4Sim::new(cap - opts.log_zone_bytes(), 16 * MB);
        let policy = crate::policy::PerFilePolicy::new(Box::new(alloc));
        let mut db = DbCore::open(disk, opts, Box::new(policy)).unwrap();
        db.set_deferred_compaction(true);
        db
    }

    /// Write `i` of `n`, in scrambled order: L0 files overlap, so an L0
    /// compaction merges them all and L0 actually drains.
    fn put_scrambled(db: &mut DbCore, i: u64, n: u64) {
        let (k, v) = kv((i * 2654435761) % n);
        db.put(&k, &v).unwrap();
    }

    /// `compact_until`'s contract: no step at or past the deadline, one
    /// uncut step for any deadline ahead of the clock, `steps` counting
    /// each step that ran, and `u64::MAX` running the tree to quiescence.
    #[test]
    fn compact_until_runs_whole_steps_until_the_deadline() {
        let n = 3000u64;
        let mut db = deferred_db();
        // Neither the slowdown nor the stop rung compacts: L0 only grows.
        db.opts.l0_slowdown_trigger = usize::MAX;
        db.opts.l0_stop_trigger = usize::MAX;
        let mut i = 0;
        let mut fill_l0 = |db: &mut DbCore| {
            while db.current_version().level_file_count(0) < 4 {
                put_scrambled(db, i, n);
                i += 1;
            }
        };
        fill_l0(&mut db);
        assert!(db.versions.compaction_score().1 >= 1.0);

        let mut steps = 0;
        let now = db.clock_ns();
        db.compact_until(now, &mut steps).unwrap();
        db.compact_until(now - 1, &mut steps).unwrap();
        assert_eq!(steps, 0);
        assert!(db.compaction_log().is_empty());
        assert_eq!(db.clock_ns(), now);

        let deadline = now + 1;
        db.compact_until(deadline, &mut steps).unwrap();
        assert_eq!(steps, 1);
        assert_eq!(db.compaction_log().len(), 1);
        assert!(db.clock_ns() > deadline, "a step is never cut short");

        fill_l0(&mut db);
        db.compact_until(u64::MAX, &mut steps).unwrap();
        assert_eq!(steps, db.compaction_log().len() as u64);
        assert!(steps > 1);
        let (level, score) = db.versions.compaction_score();
        assert!(score < 1.0, "level {level} still scores {score}");
    }

    #[test]
    fn deferred_mode_slowdown_stop_resume() {
        let n = 3000u64;
        let mut db = deferred_db();
        let mut prev = db.stall_stats();
        for i in 0..n {
            let l0_before = db.current_version().level_file_count(0);
            let compactions_before = db.compaction_log().len();
            put_scrambled(&mut db, i, n);
            let s = db.stall_stats();

            // Slowdown: at most one sleep per write, and only when the
            // write saw L0 at/past the trigger — either on arrival, or
            // after its own flush added the file that reached it (the
            // make-room loop re-evaluates, like LevelDB's MakeRoomForWrite).
            let slowed = s.slowdown_count - prev.slowdown_count;
            let flushed = s.memtable_count > prev.memtable_count;
            let expect = u64::from(l0_before >= 3 || (flushed && l0_before + 1 >= 3));
            assert_eq!(
                slowed, expect,
                "write {i}: L0 {l0_before} flushed={flushed}"
            );
            // The compaction trigger sits below the slowdown trigger, so a
            // compaction is due at every sleep: the background thread runs
            // at least one step in it, and the sleep lasts at least 1 ms.
            if slowed == 1 {
                assert!(
                    db.compaction_log().len() > compactions_before,
                    "write {i}: slept without compacting"
                );
                assert!(s.slowdown_ns - prev.slowdown_ns >= 1_000_000, "write {i}");
            }
            prev = s;
        }

        let s = db.stall_stats();
        assert!(s.slowdown_count > 0, "slowdown trigger never tripped");
        assert!(s.memtable_count > 0, "memtable stalls never recorded");
        // Compaction in the sleep holds L0 below the stop trigger.
        assert_eq!(s.stop_count, 0, "a write stopped");
        assert!(s.total_ns() == s.slowdown_ns + s.stop_ns + s.memtable_ns);

        // The obs registry mirrors the engine's stall accounting.
        {
            let guard = db.ctx().lock();
            let reg = &guard.fs.disk().obs().registry;
            assert_eq!(
                reg.counter(ObsLayer::Lsm, "stall.slowdown_count"),
                s.slowdown_count
            );
            assert_eq!(
                reg.counter(ObsLayer::Lsm, "stall.memtable_count"),
                s.memtable_count
            );
        }

        // Deferred mode still serves reads correctly.
        for i in (0..n).step_by(211) {
            let (k, v) = kv(i);
            assert_eq!(db.get(&k).unwrap(), Some(v), "key {i}");
        }

        // The rungs the trigger order above never reaches, set up white-box
        // (`Options::validate` forbids a slowdown trigger outside
        // [compaction trigger, stop trigger); the version set keeps the
        // compaction trigger it was opened with).
        //
        // A sleep with nothing due is the bare 1 ms: every write sleeps,
        // and twenty writes neither flush nor make anything due.
        let mut db = deferred_db();
        db.opts.l0_slowdown_trigger = 0;
        for i in 0..20 {
            put_scrambled(&mut db, i, n);
        }
        let s = db.stall_stats();
        assert_eq!((s.slowdown_count, s.slowdown_ns), (20, 20 * 1_000_000));
        assert!(db.compaction_log().is_empty());

        // Without the sleep L0 climbs to the stop rung, which stops the
        // write until compaction drains L0 below the trigger; writes then
        // resume unthrottled.
        let mut db = deferred_db();
        db.opts.l0_slowdown_trigger = usize::MAX;
        let mut prev = db.stall_stats();
        let mut resumed_after_stop = false;
        for i in 0..n {
            let l0_before = db.current_version().level_file_count(0);
            put_scrambled(&mut db, i, n);
            let s = db.stall_stats();
            if s.stop_count > prev.stop_count {
                assert_eq!(l0_before, 5, "write {i}: stop away from trigger");
                assert!(
                    db.current_version().level_file_count(0) < 5,
                    "write {i}: stop returned with L0 still saturated"
                );
            }
            if prev.stop_count > 0 && l0_before < 3 {
                resumed_after_stop = true;
            }
            prev = s;
        }
        let s = db.stall_stats();
        assert!(
            s.stop_count > 0 && s.stop_ns > 0,
            "stop trigger never tripped"
        );
        assert_eq!(s.slowdown_count, 0);
        assert!(
            resumed_after_stop,
            "writes never resumed unthrottled after a stop"
        );
        let guard = db.ctx().lock();
        let reg = &guard.fs.disk().obs().registry;
        assert_eq!(reg.counter(ObsLayer::Lsm, "stall.stop_count"), s.stop_count);
    }
}
