//! The store facade: a configured [`DbCore`](lsm_core::DbCore) plus
//! snapshotting of every quantity the paper's figures report.

use crate::config::StoreKind;
use lsm_core::{CompactionRecord, DbCore, Result, ScrubConfig, ScrubReport, SetStats, WriteBatch};
use seal_vlog::{decode_stored, encode_inline, encode_pointer, StoredValue, ValueLog};
use smr_sim::{neutral_ratio, Extent, IoStats, Obs, ObsLayer, TraceEvent};

/// One of the paper's key-value stores, ready for workloads.
///
/// A `Store` is a self-contained instantiable unit: its simulated disk,
/// WAL, allocator, caches, and metrics registry are all private to the
/// instance, so deployments can run many of them side by side (shards,
/// replicas) with no shared mutable state beyond what the caller wires
/// up. The optional [`Store::instance`] label namespaces the instance's
/// metrics exports.
#[derive(Debug)]
pub struct Store {
    /// Which system this is.
    pub kind: StoreKind,
    /// Instance label for multi-store deployments (see
    /// [`crate::StoreConfig::with_instance`]).
    pub instance: Option<String>,
    /// The underlying engine.
    pub db: DbCore,
    /// Band-aligned value log when key-value separation is enabled (see
    /// [`crate::StoreConfig::with_vlog`]); `None` stores values inline.
    pub vlog: Option<ValueLog>,
    /// Debug-build happens-before auditor: the runtime twin of
    /// `seal-lint`'s ordering rules. `None` in release builds, where the
    /// audit compiles to nothing.
    pub ord_audit: Option<smr_sim::OrderingAuditor>,
    /// LSM tables dropped from the tree over this store's life, reopens
    /// and crash restores included: by a scrub that found a table past
    /// repair, or by a reopen's [`DbCore::quarantine_invalid_files`].
    /// A dropped table resurrects the older versions it shadowed, and
    /// nothing on disk records the hole yet, so a replication primary
    /// with any dropped table must not run shipping GC (see
    /// `seal-replica`'s `Cluster::vlog_gc_step`). Held in memory only:
    /// durable hole records in the manifest are to replace it.
    pub tables_dropped: u64,
}

/// Snapshot of everything the figures need.
#[derive(Clone, Debug)]
pub struct StoreSnapshot {
    /// Simulated time elapsed, ns.
    pub clock_ns: u64,
    /// Full I/O accounting (WA / AWA / MWA per Table I).
    pub io: IoStats,
    /// Per-compaction details (Fig. 10).
    pub compactions: Vec<CompactionRecord>,
    /// Set statistics when the store groups files into sets.
    pub set_stats: Option<SetStats>,
    /// Used disk span (allocator high water).
    pub high_water: u64,
    /// Bytes currently allocated to live files.
    pub allocated_bytes: u64,
    /// Recyclable free regions (Fig. 13 fragments input).
    pub free_regions: Vec<Extent>,
    /// Dynamic bands, when the allocator tracks them (Fig. 13).
    pub bands: Vec<(Extent, usize)>,
    /// Memtable flush count.
    pub flushes: u64,
}

impl StoreSnapshot {
    /// Compactions that actually rewrote data (non-trivial).
    pub fn real_compactions(&self) -> impl Iterator<Item = &CompactionRecord> {
        self.compactions.iter().filter(|c| !c.trivial_move)
    }

    /// Average compaction output size in bytes (Fig. 10(b)).
    pub fn avg_compaction_bytes(&self) -> f64 {
        let (n, total) = self
            .real_compactions()
            .fold((0u64, 0u64), |(n, t), c| (n + 1, t + c.output_bytes));
        if n == 0 {
            0.0
        } else {
            total as f64 / n as f64
        }
    }

    /// Total simulated compaction latency, ns (Fig. 10(a) aggregate).
    pub fn total_compaction_ns(&self) -> u64 {
        self.compactions.iter().map(|c| c.duration_ns).sum()
    }
}

/// The unified observability snapshot: the store's whole [`Obs`] bundle
/// (counters, gauges, latency histograms, trace ring) plus identity.
/// Produced by [`Store::metrics_snapshot`]; exports are deterministic —
/// two same-seed runs serialize byte-identically.
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    /// Display name of the store.
    pub(crate) name: &'static str,
    /// Instance label (equals `name` for unlabeled stores); namespaces
    /// per-shard/per-replica registries in aggregated exports.
    pub(crate) instance: String,
    /// Simulated clock at snapshot time, ns.
    pub(crate) clock_ns: u64,
    /// The observability bundle, including derived gauges.
    pub obs: Obs,
}

impl MetricsSnapshot {
    /// Deterministic JSON with store identity wrapped around the obs
    /// bundle; at most `trace_tail` trace events are inlined.
    pub fn to_json(&self, trace_tail: usize) -> String {
        format!(
            "{{\"store\":\"{}\",\"instance\":\"{}\",\"clock_ns\":{},\"obs\":{}}}",
            self.name,
            self.instance,
            self.clock_ns,
            self.obs.to_json(trace_tail)
        )
    }
}

/// What a replication primary must ship after a cooperative-GC step
/// (see [`Store::vlog_gc_step_shipping`]): the relocated live records
/// and the sequence range their pointer fixups consumed locally.
#[derive(Debug)]
pub struct GcShipment {
    /// Relocated live `(key, original value)` pairs, in fixup order.
    /// Replicas apply these through their own value log; the pointer
    /// each side ends up with is node-local.
    pub entries: Vec<(Vec<u8>, Vec<u8>)>,
    /// First sequence number the fixup batch consumed on the primary;
    /// meaningful only when `entries` is non-empty. The shipped batch
    /// must be stamped with this so replicas see no gap.
    pub first_seq: u64,
    /// Error from the fixup write's post-commit maintenance, the
    /// durability barrier, or the victim retirement, if any. The fixups
    /// consumed their sequence numbers *before* the failing stage ran,
    /// so the shipment stays valid and a replication primary must ship
    /// `entries` even when this is set — only then surface the error to
    /// its caller.
    pub barrier_error: Option<lsm_core::Error>,
}

/// Result of [`Store::vlog_gc_relocate`]: the victim scan's identity
/// and progress plus everything a caller needs to finish (barrier,
/// retirement) and, on a replication primary, to ship.
struct GcRelocation {
    /// Victim segment id.
    victim: u64,
    /// Whether the victim's scan finished (retire it after the barrier).
    finished: bool,
    /// Relocated live `(key, original value)` pairs, in fixup order.
    entries: Vec<(Vec<u8>, Vec<u8>)>,
    /// First sequence number the fixup batch consumed; meaningful only
    /// when `entries` is non-empty.
    first_seq: u64,
    /// Post-commit error from the fixup write, if any. The sequence
    /// range was consumed regardless — surface this only after any
    /// shipping obligation is met.
    error: Option<lsm_core::Error>,
}

impl Store {
    /// Inserts a key/value pair.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        let mut b = WriteBatch::new();
        b.put(key, value);
        self.write(b)
    }

    /// Applies a write batch atomically — the uniform multi-op write
    /// entry point every store kind exposes to the serving front-end
    /// (group commit merges concurrent writers into one such batch).
    ///
    /// With key-value separation on, values over the threshold are
    /// appended to the value log *first* (a pointer must never reach
    /// the device before its record does) and the batch is rewritten
    /// to carry tagged inline values or pointers. A segment-directory
    /// change (a new band opened) commits a manifest checkpoint before
    /// the pointers are written, so recovery can never drop a band an
    /// acked pointer references as an orphan.
    pub fn write(&mut self, batch: WriteBatch) -> Result<()> {
        if self.vlog.is_none() {
            return self.db.write(batch);
        }
        self.commit_through_vlog(&batch, DbCore::write)
    }

    /// The commit both write entry points ([`Store::write`] and
    /// [`Store::apply_replicated`]) share with key-value separation on:
    /// rewrites `batch` through the value log, hands the rewritten batch
    /// to `commit`, then rebases the user-payload denominator so WA
    /// stays comparable with the inline baseline — the engine accounted
    /// the rewritten bytes, but the user handed over the original ones
    /// whether the store kept a pointer or a tagged copy.
    fn commit_through_vlog<R>(
        &mut self,
        batch: &WriteBatch,
        commit: impl FnOnce(&mut DbCore, WriteBatch) -> Result<R>,
    ) -> Result<R> {
        let legacy_payload = batch.payload_bytes();
        let rewritten = self.rewrite_through_vlog(batch)?;
        let new_payload = rewritten.payload_bytes();
        let out = commit(&mut self.db, rewritten)?;
        let ctx = self.db.ctx();
        let mut guard = ctx.lock();
        let stats = guard.fs.disk_mut().stats_mut();
        stats.user_payload = stats.user_payload - new_payload + legacy_payload;
        Ok(out)
    }

    /// Rewrites `batch` through the value log: over-threshold values
    /// are appended to the log *first* and replaced with pointers, the
    /// rest are tagged inline, deletions note their dead records. Any
    /// segment-directory change commits a manifest checkpoint before
    /// the rewritten batch is returned (checkpoint-before-pointer), and
    /// the ordering auditor sees every pointer. Shared by the primary
    /// write path and the replica apply path
    /// ([`Store::apply_replicated`]), so a replica with key-value
    /// separation keeps its own log consistent with shipped batches.
    /// Must only be called with a value log configured.
    fn rewrite_through_vlog(&mut self, batch: &WriteBatch) -> Result<WriteBatch> {
        let vlog = self.vlog.as_mut().expect("caller checked vlog");
        let mut rewritten = WriteBatch::new();
        let mut ptr_segments: Vec<u64> = Vec::new();
        for (_, ty, key, value) in batch.iter() {
            // Lazy post-recovery rebuild of the dead-byte accounting: a
            // reopen empties the log's pointer index, so the first
            // supersession of a key afterwards would silently shadow a
            // pre-crash log record only the LSM still points to —
            // garbage no future overwrite could ever account. One LSM
            // probe on that first touch recovers the stale pointer;
            // while the index is exact (no reopen) the probe never runs.
            if !vlog.dead_is_exact() && !vlog.knows_key(key) {
                if let Some(stored) = self.db.get(key)? {
                    if let Ok(StoredValue::Pointer(p)) = decode_stored(&stored) {
                        vlog.note_dead(p);
                    }
                }
            }
            match ty {
                lsm_core::ValueType::Deletion => {
                    vlog.note_delete(key);
                    rewritten.delete(key);
                }
                lsm_core::ValueType::Value => {
                    if vlog.should_divert(value.len()) {
                        let ptr = self
                            .db
                            .with_fs_and_policy(|fs, policy| vlog.append(fs, policy, key, value))?;
                        ptr_segments.push(ptr.segment);
                        rewritten.put(key, &encode_pointer(ptr));
                    } else {
                        // A key shrinking below the threshold leaves
                        // its previous log record (if any) dead.
                        vlog.note_delete(key);
                        rewritten.put(key, &encode_inline(value));
                    }
                }
            }
        }
        if vlog.take_dirty() {
            let blob = vlog.checkpoint();
            self.db.commit_aux_state(blob)?;
            if let Some(a) = self.ord_audit.as_mut() {
                a.record_checkpoint_commit(self.db.clock_ns(), &vlog.segment_ids());
            }
        }
        if let Some(a) = self.ord_audit.as_mut() {
            let now = self.db.clock_ns();
            for &seg in &ptr_segments {
                a.record_pointer_write(now, seg);
            }
        }
        Ok(rewritten)
    }

    /// Point lookup; chases value-log pointers transparently.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        match self.db.get(key)? {
            Some(stored) => self.resolve_value(key, stored),
            None => Ok(None),
        }
    }

    /// Deletes a key.
    pub fn delete(&mut self, key: &[u8]) -> Result<()> {
        let mut b = WriteBatch::new();
        b.delete(key);
        self.write(b)
    }

    /// Range scan of up to `limit` entries from `start`; chases
    /// value-log pointers transparently.
    pub fn scan(&mut self, start: &[u8], limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let raw = self.db.scan(start, limit)?;
        self.resolve_rows(raw)
    }

    /// Every record, read past the block cache (`DbCore::scan_bulk`);
    /// chases value-log pointers like [`Store::scan`].
    pub(crate) fn scan_bulk(&mut self) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let raw = self.db.scan_bulk()?;
        self.resolve_rows(raw)
    }

    fn resolve_rows(&mut self, raw: Vec<(Vec<u8>, Vec<u8>)>) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        if self.vlog.is_none() {
            return Ok(raw);
        }
        let mut out = Vec::with_capacity(raw.len());
        for (key, stored) in raw {
            if let Some(value) = self.resolve_value(&key, stored)? {
                out.push((key, value));
            }
        }
        Ok(out)
    }

    /// FNV-1a digest of the store's full key/value state (length-prefixed
    /// keys and values, scan order, paged) — the fingerprint determinism
    /// tests and survivor-agreement checks compare across stores.
    pub fn state_hash(&mut self) -> Result<u64> {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let fold = |h: &mut u64, bytes: &[u8]| {
            *h = (*h ^ bytes.len() as u64).wrapping_mul(0x100_0000_01b3);
            for &b in bytes {
                *h = (*h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        };
        let mut start: Vec<u8> = Vec::new();
        loop {
            let page = self.scan(&start, 1024)?;
            for (k, v) in &page {
                fold(&mut h, k);
                fold(&mut h, v);
            }
            match page.last() {
                Some((k, _)) if page.len() == 1024 => {
                    start = k.clone();
                    start.push(0);
                }
                _ => break,
            }
        }
        Ok(h)
    }

    /// Maps a stored LSM value to the user value: the identity for
    /// inline stores, tag-decode plus pointer chase for vlog stores. A
    /// pointer into a quarantined or corrupt record fails closed.
    fn resolve_value(&mut self, key: &[u8], stored: Vec<u8>) -> Result<Option<Vec<u8>>> {
        let Some(vlog) = self.vlog.as_ref() else {
            return Ok(Some(stored));
        };
        match decode_stored(&stored)? {
            StoredValue::Inline(v) => Ok(Some(v.to_vec())),
            StoredValue::Pointer(ptr) => {
                let t0 = self.db.clock_ns();
                let value = self
                    .db
                    .with_fs_and_policy(|fs, _| vlog.read(fs, ptr, key))?;
                let dt = self.db.clock_ns() - t0;
                let ctx = self.db.ctx();
                ctx.lock()
                    .fs
                    .disk_mut()
                    .obs_mut()
                    .latency(ObsLayer::ValueLog, "ptr_chase_ns", dt);
                Ok(Some(value))
            }
        }
    }

    /// Runs one budgeted cooperative-GC step of the value log: scans up
    /// to `budget_bytes` of the victim segment, relocates records that
    /// are still live (current LSM pointer equals the record's address),
    /// and writes the pointer fixups through the normal write path —
    /// unaccounted, so GC traffic cannot deflate the WA denominator.
    /// The victim band returns to the allocator only after the fixups
    /// are durable. Returns whether any GC work was done. This is
    /// [`Store::vlog_gc_step_shipping`] with nobody to ship to, so a
    /// fixup or barrier error surfaces immediately.
    pub fn vlog_gc_step(&mut self, budget_bytes: u64) -> Result<bool> {
        match self.vlog_gc_step_shipping(budget_bytes)? {
            None => Ok(false),
            Some(GcShipment {
                barrier_error: Some(e),
                ..
            }) => Err(e),
            Some(_) => Ok(true),
        }
    }

    /// Runs one budgeted cooperative-GC step — relocation, then the
    /// fixups-durable-before-recycle barrier — and returns what a
    /// replication primary must ship: GC fixups consume sequence
    /// numbers on the primary (they go through the unaccounted write
    /// path), so a primary that runs GC without shipping the consumed
    /// range leaves every replica with a sequence gap that poisons all
    /// later frames. The caller (see `seal-replica`'s
    /// `Cluster::vlog_gc_step`) replicates the returned *original
    /// values*; each replica rewrites them through its own value log, so
    /// pointers stay node-local while the logical state converges.
    /// Returns `None` when there was no GC work to do.
    pub fn vlog_gc_step_shipping(&mut self, budget_bytes: u64) -> Result<Option<GcShipment>> {
        let Some(relocation) = self.vlog_gc_relocate(budget_bytes)? else {
            return Ok(None);
        };
        let mut barrier_error = relocation.error;
        if relocation.finished {
            // Durability barrier: the fixups must survive a crash before
            // the victim's bytes can be freed, or recovery could replay
            // pointers into a recycled band. An error past this point is
            // reported through the shipment, not `Err` — the fixups
            // already consumed sequence numbers, so the caller must get
            // the shipment no matter how the barrier fares.
            let finish = self.db.sync_wal().and_then(|()| {
                if let Some(a) = self.ord_audit.as_mut() {
                    a.record_durable(self.db.clock_ns());
                    a.record_recycle(self.db.clock_ns(), relocation.victim);
                }
                let vlog = self.vlog.as_mut().expect("relocate checked vlog");
                self.db.with_fs_and_policy(|fs, policy| {
                    vlog.retire_segment(fs, policy, relocation.victim)
                })?;
                if vlog.take_dirty() {
                    let blob = vlog.checkpoint();
                    self.db.commit_aux_state(blob)?;
                    if let Some(a) = self.ord_audit.as_mut() {
                        a.record_checkpoint_commit(self.db.clock_ns(), &vlog.segment_ids());
                    }
                }
                Ok(())
            });
            barrier_error = finish.err();
        }
        Ok(Some(GcShipment {
            entries: relocation.entries,
            first_seq: relocation.first_seq,
            barrier_error,
        }))
    }

    /// The scan/relocate/fixup half of one cooperative-GC step: picks
    /// the victim scan and hands its records to
    /// [`Store::relocate_live`]. Returns the victim segment id, whether
    /// its scan finished, and the relocated live records with the
    /// sequence range their fixups consumed — the caller owns the
    /// durability barrier, the retirement, and (on a replication
    /// primary) shipping the consumed range. [`Store::vlog_gc_step_shipping`]
    /// is its one production caller; a unit test drives it without the
    /// barrier to prove the ordering auditor watches this path.
    fn vlog_gc_relocate(&mut self, budget_bytes: u64) -> Result<Option<GcRelocation>> {
        let Some(vlog) = self.vlog.as_mut() else {
            return Ok(None);
        };
        let Some(scan) = self
            .db
            .with_fs_and_policy(|fs, _| vlog.gc_scan(fs, budget_bytes))?
        else {
            return Ok(None);
        };
        if scan.damaged.is_some() {
            // The victim cannot be drained past its bad record: it goes
            // the way of a segment the scrubber condemned.
            return self
                .vlog_salvage_and_quarantine(scan.segment, &mut ScrubReport::default())
                .map(Some);
        }
        // While the log's dead-record accounting is exact (no reopen
        // since the log was created), every scan entry is provably live
        // and the per-entry LSM point lookup — a head seek each on a
        // cold key — can be skipped. After recovery the accounting is
        // rebuilt lazily, so each entry must be verified the slow way.
        let verify = !vlog.dead_is_exact();
        let relocation = self.relocate_live(scan.segment, scan.entries, verify)?;
        // A fixup batch that committed and then errored reports the scan
        // as unfinished, deferring the retire barrier; the next step
        // rescans the victim and finds these records dead.
        let finished = scan.finished && relocation.error.is_none();
        Ok(Some(GcRelocation {
            finished,
            ..relocation
        }))
    }

    /// Moves the live records among `entries` out of segment `victim`:
    /// the liveness check (current LSM pointer equals the record's
    /// address; skipped when `verify` is false), `relocate`, the
    /// segment-directory checkpoint before any pointer can reach the
    /// WAL, then one audited unaccounted fixup write. `Err` means the
    /// fixup batch never committed, so no sequence number was consumed.
    /// A batch that committed and then errored in post-commit
    /// maintenance (e.g. a faulted flush) comes back as `Ok` with
    /// `error` set: its sequence range IS consumed, and a replication
    /// primary has to ship it or every replica inherits a gap. The
    /// relocation is returned unfinished; the caller decides.
    fn relocate_live(
        &mut self,
        victim: u64,
        entries: Vec<seal_vlog::GcEntry>,
        verify: bool,
    ) -> Result<GcRelocation> {
        let vlog = self.vlog.as_mut().expect("caller checked vlog");
        let mut fixups = WriteBatch::new();
        let mut ptr_segments: Vec<u64> = Vec::new();
        let mut relocated: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for entry in entries {
            let live = !verify
                || match self.db.get(&entry.key)? {
                    Some(stored) => matches!(
                        decode_stored(&stored),
                        Ok(StoredValue::Pointer(p)) if p == entry.ptr
                    ),
                    None => false,
                };
            if !live {
                continue;
            }
            let new_ptr = self.db.with_fs_and_policy(|fs, policy| {
                vlog.relocate(fs, policy, &entry.key, &entry.value)
            })?;
            ptr_segments.push(new_ptr.segment);
            fixups.put(&entry.key, &encode_pointer(new_ptr));
            relocated.push((entry.key, entry.value));
        }
        // Same ordering rule as the append path: if relocation opened a
        // new band, the segment directory must commit before any fixup
        // pointer can reach the WAL, or recovery could drop the band the
        // pointers reference as an orphan and leave them dangling
        // (seal-lint's checkpoint-before-pointer rule).
        if vlog.take_dirty() {
            let blob = vlog.checkpoint();
            self.db.commit_aux_state(blob)?;
            if let Some(a) = self.ord_audit.as_mut() {
                a.record_checkpoint_commit(self.db.clock_ns(), &vlog.segment_ids());
            }
        }
        let first_seq = self.db.last_sequence() + 1;
        let mut error = None;
        if !fixups.is_empty() {
            let count = u64::from(fixups.count());
            if let Some(a) = self.ord_audit.as_mut() {
                let now = self.db.clock_ns();
                for &seg in &ptr_segments {
                    a.record_pointer_write(now, seg);
                }
                a.record_fixup_write(now, victim);
            }
            if let Err(e) = self.db.write_unaccounted(fixups) {
                if self.db.last_sequence() < first_seq + count - 1 {
                    return Err(e);
                }
                error = Some(e);
            }
        }
        Ok(GcRelocation {
            victim,
            finished: false,
            entries: relocated,
            first_seq,
            error,
        })
    }

    /// Whether the value log has a sealed segment awaiting GC.
    pub fn vlog_gc_pending(&self) -> bool {
        self.vlog
            .as_ref()
            .is_some_and(|v| v.gc_candidate().is_some())
    }

    /// Whether background GC should run a step now: a victim is half
    /// drained, or the log's known garbage has reached `1/AF` of its
    /// live bytes, AF being the tree's own level multiplier (see
    /// [`ValueLog::gc_due`]). [`Store::vlog_gc_pending`] answers the
    /// weaker "is there any victim" for explicit drains.
    pub fn vlog_gc_due(&self) -> bool {
        let af = self.db.options().level_multiplier();
        self.vlog.as_ref().is_some_and(|v| v.gc_due(af))
    }

    /// Applies a batch shipped by a replication primary, preserving its
    /// primary-assigned sequence range (see
    /// [`DbCore::apply_replicated`]). Returns `false` when the batch
    /// was already applied (duplicate frame).
    ///
    /// With key-value separation on, the shipped batch carries the
    /// primary's *original* values (the primary rewrites through its
    /// own log after capturing the wire bytes), so the replica rewrites
    /// it through its **own** value log here — same divert threshold,
    /// same checkpoint-before-pointer ordering — and re-stamps the
    /// primary's sequence range on the rewritten batch. Duplicate
    /// frames are rejected *before* the rewrite so a redelivery cannot
    /// litter the replica's log with unreachable records.
    pub fn apply_replicated(&mut self, batch: lsm_core::WriteBatch) -> Result<bool> {
        if self.vlog.is_none() {
            return self.db.apply_replicated(batch);
        }
        if batch.is_empty() {
            return Ok(false);
        }
        let first = batch.sequence();
        let last = first + u64::from(batch.count()) - 1;
        if last <= self.db.last_sequence() {
            return Ok(false);
        }
        self.commit_through_vlog(&batch, |db, mut rewritten| {
            rewritten.set_sequence(first);
            db.apply_replicated(rewritten)
        })
    }

    /// Highest sequence number assigned (primary) or applied (replica).
    pub fn last_sequence(&self) -> u64 {
        self.db.last_sequence()
    }

    /// Flushes the memtable and quiesces compactions.
    pub fn flush(&mut self) -> Result<()> {
        self.db.flush()
    }

    /// Pins the current state for consistent reads (see
    /// [`DbCore::snapshot`]).
    pub fn pin(&mut self) -> lsm_core::Snapshot {
        self.db.snapshot()
    }

    /// Reads as of a pinned state; chases value-log pointers
    /// transparently (records are immutable until their segment
    /// retires, so a pinned pointer resolves like a current one).
    pub fn get_at(&mut self, key: &[u8], snap: &lsm_core::Snapshot) -> Result<Option<Vec<u8>>> {
        match self.db.get_at(key, snap)? {
            Some(stored) => self.resolve_value(key, stored),
            None => Ok(None),
        }
    }

    /// Releases a pinned state.
    pub fn unpin(&mut self, snap: lsm_core::Snapshot) {
        self.db.release_snapshot(snap)
    }

    /// Runs fragment garbage collection (the paper's stated future work):
    /// relocates nearly-faded sets adjacent to fragments so free space
    /// coalesces. Meaningful for set-based stores; others report zeros.
    pub fn collect_garbage(&mut self, cfg: &lsm_core::GcConfig) -> Result<lsm_core::GcReport> {
        self.db.collect_garbage(cfg)
    }

    /// Simulates a crash + restart: rebuilds the version set from the
    /// manifest (falling back to its last consistent prefix), replays
    /// the WAL with skip-and-report on torn records (buffered, unsynced
    /// WAL bytes are lost, like a real `sync=false` LevelDB), and
    /// quarantines any version file that fails table validation rather
    /// than letting it load-bear reads.
    pub fn reopen(self) -> Result<Store> {
        self.recover(DbCore::reopen)
    }

    /// The recovery tail of [`Store::reopen`] and
    /// [`Store::restore_crash_image`]: `engine` recovers the tree, then
    /// invalid tables are quarantined, the value log is rebuilt and the
    /// ordering auditor starts afresh.
    fn recover(self, engine: impl FnOnce(DbCore) -> Result<DbCore>) -> Result<Store> {
        let mut db = engine(self.db)?;
        let dropped = db.quarantine_invalid_files()?.len() as u64;
        let vlog = Self::recover_vlog(self.vlog, &mut db)?;
        let ord_audit = Self::fresh_auditor(&db, vlog.as_ref());
        Ok(Store {
            kind: self.kind,
            instance: self.instance,
            db,
            vlog,
            ord_audit,
            tables_dropped: self.tables_dropped + dropped,
        })
    }

    /// Rebuilds the value log after recovery: the segment directory
    /// comes back from the manifest's auxiliary checkpoint, both open
    /// heads are re-scanned for their true tails (torn records are
    /// discarded — their pointers never reached the WAL), and segment
    /// files no checkpoint references are returned to the allocator.
    fn recover_vlog(prev: Option<ValueLog>, db: &mut DbCore) -> Result<Option<ValueLog>> {
        let Some(old) = prev else {
            return Ok(None);
        };
        let mut vlog = ValueLog::new(*old.params());
        let blob = db.aux_state();
        db.with_fs_and_policy(|fs, policy| vlog.recover(fs, policy, blob.as_deref()))?;
        if vlog.take_dirty() {
            let fresh = vlog.checkpoint();
            db.commit_aux_state(fresh)?;
        }
        Ok(Some(vlog))
    }

    /// Simulates a power cut at the moment `image` was captured: the
    /// disk reverts to the snapshot, the placement policy relearns the
    /// surviving extents, and the usual crash recovery runs on the
    /// restored state (see [`DbCore::restore_crash_image`]).
    pub fn restore_crash_image(self, image: &lsm_core::CrashImage) -> Result<Store> {
        self.recover(|db| db.restore_crash_image(image))
    }

    /// Builds the debug-build ordering auditor, seeded with the segments
    /// the (possibly just-recovered) directory knows. Returns `None` in
    /// release builds, where the audit compiles to nothing.
    pub fn fresh_auditor(db: &DbCore, vlog: Option<&ValueLog>) -> Option<smr_sim::OrderingAuditor> {
        if !cfg!(debug_assertions) {
            return None;
        }
        let mut audit = smr_sim::OrderingAuditor::new();
        let segments = vlog.map(ValueLog::segment_ids).unwrap_or_default();
        audit.reset_recovered(db.clock_ns(), &segments);
        Some(audit)
    }

    /// Debug-build ack hook: asserts that every byte the caller is about
    /// to acknowledge is durable (no unsynced WAL tail, no held
    /// value-log append). Serving layers call this at the point they
    /// report success to a client; in release builds it is a no-op.
    pub fn ordering_ack(&mut self) {
        if let Some(a) = self.ord_audit.as_mut() {
            let held = self.db.ctx().lock().fs.held_bytes();
            a.record_ack(self.db.clock_ns(), self.db.wal_pending_bytes() + held);
        }
    }

    /// Cumulative write-stall accounting (slowdown / stop / memtable
    /// stalls); only advances in serve mode.
    pub fn stall_stats(&self) -> lsm_core::StallStats {
        self.db.stall_stats()
    }

    /// Flips serve mode on or off (see
    /// [`lsm_core::DbCore::set_deferred_compaction`]).
    pub fn set_deferred_compaction(&mut self, on: bool) {
        self.db.set_deferred_compaction(on)
    }

    /// Background compaction until the clock reads `until`, each step
    /// that ran counted into `steps` (see [`DbCore::compact_until`]); the
    /// serving front-end spends idle gaps here, standing in for LevelDB's
    /// background thread, and `u64::MAX` drains every due compaction.
    pub fn compact_until(&mut self, until: u64, steps: &mut u64) -> Result<()> {
        self.db.compact_until(until, steps)
    }

    /// Runs one budgeted scrub step (see [`DbCore::scrub_step`]): verify
    /// up to `cfg.bytes_per_step` bytes of live tables, repairing or
    /// quarantining what fails its checksums. With key-value separation
    /// on, the same byte budget then walks value-log records: a CRC
    /// mismatch condemns the whole segment (record framing cannot
    /// resync), its readable live prefix is salvaged by relocation, and
    /// the band is fenced out of the allocator. This is
    /// [`Store::scrub_step_shipping`] with nobody to ship to, so a
    /// salvage error surfaces immediately.
    pub fn scrub_step(&mut self, cfg: &ScrubConfig) -> Result<ScrubReport> {
        let (report, shipments) = self.scrub_step_shipping(cfg)?;
        match shipments.into_iter().find_map(|s| s.barrier_error) {
            Some(e) => Err(e),
            None => Ok(report),
        }
    }

    /// Runs one budgeted scrub step and returns, beside its report,
    /// what a replication primary must ship: one shipment per salvaged
    /// value-log segment. Salvage fixups consume sequence numbers just
    /// as GC fixups do (see [`Store::vlog_gc_step_shipping`]); the
    /// caller (`seal-replica`'s `Cluster::scrub_step`) ships them. An
    /// error raised after a range was consumed rides in the last
    /// shipment's `barrier_error` instead of discarding the shipments.
    pub fn scrub_step_shipping(
        &mut self,
        cfg: &ScrubConfig,
    ) -> Result<(ScrubReport, Vec<GcShipment>)> {
        let mut report = self.db.scrub_step(cfg)?;
        self.tables_dropped += report.files_quarantined;
        let mut shipments = Vec::new();
        if let Err(e) = self.vlog_scrub_step(cfg, &mut report, &mut shipments) {
            let Some(last) = shipments.last_mut() else {
                return Err(e);
            };
            last.barrier_error = Some(e);
        }
        Ok((report, shipments))
    }

    /// The value-log half of a scrub step. Stops at the first salvage
    /// that failed after its fixups committed: that shipment carries
    /// the error.
    fn vlog_scrub_step(
        &mut self,
        cfg: &ScrubConfig,
        report: &mut ScrubReport,
        shipments: &mut Vec<GcShipment>,
    ) -> Result<()> {
        let step = {
            let Some(vlog) = self.vlog.as_mut() else {
                return Ok(());
            };
            self.db
                .with_fs_and_policy(|fs, _| vlog.scrub_step(fs, cfg.bytes_per_step))?
        };
        report.bytes_verified += step.bytes_scanned;
        report.blocks_verified += step.records_ok;
        report.blocks_corrupt += step.damaged.len() as u64;
        if !cfg.repair {
            return Ok(());
        }
        for seg in step.damaged {
            let salvage = self.vlog_salvage_and_quarantine(seg, report)?;
            let failed = salvage.error.is_some();
            shipments.push(GcShipment {
                entries: salvage.entries,
                first_seq: salvage.first_seq,
                barrier_error: salvage.error,
            });
            if failed {
                break;
            }
        }
        Ok(())
    }

    /// Drains what is still readable out of a damaged segment, fixes up
    /// the salvaged pointers durably, then fences the band. Records past
    /// the first corrupt one are lost; their pointers serve degraded
    /// (fail-closed reads) from here on. Returns what the salvage
    /// relocated, unfinished because nothing is left to retire: its
    /// fixups consumed sequence numbers a replication primary must ship
    /// like a GC step's. Once the fixups committed, any later error —
    /// their own post-commit maintenance, the barrier, the fence —
    /// comes back in `error`, never as `Err`; a segment left unfenced
    /// stays sealed, and the next scrub pass condemns it again and finds
    /// the relocated records dead.
    fn vlog_salvage_and_quarantine(
        &mut self,
        seg: u64,
        report: &mut ScrubReport,
    ) -> Result<GcRelocation> {
        let vlog = self.vlog.as_mut().expect("caller checked vlog");
        let entries = self.db.with_fs_and_policy(|fs, _| {
            // Seal first: salvage relocation must not append into the
            // very band about to be fenced.
            vlog.seal(fs, seg);
            vlog.salvage_prefix(fs, seg)
        })?;
        if let Some(a) = self.ord_audit.as_mut() {
            let now = self.db.clock_ns();
            a.record_fence(now, seg);
            a.record_repair(now, seg);
        }
        let mut salvage = self.relocate_live(seg, entries, true)?;
        report.blocks_corrected += salvage.entries.len() as u64;
        if salvage.error.is_some() {
            return Ok(salvage);
        }
        // The fixups consumed their sequence numbers: an error past this
        // point rides in the relocation, as GC's barrier error does.
        let fence = self.db.sync_wal().and_then(|()| {
            if let Some(a) = self.ord_audit.as_mut() {
                a.record_durable(self.db.clock_ns());
            }
            let vlog = self.vlog.as_mut().expect("caller checked vlog");
            let fenced = self
                .db
                .with_fs_and_policy(|fs, policy| vlog.quarantine_segment(fs, policy, seg))?;
            if let Some(a) = self.ord_audit.as_mut() {
                a.record_fence(self.db.clock_ns(), seg);
            }
            report.files_quarantined += 1;
            report.extents_fenced += 1;
            report.bytes_fenced += fenced;
            // The quarantine flag itself still needs a commit of its own.
            if vlog.take_dirty() {
                let blob = vlog.checkpoint();
                self.db.commit_aux_state(blob)?;
                if let Some(a) = self.ord_audit.as_mut() {
                    a.record_checkpoint_commit(self.db.clock_ns(), &vlog.segment_ids());
                }
            }
            Ok(())
        });
        salvage.error = fence.err();
        Ok(salvage)
    }

    /// Scrubs every live table once (see [`DbCore::scrub_full`]).
    pub fn scrub_full(&mut self, cfg: &ScrubConfig) -> Result<ScrubReport> {
        let report = self.db.scrub_full(cfg)?;
        self.tables_dropped += report.files_quarantined;
        Ok(report)
    }
    /// Lifetime scrub totals across all steps.
    pub fn scrub_report(&self) -> &ScrubReport {
        self.db.scrub_report()
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        self.kind.name()
    }

    /// Instance name: the configured label, or the kind's display name
    /// when the store runs alone.
    pub fn instance_name(&self) -> &str {
        self.instance.as_deref().unwrap_or_else(|| self.kind.name())
    }

    /// Simulated clock, ns.
    pub fn clock_ns(&self) -> u64 {
        self.db.clock_ns()
    }

    /// Lets simulated time pass with the disk idle until the clock reads
    /// at least `t_ns` (a no-op when it already does).
    pub fn advance_clock_to(&mut self, t_ns: u64) {
        self.db.advance_clock_to(t_ns)
    }

    /// Enables or disables physical-placement tracing.
    pub fn set_tracing(&mut self, enabled: bool) {
        self.db
            .ctx()
            .lock()
            .fs
            .disk_mut()
            .trace_mut()
            .set_enabled(enabled);
    }

    /// Drains recorded trace events.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        let ctx = self.db.ctx();
        let mut guard = ctx.lock();
        let events = guard.fs.disk().trace().events().to_vec();
        guard.fs.disk_mut().trace_mut().clear();
        events
    }

    /// Publishes derived gauges (WA / AWA / MWA, cache hit ratios, fault
    /// counts) into the store's observability registry and returns the
    /// whole bundle. Counters and latency histograms accumulate live at
    /// the layers that emit them; everything derived here is written as a
    /// gauge, so repeated snapshots are idempotent.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let name = self.kind.name();
        let flushes = self.db.flush_count();
        let rec = self.db.recovery_report().clone();
        let ctx = self.db.ctx();
        let mut guard = ctx.lock();
        let (bh, bm) = guard.block_cache.hit_stats();
        let (promotions, purged) = guard.block_cache.policy_stats();
        let (th, tm) = guard.table_cache.hit_stats();
        let stats = guard.fs.disk().stats().clone();
        let clock_ns = guard.fs.disk().clock_ns();
        let obs = guard.fs.disk_mut().obs_mut();
        // Zero-denominator ratios follow the workspace-wide neutral-1.0
        // convention (a cold cache with no lookups has missed nothing);
        // see `smr_sim::neutral_ratio` and DESIGN.md, "Ratio conventions".
        obs.gauge_set(ObsLayer::Cache, "block_hits", bh as f64);
        obs.gauge_set(ObsLayer::Cache, "block_misses", bm as f64);
        obs.gauge_set(ObsLayer::Cache, "block_promotions", promotions as f64);
        obs.gauge_set(ObsLayer::Cache, "block_purged", purged as f64);
        obs.gauge_set(
            ObsLayer::Cache,
            "block_hit_ratio",
            neutral_ratio(bh, bh + bm),
        );
        obs.gauge_set(ObsLayer::Cache, "table_hits", th as f64);
        obs.gauge_set(ObsLayer::Cache, "table_misses", tm as f64);
        obs.gauge_set(
            ObsLayer::Cache,
            "table_hit_ratio",
            neutral_ratio(th, th + tm),
        );
        obs.gauge_set(ObsLayer::Store, "wa", stats.wa());
        obs.gauge_set(ObsLayer::Store, "awa", stats.awa());
        obs.gauge_set(ObsLayer::Store, "mwa", stats.mwa());
        // The headline WA splits into the LSM's share (flush +
        // compaction) and the value log's (appends + GC relocation);
        // with separation off the vlog component reads neutral.
        obs.gauge_set(ObsLayer::Store, "wa_compaction", stats.wa_compaction());
        obs.gauge_set(ObsLayer::Store, "wa_vlog_gc", stats.wa_vlog_gc());
        obs.gauge_set(ObsLayer::Store, "flushes", flushes as f64);
        if let Some(vlog) = &self.vlog {
            let vs = vlog.stats();
            obs.gauge_set(ObsLayer::ValueLog, "segments", vlog.segment_count() as f64);
            obs.gauge_set(
                ObsLayer::ValueLog,
                "appended_bytes",
                vs.appended_bytes as f64,
            );
            obs.gauge_set(
                ObsLayer::ValueLog,
                "relocated_bytes",
                vs.relocated_bytes as f64,
            );
            obs.gauge_set(
                ObsLayer::ValueLog,
                "reclaimed_bytes",
                vs.reclaimed_bytes as f64,
            );
            obs.gauge_set(
                ObsLayer::ValueLog,
                "gc_wa",
                neutral_ratio(vs.appended_bytes + vs.relocated_bytes, vs.appended_bytes),
            );
            // The two sides of the idle-GC space budget.
            obs.gauge_set(ObsLayer::ValueLog, "live_bytes", vlog.live_bytes() as f64);
            obs.gauge_set(ObsLayer::ValueLog, "dead_bytes", vlog.dead_bytes() as f64);
        }
        let f = stats.faults;
        obs.gauge_set(
            ObsLayer::Device,
            "fault_injected_write_failures",
            f.injected_write_failures as f64,
        );
        obs.gauge_set(ObsLayer::Device, "fault_torn_writes", f.torn_writes as f64);
        obs.gauge_set(
            ObsLayer::Device,
            "fault_read_corruptions",
            f.read_corruptions as f64,
        );
        obs.gauge_set(
            ObsLayer::Device,
            "fault_transient_read_errors",
            f.transient_read_errors as f64,
        );
        obs.gauge_set(
            ObsLayer::Device,
            "fault_read_retries",
            f.read_retries as f64,
        );
        obs.gauge_set(
            ObsLayer::Device,
            "fault_checksum_failures",
            f.checksum_failures as f64,
        );
        obs.gauge_set(
            ObsLayer::Device,
            "fault_unrecoverable_reads",
            f.unrecoverable_reads as f64,
        );
        obs.gauge_set(
            ObsLayer::Device,
            "fault_fail_slow_reads",
            f.fail_slow_reads as f64,
        );
        obs.gauge_set(
            ObsLayer::Store,
            "recovery_wal_records_skipped",
            rec.wal_records_skipped as f64,
        );
        obs.gauge_set(
            ObsLayer::Store,
            "recovery_files_quarantined",
            rec.files_quarantined as f64,
        );
        obs.gauge_set(
            ObsLayer::Store,
            "recovery_manifest_records_dropped",
            rec.manifest_records_dropped as f64,
        );
        MetricsSnapshot {
            name,
            instance: self.instance_name().to_string(),
            clock_ns,
            obs: obs.clone(),
        }
    }

    /// Snapshots every reported quantity.
    pub fn snapshot(&self) -> StoreSnapshot {
        let ctx = self.db.ctx();
        let guard = ctx.lock();
        let policy = self.db.policy();
        StoreSnapshot {
            clock_ns: guard.fs.disk().clock_ns(),
            io: guard.fs.disk().stats().clone(),
            compactions: self.db.compaction_log().to_vec(),
            set_stats: policy.set_stats(),
            high_water: policy.allocator().high_water(),
            allocated_bytes: policy.allocator().allocated_bytes(),
            free_regions: policy.allocator().free_regions(),
            bands: policy.allocator().band_snapshot(),
            flushes: self.db.flush_count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{StoreConfig, StoreKind};
    use smr_sim::ObsLayer;

    /// A SEALDB configuration with key-value separation on: segments
    /// sized to one whole band, default thresholds.
    fn vlog_config() -> StoreConfig {
        let cfg = StoreConfig::new(StoreKind::SealDb, 256 << 10, 1 << 30);
        let params = seal_vlog::VlogParams {
            segment_bytes: cfg.band_size(),
            ..seal_vlog::VlogParams::default()
        };
        cfg.with_vlog(params)
    }

    fn exercised(kind: StoreKind) -> super::MetricsSnapshot {
        let cfg = StoreConfig::new(kind, 256 << 10, 1 << 30);
        let mut s = cfg.build().unwrap();
        for i in 0..6000u64 {
            let key = format!("key{i:08}");
            s.put(key.as_bytes(), &vec![b'v'; 256]).unwrap();
        }
        s.flush().unwrap();
        for i in 0..200u64 {
            let key = format!("key{i:08}");
            s.get(key.as_bytes()).unwrap();
        }
        s.scan(b"key", 50).unwrap();
        s.metrics_snapshot()
    }

    #[test]
    fn metrics_snapshot_covers_all_layers() {
        let m = exercised(StoreKind::SealDb);
        // Op latency percentiles from the store layer.
        let w = m.obs.histogram(ObsLayer::Store, "write_ns").unwrap();
        assert_eq!(w.count(), 6000);
        assert!(w.p95() >= w.p50());
        assert!(m.obs.histogram(ObsLayer::Store, "get_ns").is_some());
        assert!(m.obs.histogram(ObsLayer::Store, "scan_ns").is_some());
        // Device latencies and LSM byte flow accumulated live.
        assert!(m.obs.histogram(ObsLayer::Device, "write_ns").is_some());
        assert!(m.obs.registry.counter(ObsLayer::Lsm, "flush_bytes") > 0);
        // Cache hit ratios are valid probabilities.
        for g in ["block_hit_ratio", "table_hit_ratio"] {
            let r = m.obs.registry.gauge(ObsLayer::Cache, g);
            assert!((0.0..=1.0).contains(&r), "{g} = {r}");
        }
        // Amplification gauges: MWA = WA x AWA holds inside the registry.
        let wa = m.obs.registry.gauge(ObsLayer::Store, "wa");
        let awa = m.obs.registry.gauge(ObsLayer::Store, "awa");
        let mwa = m.obs.registry.gauge(ObsLayer::Store, "mwa");
        assert!(wa >= 1.0);
        assert!((mwa - wa * awa).abs() < 1e-9);
        // Fault gauges exist (zero on this clean run).
        assert_eq!(
            m.obs.registry.gauge(ObsLayer::Device, "fault_torn_writes"),
            0.0
        );
        // The allocator's band lifecycle reached the placement layer.
        assert!(m.obs.registry.counter(ObsLayer::Placement, "band-append") > 0);
        assert!(!m.obs.tracer.is_empty());
    }

    #[test]
    fn zero_traffic_ratios_follow_the_neutral_convention() {
        // A freshly opened store has no cache lookups and no writes; every
        // exported ratio must be the neutral 1.0 — never 0.0 or NaN (see
        // DESIGN.md, "Ratio conventions").
        let cfg = StoreConfig::new(StoreKind::SealDb, 256 << 10, 1 << 30);
        let s = cfg.build().unwrap();
        let m = s.metrics_snapshot();
        for (layer, g) in [
            (ObsLayer::Cache, "block_hit_ratio"),
            (ObsLayer::Cache, "table_hit_ratio"),
            (ObsLayer::Store, "wa"),
            (ObsLayer::Store, "awa"),
            (ObsLayer::Store, "mwa"),
        ] {
            assert_eq!(m.obs.registry.gauge(layer, g), 1.0, "{g}");
        }
        // And the neutral_ratio helper itself: defined everywhere, exact
        // quotient when the denominator is non-zero.
        assert_eq!(smr_sim::neutral_ratio(0, 0), 1.0);
        assert_eq!(smr_sim::neutral_ratio(3, 4), 0.75);
        assert!(smr_sim::neutral_ratio(u64::MAX, 1).is_finite());
    }

    #[test]
    fn metrics_snapshot_exports_recovery_and_fault_gauges() {
        let m = exercised(StoreKind::SealDb);
        // Clean run: the gauges exist and read zero.
        for g in [
            "recovery_wal_records_skipped",
            "recovery_files_quarantined",
            "recovery_manifest_records_dropped",
        ] {
            assert_eq!(m.obs.registry.gauge(ObsLayer::Store, g), 0.0, "{g}");
        }
        for g in ["fault_unrecoverable_reads", "fault_fail_slow_reads"] {
            assert_eq!(m.obs.registry.gauge(ObsLayer::Device, g), 0.0, "{g}");
        }
    }

    #[test]
    fn metrics_snapshot_is_deterministic() {
        let a = exercised(StoreKind::SealDb);
        let b = exercised(StoreKind::SealDb);
        assert_eq!(a.to_json(128), b.to_json(128));
        assert!(!a.to_json(128).contains("NaN"));
    }

    #[test]
    fn vlog_roundtrip_across_value_sizes_and_deletes() {
        let cfg = vlog_config();
        let mut s = cfg.build().unwrap();
        // Small values stay inline, large ones divert; both read back.
        for i in 0..500u64 {
            let key = format!("k{i:05}");
            let fill = (i % 251) as u8;
            let len = if i % 2 == 0 { 16 } else { 2048 };
            s.put(key.as_bytes(), &vec![fill; len]).unwrap();
        }
        s.flush().unwrap();
        for i in 0..500u64 {
            let key = format!("k{i:05}");
            let fill = (i % 251) as u8;
            let len = if i % 2 == 0 { 16 } else { 2048 };
            assert_eq!(
                s.get(key.as_bytes()).unwrap().as_deref(),
                Some(vec![fill; len].as_slice()),
                "key {key}"
            );
        }
        // Scans resolve pointers too.
        let rows = s.scan(b"k000", 10).unwrap();
        assert_eq!(rows.len(), 10);
        assert_eq!(rows[1].1.len(), 2048);
        // Deletes tombstone the pointer.
        s.delete(b"k00001").unwrap();
        assert_eq!(s.get(b"k00001").unwrap(), None);
        let m = s.metrics_snapshot();
        assert!(m.obs.registry.gauge(ObsLayer::ValueLog, "appended_bytes") > 0.0);
        assert!(
            m.obs
                .histogram(ObsLayer::ValueLog, "ptr_chase_ns")
                .is_some(),
            "pointer-chase latency must be recorded"
        );
    }

    #[test]
    fn vlog_survives_reopen() {
        let cfg = vlog_config();
        let mut s = cfg.build().unwrap();
        for i in 0..200u64 {
            let key = format!("p{i:05}");
            s.put(key.as_bytes(), &vec![(i % 199) as u8; 1500]).unwrap();
        }
        s.flush().unwrap();
        let mut s = s.reopen().unwrap();
        for i in 0..200u64 {
            let key = format!("p{i:05}");
            assert_eq!(
                s.get(key.as_bytes()).unwrap().as_deref(),
                Some(vec![(i % 199) as u8; 1500].as_slice()),
                "key {key} after reopen"
            );
        }
    }

    #[test]
    fn vlog_gc_reclaims_dead_segments_and_preserves_live_data() {
        let cfg = vlog_config();
        let mut s = cfg.build().unwrap();
        // Overwrite a small key set many times: earlier segments fill
        // with dead records.
        for round in 0..40u64 {
            for i in 0..60u64 {
                let key = format!("g{i:03}");
                s.put(key.as_bytes(), &vec![(round % 250) as u8; 2048])
                    .unwrap();
            }
        }
        s.flush().unwrap();
        assert!(s.vlog_gc_pending(), "overwrites must seal segments");
        assert!(s.vlog_gc_due(), "39 dead versions per live one");
        let before = s.vlog.as_ref().unwrap().segment_count();
        let mut steps = 0;
        while s.vlog_gc_pending() && steps < 10_000 {
            s.vlog_gc_step(64 << 10).unwrap();
            steps += 1;
        }
        assert!(!s.vlog_gc_due());
        let vlog = s.vlog.as_ref().unwrap();
        let stats = vlog.stats();
        assert!(stats.segments_retired > 0, "GC must retire segments");
        assert!(stats.reclaimed_bytes > stats.relocated_bytes);
        assert!(vlog.segment_count() < before);
        // The space-budget gauges export the log's running totals.
        let (live, dead) = (vlog.live_bytes(), vlog.dead_bytes());
        assert!(live >= 60 * 2048, "every key's value is live");
        let m = s.metrics_snapshot();
        assert_eq!(
            m.obs.registry.gauge(ObsLayer::ValueLog, "live_bytes"),
            live as f64
        );
        assert_eq!(
            m.obs.registry.gauge(ObsLayer::ValueLog, "dead_bytes"),
            dead as f64
        );
        // Every key still reads its final value.
        for i in 0..60u64 {
            let key = format!("g{i:03}");
            assert_eq!(
                s.get(key.as_bytes()).unwrap().as_deref(),
                Some(vec![39u8; 2048].as_slice()),
                "key {key} after GC"
            );
        }
        // And survives a reopen after GC.
        let mut s = s.reopen().unwrap();
        for i in 0..60u64 {
            let key = format!("g{i:03}");
            assert!(s.get(key.as_bytes()).unwrap().is_some(), "{key} lost");
        }
    }

    /// Where `key`'s current value lives in the log.
    fn pointer_of(s: &mut super::Store, key: &[u8]) -> seal_vlog::VlogPtr {
        let stored = s.db.get(key).unwrap().expect("key present");
        match seal_vlog::decode_stored(&stored).unwrap() {
            seal_vlog::StoredValue::Pointer(p) => p,
            other => panic!("{key:?} is stored inline: {other:?}"),
        }
    }

    /// Scrub condemns the open survivor head like any other segment.
    /// Salvage seals it first, so its readable records move into a
    /// fresh survivor band, never back into the band being fenced.
    #[test]
    fn salvage_of_the_open_survivor_head_relocates_into_a_fresh_band() {
        let cfg = StoreConfig::new(StoreKind::SealDb, 256 << 10, 1 << 30).with_vlog(
            seal_vlog::VlogParams {
                segment_bytes: 32 << 10,
                value_threshold: 64,
            },
        );
        let mut s = cfg.build().unwrap();
        // k000..k009 are written once; the rest is overwritten until
        // the bands holding the first ten are mostly garbage.
        for round in 0..4u64 {
            let from = if round == 0 { 0 } else { 10 };
            for i in from..60u64 {
                let key = format!("k{i:03}");
                s.put(key.as_bytes(), &vec![(round * 60 + i) as u8; 1024])
                    .unwrap();
            }
        }
        s.flush().unwrap();
        // GC drains the all-garbage bands, then the first one: its ten
        // live records open the survivor head and fill a third of it.
        let first = pointer_of(&mut s, b"k000").segment;
        while pointer_of(&mut s, b"k000").segment == first {
            assert!(s.vlog_gc_step(1 << 20).unwrap(), "GC stopped short");
        }
        let moved: Vec<_> = (0..10u64)
            .map(|i| pointer_of(&mut s, format!("k{i:03}").as_bytes()))
            .collect();
        let head = moved[0].segment;
        assert!(moved.iter().all(|p| p.segment == head), "{moved:?}");
        let relocated = s.vlog.as_ref().unwrap().stats().relocated_bytes;
        assert_eq!(relocated, 10 * moved[0].len, "only the ten moved");
        // Flipped bits in k005's record condemn the head.
        let ext = s.db.ctx().lock().fs.file_extent(head).unwrap();
        s.db.ctx()
            .lock()
            .fs
            .disk_mut()
            .faults_mut()
            .corrupt_extent(smr_sim::Extent::new(ext.offset + moved[5].offset + 20, 4));
        let scrub = lsm_core::ScrubConfig {
            bytes_per_step: 1 << 20,
            repair: true,
        };
        let mut corrected = 0;
        while s.vlog.as_ref().unwrap().segment_ids().contains(&head) {
            corrected += s.scrub_step(&scrub).unwrap().blocks_corrected;
        }
        assert_eq!(corrected, 5, "the records in front of the damage");
        for i in 0..5u64 {
            let key = format!("k{i:03}");
            let p = pointer_of(&mut s, key.as_bytes());
            assert_ne!(p.segment, head, "{key} relocated into the condemned band");
            assert_eq!(s.get(key.as_bytes()).unwrap(), Some(vec![i as u8; 1024]));
        }
        assert!(s.get(b"k005").is_err(), "lost records fail closed");
    }

    /// Scrub condemns a GC victim whose drain is half done. The GC
    /// cursor goes with the quarantined band: the next step picks a new
    /// victim, or none, instead of resuming inside the fenced one.
    #[test]
    fn a_victim_quarantined_mid_drain_takes_its_gc_cursor_with_it() {
        let cfg = StoreConfig::new(StoreKind::SealDb, 256 << 10, 1 << 30).with_vlog(
            seal_vlog::VlogParams {
                segment_bytes: 32 << 10,
                value_threshold: 64,
            },
        );
        let mut s = cfg.build().unwrap();
        for round in 0..3u64 {
            let from = if round == 0 { 0 } else { 10 };
            for i in from..60u64 {
                let key = format!("c{i:03}");
                s.put(key.as_bytes(), &vec![(round * 60 + i) as u8; 1024])
                    .unwrap();
            }
        }
        s.flush().unwrap();
        let victim = s.vlog.as_ref().unwrap().gc_candidate().expect("a victim");
        assert!(s.vlog_gc_step(4 << 10).unwrap());
        assert!(
            s.vlog.as_ref().unwrap().segment_ids().contains(&victim),
            "one 4 KiB step leaves the victim half drained"
        );
        // Flipped bits past the cursor condemn the victim.
        let ext = s.db.ctx().lock().fs.file_extent(victim).unwrap();
        s.db.ctx()
            .lock()
            .fs
            .disk_mut()
            .faults_mut()
            .corrupt_extent(smr_sim::Extent::new(ext.offset + (24 << 10), 4));
        let scrub = lsm_core::ScrubConfig {
            bytes_per_step: 1 << 20,
            repair: true,
        };
        while s.vlog.as_ref().unwrap().segment_ids().contains(&victim) {
            s.scrub_step(&scrub).unwrap();
        }
        s.vlog_gc_step(4 << 10).unwrap();
        for i in 0..10u64 {
            let key = format!("c{i:03}");
            assert_eq!(s.get(key.as_bytes()).unwrap(), Some(vec![i as u8; 1024]));
        }
    }

    #[test]
    fn a_table_dropped_on_reopen_stays_counted() {
        let mut s = StoreConfig::new(StoreKind::SealDb, 32 << 10, 1 << 30)
            .build()
            .unwrap();
        for i in 0..400u64 {
            s.put(format!("t{i:04}").as_bytes(), &[i as u8; 100])
                .unwrap();
        }
        s.flush().unwrap();
        assert_eq!(s.tables_dropped, 0);
        let table =
            s.db.current_version()
                .files
                .iter()
                .flatten()
                .next()
                .unwrap()
                .id;
        let ext = s.db.ctx().lock().fs.file_extent(table).unwrap();
        s.db.ctx()
            .lock()
            .fs
            .disk_mut()
            .faults_mut()
            .fail_reads_permanently(ext);
        let s = s.reopen().unwrap();
        assert_eq!(s.tables_dropped, 1, "the unreadable table left the tree");
        s.db.ctx()
            .lock()
            .fs
            .disk_mut()
            .faults_mut()
            .clear_persistent_faults();
        let s = s.reopen().unwrap();
        assert_eq!(s.tables_dropped, 1, "a reopen does not forget the hole");
    }

    #[test]
    fn vlog_store_metrics_are_deterministic() {
        let run = || {
            let cfg = vlog_config();
            let mut s = cfg.build().unwrap();
            for i in 0..800u64 {
                let key = format!("d{:05}", i % 120);
                s.put(key.as_bytes(), &vec![(i % 256) as u8; 1024]).unwrap();
            }
            s.flush().unwrap();
            while s.vlog_gc_pending() {
                s.vlog_gc_step(256 << 10).unwrap();
            }
            s.metrics_snapshot().to_json(64)
        };
        assert_eq!(run(), run());
    }

    /// Replication × key-value separation: the primary ships the batch
    /// bytes it captured *before* its own vlog rewrite, and the replica
    /// rewrites them through its **own** log — values land in the
    /// replica's vlog, sequences track the primary's, and a redelivered
    /// frame is rejected before it can litter the replica's log.
    #[test]
    fn apply_replicated_with_vlog_rewrites_through_own_log() {
        let cfg = vlog_config();
        let mut primary = cfg.clone().build().unwrap();
        let mut replica = cfg.build().unwrap();
        let mut wires: Vec<(Vec<u8>, u64)> = Vec::new();
        for round in 0..30u64 {
            let mut b = lsm_core::WriteBatch::new();
            for i in 0..8u64 {
                let key = format!("r{i:03}");
                b.put(key.as_bytes(), &vec![(round % 250) as u8; 2048]);
            }
            b.put(b"inline", &[round as u8; 16]);
            let wire = b.rep().to_vec();
            let count = u64::from(b.count());
            primary.write(b).unwrap();
            let seq = primary.db.last_sequence() - count + 1;
            wires.push((wire, seq));
        }
        for (wire, seq) in &wires {
            let mut shipped = lsm_core::WriteBatch::decode(wire).unwrap();
            shipped.set_sequence(*seq);
            assert!(replica.apply_replicated(shipped).unwrap());
        }
        assert_eq!(primary.db.last_sequence(), replica.db.last_sequence());
        // The replica diverted large values into its own log.
        let appended = replica
            .metrics_snapshot()
            .obs
            .registry
            .gauge(ObsLayer::ValueLog, "appended_bytes");
        assert!(appended > 0.0, "replica must rewrite through its own vlog");
        // Redelivered frame: rejected before the rewrite, so the
        // replica's log gains nothing.
        let (wire, seq) = wires.last().unwrap();
        let mut dup = lsm_core::WriteBatch::decode(wire).unwrap();
        dup.set_sequence(*seq);
        assert!(!replica.apply_replicated(dup).unwrap());
        let after = replica
            .metrics_snapshot()
            .obs
            .registry
            .gauge(ObsLayer::ValueLog, "appended_bytes");
        assert_eq!(appended, after, "duplicate frame must not litter the vlog");
        // Both stores serve the final values.
        for i in 0..8u64 {
            let key = format!("r{i:03}");
            assert_eq!(
                replica.get(key.as_bytes()).unwrap(),
                primary.get(key.as_bytes()).unwrap(),
                "key {key} diverged"
            );
            assert_eq!(
                replica.get(key.as_bytes()).unwrap().as_deref(),
                Some(vec![29u8; 2048].as_slice())
            );
        }
    }

    /// One cooperative-GC step with the durability barrier **removed**:
    /// [`Store::vlog_gc_step`] except that a finished victim is retired
    /// without syncing the WAL first, so the step's pointer fixups are
    /// still volatile when the band returns to the allocator.
    #[cfg(debug_assertions)]
    fn vlog_gc_step_retire_before_sync(s: &mut super::Store, budget_bytes: u64) {
        let Some(relocation) = s.vlog_gc_relocate(budget_bytes).unwrap() else {
            return;
        };
        assert!(relocation.error.is_none(), "{:?}", relocation.error);
        if !relocation.finished {
            return;
        }
        // The missing barrier: no sync_wal() and no record_durable()
        // before the recycle record.
        if let Some(a) = s.ord_audit.as_mut() {
            a.record_recycle(s.db.clock_ns(), relocation.victim);
        }
        let vlog = s.vlog.as_mut().expect("relocate checked vlog");
        s.db.with_fs_and_policy(|fs, policy| vlog.retire_segment(fs, policy, relocation.victim))
            .unwrap();
        if vlog.take_dirty() {
            s.db.commit_aux_state(vlog.checkpoint()).unwrap();
        }
    }

    /// The ordering auditor watches the real GC path: retiring a victim
    /// whose pointer fixups are not yet durable (a retire-before-sync
    /// ordering bug) trips it at the recycle record.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "were not yet durable")]
    fn retire_before_sync_panics_under_ordering_audit() {
        let cfg = StoreConfig::new(StoreKind::SealDb, 256 << 10, 1 << 30).with_vlog(
            seal_vlog::VlogParams {
                segment_bytes: 32 << 10,
                value_threshold: 64,
            },
        );
        let mut s = cfg.build().unwrap();
        for round in 0..2u64 {
            for i in 0..60u64 {
                let key = format!("k{i:03}");
                s.put(key.as_bytes(), &vec![(round + i) as u8; 1024])
                    .unwrap();
            }
        }
        // Churn a subset: keys k000..k009 are never written again, so
        // their live records sit in segments otherwise full of
        // garbage — the scan must relocate them and write fixups.
        for round in 0..4u64 {
            for i in 10..60u64 {
                let key = format!("k{i:03}");
                s.put(key.as_bytes(), &vec![(round % 250) as u8; 1024])
                    .unwrap();
            }
        }
        s.flush().unwrap();
        assert!(s.vlog_gc_pending(), "churn must seal segments");
        // A budget larger than any segment: each call scans, relocates,
        // writes fixups, and retires in one step — without the barrier.
        // Fully-dead victims retire first (no fixups, no violation);
        // the first mixed victim trips the auditor.
        let mut steps = 0;
        while s.vlog_gc_pending() && steps < 1_000 {
            vlog_gc_step_retire_before_sync(&mut s, 1 << 20);
            steps += 1;
        }
        unreachable!("ordering auditor must catch the missing barrier");
    }

    #[test]
    fn metrics_snapshot_reports_per_level_compaction_bytes() {
        let m = exercised(StoreKind::LevelDb);
        // Enough churn to compact out of L0: the per-level counters from
        // the engine appear under the lsm layer.
        let total: u64 = (0..7)
            .map(|l| {
                m.obs
                    .registry
                    .counter(ObsLayer::Lsm, &format!("compaction.l{l}.bytes_out"))
            })
            .sum();
        let recorded_compactions = m.obs.registry.counter(ObsLayer::Lsm, "trivial_moves")
            + (0..7)
                .map(|l| {
                    m.obs
                        .registry
                        .counter(ObsLayer::Lsm, &format!("compaction.l{l}.count"))
                })
                .sum::<u64>();
        assert!(recorded_compactions > 0, "workload must compact");
        // Trivial moves rewrite nothing, so bytes_out may be 0, but the
        // counters must be present and consistent with the WAL sync path.
        let _ = total;
        assert!(m.obs.registry.counter(ObsLayer::Wal, "sync_bytes") > 0);
        assert!(m.obs.histogram(ObsLayer::Wal, "sync_ns").is_some());
    }
}
