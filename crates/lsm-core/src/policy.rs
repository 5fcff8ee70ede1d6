//! Placement policies: the seam between the LSM engine and the disk-space
//! allocators, and the hook points the SEALDB crate uses to implement
//! *sets* (contiguous placement of each compaction's outputs) and
//! set-priority victim picking.
//!
//! [`PerFilePolicy`] is the baseline: every SSTable is allocated and freed
//! individually (LevelDB-on-a-filesystem behaviour). With the Ext4-like
//! allocator it reproduces the scattered layout of the paper's Fig. 2;
//! with the fixed-band allocator it gives SMRDB's one-table-per-band
//! placement.

use crate::error::Result;
use crate::filestore::FileStore;
use crate::types::FileId;
use crate::version::FSMETA_LOG_ID;
use placement::Allocator;
use smr_sim::{Extent, IoKind, ObsLayer};

/// Trailing dead space a value-log segment's allocation must own so
/// *in-place appends* never shingle-damage the next allocation. Normal
/// table extents are written whole, in frontier order, so forward
/// damage always lands on not-yet-allocated space; a vlog segment is
/// appended to long after the frontier has moved past it, so on raw
/// HM-SMR its extent must absorb the guard window of its own tail
/// write. Band-granular layouts confine write damage to the band itself
/// and need no slack.
pub fn vlog_append_slack(fs: &FileStore) -> u64 {
    match fs.disk().layout() {
        smr_sim::Layout::RawHmSmr { guard_bytes } => guard_bytes,
        _ => 0,
    }
}

/// Drains an allocator's queued band-lifecycle events into the disk's
/// observability sink, stamping each with the current simulated time and
/// bumping the matching placement counter. Policies call this after any
/// operation that can allocate or free extents.
pub fn drain_alloc_events(alloc: &mut dyn Allocator, fs: &mut FileStore) {
    let events = alloc.take_events();
    if events.is_empty() {
        return;
    }
    let disk = fs.disk_mut();
    for ev in events {
        disk.obs_mut()
            .counter_add(ObsLayer::Placement, ev.kind.name(), 1);
        disk.obs_event(ObsLayer::Placement, ev.kind, ev.offset, ev.len);
    }
}

/// Decides where flush and compaction outputs land on disk.
pub trait PlacementPolicy: Send {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Places one memtable-flush output. `run` is how many bytes the
    /// level-0 run it joins grows to before an L0→L1 compaction reads it
    /// (`l0_compaction_trigger × write_buffer_size`): a policy may keep
    /// the run back-to-back ([`Allocator::allocate_in_run`]). Returns the
    /// set id the file belongs to (0 = no set).
    fn place_flush(
        &mut self,
        fs: &mut FileStore,
        file: FileId,
        data: &[u8],
        run: u64,
    ) -> Result<u64>;

    /// Places all outputs of one compaction. Returns the set id shared by
    /// the files (0 = no set).
    fn place_outputs(&mut self, fs: &mut FileStore, outputs: &[(FileId, Vec<u8>)]) -> Result<u64>;

    /// Deletes an obsolete file: the file's bytes are invalidated and its
    /// space is recycled when the policy allows (immediately for per-file
    /// policies; when the whole set fades for the set policy).
    fn delete_file(&mut self, fs: &mut FileStore, file: FileId) -> Result<()>;

    /// Allocates and registers an extent for a `size`-byte value-log
    /// segment *without writing it*: the value log appends into the
    /// registered extent incrementally via
    /// [`FileStore::write_file_range`]. On raw HM-SMR the returned
    /// extent is over-allocated by [`vlog_append_slack`] so in-place
    /// appends never shingle-damage the next allocation; the caller must
    /// cap its writes at `size`. The segment is recycled through
    /// [`PlacementPolicy::delete_file`] like any table.
    fn place_vlog_segment(&mut self, fs: &mut FileStore, file: FileId, size: u64)
        -> Result<Extent>;

    /// SEALDB's victim-priority hook (§III-C *Delete*): score a compaction
    /// victim by the files its compaction would consume in the next level.
    /// Higher wins; 0 everywhere falls back to round-robin picking.
    fn victim_priority(&self, _overlapped: &[FileId]) -> u64 {
        0
    }

    /// Fences `ext` off the allocator's future-allocation path: a latent
    /// sector error or failed band the scrubber discovered. Live data
    /// inside the fence is *not* copied out here — relocation happens
    /// through scrub repair, which verifies checksums block by block; a
    /// raw GC copy of a latent-error region would either fail outright or
    /// silently propagate flipped bits. Returns the bytes newly fenced
    /// (0 for policies whose allocator does not support fencing).
    fn quarantine_extent(&mut self, fs: &mut FileStore, ext: Extent) -> u64 {
        let _ = (fs, ext);
        0
    }

    /// Introspection over the underlying allocator (layout figures).
    fn allocator(&self) -> &dyn Allocator;

    /// Resets the policy's space bookkeeping to match a file store
    /// restored from a crash image: exactly the `live` (file, extent)
    /// pairs exist on disk. The allocator relearns those extents; any
    /// set/region bookkeeping restarts from per-file granularity (set
    /// grouping is an optimisation, not a correctness input).
    fn rebuild(&mut self, live: &[(FileId, Extent)]);

    /// Set bookkeeping statistics, for policies that group files into
    /// sets. Default: none.
    fn set_stats(&self) -> Option<SetStats> {
        None
    }

    /// Fragment garbage collection (the SEALDB paper's stated future
    /// work, SIV-C): relocate nearly-faded sets adjacent to fragments so
    /// the free space coalesces into reusable regions. Policies without
    /// set/fragment bookkeeping return an empty report.
    fn collect_garbage(&mut self, _fs: &mut FileStore, _cfg: &GcConfig) -> Result<GcReport> {
        Ok(GcReport::default())
    }
}

/// Tuning for [`PlacementPolicy::collect_garbage`].
#[derive(Clone, Copy, Debug)]
pub struct GcConfig {
    /// Free regions smaller than this are fragments (the paper uses the
    /// average set size).
    pub fragment_threshold: u64,
    /// Stop once fragments occupy at most this fraction of the used span.
    pub target_fragment_ratio: f64,
    /// Hard cap on relocated sets per invocation.
    pub max_moves: usize,
}

impl Default for GcConfig {
    fn default() -> Self {
        GcConfig {
            fragment_threshold: 0, // 0 = use the policy's average set size
            target_fragment_ratio: 0.02,
            max_moves: 64,
        }
    }
}

/// Outcome of one garbage-collection invocation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct GcReport {
    /// Sets relocated.
    pub relocated_sets: u64,
    /// Live bytes rewritten during relocation.
    pub moved_bytes: u64,
    /// Fragment bytes before the pass.
    pub fragments_before: u64,
    /// Fragment bytes after the pass.
    pub fragments_after: u64,
}

/// Aggregate statistics over the sets a policy has created.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SetStats {
    /// Sets created so far (flush regions count as 1-member sets).
    pub sets_created: u64,
    /// Sets whose space has been recycled.
    pub sets_faded: u64,
    /// Sets currently live on disk.
    pub sets_live: u64,
    /// Total bytes across all created *compaction* sets.
    pub compaction_set_bytes: u64,
    /// Total member files across all created compaction sets.
    pub compaction_set_files: u64,
    /// Number of compaction sets (>= 1 member, excludes flush regions).
    pub compaction_sets: u64,
}

impl SetStats {
    /// Average compaction-set size in bytes (the paper reports 27.48 MB).
    pub fn avg_set_bytes(&self) -> f64 {
        if self.compaction_sets == 0 {
            0.0
        } else {
            self.compaction_set_bytes as f64 / self.compaction_sets as f64
        }
    }

    /// Average SSTables per compaction set (the paper reports 6.87).
    pub fn avg_set_files(&self) -> f64 {
        if self.compaction_sets == 0 {
            0.0
        } else {
            self.compaction_set_files as f64 / self.compaction_sets as f64
        }
    }
}

/// Per-file placement: each SSTable is its own allocation.
pub struct PerFilePolicy {
    alloc: Box<dyn Allocator>,
    /// When set, each file create/delete writes a 4 KiB metadata record
    /// to the filesystem-journal log, modelling the "redundant software
    /// overhead" of running LevelDB above Ext4 (§IV-A2).
    fs_journal: bool,
}

impl std::fmt::Debug for PerFilePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PerFilePolicy")
            .field("alloc", &self.alloc.name())
            .field("fs_journal", &self.fs_journal)
            .finish()
    }
}

impl PerFilePolicy {
    /// Creates a policy over the given allocator, without filesystem
    /// journal overhead (direct-on-disk stores).
    pub fn new(alloc: Box<dyn Allocator>) -> Self {
        PerFilePolicy {
            alloc,
            fs_journal: false,
        }
    }

    /// Creates a policy that also pays per-file filesystem metadata writes
    /// (the LevelDB-on-Ext4 baseline).
    pub fn with_fs_journal(alloc: Box<dyn Allocator>) -> Self {
        PerFilePolicy {
            alloc,
            fs_journal: true,
        }
    }

    fn journal(&self, fs: &mut FileStore) -> Result<()> {
        if self.fs_journal {
            if !fs.has_log(FSMETA_LOG_ID) {
                fs.create_log(FSMETA_LOG_ID)?;
            }
            // The filesystem journal is circular: wrap it before it can
            // crowd out the WAL/manifest (accounting keeps every write).
            if fs.log_len(FSMETA_LOG_ID)? > 4 << 20 {
                fs.delete_log(FSMETA_LOG_ID)?;
                fs.create_log(FSMETA_LOG_ID)?;
            }
            // Inode + bitmap + journal commit, amortised to one 4 KiB write.
            fs.log_append(FSMETA_LOG_ID, &[0u8; 4096], IoKind::Meta)?;
        }
        Ok(())
    }

    fn place_one(&mut self, fs: &mut FileStore, file: FileId, data: &[u8]) -> Result<()> {
        let ext = self.alloc.allocate(data.len() as u64)?;
        drain_alloc_events(self.alloc.as_mut(), fs);
        fs.write_file_at(file, ext, data, IoKind::Flush)?;
        self.journal(fs)
    }
}

impl PlacementPolicy for PerFilePolicy {
    fn name(&self) -> &'static str {
        "per-file"
    }

    fn place_flush(
        &mut self,
        fs: &mut FileStore,
        file: FileId,
        data: &[u8],
        _run: u64,
    ) -> Result<u64> {
        self.place_one(fs, file, data)?;
        Ok(0)
    }

    fn place_outputs(&mut self, fs: &mut FileStore, outputs: &[(FileId, Vec<u8>)]) -> Result<u64> {
        for (file, data) in outputs {
            let ext = self.alloc.allocate(data.len() as u64)?;
            drain_alloc_events(self.alloc.as_mut(), fs);
            fs.write_file_at(*file, ext, data, IoKind::CompactionWrite)?;
            self.journal(fs)?;
        }
        Ok(0)
    }

    fn delete_file(&mut self, fs: &mut FileStore, file: FileId) -> Result<()> {
        let ext = fs.drop_file(file)?;
        self.alloc.free(ext);
        drain_alloc_events(self.alloc.as_mut(), fs);
        self.journal(fs)
    }

    fn place_vlog_segment(
        &mut self,
        fs: &mut FileStore,
        file: FileId,
        size: u64,
    ) -> Result<Extent> {
        let ext = self.alloc.allocate(size + vlog_append_slack(fs))?;
        drain_alloc_events(self.alloc.as_mut(), fs);
        fs.register_file(file, ext);
        self.journal(fs)?;
        Ok(ext)
    }

    fn quarantine_extent(&mut self, fs: &mut FileStore, ext: Extent) -> u64 {
        let fenced = self.alloc.quarantine(ext);
        drain_alloc_events(self.alloc.as_mut(), fs);
        fenced
    }

    fn allocator(&self) -> &dyn Allocator {
        self.alloc.as_ref()
    }

    fn rebuild(&mut self, live: &[(FileId, Extent)]) {
        let exts: Vec<Extent> = live.iter().map(|&(_, e)| e).collect();
        self.alloc.rebuild(&exts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use placement::Ext4Sim;
    use smr_sim::{Disk, Layout, TimeModel};

    const MB: u64 = 1 << 20;

    fn fs() -> FileStore {
        let cap = 512 * MB;
        let disk = Disk::new(cap, Layout::Hdd, TimeModel::hdd_st1000dm003(cap));
        FileStore::new(disk, 16 * MB)
    }

    #[test]
    fn per_file_place_and_delete() {
        let mut store = fs();
        let alloc = Ext4Sim::new(store.data_capacity(), 64 * MB);
        let mut p = PerFilePolicy::new(Box::new(alloc));
        let set = p
            .place_flush(&mut store, 10, &vec![1u8; 1 << 20], 4 << 20)
            .unwrap();
        assert_eq!(set, 0);
        assert!(store.has_file(10));
        assert_eq!(p.allocator().allocated_bytes(), 1 << 20);
        p.delete_file(&mut store, 10).unwrap();
        assert!(!store.has_file(10));
        assert_eq!(p.allocator().allocated_bytes(), 0);
    }

    #[test]
    fn per_file_outputs_are_scattered_by_ext4() {
        let mut store = fs();
        let alloc = Ext4Sim::new(store.data_capacity(), 64 * MB);
        let mut p = PerFilePolicy::new(Box::new(alloc));
        let outputs: Vec<(u64, Vec<u8>)> =
            (0..3).map(|i| (20 + i, vec![i as u8; 1 << 20])).collect();
        p.place_outputs(&mut store, &outputs).unwrap();
        let e0 = store.file_extent(20).unwrap();
        let e1 = store.file_extent(21).unwrap();
        let e2 = store.file_extent(22).unwrap();
        // Different block groups: gaps far larger than the files.
        assert!(e0.offset.abs_diff(e1.offset) >= 32 * MB);
        assert!(e1.offset.abs_diff(e2.offset) >= 32 * MB);
    }

    #[test]
    fn fs_journal_writes_metadata() {
        let mut store = fs();
        let alloc = Ext4Sim::new(store.data_capacity(), 64 * MB);
        let mut p = PerFilePolicy::with_fs_journal(Box::new(alloc));
        p.place_flush(&mut store, 10, &vec![1u8; 4096], 4 << 20)
            .unwrap();
        p.delete_file(&mut store, 10).unwrap();
        assert_eq!(store.log_len(FSMETA_LOG_ID).unwrap(), 2 * 4096);
    }
}
