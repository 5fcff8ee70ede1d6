//! Online scrub-and-repair: a budgeted background walk over the live
//! SSTables that verifies every block checksum, corrects single-bit
//! latent errors in place (in the read path — the platter copy is never
//! patched), re-materialises damaged tables onto healthy space through a
//! targeted single-file compaction, and quarantines files whose metadata
//! is beyond repair.
//!
//! ## Fault model
//!
//! The simulated disk injects three persistent fault classes
//! ([`smr_sim::FaultPlan`]): read-path bit corruption over a registered
//! region (every read of the region comes back flipped), unrecoverable
//! reads (latent sector errors: every overlapping read errors), and
//! whole-band failures. Scrub maps each to a verdict per file:
//!
//! * **Clean** — every block verifies.
//! * **Repairable** — some data blocks are damaged but the footer and
//!   index parse: the file is rebuilt from its surviving blocks (plus
//!   any blocks recovered by single-bit correction) as a *new* file on
//!   *newly allocated* space, swapped in through a committed
//!   `VersionEdit` — never patched in place.
//! * **Dead** — the footer or index is unreadable or uncorrectable, so
//!   the blocks cannot even be located: the file is quarantined (removed
//!   from the version; deeper levels keep serving older versions of its
//!   keys).
//!
//! Every damaged extent is *fenced* through
//! [`PlacementPolicy::quarantine_extent`](crate::policy::PlacementPolicy::quarantine_extent)
//! before the repair allocates replacement space, so the rebuilt file
//! can never land back on the bad region. Failed bands advertised by the
//! fault plan are fenced wholesale at the start of each step. Live data
//! inside a fence is not copied out by the fence itself — relocation
//! happens through this module's verify-then-rebuild path, because a raw
//! GC copy of a latent-error region would silently propagate flipped
//! bits.
//!
//! ## Single-bit correction
//!
//! Block trailers carry a masked CRC32C. The CRC is linear over GF(2):
//! for equal-length messages `crc(a) ^ crc(b) = crc0(a ^ b)` where
//! `crc0` is the raw (init 0, no xor-out) CRC of the difference. A
//! single-bit error at byte `p`, bit `b` therefore yields the unique
//! syndrome `crc0(e_{p,b})`, which is matched by streaming the eight
//! per-bit syndromes across byte positions from the tail of the block —
//! O(8·n) table steps, no per-candidate re-hash. Flips landing in the
//! stored CRC field itself do not fold into the syndrome (the mask is
//! non-linear), so those 32 candidates are tried directly.

// Crash recovery and repair degrade to contextful errors, never panic:
// a panic during reopen turns a recoverable torn tail into an outage.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use super::DbCore;
use crate::error::{Error, Result};
use crate::iterator::InternalIterator;
use crate::sstable::block::Block;
use crate::sstable::table::{
    check_block, locate, parse_footer, strip_trailer, verify_block, BlockHandle, BLOCK_TRAILER_SIZE,
};
use crate::sstable::TableBuilder;
use crate::types::FileId;
use crate::util::crc32c;
use crate::version::{FileMetaData, FileMetaHandle, VersionEdit};
use smr_sim::{DiskError, Extent, IoKind, ObsEventKind, ObsLayer};

/// Health verdict for one scanned file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FileHealth {
    /// Every block verified.
    Clean,
    /// Damaged data/filter blocks, but the footer and index parse: the
    /// file can be rebuilt from what survives.
    Repairable,
    /// Footer or index unreadable or uncorrectable: the blocks cannot be
    /// located, the file must be quarantined.
    Dead,
}

/// Counters for one scrub step (or, summed, a whole pass).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Files whose blocks were verified.
    files_scanned: u64,
    /// Table bytes read and verified.
    pub bytes_verified: u64,
    /// Blocks checked (data + index + filter).
    pub blocks_verified: u64,
    /// Blocks that failed their first checksum pass.
    pub blocks_corrupt: u64,
    /// Corrupt blocks recovered by single-bit correction.
    pub blocks_corrected: u64,
    /// Blocks lost outright (unreadable, or damage beyond one bit).
    pub blocks_lost: u64,
    /// Files rebuilt onto healthy space.
    pub files_repaired: u64,
    /// Files dropped from the version as unrecoverable.
    pub files_quarantined: u64,
    /// Damaged extents newly fenced off the allocation path.
    pub extents_fenced: u64,
    /// Bytes newly fenced.
    pub bytes_fenced: u64,
    /// Completed full passes over the version (0 or 1 per step).
    pub full_passes: u64,
}

impl ScrubReport {
    /// Accumulates `other` into `self`.
    pub(crate) fn merge(&mut self, other: &ScrubReport) {
        self.files_scanned += other.files_scanned;
        self.bytes_verified += other.bytes_verified;
        self.blocks_verified += other.blocks_verified;
        self.blocks_corrupt += other.blocks_corrupt;
        self.blocks_corrected += other.blocks_corrected;
        self.blocks_lost += other.blocks_lost;
        self.files_repaired += other.files_repaired;
        self.files_quarantined += other.files_quarantined;
        self.extents_fenced += other.extents_fenced;
        self.bytes_fenced += other.bytes_fenced;
        self.full_passes += other.full_passes;
    }
}

/// Advances a raw CRC by one zero byte.
fn step_zero(syn: u32) -> u32 {
    (syn >> 8) ^ crc32c::byte_table()[(syn & 0xff) as usize]
}

/// Attempts to repair a single flipped bit anywhere in a block image
/// (`contents | type byte | masked CRC32C LE`), including flips inside
/// the stored CRC field. Returns the repaired image, or `None` when the
/// damage is not a single-bit flip. The result always passes
/// [`verify_block`].
fn correct_single_bit(image: &[u8]) -> Option<Vec<u8>> {
    if image.len() < BLOCK_TRAILER_SIZE {
        return None;
    }
    let split = image.len() - BLOCK_TRAILER_SIZE;
    // The checksum covers the contents plus the type byte.
    let msg_len = split + 1;
    let stored = u32::from_le_bytes(image[split + 1..split + 5].try_into().ok()?);
    let computed_raw = crc32c::crc32c(&image[..msg_len]);
    let computed = crc32c::mask(computed_raw);
    if stored == computed && image[split] == 0 {
        return Some(image.to_vec());
    }
    // Case 1: the flip landed in the stored CRC field. The mask is
    // non-linear, so these 32 candidates are tried directly.
    for bit in 0..32u32 {
        if stored ^ (1 << bit) == computed {
            let mut fixed = image.to_vec();
            fixed[split + 1..split + 5].copy_from_slice(&(stored ^ (1 << bit)).to_le_bytes());
            return verified(fixed);
        }
    }
    // Case 2: the flip landed in the message. Match the error syndrome
    // against the eight per-bit candidates, streamed from the last
    // message byte backwards (each earlier byte position adds one
    // trailing zero byte to the error vector).
    let syndrome = crc32c::unmask(stored) ^ computed_raw;
    let mut syn = [0u32; 8];
    for (b, s) in syn.iter_mut().enumerate() {
        *s = crc32c::byte_table()[1usize << b];
    }
    for p in (0..msg_len).rev() {
        for (b, s) in syn.iter().enumerate() {
            if *s == syndrome {
                let mut fixed = image.to_vec();
                fixed[p] ^= 1 << b;
                if let Some(ok) = verified(fixed) {
                    return Some(ok);
                }
            }
        }
        if p > 0 {
            for s in syn.iter_mut() {
                *s = step_zero(*s);
            }
        }
    }
    None
}

/// Returns the candidate image iff it verifies as a well-formed block.
fn verified(image: Vec<u8>) -> Option<Vec<u8>> {
    verify_block(&image).is_ok().then_some(image)
}

/// The extent of an injected persistent fault, if `e` is one.
fn unrecoverable_extent(e: &Error) -> Option<Extent> {
    match e {
        Error::Disk(DiskError::UnrecoverableRead { ext }) => Some(*ext),
        _ => None,
    }
}

/// What the block walk learned about one file.
struct FileScan {
    health: FileHealth,
    /// Salvaged (internal key, value) entries, in table order; meaningful
    /// only for `Repairable` files.
    entries: Vec<(Vec<u8>, Vec<u8>)>,
    /// Corrupt blocks found (first-pass checksum failures).
    corrupt: u64,
    /// Blocks recovered by single-bit correction.
    corrected: u64,
    /// Blocks lost (unreadable or uncorrectable).
    lost: u64,
    /// Blocks checked.
    verified: u64,
    /// Absolute disk extents found damaged, to fence before repair.
    bad_extents: Vec<Extent>,
}

impl DbCore {
    /// Lifetime scrub totals across all steps on this handle.
    pub fn scrub_report(&self) -> &ScrubReport {
        &self.scrub_totals
    }

    /// Runs scrub steps of `budget_bytes` each until one full pass over
    /// the current version completes, returning the summed report.
    pub fn scrub_full(&mut self, budget_bytes: u64) -> Result<ScrubReport> {
        let mut total = ScrubReport::default();
        loop {
            let step = self.scrub_step(budget_bytes)?;
            total.merge(&step);
            if step.full_passes > 0 {
                return Ok(total);
            }
        }
    }

    /// Runs one budgeted scrub step: fences any failed bands the fault
    /// plan advertises, then verifies files from the resume cursor until
    /// `budget_bytes` table bytes have been checked or the pass
    /// completes. A step always finishes the file it started (verdicts
    /// and repair are file-granular), so the budget bounds when the step
    /// stops picking up further files, not the last file's size.
    /// Damaged files are repaired or quarantined immediately so a later
    /// read never trips over a fault scrub already saw.
    pub fn scrub_step(&mut self, budget_bytes: u64) -> Result<ScrubReport> {
        let mut step = ScrubReport::default();
        self.fence_failed_bands(&mut step);
        loop {
            let Some((level, file)) = self.next_scrub_target() else {
                self.scrub_cursor = None;
                step.full_passes += 1;
                break;
            };
            self.scrub_cursor = Some((level, file.id));
            let scan = self.scan_file(&file)?;
            step.files_scanned += 1;
            step.bytes_verified += file.size;
            step.blocks_verified += scan.verified;
            step.blocks_corrupt += scan.corrupt;
            step.blocks_corrected += scan.corrected;
            step.blocks_lost += scan.lost;
            if scan.health != FileHealth::Clean {
                // Fence first: replacement space must never be allocated
                // over the region that just damaged this file.
                for ext in &scan.bad_extents {
                    self.fence_extent(*ext, &mut step);
                }
                match scan.health {
                    FileHealth::Repairable if !scan.entries.is_empty() => {
                        self.rebuild_file(level, &file, scan.entries)?;
                        step.files_repaired += 1;
                        self.obs_counter(ObsLayer::Lsm, "scrub.files_repaired", 1);
                        self.obs_event(
                            ObsLayer::Lsm,
                            ObsEventKind::ScrubRepair,
                            file.id,
                            scan.corrected,
                        );
                    }
                    // Nothing salvageable (or metadata gone): drop the
                    // file; deeper levels keep serving older versions.
                    _ => {
                        self.scrub_quarantine(level, file.id)?;
                        step.files_quarantined += 1;
                    }
                }
            }
            if step.bytes_verified >= budget_bytes {
                break;
            }
        }
        self.obs_counter(ObsLayer::Lsm, "scrub.files_scanned", step.files_scanned);
        self.obs_counter(ObsLayer::Lsm, "scrub.bytes_verified", step.bytes_verified);
        self.scrub_totals.merge(&step);
        Ok(step)
    }

    /// First file after the cursor in (level, file id) order, from the
    /// *current* version — robust to repairs swapping files mid-pass
    /// (replacement ids are larger, so they are scanned the same pass).
    fn next_scrub_target(&self) -> Option<(usize, FileMetaHandle)> {
        let version = self.versions.current();
        let mut best: Option<(usize, FileMetaHandle)> = None;
        for (level, files) in version.files.iter().enumerate() {
            for f in files {
                if let Some((cl, cid)) = self.scrub_cursor {
                    if (level, f.id) <= (cl, cid) {
                        continue;
                    }
                }
                match &best {
                    Some((bl, bf)) if (*bl, bf.id) <= (level, f.id) => {}
                    _ => best = Some((level, f.clone())),
                }
            }
        }
        best
    }

    /// Fences whole bands the fault plan has marked failed. Idempotent:
    /// the allocator reports only newly fenced bytes.
    fn fence_failed_bands(&mut self, step: &mut ScrubReport) {
        let bands: Vec<Extent> = {
            let guard = self.ctx.lock();
            guard.fs.disk().faults().failed_bands().to_vec()
        };
        for band in bands {
            self.fence_extent(band, step);
        }
    }

    fn fence_extent(&mut self, ext: Extent, step: &mut ScrubReport) {
        let mut guard = self.ctx.lock();
        let fenced = self.policy.quarantine_extent(&mut guard.fs, ext);
        if fenced > 0 {
            step.extents_fenced += 1;
            step.bytes_fenced += fenced;
        }
    }

    /// Verifies every block of one file, salvaging what it can. Reads go
    /// straight to the file store (no block cache: scrub must see the
    /// platter, not a cached copy) and are charged as `Meta` I/O on the
    /// simulated clock.
    fn scan_file(&mut self, f: &FileMetaHandle) -> Result<FileScan> {
        let mut scan = FileScan {
            health: FileHealth::Clean,
            entries: Vec::new(),
            corrupt: 0,
            corrected: 0,
            lost: 0,
            verified: 0,
            bad_extents: Vec::new(),
        };
        let footer_len = crate::sstable::FOOTER_SIZE as u64;
        let file_ext = self.ctx.lock().fs.file_extent(f.id)?;
        let abs = |off: u64, len: u64| Extent::new(file_ext.offset + off, len);
        if f.size < footer_len {
            scan.health = FileHealth::Dead;
            scan.bad_extents.push(file_ext);
            return Ok(scan);
        }
        // Footer (unchecksummed): unreadable or unparsable means the
        // blocks cannot be located at all.
        let footer = match self.read_raw(f.id, f.size - footer_len, footer_len) {
            Ok(bytes) => bytes,
            Err(e) => {
                return match unrecoverable_extent(&e) {
                    Some(ext) => {
                        scan.health = FileHealth::Dead;
                        scan.bad_extents.push(ext);
                        Ok(scan)
                    }
                    None => Err(e),
                };
            }
        };
        let Ok((filter_handle, index_handle)) = parse_footer(&footer) else {
            scan.health = FileHealth::Dead;
            scan.bad_extents.push(abs(f.size - footer_len, footer_len));
            return Ok(scan);
        };
        // Index block: correctable like any other block, but if it stays
        // broken the data blocks cannot be located.
        let index_contents = match self.check_one_block(f.id, index_handle, &mut scan)? {
            Some(contents) => contents,
            None => {
                scan.health = FileHealth::Dead;
                return Ok(scan);
            }
        };
        // Filter block: redundant (rebuilt from salvaged entries), so an
        // uncorrectable filter leaves the file repairable.
        if filter_handle.size > 0
            && self
                .check_one_block(f.id, filter_handle, &mut scan)?
                .is_none()
        {
            scan.health = FileHealth::Repairable;
        }
        // Data blocks, in index order.
        let index = match Block::new(index_contents) {
            Ok(b) => std::sync::Arc::new(b),
            Err(_) => {
                scan.health = FileHealth::Dead;
                scan.bad_extents
                    .push(abs(index_handle.offset, index_handle.size));
                return Ok(scan);
            }
        };
        // Entries are only materialised once damage exists: clean files
        // cost one verification read per block and no memory. When the
        // *first* damaged block appears mid-walk, the clean prefix is
        // re-read and salvaged retroactively (deterministic simulation:
        // a block that verified moments ago verifies again).
        let mut ii = index.iter();
        ii.seek_to_first();
        while ii.valid() {
            let (handle, _) = BlockHandle::decode(ii.value())?;
            let was_clean = scan.health == FileHealth::Clean;
            match self.check_one_block(f.id, handle, &mut scan)? {
                Some(contents) => {
                    if scan.health != FileHealth::Clean {
                        if was_clean {
                            scan.entries = self.resalvage_prefix(f.id, &index, handle.offset)?;
                        }
                        Self::salvage_entries(f.id, handle, contents, &mut scan.entries)?;
                    }
                }
                None => {
                    // Lost block: its keys are gone from this file.
                    if was_clean {
                        scan.entries = self.resalvage_prefix(f.id, &index, handle.offset)?;
                    }
                }
            }
            ii.next();
        }
        Ok(scan)
    }

    /// Re-reads and salvages every data block *before* `stop_offset`
    /// (used when the first damage is discovered mid-walk and earlier
    /// clean blocks were not materialised).
    fn resalvage_prefix(
        &mut self,
        file: FileId,
        index: &std::sync::Arc<Block>,
        stop_offset: u64,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut entries = Vec::new();
        let mut ii = index.iter();
        ii.seek_to_first();
        while ii.valid() {
            let (handle, _) = BlockHandle::decode(ii.value())?;
            if handle.offset >= stop_offset {
                break;
            }
            let raw = self.read_raw(file, handle.offset, handle.disk_span()?.0)?;
            let contents = check_block(raw).map_err(|e| {
                locate(e, || {
                    format!(
                        "file {file} block at offset {} (re-read during salvage)",
                        handle.offset
                    )
                })
            })?;
            Self::salvage_entries(file, handle, contents, &mut entries)?;
            ii.next();
        }
        Ok(entries)
    }

    fn salvage_entries(
        file: FileId,
        handle: BlockHandle,
        contents: Vec<u8>,
        out: &mut Vec<(Vec<u8>, Vec<u8>)>,
    ) -> Result<()> {
        let block = std::sync::Arc::new(Block::new(contents).map_err(|e| {
            locate(e, || {
                format!("file {file} block at offset {}", handle.offset)
            })
        })?);
        let mut bi = block.iter();
        bi.seek_to_first();
        while bi.valid() {
            out.push((bi.key().to_vec(), bi.value().to_vec()));
            bi.next();
        }
        Ok(())
    }

    /// Reads, verifies and (if needed) bit-corrects one block. Returns
    /// the verified contents, or `None` when the block is lost; updates
    /// the scan's counters, health and fence list.
    fn check_one_block(
        &mut self,
        file: FileId,
        handle: BlockHandle,
        scan: &mut FileScan,
    ) -> Result<Option<Vec<u8>>> {
        let (len, _) = handle.disk_span()?;
        let file_ext = self.ctx.lock().fs.file_extent(file)?;
        let block_ext = Extent::new(file_ext.offset + handle.offset, len);
        scan.verified += 1;
        let raw = match self.read_raw(file, handle.offset, len) {
            Ok(bytes) => bytes,
            Err(e) => {
                return match unrecoverable_extent(&e) {
                    Some(ext) => {
                        scan.lost += 1;
                        scan.bad_extents.push(ext);
                        if scan.health == FileHealth::Clean {
                            scan.health = FileHealth::Repairable;
                        }
                        Ok(None)
                    }
                    None => Err(e),
                };
            }
        };
        match verify_block(&raw) {
            Ok(_) => Ok(Some(strip_trailer(raw))),
            Err(_) => {
                scan.corrupt += 1;
                self.ctx
                    .lock()
                    .fs
                    .disk_mut()
                    .stats_mut()
                    .faults
                    .checksum_failures += 1;
                scan.bad_extents.push(block_ext);
                if scan.health == FileHealth::Clean {
                    scan.health = FileHealth::Repairable;
                }
                match correct_single_bit(&raw) {
                    Some(fixed) => {
                        scan.corrected += 1;
                        // The trailer was verified by the corrector.
                        Ok(Some(strip_trailer(fixed)))
                    }
                    None => {
                        scan.lost += 1;
                        Ok(None)
                    }
                }
            }
        }
    }

    fn read_raw(&mut self, file: FileId, offset: u64, len: u64) -> Result<Vec<u8>> {
        self.ctx
            .lock()
            .fs
            .read_file(file, offset, len, IoKind::Meta)
    }

    /// Re-materialises a damaged file from its salvaged entries as a new
    /// file on newly allocated (post-fencing) space, swapped in at the
    /// *same level* through a committed `VersionEdit`. The new file takes
    /// a fresh id, the largest, but keeps the damaged file's order key:
    /// level 0 is ordered by that key, so the rebuilt table keeps its
    /// place behind every newer level-0 table instead of shadowing them.
    /// (Pushing a lone L0 file deeper would let an older L0 entry shadow
    /// it.)
    fn rebuild_file(
        &mut self,
        level: usize,
        old: &FileMetaHandle,
        entries: Vec<(Vec<u8>, Vec<u8>)>,
    ) -> Result<()> {
        let mut builder = TableBuilder::new(self.opts.table_options());
        for (ikey, value) in &entries {
            builder.add(ikey, value);
        }
        let Some(smallest) = builder.first_key().map(|k| k.to_vec()) else {
            return self.scrub_quarantine(level, old.id);
        };
        let largest = builder.last_key().to_vec();
        let id = self.versions.new_file_id();
        let output = [(id, builder.finish())];
        let size = output[0].1.len() as u64;
        let set_id = {
            let mut guard = self.ctx.lock();
            self.policy.place_outputs(&mut guard.fs, &output)?
        };
        let mut edit = VersionEdit::default();
        edit.delete_file(level, old.id);
        edit.add_file(
            level,
            FileMetaData {
                id,
                size,
                smallest,
                largest,
                set_id,
                order: old.order,
            },
        );
        self.install_tables(edit, &output)?;
        {
            let mut guard = self.ctx.lock();
            self.policy.delete_file(&mut guard.fs, old.id)?;
        }
        crate::context::evict_file(&self.ctx, old.id);
        Ok(())
    }

    /// Drops one file from the version: committed delete-only edit,
    /// space reclaim, cache eviction, quarantine event.
    fn scrub_quarantine(&mut self, level: usize, id: FileId) -> Result<()> {
        let mut edit = VersionEdit::default();
        edit.delete_file(level, id);
        {
            let mut guard = self.ctx.lock();
            self.versions.log_and_apply(&mut guard.fs, edit)?;
            self.policy.delete_file(&mut guard.fs, id)?;
        }
        crate::context::evict_file(&self.ctx, id);
        self.obs_counter(ObsLayer::Lsm, "scrub.files_quarantined", 1);
        self.obs_event(
            ObsLayer::Lsm,
            ObsEventKind::FileQuarantined,
            id,
            level as u64,
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::options::Options;
    use crate::policy::PerFilePolicy;
    use placement::DynamicBandAlloc;
    use smr_sim::{Disk, Layout, TimeModel};

    const MB: u64 = 1 << 20;

    fn block_image(contents: &[u8]) -> Vec<u8> {
        let mut image = contents.to_vec();
        image.push(0);
        let crc = crc32c::mask(crc32c::extend(crc32c::crc32c(contents), &[0]));
        image.extend_from_slice(&crc.to_le_bytes());
        image
    }

    #[test]
    fn corrector_fixes_single_flips_anywhere() {
        let contents: Vec<u8> = (0..1500u32).map(|i| (i * 7 + 3) as u8).collect();
        let image = block_image(&contents);
        // Every byte region: contents, type byte, stored-CRC field.
        for pos in [
            0,
            1,
            700,
            contents.len() - 1,
            contents.len(),
            image.len() - 4,
            image.len() - 1,
        ] {
            for bit in [0u8, 3, 7] {
                let mut damaged = image.clone();
                damaged[pos] ^= 1 << bit;
                assert!(verify_block(&damaged).is_err(), "flip at {pos} undetected");
                let fixed = correct_single_bit(&damaged)
                    .unwrap_or_else(|| panic!("flip at byte {pos} bit {bit} not corrected"));
                assert_eq!(fixed, image);
            }
        }
    }

    #[test]
    fn corrector_rejects_double_flips() {
        let contents: Vec<u8> = (0..900u32).map(|i| (i * 13 + 1) as u8).collect();
        let image = block_image(&contents);
        let mut damaged = image.clone();
        damaged[10] ^= 1;
        damaged[500] ^= 1;
        assert!(correct_single_bit(&damaged).is_none());
        // An undamaged image passes through unchanged.
        assert_eq!(correct_single_bit(&image), Some(image));
    }

    /// Per-step byte budget of the full passes below.
    const STEP_BYTES: u64 = 8 << 20;

    fn open_db() -> DbCore {
        let cap = 1024 * MB;
        let disk = Disk::new(
            cap,
            Layout::RawHmSmr {
                guard_bytes: 64 << 10,
            },
            TimeModel::hdd_st1000dm003(cap),
        );
        let mut opts = Options::scaled(64 << 10);
        opts.wal_buffer_bytes = 0;
        let alloc = DynamicBandAlloc::new(cap - opts.log_zone_bytes(), 64 << 10, 64 << 10);
        DbCore::open(disk, opts, Box::new(PerFilePolicy::new(Box::new(alloc)))).unwrap()
    }

    fn kv(i: u64) -> (Vec<u8>, Vec<u8>) {
        (
            format!("key{i:012}").into_bytes(),
            format!("value-{i:06}-{}", "x".repeat(100)).into_bytes(),
        )
    }

    /// Loads `n` records and flushes them into L0 tables.
    fn loaded_db(n: u64) -> DbCore {
        let mut db = open_db();
        for i in 0..n {
            let (k, v) = kv(i);
            db.put(&k, &v).unwrap();
        }
        db.flush_memtable().unwrap();
        db
    }

    fn first_file(db: &DbCore) -> (usize, FileMetaHandle) {
        let v = db.current_version();
        for (level, files) in v.files.iter().enumerate() {
            if let Some(f) = files.first() {
                return (level, f.clone());
            }
        }
        panic!("no files in version");
    }

    #[test]
    fn clean_store_scrubs_to_a_clean_report() {
        let mut db = loaded_db(200);
        let report = db.scrub_full(STEP_BYTES).unwrap();
        assert!(report.files_scanned >= 1);
        assert!(report.blocks_verified >= 1);
        assert_eq!(report.blocks_corrupt, 0);
        assert_eq!(report.files_repaired, 0);
        assert_eq!(report.files_quarantined, 0);
        assert_eq!(report.full_passes, 1);
    }

    #[test]
    fn scrub_repairs_single_bit_corruption_with_zero_loss() {
        let mut db = loaded_db(200);
        let (_, f) = first_file(&db);
        let ext = db.ctx().lock().fs.file_extent(f.id).unwrap();
        // A small latent-error region inside the first data block: every
        // read through it comes back with exactly one flipped bit.
        db.ctx()
            .lock()
            .fs
            .disk_mut()
            .faults_mut()
            .corrupt_extent(Extent::new(ext.offset + 100, 64));
        let (k0, _) = kv(0);
        assert!(db.get(&k0).is_err(), "corruption must be detected");
        let report = db.scrub_full(STEP_BYTES).unwrap();
        assert!(report.blocks_corrupt >= 1);
        assert!(report.blocks_corrected >= 1);
        assert_eq!(report.blocks_lost, 0);
        assert_eq!(report.files_repaired, 1);
        assert_eq!(report.files_quarantined, 0);
        assert!(report.bytes_fenced > 0, "damaged extent must be fenced");
        assert!(db.policy().allocator().quarantined_bytes() > 0);
        // Zero keys lost: every record reads back correct.
        for i in 0..200 {
            let (k, v) = kv(i);
            assert_eq!(db.get(&k).unwrap(), Some(v), "key {i} after repair");
        }
        // The repaired file no longer overlaps the fenced region.
        let (_, nf) = first_file(&db);
        assert_ne!(nf.id, f.id, "repair swaps in a new file");
        let next = db.ctx().lock().fs.file_extent(nf.id).unwrap();
        assert!(
            next.end() <= ext.offset + 100 || next.offset >= ext.offset + 164,
            "rebuilt file must avoid the bad region"
        );
    }

    #[test]
    fn rebuilt_level0_table_stays_behind_newer_ones() {
        // Two level-0 tables: the older holds v1 of every key, the newer
        // overwrites them with v2.
        let mut db = open_db();
        for i in 0..50 {
            db.put(&kv(i).0, b"v1").unwrap();
        }
        db.flush_memtable().unwrap();
        for i in 0..50 {
            db.put(&kv(i).0, b"v2").unwrap();
        }
        db.flush_memtable().unwrap();
        let (newer, older) = {
            let v = db.current_version();
            assert_eq!(v.files[0].len(), 2, "test needs two level-0 tables");
            (v.files[0][0].clone(), v.files[0][1].clone())
        };
        let ext = db.ctx().lock().fs.file_extent(older.id).unwrap();
        db.ctx()
            .lock()
            .fs
            .disk_mut()
            .faults_mut()
            .corrupt_extent(Extent::new(ext.offset + 100, 16));
        let report = db.scrub_full(STEP_BYTES).unwrap();
        assert_eq!(report.files_repaired, 1);
        let v = db.current_version();
        let rebuilt = &v.files[0][1];
        assert_eq!(v.files[0][0].id, newer.id);
        assert!(rebuilt.id > newer.id, "the rebuild takes a fresh id");
        assert_eq!(rebuilt.order, older.order, "the rebuild keeps the age");
        // The repaired older table must not shadow the newer one...
        for i in 0..50 {
            assert_eq!(db.get(&kv(i).0).unwrap(), Some(b"v2".to_vec()), "key {i}");
        }
        // ...and the order key survives a reopen through the manifest.
        db.ctx()
            .lock()
            .fs
            .disk_mut()
            .faults_mut()
            .clear_corruption();
        let mut db = db.reopen().unwrap();
        for i in 0..50 {
            assert_eq!(db.get(&kv(i).0).unwrap(), Some(b"v2".to_vec()), "key {i}");
        }
    }

    #[test]
    fn uncorrectable_block_drops_only_its_keys() {
        let mut db = loaded_db(400);
        // Corrupt the largest table so the fault region stays inside the
        // file: a region that bleeds past the file's end would only be
        // discovered (and fenced) once a later allocation lands on it.
        let f = {
            let v = db.current_version();
            v.files[0]
                .iter()
                .max_by_key(|f| f.size)
                .expect("no L0 files")
                .clone()
        };
        let ext = db.ctx().lock().fs.file_extent(f.id).unwrap();
        assert!(ext.len > 2 * 8192, "test needs a multi-block file");
        // A region wider than a block forces 2+ flips per block read —
        // beyond single-bit correction, so the block is lost.
        db.ctx()
            .lock()
            .fs
            .disk_mut()
            .faults_mut()
            .corrupt_extent(Extent::new(ext.offset, 8192));
        let report = db.scrub_full(STEP_BYTES).unwrap();
        assert!(report.blocks_lost >= 1);
        assert_eq!(report.files_repaired, 1);
        // Keys from lost blocks read as misses (no error); later keys
        // (deeper in the file, past the damage) survive.
        let mut lost = 0u64;
        let mut kept = 0u64;
        for i in 0..400 {
            let (k, v) = kv(i);
            match db.get(&k).unwrap() {
                Some(got) => {
                    assert_eq!(got, v);
                    kept += 1;
                }
                None => lost += 1,
            }
        }
        assert!(lost > 0, "an uncorrectable block loses its keys");
        assert!(kept > 0, "keys outside the damage survive");
    }

    #[test]
    fn unreadable_metadata_quarantines_the_file() {
        let mut db = loaded_db(200);
        let (_, f) = first_file(&db);
        let ext = db.ctx().lock().fs.file_extent(f.id).unwrap();
        // The whole file sits on a failed region: even the footer read
        // errors, so nothing can be salvaged.
        db.ctx()
            .lock()
            .fs
            .disk_mut()
            .faults_mut()
            .fail_reads_permanently(ext);
        assert!(db.get(&kv(0).0).is_err());
        let report = db.scrub_full(STEP_BYTES).unwrap();
        assert_eq!(report.files_quarantined, 1);
        assert_eq!(report.files_repaired, 0);
        assert!(report.bytes_fenced > 0);
        // The version no longer references the file: reads are misses,
        // not errors.
        assert_eq!(db.get(&kv(0).0).unwrap(), None);
    }

    #[test]
    fn failed_band_is_fenced_wholesale() {
        let mut db = loaded_db(200);
        let (_, f) = first_file(&db);
        let ext = db.ctx().lock().fs.file_extent(f.id).unwrap();
        let band = Extent::new(ext.offset, 4 * MB);
        db.ctx().lock().fs.disk_mut().faults_mut().fail_band(band);
        let report = db.scrub_full(STEP_BYTES).unwrap();
        assert!(report.bytes_fenced >= 4 * MB);
        assert!(db.policy().allocator().quarantined_bytes() >= 4 * MB);
        assert_eq!(report.files_quarantined, 1);
    }

    #[test]
    fn scrub_budget_bounds_each_step() {
        let mut db = loaded_db(2000);
        // A 1-byte budget still finishes the file it started, but picks
        // up exactly one file per step.
        let step = db.scrub_step(1).unwrap();
        assert_eq!(step.files_scanned, 1);
        assert_eq!(step.full_passes, 0);
        let total = db.scrub_full(1).unwrap();
        assert!(total.full_passes == 1);
        let files = db
            .current_version()
            .files
            .iter()
            .map(|l| l.len() as u64)
            .sum::<u64>();
        assert_eq!(step.files_scanned + total.files_scanned, files);
    }

    #[test]
    fn scrub_is_deterministic() {
        let run = || {
            let mut db = loaded_db(300);
            let (_, f) = first_file(&db);
            let ext = db.ctx().lock().fs.file_extent(f.id).unwrap();
            db.ctx()
                .lock()
                .fs
                .disk_mut()
                .faults_mut()
                .corrupt_extent(Extent::new(ext.offset + 4200, 32));
            let report = db.scrub_full(STEP_BYTES).unwrap();
            (report, db.clock_ns())
        };
        let (r1, c1) = run();
        let (r2, c2) = run();
        assert_eq!(r1, r2);
        assert_eq!(c1, c2);
    }
}
