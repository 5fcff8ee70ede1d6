//! The version set: owns the current [`Version`], the manifest log, the
//! file-id / sequence counters and compaction picking (size-triggered,
//! round-robin victims via compaction pointers — LevelDB's policy — with
//! an optional victim-priority hook that SEALDB uses to prefer victims
//! whose sets contain the most invalidated SSTables, §III-C *Delete*).

use crate::error::{corruption, Result};
use crate::filestore::FileStore;
use crate::types::{user_key, FileId, SequenceNumber};
use crate::version::edit::{FileMetaHandle, VersionEdit};
use crate::version::version::Version;
use crate::wal::{LogReader, LogWriter};
use smr_sim::IoKind;
use std::sync::Arc;

/// Reserved log id for the manifest.
pub(crate) const MANIFEST_LOG_ID: FileId = 1;

/// Victim-priority hook: scores a compaction candidate given the
/// next-level files its compaction would consume (SEALDB's set hook).
type VictimPriority<'a> = &'a dyn Fn(&[FileMetaHandle]) -> u64;

/// Outcome of a manifest recovery: how much of the log was intact and
/// how many trailing records were abandoned as corrupt or half-written.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ManifestRecovery {
    /// Version edits decoded and applied.
    pub(crate) edits_applied: u64,
    /// Records dropped after the first corrupt one (the recovery falls
    /// back to the last consistent version).
    pub(crate) records_dropped: u64,
}
/// Reserved log id for the (optional) filesystem-metadata journal.
pub const FSMETA_LOG_ID: FileId = 0;
/// First id handed out for WALs and tables.
const FIRST_FILE_ID: FileId = 10;

/// Level sizing/trigger parameters (a subset of the DB options).
#[derive(Clone, Copy, Debug)]
pub(crate) struct LevelParams {
    /// Number of levels (LevelDB: 7).
    pub(crate) num_levels: usize,
    /// L0 file-count compaction trigger (LevelDB: 4).
    pub(crate) l0_trigger: usize,
    /// Byte limit of L1; level `i` allows `base * multiplier^(i-1)`.
    pub(crate) base_bytes: u64,
    /// The paper's amplification factor AF (10).
    pub(crate) multiplier: u64,
}

impl LevelParams {
    /// Byte limit for a level (level >= 1).
    fn max_bytes(&self, level: usize) -> u64 {
        debug_assert!(level >= 1);
        let mut b = self.base_bytes;
        for _ in 1..level {
            b = b.saturating_mul(self.multiplier);
        }
        b
    }
}

/// A picked compaction: the victim file(s) in `level` plus the overlapped
/// files in `level + 1` — the paper's *compaction unit* (victim + set).
#[derive(Clone, Debug)]
pub struct Compaction {
    /// Input level.
    pub(crate) level: usize,
    /// `inputs[0]` = victims in `level`, `inputs[1]` = overlapped set in
    /// `level + 1`.
    pub(crate) inputs: [Vec<FileMetaHandle>; 2],
    /// Files in `level + 2` overlapping the output range, used to bound
    /// output file key ranges.
    pub(crate) grandparents: Vec<FileMetaHandle>,
}

impl Compaction {
    /// Total number of input files.
    pub(crate) fn num_input_files(&self) -> usize {
        self.inputs[0].len() + self.inputs[1].len()
    }
}

/// Owns versions, counters and the manifest.
#[derive(Debug)]
pub(crate) struct VersionSet {
    params: LevelParams,
    current: Arc<Version>,
    next_file: FileId,
    last_sequence: SequenceNumber,
    log_number: FileId,
    compact_pointer: Vec<Vec<u8>>,
    manifest: LogWriter,
    /// Latest auxiliary subsystem blob seen in an edit (see
    /// [`VersionEdit::aux`]); re-emitted on manifest compaction so the
    /// rewrite never loses checkpointed subsystem state.
    aux: Option<Vec<u8>>,
}

impl VersionSet {
    /// Creates a fresh, empty version set (no manifest I/O yet; call
    /// [`VersionSet::create`] or [`VersionSet::recover`]).
    pub(crate) fn new(params: LevelParams) -> Self {
        VersionSet {
            current: Arc::new(Version::empty(params.num_levels)),
            compact_pointer: vec![Vec::new(); params.num_levels],
            params,
            next_file: FIRST_FILE_ID,
            last_sequence: 0,
            log_number: 0,
            manifest: LogWriter::new(),
            aux: None,
        }
    }

    /// Initialises the manifest log for a brand-new database.
    pub(crate) fn create(&mut self, fs: &mut FileStore) -> Result<()> {
        fs.create_log(MANIFEST_LOG_ID)?;
        let edit = VersionEdit {
            next_file: Some(self.next_file),
            last_sequence: Some(self.last_sequence),
            log_number: Some(self.log_number),
            ..Default::default()
        };
        self.manifest.add_record(&edit.encode());
        let bytes = self.manifest.take();
        fs.log_append(MANIFEST_LOG_ID, &bytes, IoKind::Meta)?;
        Ok(())
    }

    /// Rebuilds state from an existing manifest log.
    ///
    /// A corrupt or half-written record aborts the scan: the edits after
    /// it may depend on it, so recovery falls back to the last consistent
    /// version (safe because `VersionSet::log_and_apply` stamps the
    /// counters into every record — any intact prefix carries a complete
    /// `next_file` / `last_sequence` / `log_number`). Only a manifest
    /// with no intact edit at all is an error.
    pub(crate) fn recover(&mut self, fs: &mut FileStore) -> Result<ManifestRecovery> {
        if !fs.has_log(MANIFEST_LOG_ID) {
            return corruption(format!(
                "missing manifest log (expected log id {MANIFEST_LOG_ID})"
            ));
        }
        let data = fs.log_read_all(MANIFEST_LOG_ID, IoKind::Meta)?;
        let mut reader = LogReader::new(&data);
        let mut version = Version::empty(self.params.num_levels);
        let mut report = ManifestRecovery::default();
        while let Some(rec) = reader.next_record() {
            let decoded = match rec {
                Ok(bytes) => VersionEdit::decode(&bytes),
                Err(e) => {
                    fs.disk_mut().stats_mut().faults.checksum_failures += 1;
                    Err(e)
                }
            };
            let Ok(edit) = decoded else {
                report.records_dropped += 1;
                while reader.next_record().is_some() {
                    report.records_dropped += 1;
                }
                break;
            };
            Self::apply_edit(&mut version, &edit);
            if let Some(v) = edit.next_file {
                self.next_file = v;
            }
            if let Some(v) = edit.last_sequence {
                self.last_sequence = v;
            }
            if let Some(v) = edit.log_number {
                self.log_number = v;
            }
            for (level, key) in edit.compact_pointers {
                self.compact_pointer[level] = key;
            }
            if let Some(blob) = edit.aux {
                self.aux = Some(blob);
            }
            report.edits_applied += 1;
        }
        if report.edits_applied == 0 && !data.is_empty() {
            return corruption(format!(
                "manifest log {MANIFEST_LOG_ID} contains no intact edits ({} bytes, {} record(s) dropped)",
                data.len(),
                report.records_dropped
            ));
        }
        version
            .check_invariants()
            .map_err(crate::error::Error::Corruption)?;
        self.current = Arc::new(version);
        Ok(report)
    }

    fn apply_edit(version: &mut Version, edit: &VersionEdit) {
        for (level, id) in &edit.deleted {
            version.files[*level].retain(|f| f.id != *id);
        }
        for (level, meta) in &edit.added {
            version.files[*level].push(Arc::new(meta.clone()));
        }
        // Restore ordering invariants.
        version.files[0].sort_by_key(|f| std::cmp::Reverse(f.order));
        for level in 1..version.files.len() {
            version.files[level].sort_by(|a, b| a.smallest.cmp(&b.smallest).then(a.id.cmp(&b.id)));
        }
    }

    /// Applies an edit to produce the next version and logs it to the
    /// manifest. Counter fields are stamped automatically.
    pub(crate) fn log_and_apply(
        &mut self,
        fs: &mut FileStore,
        mut edit: VersionEdit,
    ) -> Result<()> {
        edit.next_file = Some(self.next_file);
        edit.last_sequence = Some(self.last_sequence);
        edit.log_number = Some(self.log_number);
        let mut version = (*self.current).clone();
        Self::apply_edit(&mut version, &edit);
        for (level, key) in &edit.compact_pointers {
            self.compact_pointer[*level] = key.clone();
        }
        if let Some(blob) = &edit.aux {
            self.aux = Some(blob.clone());
        }
        debug_assert_eq!(version.check_invariants(), Ok(()));
        self.manifest.add_record(&edit.encode());
        let bytes = self.manifest.take();
        fs.log_append(MANIFEST_LOG_ID, &bytes, IoKind::Meta)?;
        self.current = Arc::new(version);
        Ok(())
    }

    /// Rewrites the manifest as a single snapshot record when it has
    /// grown past `limit` bytes (LevelDB rewrites its MANIFEST on reopen;
    /// this engine does it online since instances are long-lived).
    /// Returns whether a rewrite happened.
    pub(crate) fn maybe_compact_manifest(
        &mut self,
        fs: &mut FileStore,
        limit: u64,
    ) -> Result<bool> {
        if fs.log_len(MANIFEST_LOG_ID)? <= limit {
            return Ok(false);
        }
        fs.delete_log(MANIFEST_LOG_ID)?;
        fs.create_log(MANIFEST_LOG_ID)?;
        let mut edit = VersionEdit {
            log_number: Some(self.log_number),
            next_file: Some(self.next_file),
            last_sequence: Some(self.last_sequence),
            ..Default::default()
        };
        for (level, key) in self.compact_pointer.iter().enumerate() {
            if !key.is_empty() {
                edit.compact_pointers.push((level, key.clone()));
            }
        }
        for (level, files) in self.current.files.iter().enumerate() {
            for f in files {
                edit.add_file(level, (**f).clone());
            }
        }
        edit.aux = self.aux.clone();
        self.manifest = LogWriter::new();
        self.manifest.add_record(&edit.encode());
        let bytes = self.manifest.take();
        fs.log_append(MANIFEST_LOG_ID, &bytes, IoKind::Meta)?;
        Ok(true)
    }

    /// The current version.
    pub(crate) fn current(&self) -> Arc<Version> {
        Arc::clone(&self.current)
    }

    /// Allocates a fresh file id.
    pub(crate) fn new_file_id(&mut self) -> FileId {
        let id = self.next_file;
        self.next_file += 1;
        id
    }

    /// Last sequence number issued.
    pub(crate) fn last_sequence(&self) -> SequenceNumber {
        self.last_sequence
    }

    /// Advances the last sequence number.
    pub(crate) fn set_last_sequence(&mut self, seq: SequenceNumber) {
        debug_assert!(seq >= self.last_sequence);
        self.last_sequence = seq;
    }

    /// The WAL id whose writes are reflected in the current version.
    pub(crate) fn log_number(&self) -> FileId {
        self.log_number
    }

    /// Records the active WAL id.
    pub(crate) fn set_log_number(&mut self, id: FileId) {
        self.log_number = id;
    }

    /// Latest auxiliary subsystem blob recovered from or logged to the
    /// manifest (see [`VersionEdit::aux`]). `None` when no subsystem has
    /// ever checkpointed.
    pub(crate) fn aux(&self) -> Option<&[u8]> {
        self.aux.as_deref()
    }

    /// The level most in need of compaction and its score (>= 1.0 means
    /// a compaction is due).
    pub(crate) fn compaction_score(&self) -> (usize, f64) {
        let v = &self.current;
        let mut best = (
            0usize,
            v.level_file_count(0) as f64 / self.params.l0_trigger as f64,
        );
        for level in 1..self.params.num_levels - 1 {
            let score = v.level_bytes(level) as f64 / self.params.max_bytes(level) as f64;
            if score > best.1 {
                best = (level, score);
            }
        }
        best
    }

    /// Picks the next compaction, or `None` when nothing is due.
    ///
    /// `priority` (the SEALDB hook) scores a victim candidate given the
    /// next-level files its compaction would consume; the candidate with
    /// the highest non-zero score wins, otherwise the round-robin
    /// compaction pointer decides (LevelDB's policy).
    pub(crate) fn pick_compaction(
        &self,
        priority: Option<VictimPriority<'_>>,
    ) -> Option<Compaction> {
        let (level, score) = self.compaction_score();
        if score < 1.0 {
            return None;
        }
        let v = &self.current;
        let inputs0: Vec<FileMetaHandle> = if level == 0 {
            // Seed with the oldest flush and pull in transitive overlaps.
            let seed = v.files[0].iter().min_by_key(|f| f.order)?.clone();
            v.overlapping_files(0, user_key(&seed.smallest), user_key(&seed.largest))
        } else {
            let files = &v.files[level];
            debug_assert!(!files.is_empty());
            let chosen = self
                .pick_victim_by_priority(level, files, priority)
                .unwrap_or_else(|| self.pick_victim_round_robin(level, files));
            vec![files[chosen].clone()]
        };
        if inputs0.is_empty() {
            return None;
        }
        let (lo, hi) = range_of(&inputs0);
        let inputs1 = if level + 1 < self.params.num_levels {
            v.overlapping_files(level + 1, &lo, &hi)
        } else {
            Vec::new()
        };
        let grandparents = if level + 2 < self.params.num_levels {
            let mut all = inputs0.clone();
            all.extend(inputs1.iter().cloned());
            let (glo, ghi) = range_of(&all);
            v.overlapping_files(level + 2, &glo, &ghi)
        } else {
            Vec::new()
        };
        Some(Compaction {
            level,
            inputs: [inputs0, inputs1],
            grandparents,
        })
    }

    fn pick_victim_by_priority(
        &self,
        level: usize,
        files: &[FileMetaHandle],
        priority: Option<VictimPriority<'_>>,
    ) -> Option<usize> {
        let priority = priority?;
        if level + 1 >= self.params.num_levels {
            return None;
        }
        let mut best: Option<(usize, u64)> = None;
        for (i, f) in files.iter().enumerate() {
            let overlapped = self.current.overlapping_files(
                level + 1,
                user_key(&f.smallest),
                user_key(&f.largest),
            );
            let score = priority(&overlapped);
            if score > 0 && best.is_none_or(|(_, s)| score > s) {
                best = Some((i, score));
            }
        }
        best.map(|(i, _)| i)
    }

    fn pick_victim_round_robin(&self, level: usize, files: &[FileMetaHandle]) -> usize {
        let ptr = &self.compact_pointer[level];
        if ptr.is_empty() {
            return 0;
        }
        files
            .iter()
            .position(|f| {
                crate::types::internal_compare(&f.largest, ptr) == std::cmp::Ordering::Greater
            })
            .unwrap_or(0)
    }
}

fn range_of(files: &[FileMetaHandle]) -> (Vec<u8>, Vec<u8>) {
    let mut lo = user_key(&files[0].smallest).to_vec();
    let mut hi = user_key(&files[0].largest).to_vec();
    for f in &files[1..] {
        if user_key(&f.smallest) < lo.as_slice() {
            lo = user_key(&f.smallest).to_vec();
        }
        if user_key(&f.largest) > hi.as_slice() {
            hi = user_key(&f.largest).to_vec();
        }
    }
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{make_internal_key, ValueType};
    use crate::version::edit::FileMetaData;
    use smr_sim::{Disk, Layout, TimeModel};

    const MB: u64 = 1 << 20;

    fn params() -> LevelParams {
        LevelParams {
            num_levels: 7,
            l0_trigger: 4,
            base_bytes: 10 * MB,
            multiplier: 10,
        }
    }

    fn fs() -> FileStore {
        let cap = 256 * MB;
        let disk = Disk::new(cap, Layout::Hdd, TimeModel::hdd_st1000dm003(cap));
        FileStore::new(disk, 16 * MB)
    }

    fn meta(id: u64, lo: &str, hi: &str, size: u64) -> FileMetaData {
        FileMetaData {
            id,
            size,
            smallest: make_internal_key(lo.as_bytes(), 100, ValueType::Value),
            largest: make_internal_key(hi.as_bytes(), 1, ValueType::Value),
            set_id: 0,
            order: id,
        }
    }

    #[test]
    fn max_bytes_grows_by_multiplier() {
        let p = params();
        assert_eq!(p.max_bytes(1), 10 * MB);
        assert_eq!(p.max_bytes(2), 100 * MB);
        assert_eq!(p.max_bytes(3), 1000 * MB);
    }

    #[test]
    fn create_apply_recover_roundtrip() {
        let mut store = fs();
        let mut vs = VersionSet::new(params());
        vs.create(&mut store).unwrap();
        let id = vs.new_file_id();
        vs.set_last_sequence(999);
        let mut edit = VersionEdit::default();
        edit.add_file(1, meta(id, "a", "m", 5 * MB));
        vs.log_and_apply(&mut store, edit).unwrap();

        let mut edit2 = VersionEdit::default();
        let id2 = vs.new_file_id();
        edit2.add_file(1, meta(id2, "n", "z", 6 * MB));
        edit2
            .compact_pointers
            .push((1, make_internal_key(b"m", 1, ValueType::Value)));
        vs.log_and_apply(&mut store, edit2).unwrap();

        // Recover into a fresh set.
        let mut vs2 = VersionSet::new(params());
        vs2.recover(&mut store).unwrap();
        assert_eq!(vs2.last_sequence(), 999);
        assert_eq!(vs2.current().level_file_count(1), 2);
        assert_eq!(vs2.current().level_bytes(1), 11 * MB);
        let next = vs2.new_file_id();
        assert!(next > id2);
    }

    #[test]
    fn manifest_compaction_preserves_recovery() {
        let mut store = fs();
        let mut vs = VersionSet::new(params());
        vs.create(&mut store).unwrap();
        // Many edits: add then delete files so the log grows but the
        // live state stays small.
        for _i in 0..200u64 {
            let id = vs.new_file_id();
            let mut e = VersionEdit::default();
            e.add_file(1, meta(id, "a", "m", MB));
            vs.log_and_apply(&mut store, e).unwrap();
            let mut e = VersionEdit::default();
            e.delete_file(1, id);
            vs.log_and_apply(&mut store, e).unwrap();
        }
        let id_keep = vs.new_file_id();
        let mut e = VersionEdit::default();
        e.add_file(2, meta(id_keep, "a", "z", 3 * MB));
        e.compact_pointers
            .push((1, make_internal_key(b"m", 1, ValueType::Value)));
        vs.log_and_apply(&mut store, e).unwrap();
        vs.set_last_sequence(777);

        let before = store.log_len(MANIFEST_LOG_ID).unwrap();
        assert!(vs.maybe_compact_manifest(&mut store, 1024).unwrap());
        let after = store.log_len(MANIFEST_LOG_ID).unwrap();
        assert!(after < before / 4, "manifest shrank: {before} -> {after}");
        // Below the limit: no further rewrite.
        assert!(!vs.maybe_compact_manifest(&mut store, 1 << 20).unwrap());

        let mut vs2 = VersionSet::new(params());
        vs2.recover(&mut store).unwrap();
        assert_eq!(vs2.current().level_file_count(1), 0);
        assert_eq!(vs2.current().level_file_count(2), 1);
        assert_eq!(vs2.current().files[2][0].id, id_keep);
        assert!(vs2.new_file_id() > id_keep);
        // Compact pointer survives the rewrite.
        let mut e = VersionEdit::default();
        e.add_file(1, meta(900, "a", "f", 11 * MB));
        e.add_file(1, meta(901, "g", "p", 11 * MB));
        vs2.log_and_apply(&mut store, e).unwrap();
        let c = vs2.pick_compaction(None).unwrap();
        assert_eq!(c.inputs[0][0].id, 901, "pointer past 'm' picks file 901");
    }

    #[test]
    fn aux_blob_survives_recovery_and_manifest_compaction() {
        let mut store = fs();
        let mut vs = VersionSet::new(params());
        vs.create(&mut store).unwrap();
        assert!(vs.aux().is_none());
        // Two checkpoints: the latest blob wins.
        let e = VersionEdit {
            aux: Some(vec![1, 1, 1]),
            ..VersionEdit::default()
        };
        vs.log_and_apply(&mut store, e).unwrap();
        let e = VersionEdit {
            aux: Some(vec![9, 9]),
            ..VersionEdit::default()
        };
        vs.log_and_apply(&mut store, e).unwrap();
        assert_eq!(vs.aux(), Some(&[9u8, 9][..]));

        let mut vs2 = VersionSet::new(params());
        vs2.recover(&mut store).unwrap();
        assert_eq!(vs2.aux(), Some(&[9u8, 9][..]));

        // A manifest rewrite re-emits the blob in its snapshot record.
        for _ in 0..200u64 {
            let id = vs2.new_file_id();
            let mut e = VersionEdit::default();
            e.add_file(1, meta(id, "a", "m", MB));
            vs2.log_and_apply(&mut store, e).unwrap();
            let mut e = VersionEdit::default();
            e.delete_file(1, id);
            vs2.log_and_apply(&mut store, e).unwrap();
        }
        assert!(vs2.maybe_compact_manifest(&mut store, 1024).unwrap());
        let mut vs3 = VersionSet::new(params());
        vs3.recover(&mut store).unwrap();
        assert_eq!(vs3.aux(), Some(&[9u8, 9][..]));
    }

    #[test]
    fn recover_falls_back_on_corrupt_manifest_tail() {
        let mut store = fs();
        let mut vs = VersionSet::new(params());
        vs.create(&mut store).unwrap();
        let id = vs.new_file_id();
        let mut edit = VersionEdit::default();
        edit.add_file(1, meta(id, "a", "m", MB));
        vs.log_and_apply(&mut store, edit).unwrap();
        // Append a record whose payload was mangled in flight: the CRC
        // check must reject it and recovery must stop there.
        let mut w = LogWriter::new();
        w.add_record(b"half-written version edit");
        let mut bytes = w.take();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        store
            .log_append(MANIFEST_LOG_ID, &bytes, IoKind::Meta)
            .unwrap();

        let mut vs2 = VersionSet::new(params());
        let rep = vs2.recover(&mut store).unwrap();
        assert_eq!(rep.edits_applied, 2, "create + one applied edit");
        assert_eq!(rep.records_dropped, 1);
        // The surviving prefix is the last consistent version.
        assert_eq!(vs2.current().level_file_count(1), 1);
        assert_eq!(vs2.last_sequence(), vs.last_sequence());
        assert!(vs2.new_file_id() > id);
        assert_eq!(store.disk().stats().faults.checksum_failures, 1);
    }

    #[test]
    fn recover_rejects_manifest_with_no_intact_edit() {
        let mut store = fs();
        let mut vs = VersionSet::new(params());
        vs.create(&mut store).unwrap();
        // Corrupt the very first record in place: zero intact edits.
        let data = store.log_read_all(MANIFEST_LOG_ID, IoKind::Meta).unwrap();
        let mut mangled = data.clone();
        let n = mangled.len();
        mangled[n - 1] ^= 0xFF;
        store.delete_log(MANIFEST_LOG_ID).unwrap();
        store.create_log(MANIFEST_LOG_ID).unwrap();
        store
            .log_append(MANIFEST_LOG_ID, &mangled, IoKind::Meta)
            .unwrap();

        let mut vs2 = VersionSet::new(params());
        let err = vs2.recover(&mut store).unwrap_err();
        assert!(matches!(err, crate::error::Error::Corruption(_)), "{err:?}");
    }

    #[test]
    fn deletion_applies() {
        let mut store = fs();
        let mut vs = VersionSet::new(params());
        vs.create(&mut store).unwrap();
        let mut edit = VersionEdit::default();
        edit.add_file(1, meta(20, "a", "m", MB));
        edit.add_file(1, meta(21, "n", "z", MB));
        vs.log_and_apply(&mut store, edit).unwrap();
        let mut edit = VersionEdit::default();
        edit.delete_file(1, 20);
        vs.log_and_apply(&mut store, edit).unwrap();
        assert_eq!(vs.current().level_file_count(1), 1);
        assert_eq!(vs.current().files[1][0].id, 21);
    }

    #[test]
    fn no_compaction_when_small() {
        let mut store = fs();
        let mut vs = VersionSet::new(params());
        vs.create(&mut store).unwrap();
        assert!(vs.pick_compaction(None).is_none());
        let (_, score) = vs.compaction_score();
        assert!(score < 1.0);
    }

    #[test]
    fn l0_trigger_fires_and_gathers_overlaps() {
        let mut store = fs();
        let mut vs = VersionSet::new(params());
        vs.create(&mut store).unwrap();
        let mut edit = VersionEdit::default();
        for i in 0..4 {
            edit.add_file(0, meta(20 + i, "a", "m", MB));
        }
        edit.add_file(1, meta(30, "c", "f", MB));
        edit.add_file(1, meta(31, "x", "z", MB));
        vs.log_and_apply(&mut store, edit).unwrap();
        let c = vs.pick_compaction(None).expect("L0 compaction due");
        assert_eq!(c.level, 0);
        assert_eq!(c.inputs[0].len(), 4);
        // Only the overlapping L1 file joins.
        assert_eq!(c.inputs[1].len(), 1);
        assert_eq!(c.inputs[1][0].id, 30);
        assert_eq!(c.num_input_files(), 5);
        let input_bytes: u64 = c.inputs.iter().flatten().map(|f| f.size).sum();
        assert_eq!(input_bytes, 5 * MB);
    }

    #[test]
    fn size_trigger_with_round_robin_pointer() {
        let mut store = fs();
        let mut vs = VersionSet::new(params());
        vs.create(&mut store).unwrap();
        let mut edit = VersionEdit::default();
        // L1 over its 10 MB budget.
        edit.add_file(1, meta(20, "a", "f", 6 * MB));
        edit.add_file(1, meta(21, "g", "p", 6 * MB));
        edit.add_file(2, meta(30, "a", "e", MB));
        edit.add_file(2, meta(31, "h", "k", MB));
        // Pointer past file 20's largest: the picker must take file 21.
        edit.compact_pointers
            .push((1, make_internal_key(b"f", 0, ValueType::Deletion)));
        vs.log_and_apply(&mut store, edit).unwrap();
        let c = vs.pick_compaction(None).expect("size compaction due");
        assert_eq!(c.level, 1);
        assert_eq!(c.inputs[0].len(), 1);
        assert_eq!(c.inputs[0][0].id, 21);
        assert_eq!(c.inputs[1].len(), 1);
        assert_eq!(c.inputs[1][0].id, 31);
    }

    #[test]
    fn priority_hook_overrides_round_robin() {
        let mut store = fs();
        let mut vs = VersionSet::new(params());
        vs.create(&mut store).unwrap();
        let mut edit = VersionEdit::default();
        edit.add_file(1, meta(20, "a", "f", 6 * MB));
        edit.add_file(1, meta(21, "g", "p", 6 * MB));
        edit.add_file(2, meta(30, "a", "e", MB));
        edit.add_file(2, meta(31, "h", "k", MB));
        vs.log_and_apply(&mut store, edit).unwrap();
        // Score victims by whether their overlapped set contains file 31.
        let prio = |overlapped: &[FileMetaHandle]| -> u64 {
            overlapped.iter().filter(|f| f.id == 31).count() as u64
        };
        let c = vs.pick_compaction(Some(&prio)).unwrap();
        assert_eq!(
            c.inputs[0][0].id, 21,
            "priority picked the set with file 31"
        );
    }
}
