//! Band-aligned key-value separation (WiscKey/HashKV on SMR): keys and
//! fixed-size pointers stay in the LSM tree, large values live in a
//! circular value log whose segments are whole dynamic bands obtained
//! from the placement allocator. Updates to a diverted key rewrite only
//! the pointer, so compaction stops carrying the value payload and the
//! update-driven write amplification collapses.
//!
//! The module owns the *mechanics* — segment directory, record framing,
//! torn-tail recovery, CRC scrub, GC scanning — and stays below the
//! store: every method borrows the [`FileStore`] and
//! [`PlacementPolicy`] for the duration of the call (the store threads
//! them through `DbCore::with_fs_and_policy`). Orchestration that needs
//! LSM reads or writes (liveness checks, pointer fixups, manifest
//! checkpoints) lives in [`crate::store`], keeping this module free of
//! any dependency on the database core's internals.
//!
//! Crash-safety contract:
//! - a durable pointer has durable record bytes: the file store may hold
//!   appends back in memory, but drains them before any write that could
//!   make a pointer durable, so a pointer that survives a crash resolves;
//! - the segment directory is checkpointed through the manifest's
//!   auxiliary blob ([`ValueLog::checkpoint`]); both open heads — the
//!   user head and the GC survivor head — are re-scanned on recovery
//!   and a torn tail is discarded;
//! - GC frees a victim segment only after the pointer fixups for every
//!   relocated record are durable, so no surviving pointer can reference
//!   freed bytes.

// Crash recovery and repair degrade to contextful errors, never panic:
// a panic during reopen turns a recoverable torn tail into an outage.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use lsm_core::util::coding::{get_varint64, put_varint64};
use lsm_core::util::crc32c::crc32c;
use lsm_core::{Error, FileStore, PlacementPolicy, Result, VLOG_FILE_BASE};
use smr_sim::{Extent, IoKind, ObsEventKind, ObsLayer};
use std::collections::{BTreeMap, BTreeSet};

/// Byte tag prefixing an LSM value stored inline (the raw bytes follow).
const INLINE_TAG: u8 = 0;
/// Byte tag prefixing an LSM value that is a value-log pointer.
const POINTER_TAG: u8 = 1;

/// Fixed on-disk size of an encoded pointer: tag + segment + offset + length.
const POINTER_BYTES: usize = 1 + 8 + 8 + 8;

/// Per-record framing overhead: crc32c + key length + value length.
const RECORD_HEADER: u64 = 4 + 4 + 4;

/// Location of one value record inside the log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct VlogPtr {
    /// Segment file id (always `>= VLOG_FILE_BASE`).
    pub(crate) segment: u64,
    /// Record start offset within the segment.
    pub(crate) offset: u64,
    /// Total record length (header + key + value).
    pub(crate) len: u64,
}

/// A decoded LSM value: either the raw bytes or a log pointer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum StoredValue<'a> {
    /// The value itself, stored inline in the LSM.
    Inline(&'a [u8]),
    /// A pointer into the value log.
    Pointer(VlogPtr),
}

/// Encodes a value for inline storage in the LSM.
pub(crate) fn encode_inline(value: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + value.len());
    out.push(INLINE_TAG);
    out.extend_from_slice(value);
    out
}

/// Encodes a value-log pointer for storage in the LSM.
pub(crate) fn encode_pointer(ptr: VlogPtr) -> Vec<u8> {
    let mut out = Vec::with_capacity(POINTER_BYTES);
    out.push(POINTER_TAG);
    out.extend_from_slice(&ptr.segment.to_le_bytes());
    out.extend_from_slice(&ptr.offset.to_le_bytes());
    out.extend_from_slice(&ptr.len.to_le_bytes());
    out
}

/// Decodes an LSM value written by [`encode_inline`] / [`encode_pointer`].
pub(crate) fn decode_stored(stored: &[u8]) -> Result<StoredValue<'_>> {
    match stored.first() {
        Some(&INLINE_TAG) => Ok(StoredValue::Inline(&stored[1..])),
        Some(&POINTER_TAG) if stored.len() == POINTER_BYTES => {
            let u64_at = |i: usize| {
                let mut b = [0u8; 8];
                b.copy_from_slice(&stored[i..i + 8]);
                u64::from_le_bytes(b)
            };
            Ok(StoredValue::Pointer(VlogPtr {
                segment: u64_at(1),
                offset: u64_at(9),
                len: u64_at(17),
            }))
        }
        _ => Err(Error::Corruption(format!(
            "undecodable stored value ({} byte(s), tag {:?})",
            stored.len(),
            stored.first()
        ))),
    }
}

/// Tuning knobs for the value log.
#[derive(Clone, Copy, Debug)]
pub struct VlogParams {
    /// Segment capacity in bytes; sized to a whole SMR band so each
    /// segment occupies exactly one dynamic band.
    pub segment_bytes: u64,
    /// Values of at least this many bytes are diverted to the log;
    /// smaller values stay inline in the LSM.
    pub value_threshold: usize,
}

impl Default for VlogParams {
    fn default() -> Self {
        VlogParams {
            segment_bytes: 16 << 20,
            value_threshold: 512,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Segment {
    ext: Extent,
    used: u64,
    sealed: bool,
}

/// Known-garbage records of one segment, fed by
/// [`ValueLog::note_dead`]. Advisory only: the set is not
/// checkpointed, so a reopen starts empty and the counters rebuild as
/// later overwrites land — GC then falls back to treating every record
/// as potentially live, which is safe (just slower).
#[derive(Clone, Debug, Default)]
struct DeadSet {
    bytes: u64,
    offsets: BTreeSet<u64>,
}

/// Lifetime byte counters for the log (monotonic, survive checkpoints
/// only in spirit — they reset on reopen; the obs layer keeps history).
#[derive(Clone, Copy, Debug, Default)]
pub struct VlogStats {
    /// Record bytes appended on behalf of user writes.
    pub appended_bytes: u64,
    /// Record bytes rewritten by GC relocation.
    pub relocated_bytes: u64,
    /// Segment bytes returned to the allocator by GC or quarantine.
    pub reclaimed_bytes: u64,
    /// Segments retired (GC'd or quarantined).
    pub segments_retired: u64,
}

/// What recovery found and did. All counts are per-reopen.
#[derive(Clone, Copy, Debug, Default)]
pub struct VlogRecoveryReport {
    /// Segments restored from the manifest checkpoint.
    pub segments_recovered: usize,
    /// Bytes discarded from open-head tails (records written but torn
    /// or never acked — their pointers never reached the WAL).
    torn_tail_bytes: u64,
    /// Intact record bytes the rescan found in the survivor head past
    /// the tail its checkpoint recorded: GC relocations written after
    /// the last directory commit.
    pub survivor_tail_bytes: u64,
    /// Segment files on disk that no checkpoint referenced (crash
    /// between allocation and checkpoint commit); returned to the
    /// allocator.
    pub orphan_segments_dropped: usize,
}

/// One record surfaced by a GC or salvage scan.
#[derive(Clone, Debug)]
pub(crate) struct GcEntry {
    /// The user key the record was written under.
    pub(crate) key: Vec<u8>,
    /// Where the record currently lives.
    pub(crate) ptr: VlogPtr,
    /// The value payload.
    pub(crate) value: Vec<u8>,
}

/// Result of one budgeted GC scan step.
#[derive(Clone, Debug)]
pub(crate) struct GcScan {
    /// The victim segment being drained.
    pub(crate) segment: u64,
    /// Records scanned this step, in log order. The caller decides
    /// liveness (current LSM pointer equals `ptr`) and relocates.
    pub(crate) entries: Vec<GcEntry>,
    /// True once the victim is fully scanned; the caller must make its
    /// pointer fixups durable and then call [`ValueLog::retire_segment`].
    pub(crate) finished: bool,
    /// Offset of a record the scan could not frame or checksum. The
    /// victim's scan is abandoned there (framing cannot resync past a
    /// bad record): the caller salvages the segment's readable prefix —
    /// which covers this step's `entries` — and quarantines the band,
    /// exactly as for a segment in [`VlogScrubStep::damaged`].
    pub(crate) damaged: Option<u64>,
}

/// Result of one budgeted scrub step over the log.
#[derive(Clone, Debug, Default)]
pub(crate) struct VlogScrubStep {
    /// Bytes of record data verified this step.
    pub(crate) bytes_scanned: u64,
    /// Records whose CRC checked out.
    pub(crate) records_ok: u64,
    /// Segments in which a CRC mismatch was found. Framing is
    /// unrecoverable past the first bad record, so the whole segment is
    /// reported for salvage + quarantine.
    pub(crate) damaged: Vec<u64>,
}

const CHECKPOINT_VERSION: u8 = 2;

/// Parses a record header into `(key length, framed record length)` —
/// the only reader of the framing bytes.
fn parse_header(header: &[u8]) -> (usize, u64) {
    let le32 = |at: usize| {
        u64::from(u32::from_le_bytes([
            header[at],
            header[at + 1],
            header[at + 2],
            header[at + 3],
        ]))
    };
    let (klen, vlen) = (le32(4), le32(8));
    (klen as usize, RECORD_HEADER + klen + vlen)
}

fn encode_record(key: &[u8], value: &[u8]) -> Vec<u8> {
    let mut body = Vec::with_capacity(8 + key.len() + value.len());
    body.extend_from_slice(&(key.len() as u32).to_le_bytes());
    body.extend_from_slice(&(value.len() as u32).to_le_bytes());
    body.extend_from_slice(key);
    body.extend_from_slice(value);
    let mut rec = Vec::with_capacity(4 + body.len());
    rec.extend_from_slice(&crc32c(&body).to_le_bytes());
    rec.extend_from_slice(&body);
    rec
}

fn decode_record(bytes: &[u8]) -> Result<(Vec<u8>, Vec<u8>)> {
    if bytes.len() < RECORD_HEADER as usize {
        return Err(Error::Corruption(format!(
            "value-log record shorter than its header ({} byte(s))",
            bytes.len()
        )));
    }
    let stored_crc = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    let computed = crc32c(&bytes[4..]);
    if computed != stored_crc {
        return Err(Error::Corruption(format!(
            "value-log record checksum mismatch: stored {stored_crc:#010x}, \
             computed {computed:#010x} over {} body byte(s)",
            bytes.len() - 4
        )));
    }
    let (klen, rec_len) = parse_header(bytes);
    if bytes.len() as u64 != rec_len {
        return Err(Error::Corruption(format!(
            "value-log record length mismatch: header frames {rec_len} byte(s), record has {}",
            bytes.len()
        )));
    }
    let body = &bytes[RECORD_HEADER as usize..];
    Ok((body[..klen].to_vec(), body[klen..].to_vec()))
}

/// The one record walk behind tail recovery, GC, scrub and salvage:
/// frames the records of `segment` in `[from, end)` in log order.
/// `fetch(offset, len)` supplies bytes — a device read, or a slice of a
/// chunk already read — and is asked for each record's header, then for
/// the whole record; `None` is "no bytes there" (on the simulated SMR
/// disk an unwritten tail reads as an error: the clean end of the log).
/// The source holds `[from, avail)`: a record reaching past `avail` ends
/// the walk quietly, where a later walk resumes. Offsets in `dead` are
/// framed from their header alone (no record fetch, no checksum) and
/// visited with no entry; every other record is checksummed and visited
/// decoded. `visit(record length, entry)` answers whether to go on.
/// Returns the offset the walk stopped at and whether it stopped there
/// on a record it could not frame: bytes missing, a length past `end`,
/// or a checksum mismatch.
fn walk_records<B: AsRef<[u8]>>(
    segment: u64,
    (from, avail, end): (u64, u64, u64),
    dead: Option<&BTreeSet<u64>>,
    mut fetch: impl FnMut(u64, u64) -> Option<B>,
    mut visit: impl FnMut(u64, Option<GcEntry>) -> bool,
) -> (u64, bool) {
    let mut offset = from;
    while offset + RECORD_HEADER <= end {
        if offset + RECORD_HEADER > avail {
            return (offset, false);
        }
        let Some(header) = fetch(offset, RECORD_HEADER) else {
            return (offset, true);
        };
        let (_, len) = parse_header(header.as_ref());
        if offset + len > end {
            return (offset, true);
        }
        if offset + len > avail {
            return (offset, false);
        }
        let entry = if dead.is_some_and(|d| d.contains(&offset)) {
            None
        } else {
            let Some(Ok((key, value))) = fetch(offset, len).map(|b| decode_record(b.as_ref()))
            else {
                return (offset, true);
            };
            let ptr = VlogPtr {
                segment,
                offset,
                len,
            };
            Some(GcEntry { key, ptr, value })
        };
        offset += len;
        if !visit(len, entry) {
            return (offset, false);
        }
    }
    (offset, offset < end)
}

/// Where a GC victim's scan stands: the next record starts at `offset`,
/// and `carry` holds its first bytes, the ones the last step's read
/// already brought in. The next step's read starts right after them, so
/// it continues the drive's stream instead of seeking back.
#[derive(Debug)]
struct GcCursor {
    victim: u64,
    offset: u64,
    carry: Vec<u8>,
}

/// `len` bytes at `at` within `chunk`, or `None` past its end.
fn chunk_slice(chunk: &[u8], at: u64, len: u64) -> Option<&[u8]> {
    chunk.get(at as usize..)?.get(..len as usize)
}

/// The value log: a directory of band-sized segments, two open append
/// heads, and cursors for the cooperative GC and scrub walks.
///
/// User values append at the `active` head. GC and salvage relocations
/// append at the `survivor` head, a band of their own: a value that
/// outlived a victim is cold by construction, so mixing it with fresh
/// updates would only carry it into the next victim again (the
/// age-sorting of LFS's and SMORE's cleaners). Neither head is a GC
/// victim until it seals.
#[derive(Debug)]
pub struct ValueLog {
    params: VlogParams,
    segments: BTreeMap<u64, Segment>,
    active: Option<u64>,
    survivor: Option<u64>,
    next_seg: u64,
    gc_cursor: Option<GcCursor>,
    /// The victim whose scan has started and which is not yet retired
    /// or quarantined; it keeps [`ValueLog::gc_due`] true.
    gc_victim: Option<u64>,
    scrub_cursor: Option<(u64, u64)>,
    gc_relocated_from_victim: u64,
    dead: BTreeMap<u64, DeadSet>,
    /// Record bytes in the directory not known dead, and known-dead
    /// bytes; together they are every segment's `used`. Kept running so
    /// [`ValueLog::gc_due`] costs no directory walk.
    live_total: u64,
    dead_total: u64,
    latest: BTreeMap<Vec<u8>, VlogPtr>,
    dead_exact: bool,
    dirty: bool,
    stats: VlogStats,
    recovery: VlogRecoveryReport,
}

impl ValueLog {
    /// Creates an empty log.
    pub fn new(params: VlogParams) -> ValueLog {
        ValueLog {
            params,
            segments: BTreeMap::new(),
            active: None,
            survivor: None,
            next_seg: 0,
            gc_cursor: None,
            gc_victim: None,
            scrub_cursor: None,
            gc_relocated_from_victim: 0,
            dead: BTreeMap::new(),
            live_total: 0,
            dead_total: 0,
            latest: BTreeMap::new(),
            dead_exact: true,
            dirty: false,
            stats: VlogStats::default(),
            recovery: VlogRecoveryReport::default(),
        }
    }

    /// The parameters the log was opened with.
    pub(crate) fn params(&self) -> &VlogParams {
        &self.params
    }

    /// Lifetime byte counters.
    pub fn stats(&self) -> VlogStats {
        self.stats
    }

    /// What the last [`ValueLog::recover`] found (all zero for a log
    /// that was never recovered).
    pub fn recovery_report(&self) -> VlogRecoveryReport {
        self.recovery
    }

    /// Record bytes in the directory not known to be dead: an upper
    /// bound on the live data (exact until a reopen forgets the dead
    /// marks).
    pub(crate) fn live_bytes(&self) -> u64 {
        self.live_total
    }

    /// Record bytes in the directory known to be dead, the open heads'
    /// included.
    pub(crate) fn dead_bytes(&self) -> u64 {
        self.dead_total
    }

    /// Number of segments currently in the directory.
    pub(crate) fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Ids of every segment in the directory, ascending (used to seed
    /// the debug-build ordering auditor after recovery).
    pub fn segment_ids(&self) -> Vec<u64> {
        self.segments.keys().copied().collect()
    }

    /// True when a value of this size should be diverted to the log.
    pub(crate) fn should_divert(&self, value_len: usize) -> bool {
        value_len >= self.params.value_threshold
    }

    /// True when directory state changed since the last
    /// [`ValueLog::checkpoint`] call — the store must commit a fresh
    /// checkpoint through the manifest before acking dependent writes.
    pub(crate) fn take_dirty(&mut self) -> bool {
        std::mem::take(&mut self.dirty)
    }

    /// The head an append of `kind` writes at: GC relocations at the
    /// survivor head, everything else at the user head.
    fn head(&mut self, kind: IoKind) -> &mut Option<u64> {
        match kind {
            IoKind::VlogGc => &mut self.survivor,
            _ => &mut self.active,
        }
    }

    /// Closes whichever head `id` is.
    fn clear_head(&mut self, id: u64) {
        for head in [&mut self.active, &mut self.survivor] {
            if *head == Some(id) {
                *head = None;
            }
        }
    }

    fn open_segment(
        &mut self,
        fs: &mut FileStore,
        policy: &mut dyn PlacementPolicy,
        kind: IoKind,
    ) -> Result<u64> {
        let id = VLOG_FILE_BASE + self.next_seg;
        self.next_seg += 1;
        let ext = policy.place_vlog_segment(fs, id, self.params.segment_bytes)?;
        self.segments.insert(
            id,
            Segment {
                ext,
                used: 0,
                sealed: false,
            },
        );
        *self.head(kind) = Some(id);
        self.dirty = true;
        fs.disk_mut().obs_event(
            ObsLayer::ValueLog,
            ObsEventKind::VlogSegmentOpen,
            id,
            ext.len,
        );
        Ok(id)
    }

    /// Seals a segment so no further appends land in it: when it is
    /// full, and before salvaging a damaged open head — relocation must
    /// not write into the band about to be quarantined.
    pub(crate) fn seal(&mut self, fs: &mut FileStore, id: u64) {
        if let Some(seg) = self.segments.get_mut(&id) {
            seg.sealed = true;
            let used = seg.used;
            self.clear_head(id);
            self.dirty = true;
            fs.disk_mut()
                .obs_event(ObsLayer::ValueLog, ObsEventKind::VlogSegmentSeal, id, used);
        }
    }

    fn append_record(
        &mut self,
        fs: &mut FileStore,
        policy: &mut dyn PlacementPolicy,
        key: &[u8],
        value: &[u8],
        kind: IoKind,
    ) -> Result<VlogPtr> {
        let rec = encode_record(key, value);
        let rec_len = rec.len() as u64;
        if rec_len > self.params.segment_bytes {
            return Err(Error::InvalidArgument(format!(
                "value-log record of {rec_len} bytes exceeds the {}-byte segment capacity",
                self.params.segment_bytes
            )));
        }
        // Seal the head when the record does not fit, then open a fresh
        // band.
        if let Some(id) = *self.head(kind) {
            let seg = self.segments[&id];
            // Writable capacity is `segment_bytes` even when the policy
            // over-allocated the extent: on raw HM-SMR the surplus is
            // the guard slack absorbing this append's shingle-damage
            // window, and must stay unwritten.
            if seg.used + rec_len > self.params.segment_bytes.min(seg.ext.len) {
                self.seal(fs, id);
            }
        }
        let id = match *self.head(kind) {
            Some(id) => id,
            None => self.open_segment(fs, policy, kind)?,
        };
        let offset = self.segments[&id].used;
        if let Err(e) = fs.write_file_range(id, offset, &rec, kind) {
            // The band's device tail is unknown now (a torn write, or
            // held appends that could not drain): later records go to a
            // fresh band.
            self.seal(fs, id);
            return Err(e);
        }
        if let Some(seg) = self.segments.get_mut(&id) {
            seg.used += rec_len;
        }
        self.live_total += rec_len;
        let counter = match kind {
            IoKind::VlogGc => {
                self.stats.relocated_bytes += rec_len;
                "relocated_bytes"
            }
            _ => {
                self.stats.appended_bytes += rec_len;
                "appended_bytes"
            }
        };
        fs.disk_mut()
            .obs_mut()
            .counter_add(ObsLayer::ValueLog, counter, rec_len);
        let ptr = VlogPtr {
            segment: id,
            offset,
            len: rec_len,
        };
        // Exact garbage accounting: this record supersedes the key's
        // previous log copy (an overwrite, or the old address of a GC
        // relocation), so that copy is now dead. The in-memory pointer
        // index is the HashKV per-group-metadata analogue — it costs no
        // I/O, unlike resolving the old pointer through the LSM.
        if let Some(prev) = self.latest.insert(key.to_vec(), ptr) {
            self.note_dead(prev);
        }
        Ok(ptr)
    }

    /// Appends a user value at the log's user head. The record reaches
    /// the device no later than any write that could make its pointer
    /// durable (the file store holds appends back only until then), so
    /// the caller may commit the pointer through the WAL.
    pub(crate) fn append(
        &mut self,
        fs: &mut FileStore,
        policy: &mut dyn PlacementPolicy,
        key: &[u8],
        value: &[u8],
    ) -> Result<VlogPtr> {
        self.append_record(fs, policy, key, value, IoKind::VlogAppend)
    }

    /// Rewrites a live record during GC or salvage at the survivor head,
    /// never at the user head: survivors are cold, so they fill bands
    /// of their own that later victims seldom pick.
    pub(crate) fn relocate(
        &mut self,
        fs: &mut FileStore,
        policy: &mut dyn PlacementPolicy,
        key: &[u8],
        value: &[u8],
    ) -> Result<VlogPtr> {
        let ptr = self.append_record(fs, policy, key, value, IoKind::VlogGc)?;
        self.gc_relocated_from_victim += ptr.len;
        Ok(ptr)
    }

    /// Resolves a pointer, verifying the record checksum and that the
    /// record was written under `expected_key`. A pointer into a freed
    /// or quarantined segment fails (the read surfaces the store's
    /// degraded path), never returns stale bytes.
    pub(crate) fn read(
        &self,
        fs: &mut FileStore,
        ptr: VlogPtr,
        expected_key: &[u8],
    ) -> Result<Vec<u8>> {
        let seg = self.segments.get(&ptr.segment).ok_or_else(|| {
            Error::Corruption(format!(
                "value-log pointer references unknown segment {}",
                ptr.segment
            ))
        })?;
        if ptr.offset + ptr.len > seg.used {
            return Err(Error::Corruption(format!(
                "value-log pointer {}+{} past segment {} tail at {}",
                ptr.offset, ptr.len, ptr.segment, seg.used
            )));
        }
        let bytes = fs.read_file(ptr.segment, ptr.offset, ptr.len, IoKind::Get)?;
        let (key, value) = decode_record(&bytes)?;
        if key != expected_key {
            return Err(Error::Corruption(format!(
                "value-log record key mismatch at segment {} offset {}",
                ptr.segment, ptr.offset
            )));
        }
        Ok(value)
    }

    // ----- checkpoint + recovery -----

    /// Serialises the segment directory for the manifest's auxiliary
    /// blob. Cheap and rare: only segment opens/seals/retirements dirty
    /// the directory; record appends do not. The blob names the user
    /// head only: the survivor head is the one unsealed segment the
    /// active slot does not name ([`ValueLog::recover`]).
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut out = vec![CHECKPOINT_VERSION];
        put_varint64(&mut out, self.next_seg);
        // 0 = no active segment; otherwise 1 + segment index.
        let active = self.active.map_or(0, |id| 1 + (id - VLOG_FILE_BASE));
        put_varint64(&mut out, active);
        put_varint64(&mut out, self.segments.len() as u64);
        for (id, seg) in &self.segments {
            put_varint64(&mut out, id - VLOG_FILE_BASE);
            put_varint64(&mut out, seg.ext.offset);
            put_varint64(&mut out, seg.ext.len);
            put_varint64(&mut out, seg.used);
            put_varint64(&mut out, u64::from(seg.sealed));
        }
        out
    }

    fn take_varint(src: &mut &[u8]) -> Result<u64> {
        let (v, n) = get_varint64(src).ok_or_else(|| {
            Error::Corruption(format!(
                "truncated varint in value-log checkpoint with {} byte(s) left",
                src.len()
            ))
        })?;
        *src = &src[n..];
        Ok(v)
    }

    /// Rebuilds the directory from a manifest checkpoint (or from
    /// nothing), re-scans both open heads for their true tails, and
    /// reconciles the segment files on disk against the directory:
    /// checkpointed-but-missing segments are forgotten, on-disk-but-
    /// unreferenced segments (a crash between allocation and checkpoint
    /// commit) are returned to the allocator.
    pub fn recover(
        &mut self,
        fs: &mut FileStore,
        policy: &mut dyn PlacementPolicy,
        blob: Option<&[u8]>,
    ) -> Result<VlogRecoveryReport> {
        let mut report = VlogRecoveryReport::default();
        self.segments.clear();
        self.active = None;
        self.survivor = None;
        self.next_seg = 0;
        self.gc_cursor = None;
        self.gc_victim = None;
        self.scrub_cursor = None;
        self.gc_relocated_from_victim = 0;
        if let Some(mut src) = blob {
            match src.first() {
                Some(&CHECKPOINT_VERSION) => src = &src[1..],
                other => {
                    return Err(Error::Corruption(format!(
                        "unknown value-log checkpoint version {other:?}"
                    )))
                }
            }
            self.next_seg = Self::take_varint(&mut src)?;
            let active_raw = Self::take_varint(&mut src)?;
            let count = Self::take_varint(&mut src)?;
            for _ in 0..count {
                let idx = Self::take_varint(&mut src)?;
                let offset = Self::take_varint(&mut src)?;
                let len = Self::take_varint(&mut src)?;
                let used = Self::take_varint(&mut src)?;
                let sealed = Self::take_varint(&mut src)? != 0;
                self.segments.insert(
                    VLOG_FILE_BASE + idx,
                    Segment {
                        ext: Extent::new(offset, len),
                        used,
                        sealed,
                    },
                );
            }
            if active_raw > 0 {
                let id = VLOG_FILE_BASE + active_raw - 1;
                if !self.segments.contains_key(&id) {
                    return Err(Error::Corruption(format!(
                        "value-log checkpoint names segment {id} active but does not list it"
                    )));
                }
                self.active = Some(id);
            }
            // The blob names the user head only; the survivor head is the
            // one unsealed segment the active slot does not name.
            let mut unnamed = self
                .segments
                .iter()
                .filter(|(id, seg)| !seg.sealed && self.active != Some(**id))
                .map(|(id, _)| *id);
            self.survivor = unnamed.next();
            if let (Some(first), Some(second)) = (self.survivor, unnamed.next()) {
                return Err(Error::Corruption(format!(
                    "value-log checkpoint leaves segments {first} and {second} open beside \
                     the active slot"
                )));
            }
        }
        // Forget checkpointed segments whose file is gone (should not
        // happen — retirement re-checkpoints before anything else can
        // crash-commit — but a dangling entry must not serve reads).
        let on_disk: BTreeMap<u64, Extent> = fs
            .file_extents()
            .into_iter()
            .filter(|(id, _)| *id >= VLOG_FILE_BASE)
            .collect();
        let missing: Vec<u64> = self
            .segments
            .keys()
            .filter(|id| !on_disk.contains_key(id))
            .copied()
            .collect();
        for id in missing {
            self.remove_segment(id);
            self.dirty = true;
        }
        // Drop segment files no checkpoint references.
        for id in on_disk.keys() {
            if !self.segments.contains_key(id) {
                policy.delete_file(fs, *id)?;
                report.orphan_segments_dropped += 1;
            }
        }
        // Recompute both heads' tails: records past the last checkpoint
        // may be intact (their pointers replay from the WAL) or torn.
        for id in [self.active, self.survivor].into_iter().flatten() {
            let seg = self.segments[&id];
            // The recovered tail: the first byte that is not part of an
            // intact record.
            let span = (0, seg.ext.len, seg.ext.len);
            let read = |off, len| fs.read_file(id, off, len, IoKind::Meta).ok();
            let (scanned, _) = walk_records(id, span, None, read, |_, _| true);
            // Torn or unacked bytes past the recovered tail are still
            // valid on the shingled disk, and appending over them would
            // trip the overlap guard. A 1-byte probe detects them
            // (appends are sequential, so disk-valid bytes form a
            // contiguous prefix); if present, seal the segment so new
            // writes open a fresh band instead.
            let dirty_tail = fs.read_file(id, scanned, 1, IoKind::Meta).is_ok();
            report.torn_tail_bytes += seg.used.saturating_sub(scanned);
            if self.survivor == Some(id) {
                report.survivor_tail_bytes += scanned.saturating_sub(seg.used);
            }
            if let Some(seg) = self.segments.get_mut(&id) {
                seg.used = scanned;
                seg.sealed |= dirty_tail;
            }
            if dirty_tail {
                self.clear_head(id);
                self.dirty = true;
            }
        }
        report.segments_recovered = self.segments.len();
        // The pointer index and dead sets are in-memory only: any
        // recovered segment may hold garbage we no longer know about,
        // so GC must re-verify liveness through the LSM from here on.
        self.dead_exact = self.segments.is_empty();
        (self.live_total, self.dead_total) = self.recount();
        self.recovery = report;
        Ok(report)
    }

    /// The live and dead byte totals recounted from the directory and
    /// the dead sets — what the running totals must always equal.
    fn recount(&self) -> (u64, u64) {
        self.segments
            .iter()
            .fold((0, 0), |(live, dead), (id, seg)| {
                let d = self.segment_dead_bytes(*id);
                (live + seg.used - d, dead + d)
            })
    }

    // ----- garbage collection -----

    /// Marks the record at `ptr` as garbage. The store calls this when
    /// an overwrite or delete supersedes a key whose current value
    /// lives in the log — the superseded record can never be read again
    /// through the LSM, so the mark is definitive. The per-segment
    /// counters drive victim selection ([`ValueLog::gc_candidate`]) and
    /// let the GC scan skip known-dead records without an LSM liveness
    /// query. They are advisory and not checkpointed: a reopen starts
    /// from zero and rebuilds as traffic arrives.
    pub(crate) fn note_dead(&mut self, ptr: VlogPtr) {
        // A pointer past the segment's tail names no record the log
        // holds (recovery cut the tail before it): nothing to account.
        if self
            .segments
            .get(&ptr.segment)
            .is_none_or(|seg| ptr.offset + ptr.len > seg.used)
        {
            return;
        }
        let set = self.dead.entry(ptr.segment).or_default();
        if set.offsets.insert(ptr.offset) {
            set.bytes += ptr.len;
            self.live_total -= ptr.len;
            self.dead_total += ptr.len;
        }
    }

    /// Whether the in-memory pointer index has an entry for `key` —
    /// i.e. the log itself will account the key's current record dead
    /// on the next supersession. False after a reopen until the key is
    /// touched again; the store then probes the LSM once for a stale
    /// pre-crash pointer so recovered garbage is not leaked forever.
    pub(crate) fn knows_key(&self, key: &[u8]) -> bool {
        self.latest.contains_key(key)
    }

    /// Known-garbage bytes in a segment (0 for unknown segments).
    fn segment_dead_bytes(&self, segment: u64) -> u64 {
        self.dead.get(&segment).map_or(0, |d| d.bytes)
    }

    /// Marks the key's current log record (if any) dead: the key was
    /// deleted, or its new value is stored inline below the threshold.
    pub(crate) fn note_delete(&mut self, key: &[u8]) {
        if let Some(prev) = self.latest.remove(key) {
            self.note_dead(prev);
        }
    }

    /// True while the dead-record accounting is complete: every record
    /// not marked dead is provably live, so GC may relocate scan
    /// entries without consulting the LSM. Exactness holds from a fresh
    /// log but is lost on recovery (the in-memory index is not
    /// persisted) — after a reopen the caller must fall back to
    /// per-entry LSM liveness checks, or a pre-crash overwrite could be
    /// resurrected by a GC pointer fixup.
    pub(crate) fn dead_is_exact(&self) -> bool {
        self.dead_exact
    }

    /// Chooses the next GC victim: the sealed segment with the most
    /// known-dead bytes, ties broken oldest-first. Returns `None` when
    /// no sealed segment has any noted garbage — draining a fully live
    /// band would only churn data. (After a reopen the dead counters
    /// start empty; garbage becomes visible again as overwrites land.)
    /// Whether a victim is *worth* draining yet is
    /// [`ValueLog::gc_due`]'s call.
    pub(crate) fn gc_candidate(&self) -> Option<u64> {
        self.segments
            .iter()
            .filter(|(id, s)| s.sealed && self.segment_dead_bytes(**id) > 0)
            .max_by_key(|(id, _)| (self.segment_dead_bytes(**id), std::cmp::Reverse(**id)))
            .map(|(id, _)| *id)
    }

    /// Whether background GC should run a step: a victim's scan has
    /// started and the victim is not yet retired (finish it, so no band
    /// is left half-drained), or the known garbage in sealed segments
    /// has reached `1/multiplier` of the live bytes. That is the space
    /// budget of a leveled tree whose levels grow by `multiplier` (its
    /// obsolete versions are about one level's worth, `1/AF` of the
    /// data); below it a step would mostly relocate live values. The
    /// open heads' garbage does not count — neither can be a victim.
    /// No directory walk: two running totals and two dead-set lookups.
    pub(crate) fn gc_due(&self, multiplier: u64) -> bool {
        if self.gc_victim.is_some() {
            return true;
        }
        let open_dead: u64 = [self.active, self.survivor]
            .into_iter()
            .flatten()
            .map(|id| self.segment_dead_bytes(id))
            .sum();
        let garbage = self.dead_total - open_dead;
        garbage > 0 && garbage.saturating_mul(multiplier) >= self.live_total
    }

    /// Scans up to `budget_bytes` of the current victim (choosing one if
    /// no scan is in progress), returning the records encountered.
    /// Records already marked dead via [`ValueLog::note_dead`] are
    /// skipped outright — their bytes count against the budget but no
    /// entry (and hence no LSM liveness query) is produced for them.
    /// The step's read continues where the last one ended: the cursor
    /// carries the bytes of the record the last chunk cut, and they
    /// count against the budget. The caller checks each remaining
    /// entry's liveness against the LSM, relocates live ones, and — once
    /// `finished` — makes the pointer fixups durable before retiring
    /// the victim. A crash mid-scan is safe: the cursor is not
    /// persisted, the rescan skips already-relocated records because
    /// they are no longer live at their old address.
    pub(crate) fn gc_scan(
        &mut self,
        fs: &mut FileStore,
        budget_bytes: u64,
    ) -> Result<Option<GcScan>> {
        // A failed read leaves the cursor in place, its carry spent: the
        // next step reads those bytes again.
        let (victim, from, carry) = match self.gc_cursor.as_mut() {
            Some(cursor) => (
                cursor.victim,
                cursor.offset,
                std::mem::take(&mut cursor.carry),
            ),
            None => {
                let Some(victim) = self.gc_candidate() else {
                    return Ok(None);
                };
                self.gc_relocated_from_victim = 0;
                (victim, 0, Vec::new())
            }
        };
        let used = self.segments[&victim].used;
        let dead = self.dead.get(&victim).map(|d| &d.offsets);
        let mut entries = Vec::new();
        // One sequential read covers the whole step: GC is a streaming
        // scan, and per-record reads would pay a head seek each on the
        // simulated disk. The chunk is the carry plus the bytes after
        // it, `budget_bytes` in all.
        let mut chunk = carry;
        let mut extend = |chunk: &mut Vec<u8>, to: u64| -> Result<()> {
            let at = from + chunk.len() as u64;
            if to > at {
                chunk.extend(fs.read_file(victim, at, to - at, IoKind::VlogGc)?);
            }
            Ok(())
        };
        extend(&mut chunk, used.min(from + budget_bytes))?;
        let mut walk = |chunk: &[u8]| {
            let span = (from, from + chunk.len() as u64, used);
            let fetch = |o: u64, l| chunk_slice(chunk, o - from, l);
            walk_records(victim, span, dead, fetch, |_, entry| {
                entries.extend(entry);
                true
            })
        };
        let (mut off, mut damaged) = walk(&chunk);
        if off == from && !damaged && off < used {
            // The budget is smaller than the next record: stretch the
            // chunk over it whole anyway so the scan always advances.
            extend(&mut chunk, used.min(from + RECORD_HEADER))?;
            if let Some(header) = chunk.get(..RECORD_HEADER as usize) {
                // A length past `used` is damage the walk reports.
                let end = from.saturating_add(parse_header(header).1);
                if end <= used {
                    extend(&mut chunk, end)?;
                }
            }
            (off, damaged) = walk(&chunk);
        }
        // A walk stops on damage before it reaches `used`.
        let finished = off >= used;
        self.gc_cursor = (!finished && !damaged).then(|| GcCursor {
            victim,
            offset: off,
            carry: chunk[(off - from) as usize..].to_vec(),
        });
        self.gc_victim = Some(victim);
        let damaged = damaged.then_some(off);
        Ok(Some(GcScan {
            segment: victim,
            entries,
            finished,
            damaged,
        }))
    }

    /// Frees a fully drained GC victim. The caller must have committed
    /// the pointer fixups durably first — after this call the band is
    /// back in the allocator and its bytes are gone.
    pub(crate) fn retire_segment(
        &mut self,
        fs: &mut FileStore,
        policy: &mut dyn PlacementPolicy,
        id: u64,
    ) -> Result<u64> {
        let Some(seg) = self.segments.get(&id) else {
            return Err(Error::InvalidArgument(format!(
                "retire of unknown value-log segment {id}"
            )));
        };
        if !seg.sealed {
            return Err(Error::InvalidArgument(format!(
                "refusing to retire open value-log segment {id}"
            )));
        }
        let reclaimed = seg.used;
        let relocated = std::mem::take(&mut self.gc_relocated_from_victim);
        policy.delete_file(fs, id)?;
        self.remove_segment(id);
        self.stats.segments_retired += 1;
        self.stats.reclaimed_bytes += reclaimed;
        self.dirty = true;
        let disk = fs.disk_mut();
        disk.obs_event(
            ObsLayer::ValueLog,
            ObsEventKind::VlogGcRelocate,
            id,
            relocated,
        );
        disk.obs_event(
            ObsLayer::ValueLog,
            ObsEventKind::VlogSegmentDrop,
            id,
            reclaimed,
        );
        disk.obs_mut()
            .counter_add(ObsLayer::ValueLog, "reclaimed_bytes", reclaimed);
        Ok(reclaimed)
    }

    /// Takes a segment and its dead set out of the directory, moving
    /// its bytes out of the running totals.
    fn remove_segment(&mut self, id: u64) -> Option<Segment> {
        let seg = self.segments.remove(&id)?;
        let dead = self.dead.remove(&id).map_or(0, |d| d.bytes);
        self.live_total -= seg.used - dead;
        self.dead_total -= dead;
        self.clear_head(id);
        if self.gc_victim == Some(id) {
            self.gc_victim = None;
        }
        if self.gc_cursor.as_ref().is_some_and(|c| c.victim == id) {
            self.gc_cursor = None;
        }
        Some(seg)
    }

    // ----- scrub -----

    /// Verifies up to `budget_bytes` of record CRCs, resuming from the
    /// last step's position and wrapping at the directory's end. A CRC
    /// mismatch damages the whole segment (record framing cannot resync
    /// past a bad record); the caller salvages what is readable and
    /// quarantines the band.
    pub(crate) fn scrub_step(
        &mut self,
        fs: &mut FileStore,
        budget_bytes: u64,
    ) -> Result<VlogScrubStep> {
        let mut step = VlogScrubStep::default();
        let (mut seg_id, mut off) = match self.scrub_cursor.take() {
            Some((id, off)) if self.segments.contains_key(&id) => (id, off),
            _ => match self.segments.keys().next() {
                Some(id) => (*id, 0),
                None => return Ok(step),
            },
        };
        let mut visited = 0usize;
        while step.bytes_scanned < budget_bytes && visited < self.segments.len() {
            let used = self.segments[&seg_id].used;
            let read = |off, len| fs.read_file(seg_id, off, len, IoKind::Meta).ok();
            let (stopped_at, unframed) =
                walk_records(seg_id, (off, used, used), None, read, |len, _| {
                    step.records_ok += 1;
                    step.bytes_scanned += len;
                    step.bytes_scanned < budget_bytes
                });
            off = stopped_at;
            if unframed {
                step.damaged.push(seg_id);
            }
            if unframed || off >= used {
                // Advance to the next segment (wrapping) and stop after
                // one full lap.
                visited += 1;
                let next = self
                    .segments
                    .range((seg_id + 1)..)
                    .next()
                    .or_else(|| self.segments.iter().next())
                    .map(|(id, _)| *id);
                match next {
                    Some(id) => {
                        seg_id = id;
                        off = 0;
                    }
                    None => break,
                }
            }
        }
        self.scrub_cursor = Some((seg_id, off));
        Ok(step)
    }

    /// Returns the intact record prefix of a damaged segment — what can
    /// still be salvaged before the band is quarantined. Records past
    /// the first corrupt one are unreachable (framing lost) and their
    /// pointers will serve degraded.
    pub(crate) fn salvage_prefix(&self, fs: &mut FileStore, id: u64) -> Result<Vec<GcEntry>> {
        let Some(seg) = self.segments.get(&id) else {
            return Err(Error::InvalidArgument(format!(
                "salvage of unknown value-log segment {id}"
            )));
        };
        let mut out = Vec::new();
        let read = |off, len| fs.read_file(id, off, len, IoKind::Meta).ok();
        walk_records(id, (0, seg.used, seg.used), None, read, |_, entry| {
            out.extend(entry);
            true
        });
        Ok(out)
    }

    /// Removes a damaged segment from service and fences its band so
    /// the allocator never hands it out again. Pointers that still
    /// reference it fail closed on read. Returns the fenced band size.
    pub(crate) fn quarantine_segment(
        &mut self,
        fs: &mut FileStore,
        policy: &mut dyn PlacementPolicy,
        id: u64,
    ) -> Result<u64> {
        let Some(seg) = self.remove_segment(id) else {
            return Err(Error::InvalidArgument(format!(
                "quarantine of unknown value-log segment {id}"
            )));
        };
        // Return the extent through the policy (keeps its region
        // bookkeeping honest), then fence it out of the free pool so the
        // allocator never hands the bad band out again.
        policy.delete_file(fs, id)?;
        policy.quarantine_extent(fs, seg.ext);
        self.stats.segments_retired += 1;
        self.stats.reclaimed_bytes += seg.used;
        self.dirty = true;
        fs.disk_mut().obs_event(
            ObsLayer::ValueLog,
            ObsEventKind::VlogSegmentDrop,
            id,
            seg.used,
        );
        Ok(seg.ext.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsm_core::PerFilePolicy;
    use placement::Ext4Sim;
    use smr_sim::{Disk, Layout, TimeModel};

    const MB: u64 = 1 << 20;

    fn fixture() -> (FileStore, PerFilePolicy) {
        let cap = 256 * MB;
        let disk = Disk::new(
            cap,
            Layout::RawHmSmr { guard_bytes: MB },
            TimeModel::smr_st5000as0011(cap),
        );
        let fs = FileStore::new(disk, 16 * MB);
        let alloc = Ext4Sim::new(cap - 16 * MB, 64 * MB);
        (fs, PerFilePolicy::new(Box::new(alloc)))
    }

    fn small_params() -> VlogParams {
        VlogParams {
            segment_bytes: 4096,
            value_threshold: 64,
        }
    }

    #[test]
    fn pointer_encoding_roundtrip() {
        let ptr = VlogPtr {
            segment: VLOG_FILE_BASE + 3,
            offset: 12345,
            len: 678,
        };
        match decode_stored(&encode_pointer(ptr)).unwrap() {
            StoredValue::Pointer(p) => assert_eq!(p, ptr),
            other => panic!("expected pointer, got {other:?}"),
        }
        match decode_stored(&encode_inline(b"abc")).unwrap() {
            StoredValue::Inline(v) => assert_eq!(v, b"abc"),
            other => panic!("expected inline, got {other:?}"),
        }
        assert!(decode_stored(&[]).is_err());
        assert!(decode_stored(&[POINTER_TAG, 1, 2]).is_err());
    }

    #[test]
    fn append_read_roundtrip_and_key_check() {
        let (mut fs, mut policy) = fixture();
        let mut vl = ValueLog::new(small_params());
        let ptr = vl
            .append(&mut fs, &mut policy, b"key-1", &[7u8; 200])
            .unwrap();
        assert_eq!(vl.read(&mut fs, ptr, b"key-1").unwrap(), vec![7u8; 200]);
        // Reading under the wrong key fails closed.
        assert!(vl.read(&mut fs, ptr, b"key-2").is_err());
        assert!(vl.take_dirty());
        assert!(!vl.take_dirty());
    }

    #[test]
    fn segments_seal_and_roll_when_full() {
        let (mut fs, mut policy) = fixture();
        let mut vl = ValueLog::new(small_params());
        // 4096-byte segments, ~1012-byte records: the fifth append rolls.
        let mut ptrs = Vec::new();
        for i in 0..8u8 {
            let key = format!("cold-{i:04}");
            ptrs.push((
                key.clone(),
                vl.append(&mut fs, &mut policy, key.as_bytes(), &[i; 1000])
                    .unwrap(),
            ));
        }
        assert!(vl.segment_count() >= 2);
        for (i, (key, ptr)) in ptrs.iter().enumerate() {
            assert_eq!(
                vl.read(&mut fs, *ptr, key.as_bytes()).unwrap(),
                vec![i as u8; 1000]
            );
        }
    }

    #[test]
    fn checkpoint_recover_roundtrip() {
        let (mut fs, mut policy) = fixture();
        let mut vl = ValueLog::new(small_params());
        // 914-byte records, four to a segment: k0..k3 seal the first
        // band, k4 opens the user head, and a relocation of k0 opens
        // the survivor head.
        let mut ptrs: Vec<(Vec<u8>, VlogPtr)> = (0..5u8)
            .map(|i| {
                let key = format!("k{i}").into_bytes();
                let ptr = vl.append(&mut fs, &mut policy, &key, &[i; 900]).unwrap();
                (key, ptr)
            })
            .collect();
        ptrs[0].1 = vl.relocate(&mut fs, &mut policy, b"k0", &[0; 900]).unwrap();
        let (user, survivor) = (ptrs[4].1.segment, ptrs[0].1.segment);
        assert_ne!(user, survivor);
        assert_eq!((vl.active, vl.survivor), (Some(user), Some(survivor)));
        let blob = vl.checkpoint();
        // Both heads take records the checkpoint does not know about.
        let late_user = vl.append(&mut fs, &mut policy, b"k5", &[5; 900]).unwrap();
        let late_survivor = vl.relocate(&mut fs, &mut policy, b"k1", &[1; 900]).unwrap();
        assert_eq!((late_user.segment, late_survivor.segment), (user, survivor));
        ptrs.push((b"k5".to_vec(), late_user));
        ptrs[1].1 = late_survivor;
        let assert_reads = |vl: &ValueLog, fs: &mut FileStore, ptrs: &[(Vec<u8>, VlogPtr)]| {
            for (key, ptr) in ptrs {
                let i = key[1] - b'0';
                assert_eq!(vl.read(fs, *ptr, key).unwrap(), vec![i; 900]);
            }
        };

        let mut vl2 = ValueLog::new(small_params());
        let report = vl2.recover(&mut fs, &mut policy, Some(&blob)).unwrap();
        assert_eq!(report.segments_recovered, vl.segment_count());
        assert_eq!((vl2.active, vl2.survivor), (Some(user), Some(survivor)));
        assert_eq!(report.survivor_tail_bytes, late_survivor.len);
        assert_eq!(vl2.recovery_report().survivor_tail_bytes, late_survivor.len);
        assert_eq!(
            (report.torn_tail_bytes, report.orphan_segments_dropped),
            (0, 0)
        );
        for seg in [user, survivor] {
            assert_eq!(
                vl2.segments[&seg].used, vl.segments[&seg].used,
                "segment {seg}"
            );
        }
        assert_reads(&vl2, &mut fs, &ptrs);
        // Appends continue into the recovered user head without
        // clobbering earlier records.
        let p = vl2
            .append(&mut fs, &mut policy, b"after", &[9u8; 100])
            .unwrap();
        assert_eq!(p.segment, user);
        assert_eq!(vl2.read(&mut fs, p, b"after").unwrap(), vec![9u8; 100]);

        // A relocation torn by a power cut: recovery keeps the survivor
        // head's intact records, drops the torn one, and seals the head
        // because the tear left bytes past its tail on the disk.
        fs.disk_mut().faults_mut().tear_write_after(0);
        assert!(vl2
            .relocate(&mut fs, &mut policy, b"k2", &[2; 900])
            .is_err());
        fs.disk_mut().faults_mut().disarm_torn_writes();
        let blob = vl2.checkpoint();
        let mut vl3 = ValueLog::new(small_params());
        let report = vl3.recover(&mut fs, &mut policy, Some(&blob)).unwrap();
        assert_eq!(report.survivor_tail_bytes, 0);
        let seg = vl3.segments[&survivor];
        assert_eq!(seg.used, late_survivor.offset + late_survivor.len);
        assert!(seg.sealed, "bytes past the tail seal the head");
        assert_eq!((vl3.active, vl3.survivor), (Some(user), None));
        assert_reads(&vl3, &mut fs, &ptrs);
        let moved = vl3
            .relocate(&mut fs, &mut policy, b"k2", &[2; 900])
            .unwrap();
        assert!(![user, survivor].contains(&moved.segment), "a fresh band");
        assert_eq!(vl3.read(&mut fs, moved, b"k2").unwrap(), vec![2; 900]);
    }

    #[test]
    fn a_second_unnamed_open_segment_is_corruption() {
        let (mut fs, mut policy) = fixture();
        let mut vl = ValueLog::new(small_params());
        vl.append(&mut fs, &mut policy, b"user", &[1; 100]).unwrap();
        vl.relocate(&mut fs, &mut policy, b"moved", &[2; 100])
            .unwrap();
        let mut blob = vl.checkpoint();
        // Version, next segment, then the active slot: clearing it
        // leaves both open segments unnamed.
        assert_eq!(blob[2], 1, "the user head is segment 0");
        blob[2] = 0;
        let mut vl2 = ValueLog::new(small_params());
        let err = vl2.recover(&mut fs, &mut policy, Some(&blob)).unwrap_err();
        assert!(matches!(err, Error::Corruption(_)), "{err}");
        assert!(err.to_string().contains("open beside"), "{err}");
    }

    #[test]
    fn recovery_drops_orphan_segments() {
        let (mut fs, mut policy) = fixture();
        let mut vl = ValueLog::new(small_params());
        vl.append(&mut fs, &mut policy, b"a", &[1u8; 100]).unwrap();
        let blob = vl.checkpoint();
        // A segment allocated after the checkpoint is an orphan on
        // recovery from that checkpoint.
        for i in 0..8u8 {
            vl.append(&mut fs, &mut policy, format!("x{i}").as_bytes(), &[i; 1000])
                .unwrap();
        }
        assert!(vl.segment_count() > 1);
        let mut vl2 = ValueLog::new(small_params());
        let report = vl2.recover(&mut fs, &mut policy, Some(&blob)).unwrap();
        assert_eq!(report.segments_recovered, 1);
        assert!(report.orphan_segments_dropped >= 1);
        // Only the checkpointed segment file remains.
        let vlog_files = fs
            .file_extents()
            .into_iter()
            .filter(|(id, _)| *id >= VLOG_FILE_BASE)
            .count();
        assert_eq!(vlog_files, 1);
    }

    #[test]
    fn gc_scan_drain_and_retire() {
        let (mut fs, mut policy) = fixture();
        let mut vl = ValueLog::new(small_params());
        let mut ptrs = Vec::new();
        for i in 0..10u8 {
            let key = format!("gc-{i:03}");
            let ptr = vl
                .append(&mut fs, &mut policy, key.as_bytes(), &[i; 900])
                .unwrap();
            ptrs.push(ptr);
        }
        // Victim selection is garbage-driven: with no dead bytes noted
        // anywhere, there is nothing worth draining.
        assert!(vl.gc_candidate().is_none());
        // Mark the second record of the first segment dead (as the
        // store does when an overwrite supersedes a pointer).
        vl.note_dead(ptrs[1]);
        assert_eq!(vl.segment_dead_bytes(ptrs[1].segment), ptrs[1].len);
        let victim = vl.gc_candidate().expect("a sealed segment with garbage");
        assert_eq!(victim, ptrs[1].segment);
        // Drain with a small budget: multiple steps.
        let mut seen = Vec::new();
        loop {
            let scan = vl.gc_scan(&mut fs, 1024).unwrap().expect("victim pending");
            assert_eq!(scan.segment, victim);
            seen.extend(scan.entries.into_iter().map(|e| e.key));
            if scan.finished {
                break;
            }
        }
        assert!(!seen.is_empty());
        // The known-dead record was skipped: no liveness work for it.
        assert!(!seen.contains(&b"gc-001".to_vec()));
        // Relocate one record, then retire: bytes land in stats and the
        // segment file is gone.
        let moved = vl
            .relocate(&mut fs, &mut policy, b"gc-000", &[0u8; 900])
            .unwrap();
        assert_ne!(
            Some(moved.segment),
            vl.active,
            "survivors have a head of their own"
        );
        let reclaimed = vl.retire_segment(&mut fs, &mut policy, victim).unwrap();
        assert!(reclaimed > 0);
        assert!(!fs.has_file(victim));
        assert!(vl.stats().relocated_bytes > 0);
        assert_eq!(vl.stats().reclaimed_bytes, reclaimed);
        assert!(vl.retire_segment(&mut fs, &mut policy, victim).is_err());
    }

    #[test]
    fn gc_victim_reads_are_billed_to_vlog_gc_at_the_cost_meta_paid() {
        // Two identical devices: one drains a victim through `gc_scan`,
        // the other replays the same reads under the label they used to
        // carry. The label picks the ledger bucket, never the price.
        let load = |fs: &mut FileStore, policy: &mut PerFilePolicy| {
            let mut vl = ValueLog::new(small_params());
            let mut ptrs = Vec::new();
            for i in 0..10u8 {
                let key = format!("gc-{i:03}");
                ptrs.push(vl.append(fs, policy, key.as_bytes(), &[i; 900]).unwrap());
            }
            vl.note_dead(ptrs[1]);
            vl
        };
        let (mut fs, mut policy) = fixture();
        let mut vl = load(&mut fs, &mut policy);
        let (mut twin, mut twin_policy) = fixture();
        load(&mut twin, &mut twin_policy);
        assert_eq!(fs.disk().clock_ns(), twin.disk().clock_ns());

        let before = fs.disk().stats().clone();
        let t0 = fs.disk().clock_ns();
        fs.disk_mut().trace_mut().set_enabled(true);
        // A 1 KiB budget walks the chunked path; a 16-byte one the
        // read-the-next-record-whole fallback.
        for budget in [1024, 16].into_iter().cycle() {
            if vl
                .gc_scan(&mut fs, budget)
                .unwrap()
                .expect("victim")
                .finished
            {
                break;
            }
        }
        let reads: Vec<Extent> = fs.disk().trace().events().iter().map(|e| e.ext).collect();
        // The victim holds four 918-byte records, the second one dead.
        // A chunk stops at the first record it does not hold whole, dead
        // or not, and carries its bytes; the fallback reads the rest of
        // that record, so every read starts where the last one ended.
        let base = reads[0].offset;
        let relative: Vec<(u64, u64)> = reads.iter().map(|e| (e.offset - base, e.len)).collect();
        let expected = [(0, 1024), (1024, 812), (1836, 1024), (2860, 812)];
        assert_eq!(relative, expected, "both scan paths read");
        let elapsed = fs.disk().clock_ns() - t0;
        let after = fs.disk().stats().clone();
        let gc = after.kind(IoKind::VlogGc);
        assert_eq!(gc.time_ns - before.kind(IoKind::VlogGc).time_ns, elapsed);
        assert_eq!(gc.ops, reads.len() as u64);
        assert_eq!(gc.logical_written, 0, "reads never enter WA");
        assert_eq!(after.kind(IoKind::Meta).ops, before.kind(IoKind::Meta).ops);

        for ext in reads {
            twin.disk_mut().read(ext, IoKind::Meta).unwrap();
        }
        assert_eq!(twin.disk().clock_ns(), fs.disk().clock_ns());
        assert_eq!(
            twin.disk().stats().kind(IoKind::Meta).time_ns - before.kind(IoKind::Meta).time_ns,
            elapsed
        );
    }

    #[test]
    fn consecutive_gc_steps_read_one_contiguous_stream() {
        for budget in [700, 1000, 1500, 4096] {
            let (mut fs, mut policy) = fixture();
            let mut vl = ValueLog::new(small_params());
            let mut ptrs = Vec::new();
            for i in 0..10u8 {
                let key = format!("st-{i:03}");
                ptrs.push(
                    vl.append(&mut fs, &mut policy, key.as_bytes(), &[i; 900])
                        .unwrap(),
                );
            }
            vl.note_dead(ptrs[2]);
            let victim = ptrs[0].segment;
            let used = vl.segments[&victim].used;
            let base = fs.file_extent(victim).unwrap().offset;
            fs.disk_mut().trace_mut().set_enabled(true);
            let mut live = 0;
            loop {
                let scan = vl.gc_scan(&mut fs, budget).unwrap().expect("victim");
                assert_eq!(scan.segment, victim);
                live += scan.entries.len();
                if scan.finished {
                    break;
                }
            }
            assert_eq!(live, 3, "budget {budget}: every live record, once");
            let reads: Vec<(u64, u64)> = fs
                .disk()
                .trace()
                .events()
                .iter()
                .map(|e| (e.ext.offset - base, e.ext.len))
                .collect();
            let mut at = 0;
            for &(offset, len) in &reads {
                assert_eq!(offset, at, "budget {budget}: reads {reads:?}");
                at += len;
            }
            assert_eq!(at, used, "budget {budget}: the victim is read once");
        }
    }

    #[test]
    fn quarantining_a_half_drained_victim_drops_its_cursor() {
        let (mut fs, mut policy) = fixture();
        let mut vl = ValueLog::new(small_params());
        let mut ptrs = Vec::new();
        for i in 0..10u8 {
            let key = format!("q-{i:03}");
            ptrs.push(
                vl.append(&mut fs, &mut policy, key.as_bytes(), &[i; 900])
                    .unwrap(),
            );
        }
        vl.note_dead(ptrs[1]);
        let scan = vl.gc_scan(&mut fs, 1024).unwrap().expect("victim");
        assert!(!scan.finished, "the scan stops mid-victim");
        vl.quarantine_segment(&mut fs, &mut policy, scan.segment)
            .unwrap();
        // No other sealed band holds garbage: the next step finds no
        // victim rather than resuming inside the fenced one.
        assert!(vl.gc_scan(&mut fs, 1024).unwrap().is_none());
        assert!(!vl.gc_due(10));
    }

    #[test]
    fn scrub_flags_corrupt_segment_and_salvage_reads_prefix() {
        let (mut fs, mut policy) = fixture();
        let mut vl = ValueLog::new(small_params());
        let mut ptrs = Vec::new();
        for i in 0..3u8 {
            let key = format!("s{i}");
            ptrs.push(
                vl.append(&mut fs, &mut policy, key.as_bytes(), &[i; 300])
                    .unwrap(),
            );
        }
        // Clean scrub first.
        let step = vl.scrub_step(&mut fs, 1 << 20).unwrap();
        assert!(step.damaged.is_empty());
        assert_eq!(step.records_ok, 3);
        // Flip bytes inside the second record.
        let seg = ptrs[1].segment;
        let ext = fs.file_extent(seg).unwrap();
        fs.disk_mut()
            .faults_mut()
            .corrupt_extent(Extent::new(ext.offset + ptrs[1].offset + 8, 4));
        let mut damaged = Vec::new();
        for _ in 0..4 {
            damaged.extend(vl.scrub_step(&mut fs, 1 << 20).unwrap().damaged);
        }
        assert!(damaged.contains(&seg));
        // Salvage recovers only the first record.
        let salvage = vl.salvage_prefix(&mut fs, seg).unwrap();
        assert_eq!(salvage.len(), 1);
        assert_eq!(salvage[0].key, b"s0");
        // Quarantine fences the band and fails later reads closed.
        vl.quarantine_segment(&mut fs, &mut policy, seg).unwrap();
        assert!(vl.read(&mut fs, ptrs[1], b"s1").is_err());
        assert!(!fs.has_file(seg));
    }

    #[test]
    fn every_walk_stops_at_the_same_damaged_record() {
        const N: usize = 6;
        for bad in 0..N {
            let (mut fs, mut policy) = fixture();
            let mut vl = ValueLog::new(small_params());
            let ptrs: Vec<VlogPtr> = (0..N)
                .map(|i| {
                    let key = format!("w{i}");
                    vl.append(&mut fs, &mut policy, key.as_bytes(), &[i as u8; 300])
                        .unwrap()
                })
                .collect();
            let seg = ptrs[0].segment;
            assert!(ptrs.iter().all(|p| p.segment == seg), "one segment");
            let used = ptrs[N - 1].offset + ptrs[N - 1].len;
            let active_blob = vl.checkpoint();
            let ext = fs.file_extent(seg).unwrap();
            fs.disk_mut()
                .faults_mut()
                .corrupt_extent(Extent::new(ext.offset + ptrs[bad].offset + 20, 1));

            // Tail recovery of the still-active segment.
            let mut recovered = ValueLog::new(small_params());
            let report = recovered
                .recover(&mut fs, &mut policy, Some(&active_blob))
                .unwrap();
            assert_eq!(
                report.torn_tail_bytes,
                used - ptrs[bad].offset,
                "tail {bad}"
            );

            // Salvage and scrub of the sealed segment.
            vl.seal(&mut fs, seg);
            let salvaged = vl.salvage_prefix(&mut fs, seg).unwrap();
            let salvaged: Vec<VlogPtr> = salvaged.iter().map(|e| e.ptr).collect();
            assert_eq!(salvaged, ptrs[..bad], "salvage {bad}");
            let step = vl.scrub_step(&mut fs, 1 << 20).unwrap();
            assert_eq!(step.damaged, [seg], "scrub {bad}");
            assert_eq!(step.records_ok, bad as u64, "scrub {bad}");

            // GC, through the chunked branch and through the
            // budget-smaller-than-a-record (and than a header) branch. Some *other* record
            // is the garbage that makes the segment a victim: known-dead
            // records are framed, not checksummed.
            vl.note_dead(ptrs[(bad + 1) % N]);
            for budget in [1 << 20, 16, 5] {
                let damaged = loop {
                    let scan = vl.gc_scan(&mut fs, budget).unwrap().expect("victim");
                    assert_eq!(scan.segment, seg);
                    assert!(!scan.finished, "gc {bad} budget {budget}");
                    if scan.damaged.is_some() {
                        break scan.damaged;
                    }
                };
                assert_eq!(damaged, Some(ptrs[bad].offset), "gc {bad} budget {budget}");
            }
        }
    }

    /// Appends `n` 404-byte records (keys `k000`..) — ten fill one
    /// 4 KiB test segment.
    fn append_records(
        vl: &mut ValueLog,
        fs: &mut FileStore,
        policy: &mut PerFilePolicy,
        range: std::ops::Range<u32>,
    ) -> Vec<VlogPtr> {
        range
            .map(|i| {
                let key = format!("k{i:03}");
                vl.append(fs, policy, key.as_bytes(), &[i as u8; 388])
                    .unwrap()
            })
            .collect()
    }

    /// The running totals equal a full recount, and together they are
    /// every segment's `used`.
    fn assert_totals(vl: &ValueLog, when: &str) {
        assert_eq!((vl.live_bytes(), vl.dead_bytes()), vl.recount(), "{when}");
        let used: u64 = vl.segments.values().map(|s| s.used).sum();
        assert_eq!(vl.live_bytes() + vl.dead_bytes(), used, "{when}");
    }

    #[test]
    fn gc_is_due_once_sealed_garbage_reaches_one_af_of_live_bytes() {
        let (mut fs, mut policy) = fixture();
        let mut vl = ValueLog::new(small_params());
        // Two sealed segments of ten records and an active one of two.
        let ptrs = append_records(&mut vl, &mut fs, &mut policy, 0..22);
        assert_eq!(ptrs[0].len, 404);
        assert_eq!(ptrs[20].segment, ptrs[21].segment);
        assert_ne!(ptrs[19].segment, ptrs[20].segment);
        assert!(!vl.gc_due(10), "no garbage at all");
        // One dead record: 404 × 10 < 21 × 404 live.
        vl.note_dead(ptrs[0]);
        assert!(vl.gc_candidate().is_some(), "a victim exists");
        assert!(!vl.gc_due(10), "just below the budget");
        // Two: 808 × 10 ≥ 20 × 404 — exactly at it.
        vl.note_dead(ptrs[1]);
        assert_eq!(vl.dead_bytes() * 10, vl.live_bytes());
        assert!(vl.gc_due(10), "at the budget");
        // A shallower tree tolerates less garbage per live byte.
        assert!(!vl.gc_due(5));
    }

    #[test]
    fn active_segment_garbage_is_not_due() {
        let (mut fs, mut policy) = fixture();
        let mut vl = ValueLog::new(small_params());
        let ptrs = append_records(&mut vl, &mut fs, &mut policy, 0..22);
        // Both records of the active segment die: far past 1/AF of the
        // live bytes, but the active segment cannot be a victim.
        vl.note_dead(ptrs[20]);
        vl.note_dead(ptrs[21]);
        assert_eq!(vl.dead_bytes(), 2 * 404);
        assert!(vl.gc_candidate().is_none());
        assert!(!vl.gc_due(10));
        // Nor can the survivor head: a value GC moves again leaves its
        // previous copy there as garbage.
        let moved: Vec<VlogPtr> = (0..4)
            .map(|_| {
                vl.relocate(&mut fs, &mut policy, b"k020", &[20; 388])
                    .unwrap()
            })
            .collect();
        let survivor = moved[0].segment;
        assert!(moved.iter().all(|p| p.segment == survivor));
        assert_eq!(vl.segment_dead_bytes(survivor), 3 * 404);
        assert!(vl.gc_candidate().is_none());
        assert!(!vl.gc_due(10), "garbage in either open head is not due");
        // Sealed, the same garbage counts.
        vl.seal(&mut fs, survivor);
        assert_eq!(vl.gc_candidate(), Some(survivor));
        assert!(vl.gc_due(10));
    }

    #[test]
    fn relocations_and_user_appends_never_share_a_segment() {
        let (mut fs, mut policy) = fixture();
        let mut vl = ValueLog::new(small_params());
        let ptrs = append_records(&mut vl, &mut fs, &mut policy, 0..22);
        vl.note_dead(ptrs[0]);
        let mut live = Vec::new();
        loop {
            let scan = vl.gc_scan(&mut fs, 1024).unwrap().expect("a victim");
            live.extend(scan.entries);
            if scan.finished {
                break;
            }
        }
        assert_eq!(live.len(), 9);
        // Interleave the victim's survivors with fresh user appends,
        // across rollovers of both heads.
        let (mut moved, mut fresh) = (BTreeSet::new(), BTreeSet::new());
        for (i, e) in live.iter().enumerate() {
            moved.insert(
                vl.relocate(&mut fs, &mut policy, &e.key, &e.value)
                    .unwrap()
                    .segment,
            );
            let start = 100 + 3 * i as u32;
            for p in append_records(&mut vl, &mut fs, &mut policy, start..start + 3) {
                fresh.insert(p.segment);
            }
        }
        assert!(!moved.is_empty() && fresh.len() >= 3, "{moved:?} {fresh:?}");
        assert!(moved.is_disjoint(&fresh), "{moved:?} {fresh:?}");
    }

    #[test]
    fn a_started_victim_stays_due_until_it_retires() {
        let (mut fs, mut policy) = fixture();
        let mut vl = ValueLog::new(small_params());
        let ptrs = append_records(&mut vl, &mut fs, &mut policy, 0..22);
        vl.note_dead(ptrs[0]);
        vl.note_dead(ptrs[1]);
        assert!(vl.gc_due(10));
        // The first step reads one record of the victim...
        let mut scan = vl.gc_scan(&mut fs, 404).unwrap().expect("a victim");
        let victim = scan.segment;
        assert!(!scan.finished);
        // ...then fresh values push the garbage far below the budget.
        append_records(&mut vl, &mut fs, &mut policy, 22..62);
        assert!(vl.dead_bytes() * 10 < vl.live_bytes());
        let mut live = std::mem::take(&mut scan.entries);
        while !scan.finished {
            assert!(vl.gc_due(10), "a started scan is finished");
            scan = vl.gc_scan(&mut fs, 404).unwrap().expect("same victim");
            assert_eq!(scan.segment, victim);
            live.append(&mut scan.entries);
        }
        assert!(vl.gc_due(10), "scanned but not yet retired");
        for e in &live {
            vl.relocate(&mut fs, &mut policy, &e.key, &e.value).unwrap();
        }
        vl.retire_segment(&mut fs, &mut policy, victim).unwrap();
        assert!(!vl.gc_due(10), "retired, and no garbage is left");
        assert_eq!(vl.dead_bytes(), 0);
    }

    #[test]
    fn running_totals_equal_a_recount() {
        let (mut fs, mut policy) = fixture();
        let mut vl = ValueLog::new(small_params());
        let ptrs = append_records(&mut vl, &mut fs, &mut policy, 0..25);
        assert_totals(&vl, "appends");
        assert_eq!(vl.live_bytes(), 25 * 404);
        // Overwrites supersede the first five keys' records.
        append_records(&mut vl, &mut fs, &mut policy, 0..5);
        assert_totals(&vl, "overwrites");
        assert_eq!(vl.dead_bytes(), 5 * 404);
        // Deletes, a repeated mark, and a pointer past the tail.
        vl.note_delete(b"k005");
        vl.note_delete(b"k006");
        vl.note_dead(ptrs[5]);
        let torn = VlogPtr {
            offset: vl.segments[&ptrs[24].segment].used,
            ..ptrs[24]
        };
        vl.note_dead(torn);
        assert_totals(&vl, "deletes");
        assert_eq!(vl.dead_bytes(), 7 * 404);
        // A GC lap: relocate the victim's live records, retire it.
        let victim = vl.gc_candidate().expect("garbage in a sealed segment");
        let mut live = Vec::new();
        loop {
            let scan = vl.gc_scan(&mut fs, 1024).unwrap().expect("victim");
            live.extend(scan.entries);
            if scan.finished {
                break;
            }
        }
        for e in &live {
            vl.relocate(&mut fs, &mut policy, &e.key, &e.value).unwrap();
            assert_totals(&vl, "relocation");
        }
        // Moving the same survivors again rolls the survivor head over
        // and leaves garbage in the band it sealed.
        let first_survivor = vl.survivor.expect("relocation opened the survivor head");
        for e in live.iter().cycle().take(12) {
            vl.relocate(&mut fs, &mut policy, &e.key, &e.value).unwrap();
            assert_totals(&vl, "survivor rollover");
        }
        assert_ne!(
            vl.survivor,
            Some(first_survivor),
            "the survivor head rolled over"
        );
        assert!(vl.segments[&first_survivor].sealed);
        assert!(vl.segment_dead_bytes(first_survivor) > 0);
        let live_before = vl.live_bytes();
        vl.retire_segment(&mut fs, &mut policy, victim).unwrap();
        assert_totals(&vl, "retire");
        assert_eq!(
            vl.live_bytes(),
            live_before,
            "a retire drops only dead bytes"
        );
        // Salvage and quarantine of a damaged sealed segment.
        let seg = ptrs[12].segment;
        let ext = fs.file_extent(seg).unwrap();
        fs.disk_mut()
            .faults_mut()
            .corrupt_extent(Extent::new(ext.offset + ptrs[14].offset + 20, 1));
        let salvaged = vl.salvage_prefix(&mut fs, seg).unwrap();
        assert_eq!(salvaged.len(), 4, "the records before the damage");
        for e in &salvaged {
            vl.relocate(&mut fs, &mut policy, &e.key, &e.value).unwrap();
        }
        vl.quarantine_segment(&mut fs, &mut policy, seg).unwrap();
        assert_totals(&vl, "quarantine");
        // A reopen forgets every dead mark: all bytes count live.
        let blob = vl.checkpoint();
        let mut reopened = ValueLog::new(small_params());
        reopened.recover(&mut fs, &mut policy, Some(&blob)).unwrap();
        assert_eq!(
            (reopened.active, reopened.survivor),
            (vl.active, vl.survivor)
        );
        assert_totals(&reopened, "reopen");
        assert_eq!(reopened.dead_bytes(), 0);
        assert_eq!(reopened.live_bytes(), vl.live_bytes() + vl.dead_bytes());
    }
}
