//! The file store: the paper's §III-D "indirection from file name to disk
//! location". The engines here never sit on a filesystem — every SSTable
//! is a (file id → physical extent) mapping onto the simulated disk, and
//! WAL/manifest logs live in a small conventional zone at the top of the
//! address space (real HM-SMR drives expose such a zone for metadata).

use crate::error::{Error, Result};
use crate::types::FileId;
use smr_sim::{Disk, DiskError, DiskSnapshot, Extent, IoKind, ObsLayer};
use std::collections::{BTreeMap, BTreeSet};

/// Chunk granularity of the conventional log zone.
pub(crate) const LOG_CHUNK: u64 = 256 * 1024;

/// Transient-read retries attempted before surfacing the error.
const READ_RETRY_BUDGET: u32 = 3;

/// Simulated backoff charged before the first retry; doubles per retry.
const READ_RETRY_BACKOFF_NS: u64 = 500_000;

#[derive(Debug, Clone)]
struct LogFile {
    chunks: Vec<u64>,
    len: u64,
}

/// Appends to one file held back from the device (see
/// [`FileStore::write_file_range`]): `bytes` belong at `offset` within
/// the file.
#[derive(Debug)]
struct Held {
    offset: u64,
    bytes: Vec<u8>,
    /// What the drain is billed as: the first append's kind (each of
    /// the value log's heads appends one kind only).
    kind: IoKind,
    /// The drain that failed. The bytes stay readable from memory, but
    /// never reach the device: every later drain returns this error.
    failed: Option<DiskError>,
}

impl Held {
    fn end(&self) -> u64 {
        self.offset + self.bytes.len() as u64
    }
}

#[derive(Debug)]
struct LogZone {
    base: u64,
    free: BTreeSet<u64>,
}

impl LogZone {
    fn chunk_addr(&self, idx: u64) -> u64 {
        self.base + idx * LOG_CHUNK
    }
}

/// A consistent power-cut image of the whole file store: a copy-on-write
/// [`DiskSnapshot`] paired with the file/log metadata as of the same
/// operation boundary. Captured automatically at the first file-store
/// operation boundary after each Kth disk write once
/// [`smr_sim::FaultPlan::snapshot_every`] is armed (sub-operation crash
/// points are covered by torn-write injection, which needs no image), and
/// restored with [`crate::DbCore::restore_crash_image`].
#[derive(Debug, Clone)]
pub struct CrashImage {
    disk: DiskSnapshot,
    files: BTreeMap<FileId, Extent>,
    logs: BTreeMap<FileId, LogFile>,
    zone_free: BTreeSet<u64>,
}

impl CrashImage {
    /// Number of disk writes completed when this image was captured.
    pub fn write_index(&self) -> u64 {
        self.disk.write_index()
    }
}

/// File-id → extent indirection over one simulated disk.
#[derive(Debug)]
pub struct FileStore {
    disk: Disk,
    files: BTreeMap<FileId, Extent>,
    logs: BTreeMap<FileId, LogFile>,
    zone: LogZone,
    /// Crash images pending collection by the fault harness.
    crash_images: Vec<CrashImage>,
    /// Appends held back per file, and the size at which a file's held
    /// bytes drain (0 = every append writes through).
    held: BTreeMap<FileId, Held>,
    hold_limit: usize,
}

impl FileStore {
    /// Wraps a disk, reserving `log_zone_bytes` at the top of the address
    /// space for WAL/manifest logs. Allocators for table data must be
    /// sized to `disk.capacity() - log_zone_bytes` so they never collide
    /// with the zone.
    pub fn new(disk: Disk, log_zone_bytes: u64) -> Self {
        let capacity = disk.capacity();
        assert!(log_zone_bytes <= capacity, "log zone exceeds capacity");
        let chunk_count = log_zone_bytes / LOG_CHUNK;
        let base = capacity - chunk_count * LOG_CHUNK;
        FileStore {
            disk,
            files: BTreeMap::new(),
            logs: BTreeMap::new(),
            zone: LogZone {
                base,
                free: (0..chunk_count).collect(),
            },
            crash_images: Vec::new(),
            held: BTreeMap::new(),
            hold_limit: 0,
        }
    }

    /// Sets how many bytes of appends a file may hold back before they
    /// drain to the device ([`FileStore::write_file_range`]); 0 makes
    /// every append write through.
    pub(crate) fn set_hold_limit(&mut self, bytes: usize) {
        self.hold_limit = bytes;
    }

    /// Reads from the disk with a bounded retry budget on injected
    /// transient read errors — the host-side handling real drivers apply
    /// to recoverable latent sector errors. Each retry charges an
    /// exponentially growing backoff to the *simulated* clock
    /// ([`READ_RETRY_BACKOFF_NS`] doubling per attempt), so retry storms
    /// show up in latency histograms deterministically. Permanent faults
    /// (`DiskError::UnrecoverableRead` among them) pass through
    /// unchanged on the first attempt.
    fn read_disk_retrying(&mut self, ext: Extent, kind: IoKind) -> Result<Vec<u8>> {
        let mut backoff = READ_RETRY_BACKOFF_NS;
        for _ in 0..READ_RETRY_BUDGET {
            match self.disk.read(ext, kind) {
                Err(e) if e.is_transient() => {
                    self.disk.stats_mut().faults.read_retries += 1;
                    self.disk.advance_ns(backoff);
                    backoff *= 2;
                }
                other => return Ok(other?),
            }
        }
        Ok(self.disk.read(ext, kind)?)
    }

    /// Captures a power-cut image at an operation boundary when the
    /// disk's snapshot cadence fired during the last operation. Mid-
    /// operation disk snapshots are discarded in favour of one consistent
    /// boundary image (torn-write injection covers intra-operation crash
    /// points, where no paired metadata can exist).
    fn maybe_capture_crash_image(&mut self) {
        if self.disk.take_crash_snapshots().is_empty() {
            return;
        }
        self.crash_images.push(self.crash_image());
    }

    /// Takes a power-cut image of the store's current state on demand.
    pub(crate) fn crash_image(&self) -> CrashImage {
        CrashImage {
            disk: self.disk.snapshot(),
            files: self.files.clone(),
            logs: self.logs.clone(),
            zone_free: self.zone.free.clone(),
        }
    }

    /// Drains the automatically captured crash images.
    pub fn take_crash_images(&mut self) -> Vec<CrashImage> {
        std::mem::take(&mut self.crash_images)
    }

    /// Rolls the store back to `img`, as if power was cut at that
    /// boundary and the machine rebooted. Callers must rebuild any state
    /// layered above (version set, placement allocator) afterwards — see
    /// `sealdb::Store`'s crash-recovery constructor.
    pub(crate) fn restore_crash_image(&mut self, img: &CrashImage) {
        self.disk.restore(&img.disk);
        self.held.clear();
        self.files = img.files.clone();
        self.logs = img.logs.clone();
        self.zone.free = img.zone_free.clone();
        self.crash_images.clear();
    }

    /// All registered table files and their extents (recovery/rebuild).
    pub fn file_extents(&self) -> Vec<(FileId, Extent)> {
        let mut v: Vec<(FileId, Extent)> = self.files.iter().map(|(&id, &e)| (id, e)).collect();
        v.sort_unstable_by_key(|&(id, _)| id);
        v
    }

    /// First byte of the log zone (data allocators must stay below this).
    pub fn data_capacity(&self) -> u64 {
        self.zone.base
    }

    /// The underlying disk.
    pub fn disk(&self) -> &Disk {
        &self.disk
    }

    /// Mutable access to the underlying disk (stats, traces, clock).
    pub fn disk_mut(&mut self) -> &mut Disk {
        &mut self.disk
    }

    // ----- table files -----

    /// Writes `data` at `ext` and registers it as file `id`. The extent
    /// comes from a placement policy's allocator.
    pub fn write_file_at(
        &mut self,
        id: FileId,
        ext: Extent,
        data: &[u8],
        kind: IoKind,
    ) -> Result<()> {
        debug_assert_eq!(ext.len as usize, data.len());
        self.drain_held()?;
        self.disk.set_trace_file(id);
        self.disk.write(ext, data, kind)?;
        self.files.insert(id, ext);
        self.maybe_capture_crash_image();
        Ok(())
    }

    /// Registers a file without writing (recovery path).
    pub fn register_file(&mut self, id: FileId, ext: Extent) {
        self.files.insert(id, ext);
    }

    /// Writes `data` at `offset` within an already-registered file.
    /// Incremental-append path for log-structured files (the value log):
    /// each write lands at a fresh offset inside the file's extent, so on
    /// a host-managed SMR layout it is a legal sequential append as long
    /// as callers never rewrite a covered range.
    ///
    /// With a hold limit set, appends are held back in memory like the
    /// WAL's unsynced tail and reach the device as one write: when the
    /// file's held bytes reach the limit, when the next append to the
    /// file does not continue them, and before any other device write
    /// ([`FileStore::write_file_at`], [`FileStore::log_append`], a WAL
    /// sync). Pointers to these bytes become durable only through those
    /// writes, so none can outlive its record in a crash. A file whose
    /// drain failed takes no further appends.
    pub fn write_file_range(
        &mut self,
        id: FileId,
        offset: u64,
        data: &[u8],
        kind: IoKind,
    ) -> Result<()> {
        let ext = self.file_extent(id)?;
        if offset + data.len() as u64 > ext.len {
            return Err(Error::InvalidArgument(format!(
                "write past end of file {id}: {offset}+{} > {}",
                data.len(),
                ext.len
            )));
        }
        if self.hold_limit == 0 {
            self.disk.set_trace_file(id);
            self.disk.write(
                Extent::new(ext.offset + offset, data.len() as u64),
                data,
                kind,
            )?;
            self.maybe_capture_crash_image();
            return Ok(());
        }
        if self
            .held
            .get(&id)
            .is_some_and(|h| h.failed.is_some() || h.end() != offset)
        {
            self.drain(id)?;
        }
        let capacity = self.hold_limit + data.len();
        let held = self.held.entry(id).or_insert_with(|| Held {
            offset,
            bytes: Vec::with_capacity(capacity),
            kind,
            failed: None,
        });
        held.bytes.extend_from_slice(data);
        if held.bytes.len() >= self.hold_limit {
            self.drain(id)?;
        }
        Ok(())
    }

    /// Writes file `id`'s held bytes to the device in one write. A
    /// failed drain keeps the bytes (readable from memory) and is never
    /// retried: every later drain of the file fails the same way.
    fn drain(&mut self, id: FileId) -> Result<()> {
        let (Some(held), Some(file)) = (self.held.get_mut(&id), self.files.get(&id)) else {
            return Ok(());
        };
        if let Some(err) = &held.failed {
            return Err(err.clone().into());
        }
        self.disk.set_trace_file(id);
        let ext = Extent::new(file.offset + held.offset, held.bytes.len() as u64);
        if let Err(err) = self.disk.write(ext, &held.bytes, held.kind) {
            held.failed = Some(err.clone());
            return Err(err.into());
        }
        self.held.remove(&id);
        self.disk
            .obs_mut()
            .counter_add(ObsLayer::ValueLog, "held_drains", 1);
        self.maybe_capture_crash_image();
        Ok(())
    }

    /// Drains every file's held bytes, lowest file id first.
    pub(crate) fn drain_held(&mut self) -> Result<()> {
        let ids: Vec<FileId> = self.held.keys().copied().collect();
        ids.into_iter().try_for_each(|id| self.drain(id))
    }

    /// Forgets every held byte, as a crash does.
    pub(crate) fn discard_held(&mut self) {
        self.held.clear();
    }

    /// Bytes appended but still held back from the device.
    pub fn held_bytes(&self) -> u64 {
        self.held.values().map(|h| h.bytes.len() as u64).sum()
    }

    /// The extent a file occupies.
    pub fn file_extent(&self, id: FileId) -> Result<Extent> {
        self.files
            .get(&id)
            .copied()
            .ok_or_else(|| Error::InvalidArgument(format!("unknown file {id}")))
    }

    /// Whether file `next` starts on the device exactly where file `prev`
    /// ends, so that one sequential sweep covers both. Unknown ids are
    /// not adjacent to anything.
    pub(crate) fn file_follows(&self, prev: FileId, next: FileId) -> bool {
        match (self.files.get(&prev), self.files.get(&next)) {
            (Some(prev), Some(next)) => prev.end() == next.offset,
            _ => false,
        }
    }

    /// Reads the files of `run`, each starting on the device where the one
    /// before it ends ([`FileStore::file_follows`]), in one sequential
    /// access with the usual retry budget: the bytes from the first
    /// file's start to the last one's end.
    pub(crate) fn read_run(&mut self, run: &[FileId], kind: IoKind) -> Result<Vec<u8>> {
        let (Some(&first), Some(&last)) = (run.first(), run.last()) else {
            return Ok(Vec::new());
        };
        if let Some(w) = run.windows(2).find(|w| !self.file_follows(w[0], w[1])) {
            return Err(Error::InvalidArgument(format!(
                "file {} does not start where file {} ends",
                w[1], w[0]
            )));
        }
        let start = self.file_extent(first)?.offset;
        let end = self.file_extent(last)?.end();
        self.disk.set_trace_file(first);
        self.read_disk_retrying(Extent::new(start, end - start), kind)
    }

    /// Whether a file id is registered.
    pub fn has_file(&self, id: FileId) -> bool {
        self.files.contains_key(&id)
    }

    /// Reads `len` bytes at `offset` within file `id`.
    pub fn read_file(
        &mut self,
        id: FileId,
        offset: u64,
        len: u64,
        kind: IoKind,
    ) -> Result<Vec<u8>> {
        let ext = self.file_extent(id)?;
        // Offsets and lengths reach here from on-disk block handles.
        if offset.checked_add(len).is_none_or(|end| end > ext.len) {
            return Err(Error::InvalidArgument(format!(
                "read past end of file {id}: {offset}+{len} > {}",
                ext.len
            )));
        }
        if let Some(held) = self.held.get(&id) {
            let end = offset + len;
            if offset >= held.offset && end <= held.end() {
                let at = (offset - held.offset) as usize;
                let bytes = held.bytes[at..at + len as usize].to_vec();
                self.disk
                    .obs_mut()
                    .counter_add(ObsLayer::ValueLog, "held_read_hits", 1);
                return Ok(bytes);
            }
            if offset < held.end() && end > held.offset {
                self.drain(id)?;
            }
        }
        self.disk.set_trace_file(id);
        self.read_disk_retrying(Extent::new(ext.offset + offset, len), kind)
    }

    /// Reads a whole file in one sequential access.
    pub fn read_full(&mut self, id: FileId, kind: IoKind) -> Result<Vec<u8>> {
        let ext = self.file_extent(id)?;
        self.drain(id)?;
        self.disk.set_trace_file(id);
        self.read_disk_retrying(ext, kind)
    }

    /// Unregisters a file and invalidates its bytes on disk, returning the
    /// extent so the placement policy can recycle it when appropriate.
    pub fn drop_file(&mut self, id: FileId) -> Result<Extent> {
        let ext = self
            .files
            .remove(&id)
            .ok_or_else(|| Error::InvalidArgument(format!("unknown file {id}")))?;
        self.held.remove(&id);
        self.disk.set_trace_file(id);
        self.disk.invalidate(ext);
        Ok(ext)
    }

    // ----- conventional-zone logs -----

    /// Creates an empty log file.
    pub fn create_log(&mut self, id: FileId) -> Result<()> {
        if self.logs.contains_key(&id) {
            return Err(Error::InvalidArgument(format!("log {id} already exists")));
        }
        self.logs.insert(
            id,
            LogFile {
                chunks: Vec::new(),
                len: 0,
            },
        );
        Ok(())
    }

    /// Whether a log id exists.
    pub fn has_log(&self, id: FileId) -> bool {
        self.logs.contains_key(&id)
    }

    /// Appends bytes to a log file, after any held file bytes
    /// ([`FileStore::write_file_range`]).
    pub fn log_append(&mut self, id: FileId, data: &[u8], kind: IoKind) -> Result<()> {
        self.drain_held()?;
        // Gather the chunk-spanning pieces first so `self` isn't borrowed
        // across the disk writes.
        let (mut len, mut chunks_needed) = {
            let log = self
                .logs
                .get(&id)
                .ok_or_else(|| Error::InvalidArgument(format!("unknown log {id}")))?;
            (log.len, Vec::new())
        };
        let mut pos = 0usize;
        let mut pieces: Vec<(u64, usize, usize)> = Vec::new(); // (disk offset, start, end)
        {
            let log = self
                .logs
                .get(&id)
                .ok_or_else(|| Error::InvalidArgument(format!("unknown log {id}")))?;
            let mut chunk_list = log.chunks.clone();
            while pos < data.len() {
                let within = len % LOG_CHUNK;
                let chunk_idx_in_file = (len / LOG_CHUNK) as usize;
                if chunk_idx_in_file == chunk_list.len() {
                    let chunk = self
                        .zone
                        .free
                        .iter()
                        .next()
                        .copied()
                        .ok_or_else(|| Error::InvalidArgument("log zone full".into()))?;
                    self.zone.free.remove(&chunk);
                    chunks_needed.push(chunk);
                    chunk_list.push(chunk);
                }
                let chunk = chunk_list[chunk_idx_in_file];
                let n = ((LOG_CHUNK - within) as usize).min(data.len() - pos);
                pieces.push((self.zone.chunk_addr(chunk) + within, pos, pos + n));
                pos += n;
                len += n as u64;
            }
        }
        let mut torn: Option<(usize, Error)> = None;
        for (off, s, e) in pieces {
            self.disk.set_trace_file(id);
            match self
                .disk
                .write_conventional(Extent::new(off, (e - s) as u64), &data[s..e], kind)
            {
                Ok(()) => {}
                Err(err @ smr_sim::DiskError::TornWrite { .. }) => {
                    // The drive acknowledged this piece before dying: the
                    // log's metadata (journalled ahead of the data, like a
                    // filesystem extending the file) covers it, so reopen
                    // sees a torn tail the record CRCs must catch.
                    torn = Some((e, err.into()));
                    break;
                }
                Err(err) => return Err(err.into()),
            }
        }
        if let Some((acked, err)) = torn {
            let log = self
                .logs
                .get_mut(&id)
                .ok_or_else(|| Error::InvalidArgument(format!("unknown log {id}")))?;
            let new_len = log.len + acked as u64;
            let covering = new_len.div_ceil(LOG_CHUNK) as usize;
            for chunk in chunks_needed {
                if log.chunks.len() < covering {
                    log.chunks.push(chunk);
                } else {
                    // Allocated for pieces past the torn one; never
                    // acknowledged, so the metadata never learned of them.
                    self.zone.free.insert(chunk);
                }
            }
            log.len = new_len;
            return Err(err);
        }
        let log = self
            .logs
            .get_mut(&id)
            .ok_or_else(|| Error::InvalidArgument(format!("unknown log {id}")))?;
        log.chunks.extend(chunks_needed);
        log.len = len;
        self.maybe_capture_crash_image();
        Ok(())
    }

    /// Reads a log file's full contents.
    pub(crate) fn log_read_all(&mut self, id: FileId, kind: IoKind) -> Result<Vec<u8>> {
        let (chunks, len) = {
            let log = self
                .logs
                .get(&id)
                .ok_or_else(|| Error::InvalidArgument(format!("unknown log {id}")))?;
            (log.chunks.clone(), log.len)
        };
        let mut out = Vec::with_capacity(len as usize);
        let mut remaining = len;
        for chunk in chunks {
            let n = remaining.min(LOG_CHUNK);
            self.disk.set_trace_file(id);
            let addr = self.zone.chunk_addr(chunk);
            let piece = self.read_disk_retrying(Extent::new(addr, n), kind)?;
            out.extend_from_slice(&piece);
            remaining -= n;
        }
        Ok(out)
    }

    /// Length of a log file in bytes.
    pub fn log_len(&self, id: FileId) -> Result<u64> {
        self.logs
            .get(&id)
            .map(|l| l.len)
            .ok_or_else(|| Error::InvalidArgument(format!("unknown log {id}")))
    }

    /// Deletes a log file and recycles its chunks.
    pub fn delete_log(&mut self, id: FileId) -> Result<()> {
        let log = self
            .logs
            .remove(&id)
            .ok_or_else(|| Error::InvalidArgument(format!("unknown log {id}")))?;
        for chunk in log.chunks {
            self.disk
                .invalidate(Extent::new(self.zone.chunk_addr(chunk), LOG_CHUNK));
            self.zone.free.insert(chunk);
        }
        Ok(())
    }

    /// Ids of all logs currently present.
    pub(crate) fn log_ids(&self) -> Vec<FileId> {
        let mut ids: Vec<FileId> = self.logs.keys().copied().collect();
        ids.sort_unstable();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smr_sim::{Layout, TimeModel, TraceDir};

    const MB: u64 = 1 << 20;

    fn fs() -> FileStore {
        let cap = 256 * MB;
        let disk = Disk::new(
            cap,
            Layout::RawHmSmr { guard_bytes: MB },
            TimeModel::smr_st5000as0011(cap),
        );
        FileStore::new(disk, 16 * MB)
    }

    #[test]
    fn file_roundtrip() {
        let mut s = fs();
        let data = vec![0x5A; 1 << 16];
        s.write_file_at(7, Extent::new(0, data.len() as u64), &data, IoKind::Flush)
            .unwrap();
        assert!(s.has_file(7));
        assert_eq!(s.read_full(7, IoKind::Get).unwrap(), data);
        assert_eq!(
            s.read_file(7, 100, 16, IoKind::Get).unwrap(),
            vec![0x5A; 16]
        );
        let ext = s.drop_file(7).unwrap();
        assert_eq!(ext, Extent::new(0, 1 << 16));
        assert!(!s.has_file(7));
        assert!(s.read_full(7, IoKind::Get).is_err());
    }

    #[test]
    fn file_range_appends_incrementally() {
        let mut s = fs();
        // Register a band-sized extent up front, then append into it in
        // pieces — the value-log write pattern.
        s.register_file(9, Extent::new(0, 1 << 16));
        s.write_file_range(9, 0, &[1u8; 100], IoKind::VlogAppend)
            .unwrap();
        s.write_file_range(9, 100, &[2u8; 200], IoKind::VlogAppend)
            .unwrap();
        assert_eq!(s.read_file(9, 0, 100, IoKind::Get).unwrap(), vec![1u8; 100]);
        assert_eq!(
            s.read_file(9, 100, 200, IoKind::Get).unwrap(),
            vec![2u8; 200]
        );
        // The unwritten tail reads as an error, not garbage — the torn-
        // tail scan depends on this terminating deterministically.
        assert!(s.read_file(9, 300, 64, IoKind::Get).is_err());
        // Writes past the registered extent are rejected.
        assert!(s
            .write_file_range(9, (1 << 16) - 10, &[0u8; 20], IoKind::VlogAppend)
            .is_err());
    }

    #[test]
    fn file_follows_is_exact_and_directed() {
        let mut s = fs();
        s.register_file(1, Extent::new(0, 4096));
        s.register_file(2, Extent::new(4096, 100));
        s.register_file(3, Extent::new(4197, 100)); // one byte of gap
        assert!(s.file_follows(1, 2));
        assert!(!s.file_follows(2, 1));
        assert!(!s.file_follows(2, 3));
        assert!(!s.file_follows(1, 9) && !s.file_follows(9, 1));
    }

    #[test]
    fn read_past_end_rejected() {
        let mut s = fs();
        s.write_file_at(1, Extent::new(0, 8), &[1; 8], IoKind::Flush)
            .unwrap();
        assert!(s.read_file(1, 4, 8, IoKind::Get).is_err());
    }

    #[test]
    fn log_append_read_roundtrip() {
        let mut s = fs();
        s.create_log(100).unwrap();
        let a: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
        s.log_append(100, &a, IoKind::Wal).unwrap();
        let b = vec![9u8; 600 * 1024]; // spans multiple chunks
        s.log_append(100, &b, IoKind::Wal).unwrap();
        let all = s.log_read_all(100, IoKind::Meta).unwrap();
        assert_eq!(all.len(), a.len() + b.len());
        assert_eq!(&all[..a.len()], &a[..]);
        assert_eq!(&all[a.len()..], &b[..]);
        assert_eq!(s.log_len(100).unwrap(), (a.len() + b.len()) as u64);
    }

    #[test]
    fn log_delete_recycles_chunks() {
        let mut s = fs();
        let before = s.zone.free.len();
        s.create_log(5).unwrap();
        s.log_append(5, &vec![1u8; 1 << 20], IoKind::Wal).unwrap();
        assert!(s.zone.free.len() < before);
        s.delete_log(5).unwrap();
        assert_eq!(s.zone.free.len(), before);
        assert!(!s.has_log(5));
    }

    #[test]
    fn log_zone_is_isolated_from_data() {
        let s = fs();
        assert_eq!(s.data_capacity(), 240 * MB);
        assert_eq!(s.zone.free.len(), 64, "a fresh zone is all free chunks");
    }

    #[test]
    fn duplicate_log_rejected() {
        let mut s = fs();
        s.create_log(1).unwrap();
        assert!(s.create_log(1).is_err());
    }

    #[test]
    fn transient_read_is_retried_once() {
        let mut s = fs();
        let data = vec![0x5A; 4096];
        s.write_file_at(7, Extent::new(0, 4096), &data, IoKind::Flush)
            .unwrap();
        s.disk_mut().faults_mut().fail_reads_transiently(2);
        // The retry is internal: the caller just sees a successful read.
        assert_eq!(s.read_full(7, IoKind::Get).unwrap(), data);
        assert_eq!(s.disk().stats().faults.transient_read_errors, 1);
        assert_eq!(s.disk().stats().faults.read_retries, 1);
    }

    #[test]
    fn log_read_retries_transient_errors() {
        let mut s = fs();
        s.create_log(100).unwrap();
        let payload = vec![3u8; 300 * 1024]; // spans two chunks
        s.log_append(100, &payload, IoKind::Wal).unwrap();
        s.disk_mut().faults_mut().fail_reads_transiently(4);
        assert_eq!(s.log_read_all(100, IoKind::Meta).unwrap(), payload);
        assert_eq!(s.disk().stats().faults.read_retries, 2);
    }

    #[test]
    fn retry_backoff_is_charged_to_the_simulated_clock() {
        let mut s = fs();
        let data = vec![0x5A; 4096];
        s.write_file_at(7, Extent::new(0, 4096), &data, IoKind::Flush)
            .unwrap();
        let quiet = {
            let t0 = s.disk().clock_ns();
            s.read_full(7, IoKind::Get).unwrap();
            s.disk().clock_ns() - t0
        };
        s.disk_mut().faults_mut().fail_reads_transiently(1);
        let t0 = s.disk().clock_ns();
        assert_eq!(s.read_full(7, IoKind::Get).unwrap(), data);
        let retried = s.disk().clock_ns() - t0;
        assert!(
            retried >= quiet + super::READ_RETRY_BACKOFF_NS,
            "retry must cost at least one backoff: {retried} vs {quiet}"
        );
    }

    #[test]
    fn unrecoverable_read_is_not_retried() {
        let mut s = fs();
        let data = vec![0x5A; 4096];
        s.write_file_at(7, Extent::new(0, 4096), &data, IoKind::Flush)
            .unwrap();
        s.disk_mut()
            .faults_mut()
            .fail_reads_permanently(Extent::new(0, 4096));
        let err = s.read_full(7, IoKind::Get).unwrap_err();
        assert!(err.to_string().contains("unrecoverable"), "got {err}");
        // The retry budget stays unconsumed: retries cannot help.
        assert_eq!(s.disk().stats().faults.read_retries, 0);
        assert_eq!(s.disk().stats().faults.unrecoverable_reads, 1);
    }

    #[test]
    fn crash_image_restores_files_and_logs() {
        let mut s = fs();
        s.write_file_at(7, Extent::new(0, 64), &[1u8; 64], IoKind::Flush)
            .unwrap();
        s.create_log(100).unwrap();
        s.log_append(100, &[2u8; 100], IoKind::Wal).unwrap();
        let img = s.crash_image();
        // Diverge: new file, more log data, drop the original file.
        s.write_file_at(8, Extent::new(4096, 64), &[3u8; 64], IoKind::Flush)
            .unwrap();
        s.log_append(100, &[4u8; 100], IoKind::Wal).unwrap();
        s.drop_file(7).unwrap();
        s.restore_crash_image(&img);
        assert!(s.has_file(7));
        assert!(!s.has_file(8));
        assert_eq!(s.read_full(7, IoKind::Get).unwrap(), vec![1u8; 64]);
        assert_eq!(s.log_len(100).unwrap(), 100);
        assert_eq!(s.log_read_all(100, IoKind::Meta).unwrap(), vec![2u8; 100]);
    }

    #[test]
    fn auto_crash_images_fire_at_op_boundaries() {
        let mut s = fs();
        s.disk_mut().faults_mut().snapshot_every(2);
        for i in 0..5u64 {
            s.write_file_at(i, Extent::new(i * 4096, 64), &[i as u8; 64], IoKind::Flush)
                .unwrap();
        }
        let images = s.take_crash_images();
        assert_eq!(images.len(), 2, "cadence 2 over 5 writes");
        assert!(s.take_crash_images().is_empty());
        // Restoring the first image rolls back to exactly two files.
        s.restore_crash_image(&images[0]);
        assert_eq!(s.files.len(), 2);
        assert!(s.has_file(0) && s.has_file(1) && !s.has_file(2));
    }

    #[test]
    fn wal_bytes_are_accounted() {
        let mut s = fs();
        s.create_log(1).unwrap();
        s.log_append(1, &[7u8; 4096], IoKind::Wal).unwrap();
        assert_eq!(s.disk().stats().kind(IoKind::Wal).logical_written, 4096);
    }

    /// A store holding value-log appends back, with file 9 registered
    /// as a 64 KiB segment and tracing on.
    fn holding(limit: usize) -> FileStore {
        let mut s = fs();
        s.set_hold_limit(limit);
        s.register_file(9, Extent::new(0, 1 << 16));
        s.disk_mut().trace_mut().set_enabled(true);
        s
    }

    /// The traced device writes as `(file, kind, length)`.
    fn writes(s: &FileStore) -> Vec<(u64, IoKind, u64)> {
        s.disk()
            .trace()
            .events()
            .iter()
            .filter(|e| e.dir == smr_sim::TraceDir::Write)
            .map(|e| (e.file, e.kind, e.ext.len))
            .collect()
    }

    #[test]
    fn held_appends_are_read_back_from_memory_at_no_device_cost() {
        let mut s = holding(1024);
        s.write_file_range(9, 0, &[1u8; 100], IoKind::VlogAppend)
            .unwrap();
        s.write_file_range(9, 100, &[2u8; 200], IoKind::VlogAppend)
            .unwrap();
        let t0 = s.disk().clock_ns();
        assert_eq!(s.read_file(9, 100, 200, IoKind::Get).unwrap(), [2u8; 200]);
        assert_eq!(
            s.read_file(9, 50, 100, IoKind::Get).unwrap()[49..51],
            [1, 2]
        );
        assert_eq!(s.disk().clock_ns(), t0, "no device time");
        assert!(s.disk().trace().events().is_empty(), "no device op");
        assert_eq!(s.held_bytes(), 300);
        let obs = s
            .disk()
            .obs()
            .registry
            .counter(ObsLayer::ValueLog, "held_read_hits");
        assert_eq!(obs, 2);
        // Reaching the limit drains everything held as one write; a
        // non-contiguous append drains first, then holds.
        s.write_file_range(9, 300, &[3u8; 800], IoKind::VlogAppend)
            .unwrap();
        s.write_file_range(9, 1200, &[4u8; 10], IoKind::VlogAppend)
            .unwrap();
        s.write_file_range(9, 2000, &[5u8; 10], IoKind::VlogAppend)
            .unwrap();
        assert_eq!(
            writes(&s),
            [(9, IoKind::VlogAppend, 1100), (9, IoKind::VlogAppend, 10)]
        );
        assert_eq!(s.held_bytes(), 10);
        assert_eq!(
            s.disk()
                .obs()
                .registry
                .counter(ObsLayer::ValueLog, "held_drains"),
            2
        );
    }

    #[test]
    fn any_other_device_write_drains_held_bytes_first() {
        let mut s = holding(1 << 16);
        s.create_log(100).unwrap();
        s.write_file_range(9, 0, &[1u8; 64], IoKind::VlogAppend)
            .unwrap();
        s.log_append(100, &[2u8; 32], IoKind::Wal).unwrap();
        s.write_file_range(9, 64, &[3u8; 64], IoKind::VlogAppend)
            .unwrap();
        s.write_file_at(7, Extent::new(64 << 20, 16), &[4u8; 16], IoKind::Flush)
            .unwrap();
        s.write_file_range(9, 128, &[5u8; 64], IoKind::VlogAppend)
            .unwrap();
        s.drain_held().unwrap();
        assert_eq!(
            writes(&s),
            [
                (9, IoKind::VlogAppend, 64),
                (100, IoKind::Wal, 32),
                (9, IoKind::VlogAppend, 64),
                (7, IoKind::Flush, 16),
                (9, IoKind::VlogAppend, 64),
            ]
        );
        assert_eq!(s.held_bytes(), 0);
        assert_eq!(
            s.read_file(9, 64, 128, IoKind::Get).unwrap()[63..65],
            [3, 5]
        );
    }

    #[test]
    fn a_crash_loses_held_bytes_and_so_does_a_dropped_file() {
        let mut s = holding(1 << 16);
        s.write_file_range(9, 0, &[1u8; 64], IoKind::VlogAppend)
            .unwrap();
        let img = s.crash_image();
        s.write_file_range(9, 64, &[2u8; 64], IoKind::VlogAppend)
            .unwrap();
        s.restore_crash_image(&img);
        assert_eq!(s.held_bytes(), 0);
        assert!(s.read_file(9, 0, 64, IoKind::Get).is_err(), "never written");
        // The image itself never saw the held bytes either.
        s.write_file_range(9, 0, &[3u8; 64], IoKind::VlogAppend)
            .unwrap();
        s.discard_held();
        assert!(s.read_file(9, 0, 64, IoKind::Get).is_err());
        s.write_file_range(9, 0, &[4u8; 64], IoKind::VlogAppend)
            .unwrap();
        s.drop_file(9).unwrap();
        assert_eq!(s.held_bytes(), 0);
        s.drain_held().unwrap();
        assert!(
            writes(&s).is_empty(),
            "nothing held ever reached the device"
        );
    }

    #[test]
    fn a_read_partly_over_held_bytes_drains_them_first() {
        let mut s = holding(1 << 16);
        s.write_file_range(9, 0, &[1u8; 100], IoKind::VlogAppend)
            .unwrap();
        s.drain_held().unwrap();
        s.write_file_range(9, 100, &[2u8; 100], IoKind::VlogAppend)
            .unwrap();
        // Wholly on the device: read as ever, the held bytes stay.
        assert_eq!(s.read_file(9, 0, 100, IoKind::Get).unwrap(), [1u8; 100]);
        assert_eq!(s.held_bytes(), 100);
        let got = s.read_file(9, 50, 100, IoKind::Get).unwrap();
        assert_eq!((got[0], got[49], got[50], got[99]), (1, 1, 2, 2));
        assert_eq!(s.held_bytes(), 0);
        let trace: Vec<(TraceDir, u64, u64)> = s
            .disk()
            .trace()
            .events()
            .iter()
            .map(|e| (e.dir, e.ext.offset, e.ext.len))
            .collect();
        assert_eq!(
            trace,
            [
                (TraceDir::Write, 0, 100),
                (TraceDir::Read, 0, 100),
                (TraceDir::Write, 100, 100),
                (TraceDir::Read, 50, 100),
            ]
        );
    }

    #[test]
    fn a_failed_drain_keeps_its_bytes_readable_and_blocks_later_writes() {
        let mut s = holding(1 << 16);
        s.create_log(100).unwrap();
        s.write_file_range(9, 0, &[1u8; 64], IoKind::VlogAppend)
            .unwrap();
        s.disk_mut().faults_mut().tear_write_after(0);
        assert!(s.log_append(100, &[2u8; 32], IoKind::Wal).is_err());
        s.disk_mut().faults_mut().disarm_torn_writes();
        assert_eq!(s.log_len(100).unwrap(), 0, "the log write never ran");
        assert_eq!(s.read_file(9, 0, 64, IoKind::Get).unwrap(), [1u8; 64]);
        // Nothing that could make a pointer to these bytes durable
        // reaches the device, and the file takes no further appends.
        assert!(s.log_append(100, &[2u8; 32], IoKind::Wal).is_err());
        assert!(s
            .write_file_at(7, Extent::new(64 << 20, 16), &[4u8; 16], IoKind::Flush)
            .is_err());
        assert!(s
            .write_file_range(9, 64, &[3u8; 8], IoKind::VlogAppend)
            .is_err());
        assert_eq!(s.disk().stats().faults.torn_writes, 1);
        // A restart forgets them, and writes flow again.
        s.discard_held();
        s.log_append(100, &[2u8; 32], IoKind::Wal).unwrap();
    }

    #[test]
    fn without_a_hold_limit_appends_write_through() {
        let mut s = holding(0);
        s.write_file_range(9, 0, &[1u8; 64], IoKind::VlogAppend)
            .unwrap();
        assert_eq!(s.held_bytes(), 0);
        assert_eq!(writes(&s), [(9, IoKind::VlogAppend, 64)]);
    }
}
