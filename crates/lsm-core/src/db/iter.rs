//! Level-concatenating and user-facing database iterators.

use crate::context::{get_table, SharedCtx};
use crate::error::{Error, Result};
use crate::iterator::{InternalIterator, MergingIterator};
use crate::sstable::TableIterator;
use crate::types::{
    internal_compare, lookup_key, try_parse_trailer, user_key, SequenceNumber, ValueType,
};
use crate::version::FileMetaHandle;
use smr_sim::{IoKind, ObsLayer};
use std::cmp::Ordering;

/// Iterates a sorted, disjoint level by opening one table at a time —
/// LevelDB's "concatenating" iterator. Keeps merging fan-in at one child
/// per level regardless of file counts.
///
/// Driving a compaction (`IoKind::CompactionRead`) or a user scan
/// (`IoKind::Scan`), it also keeps a physically contiguous run of tables
/// one device stream: see `LevelIterator::bridge_to_next`.
#[derive(Debug)]
pub struct LevelIterator {
    ctx: SharedCtx,
    files: Vec<FileMetaHandle>,
    kind: IoKind,
    idx: usize,
    cur: Option<TableIterator>,
    /// Set by [`LevelIterator::with_cache`].
    use_cache: bool,
    /// Set by [`LevelIterator::streaming`].
    streams: bool,
    error: Option<Error>,
}

impl LevelIterator {
    /// Creates an iterator over `files` (sorted by key, non-overlapping).
    pub fn new(ctx: SharedCtx, files: Vec<FileMetaHandle>, kind: IoKind) -> Self {
        LevelIterator {
            ctx,
            files,
            kind,
            idx: 0,
            cur: None,
            use_cache: true,
            streams: false,
            error: None,
        }
    }

    /// Passes `on` to every table iterator this opens
    /// (`TableIterator::with_cache`).
    pub(crate) fn with_cache(mut self, on: bool) -> Self {
        self.use_cache = on;
        self
    }

    /// Makes every table iterator this opens keep its device stream off
    /// the block cache (`TableIterator::streaming`); a bridged boundary
    /// carries the stream into the next table, whose first block the
    /// bridge read has put at the head. A user scan sets it on the
    /// deepest level, whose child is the stream of the merge.
    pub(crate) fn streaming(mut self) -> Self {
        self.streams = true;
        self
    }

    /// Opens the table at `idx`; `on_device` says the device stream has
    /// reached its first block (a bridged boundary).
    fn open_current(&mut self, on_device: bool) {
        self.stash_cur_error();
        self.cur = None;
        let Some(f) = self.files.get(self.idx) else {
            return;
        };
        match get_table(&self.ctx, f.id, f.size) {
            Ok(table) => {
                let it = table
                    .iter(self.ctx.clone(), self.kind)
                    .with_cache(self.use_cache);
                self.cur = Some(if self.streams {
                    it.streaming(on_device)
                } else {
                    it
                });
            }
            Err(e) => self.error = Some(e),
        }
    }

    /// Preserves the current table iterator's deferred error before the
    /// iterator is replaced or dropped — a block-read failure turns a
    /// table iterator invalid, which `skip_exhausted` would otherwise
    /// mistake for a cleanly finished file and silently skip past.
    fn stash_cur_error(&mut self) {
        if let Some(e) = self.cur.as_mut().and_then(|c| c.take_error()) {
            self.error.get_or_insert(e);
        }
    }

    /// Set-run streaming. Between the last data block of the table being
    /// left and the first of its successor lie this table's filter, index
    /// and footer; skipping them ends the drive's sequential stream, and
    /// the successor's first block pays a seek and half a rotation. When
    /// the successor starts exactly where this table's extent ends, read
    /// through that tail instead, so stream and head arrive at the next
    /// table and the run is consumed as one sweep. The bytes are dropped
    /// unparsed — the open reader already holds this table's metadata —
    /// and so is a failed read: the next block then pays the seek it
    /// would have paid anyway, and the merge cannot depend on bytes it
    /// does not use. With no adjacent successor nothing extra is read.
    /// Compactions and user scans bridge; a point read never leaves its
    /// table. Returns whether the tail was read.
    fn bridge_to_next(&mut self) -> bool {
        let counter = match self.kind {
            IoKind::CompactionRead => "compaction.bridged_bytes",
            IoKind::Scan => "scan.bridged_bytes",
            _ => return false,
        };
        let (Some(from), Some(next)) = (self.files.get(self.idx), self.files.get(self.idx + 1))
        else {
            return false;
        };
        let Some((offset, len)) = self.cur.as_ref().and_then(|c| c.unread_tail()) else {
            return false;
        };
        let mut guard = self.ctx.lock();
        let bridged = guard.fs.file_follows(from.id, next.id)
            && guard.fs.read_file(from.id, offset, len, self.kind).is_ok();
        if bridged {
            guard
                .fs
                .disk_mut()
                .obs_mut()
                .counter_add(ObsLayer::Lsm, counter, len);
        }
        bridged
    }

    fn skip_exhausted(&mut self) {
        while self.cur.as_ref().is_some_and(|c| !c.valid()) {
            let bridged = self.bridge_to_next();
            self.idx += 1;
            if self.idx >= self.files.len() {
                self.stash_cur_error();
                self.cur = None;
                return;
            }
            self.open_current(bridged);
            if let Some(c) = self.cur.as_mut() {
                c.seek_to_first();
            }
        }
    }
}

impl InternalIterator for LevelIterator {
    fn valid(&self) -> bool {
        self.cur.as_ref().is_some_and(|c| c.valid())
    }

    fn seek_to_first(&mut self) {
        self.idx = 0;
        self.open_current(false);
        if let Some(c) = self.cur.as_mut() {
            c.seek_to_first();
        }
        self.skip_exhausted();
    }

    fn seek(&mut self, target: &[u8]) {
        self.idx = self
            .files
            .partition_point(|f| internal_compare(&f.largest, target) == Ordering::Less);
        self.open_current(false);
        if let Some(c) = self.cur.as_mut() {
            c.seek(target);
        }
        self.skip_exhausted();
    }

    fn next(&mut self) {
        debug_assert!(self.valid());
        if let Some(c) = self.cur.as_mut() {
            c.next();
        }
        self.skip_exhausted();
    }

    fn key(&self) -> &[u8] {
        self.cur.as_ref().expect("valid iterator").key()
    }

    fn value(&self) -> &[u8] {
        self.cur.as_ref().expect("valid iterator").value()
    }

    fn take_error(&mut self) -> Option<Error> {
        self.error
            .take()
            .or_else(|| self.cur.as_mut().and_then(|c| c.take_error()))
    }
}

/// The user-facing iterator: merges all sources and resolves versions —
/// newest visible entry per user key, tombstones hide older values.
#[derive(Debug)]
pub struct DbIterator<'a> {
    inner: MergingIterator<'a>,
    snapshot: SequenceNumber,
}

impl<'a> DbIterator<'a> {
    /// Wraps a merging iterator at the given snapshot.
    pub fn new(inner: MergingIterator<'a>, snapshot: SequenceNumber) -> Self {
        DbIterator { inner, snapshot }
    }

    /// Positions before the first user key >= `ukey`.
    pub fn seek(&mut self, ukey: &[u8]) {
        self.inner.seek(&lookup_key(ukey, self.snapshot));
    }

    /// Produces the next visible (user key, value) pair, or `None` at the
    /// end. A trailer that fails to parse means a corrupt entry slipped
    /// past the block CRC: that is `Err(Corruption)`, as on the point-read
    /// path, never a row silently skipped.
    fn next_entry(&mut self) -> Result<Option<(Vec<u8>, Vec<u8>)>> {
        while self.inner.valid() {
            let (seq, ty) = try_parse_trailer(self.inner.key())?;
            if seq > self.snapshot {
                self.inner.next();
                continue;
            }
            let ukey = user_key(self.inner.key()).to_vec();
            let value = match ty {
                ValueType::Value => Some(self.inner.value().to_vec()),
                ValueType::Deletion => None,
            };
            // Skip every older version of this user key.
            loop {
                self.inner.next();
                if !self.inner.valid() || user_key(self.inner.key()) != ukey.as_slice() {
                    break;
                }
            }
            if let Some(value) = value {
                return Ok(Some((ukey, value)));
            }
        }
        Ok(None)
    }

    /// Collects up to `limit` entries from the current position. A source
    /// that failed a read went invalid, which looks exactly like one that
    /// reached its end, so its deferred error is taken afterwards and
    /// returned in place of the rows: a scan is complete or it is `Err`.
    pub fn collect(&mut self, limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut out = Vec::with_capacity(limit.min(1024));
        while out.len() < limit {
            match self.next_entry()? {
                Some(e) => out.push(e),
                None => break,
            }
        }
        match self.inner.take_error() {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::new_ctx;
    use crate::filestore::FileStore;
    use crate::sstable::table::parse_footer;
    use crate::sstable::{Table, TableBuilder, TableOptions, FOOTER_SIZE};
    use crate::types::make_internal_key;
    use crate::version::FileMetaData;
    use smr_sim::{Disk, Extent, Layout, TimeModel};
    use std::sync::Arc;

    const MB: u64 = 1 << 20;

    /// Table `t` of three: 200 keys in its own disjoint range, ~25 blocks.
    fn table(t: u64) -> (Vec<u8>, Vec<u8>, Vec<u8>) {
        let mut b = TableBuilder::new(TableOptions {
            block_size: 512,
            ..Default::default()
        });
        for i in 0..200u64 {
            let key = format!("key{:06}", t * 1000 + i);
            b.add(
                &make_internal_key(key.as_bytes(), 1, ValueType::Value),
                format!("value{i:06}").as_bytes(),
            );
        }
        let (first, last) = (b.first_key().unwrap().to_vec(), b.last_key().to_vec());
        (b.finish(), first, last)
    }

    /// Bytes of `image` before its filter block: the data blocks.
    fn data_len(image: &[u8]) -> u64 {
        let (filter, _) = parse_footer(&image[image.len() - FOOTER_SIZE..]).unwrap();
        assert!(filter.size > 0, "tables here carry a filter");
        filter.offset
    }

    struct Laid {
        ctx: SharedCtx,
        files: Vec<FileMetaHandle>,
        images: Vec<Vec<u8>>,
        extents: Vec<Extent>,
    }

    /// Three tables on a fresh drive, `gap` bytes between neighbours,
    /// their readers in the table cache as `install_tables` leaves them.
    fn lay_out(gap: u64) -> Laid {
        let cap = 64 * MB;
        let disk = Disk::new(cap, Layout::Hdd, TimeModel::hdd_st1000dm003(cap));
        let mut fs = FileStore::new(disk, 4 * MB);
        let (mut files, mut images, mut extents) = (Vec::new(), Vec::new(), Vec::new());
        let mut at = 0u64;
        for t in 0..3u64 {
            let (image, smallest, largest) = table(t);
            let ext = Extent::new(at, image.len() as u64);
            fs.write_file_at(t + 1, ext, &image, IoKind::Flush).unwrap();
            at = ext.end() + gap;
            files.push(Arc::new(FileMetaData {
                id: t + 1,
                size: ext.len,
                smallest,
                largest,
                set_id: 0,
            }));
            images.push(image);
            extents.push(ext);
        }
        let ctx = new_ctx(fs, 8 * MB, 100);
        for (f, image) in files.iter().zip(&images) {
            let reader = Arc::new(Table::from_image(f.id, image).unwrap());
            ctx.lock().table_cache.insert(f.id, reader, 1);
        }
        Laid {
            ctx,
            files,
            images,
            extents,
        }
    }

    type Entries = Vec<(Vec<u8>, Vec<u8>)>;

    /// Drains a level iterator of `kind`; returns the entries, its
    /// deferred error, and what the pass cost the device:
    /// (seeks, bytes read under `kind`).
    fn drain(laid: &Laid, kind: IoKind) -> (Entries, Option<Error>, u64, u64) {
        let it = LevelIterator::new(laid.ctx.clone(), laid.files.clone(), kind);
        drain_iter(laid, kind, it)
    }

    /// [`drain`] over an iterator the caller built.
    fn drain_iter(
        laid: &Laid,
        kind: IoKind,
        mut it: impl InternalIterator,
    ) -> (Entries, Option<Error>, u64, u64) {
        let cost = |ctx: &SharedCtx| {
            let guard = ctx.lock();
            let stats = guard.fs.disk().stats();
            (stats.seeks, stats.kind(kind).logical_read)
        };
        let (seeks0, bytes0) = cost(&laid.ctx);
        let mut out = Vec::new();
        it.seek_to_first();
        while it.valid() {
            out.push((it.key().to_vec(), it.value().to_vec()));
            it.next();
        }
        let (seeks1, bytes1) = cost(&laid.ctx);
        (out, it.take_error(), seeks1 - seeks0, bytes1 - bytes0)
    }

    /// The `kind` reads' bridged-tail counter.
    fn bridged_bytes(laid: &Laid, kind: IoKind) -> u64 {
        let name = match kind {
            IoKind::CompactionRead => "compaction.bridged_bytes",
            _ => "scan.bridged_bytes",
        };
        let guard = laid.ctx.lock();
        guard.fs.disk().obs().registry.counter(ObsLayer::Lsm, name)
    }

    /// Reads the block holding key `i` of table `t` through the block
    /// cache, as a get does.
    fn warm(laid: &Laid, t: usize, i: u64) {
        let f = &laid.files[t];
        let table = get_table(&laid.ctx, f.id, f.size).unwrap();
        let mut it = table.iter(laid.ctx.clone(), IoKind::Get);
        let key = format!("key{:06}", t as u64 * 1000 + i);
        it.seek(&lookup_key(key.as_bytes(), 1));
        assert!(it.valid() && user_key(it.key()) == key.as_bytes());
    }

    /// The block cache's (hits, misses, entries).
    fn cache_counts(laid: &Laid) -> (u64, u64, usize) {
        let guard = laid.ctx.lock();
        let (hits, misses) = guard.block_cache.hit_stats();
        (hits, misses, guard.block_cache.len())
    }

    #[test]
    fn a_contiguous_run_is_one_device_stream() {
        let laid = lay_out(0);
        let data: u64 = laid.images.iter().map(|i| data_len(i)).sum();
        let tails: u64 = laid.images[..2]
            .iter()
            .map(|i| i.len() as u64 - data_len(i))
            .sum();
        let (entries, err, seeks, bytes) = drain(&laid, IoKind::CompactionRead);
        assert!(err.is_none());
        assert_eq!(entries.len(), 600);
        // One seek to the head of the run; the last table has no
        // successor, so its tail is not read.
        assert_eq!(seeks, 1);
        assert_eq!(bytes, data + tails);
        assert_eq!(bridged_bytes(&laid, IoKind::CompactionRead), tails);
        // A user scan bridges the same way, on its own counter.
        let (scanned, err, seeks, bytes) = drain(&laid, IoKind::Scan);
        assert!(err.is_none());
        assert_eq!(scanned, entries);
        assert_eq!((seeks, bytes), (1, data + tails));
        assert_eq!(bridged_bytes(&laid, IoKind::Scan), tails);
        assert_eq!(bridged_bytes(&laid, IoKind::CompactionRead), tails);
    }

    #[test]
    fn tables_placed_apart_are_read_exactly_as_before() {
        let laid = lay_out(4096);
        let data: u64 = laid.images.iter().map(|i| data_len(i)).sum();
        for kind in [IoKind::CompactionRead, IoKind::Scan] {
            let (entries, err, seeks, bytes) = drain(&laid, kind);
            assert!(err.is_none());
            assert_eq!(entries.len(), 600);
            assert_eq!((seeks, bytes), (3, data), "{kind:?}");
            assert_eq!(bridged_bytes(&laid, kind), 0);
        }
    }

    /// A latent sector error inside table 1's filter block: the bridge
    /// into table 2 fails, table 2's first block re-seeks, and table 2 → 3
    /// still bridges.
    fn failed_bridge(kind: IoKind) {
        let clean = lay_out(0);
        let (want, _, _, _) = drain(&clean, kind);
        let laid = lay_out(0);
        let tail_at = laid.extents[0].offset + data_len(&laid.images[0]);
        laid.ctx
            .lock()
            .fs
            .disk_mut()
            .faults_mut()
            .fail_reads_permanently(Extent::new(tail_at + 100, 64));
        let (entries, err, seeks, _) = drain(&laid, kind);
        assert!(err.is_none(), "{err:?}");
        assert_eq!(entries, want);
        assert_eq!(seeks, 2);
        let tail3 = laid.images[1].len() as u64 - data_len(&laid.images[1]);
        assert_eq!(bridged_bytes(&laid, kind), tail3);
        let guard = laid.ctx.lock();
        assert_eq!(guard.fs.disk().stats().faults.unrecoverable_reads, 1);
    }

    #[test]
    fn a_failed_bridge_read_costs_a_seek_and_nothing_else() {
        failed_bridge(IoKind::CompactionRead);
    }

    #[test]
    fn a_failed_scan_bridge_read_costs_a_seek_and_nothing_else() {
        failed_bridge(IoKind::Scan);
    }

    #[test]
    fn a_streaming_scan_reads_past_a_cached_block() {
        let laid = lay_out(0);
        let data: u64 = laid.images.iter().map(|i| data_len(i)).sum();
        let tails: u64 = laid.images[..2]
            .iter()
            .map(|i| i.len() as u64 - data_len(i))
            .sum();
        // A block in the middle of the run, cached by a get.
        warm(&laid, 1, 100);
        let (hits0, misses0, len0) = cache_counts(&laid);
        let it = LevelIterator::new(laid.ctx.clone(), laid.files.clone(), IoKind::Scan).streaming();
        let (entries, err, seeks, bytes) = drain_iter(&laid, IoKind::Scan, it);
        assert!(err.is_none());
        assert_eq!(entries.len(), 600);
        // The block the scan starts on goes through the cache (a miss and
        // an insert); every later one, the warm block included, comes off
        // the device in the one stream.
        assert_eq!(seeks, 1);
        assert_eq!(bytes, data + tails);
        let (hits1, misses1, len1) = cache_counts(&laid);
        assert_eq!((hits1 - hits0, misses1 - misses0, len1 - len0), (0, 1, 1));

        // Two levels: the shallower level is not the stream, so its warm
        // block still hits; the deeper one's is read past.
        let laid = lay_out(0);
        warm(&laid, 0, 100);
        warm(&laid, 2, 100);
        let (hits0, _, _) = cache_counts(&laid);
        let shallow = LevelIterator::new(laid.ctx.clone(), laid.files[..1].to_vec(), IoKind::Scan);
        let deep = LevelIterator::new(laid.ctx.clone(), laid.files[1..].to_vec(), IoKind::Scan)
            .streaming();
        let merged = MergingIterator::new(vec![Box::new(shallow), Box::new(deep)]);
        let (entries, err, _, _) = drain_iter(&laid, IoKind::Scan, merged);
        assert!(err.is_none());
        assert_eq!(entries.len(), 600);
        let (hits1, _, _) = cache_counts(&laid);
        assert_eq!(hits1 - hits0, 1);
    }
}
