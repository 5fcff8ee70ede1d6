//! SSTable builder and reader.
//!
//! File layout (no compression; CRC-checked like LevelDB):
//!
//! ```text
//! [data block 0][trailer] ... [data block N][trailer]
//! [filter block (bloom over user keys)][trailer]
//! [index block][trailer]
//! [footer: filter handle | index handle | padding | magic]  (48 bytes)
//! ```
//!
//! Each trailer is `type(1, always 0) | masked crc32c(4)` over the block
//! contents plus the type byte.

use crate::context::SharedCtx;
use crate::error::{corruption, Error, Result};
use crate::iterator::InternalIterator;
use crate::sstable::block::{Block, BlockBuilder, BlockIter};
use crate::types::{self, make_internal_key, user_key, FileId, ValueType, MAX_SEQUENCE};
use crate::util::bloom::BloomFilter;
use crate::util::coding::{
    decode_fixed32, decode_fixed64, get_varint64, put_fixed64, put_varint64,
};
use crate::util::crc32c;
use smr_sim::IoKind;
use std::sync::Arc;

/// Footer size in bytes.
pub const FOOTER_SIZE: usize = 48;
/// Table magic number (LevelDB's).
const TABLE_MAGIC: u64 = 0xdb4775248b80fb57;
/// Per-block trailer: 1 type byte + 4 CRC bytes.
pub(crate) const BLOCK_TRAILER_SIZE: usize = 5;

/// Position of a block within the file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockHandle {
    /// Byte offset of the block contents.
    pub offset: u64,
    /// Size of the block contents (excluding the trailer).
    pub size: u64,
}

impl BlockHandle {
    fn encode(&self, dst: &mut Vec<u8>) {
        put_varint64(dst, self.offset);
        put_varint64(dst, self.size);
    }

    fn encoded(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(20);
        self.encode(&mut v);
        v
    }

    /// Length of the block on disk (contents plus trailer) and the file
    /// offset one past it. Handles are decoded from disk bytes, so a sum
    /// that overflows is corruption to report, never arithmetic to trust.
    pub(crate) fn disk_span(&self) -> Result<(u64, u64)> {
        let len = self.size.checked_add(BLOCK_TRAILER_SIZE as u64);
        match len.and_then(|len| Some((len, self.offset.checked_add(len)?))) {
            Some(span) => Ok(span),
            None => corruption(format!(
                "block handle out of range (offset {}, size {})",
                self.offset, self.size
            )),
        }
    }

    pub(crate) fn decode(src: &[u8]) -> Result<(BlockHandle, usize)> {
        let Some((offset, n1)) = get_varint64(src) else {
            return corruption("bad block handle offset");
        };
        let Some((size, n2)) = get_varint64(&src[n1..]) else {
            return corruption("bad block handle size");
        };
        Ok((BlockHandle { offset, size }, n1 + n2))
    }
}

/// Build-time options for one table.
#[derive(Clone, Copy, Debug)]
pub struct TableOptions {
    /// Target uncompressed data-block size.
    pub block_size: usize,
    /// Restart interval inside blocks.
    pub restart_interval: usize,
    /// Bloom-filter budget per key (0 disables the filter).
    pub bloom_bits_per_key: usize,
}

impl Default for TableOptions {
    fn default() -> Self {
        TableOptions {
            block_size: 4096,
            restart_interval: 16,
            bloom_bits_per_key: 10,
        }
    }
}

/// Index separator between the last key of a block and the first key of
/// the next: shorten the user key if that yields a strictly greater one,
/// stamped with `MAX_SEQUENCE` so it still sorts not-before the block's
/// entries in internal order.
fn separator(last: &[u8], next: &[u8]) -> Vec<u8> {
    let ul = user_key(last);
    let un = user_key(next);
    let mut tmp = ul.to_vec();
    types::find_shortest_separator(&mut tmp, un);
    if tmp.as_slice() > ul {
        make_internal_key(&tmp, MAX_SEQUENCE, ValueType::Value)
    } else {
        last.to_vec()
    }
}

/// Index key after the final block.
fn successor(last: &[u8]) -> Vec<u8> {
    let ul = user_key(last);
    let mut tmp = ul.to_vec();
    types::find_short_successor(&mut tmp);
    if tmp.as_slice() > ul {
        make_internal_key(&tmp, MAX_SEQUENCE, ValueType::Value)
    } else {
        last.to_vec()
    }
}

/// Builds one SSTable into an in-memory byte buffer; the placement policy
/// decides where the bytes land on disk.
#[derive(Debug)]
pub struct TableBuilder {
    opts: TableOptions,
    buf: Vec<u8>,
    block: BlockBuilder,
    index_entries: Vec<(Vec<u8>, BlockHandle)>,
    /// Handle of the last flushed block, whose index entry waits for the
    /// next key (or the end of the table) to pick its separator;
    /// `last_key` is that block's last key until then.
    pending: Option<BlockHandle>,
    /// User keys for the bloom filter; stays empty when the filter is off.
    user_keys: Vec<Vec<u8>>,
    first_key: Option<Vec<u8>>,
    last_key: Vec<u8>,
    num_entries: u64,
}

impl TableBuilder {
    /// Creates an empty builder.
    pub fn new(opts: TableOptions) -> Self {
        TableBuilder {
            opts,
            buf: Vec::new(),
            block: BlockBuilder::new(opts.restart_interval),
            index_entries: Vec::new(),
            pending: None,
            user_keys: Vec::new(),
            first_key: None,
            last_key: Vec::new(),
            num_entries: 0,
        }
    }

    /// Adds an entry; internal keys must arrive in strictly increasing
    /// order.
    pub fn add(&mut self, ikey: &[u8], value: &[u8]) {
        if let Some(handle) = self.pending.take() {
            self.index_entries
                .push((separator(&self.last_key, ikey), handle));
        }
        if self.first_key.is_none() {
            self.first_key = Some(ikey.to_vec());
        }
        if self.opts.bloom_bits_per_key > 0 {
            self.user_keys.push(user_key(ikey).to_vec());
        }
        self.block.add(ikey, value);
        self.last_key.clear();
        self.last_key.extend_from_slice(ikey);
        self.num_entries += 1;
        if self.block.current_size_estimate() >= self.opts.block_size {
            self.flush_block();
        }
    }

    fn write_raw_block(buf: &mut Vec<u8>, contents: &[u8]) -> BlockHandle {
        let handle = BlockHandle {
            offset: buf.len() as u64,
            size: contents.len() as u64,
        };
        buf.extend_from_slice(contents);
        buf.push(0); // type byte: uncompressed
        let crc = crc32c::mask(crc32c::crc32c(&buf[handle.offset as usize..]));
        buf.extend_from_slice(&crc.to_le_bytes());
        handle
    }

    fn flush_block(&mut self) {
        if self.block.is_empty() {
            return;
        }
        self.pending = Some(Self::write_raw_block(&mut self.buf, self.block.seal()));
        self.block.reset();
    }

    /// Number of entries added so far.
    pub(crate) fn num_entries(&self) -> u64 {
        self.num_entries
    }

    /// Current file size estimate (finished blocks only).
    pub(crate) fn file_size_estimate(&self) -> u64 {
        (self.buf.len() + self.block.current_size_estimate()) as u64
    }

    /// Smallest internal key added.
    pub(crate) fn first_key(&self) -> Option<&[u8]> {
        self.first_key.as_deref()
    }

    /// Largest internal key added.
    pub(crate) fn last_key(&self) -> &[u8] {
        &self.last_key
    }

    /// Finishes the table and returns the file bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.flush_block();
        if let Some(handle) = self.pending.take() {
            self.index_entries.push((successor(&self.last_key), handle));
        }
        // Filter block.
        let filter_handle = if self.opts.bloom_bits_per_key > 0 {
            let filter = BloomFilter::build(&self.user_keys, self.opts.bloom_bits_per_key);
            Self::write_raw_block(&mut self.buf, &filter.encode())
        } else {
            BlockHandle { offset: 0, size: 0 }
        };
        // Index block.
        let mut index = BlockBuilder::new(1);
        for (key, handle) in &self.index_entries {
            index.add(key, &handle.encoded());
        }
        let index_handle = Self::write_raw_block(&mut self.buf, &index.finish());
        // Footer.
        let mut footer = Vec::with_capacity(FOOTER_SIZE);
        filter_handle.encode(&mut footer);
        index_handle.encode(&mut footer);
        footer.resize(FOOTER_SIZE - 8, 0);
        put_fixed64(&mut footer, TABLE_MAGIC);
        self.buf.extend_from_slice(&footer);
        self.buf
    }
}

/// Prefixes a `Corruption` message with where on disk it was found.
pub(crate) fn locate(e: Error, place: impl FnOnce() -> String) -> Error {
    match e {
        Error::Corruption(msg) => Error::Corruption(format!("{}: {msg}", place())),
        other => other,
    }
}

/// The one block verification routine: checks the trailer's type byte and
/// masked CRC-32C over `contents | type` and returns the contents.
pub(crate) fn verify_block(contents_and_trailer: &[u8]) -> Result<&[u8]> {
    let Some(split) = contents_and_trailer.len().checked_sub(BLOCK_TRAILER_SIZE) else {
        return corruption("block shorter than trailer");
    };
    let (checked, stored) = contents_and_trailer.split_at(split + 1);
    if checked[split] != 0 {
        return corruption("unknown block type");
    }
    if decode_fixed32(stored) != crc32c::mask(crc32c::crc32c(checked)) {
        return corruption("block checksum mismatch");
    }
    Ok(&checked[..split])
}

/// Verifies a block in the buffer the device read filled and returns
/// that same buffer cut down to the contents — no second allocation
/// between the platter and the [`Block`].
pub(crate) fn check_block(contents_and_trailer: Vec<u8>) -> Result<Vec<u8>> {
    verify_block(&contents_and_trailer)?;
    Ok(strip_trailer(contents_and_trailer))
}

/// Cuts a verified block image down to its contents, in place.
pub(crate) fn strip_trailer(mut image: Vec<u8>) -> Vec<u8> {
    image.truncate(image.len() - BLOCK_TRAILER_SIZE);
    image
}

/// Reads the block at `handle` from the device and verifies it: the
/// buffer `SparseStore` filled comes back holding just the contents.
/// Every on-device block read goes through here, so a failed check
/// always bumps the host's checksum-failure counter; the error is left
/// for the caller to [`locate`].
fn read_verified(
    ctx: &mut crate::context::StoreCtx,
    file: FileId,
    handle: BlockHandle,
    kind: IoKind,
) -> Result<Vec<u8>> {
    let (len, _) = handle.disk_span()?;
    let raw = ctx.fs.read_file(file, handle.offset, len, kind)?;
    check_block(raw).inspect_err(|_| {
        ctx.fs.disk_mut().stats_mut().faults.checksum_failures += 1;
    })
}

/// The footer at the tail of a finished table image.
fn image_footer(image: &[u8]) -> Result<&[u8]> {
    match image.len().checked_sub(FOOTER_SIZE) {
        Some(at) => Ok(&image[at..]),
        None => corruption("table smaller than footer"),
    }
}

/// The verified contents of the block at `handle` inside a finished
/// table image, copied out into the buffer its [`Block`] will own.
fn image_block(image: &[u8], handle: BlockHandle) -> Result<Vec<u8>> {
    let (_, end) = handle.disk_span()?;
    match usize::try_from(end).ok().filter(|&end| end <= image.len()) {
        // `offset <= end` holds: `disk_span` summed without overflow.
        Some(end) => Ok(verify_block(&image[handle.offset as usize..end])?.to_vec()),
        None => corruption("block handle past the end of the table"),
    }
}

/// The one footer → reader routine: parses `footer`, then takes the
/// index and (when the table has one) the filter through `fetch`, which
/// returns a block's *verified* contents — off the device for
/// [`Table::open`], out of the finished image for [`Table::from_image`]
/// and [`scan_all`]. Errors say which part of the table was bad; the
/// caller adds which table.
fn load_meta(
    footer: &[u8],
    mut fetch: impl FnMut(BlockHandle) -> Result<Vec<u8>>,
) -> Result<(Arc<Block>, Option<BloomFilter>)> {
    let (filter_handle, index_handle) =
        parse_footer(footer).map_err(|e| locate(e, || "footer".into()))?;
    let mut block = |what: &str, handle: BlockHandle| {
        fetch(handle).map_err(|e| locate(e, || format!("{what} block at offset {}", handle.offset)))
    };
    let index = Block::new(block("index", index_handle)?)?;
    let bloom = if filter_handle.size > 0 {
        BloomFilter::decode(&block("filter", filter_handle)?)
    } else {
        None
    };
    Ok((Arc::new(index), bloom))
}

/// Parses the footer of a table, returning (filter handle, index handle).
pub fn parse_footer(footer: &[u8]) -> Result<(BlockHandle, BlockHandle)> {
    if footer.len() != FOOTER_SIZE {
        return corruption("bad footer size");
    }
    if decode_fixed64(&footer[FOOTER_SIZE - 8..]) != TABLE_MAGIC {
        return corruption("bad table magic");
    }
    let (filter, n) = BlockHandle::decode(footer)?;
    let (index, _) = BlockHandle::decode(&footer[n..])?;
    Ok((filter, index))
}

/// An open table reader: index and bloom filter pinned in memory, data
/// blocks fetched on demand through the shared context's block cache.
#[derive(Debug)]
pub struct Table {
    file: FileId,
    file_size: u64,
    index: Arc<Block>,
    bloom: Option<BloomFilter>,
}

impl Table {
    /// Opens a table by reading its footer, index and filter off the
    /// device (charged as `Meta` reads; amortised by the table cache).
    pub fn open(ctx: &SharedCtx, file: FileId, file_size: u64) -> Result<Table> {
        // `file_size` comes from the manifest — disk bytes, like the
        // handles below.
        let Some(footer_offset) = file_size.checked_sub(FOOTER_SIZE as u64) else {
            return corruption(format!("file {file} smaller than footer"));
        };
        let mut guard = ctx.lock();
        let footer = guard
            .fs
            .read_file(file, footer_offset, FOOTER_SIZE as u64, IoKind::Meta)?;
        let (index, bloom) = load_meta(&footer, |handle| {
            read_verified(&mut guard, file, handle, IoKind::Meta)
        })
        .map_err(|e| locate(e, || format!("file {file}")))?;
        Ok(Table {
            file,
            file_size,
            index,
            bloom,
        })
    }

    /// Makes the reader of a table the engine has just built, from the
    /// finished image still in memory: the same footer parse and the same
    /// index and filter checks as [`Table::open`], with no device read.
    /// Data blocks are not touched; they are verified whenever they are
    /// read back off the device.
    pub(crate) fn from_image(file: FileId, image: &[u8]) -> Result<Table> {
        let (index, bloom) = image_footer(image)
            .and_then(|footer| load_meta(footer, |handle| image_block(image, handle)))
            .map_err(|e| locate(e, || format!("file {file} (image)")))?;
        Ok(Table {
            file,
            file_size: image.len() as u64,
            index,
            bloom,
        })
    }

    /// Whether the bloom filter definitively excludes `ukey`.
    pub(crate) fn bloom_excludes(&self, ukey: &[u8]) -> bool {
        self.bloom.as_ref().is_some_and(|b| !b.may_contain(ukey))
    }

    /// Reads one data block, through the block cache when `use_cache`;
    /// the flag is whether the cache served it.
    fn read_block(
        &self,
        ctx: &SharedCtx,
        handle: BlockHandle,
        kind: IoKind,
        use_cache: bool,
    ) -> Result<(Arc<Block>, bool)> {
        let key = (self.file, handle.offset);
        let mut guard = ctx.lock();
        if use_cache {
            if let Some(block) = guard.block_cache.get(&key) {
                return Ok((block, true));
            }
        }
        let block = read_verified(&mut guard, self.file, handle, kind)
            .and_then(Block::new)
            .map_err(|e| {
                locate(e, || {
                    format!("file {} block at offset {}", self.file, handle.offset)
                })
            })?;
        let block = Arc::new(block);
        if use_cache {
            let charge = block.size() as u64;
            guard.block_cache.insert(key, Arc::clone(&block), charge);
        }
        Ok((block, false))
    }

    /// An iterator over the whole table; blocks are fetched lazily and
    /// charged with the supplied `kind` (Scan for user scans,
    /// CompactionRead when driven by a compaction).
    pub fn iter(self: &Arc<Self>, ctx: SharedCtx, kind: IoKind) -> TableIterator {
        TableIterator {
            table: Arc::clone(self),
            ctx,
            kind,
            // Compactions stream every block exactly once: bypass the
            // block cache so they neither pollute nor benefit from it
            // (LevelDB's `fill_cache=false` read option).
            use_cache: !matches!(kind, IoKind::CompactionRead),
            stream: None,
            index_iter: self.index.iter(),
            block_iter: None,
            fetched_to: None,
            error: None,
        }
    }
}

/// Two-level iterator: index block -> data blocks.
#[derive(Debug)]
pub struct TableIterator {
    table: Arc<Table>,
    ctx: SharedCtx,
    kind: IoKind,
    use_cache: bool,
    /// Set by [`TableIterator::streaming`]: whether the data block
    /// loaded last came off the device.
    stream: Option<bool>,
    index_iter: BlockIter,
    block_iter: Option<BlockIter>,
    /// File offset one past the data block loaded last.
    fetched_to: Option<u64>,
    error: Option<crate::error::Error>,
}

impl TableIterator {
    /// With `on == false`, the iterator reads every block from the
    /// device and leaves the block cache as it found it (see
    /// `DbCore::scan_bulk`); `true` keeps what `kind` chose.
    pub(crate) fn with_cache(mut self, on: bool) -> Self {
        self.use_cache &= on;
        self
    }

    /// Keeps a device stream off the block cache: once a data block has
    /// come off the device, the blocks after it are read from the device
    /// too, with no cache lookup and no insert. A hit in the middle of a
    /// stream saves one block's transfer but ends the drive's read-ahead
    /// stream, so the next miss pays a seek and half a rotation. The
    /// block a seek lands on, and the block after a hit, still go through
    /// the cache. `on_device` says the stream already stands at this
    /// table's first block: the caller has read through its predecessor's
    /// tail (`LevelIterator::bridge_to_next`).
    pub(crate) fn streaming(mut self, on_device: bool) -> Self {
        self.stream = Some(on_device);
        self
    }

    fn load_block(&mut self) {
        self.block_iter = None;
        if !self.index_iter.valid() {
            return;
        }
        let use_cache = self.use_cache && self.stream != Some(true);
        match BlockHandle::decode(self.index_iter.value()).and_then(|(h, _)| {
            let (block, hit) = self.table.read_block(&self.ctx, h, self.kind, use_cache)?;
            Ok((block, hit, h.disk_span()?.1))
        }) {
            Ok((block, hit, end)) => {
                self.block_iter = Some(block.iter());
                self.fetched_to = Some(end);
                self.stream = self.stream.map(|_| !hit);
            }
            Err(e) => self.error = Some(e),
        }
    }

    /// Where this iterator's device stream stands: `(offset, len)` of the
    /// file's bytes past the data block loaded last — after the final
    /// data block, that is the filter, index and footer. `None` before
    /// the first block is loaded and while a read error is pending.
    pub(crate) fn unread_tail(&self) -> Option<(u64, u64)> {
        if self.error.is_some() {
            return None;
        }
        let from = self.fetched_to?;
        let len = self.table.file_size.checked_sub(from)?;
        (len > 0).then_some((from, len))
    }

    /// Skips forward through index entries until the data iterator is
    /// valid or the index is exhausted.
    fn skip_empty_blocks(&mut self) {
        while self.block_iter.as_ref().is_some_and(|b| !b.valid()) {
            if !self.index_iter.valid() {
                self.block_iter = None;
                return;
            }
            self.index_iter.next();
            self.load_block();
            if let Some(b) = self.block_iter.as_mut() {
                b.seek_to_first();
            }
        }
    }
}

impl InternalIterator for TableIterator {
    fn valid(&self) -> bool {
        self.block_iter.as_ref().is_some_and(|b| b.valid())
    }

    fn seek_to_first(&mut self) {
        self.index_iter.seek_to_first();
        self.load_block();
        if let Some(b) = self.block_iter.as_mut() {
            b.seek_to_first();
        }
        self.skip_empty_blocks();
    }

    fn seek(&mut self, target: &[u8]) {
        self.stream = self.stream.map(|_| false);
        self.index_iter.seek(target);
        self.load_block();
        if let Some(b) = self.block_iter.as_mut() {
            b.seek(target);
        }
        self.skip_empty_blocks();
    }

    fn next(&mut self) {
        debug_assert!(self.valid());
        if let Some(b) = self.block_iter.as_mut() {
            b.next();
        }
        self.skip_empty_blocks();
    }

    fn key(&self) -> &[u8] {
        self.block_iter.as_ref().expect("valid iterator").key()
    }

    fn value(&self) -> &[u8] {
        self.block_iter.as_ref().expect("valid iterator").value()
    }

    fn take_error(&mut self) -> Option<crate::error::Error> {
        self.error.take()
    }
}

/// Parses a table image held whole in memory into its (internal key,
/// value) entries, verifying every block on the way. No engine path reads
/// a table this way (compactions pull blocks through [`TableIterator`]);
/// it serves tests, probes and tools that hold a builder's output.
pub fn scan_all(data: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
    let (index, _) = load_meta(image_footer(data)?, |handle| image_block(data, handle))?;
    let mut out = Vec::new();
    let mut ii = index.iter();
    ii.seek_to_first();
    while ii.valid() {
        let (h, _) = BlockHandle::decode(ii.value())?;
        let block = Arc::new(Block::new(image_block(data, h)?)?);
        let mut bi = block.iter();
        bi.seek_to_first();
        while bi.valid() {
            out.push((bi.key().to_vec(), bi.value().to_vec()));
            bi.next();
        }
        ii.next();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::new_ctx;
    use crate::filestore::FileStore;
    use smr_sim::{Disk, Extent, Layout, TimeModel};

    const MB: u64 = 1 << 20;

    fn ik(k: &str, seq: u64) -> Vec<u8> {
        make_internal_key(k.as_bytes(), seq, ValueType::Value)
    }

    fn build_table(n: usize) -> Vec<u8> {
        let mut b = TableBuilder::new(TableOptions {
            block_size: 512,
            ..Default::default()
        });
        for i in 0..n {
            b.add(
                &ik(&format!("key{i:06}"), 1),
                format!("value{i:06}").as_bytes(),
            );
        }
        b.finish()
    }

    fn ctx_with_file(data: &[u8]) -> SharedCtx {
        let cap = 64 * MB;
        let disk = Disk::new(cap, Layout::Hdd, TimeModel::hdd_st1000dm003(cap));
        let mut fs = FileStore::new(disk, 4 * MB);
        fs.write_file_at(1, Extent::new(0, data.len() as u64), data, IoKind::Flush)
            .unwrap();
        new_ctx(fs, 8 * MB, 100)
    }

    /// Point lookup the way `DbCore::get_inner` does it: the bloom
    /// filter, then a seek on a `Get` iterator.
    fn lookup(
        table: &Arc<Table>,
        ctx: &SharedCtx,
        ikey: &[u8],
    ) -> Result<Option<(Vec<u8>, Vec<u8>)>> {
        if table.bloom_excludes(user_key(ikey)) {
            return Ok(None);
        }
        let mut it = table.iter(Arc::clone(ctx), IoKind::Get);
        it.seek(ikey);
        match it.take_error() {
            Some(e) => Err(e),
            None => Ok(it.valid().then(|| (it.key().to_vec(), it.value().to_vec()))),
        }
    }

    #[test]
    fn build_and_scan_all() {
        let data = build_table(500);
        let entries = scan_all(&data).unwrap();
        assert_eq!(entries.len(), 500);
        for (i, (k, v)) in entries.iter().enumerate() {
            assert_eq!(user_key(k), format!("key{i:06}").as_bytes());
            assert_eq!(v, format!("value{i:06}").as_bytes());
        }
    }

    #[test]
    fn open_and_get() {
        let data = build_table(500);
        let size = data.len() as u64;
        let ctx = ctx_with_file(&data);
        let table = Arc::new(Table::open(&ctx, 1, size).unwrap());
        for i in [0usize, 1, 250, 498, 499] {
            let lk = types::lookup_key(format!("key{i:06}").as_bytes(), MAX_SEQUENCE);
            let (k, v) = lookup(&table, &ctx, &lk).unwrap().expect("found");
            assert_eq!(user_key(&k), format!("key{i:06}").as_bytes());
            assert_eq!(v, format!("value{i:06}").as_bytes());
        }
        // Bloom filter excludes absent keys without any block read.
        let before = ctx.lock().fs.disk().stats().kind(IoKind::Get).ops;
        let lk = types::lookup_key(b"zzz-absent", MAX_SEQUENCE);
        assert!(table.bloom_excludes(b"zzz-absent"));
        assert!(lookup(&table, &ctx, &lk).unwrap().is_none());
        let after = ctx.lock().fs.disk().stats().kind(IoKind::Get).ops;
        assert_eq!(before, after, "bloom miss must avoid block reads");
    }

    #[test]
    fn image_reader_matches_device_reader_without_meta_reads() {
        let data = build_table(500);
        let ctx = ctx_with_file(&data);
        let from_image = Arc::new(Table::from_image(1, &data).unwrap());
        let meta = |ctx: &SharedCtx| ctx.lock().fs.disk().stats().kind(IoKind::Meta).ops;
        assert_eq!(meta(&ctx), 0, "an image reader costs no device read");
        let from_device = Arc::new(Table::open(&ctx, 1, data.len() as u64).unwrap());
        assert_eq!(meta(&ctx), 3, "footer + index + filter");
        assert_eq!(from_image.file_size, from_device.file_size);
        for key in ["key000000", "key000250", "key000499", "key0002505", "zzz"] {
            let lk = types::lookup_key(key.as_bytes(), MAX_SEQUENCE);
            assert_eq!(
                from_image.bloom_excludes(key.as_bytes()),
                from_device.bloom_excludes(key.as_bytes()),
                "{key}"
            );
            assert_eq!(
                lookup(&from_image, &ctx, &lk).unwrap(),
                lookup(&from_device, &ctx, &lk).unwrap(),
                "{key}"
            );
        }
    }

    #[test]
    fn image_reader_runs_the_checks_open_runs() {
        let data = build_table(100);
        let n = data.len();
        let (filter, index) = parse_footer(&data[n - FOOTER_SIZE..]).unwrap();
        // One flipped byte in the index, in the filter, in the magic.
        for at in [index.offset as usize + 3, filter.offset as usize + 3, n - 1] {
            let mut bad = data.clone();
            bad[at] ^= 0x40;
            let err = Table::from_image(7, &bad).unwrap_err();
            assert!(
                matches!(&err, Error::Corruption(m) if m.contains("file 7")),
                "byte {at}: {err}"
            );
            let ctx = ctx_with_file(&bad);
            let err = Table::open(&ctx, 1, n as u64).unwrap_err();
            assert!(
                matches!(&err, Error::Corruption(m) if m.contains("file 1")),
                "byte {at}: {err}"
            );
        }
        // Data blocks are not part of the reader: a flip there passes
        // both, and is caught when the block is read.
        let mut bad = data.clone();
        bad[10] ^= 0x40;
        assert!(Table::from_image(7, &bad).is_ok());
        assert!(matches!(
            Table::from_image(7, &data[..FOOTER_SIZE - 1]),
            Err(Error::Corruption(_))
        ));
    }

    #[test]
    fn iterator_full_scan_and_seek() {
        let data = build_table(300);
        let size = data.len() as u64;
        let ctx = ctx_with_file(&data);
        let table = Arc::new(Table::open(&ctx, 1, size).unwrap());
        let mut it = table.iter(Arc::clone(&ctx), IoKind::Scan);
        it.seek_to_first();
        let mut count = 0;
        while it.valid() {
            count += 1;
            it.next();
        }
        assert_eq!(count, 300);
        it.seek(&types::lookup_key(b"key000150", MAX_SEQUENCE));
        assert!(it.valid());
        assert_eq!(user_key(it.key()), b"key000150");
        assert!(it.take_error().is_none());
    }

    #[test]
    fn block_cache_serves_repeat_reads() {
        let data = build_table(500);
        let size = data.len() as u64;
        let ctx = ctx_with_file(&data);
        let table = Arc::new(Table::open(&ctx, 1, size).unwrap());
        let lk = types::lookup_key(b"key000250", MAX_SEQUENCE);
        lookup(&table, &ctx, &lk).unwrap().unwrap();
        let ops_after_first = ctx.lock().fs.disk().stats().kind(IoKind::Get).ops;
        lookup(&table, &ctx, &lk).unwrap().unwrap();
        let ops_after_second = ctx.lock().fs.disk().stats().kind(IoKind::Get).ops;
        assert_eq!(ops_after_first, ops_after_second);
    }

    #[test]
    fn corrupt_block_detected() {
        let mut data = build_table(100);
        // Flip a byte in the first data block.
        data[10] ^= 0xFF;
        assert!(scan_all(&data).is_err());
    }

    #[test]
    fn corrupt_data_block_reports_file_and_offset() {
        let mut data = build_table(100);
        // Flip a byte in the first data block: the open succeeds (index
        // and footer are intact) but reading the block must fail with
        // the file and offset named, and the failure counted.
        data[10] ^= 0xFF;
        let size = data.len() as u64;
        let ctx = ctx_with_file(&data);
        let table = Arc::new(Table::open(&ctx, 1, size).unwrap());
        let lk = types::lookup_key(b"key000000", MAX_SEQUENCE);
        let err = lookup(&table, &ctx, &lk).unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("file 1"), "{msg}");
        assert!(msg.contains("offset 0"), "{msg}");
        assert_eq!(ctx.lock().fs.disk().stats().faults.checksum_failures, 1);
    }

    /// A table image whose footer points its index at `index_handle`.
    fn table_with_index_handle(index_handle: BlockHandle) -> Vec<u8> {
        let mut data = build_table(10);
        let mut footer = Vec::new();
        BlockHandle { offset: 0, size: 0 }.encode(&mut footer);
        index_handle.encode(&mut footer);
        footer.resize(FOOTER_SIZE - 8, 0);
        put_fixed64(&mut footer, TABLE_MAGIC);
        let n = data.len();
        data[n - FOOTER_SIZE..].copy_from_slice(&footer);
        data
    }

    #[test]
    fn open_rejects_file_smaller_than_footer() {
        // The size is the manifest's word, not the file's: a damaged
        // manifest entry must surface as corruption, not a subtraction
        // overflow.
        let data = build_table(10);
        let ctx = ctx_with_file(&data);
        for size in [0, 1, FOOTER_SIZE as u64 - 1] {
            let err = Table::open(&ctx, 1, size).unwrap_err();
            assert!(
                matches!(&err, Error::Corruption(m) if m.contains("file 1 smaller than footer")),
                "{err}"
            );
        }
    }

    #[test]
    fn wrapping_block_handles_are_corruption_not_panics() {
        // size + trailer wraps; offset + size + trailer wraps; and a sum
        // that wraps to a small `end` below `offset`.
        let wrapping = [
            BlockHandle {
                offset: 0,
                size: u64::MAX - 2,
            },
            BlockHandle {
                offset: u64::MAX - 100,
                size: 200,
            },
            BlockHandle {
                offset: 64,
                size: u64::MAX - 64,
            },
        ];
        for handle in wrapping {
            let data = table_with_index_handle(handle);
            let err = scan_all(&data).unwrap_err();
            assert!(matches!(err, Error::Corruption(_)), "{handle:?}: {err}");
            let err = Table::from_image(1, &data).unwrap_err();
            assert!(matches!(err, Error::Corruption(_)), "{handle:?}: {err}");
            let ctx = ctx_with_file(&data);
            let err = Table::open(&ctx, 1, data.len() as u64).unwrap_err();
            assert!(matches!(err, Error::Corruption(_)), "{handle:?}: {err}");
        }
        // A data-block handle inside an intact index block: the open
        // succeeds, the block read must fail cleanly.
        let mut b = TableBuilder::new(TableOptions::default());
        b.add(&ik("k", 1), b"v");
        b.flush_block();
        let handle = b.pending.as_mut().expect("one block flushed");
        handle.size = u64::MAX - 2;
        let data = b.finish();
        assert!(matches!(scan_all(&data), Err(Error::Corruption(_))));
        let ctx = ctx_with_file(&data);
        let table = Arc::new(Table::open(&ctx, 1, data.len() as u64).unwrap());
        let err = lookup(&table, &ctx, &types::lookup_key(b"k", MAX_SEQUENCE)).unwrap_err();
        assert!(matches!(err, Error::Corruption(_)), "{err}");
    }

    #[test]
    fn bad_magic_rejected() {
        let mut data = build_table(10);
        let n = data.len();
        data[n - 1] ^= 0xFF;
        assert!(scan_all(&data).is_err());
    }

    #[test]
    fn footer_roundtrip() {
        let f = BlockHandle {
            offset: 123,
            size: 456,
        };
        let i = BlockHandle {
            offset: 789,
            size: 1011,
        };
        let mut footer = Vec::new();
        f.encode(&mut footer);
        i.encode(&mut footer);
        footer.resize(FOOTER_SIZE - 8, 0);
        put_fixed64(&mut footer, TABLE_MAGIC);
        let (f2, i2) = parse_footer(&footer).unwrap();
        assert_eq!(f, f2);
        assert_eq!(i, i2);
    }

    #[test]
    fn separator_respects_internal_order() {
        use crate::types::internal_compare;
        use std::cmp::Ordering;
        let last = ik("foo", 7);
        let next = ik("fz", 3);
        let sep = separator(&last, &next);
        assert_ne!(internal_compare(&last, &sep), Ordering::Greater);
        assert_eq!(internal_compare(&sep, &next), Ordering::Less);
        // Equal user keys: separator stays the last key itself.
        let sep = separator(&ik("same", 9), &ik("same", 2));
        assert_eq!(sep, ik("same", 9));
    }

    #[test]
    fn empty_table() {
        let b = TableBuilder::new(TableOptions::default());
        let data = b.finish();
        // An empty table still has a valid footer and empty index.
        assert!(scan_all(&data).unwrap().is_empty());
    }
}
