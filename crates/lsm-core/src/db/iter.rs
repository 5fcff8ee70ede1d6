//! Level-concatenating and user-facing database iterators.

use crate::context::{get_table, SharedCtx};
use crate::error::Error;
use crate::iterator::{InternalIterator, MergingIterator};
use crate::sstable::TableIterator;
use crate::types::{
    internal_compare, lookup_key, try_parse_trailer, user_key, SequenceNumber, ValueType,
};
use crate::version::FileMetaHandle;
use smr_sim::IoKind;
use std::cmp::Ordering;

/// Iterates a sorted, disjoint level by opening one table at a time —
/// LevelDB's "concatenating" iterator. Keeps merging fan-in at one child
/// per level regardless of file counts.
#[derive(Debug)]
pub struct LevelIterator {
    ctx: SharedCtx,
    files: Vec<FileMetaHandle>,
    kind: IoKind,
    idx: usize,
    cur: Option<TableIterator>,
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
            error: None,
        }
    }

    fn open_current(&mut self) {
        self.stash_cur_error();
        self.cur = None;
        let Some(f) = self.files.get(self.idx) else {
            return;
        };
        match get_table(&self.ctx, f.id, f.size) {
            Ok(table) => self.cur = Some(table.iter(self.ctx.clone(), self.kind)),
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

    fn skip_exhausted(&mut self) {
        while self.cur.as_ref().is_some_and(|c| !c.valid()) {
            self.idx += 1;
            if self.idx >= self.files.len() {
                self.stash_cur_error();
                self.cur = None;
                return;
            }
            self.open_current();
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
        self.open_current();
        if let Some(c) = self.cur.as_mut() {
            c.seek_to_first();
        }
        self.skip_exhausted();
    }

    fn seek(&mut self, target: &[u8]) {
        self.idx = self
            .files
            .partition_point(|f| internal_compare(&f.largest, target) == Ordering::Less);
        self.open_current();
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

    /// Positions at the start of the database.
    pub fn seek_to_first(&mut self) {
        self.inner.seek_to_first();
    }

    /// Produces the next visible (user key, value) pair, or `None` at the
    /// end.
    pub fn next_entry(&mut self) -> Option<(Vec<u8>, Vec<u8>)> {
        while self.inner.valid() {
            // A trailer that fails to parse means a corrupt entry slipped
            // past the block CRC; skip it rather than take the scan down.
            let Ok((seq, ty)) = try_parse_trailer(self.inner.key()) else {
                self.inner.next();
                continue;
            };
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
                return Some((ukey, value));
            }
        }
        None
    }

    /// Takes the first deferred read error any underlying source hit —
    /// a scan that stopped on one looks exactly like a scan that
    /// reached the end, so callers who care check this afterwards.
    pub fn take_error(&mut self) -> Option<Error> {
        self.inner.take_error()
    }

    /// Collects up to `limit` entries from the current position.
    pub fn collect(&mut self, limit: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::with_capacity(limit.min(1024));
        while out.len() < limit {
            match self.next_entry() {
                Some(e) => out.push(e),
                None => break,
            }
        }
        out
    }
}
