//! Shared store context: the file store plus the block and table caches,
//! behind one lock so table iterators can fetch blocks on demand through
//! the `InternalIterator` methods, which take no context argument. No
//! iterator escapes an engine call (`scan` returns a `Vec`); the iterators
//! hold a handle because the trait's signatures give them nothing to
//! borrow from, not because they outlive the call.
//!
//! Locking discipline: nothing holds the context guard across a call that
//! re-enters the context — every helper locks, performs one disk/cache
//! operation, and releases.

use crate::cache::LruCache;
use crate::error::Result;
use crate::filestore::FileStore;
use crate::sstable::block::Block;
use crate::sstable::table::Table;
use crate::types::FileId;
use std::sync::Arc;

/// Key of a cached block: (file id, block offset within the file).
pub type BlockCacheKey = (FileId, u64);

/// A mutex whose `lock()` never returns a poison error: a panic while
/// holding the store context must not cascade into every other path that
/// touches the disk (recovery code in particular keeps running after an
/// injected-fault panic unwinds through a worker).
#[derive(Debug)]
pub struct CtxMutex<T>(std::sync::Mutex<T>);

impl<T> CtxMutex<T> {
    /// Wraps `value` in a poison-forgiving mutex.
    pub fn new(value: T) -> Self {
        CtxMutex(std::sync::Mutex::new(value))
    }

    /// Locks, recovering the guard even if a previous holder panicked.
    pub fn lock(&self) -> std::sync::MutexGuard<'_, T> {
        self.0
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// The mutable store state shared between the engine and its iterators.
#[derive(Debug)]
pub struct StoreCtx {
    /// File-id indirection over the simulated disk.
    pub fs: FileStore,
    /// Data-block cache (LevelDB's `block_cache`).
    pub block_cache: LruCache<BlockCacheKey, Block>,
    /// Open-table cache (LevelDB's `TableCache`), charged per entry.
    pub table_cache: LruCache<FileId, Table>,
}

/// Shared handle to the store context.
pub type SharedCtx = Arc<CtxMutex<StoreCtx>>;

/// Creates a shared context with the given cache budgets.
pub(crate) fn new_ctx(
    fs: FileStore,
    block_cache_bytes: u64,
    table_cache_entries: u64,
) -> SharedCtx {
    Arc::new(CtxMutex::new(StoreCtx {
        fs,
        block_cache: LruCache::new(block_cache_bytes),
        table_cache: LruCache::new(table_cache_entries),
    }))
}

/// Fetches an open table reader through the table cache, opening (and
/// charging `Meta` reads for footer/index/filter) on a miss. Tables this
/// process built are already here — `DbCore::install_tables` hands their
/// readers over from memory — so a miss means the reader was evicted or
/// the table predates the last restart.
pub fn get_table(ctx: &SharedCtx, id: FileId, size: u64) -> Result<Arc<Table>> {
    if let Some(t) = ctx.lock().table_cache.get(&id) {
        return Ok(t);
    }
    let table = Arc::new(Table::open(ctx, id, size)?);
    ctx.lock().table_cache.insert(id, Arc::clone(&table), 1);
    Ok(table)
}

/// Evicts a deleted file from both caches: its table reader and every
/// `(id, *)` block. The blocks could not age out on their own — a hot
/// block of a table a compaction just consumed sits in the block cache's
/// protected segment, holding budget no future read can use, until
/// enough other blocks are promoted past it.
pub(crate) fn evict_file(ctx: &SharedCtx, id: FileId) {
    let mut guard = ctx.lock();
    guard.table_cache.remove(&id);
    guard.block_cache.remove_range((id, 0)..=(id, u64::MAX));
}
