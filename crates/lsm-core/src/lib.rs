//! # lsm-core — a LevelDB-style LSM-tree engine on simulated SMR disks
//!
//! A from-scratch reproduction of the LevelDB architecture the SEALDB
//! paper builds on (its Fig. 1): write-ahead log → arena-skiplist
//! memtable → L0 SSTable flush → leveled compaction with amplification
//! factor 10. The engine runs *directly on* the [`smr_sim`] simulated
//! disk through a file-id → extent indirection (§III-D of the paper: no
//! filesystem), and delegates every physical-placement decision to a
//! [`policy::PlacementPolicy`] — the seam where the `sealdb` crate
//! implements sets and dynamic bands.
//!
//! ```
//! use lsm_core::db::{options::Options, DbCore};
//! use lsm_core::policy::PerFilePolicy;
//! use placement::Ext4Sim;
//! use smr_sim::{Disk, Layout, TimeModel};
//!
//! let cap = 1 << 30;
//! let disk = Disk::new(cap, Layout::Hdd, TimeModel::hdd_st1000dm003(cap));
//! let opts = Options::scaled(256 << 10);
//! let alloc = Ext4Sim::new(cap - opts.log_zone_bytes, 16 << 20);
//! let mut db = DbCore::open(disk, opts, Box::new(PerFilePolicy::new(Box::new(alloc)))).unwrap();
//! db.put(b"hello", b"world").unwrap();
//! assert_eq!(db.get(b"hello").unwrap(), Some(b"world".to_vec()));
//! ```

/// Byte-budgeted LRU caches (block cache, table cache).
pub mod cache;
/// Shared store context threading the file store and caches.
pub mod context;
/// The database core: writes, reads, flushes, compactions.
pub mod db;
/// Error and result types for the engine.
pub mod error;
/// File-id to disk-extent indirection over the simulated disk.
pub mod filestore;
/// Internal iterator traits and the merging iterator.
pub mod iterator;
/// Skiplist memtable with arena storage.
pub mod memtable;
/// Placement-policy trait and the per-file baseline policy.
pub mod policy;
/// SSTable blocks, builders and readers.
pub mod sstable;
/// Core identifiers: file ids, sequence numbers, value tags.
pub mod types;
/// Wire coding, checksums, bloom filters and the seeded RNG.
pub mod util;
/// Versioned file-layout metadata and manifest logging.
pub mod version;
/// Write-ahead log record format (LevelDB block framing).
pub mod wal;

pub use db::{
    batch::WriteBatch,
    options::Options,
    scrub::{ScrubConfig, ScrubReport},
    CompactionRecord, DbCore, RecoveryReport, Snapshot, StallStats, VLOG_FILE_BASE,
};
pub use error::{Error, Result};
pub use filestore::{CrashImage, FileStore};
pub use policy::{GcConfig, GcReport, PerFilePolicy, PlacementPolicy, SetStats};
pub use types::{FileId, SequenceNumber, ValueType};
pub use wal::{LogWriter, WalStream};
