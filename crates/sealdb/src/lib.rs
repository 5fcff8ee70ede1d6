//! # sealdb — a set-aware key-value store on SMR drives with dynamic bands
//!
//! Reproduction of *"A Set-aware Key-Value Store on Shingled Magnetic
//! Recording Drives with Dynamic Band"* (Yao et al., IPDPS 2018).
//!
//! SEALDB reconciles LSM-tree compactions with shingled-recording
//! constraints through two cooperating techniques:
//!
//! 1. **Sets** (§III-A) — the SSTables written by one compaction are
//!    concatenated into a contiguous on-disk region, so the next
//!    compaction over that key range reads and writes one large
//!    sequential extent instead of ~10 scattered files
//!    (`set::SetRegistry`, [`policy::SetPolicy`]).
//! 2. **Dynamic bands** (§III-B) — variable-size bands on a raw
//!    host-managed SMR drive, managed by a free-space list that serves
//!    inserts under `S_free ≥ S_req + S_guard` (Eq. 1) and otherwise
//!    appends, eliminating the drive's auxiliary write amplification
//!    ([`placement::DynamicBandAlloc`]).
//!
//! The crate also builds the paper's baselines (LevelDB-on-Ext4,
//! LevelDB + sets, SMRDB) from the same engine via [`config::StoreKind`],
//! so every comparison in the evaluation runs the identical code path
//! except for the design axis under test. Beyond the paper, the store
//! supports pinned-snapshot reads ([`Store::pin`]) and implements the
//! paper's stated future work — fragment garbage collection
//! ([`Store::collect_garbage`]), which relocates nearly-faded sets so
//! free space coalesces back into reusable dynamic bands.
//!
//! ```
//! use sealdb::{StoreConfig, StoreKind};
//!
//! let cfg = StoreConfig::new(StoreKind::SealDb, 64 << 10, 1 << 30);
//! let mut store = cfg.build().unwrap();
//! store.put(b"key", b"value").unwrap();
//! assert_eq!(store.get(b"key").unwrap(), Some(b"value".to_vec()));
//! assert_eq!(store.kind.name(), "SEALDB");
//! ```

/// Store construction configuration (drive kind, policy, sizes).
pub mod config;
/// The node interface routing layers are generic over.
mod node;
/// Set-based placement over any allocator, with GC relocation.
pub mod policy;
/// Set-region bookkeeping: registration, fading, victim priority.
pub mod set;
/// The SMRDB baseline as a configuration of the shared engine.
mod smrdb;
/// The assembled SEALDB store facade.
pub mod store;
/// Band-aligned key-value separation: the value log.
mod vlog;

pub use config::{StoreConfig, StoreKind};
pub use node::{AuditReport, KvNode};
pub use policy::SetPolicy;
pub use store::{GcShipment, MetricsSnapshot, Store, StoreSnapshot};
pub use vlog::{ValueLog, VlogParams};
