//! Store configurations: one factory for every system the paper
//! evaluates, each a (disk layout × allocator × placement policy ×
//! engine options) combination of the workspace's building blocks.
//!
//! | Store | Disk layout | Allocator | Policy |
//! |---|---|---|---|
//! | LevelDB | fixed-band SMR | Ext4-like block groups | per-file + fs journal |
//! | LevelDB+sets (Fig. 14) | fixed-band SMR | Ext4-like block groups | sets + fs journal |
//! | SMRDB | fixed-band SMR | dedicated bands | per-file, 2 levels, band tables |
//! | SEALDB | raw HM-SMR | dynamic bands | sets + priority picking |

use crate::policy::SetPolicy;
use lsm_core::{DbCore, Options, PerFilePolicy, PlacementPolicy, Result};
use placement::{DynamicBandAlloc, Ext4Sim, FixedBandAlloc};
use smr_sim::{Disk, Layout, TimeModel};

/// Which of the paper's systems to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreKind {
    /// LevelDB 1.19 on Ext4 over a fixed-band SMR drive (the baseline).
    LevelDb,
    /// LevelDB plus sets only (the Fig. 14 contribution ablation).
    LevelDbSets,
    /// SMRDB: two levels, band-sized tables in dedicated bands.
    SmrDb,
    /// SEALDB: sets + dynamic bands on a raw HM-SMR drive.
    SealDb,
}

impl StoreKind {
    /// All four systems, in the paper's presentation order.
    pub const ALL: [StoreKind; 4] = [
        StoreKind::LevelDb,
        StoreKind::LevelDbSets,
        StoreKind::SmrDb,
        StoreKind::SealDb,
    ];

    /// The three systems of the main evaluation (Fig. 8-12).
    pub const MAIN: [StoreKind; 3] = [StoreKind::LevelDb, StoreKind::SmrDb, StoreKind::SealDb];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            StoreKind::LevelDb => "LevelDB",
            StoreKind::LevelDbSets => "LevelDB+sets",
            StoreKind::SmrDb => "SMRDB",
            StoreKind::SealDb => "SEALDB",
        }
    }
}

/// Configuration for building a store.
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Which system to build.
    pub kind: StoreKind,
    /// SSTable size — the single scale knob. The paper uses 4 MiB; the
    /// default bench scale is 256 KiB (1/16 linear scale).
    pub sstable_size: u64,
    /// Band size as a multiple of the SSTable size (paper default: 10).
    pub band_ratio: u64,
    /// Disk capacity in bytes.
    pub disk_capacity: u64,
    /// Whether writes go through the WAL.
    pub wal: bool,
    /// Determinism seed.
    pub seed: u64,
    /// Overrides the disk layout chosen by the kind (e.g. Fig. 2 runs
    /// LevelDB on a conventional HDD).
    pub layout_override: Option<Layout>,
    /// Sync every WAL append to the simulated disk (`sync=true`
    /// semantics) instead of buffering `wal_buffer_bytes` chunks.
    /// Replication nodes require this: an acked write must survive the
    /// node's own crash-image reopen, so page-cache-buffered WAL bytes
    /// are not acceptable.
    pub sync_writes: bool,
    /// Instance label for deployments running many stores of one kind
    /// (shards, replicas): namespaces the store's metrics exports so
    /// per-instance registries stay distinguishable when aggregated.
    /// `None` falls back to the kind's display name.
    pub instance: Option<String>,
    /// Key-value separation: when set, values at or above the threshold
    /// live in a band-aligned value log and the LSM stores pointers
    /// (off by default — inline values, byte-identical legacy
    /// behaviour). See [`seal_vlog::ValueLog`].
    pub vlog: Option<seal_vlog::VlogParams>,
}

impl StoreConfig {
    /// A configuration at the given SSTable scale with paper ratios.
    pub fn new(kind: StoreKind, sstable_size: u64, disk_capacity: u64) -> Self {
        StoreConfig {
            kind,
            sstable_size,
            band_ratio: 10,
            disk_capacity,
            wal: true,
            seed: 0x5EA1DB,
            layout_override: None,
            sync_writes: false,
            instance: None,
            vlog: None,
        }
    }

    /// Enables key-value separation with explicit parameters.
    pub fn with_vlog(mut self, params: seal_vlog::VlogParams) -> Self {
        self.vlog = Some(params);
        self
    }

    /// Same configuration under an instance label (see
    /// [`StoreConfig::instance`]).
    pub fn with_instance(mut self, label: impl Into<String>) -> Self {
        self.instance = Some(label.into());
        self
    }

    /// Band size in bytes.
    pub fn band_size(&self) -> u64 {
        self.sstable_size * self.band_ratio
    }

    /// Guard-region size (one SSTable, per the paper).
    pub fn guard_bytes(&self) -> u64 {
        self.sstable_size
    }

    /// Ext4 block-group size at this scale (128 MiB with 4 MiB tables).
    fn block_group_size(&self) -> u64 {
        self.sstable_size * 32
    }

    fn engine_options(&self) -> Options {
        let mut o = match self.kind {
            StoreKind::SmrDb => smrdb::smrdb_options(self.band_size()),
            _ => Options::scaled(self.sstable_size),
        };
        o.wal_enabled = self.wal;
        o.seed = self.seed;
        if self.sync_writes {
            o.wal_buffer_bytes = 0;
        }
        o
    }

    fn default_layout(&self) -> Layout {
        match self.kind {
            StoreKind::SealDb => Layout::RawHmSmr {
                guard_bytes: self.guard_bytes(),
            },
            _ => Layout::FixedBand {
                band_size: self.band_size(),
            },
        }
    }

    /// Builds the configured store.
    pub fn build(&self) -> Result<Store> {
        let layout = self
            .layout_override
            .unwrap_or_else(|| self.default_layout());
        let opts = self.engine_options();
        let model = match layout {
            Layout::Hdd => TimeModel::hdd_st1000dm003(self.disk_capacity),
            _ => TimeModel::smr_st5000as0011(self.disk_capacity),
        };
        let disk = Disk::new(self.disk_capacity, layout, model);
        // Data allocators must stay clear of the log zone at the top of
        // the address space, plus one guard window on raw SMR so the last
        // band's damage window cannot reach the zone.
        let data_cap = self.disk_capacity - opts.log_zone_bytes - self.guard_bytes();
        let policy: Box<dyn PlacementPolicy> = match self.kind {
            StoreKind::LevelDb => Box::new(PerFilePolicy::with_fs_journal(Box::new(Ext4Sim::new(
                data_cap,
                self.block_group_size(),
            )))),
            StoreKind::LevelDbSets => Box::new(
                SetPolicy::new(Box::new(Ext4Sim::new(data_cap, self.block_group_size())))
                    .with_fs_journal(),
            ),
            StoreKind::SmrDb => Box::new(PerFilePolicy::new(Box::new(FixedBandAlloc::new(
                data_cap,
                self.band_size(),
            )))),
            StoreKind::SealDb => Box::new(SetPolicy::new(Box::new(DynamicBandAlloc::new(
                data_cap,
                self.sstable_size,
                self.guard_bytes(),
            )))),
        };
        let db = DbCore::open(disk, opts, policy)?;
        let vlog = self.vlog.map(seal_vlog::ValueLog::new);
        let ord_audit = Store::fresh_auditor(&db, vlog.as_ref());
        Ok(Store {
            kind: self.kind,
            instance: self.instance.clone(),
            db,
            vlog,
            ord_audit,
        })
    }
}

pub use crate::store::Store;
