//! Engine options. The paper's configuration (key 16 B, value 4 KB,
//! SSTable 4 MB, AF 10, band = 10 × SSTable) is expressed through
//! [`Options::scaled`], which preserves every ratio while letting the
//! benchmarks run at a fraction of the paper's 100 GB datasets.

/// Tunables of one database instance.
#[derive(Clone, Debug)]
pub struct Options {
    /// Memtable flush threshold (LevelDB `write_buffer_size`); kept equal
    /// to the SSTable size so each flush emits one table.
    pub write_buffer_size: usize,
    /// Target SSTable size (paper: 4 MB).
    pub sstable_size: u64,
    /// Data block size inside tables (LevelDB: 4 KiB).
    pub(crate) block_size: usize,
    /// Number of levels (LevelDB: 7).
    pub num_levels: usize,
    /// L0 file-count compaction trigger (LevelDB: 4).
    pub l0_compaction_trigger: usize,
    /// L0 file count at which each write is delayed once, by 1 ms
    /// (LevelDB's `kL0_SlowdownWritesTrigger`, 8). Only observed in
    /// deferred-compaction mode.
    pub l0_slowdown_trigger: usize,
    /// L0 file count at which writes stop until compaction brings the
    /// count back down (LevelDB's `kL0_StopWritesTrigger`, 12). Only
    /// observed in deferred-compaction mode.
    pub l0_stop_trigger: usize,
    /// L1 byte budget; level i allows `base * AF^(i-1)`.
    pub level_base_bytes: u64,
    /// The paper's amplification factor AF between adjacent levels (10).
    level_multiplier: u64,
    /// Output files stop growing when they overlap more than this many
    /// bytes of the grandparent level (LevelDB: 10 × max file size).
    pub max_grandparent_overlap_bytes: u64,
    /// Block cache budget in bytes.
    pub block_cache_bytes: u64,
    /// Open-table cache capacity in entries.
    pub table_cache_entries: u64,
    /// WAL bytes buffered in memory before reaching the disk (models the
    /// OS page cache under a no-sync LevelDB; 0 = every write synced).
    /// The same page cache holds back each value-log file's appends up
    /// to this size; they drain before any WAL, manifest or table write,
    /// so a durable pointer always names durable bytes. Buffered and
    /// held bytes are lost on a crash, like `sync=false` writes.
    pub wal_buffer_bytes: usize,
    /// Seed for the engine's deterministic internal randomness.
    pub seed: u64,
}

impl Options {
    /// Options with every size ratio of the paper preserved, parameterised
    /// by the SSTable size. `Options::scaled(4 << 20)` is the paper's
    /// exact configuration.
    pub fn scaled(sstable_size: u64) -> Self {
        Options {
            write_buffer_size: sstable_size as usize,
            sstable_size,
            block_size: 4096,
            num_levels: 7,
            l0_compaction_trigger: 4,
            l0_slowdown_trigger: 8,
            l0_stop_trigger: 12,
            level_base_bytes: 10 * sstable_size,
            level_multiplier: 10,
            max_grandparent_overlap_bytes: 10 * sstable_size,
            block_cache_bytes: 2 * sstable_size,
            table_cache_entries: 1000,
            wal_buffer_bytes: 64 << 10,
            seed: 0x5EA1DB,
        }
    }

    /// The amplification factor AF between adjacent levels.
    pub fn level_multiplier(&self) -> u64 {
        self.level_multiplier
    }

    /// Level parameters for the version set.
    pub(crate) fn level_params(&self) -> crate::version::LevelParams {
        crate::version::LevelParams {
            num_levels: self.num_levels,
            l0_trigger: self.l0_compaction_trigger,
            base_bytes: self.level_base_bytes,
            multiplier: self.level_multiplier,
        }
    }

    /// Conventional-zone bytes reserved for WAL/manifest logs: sixteen
    /// tables' worth, and never under 16 MiB (64 log chunks), so the
    /// zone always holds the WAL and the manifest.
    pub fn log_zone_bytes(&self) -> u64 {
        (16 * self.sstable_size).max(16 << 20)
    }

    /// Sanity-checks the option combination, returning a description of
    /// the first problem found.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.num_levels < 2 {
            return Err("num_levels must be at least 2".into());
        }
        if self.sstable_size == 0 || self.write_buffer_size == 0 {
            return Err("sstable_size and write_buffer_size must be positive".into());
        }
        if self.block_size < 64 {
            return Err("block_size must be at least 64 bytes".into());
        }
        if self.sstable_size < self.block_size as u64 {
            return Err("sstable_size must be at least one block".into());
        }
        if self.l0_compaction_trigger == 0 {
            return Err("l0_compaction_trigger must be positive".into());
        }
        if self.l0_slowdown_trigger < self.l0_compaction_trigger {
            return Err("l0_slowdown_trigger must be at least the compaction trigger".into());
        }
        if self.l0_stop_trigger <= self.l0_slowdown_trigger {
            return Err("l0_stop_trigger must exceed l0_slowdown_trigger".into());
        }
        if self.level_multiplier < 2 {
            return Err("level_multiplier (AF) must be at least 2".into());
        }
        Ok(())
    }

    /// Table-build options: LevelDB's restart interval of 16, and no
    /// filter block — LevelDB 1.19 ships with no filter policy
    /// configured and the paper evaluates defaults. The table format
    /// still reads and writes blooms.
    pub(crate) fn table_options(&self) -> crate::sstable::TableOptions {
        crate::sstable::TableOptions {
            block_size: self.block_size,
            restart_interval: 16,
            bloom_bits_per_key: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_ratios() {
        let o = Options::scaled(4 << 20);
        assert_eq!(o.sstable_size, 4 << 20);
        assert_eq!(o.level_base_bytes, 40 << 20);
        assert_eq!(o.level_multiplier, 10);
        assert_eq!(o.write_buffer_size as u64, o.sstable_size);
    }

    #[test]
    fn scaling_preserves_ratios() {
        let a = Options::scaled(4 << 20);
        let b = Options::scaled(256 << 10);
        assert_eq!(
            a.level_base_bytes / a.sstable_size,
            b.level_base_bytes / b.sstable_size
        );
        assert_eq!(
            a.max_grandparent_overlap_bytes / a.sstable_size,
            b.max_grandparent_overlap_bytes / b.sstable_size
        );
    }
}

#[cfg(test)]
mod validate_tests {
    use super::*;

    #[test]
    fn default_options_validate() {
        Options::scaled(4 << 20).validate().unwrap();
        Options::scaled(64 << 10).validate().unwrap();
    }

    #[test]
    fn bad_combinations_rejected() {
        let mut o = Options::scaled(4 << 20);
        o.num_levels = 1;
        assert!(o.validate().is_err());
        let mut o = Options::scaled(4 << 20);
        o.sstable_size = 0;
        assert!(o.validate().is_err());
        let mut o = Options::scaled(4 << 20);
        o.block_size = 16;
        assert!(o.validate().is_err());
        let mut o = Options::scaled(4 << 20);
        o.level_multiplier = 1;
        assert!(o.validate().is_err());
    }
}
