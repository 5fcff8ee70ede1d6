//! # smrdb — the SMRDB baseline
//!
//! The SEALDB paper compares against SMRDB \[24\] (Pitchumani et al.,
//! SYSTOR 2015), re-implemented "as faithfully as possible according to
//! the descriptions in its paper". Its design choices, quoted from
//! SEALDB §IV:
//!
//! * "enlarging SSTables to the band size" — the SSTable *is* a band
//!   (40 MB at paper scale, 10 × a LevelDB table);
//! * "assigning SSTables to dedicated bands" — a table always occupies
//!   one whole fixed band, so writing it is a pure band append and no
//!   auxiliary write amplification arises;
//! * "reserving only two levels for LSM-trees where key ranges of
//!   SSTables in the same level may be overlapped" — level 0 receives
//!   the (band-sized) memtable flushes, whose ranges overlap; level 1 is
//!   the sorted terminal level.
//!
//! This module expresses that design as a configuration of the shared
//! [`lsm_core`] engine: two levels, band-sized write buffer and tables,
//! per-file placement over [`placement::FixedBandAlloc`]. The paper's
//! observed consequence — enormous compactions (~900 MB on average,
//! Fig. 10(b)) that "heavily slow down its random write performance" —
//! emerges from the configuration rather than being modelled directly.

use lsm_core::Options;

/// Fraction of a band usable by a table: the builder may overshoot its
/// split threshold by up to one block, so tables target 15/16 of the
/// band and always fit their dedicated band.
const BAND_FILL_NUM: u64 = 15;
/// Denominator of the band-fill fraction.
const BAND_FILL_DEN: u64 = 16;

/// SMRDB's L0 flush-count compaction trigger. Larger than LevelDB's 4:
/// with band-sized flushes, triggering less often amortises the huge
/// level-merge over more fresh data, which is what keeps SMRDB's
/// LSM-tree write amplification *below* LevelDB's (Fig. 12(a)) even
/// though each compaction is enormous.
const L0_TRIGGER: usize = 8;

/// Engine options for SMRDB given the SMR band size.
///
/// The returned options preserve SMRDB's structure at any scale: table
/// and write buffer sized to (almost) a band, two levels, no deeper
/// hierarchy.
pub(crate) fn smrdb_options(band_size: u64) -> Options {
    let table = band_size * BAND_FILL_NUM / BAND_FILL_DEN;
    let mut o = Options::scaled(table);
    o.num_levels = 2;
    o.l0_compaction_trigger = L0_TRIGGER;
    // Preserve LevelDB's 1:2:3 trigger/slowdown/stop ratio at SMRDB's
    // larger L0 trigger so serving backpressure scales with band-sized
    // flushes instead of firing on every one.
    o.l0_slowdown_trigger = 2 * L0_TRIGGER;
    o.l0_stop_trigger = 3 * L0_TRIGGER;
    // Level 1 is terminal; its budget is irrelevant but kept huge so the
    // score computation never considers it.
    o.level_base_bytes = u64::MAX / 4;
    // No grandparent level exists; keep outputs at full table size.
    o.max_grandparent_overlap_bytes = u64::MAX / 4;
    // The block-cache budget must not scale with SMRDB's band-sized
    // tables: all stores get the cache a regular LevelDB would have.
    o.block_cache_bytes = band_size / 5;
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1 << 20;

    #[test]
    fn tables_fit_dedicated_bands() {
        let o = smrdb_options(40 * MB);
        assert!(o.sstable_size < 40 * MB);
        assert!(o.sstable_size >= 37 * MB);
        assert_eq!(o.write_buffer_size as u64, o.sstable_size);
    }

    #[test]
    fn two_level_structure() {
        let o = smrdb_options(40 * MB);
        assert_eq!(o.num_levels, 2);
        assert_eq!(o.l0_compaction_trigger, L0_TRIGGER);
    }
}
