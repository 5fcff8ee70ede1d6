//! Set bookkeeping (§III-A, §III-C of the paper).
//!
//! A *set* groups the SSTables written by one compaction (or one flush)
//! into a single contiguous on-disk region. Sets are "produced or faded
//! by a compaction": when a member SSTable is later consumed as a
//! compaction victim it is only *marked invalid* — its bytes are
//! reclaimed when the whole region fades ("the space of an invalid
//! victim SSTable is recycled until the set it belongs to becomes
//! invalid").

use lsm_core::types::FileId;
use lsm_core::SetStats;
use smr_sim::Extent;
use std::collections::{BTreeMap, BTreeSet};

/// One on-disk set region.
#[derive(Clone, Debug)]
pub(crate) struct SetRegion {
    /// The contiguous extent the allocator handed out for the region.
    pub(crate) ext: Extent,
    /// All member files written into the region.
    pub(crate) members: Vec<FileId>,
    /// Members still valid (not yet consumed by a compaction).
    pub(crate) live: BTreeSet<FileId>,
    /// Whether the region came from a compaction (vs a flush).
    pub(crate) from_compaction: bool,
}

impl SetRegion {
    /// Number of invalidated members.
    fn invalid_count(&self) -> usize {
        self.members.len() - self.live.len()
    }
}

/// Registry of all live set regions.
#[derive(Debug, Default)]
pub(crate) struct SetRegistry {
    next_id: u64,
    regions: BTreeMap<u64, SetRegion>,
    file_region: BTreeMap<FileId, u64>,
    stats: SetStats,
}

impl SetRegistry {
    /// Creates an empty registry.
    pub(crate) fn new() -> Self {
        SetRegistry {
            next_id: 1,
            ..Default::default()
        }
    }

    /// Registers a new set region and returns its id.
    pub(crate) fn register(
        &mut self,
        ext: Extent,
        members: Vec<FileId>,
        from_compaction: bool,
    ) -> u64 {
        debug_assert!(!members.is_empty());
        let id = self.next_id;
        self.next_id += 1;
        for &f in &members {
            let prev = self.file_region.insert(f, id);
            debug_assert!(prev.is_none(), "file {f} already in a set");
        }
        self.stats.sets_created += 1;
        self.stats.sets_live += 1;
        if from_compaction {
            self.stats.compaction_sets += 1;
            self.stats.compaction_set_bytes += ext.len;
            self.stats.compaction_set_files += members.len() as u64;
        }
        self.regions.insert(
            id,
            SetRegion {
                ext,
                live: members.iter().copied().collect(),
                members,
                from_compaction,
            },
        );
        id
    }

    /// Marks a member invalid. Returns the region's extent if the whole
    /// set has faded (the caller then recycles the space).
    pub(crate) fn invalidate_file(&mut self, file: FileId) -> Option<Extent> {
        let region_id = self.file_region.remove(&file)?;
        let region = self.regions.get_mut(&region_id).expect("region exists");
        let removed = region.live.remove(&file);
        debug_assert!(removed, "file {file} already invalid");
        if region.live.is_empty() {
            let region = self.regions.remove(&region_id).expect("region exists");
            self.stats.sets_faded += 1;
            self.stats.sets_live -= 1;
            Some(region.ext)
        } else {
            None
        }
    }

    /// The set id a file belongs to, if any.
    fn region_of(&self, file: FileId) -> Option<u64> {
        self.file_region.get(&file).copied()
    }

    /// The paper's victim priority: total invalid members across the
    /// distinct regions holding the given files.
    ///
    /// Only *nearly-faded* regions (at most one live member remaining)
    /// contribute: compacting such a victim immediately recycles the
    /// whole region. The paper's heuristic must work "implicitly with no
    /// overhead" (SIII-C); letting any invalid member override the
    /// round-robin pointer makes the picker hammer one key range and
    /// inflates WA from ~9.3x to ~19x — see the victim-priority ablation
    /// bench.
    pub(crate) fn priority_for(&self, files: &[FileId]) -> u64 {
        let mut seen = BTreeSet::new();
        let mut score = 0u64;
        for &f in files {
            if let Some(id) = self.region_of(f) {
                if seen.insert(id) {
                    let r = &self.regions[&id];
                    let invalid = r.invalid_count() as u64;
                    if r.members.len() > 1 && r.live.len() <= 1 {
                        score += invalid;
                    }
                }
            }
        }
        score
    }

    /// Removes a region wholesale (garbage-collection relocation): all
    /// live members are unmapped and the region counts as faded. Returns
    /// the removed region so the caller can rewrite its live members.
    pub(crate) fn take_region(&mut self, id: u64) -> Option<SetRegion> {
        let region = self.regions.remove(&id)?;
        for f in &region.members {
            self.file_region.remove(f);
        }
        self.stats.sets_faded += 1;
        self.stats.sets_live -= 1;
        Some(region)
    }

    /// Live regions, in ascending id order.
    pub(crate) fn regions(&self) -> impl Iterator<Item = (&u64, &SetRegion)> {
        self.regions.iter()
    }

    /// Number of live regions.
    pub(crate) fn live_count(&self) -> usize {
        self.regions.len()
    }

    /// Aggregate statistics.
    pub(crate) fn stats(&self) -> SetStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1 << 20;

    #[test]
    fn register_and_fade() {
        let mut r = SetRegistry::new();
        let id = r.register(Extent::new(0, 12 * MB), vec![10, 11, 12], true);
        assert_eq!(r.region_of(11), Some(id));
        assert_eq!(r.live_count(), 1);
        assert_eq!(r.invalidate_file(10), None);
        assert_eq!(r.regions[&id].invalid_count(), 1);
        assert_eq!(r.invalidate_file(11), None);
        // Last member fades the whole region.
        assert_eq!(r.invalidate_file(12), Some(Extent::new(0, 12 * MB)));
        assert_eq!(r.live_count(), 0);
        let s = r.stats();
        assert_eq!(s.sets_created, 1);
        assert_eq!(s.sets_faded, 1);
        assert_eq!(s.sets_live, 0);
    }

    #[test]
    fn unknown_file_is_no_op() {
        let mut r = SetRegistry::new();
        assert_eq!(r.invalidate_file(999), None);
        assert_eq!(r.region_of(999), None);
    }

    #[test]
    fn priority_counts_distinct_regions() {
        let mut r = SetRegistry::new();
        r.register(Extent::new(0, 8 * MB), vec![1, 2], true);
        r.register(Extent::new(8 * MB, 8 * MB), vec![3, 4], true);
        r.invalidate_file(1);
        r.invalidate_file(3);
        // Files 2 and 4 live in regions with one invalid member each;
        // the region of 2 counted once even if mentioned twice.
        assert_eq!(r.priority_for(&[2, 2, 4]), 2);
        assert_eq!(r.priority_for(&[2]), 1);
        assert_eq!(r.priority_for(&[999]), 0);
    }

    #[test]
    fn flush_regions_excluded_from_compaction_set_stats() {
        let mut r = SetRegistry::new();
        r.register(Extent::new(0, 4 * MB), vec![1], false);
        r.register(Extent::new(4 * MB, 12 * MB), vec![2, 3, 4], true);
        let s = r.stats();
        assert_eq!(s.sets_created, 2);
        assert_eq!(s.compaction_sets, 1);
        assert_eq!(s.avg_set_files(), 3.0);
        assert_eq!(s.avg_set_bytes(), 12.0 * MB as f64);
    }
}
