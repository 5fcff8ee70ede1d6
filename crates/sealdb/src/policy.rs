//! The set-aware placement policy: the glue between the LSM engine's
//! compactions and the on-disk set regions.
//!
//! * **Flush** outputs become single-member regions, each level-0 run
//!   chained back-to-back by the allocator so an L0→L1 compaction reads
//!   it as one stream.
//! * **Compaction** outputs are written back-to-back into *one*
//!   allocation — the regenerated set — turning "multiple random accesses
//!   on scattered SSTables into a large sequential one" (§III-A).
//! * **Delete** marks members invalid; a region's space returns to the
//!   allocator only when the whole set fades (§III-C), and victim
//!   priority steers compactions toward sets with the most invalid
//!   members so fragments are recycled implicitly.

use crate::set::SetRegistry;
use lsm_core::filestore::FileStore;
use lsm_core::policy::{drain_alloc_events, GcConfig, GcReport};
use lsm_core::types::FileId;
use lsm_core::{PlacementPolicy, Result, SetStats};
use placement::Allocator;
use smr_sim::{Extent, IoKind, ObsEventKind, ObsLayer};

/// Set-based placement over any allocator (dynamic bands for SEALDB;
/// an Ext4-like allocator for the Fig. 14 "LevelDB + sets" ablation).
pub struct SetPolicy {
    alloc: Box<dyn Allocator>,
    registry: SetRegistry,
    /// Enables the §III-C victim-priority heuristic.
    priority_picking: bool,
    /// Pays a 4 KiB filesystem-journal write per region operation; used
    /// by the "LevelDB + sets" ablation, which still sits above Ext4.
    fs_journal: bool,
}

impl std::fmt::Debug for SetPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SetPolicy")
            .field("alloc", &self.alloc.name())
            .field("live_regions", &self.registry.live_count())
            .field("priority_picking", &self.priority_picking)
            .field("fs_journal", &self.fs_journal)
            .finish()
    }
}

impl SetPolicy {
    /// Creates a set policy over `alloc` with priority picking enabled.
    pub fn new(alloc: Box<dyn Allocator>) -> Self {
        SetPolicy {
            alloc,
            registry: SetRegistry::new(),
            priority_picking: true,
            fs_journal: false,
        }
    }

    /// Disables the victim-priority heuristic (ablation).
    pub fn without_priority_picking(mut self) -> Self {
        self.priority_picking = false;
        self
    }

    /// Enables per-operation filesystem metadata writes (the
    /// LevelDB-with-sets ablation runs above a filesystem).
    pub(crate) fn with_fs_journal(mut self) -> Self {
        self.fs_journal = true;
        self
    }

    fn journal(&self, fs: &mut FileStore) -> Result<()> {
        if self.fs_journal {
            use lsm_core::version::FSMETA_LOG_ID;
            if !fs.has_log(FSMETA_LOG_ID) {
                fs.create_log(FSMETA_LOG_ID)?;
            }
            // Circular journal: wrap before crowding out the WAL/manifest.
            if fs.log_len(FSMETA_LOG_ID)? > 4 << 20 {
                fs.delete_log(FSMETA_LOG_ID)?;
                fs.create_log(FSMETA_LOG_ID)?;
            }
            fs.log_append(FSMETA_LOG_ID, &[0u8; 4096], IoKind::Meta)?;
        }
        Ok(())
    }
}

impl PlacementPolicy for SetPolicy {
    fn name(&self) -> &'static str {
        "sets"
    }

    fn place_flush(
        &mut self,
        fs: &mut FileStore,
        file: FileId,
        data: &[u8],
        run: u64,
    ) -> Result<u64> {
        let ext = self.alloc.allocate_in_run(data.len() as u64, run)?;
        drain_alloc_events(self.alloc.as_mut(), fs);
        fs.write_file_at(file, ext, data, IoKind::Flush)?;
        self.journal(fs)?;
        Ok(self.registry.register(ext, vec![file], false))
    }

    fn place_outputs(&mut self, fs: &mut FileStore, outputs: &[(FileId, Vec<u8>)]) -> Result<u64> {
        if outputs.is_empty() {
            return Ok(0);
        }
        let total: u64 = outputs.iter().map(|(_, d)| d.len() as u64).sum();
        // One allocation for the whole regenerated set; members are laid
        // out back-to-back so the set reads and writes sequentially.
        let region = self.alloc.allocate(total)?;
        drain_alloc_events(self.alloc.as_mut(), fs);
        let mut offset = region.offset;
        let mut members = Vec::with_capacity(outputs.len());
        for (file, data) in outputs {
            let ext = Extent::new(offset, data.len() as u64);
            fs.write_file_at(*file, ext, data, IoKind::CompactionWrite)?;
            offset += data.len() as u64;
            members.push(*file);
        }
        self.journal(fs)?;
        Ok(self.registry.register(region, members, true))
    }

    fn place_vlog_segment(
        &mut self,
        fs: &mut FileStore,
        file: FileId,
        size: u64,
    ) -> Result<Extent> {
        // A value-log segment is its own single-member region: one whole
        // dynamic band that returns to the allocator the moment the log
        // retires it, never merged into a compaction set.
        let ext = self
            .alloc
            .allocate(size + lsm_core::policy::vlog_append_slack(fs))?;
        drain_alloc_events(self.alloc.as_mut(), fs);
        fs.register_file(file, ext);
        self.registry.register(ext, vec![file], false);
        self.journal(fs)?;
        Ok(ext)
    }

    fn delete_file(&mut self, fs: &mut FileStore, file: FileId) -> Result<()> {
        // Invalidate the member's bytes; recycle the region only when it
        // has fully faded.
        fs.drop_file(file)?;
        if let Some(region_ext) = self.registry.invalidate_file(file) {
            self.alloc.free(region_ext);
            drain_alloc_events(self.alloc.as_mut(), fs);
        }
        self.journal(fs)
    }

    fn victim_priority(&self, overlapped: &[FileId]) -> u64 {
        if self.priority_picking {
            self.registry.priority_for(overlapped)
        } else {
            0
        }
    }

    fn quarantine_extent(&mut self, fs: &mut FileStore, ext: Extent) -> u64 {
        let fenced = self.alloc.quarantine(ext);
        drain_alloc_events(self.alloc.as_mut(), fs);
        fenced
    }

    fn allocator(&self) -> &dyn Allocator {
        self.alloc.as_ref()
    }

    fn rebuild(&mut self, live: &[(lsm_core::types::FileId, Extent)]) {
        let exts: Vec<Extent> = live.iter().map(|&(_, e)| e).collect();
        self.alloc.rebuild(&exts);
        // Set grouping does not survive a power cut: every survivor
        // restarts as a single-member region, so a later delete of the
        // file frees exactly the extent the allocator relearned above.
        self.registry = SetRegistry::new();
        for &(file, ext) in live {
            self.registry.register(ext, vec![file], false);
        }
    }

    fn set_stats(&self) -> Option<SetStats> {
        Some(self.registry.stats())
    }

    /// The paper's stated future work (SIV-C): "these small fragments are
    /// quite difficult to be leveraged, thus SEALDB needs alternative
    /// garbage collection policies as a supplement."
    ///
    /// Policy implemented here: while fragments (free regions below the
    /// threshold) exceed the target share of the used span, relocate the
    /// live set that directly follows the largest fragment — rewriting it
    /// at the frontier (or into a big hole) merges the fragment with the
    /// space the set vacates, which coalesces into a reusable region.
    fn collect_garbage(&mut self, fs: &mut FileStore, cfg: &GcConfig) -> Result<GcReport> {
        let threshold = if cfg.fragment_threshold > 0 {
            cfg.fragment_threshold
        } else {
            let avg = self.registry.stats().avg_set_bytes();
            if avg <= 0.0 {
                return Ok(GcReport::default()); // nothing to measure against
            }
            avg as u64
        };
        let fragment_bytes = |alloc: &dyn Allocator| -> u64 {
            alloc
                .free_regions()
                .iter()
                .filter(|e| e.len < threshold)
                .map(|e| e.len)
                .sum()
        };
        let mut report = GcReport {
            fragments_before: fragment_bytes(self.alloc.as_ref()),
            ..Default::default()
        };
        report.fragments_after = report.fragments_before;
        for _ in 0..cfg.max_moves {
            let span = self.alloc.high_water().max(1);
            if (report.fragments_after as f64) / (span as f64) <= cfg.target_fragment_ratio {
                break;
            }
            // Fragments largest-first; pick the first one with a live set
            // right after it (a fragment at the tail of the banded region
            // has nothing to relocate and coalesces on its own later).
            let mut fragments: Vec<Extent> = self
                .alloc
                .free_regions()
                .into_iter()
                .filter(|e| e.len < threshold)
                .collect();
            fragments.sort_by_key(|e| std::cmp::Reverse(e.len));
            let candidate = fragments.iter().find_map(|frag| {
                self.registry
                    .regions()
                    .filter(|(_, r)| {
                        r.ext.offset >= frag.end() && r.ext.offset - frag.end() <= 2 * threshold
                    })
                    .min_by_key(|(_, r)| r.ext.offset)
                    .map(|(id, _)| *id)
            });
            let Some(region_id) = candidate else {
                break;
            };
            let region = self.registry.take_region(region_id).expect("region exists");
            // Read live members (sequential: they are contiguous), then
            // rewrite them elsewhere as a fresh set.
            let mut live: Vec<(lsm_core::types::FileId, Vec<u8>, Extent)> = Vec::new();
            let mut members: Vec<lsm_core::types::FileId> = Vec::new();
            for &f in &region.members {
                if region.live.contains(&f) {
                    let old_ext = fs.file_extent(f)?;
                    live.push((f, fs.read_full(f, IoKind::Gc)?, old_ext));
                    members.push(f);
                }
            }
            let total: u64 = live.iter().map(|(_, d, _)| d.len() as u64).sum();
            if total > 0 {
                let new_region = self.alloc.allocate(total)?;
                drain_alloc_events(self.alloc.as_mut(), fs);
                let mut offset = new_region.offset;
                // Invalidate the old copies before the writes so the raw
                // SMR guard checks see the space as free.
                for (f, _, _old_ext) in &live {
                    fs.drop_file(*f)?;
                }
                for (f, data, _) in &live {
                    let ext = Extent::new(offset, data.len() as u64);
                    fs.write_file_at(*f, ext, data, IoKind::Gc)?;
                    offset += data.len() as u64;
                }
                self.registry
                    .register(new_region, members, region.from_compaction);
                report.moved_bytes += total;
            }
            self.alloc.free(region.ext);
            drain_alloc_events(self.alloc.as_mut(), fs);
            fs.disk_mut().obs_event(
                ObsLayer::Placement,
                ObsEventKind::GcRelocate,
                region.ext.offset,
                total,
            );
            report.relocated_sets += 1;
            report.fragments_after = fragment_bytes(self.alloc.as_ref());
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use placement::DynamicBandAlloc;
    use smr_sim::{Disk, Layout, TimeModel};

    const MB: u64 = 1 << 20;
    const SST: u64 = 4 * MB;

    fn store() -> FileStore {
        let cap = 1024 * MB;
        let disk = Disk::new(
            cap,
            Layout::RawHmSmr { guard_bytes: SST },
            TimeModel::smr_st5000as0011(cap),
        );
        FileStore::new(disk, 16 * MB)
    }

    fn policy(fs: &FileStore) -> SetPolicy {
        SetPolicy::new(Box::new(DynamicBandAlloc::new(
            fs.data_capacity(),
            SST,
            SST,
        )))
    }

    #[test]
    fn compaction_outputs_are_contiguous() {
        let mut fs = store();
        let mut p = policy(&fs);
        let outputs: Vec<(u64, Vec<u8>)> = (0..4)
            .map(|i| (20 + i, vec![i as u8; SST as usize]))
            .collect();
        let set = p.place_outputs(&mut fs, &outputs).unwrap();
        assert!(set > 0);
        // Members back-to-back on disk.
        for w in (20..24u64).collect::<Vec<_>>().windows(2) {
            let a = fs.file_extent(w[0]).unwrap();
            let b = fs.file_extent(w[1]).unwrap();
            assert_eq!(a.end(), b.offset);
        }
        // Readable with the right contents.
        assert_eq!(
            fs.read_full(22, IoKind::Get).unwrap(),
            vec![2u8; SST as usize]
        );
    }

    #[test]
    fn region_space_recycled_only_when_set_fades() {
        let mut fs = store();
        let mut p = policy(&fs);
        let outputs: Vec<(u64, Vec<u8>)> =
            (0..3).map(|i| (30 + i, vec![7u8; SST as usize])).collect();
        p.place_outputs(&mut fs, &outputs).unwrap();
        let allocated_before = p.allocator().allocated_bytes();
        p.delete_file(&mut fs, 30).unwrap();
        p.delete_file(&mut fs, 31).unwrap();
        // Region still allocated while one member lives.
        assert_eq!(p.allocator().allocated_bytes(), allocated_before);
        assert!(p.allocator().free_regions().is_empty());
        p.delete_file(&mut fs, 32).unwrap();
        assert_eq!(p.allocator().allocated_bytes(), 0);
        assert_eq!(p.allocator().free_regions().len(), 1);
    }

    #[test]
    fn victim_priority_tracks_invalid_members() {
        let mut fs = store();
        let mut p = policy(&fs);
        let a: Vec<(u64, Vec<u8>)> = (0..3).map(|i| (40 + i, vec![1u8; 1000])).collect();
        let b: Vec<(u64, Vec<u8>)> = (0..3).map(|i| (50 + i, vec![2u8; 1000])).collect();
        p.place_outputs(&mut fs, &a).unwrap();
        p.place_outputs(&mut fs, &b).unwrap();
        p.delete_file(&mut fs, 40).unwrap();
        p.delete_file(&mut fs, 41).unwrap();
        p.delete_file(&mut fs, 50).unwrap();
        // Region A is nearly faded (one live member): it contributes.
        assert_eq!(p.victim_priority(&[42]), 2);
        // Region B still has two live members: no priority yet.
        assert_eq!(p.victim_priority(&[51, 52]), 0);
        assert_eq!(p.victim_priority(&[42, 51]), 2);
        p.delete_file(&mut fs, 51).unwrap();
        assert_eq!(p.victim_priority(&[52]), 2);
        let no_prio = SetPolicy::new(Box::new(DynamicBandAlloc::new(MB, SST, SST)))
            .without_priority_picking();
        assert_eq!(no_prio.victim_priority(&[42]), 0);
    }

    #[test]
    fn flush_regions_count_as_sets() {
        let mut fs = store();
        let mut p = policy(&fs);
        p.place_flush(&mut fs, 60, &vec![9u8; 1000], 4 * SST)
            .unwrap();
        let stats = p.set_stats().unwrap();
        assert_eq!(stats.sets_created, 1);
        assert_eq!(stats.compaction_sets, 0);
    }

    #[test]
    fn empty_outputs_no_set() {
        let mut fs = store();
        let mut p = policy(&fs);
        assert_eq!(p.place_outputs(&mut fs, &[]).unwrap(), 0);
    }
}

#[cfg(test)]
mod gc_tests {
    use super::*;
    use lsm_core::policy::GcConfig;
    use placement::DynamicBandAlloc;
    use smr_sim::{Disk, Layout, TimeModel};

    const MB: u64 = 1 << 20;
    const SST: u64 = MB;

    fn store() -> FileStore {
        let cap = 1024 * MB;
        let disk = Disk::new(
            cap,
            Layout::RawHmSmr { guard_bytes: SST },
            TimeModel::smr_st5000as0011(cap),
        );
        FileStore::new(disk, 16 * MB)
    }

    /// Builds a fragmented layout: small live sets alternating with
    /// faded ones whose holes are too small to reuse.
    fn fragmented(fs: &mut FileStore) -> SetPolicy {
        let mut p = SetPolicy::new(Box::new(DynamicBandAlloc::new(
            fs.data_capacity(),
            SST,
            SST,
        )));
        let mut id = 100u64;
        let mut doomed = Vec::new();
        for i in 0..20 {
            // A live 3-table set...
            let outputs: Vec<(u64, Vec<u8>)> = (0..3)
                .map(|j| (id + j, vec![i as u8; SST as usize]))
                .collect();
            p.place_outputs(fs, &outputs).unwrap();
            id += 3;
            // ...followed by a small set that will fade into a fragment
            // (1 table + guard = 2 MiB hole, below the 3 MiB average).
            let small: Vec<(u64, Vec<u8>)> = vec![(id, vec![0xEE; SST as usize])];
            p.place_outputs(fs, &small).unwrap();
            doomed.push(id);
            id += 1;
        }
        for d in doomed {
            p.delete_file(fs, d).unwrap();
        }
        p
    }

    #[test]
    fn gc_coalesces_fragments_and_preserves_data() {
        let mut fs = store();
        let mut p = fragmented(&mut fs);
        let frag_before: u64 = p
            .allocator()
            .free_regions()
            .iter()
            .filter(|e| e.len < 3 * SST)
            .map(|e| e.len)
            .sum();
        assert!(frag_before >= 10 * SST, "layout must be fragmented");

        let report = p
            .collect_garbage(
                &mut fs,
                &GcConfig {
                    fragment_threshold: 3 * SST,
                    target_fragment_ratio: 0.01,
                    max_moves: 64,
                },
            )
            .unwrap();
        assert!(report.relocated_sets > 0);
        assert!(report.moved_bytes > 0);
        assert!(
            report.fragments_after < report.fragments_before / 2,
            "fragments {} -> {}",
            report.fragments_before,
            report.fragments_after
        );
        // Every live file still reads back with its fill byte.
        for i in 0..20u64 {
            let base = 100 + i * 4;
            for j in 0..3 {
                let data = fs.read_full(base + j, IoKind::Get).unwrap();
                assert!(data.iter().all(|&b| b == i as u8), "set {i} corrupted");
            }
        }
        // Raw SMR: still zero auxiliary amplification after GC.
        let c = fs.disk().stats().kind(IoKind::Gc);
        assert_eq!(c.device_written, c.logical_written);
    }

    #[test]
    fn gc_is_noop_below_target() {
        let mut fs = store();
        let mut p = SetPolicy::new(Box::new(DynamicBandAlloc::new(
            fs.data_capacity(),
            SST,
            SST,
        )));
        let outputs: Vec<(u64, Vec<u8>)> =
            (0..3).map(|j| (10 + j, vec![1u8; SST as usize])).collect();
        p.place_outputs(&mut fs, &outputs).unwrap();
        let report = p.collect_garbage(&mut fs, &GcConfig::default()).unwrap();
        assert_eq!(report.relocated_sets, 0);
        assert_eq!(report.fragments_before, 0);
    }
}
