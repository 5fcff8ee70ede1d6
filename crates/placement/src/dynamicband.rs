//! Dynamic band management (§III-B, §III-C of the paper).
//!
//! Serves allocations against a raw HM-SMR drive:
//!
//! * **Append** — while no recycled free space fits, data is appended at
//!   the frontier of the banded region. Consecutive appends need no guard
//!   (sequential shingled writes never damage earlier tracks).
//! * **Insert** — a freed region can be reused iff
//!   `S_free ≥ S_req + S_guard` (Eq. 1): the data plus a trailing guard
//!   region that protects the valid data shingled after the hole.
//! * **Split** — inserting into a larger hole returns the remainder
//!   (beyond data + guard) to the free-space list.
//! * **Coalesce** — adjacent freed regions merge (handled inside
//!   [`FreeSpaceList`]).
//!
//! Byte ranges between two guard gaps form a *dynamic band*; the
//! [`DynamicBandAlloc::bands`] snapshot reconstructs them for Fig. 13.

use crate::freelist::FreeSpaceList;
use crate::{AllocError, Allocator};
use smr_sim::{AllocEvent, Extent, ObsEventKind};
use std::collections::BTreeMap;

/// Record of one live allocation: the data extent plus any guard bytes
/// reserved immediately after it (returned to the free pool together).
#[derive(Clone, Copy, Debug)]
struct AllocRecord {
    data_len: u64,
    reserved_len: u64,
}

/// The paper's dynamic-band allocator.
#[derive(Debug)]
pub struct DynamicBandAlloc {
    capacity: u64,
    /// Guard region size (`S_guard`); one SSTable in the paper (4 MB).
    guard: u64,
    /// End of the banded region; beyond it lies the never-written
    /// residual space.
    frontier: u64,
    free: FreeSpaceList,
    live: BTreeMap<u64, AllocRecord>,
    allocated: u64,
    /// Fenced extents (sorted, non-overlapping): latent-error regions the
    /// scrubber quarantined. Never allocated from; freed space overlapping
    /// a fence is dropped rather than recycled.
    fenced: Vec<Extent>,
    /// Band-lifecycle events queued for [`Allocator::take_events`].
    events: Vec<AllocEvent>,
}

impl DynamicBandAlloc {
    /// Creates an allocator over `capacity` bytes with `sstable_size`
    /// size-class alignment and `guard` guard-region bytes.
    pub fn new(capacity: u64, sstable_size: u64, guard: u64) -> Self {
        DynamicBandAlloc {
            capacity,
            guard,
            frontier: 0,
            free: FreeSpaceList::new(sstable_size),
            live: BTreeMap::new(),
            allocated: 0,
            fenced: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Guard-region size in bytes.
    pub fn guard_bytes(&self) -> u64 {
        self.guard
    }

    /// Current frontier (end of the banded region).
    pub fn frontier(&self) -> u64 {
        self.frontier
    }

    /// Total bytes in the recycled free pool.
    pub fn free_pool_bytes(&self) -> u64 {
        self.free.total_bytes()
    }

    /// Inserts `ext` into the free pool, dropping any parts that overlap
    /// a fenced region.
    fn insert_unfenced(&mut self, ext: Extent) {
        let mut cur = ext.offset;
        let end = ext.end();
        for f in &self.fenced {
            if f.end() <= cur || f.offset >= end {
                continue;
            }
            if f.offset > cur {
                self.free.insert(Extent::new(cur, f.offset - cur));
            }
            cur = cur.max(f.end());
        }
        if cur < end {
            self.free.insert(Extent::new(cur, end - cur));
        }
    }

    /// Reconstructs the dynamic bands: maximal runs of live allocations
    /// uninterrupted by free space, as in Fig. 6 / Fig. 13. Returns
    /// (band extent, number of live allocations inside).
    pub fn bands(&self) -> Vec<(Extent, usize)> {
        let mut bands: Vec<(Extent, usize)> = Vec::new();
        for (&off, rec) in &self.live {
            match bands.last_mut() {
                Some((ext, count)) if ext.end() == off => {
                    ext.len += rec.reserved_len;
                    *count += 1;
                }
                _ => {
                    bands.push((Extent::new(off, rec.reserved_len), 1));
                }
            }
        }
        bands
    }
}

impl Allocator for DynamicBandAlloc {
    fn allocate(&mut self, size: u64) -> Result<Extent, AllocError> {
        if size == 0 {
            return Err(AllocError::Unsupported("zero-size allocation".into()));
        }
        // Eq. 1: a recycled hole must hold the data plus a guard region.
        let need = size + self.guard;
        if let Some(hole) = self.free.take(need) {
            debug_assert!(hole.len >= need);
            // Split: data | guard | remainder (returned to the pool).
            let remainder = hole.len - need;
            if remainder > 0 {
                self.free.insert(Extent::new(hole.offset + need, remainder));
            }
            self.live.insert(
                hole.offset,
                AllocRecord {
                    data_len: size,
                    reserved_len: need,
                },
            );
            self.allocated += size;
            self.events.push(AllocEvent {
                kind: ObsEventKind::BandAllocate,
                offset: hole.offset,
                len: size,
            });
            return Ok(Extent::new(hole.offset, size));
        }
        // Append at the frontier of the banded region. No guard is
        // reserved: the space past the frontier holds no valid data.
        // Skip the frontier past any fenced region the append would touch.
        loop {
            let cand = Extent::new(self.frontier, size);
            match self
                .fenced
                .iter()
                .find(|f| f.offset < cand.end() && f.end() > cand.offset)
            {
                Some(f) => self.frontier = f.end(),
                None => break,
            }
        }
        if self.frontier + size > self.capacity {
            return Err(AllocError::OutOfSpace {
                requested: size,
                free: self.free.total_bytes() + (self.capacity - self.frontier),
            });
        }
        let ext = Extent::new(self.frontier, size);
        self.live.insert(
            ext.offset,
            AllocRecord {
                data_len: size,
                reserved_len: size,
            },
        );
        self.frontier += size;
        self.allocated += size;
        self.events.push(AllocEvent {
            kind: ObsEventKind::BandAppend,
            offset: ext.offset,
            len: size,
        });
        Ok(ext)
    }

    fn free(&mut self, ext: Extent) {
        let rec = self
            .live
            .remove(&ext.offset)
            .unwrap_or_else(|| panic!("free of unknown extent {ext:?}"));
        assert_eq!(rec.data_len, ext.len, "free with wrong length for {ext:?}");
        self.allocated -= rec.data_len;
        // The guard bytes reserved with the allocation are recycled too;
        // coalescing happens inside the free list. Parts overlapping a
        // fenced region are dropped, not recycled.
        self.insert_unfenced(Extent::new(ext.offset, rec.reserved_len));
        self.events.push(AllocEvent {
            kind: ObsEventKind::BandRecycle,
            offset: ext.offset,
            len: rec.reserved_len,
        });
    }

    fn high_water(&self) -> u64 {
        self.frontier
    }

    fn allocated_bytes(&self) -> u64 {
        self.allocated
    }

    fn free_regions(&self) -> Vec<Extent> {
        self.free.regions()
    }

    fn name(&self) -> &'static str {
        "dynamic-band"
    }

    fn quarantine(&mut self, ext: Extent) -> u64 {
        // Clip to capacity, then to the parts not already fenced.
        let end = ext.end().min(self.capacity);
        if ext.offset >= end {
            return 0;
        }
        let mut fresh: Vec<Extent> = Vec::new();
        let mut cur = ext.offset;
        for f in &self.fenced {
            if f.end() <= cur || f.offset >= end {
                continue;
            }
            if f.offset > cur {
                fresh.push(Extent::new(cur, f.offset - cur));
            }
            cur = cur.max(f.end());
        }
        if cur < end {
            fresh.push(Extent::new(cur, end - cur));
        }
        if fresh.is_empty() {
            return 0;
        }
        let newly_fenced: u64 = fresh.iter().map(|e| e.len).sum();
        self.fenced.extend(fresh.iter().copied());
        self.fenced.sort_by_key(|e| e.offset);
        // Purge the fence from the recycled free pool: rebuild the list
        // from its surviving (unfenced) regions.
        let regions = self.free.regions();
        self.free = FreeSpaceList::new(self.free.align());
        for r in regions {
            self.insert_unfenced(r);
        }
        for e in &fresh {
            self.events.push(AllocEvent {
                kind: ObsEventKind::BandQuarantine,
                offset: e.offset,
                len: e.len,
            });
        }
        newly_fenced
    }

    fn quarantined_bytes(&self) -> u64 {
        self.fenced.iter().map(|e| e.len).sum()
    }

    fn rebuild(&mut self, live: &[Extent]) {
        self.live.clear();
        self.free = FreeSpaceList::new(self.free.align());
        self.allocated = 0;
        self.frontier = 0;
        // Fences are in-memory knowledge from the scrubber; after a crash
        // the restarted scrubber re-discovers and re-fences bad regions.
        self.fenced.clear();
        self.events.clear();
        for ext in live {
            // Guard bytes the lost allocation had reserved past its data
            // are unknown here, so each survivor keeps only its data
            // bytes; the gaps between survivors stay unreachable (neither
            // live nor free), which wastes them but never double-allocates.
            self.live.insert(
                ext.offset,
                AllocRecord {
                    data_len: ext.len,
                    reserved_len: ext.len,
                },
            );
            self.allocated += ext.len;
            self.frontier = self.frontier.max(ext.end());
        }
    }

    fn band_snapshot(&self) -> Vec<(Extent, usize)> {
        self.bands()
    }

    fn take_events(&mut self) -> Vec<AllocEvent> {
        std::mem::take(&mut self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1 << 20;
    const SST: u64 = 4 * MB;

    fn alloc() -> DynamicBandAlloc {
        DynamicBandAlloc::new(1024 * MB, SST, SST)
    }

    #[test]
    fn appends_are_contiguous() {
        let mut a = alloc();
        let e1 = a.allocate(12 * MB).unwrap();
        let e2 = a.allocate(8 * MB).unwrap();
        assert_eq!(e1, Extent::new(0, 12 * MB));
        assert_eq!(e2, Extent::new(12 * MB, 8 * MB));
        assert_eq!(a.frontier(), 20 * MB);
        assert_eq!(a.bands().len(), 1);
    }

    #[test]
    fn eq1_insert_requires_guard_headroom() {
        let mut a = alloc();
        let s1 = a.allocate(12 * MB).unwrap();
        let _s2 = a.allocate(8 * MB).unwrap();
        a.free(s1);
        // The 12 MB hole can hold at most 8 MB of data (+4 MB guard).
        let e = a.allocate(9 * MB).unwrap();
        assert_eq!(e.offset, 20 * MB, "9 MB must be appended, not inserted");
        let e = a.allocate(8 * MB).unwrap();
        assert_eq!(e.offset, 0, "8 MB fits the hole per Eq. 1");
    }

    #[test]
    fn split_returns_remainder() {
        let mut a = alloc();
        let s1 = a.allocate(40 * MB).unwrap();
        let _tail = a.allocate(8 * MB).unwrap();
        a.free(s1);
        // Insert 12 MB: uses 12 + 4 guard, leaving 24 MB in the pool.
        let e = a.allocate(12 * MB).unwrap();
        assert_eq!(e.offset, 0);
        assert_eq!(a.free_pool_bytes(), 24 * MB);
        let regions = a.free_regions();
        assert_eq!(regions, vec![Extent::new(16 * MB, 24 * MB)]);
    }

    #[test]
    fn figure7_scenario() {
        // Reproduces the §III-C walkthrough (Fig. 7), guard = 4 MB.
        let mut a = alloc();
        // (1) Three sets appended.
        let set1 = a.allocate(24 * MB).unwrap();
        let set2 = a.allocate(20 * MB).unwrap();
        let set3 = a.allocate(16 * MB).unwrap();
        assert_eq!(set2.offset, 24 * MB);
        // (2) set1 compacts: deleted, the regenerated set1' (28 MB, too
        // large for the 24 MB hole per Eq. 1) is appended.
        a.free(set1);
        let set1p = a.allocate(28 * MB).unwrap();
        assert_eq!(set1p.offset, 60 * MB, "appended at the frontier");
        // (3) set4 (12 MB) inserts into set1's old 24 MB hole: 12 data +
        // 4 guard, 8 MB remainder returned to the free list (split).
        let set4 = a.allocate(12 * MB).unwrap();
        assert_eq!(set4.offset, 0);
        assert_eq!(a.free_regions(), vec![Extent::new(16 * MB, 8 * MB)]);
        // (4) set5 (4 MB) exactly fits the remainder (4 data + 4 guard);
        // only one gap is needed to avoid overlapping set2.
        let set5 = a.allocate(4 * MB).unwrap();
        assert_eq!(set5.offset, 16 * MB);
        assert!(a.free_regions().is_empty());
        // (5) deleting set2 and set3 coalesces their adjacent holes into
        // one larger free region.
        a.free(set3);
        a.free(set2);
        assert_eq!(a.free_regions(), vec![Extent::new(24 * MB, 36 * MB)]);
    }

    #[test]
    fn bands_snapshot_counts_members() {
        let mut a = alloc();
        let s1 = a.allocate(8 * MB).unwrap();
        let _s2 = a.allocate(8 * MB).unwrap();
        let _s3 = a.allocate(8 * MB).unwrap();
        a.free(s1);
        let bands = a.bands();
        assert_eq!(bands.len(), 1);
        assert_eq!(bands[0].0, Extent::new(8 * MB, 16 * MB));
        assert_eq!(bands[0].1, 2);
    }

    #[test]
    fn out_of_space() {
        let mut a = DynamicBandAlloc::new(10 * MB, SST, SST);
        a.allocate(8 * MB).unwrap();
        let err = a.allocate(4 * MB).unwrap_err();
        assert!(matches!(err, AllocError::OutOfSpace { .. }));
    }

    #[test]
    fn rebuild_restores_live_set() {
        let mut a = alloc();
        let s1 = a.allocate(8 * MB).unwrap();
        let s2 = a.allocate(12 * MB).unwrap();
        let s3 = a.allocate(4 * MB).unwrap();
        a.free(s2);
        // Pretend a crash image knows only s1 and s3 survived.
        a.rebuild(&[s1, s3]);
        assert_eq!(a.allocated_bytes(), 12 * MB);
        assert_eq!(a.frontier(), 24 * MB);
        assert_eq!(a.free_pool_bytes(), 0, "free pool restarts empty");
        // The survivors can be freed without panicking...
        a.free(s1);
        a.free(s3);
        assert_eq!(a.allocated_bytes(), 0);
        // ...and new allocations append past the old frontier.
        let e = a.allocate(4 * MB).unwrap();
        assert!(e.offset == 0 || e.offset >= 20 * MB);
    }

    #[test]
    fn rebuild_empty_resets_frontier() {
        let mut a = alloc();
        a.allocate(8 * MB).unwrap();
        a.rebuild(&[]);
        assert_eq!(a.allocated_bytes(), 0);
        assert_eq!(a.frontier(), 0);
        let e = a.allocate(4 * MB).unwrap();
        assert_eq!(e.offset, 0);
    }

    #[test]
    fn lifecycle_events_are_queued_and_drained() {
        let mut a = alloc();
        let s1 = a.allocate(24 * MB).unwrap(); // append
        a.free(s1); // recycle
        let _s2 = a.allocate(8 * MB).unwrap(); // insert into the hole
        let evs = a.take_events();
        let kinds: Vec<ObsEventKind> = evs.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                ObsEventKind::BandAppend,
                ObsEventKind::BandRecycle,
                ObsEventKind::BandAllocate
            ]
        );
        assert_eq!(evs[0].offset, 0);
        // A frontier append reserves no guard, so its recycle returns
        // exactly the data bytes.
        assert_eq!(evs[1].len, 24 * MB);
        // Draining empties the queue.
        assert!(a.take_events().is_empty());
    }

    #[test]
    fn quarantine_removes_fence_from_free_pool() {
        let mut a = alloc();
        let s1 = a.allocate(24 * MB).unwrap();
        let _s2 = a.allocate(8 * MB).unwrap();
        a.free(s1);
        assert_eq!(a.free_pool_bytes(), 24 * MB);
        // Fence 8 MB in the middle of the hole: the pool splits around it.
        let fenced = a.quarantine(Extent::new(8 * MB, 8 * MB));
        assert_eq!(fenced, 8 * MB);
        assert_eq!(a.quarantined_bytes(), 8 * MB);
        assert_eq!(a.free_pool_bytes(), 16 * MB);
        assert_eq!(
            a.free_regions(),
            vec![Extent::new(0, 8 * MB), Extent::new(16 * MB, 8 * MB)]
        );
        // Re-fencing the same range is a no-op.
        assert_eq!(a.quarantine(Extent::new(8 * MB, 8 * MB)), 0);
        // Allocations never land on the fence.
        let e = a.allocate(4 * MB).unwrap();
        assert!(e.end() <= 8 * MB || e.offset >= 16 * MB);
    }

    #[test]
    fn frontier_append_skips_fenced_region() {
        let mut a = alloc();
        a.allocate(8 * MB).unwrap();
        // Fence a region just past the frontier.
        a.quarantine(Extent::new(10 * MB, 6 * MB));
        let e = a.allocate(4 * MB).unwrap();
        assert_eq!(e.offset, 16 * MB, "append skips the fence");
        assert_eq!(a.frontier(), 20 * MB);
    }

    #[test]
    fn free_of_fenced_allocation_drops_fenced_part() {
        let mut a = alloc();
        let s1 = a.allocate(16 * MB).unwrap();
        let _s2 = a.allocate(8 * MB).unwrap();
        // Fence the middle of the *live* allocation, then free it: only
        // the unfenced parts return to the pool.
        a.quarantine(Extent::new(4 * MB, 4 * MB));
        a.free(s1);
        assert_eq!(a.free_pool_bytes(), 12 * MB);
        assert_eq!(
            a.free_regions(),
            vec![Extent::new(0, 4 * MB), Extent::new(8 * MB, 8 * MB)]
        );
    }

    #[test]
    fn quarantine_queues_band_quarantine_events() {
        let mut a = alloc();
        a.allocate(8 * MB).unwrap();
        a.take_events();
        a.quarantine(Extent::new(32 * MB, 4 * MB));
        let evs = a.take_events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, ObsEventKind::BandQuarantine);
        assert_eq!(evs[0].offset, 32 * MB);
        assert_eq!(evs[0].len, 4 * MB);
    }

    #[test]
    fn rebuild_clears_fences() {
        let mut a = alloc();
        let s1 = a.allocate(8 * MB).unwrap();
        a.quarantine(Extent::new(16 * MB, 4 * MB));
        a.rebuild(&[s1]);
        assert_eq!(a.quarantined_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "free of unknown extent")]
    fn double_free_panics() {
        let mut a = alloc();
        let e = a.allocate(8 * MB).unwrap();
        a.free(e);
        a.free(e);
    }
}
