//! Ext4-like block-group allocation (§II-C1 of the paper).
//!
//! Ext4 "tries to put all blocks of a file in the same block group, but
//! different files — even semantically related — can be placed
//! separately". The paper's Fig. 2 measures the resulting behaviour with
//! Ext4Magic: SSTables of one compaction land scattered across the whole
//! used span, and a 10 GB database occupies a ~10 GB span. The model
//! reproduces that placement:
//!
//! * each new file goes to the block group with the most free space
//!   (spreading, as group-descriptor scans under Orlov allocation end up
//!   doing for a churning directory), so consecutive SSTables land in
//!   *different* groups;
//! * inside a group, allocation is first-fit, so holes reclaimed from
//!   deleted SSTables are reused — which on a fixed-band SMR drive means
//!   writing into the middle of written bands, provoking the
//!   read-modify-writes behind the paper's AWA (§II-C2).
//!
//! Scattered *writes* stay affordable on a conventional drive thanks to
//! its write cache; scattered *reads* pay full mechanical latency —
//! exactly the asymmetry the paper's micro-benchmarks exhibit.

use crate::{AllocError, Allocator};
use smr_sim::{AllocEvent, Extent, ExtentSet, ObsEventKind};

#[derive(Debug)]
struct BlockGroup {
    base: u64,
    size: u64,
    free: ExtentSet,
}

impl BlockGroup {
    fn free_bytes(&self) -> u64 {
        self.free.covered_bytes()
    }

    /// First-fit within the group.
    fn allocate(&mut self, size: u64) -> Option<Extent> {
        let hole = self.free.iter().find(|e| e.len >= size)?;
        let ext = Extent::new(hole.offset, size);
        self.free.remove(ext);
        Some(ext)
    }
}

/// The Ext4-like allocator.
#[derive(Debug)]
pub struct Ext4Sim {
    groups: Vec<BlockGroup>,
    group_size: u64,
    allocated: u64,
    high_water: u64,
    /// Lifecycle events queued for [`Allocator::take_events`].
    events: Vec<AllocEvent>,
}

impl Ext4Sim {
    /// Creates an allocator over `capacity` bytes divided into block
    /// groups of `group_size` bytes (Ext4 default: 128 MiB).
    pub fn new(capacity: u64, group_size: u64) -> Self {
        assert!(group_size > 0 && capacity >= group_size);
        let mut groups = Vec::new();
        let mut base = 0;
        while base + group_size <= capacity {
            let mut free = ExtentSet::new();
            free.insert(Extent::new(base, group_size));
            groups.push(BlockGroup {
                base,
                size: group_size,
                free,
            });
            base += group_size;
        }
        Ext4Sim {
            groups,
            group_size,
            allocated: 0,
            high_water: 0,
            events: Vec::new(),
        }
    }

    /// Block-group size in bytes.
    pub fn group_size(&self) -> u64 {
        self.group_size
    }

    fn group_of(&self, offset: u64) -> usize {
        (offset / self.group_size) as usize
    }
}

impl Allocator for Ext4Sim {
    fn allocate(&mut self, size: u64) -> Result<Extent, AllocError> {
        if size == 0 {
            return Err(AllocError::Unsupported("zero-size allocation".into()));
        }
        if size > self.group_size {
            return Err(AllocError::Unsupported(format!(
                "file of {size} bytes exceeds the block-group size {}",
                self.group_size
            )));
        }
        // Spread: try groups in descending free-space order (ties ->
        // lowest address). The emptiest group might still fail for `size`
        // due to fragmentation, so fall through the rest.
        let mut order: Vec<usize> = (0..self.groups.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(self.groups[i].free_bytes()));
        for i in order {
            if let Some(ext) = self.groups[i].allocate(size) {
                self.allocated += size;
                // Below the old high-water mark the extent reuses a hole
                // in already-written space; beyond it, fresh space.
                let kind = if ext.end() <= self.high_water {
                    ObsEventKind::BandAllocate
                } else {
                    ObsEventKind::BandAppend
                };
                self.high_water = self.high_water.max(ext.end());
                self.events.push(AllocEvent {
                    kind,
                    offset: ext.offset,
                    len: ext.len,
                });
                return Ok(ext);
            }
        }
        Err(AllocError::OutOfSpace {
            requested: size,
            free: self.groups.iter().map(|g| g.free_bytes()).sum(),
        })
    }

    fn free(&mut self, ext: Extent) {
        let gi = self.group_of(ext.offset);
        let group = &mut self.groups[gi];
        assert!(
            ext.end() <= group.base + group.size,
            "extent {ext:?} crosses group boundary"
        );
        debug_assert!(!group.free.overlaps(ext), "double free of {ext:?}");
        group.free.insert(ext);
        self.allocated -= ext.len;
        self.events.push(AllocEvent {
            kind: ObsEventKind::BandRecycle,
            offset: ext.offset,
            len: ext.len,
        });
    }

    fn high_water(&self) -> u64 {
        self.high_water
    }

    fn allocated_bytes(&self) -> u64 {
        self.allocated
    }

    fn free_regions(&self) -> Vec<Extent> {
        let mut out = Vec::new();
        for g in &self.groups {
            out.extend(g.free.iter());
        }
        out
    }

    fn name(&self) -> &'static str {
        "ext4-sim"
    }

    fn rebuild(&mut self, live: &[Extent]) {
        self.allocated = 0;
        self.high_water = 0;
        self.events.clear();
        for g in &mut self.groups {
            let mut free = ExtentSet::new();
            free.insert(Extent::new(g.base, g.size));
            g.free = free;
        }
        for &ext in live {
            let gi = self.group_of(ext.offset);
            let group = &mut self.groups[gi];
            assert!(
                ext.end() <= group.base + group.size,
                "live extent {ext:?} crosses group boundary"
            );
            group.free.remove(ext);
            self.allocated += ext.len;
            self.high_water = self.high_water.max(ext.end());
        }
    }

    fn take_events(&mut self) -> Vec<AllocEvent> {
        std::mem::take(&mut self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1 << 20;

    #[test]
    fn consecutive_files_spread_across_groups() {
        let mut a = Ext4Sim::new(1024 * MB, 128 * MB);
        let e1 = a.allocate(4 * MB).unwrap();
        let e2 = a.allocate(4 * MB).unwrap();
        let e3 = a.allocate(4 * MB).unwrap();
        let g = |e: Extent| e.offset / (128 * MB);
        assert_ne!(g(e1), g(e2));
        assert_ne!(g(e2), g(e3));
        assert_ne!(g(e1), g(e3));
    }

    #[test]
    fn holes_are_reused_first_fit() {
        let mut a = Ext4Sim::new(256 * MB, 128 * MB);
        // Fill both groups substantially.
        let mut files = Vec::new();
        for _ in 0..50 {
            files.push(a.allocate(4 * MB).unwrap());
        }
        let victim = files[10];
        a.free(victim);
        // The freed group now has the most free space; the hole is reused.
        let e = a.allocate(4 * MB).unwrap();
        assert_eq!(e, victim);
    }

    #[test]
    fn database_spans_roughly_its_size_in_groups() {
        // Fig. 2: a database of N bytes ends up spanning ~N of disk.
        let mut a = Ext4Sim::new(4096 * MB, 64 * MB);
        for _ in 0..256 {
            a.allocate(4 * MB).unwrap(); // 1 GiB total
        }
        // Spreading touches many groups: the span is much larger than
        // any single group, on the order of the whole disk.
        assert!(a.high_water() > 1024 * MB);
    }

    #[test]
    fn rejects_oversized_files() {
        let mut a = Ext4Sim::new(256 * MB, 128 * MB);
        assert!(matches!(
            a.allocate(200 * MB),
            Err(AllocError::Unsupported(_))
        ));
    }

    #[test]
    fn out_of_space_when_full() {
        let mut a = Ext4Sim::new(16 * MB, 8 * MB);
        a.allocate(8 * MB).unwrap();
        a.allocate(8 * MB).unwrap();
        assert!(matches!(a.allocate(MB), Err(AllocError::OutOfSpace { .. })));
    }

    #[test]
    fn rebuild_restores_live_set() {
        let mut a = Ext4Sim::new(256 * MB, 128 * MB);
        let e1 = a.allocate(4 * MB).unwrap();
        let e2 = a.allocate(8 * MB).unwrap();
        let e3 = a.allocate(16 * MB).unwrap();
        a.rebuild(&[e1, e3]);
        assert_eq!(a.allocated_bytes(), 20 * MB);
        // e2's bytes are free again and must not overlap new allocations
        // with the survivors.
        let total_free: u64 = a.free_regions().iter().map(|e| e.len).sum();
        assert_eq!(total_free, 256 * MB - 20 * MB);
        assert!(a.free_regions().iter().any(|f| f.offset == e2.offset));
        a.free(e1);
        a.free(e3);
        assert_eq!(a.allocated_bytes(), 0);
    }

    #[test]
    fn accounting() {
        let mut a = Ext4Sim::new(256 * MB, 128 * MB);
        let e = a.allocate(4 * MB).unwrap();
        assert_eq!(a.allocated_bytes(), 4 * MB);
        assert!(a.high_water() >= 4 * MB);
        a.free(e);
        assert_eq!(a.allocated_bytes(), 0);
    }
}
