//! The paper's free-space list (§III-B2).
//!
//! > "The free space from faded sets is organized by a sorted array of
//! > double linked list, named *free space list*, and each array element
//! > is aligned with an SSTable size (4 MB). Free space regions with
//! > similar sizes are tracked on an array element by a double linked
//! > list. [...] SEALDB first searches in the free space list by binary
//! > searching the sorted array and picking the first free space in its
//! > linked list with the complexity of O(log n)."
//!
//! Implementation: free regions live in a slab (`Vec<Node>`) and are
//! threaded onto one intrusive doubly-linked list per *size class*
//! (`class = len / align`). The classes themselves form a sorted array
//! (`Vec<(class, head)>`) that is binary-searched on allocation. A
//! by-offset index (`BTreeMap`) supports neighbour lookup for coalescing.

use smr_sim::Extent;
use std::collections::BTreeMap;

const NIL: usize = usize::MAX;

#[derive(Clone, Copy, Debug)]
struct Node {
    offset: u64,
    len: u64,
    prev: usize,
    next: usize,
    /// Slab slot liveness (dead slots are chained through `next`).
    live: bool,
}

/// The sorted-array-of-doubly-linked-lists free-space structure.
#[derive(Debug)]
pub struct FreeSpaceList {
    /// Size-class granularity (one SSTable in the paper: 4 MB).
    align: u64,
    /// Sorted array of (size class, head slab index) pairs; classes with
    /// no regions are removed, keeping the binary search tight.
    classes: Vec<(u64, usize)>,
    /// Region storage.
    slab: Vec<Node>,
    /// Head of the dead-slot chain inside the slab.
    free_slot: usize,
    /// Offset -> slab index, for coalescing with address neighbours.
    by_offset: BTreeMap<u64, usize>,
    /// Total free bytes tracked.
    total: u64,
}

impl FreeSpaceList {
    /// Creates an empty list with the given size-class alignment
    /// (the SSTable size in the paper).
    pub fn new(align: u64) -> Self {
        assert!(align > 0, "alignment must be positive");
        FreeSpaceList {
            align,
            classes: Vec::new(),
            slab: Vec::new(),
            free_slot: NIL,
            by_offset: BTreeMap::new(),
            total: 0,
        }
    }

    /// Size-class granularity.
    pub fn align(&self) -> u64 {
        self.align
    }

    /// Total free bytes tracked by the list.
    pub(crate) fn total_bytes(&self) -> u64 {
        self.total
    }

    fn class_of(&self, len: u64) -> u64 {
        len / self.align
    }

    fn alloc_slot(&mut self, node: Node) -> usize {
        if self.free_slot != NIL {
            let idx = self.free_slot;
            self.free_slot = self.slab[idx].next;
            self.slab[idx] = node;
            idx
        } else {
            self.slab.push(node);
            self.slab.len() - 1
        }
    }

    fn release_slot(&mut self, idx: usize) {
        self.slab[idx].live = false;
        self.slab[idx].next = self.free_slot;
        self.free_slot = idx;
    }

    /// Links a region (already in the slab) at the head of its class list.
    fn link(&mut self, idx: usize) {
        let class = self.class_of(self.slab[idx].len);
        match self.classes.binary_search_by_key(&class, |&(c, _)| c) {
            Ok(pos) => {
                let head = self.classes[pos].1;
                self.slab[idx].next = head;
                self.slab[idx].prev = NIL;
                self.slab[head].prev = idx;
                self.classes[pos].1 = idx;
            }
            Err(pos) => {
                self.slab[idx].next = NIL;
                self.slab[idx].prev = NIL;
                self.classes.insert(pos, (class, idx));
            }
        }
    }

    /// Unlinks a region from its class list (it stays in the slab).
    fn unlink(&mut self, idx: usize) {
        let class = self.class_of(self.slab[idx].len);
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        if prev != NIL {
            self.slab[prev].next = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        }
        if prev == NIL {
            // It was the class head.
            let pos = self
                .classes
                .binary_search_by_key(&class, |&(c, _)| c)
                .expect("class of a linked region must exist");
            if next == NIL {
                self.classes.remove(pos);
            } else {
                self.classes[pos].1 = next;
            }
        }
    }

    /// Inserts a free region, coalescing with address-adjacent regions.
    pub fn insert(&mut self, ext: Extent) {
        if ext.is_empty() {
            return;
        }
        let mut lo = ext.offset;
        let mut hi = ext.end();
        debug_assert!(
            !self.overlaps_existing(ext),
            "double free / overlapping free of {ext:?}"
        );
        // Coalesce with the predecessor if it ends exactly at `lo`.
        if let Some((&poff, &pidx)) = self.by_offset.range(..lo).next_back() {
            let p = self.slab[pidx];
            if poff + p.len == lo {
                self.unlink(pidx);
                self.by_offset.remove(&poff);
                self.release_slot(pidx);
                self.total -= p.len;
                lo = poff;
            }
        }
        // Coalesce with the successor starting exactly at `hi`.
        if let Some(&sidx) = self.by_offset.get(&hi) {
            let s = self.slab[sidx];
            self.unlink(sidx);
            self.by_offset.remove(&hi);
            self.release_slot(sidx);
            self.total -= s.len;
            hi += s.len;
        }
        let node = Node {
            offset: lo,
            len: hi - lo,
            prev: NIL,
            next: NIL,
            live: true,
        };
        let idx = self.alloc_slot(node);
        self.by_offset.insert(lo, idx);
        self.total += hi - lo;
        self.link(idx);
    }

    fn overlaps_existing(&self, ext: Extent) -> bool {
        if let Some((&poff, &pidx)) = self.by_offset.range(..ext.end()).next_back() {
            let p = self.slab[pidx];
            if Extent::new(poff, p.len).overlaps(&ext) {
                return true;
            }
        }
        false
    }

    /// Takes (removes and returns) the first free region of at least
    /// `need` bytes, per the paper's policy: binary-search to the size
    /// class of `need`, scan that class's list first-fit, then fall back
    /// to the head of the next non-empty class (whose every region is
    /// guaranteed large enough). Returns `None` when nothing fits.
    pub fn take(&mut self, need: u64) -> Option<Extent> {
        if need == 0 {
            return Some(Extent::new(0, 0));
        }
        let c0 = self.class_of(need);
        let start = match self.classes.binary_search_by_key(&c0, |&(c, _)| c) {
            Ok(pos) => {
                // Scan the exact class: its regions have len in
                // [c0*align, (c0+1)*align), so a first-fit scan is needed.
                let mut idx = self.classes[pos].1;
                while idx != NIL {
                    if self.slab[idx].len >= need {
                        return Some(self.take_region(idx));
                    }
                    idx = self.slab[idx].next;
                }
                pos + 1
            }
            Err(pos) => pos,
        };
        // Any region in a class > c0 has len >= (c0+1)*align > need.
        if start < self.classes.len() {
            let idx = self.classes[start].1;
            debug_assert!(self.slab[idx].len >= need);
            return Some(self.take_region(idx));
        }
        None
    }

    fn take_region(&mut self, idx: usize) -> Extent {
        let node = self.slab[idx];
        debug_assert!(node.live);
        self.unlink(idx);
        self.by_offset.remove(&node.offset);
        self.release_slot(idx);
        self.total -= node.len;
        Extent::new(node.offset, node.len)
    }

    /// All free regions in address order.
    pub fn regions(&self) -> Vec<Extent> {
        self.by_offset
            .iter()
            .map(|(&off, &idx)| Extent::new(off, self.slab[idx].len))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1 << 20;

    #[test]
    fn take_from_empty() {
        let mut fl = FreeSpaceList::new(4 * MB);
        assert_eq!(fl.take(MB), None);
    }

    #[test]
    fn insert_take_roundtrip() {
        let mut fl = FreeSpaceList::new(4 * MB);
        fl.insert(Extent::new(100 * MB, 8 * MB));
        assert_eq!(fl.total_bytes(), 8 * MB);
        let got = fl.take(8 * MB).unwrap();
        assert_eq!(got, Extent::new(100 * MB, 8 * MB));
        assert_eq!(fl.total_bytes(), 0);
        assert_eq!(fl.by_offset.len(), 0);
    }

    #[test]
    fn first_fit_within_class() {
        let mut fl = FreeSpaceList::new(4 * MB);
        // Two regions in the same class (class 1: [4MB, 8MB)).
        fl.insert(Extent::new(0, 5 * MB));
        fl.insert(Extent::new(100 * MB, 7 * MB));
        // Need 6 MB: the 5 MB region (scanned first or second) must be
        // skipped; the 7 MB one taken.
        let got = fl.take(6 * MB).unwrap();
        assert_eq!(got, Extent::new(100 * MB, 7 * MB));
        assert_eq!(fl.by_offset.len(), 1);
    }

    #[test]
    fn falls_back_to_larger_class() {
        let mut fl = FreeSpaceList::new(4 * MB);
        fl.insert(Extent::new(0, 3 * MB)); // class 0
        fl.insert(Extent::new(50 * MB, 20 * MB)); // class 5
        let got = fl.take(10 * MB).unwrap();
        assert_eq!(got, Extent::new(50 * MB, 20 * MB));
    }

    #[test]
    fn coalesce_with_predecessor_and_successor() {
        let mut fl = FreeSpaceList::new(MB);
        fl.insert(Extent::new(0, 10 * MB));
        fl.insert(Extent::new(20 * MB, 10 * MB));
        assert_eq!(fl.by_offset.len(), 2);
        // The middle piece glues all three into one region.
        fl.insert(Extent::new(10 * MB, 10 * MB));
        assert_eq!(fl.by_offset.len(), 1);
        assert_eq!(fl.total_bytes(), 30 * MB);
        let got = fl.take(30 * MB).unwrap();
        assert_eq!(got, Extent::new(0, 30 * MB));
    }

    #[test]
    fn no_coalesce_across_gap() {
        let mut fl = FreeSpaceList::new(MB);
        fl.insert(Extent::new(0, MB));
        fl.insert(Extent::new(2 * MB, MB)); // 1 MB gap at [1MB, 2MB)
        assert_eq!(fl.by_offset.len(), 2);
        assert_eq!(fl.take(2 * MB), None); // neither region is 2 MB
    }

    #[test]
    fn classes_stay_sorted_and_pruned() {
        let mut fl = FreeSpaceList::new(MB);
        for i in 0..10u64 {
            fl.insert(Extent::new(i * 100 * MB, (i + 1) * MB));
        }
        assert_eq!(fl.classes.len(), 10);
        for i in (0..10u64).rev() {
            let got = fl.take((i + 1) * MB).unwrap();
            assert_eq!(got.len, (i + 1) * MB);
        }
        assert_eq!(fl.classes.len(), 0);
        assert_eq!(fl.total_bytes(), 0);
    }

    #[test]
    fn slab_slots_are_reused() {
        let mut fl = FreeSpaceList::new(MB);
        for round in 0..100u64 {
            fl.insert(Extent::new(round * 10 * MB, MB));
            fl.take(MB).unwrap();
        }
        // All rounds reused the same slot.
        assert!(fl.slab.len() <= 2, "slab grew to {}", fl.slab.len());
    }

    #[test]
    fn regions_in_address_order() {
        let mut fl = FreeSpaceList::new(MB);
        fl.insert(Extent::new(50 * MB, MB));
        fl.insert(Extent::new(10 * MB, MB));
        fl.insert(Extent::new(90 * MB, MB));
        let regions = fl.regions();
        assert_eq!(
            regions,
            vec![
                Extent::new(10 * MB, MB),
                Extent::new(50 * MB, MB),
                Extent::new(90 * MB, MB)
            ]
        );
    }
}
