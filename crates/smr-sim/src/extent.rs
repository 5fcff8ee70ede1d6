//! Byte extents and an interval set over them.
//!
//! An [`Extent`] is a half-open byte range `[offset, offset + len)` on the
//! disk address space. [`ExtentSet`] maintains a set of non-overlapping,
//! coalesced extents and supports the queries the SMR layouts need:
//! overlap tests, insertion (with automatic merging of adjacent ranges)
//! and removal (with splitting).

use std::collections::BTreeMap;
use std::fmt;

/// A half-open byte range `[offset, offset + len)` on the disk.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Extent {
    /// First byte covered by the extent.
    pub offset: u64,
    /// Number of bytes covered; always non-zero for stored extents.
    pub len: u64,
}

impl Extent {
    /// Creates a new extent. `len` may be zero (an empty extent), which is
    /// useful as a sentinel; empty extents overlap nothing.
    pub const fn new(offset: u64, len: u64) -> Self {
        Extent { offset, len }
    }

    /// One-past-the-end offset.
    pub const fn end(&self) -> u64 {
        self.offset + self.len
    }

    /// Whether this extent covers zero bytes.
    pub const fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the two extents share at least one byte.
    pub fn overlaps(&self, other: &Extent) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.offset < other.end()
            && other.offset < self.end()
    }

    /// Whether `other` is entirely contained in `self`.
    pub fn contains(&self, other: &Extent) -> bool {
        other.is_empty() || (self.offset <= other.offset && other.end() <= self.end())
    }

    /// Whether the byte at `pos` falls inside the extent.
    fn contains_pos(&self, pos: u64) -> bool {
        self.offset <= pos && pos < self.end()
    }

    /// The intersection of two extents, or `None` if they are disjoint.
    fn intersection(&self, other: &Extent) -> Option<Extent> {
        let lo = self.offset.max(other.offset);
        let hi = self.end().min(other.end());
        if lo < hi {
            Some(Extent::new(lo, hi - lo))
        } else {
            None
        }
    }
}

impl fmt::Debug for Extent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.offset, self.end())
    }
}

/// A set of non-overlapping byte extents, kept coalesced: no two stored
/// extents touch or overlap. Backed by a `BTreeMap` keyed on start offset,
/// so all operations are `O(log n)` plus the size of the affected range.
#[derive(Clone, Default)]
pub struct ExtentSet {
    /// start offset -> length
    map: BTreeMap<u64, u64>,
    /// Total bytes covered, maintained incrementally.
    total: u64,
}

impl ExtentSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total number of bytes covered by the set.
    pub fn covered_bytes(&self) -> u64 {
        self.total
    }

    /// Whether the set covers no bytes.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Returns `true` if any byte of `ext` is covered by the set.
    pub fn overlaps(&self, ext: Extent) -> bool {
        if ext.is_empty() {
            return false;
        }
        // Candidate 1: the extent starting at or before `ext.offset`.
        if let Some((&start, &len)) = self.map.range(..=ext.offset).next_back() {
            if Extent::new(start, len).overlaps(&ext) {
                return true;
            }
        }
        // Candidate 2: the first extent starting inside `ext`.
        if let Some((&start, _)) = self.map.range(ext.offset..ext.end()).next() {
            debug_assert!(start < ext.end());
            return true;
        }
        false
    }

    /// Returns `true` if every byte of `ext` is covered.
    pub(crate) fn covers(&self, ext: Extent) -> bool {
        if ext.is_empty() {
            return true;
        }
        match self.map.range(..=ext.offset).next_back() {
            Some((&start, &len)) => Extent::new(start, len).contains(&ext),
            None => false,
        }
    }

    /// All stored extents that overlap `ext`, clipped to `ext`.
    pub fn overlapping(&self, ext: Extent) -> Vec<Extent> {
        let mut out = Vec::new();
        if ext.is_empty() {
            return out;
        }
        let scan_from = match self.map.range(..=ext.offset).next_back() {
            Some((&start, _)) => start,
            None => ext.offset,
        };
        for (&start, &len) in self.map.range(scan_from..ext.end()) {
            if let Some(clip) = Extent::new(start, len).intersection(&ext) {
                out.push(clip);
            }
        }
        out
    }

    /// Inserts `ext`, merging with any overlapping or adjacent extents.
    pub fn insert(&mut self, ext: Extent) {
        if ext.is_empty() {
            return;
        }
        let mut lo = ext.offset;
        let mut hi = ext.end();
        // Absorb the predecessor if it touches or overlaps.
        if let Some((&start, &len)) = self.map.range(..=lo).next_back() {
            if start + len >= lo {
                lo = start;
                hi = hi.max(start + len);
            }
        }
        // Absorb all extents starting within [lo, hi].
        let absorbed: Vec<u64> = self.map.range(lo..=hi).map(|(&s, _)| s).collect();
        for s in absorbed {
            let len = self.map.remove(&s).expect("key just observed");
            self.total -= len;
            hi = hi.max(s + len);
        }
        self.map.insert(lo, hi - lo);
        self.total += hi - lo;
    }

    /// Removes `ext` from the set, splitting partially-covered extents.
    /// Bytes of `ext` not currently in the set are ignored.
    pub fn remove(&mut self, ext: Extent) {
        if ext.is_empty() {
            return;
        }
        let lo = ext.offset;
        let hi = ext.end();
        // Collect all extents that may intersect [lo, hi).
        let mut touched: Vec<(u64, u64)> = Vec::new();
        if let Some((&start, &len)) = self.map.range(..lo).next_back() {
            if start + len > lo {
                touched.push((start, len));
            }
        }
        for (&start, &len) in self.map.range(lo..hi) {
            touched.push((start, len));
        }
        for (start, len) in touched {
            self.map.remove(&start);
            self.total -= len;
            let end = start + len;
            if start < lo {
                self.map.insert(start, lo - start);
                self.total += lo - start;
            }
            if end > hi {
                self.map.insert(hi, end - hi);
                self.total += end - hi;
            }
        }
    }

    /// Iterates over the stored (coalesced) extents in address order.
    pub fn iter(&self) -> impl Iterator<Item = Extent> + '_ {
        self.map
            .iter()
            .map(|(&start, &len)| Extent::new(start, len))
    }

    /// The extent containing `pos`, if any.
    pub fn containing(&self, pos: u64) -> Option<Extent> {
        let (&start, &len) = self.map.range(..=pos).next_back()?;
        let e = Extent::new(start, len);
        e.contains_pos(pos).then_some(e)
    }

    /// Largest end offset of any stored extent (the "high water mark"), or 0.
    pub(crate) fn max_end(&self) -> u64 {
        self.map.iter().next_back().map_or(0, |(&s, &l)| s + l)
    }
}

impl fmt::Debug for ExtentSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extent_basics() {
        let a = Extent::new(10, 10);
        assert_eq!(a.end(), 20);
        assert!(a.overlaps(&Extent::new(19, 1)));
        assert!(!a.overlaps(&Extent::new(20, 5)));
        assert!(!a.overlaps(&Extent::new(0, 10)));
        assert!(a.contains(&Extent::new(12, 3)));
        assert!(!a.contains(&Extent::new(12, 30)));
        assert_eq!(
            a.intersection(&Extent::new(15, 100)),
            Some(Extent::new(15, 5))
        );
        assert_eq!(a.intersection(&Extent::new(20, 100)), None);
    }

    #[test]
    fn empty_extent_overlaps_nothing() {
        let e = Extent::new(5, 0);
        assert!(!e.overlaps(&Extent::new(0, 100)));
        assert!(!Extent::new(0, 100).overlaps(&e));
        assert!(Extent::new(0, 100).contains(&e));
    }

    #[test]
    fn insert_coalesces_adjacent() {
        let mut s = ExtentSet::new();
        s.insert(Extent::new(0, 10));
        s.insert(Extent::new(10, 10));
        assert_eq!(s.map.len(), 1);
        assert_eq!(s.covered_bytes(), 20);
        assert!(s.covers(Extent::new(0, 20)));
    }

    #[test]
    fn insert_merges_overlapping_span() {
        let mut s = ExtentSet::new();
        s.insert(Extent::new(0, 5));
        s.insert(Extent::new(20, 5));
        s.insert(Extent::new(40, 5));
        s.insert(Extent::new(3, 40)); // swallows all three
        assert_eq!(s.map.len(), 1);
        assert_eq!(s.covered_bytes(), 45);
        assert!(s.covers(Extent::new(0, 45)));
        assert!(!s.covers(Extent::new(0, 46)));
    }

    #[test]
    fn remove_splits() {
        let mut s = ExtentSet::new();
        s.insert(Extent::new(0, 100));
        s.remove(Extent::new(40, 20));
        assert_eq!(s.map.len(), 2);
        assert_eq!(s.covered_bytes(), 80);
        assert!(s.covers(Extent::new(0, 40)));
        assert!(s.covers(Extent::new(60, 40)));
        assert!(!s.overlaps(Extent::new(40, 20)));
    }

    #[test]
    fn remove_spanning_multiple() {
        let mut s = ExtentSet::new();
        s.insert(Extent::new(0, 10));
        s.insert(Extent::new(20, 10));
        s.insert(Extent::new(40, 10));
        s.remove(Extent::new(5, 40));
        assert_eq!(s.covered_bytes(), 10);
        assert!(s.covers(Extent::new(0, 5)));
        assert!(s.covers(Extent::new(45, 5)));
    }

    #[test]
    fn overlap_queries() {
        let mut s = ExtentSet::new();
        s.insert(Extent::new(100, 50));
        assert!(s.overlaps(Extent::new(149, 1)));
        assert!(s.overlaps(Extent::new(0, 101)));
        assert!(!s.overlaps(Extent::new(150, 10)));
        assert!(!s.overlaps(Extent::new(0, 100)));
        assert_eq!(s.containing(120), Some(Extent::new(100, 50)));
        assert_eq!(s.containing(99), None);
        assert_eq!(s.max_end(), 150);
    }

    #[test]
    fn overlapping_clips() {
        let mut s = ExtentSet::new();
        s.insert(Extent::new(0, 10));
        s.insert(Extent::new(20, 10));
        let hits = s.overlapping(Extent::new(5, 20));
        assert_eq!(hits, vec![Extent::new(5, 5), Extent::new(20, 5)]);
    }
}
