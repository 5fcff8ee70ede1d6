//! Debug-build shingle auditor for the raw HM-SMR layout.
//!
//! [`ShingleAuditor`] is an *independent* shadow model of which byte
//! ranges hold valid data. It deliberately does not reuse
//! [`crate::extent::ExtentSet`] — the whole point is to double-check the
//! disk's own bookkeeping with a second implementation, so a bug in the
//! interval set cannot hide itself.
//!
//! The disk feeds the auditor every *accepted* raw write (after its own
//! checks pass) and every invalidation. If an accepted write overlaps
//! valid data, or its shingle-direction guard window would damage valid
//! data, the auditor's `debug_assert!` fires. In release builds the
//! asserts compile out and the disk never constructs an auditor, so the
//! check is free.

use crate::extent::Extent;

/// Shadow model of valid data on a raw HM-SMR disk, enforcing the
/// Caveat-Scriptor contract (no overlap of valid data; no valid data in
/// the `guard_bytes` damage window past a write) with `debug_assert!`.
#[derive(Clone, Debug)]
pub struct ShingleAuditor {
    /// Valid half-open ranges `(start, end)`, sorted, pairwise disjoint.
    ranges: Vec<(u64, u64)>,
    guard_bytes: u64,
    capacity: u64,
}

impl ShingleAuditor {
    /// Creates an auditor for a disk of `capacity` bytes whose writes
    /// damage `guard_bytes` in the shingle direction.
    pub fn new(capacity: u64, guard_bytes: u64) -> Self {
        ShingleAuditor {
            ranges: Vec::new(),
            guard_bytes,
            capacity,
        }
    }

    /// First valid range intersecting `[start, end)`, if any.
    fn first_overlap(&self, start: u64, end: u64) -> Option<(u64, u64)> {
        // Linear scan: the auditor trades speed for obviousness, and it
        // only exists in debug builds.
        self.ranges
            .iter()
            .copied()
            .find(|&(s, e)| s < end && start < e)
    }

    /// Records a write the disk accepted, asserting the shingle contract.
    pub fn record_write(&mut self, ext: Extent) {
        let (start, end) = (ext.offset, ext.end());
        debug_assert!(
            self.first_overlap(start, end).is_none(),
            "shingle audit: accepted raw write [{start}, {end}) overlaps valid {:?}",
            self.first_overlap(start, end)
        );
        let guard_end = end.saturating_add(self.guard_bytes).min(self.capacity);
        debug_assert!(
            self.first_overlap(end, guard_end).is_none(),
            "shingle audit: accepted raw write [{start}, {end}) has valid data {:?} \
             inside its {}-byte guard window",
            self.first_overlap(end, guard_end),
            self.guard_bytes
        );
        self.insert(start, end);
    }

    /// Records an invalidation (trim / region fade).
    pub(crate) fn record_invalidate(&mut self, ext: Extent) {
        let (start, end) = (ext.offset, ext.end());
        let mut next = Vec::with_capacity(self.ranges.len() + 1);
        for &(s, e) in &self.ranges {
            if e <= start || end <= s {
                next.push((s, e));
                continue;
            }
            if s < start {
                next.push((s, start));
            }
            if end < e {
                next.push((end, e));
            }
        }
        self.ranges = next;
    }

    /// Resets the shadow model to exactly `ranges` (used after a crash
    /// restore, where the disk's valid set is rolled back wholesale).
    pub(crate) fn reset_to(&mut self, ranges: impl Iterator<Item = Extent>) {
        self.ranges = ranges.map(|e| (e.offset, e.end())).collect();
        self.ranges.sort_unstable();
    }

    fn insert(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        // Merge with adjacent/overlapping neighbours to keep the list
        // canonical even if an assert was ignored (release builds).
        let mut lo = start;
        let mut hi = end;
        self.ranges.retain(|&(s, e)| {
            if s <= hi && lo <= e {
                lo = lo.min(s);
                hi = hi.max(e);
                false
            } else {
                true
            }
        });
        let at = self.ranges.partition_point(|&(s, _)| s < lo);
        self.ranges.insert(at, (lo, hi));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Total valid bytes tracked by the shadow model.
    fn valid_bytes(a: &ShingleAuditor) -> u64 {
        a.ranges.iter().map(|&(s, e)| e - s).sum()
    }

    #[test]
    fn legal_sequence_is_silent() {
        let mut a = ShingleAuditor::new(1 << 20, 4096);
        a.record_write(Extent::new(0, 1000));
        // Past the first write's guard shadow is fine; earlier free space
        // is fine as long as *its* guard window stays clear.
        a.record_write(Extent::new(8192, 1000));
        assert_eq!(valid_bytes(&a), 2000);
        a.record_invalidate(Extent::new(0, 1000));
        assert_eq!(valid_bytes(&a), 1000);
        // Space reclaimed: rewriting it is legal again (guard window of
        // [0,1000) is [1000,5096), which holds no valid data).
        a.record_write(Extent::new(0, 1000));
        assert_eq!(valid_bytes(&a), 2000);
    }

    #[test]
    fn partial_invalidate_splits_ranges() {
        let mut a = ShingleAuditor::new(1 << 20, 0);
        a.record_write(Extent::new(0, 3000));
        a.record_invalidate(Extent::new(1000, 1000));
        assert_eq!(valid_bytes(&a), 2000);
        // The hole is writable again.
        a.record_write(Extent::new(1000, 1000));
        assert_eq!(valid_bytes(&a), 3000);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "shingle audit")]
    fn overlap_panics_in_debug() {
        let mut a = ShingleAuditor::new(1 << 20, 4096);
        a.record_write(Extent::new(0, 1000));
        a.record_write(Extent::new(500, 1000));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "guard window")]
    fn guard_violation_panics_in_debug() {
        let mut a = ShingleAuditor::new(1 << 20, 4096);
        a.record_write(Extent::new(8192, 1000));
        // Ends at 5000; guard window [5000, 9096) covers the valid data.
        a.record_write(Extent::new(4000, 1000));
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn violations_are_free_in_release() {
        // The same sequences that panic under debug_assertions compile to
        // plain bookkeeping in release builds.
        let mut a = ShingleAuditor::new(1 << 20, 4096);
        a.record_write(Extent::new(0, 1000));
        a.record_write(Extent::new(500, 1000));
        let mut b = ShingleAuditor::new(1 << 20, 4096);
        b.record_write(Extent::new(8192, 1000));
        b.record_write(Extent::new(4000, 1000));
        assert_eq!(valid_bytes(&a), 1500);
    }
}
