//! An immutable snapshot of the LSM-tree's file layout: which SSTables
//! live in which level. Level 0 files may overlap each other (they are
//! raw memtable flushes); deeper levels are sorted and disjoint.

use crate::types::{internal_compare, user_key};
use crate::version::edit::FileMetaHandle;
use std::cmp::Ordering;

/// One immutable layout snapshot.
#[derive(Clone, Debug)]
pub struct Version {
    /// Files per level; level 0 ordered newest-first (descending order
    /// key, see `FileMetaData`), deeper levels ordered by smallest key.
    pub files: Vec<Vec<FileMetaHandle>>,
}

impl Version {
    /// Creates an empty version with `num_levels` levels.
    pub(crate) fn empty(num_levels: usize) -> Self {
        Version {
            files: vec![Vec::new(); num_levels],
        }
    }

    /// Number of levels.
    pub fn num_levels(&self) -> usize {
        self.files.len()
    }

    /// Total bytes in a level.
    pub(crate) fn level_bytes(&self, level: usize) -> u64 {
        self.files[level].iter().map(|f| f.size).sum()
    }

    /// Number of files in a level.
    pub fn level_file_count(&self, level: usize) -> usize {
        self.files[level].len()
    }

    /// Whether a file's user-key range intersects `[begin, end]`.
    fn file_overlaps_range(f: &FileMetaHandle, begin: &[u8], end: &[u8]) -> bool {
        user_key(&f.largest) >= begin && user_key(&f.smallest) <= end
    }

    /// Files in `level` whose user-key ranges intersect `[begin, end]`.
    /// For level 0 the range is expanded transitively (overlapping L0
    /// files must compact together, like LevelDB's `GetOverlappingInputs`).
    pub(crate) fn overlapping_files(
        &self,
        level: usize,
        begin: &[u8],
        end: &[u8],
    ) -> Vec<FileMetaHandle> {
        let mut begin = begin.to_vec();
        let mut end = end.to_vec();
        loop {
            let hits: Vec<FileMetaHandle> = self.files[level]
                .iter()
                .filter(|f| Self::file_overlaps_range(f, &begin, &end))
                .cloned()
                .collect();
            if level > 0 {
                return hits;
            }
            // L0: if a hit extends the range, restart with the wider one.
            let mut grew = false;
            for f in &hits {
                if user_key(&f.smallest) < begin.as_slice() {
                    begin = user_key(&f.smallest).to_vec();
                    grew = true;
                }
                if user_key(&f.largest) > end.as_slice() {
                    end = user_key(&f.largest).to_vec();
                    grew = true;
                }
            }
            if !grew {
                return hits;
            }
        }
    }

    /// Candidate files for a point lookup, in the order they must be
    /// consulted (L0 newest-first, then one file per deeper level).
    pub(crate) fn files_for_get(&self, ukey: &[u8]) -> Vec<(usize, FileMetaHandle)> {
        let mut out = Vec::new();
        // L0: every file whose range covers the key, newest first.
        let mut l0: Vec<FileMetaHandle> = self.files[0]
            .iter()
            .filter(|f| user_key(&f.smallest) <= ukey && ukey <= user_key(&f.largest))
            .cloned()
            .collect();
        l0.sort_by_key(|f| std::cmp::Reverse(f.order));
        out.extend(l0.into_iter().map(|f| (0, f)));
        // Deeper levels: binary search the single candidate.
        for level in 1..self.files.len() {
            if let Some(f) = self.find_file(level, ukey) {
                if user_key(&f.smallest) <= ukey {
                    out.push((level, f));
                }
            }
        }
        out
    }

    /// Binary search for the first file in a sorted level whose largest
    /// user key is >= `ukey`.
    fn find_file(&self, level: usize, ukey: &[u8]) -> Option<FileMetaHandle> {
        let files = &self.files[level];
        let idx = files.partition_point(|f| user_key(&f.largest) < ukey);
        files.get(idx).cloned()
    }

    /// Whether any file in levels strictly deeper than `level` overlaps
    /// the user-key range (used to decide tombstone dropping).
    pub(crate) fn range_overlaps_deeper(&self, level: usize, begin: &[u8], end: &[u8]) -> bool {
        (level + 1..self.files.len()).any(|l| !self.overlapping_files(l, begin, end).is_empty())
    }

    /// Sanity check: deeper levels sorted by smallest key and disjoint.
    pub fn check_invariants(&self) -> Result<(), String> {
        for level in 1..self.files.len() {
            let files = &self.files[level];
            for w in files.windows(2) {
                if internal_compare(&w[0].largest, &w[1].smallest) != Ordering::Less {
                    return Err(format!(
                        "level {level}: files {} and {} overlap or are unsorted",
                        w[0].id, w[1].id
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{make_internal_key, ValueType};
    use crate::version::edit::FileMetaData;
    use std::sync::Arc;

    fn meta(id: u64, lo: &str, hi: &str) -> FileMetaHandle {
        Arc::new(FileMetaData {
            id,
            size: 100,
            smallest: make_internal_key(lo.as_bytes(), 100, ValueType::Value),
            largest: make_internal_key(hi.as_bytes(), 1, ValueType::Value),
            set_id: 0,
            order: id,
        })
    }

    fn version() -> Version {
        let mut v = Version::empty(7);
        // L0: overlapping flushes.
        v.files[0] = vec![meta(10, "c", "m"), meta(11, "a", "f")];
        // L1: sorted, disjoint.
        v.files[1] = vec![meta(5, "a", "c"), meta(6, "e", "k"), meta(7, "p", "z")];
        v
    }

    #[test]
    fn level_accounting() {
        let v = version();
        assert_eq!(v.level_file_count(0), 2);
        assert_eq!(v.level_bytes(1), 300);
        assert_eq!(v.files.iter().flatten().count(), 5);
        assert_eq!(
            (0..v.files.len()).map(|l| v.level_bytes(l)).sum::<u64>(),
            500
        );
        v.check_invariants().unwrap();
    }

    #[test]
    fn overlapping_in_sorted_level() {
        let v = version();
        let hits = v.overlapping_files(1, b"f", b"q");
        let ids: Vec<u64> = hits.iter().map(|f| f.id).collect();
        assert_eq!(ids, vec![6, 7]);
        assert!(v.overlapping_files(1, b"l", b"o").is_empty());
    }

    #[test]
    fn l0_overlap_expands_transitively() {
        let v = version();
        // "b" hits file 11 (a-f), which overlaps file 10 (c-m): both join.
        let hits = v.overlapping_files(0, b"b", b"b");
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn files_for_get_order() {
        let v = version();
        let cands = v.files_for_get(b"e");
        // L0 newest (id 11) first, then id 10, then L1 file 6.
        let ids: Vec<u64> = cands.iter().map(|(_, f)| f.id).collect();
        assert_eq!(ids, vec![11, 10, 6]);
        // Key outside every range: no candidates.
        let cands = v.files_for_get(b"n");
        assert!(cands.is_empty());
    }

    #[test]
    fn deeper_overlap_check() {
        let v = version();
        assert!(v.range_overlaps_deeper(0, b"a", b"b"));
        assert!(!v.range_overlaps_deeper(1, b"a", b"z"));
        assert!(!v.range_overlaps_deeper(0, b"l", b"o"));
    }

    #[test]
    fn invariant_violation_detected() {
        let mut v = Version::empty(3);
        v.files[1] = vec![meta(1, "a", "m"), meta(2, "k", "z")];
        assert!(v.check_invariants().is_err());
    }
}
