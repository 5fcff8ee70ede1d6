//! Fixed-band allocation: one allocation per dedicated SMR band.
//!
//! This is the placement SMRDB \[24\] uses — SSTables are enlarged to the
//! band size and each is "assigned to a dedicated band", so writing a
//! table streams a whole band from its start and never triggers a
//! read-modify-write. The cost is internal waste whenever the file is
//! smaller than the band.

use crate::{AllocError, Allocator};
use smr_sim::{AllocEvent, Extent, ObsEventKind};
use std::collections::{BTreeMap, BTreeSet};

/// Dedicated-band allocator.
#[derive(Debug)]
pub struct FixedBandAlloc {
    band_size: u64,
    /// Band indices currently free, lowest first.
    free_bands: BTreeSet<u64>,
    /// Live allocations: band start -> data length.
    live: BTreeMap<u64, u64>,
    allocated: u64,
    high_water: u64,
    /// Band-lifecycle events queued for [`Allocator::take_events`].
    events: Vec<AllocEvent>,
}

impl FixedBandAlloc {
    /// Creates an allocator over `capacity` bytes divided into bands of
    /// `band_size` bytes.
    pub fn new(capacity: u64, band_size: u64) -> Self {
        assert!(band_size > 0 && capacity >= band_size);
        let bands = capacity / band_size;
        FixedBandAlloc {
            band_size,
            free_bands: (0..bands).collect(),
            live: BTreeMap::new(),
            allocated: 0,
            high_water: 0,
            events: Vec::new(),
        }
    }

    /// Band size in bytes.
    pub fn band_size(&self) -> u64 {
        self.band_size
    }
}

impl Allocator for FixedBandAlloc {
    fn allocate(&mut self, size: u64) -> Result<Extent, AllocError> {
        if size == 0 {
            return Err(AllocError::Unsupported("zero-size allocation".into()));
        }
        if size > self.band_size {
            return Err(AllocError::Unsupported(format!(
                "allocation of {size} bytes exceeds the band size {}",
                self.band_size
            )));
        }
        let band = *self
            .free_bands
            .iter()
            .next()
            .ok_or(AllocError::OutOfSpace {
                requested: size,
                free: 0,
            })?;
        self.free_bands.remove(&band);
        let base = band * self.band_size;
        // A band past the old high-water mark is a fresh append; a band
        // below it is a recycled one being reused.
        let kind = if base >= self.high_water {
            ObsEventKind::BandAppend
        } else {
            ObsEventKind::BandAllocate
        };
        self.live.insert(base, size);
        self.allocated += size;
        self.high_water = self.high_water.max(base + self.band_size);
        self.events.push(AllocEvent {
            kind,
            offset: base,
            len: size,
        });
        Ok(Extent::new(base, size))
    }

    fn free(&mut self, ext: Extent) {
        let base = ext.offset;
        let len = self
            .live
            .remove(&base)
            .unwrap_or_else(|| panic!("free of unknown extent {ext:?}"));
        assert_eq!(len, ext.len, "free with wrong length for {ext:?}");
        self.allocated -= len;
        self.free_bands.insert(base / self.band_size);
        self.events.push(AllocEvent {
            kind: ObsEventKind::BandRecycle,
            offset: base,
            len: self.band_size,
        });
    }

    fn high_water(&self) -> u64 {
        self.high_water
    }

    fn allocated_bytes(&self) -> u64 {
        self.allocated
    }

    fn free_regions(&self) -> Vec<Extent> {
        self.free_bands
            .iter()
            .map(|&b| Extent::new(b * self.band_size, self.band_size))
            .collect()
    }

    fn name(&self) -> &'static str {
        "fixed-band"
    }

    fn rebuild(&mut self, live: &[Extent]) {
        // Every live allocation occupies exactly one band, so the band
        // count is recoverable from the current population.
        let bands = (self.free_bands.len() + self.live.len()) as u64;
        self.free_bands = (0..bands).collect();
        self.live.clear();
        self.allocated = 0;
        self.high_water = 0;
        self.events.clear();
        for ext in live {
            let band = ext.offset / self.band_size;
            assert_eq!(
                ext.offset % self.band_size,
                0,
                "live extent {ext:?} is not band-aligned"
            );
            self.free_bands.remove(&band);
            self.live.insert(ext.offset, ext.len);
            self.allocated += ext.len;
            self.high_water = self.high_water.max(ext.offset + self.band_size);
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

    /// Bytes wasted to internal fragmentation (band tails past the data).
    fn internal_waste(a: &FixedBandAlloc) -> u64 {
        a.live.values().map(|&len| a.band_size - len).sum()
    }

    #[test]
    fn allocations_are_band_aligned() {
        let mut a = FixedBandAlloc::new(400 * MB, 40 * MB);
        let e1 = a.allocate(40 * MB).unwrap();
        let e2 = a.allocate(40 * MB).unwrap();
        assert_eq!(e1.offset % (40 * MB), 0);
        assert_eq!(e2.offset % (40 * MB), 0);
        assert_ne!(e1.offset, e2.offset);
    }

    #[test]
    fn small_file_wastes_band_tail() {
        let mut a = FixedBandAlloc::new(400 * MB, 40 * MB);
        let e1 = a.allocate(10 * MB).unwrap();
        let e2 = a.allocate(10 * MB).unwrap();
        // The second file does not share the first file's band.
        assert_eq!(e2.offset - e1.offset, 40 * MB);
        assert_eq!(internal_waste(&a), 60 * MB);
    }

    #[test]
    fn freed_bands_are_reused_lowest_first() {
        let mut a = FixedBandAlloc::new(400 * MB, 40 * MB);
        let e1 = a.allocate(40 * MB).unwrap();
        let _e2 = a.allocate(40 * MB).unwrap();
        a.free(e1);
        let e3 = a.allocate(40 * MB).unwrap();
        assert_eq!(e3.offset, e1.offset);
    }

    #[test]
    fn capacity_exhaustion() {
        let mut a = FixedBandAlloc::new(80 * MB, 40 * MB);
        a.allocate(MB).unwrap();
        a.allocate(MB).unwrap();
        assert!(matches!(a.allocate(MB), Err(AllocError::OutOfSpace { .. })));
    }

    #[test]
    fn rebuild_restores_live_set() {
        let mut a = FixedBandAlloc::new(400 * MB, 40 * MB);
        let e1 = a.allocate(10 * MB).unwrap();
        let e2 = a.allocate(40 * MB).unwrap();
        let e3 = a.allocate(20 * MB).unwrap();
        a.free(e2);
        a.rebuild(&[e1, e3]);
        assert_eq!(a.allocated_bytes(), 30 * MB);
        assert_eq!(a.free_bands.len(), 8);
        assert_eq!(internal_waste(&a), 50 * MB);
        // e2's band is free again: the next full-band allocation fits.
        let e = a.allocate(40 * MB).unwrap();
        assert_eq!(e.offset, e2.offset);
        a.free(e1);
        a.free(e3);
        assert_eq!(a.allocated_bytes(), 40 * MB);
    }

    #[test]
    fn oversized_rejected() {
        let mut a = FixedBandAlloc::new(80 * MB, 40 * MB);
        assert!(matches!(
            a.allocate(41 * MB),
            Err(AllocError::Unsupported(_))
        ));
    }
}
