//! # placement — disk-space placement policies
//!
//! The SEALDB paper contrasts three ways of deciding *where* on the disk a
//! key-value store's files land:
//!
//! * [`Ext4Sim`] — an Ext4-like block-group allocator. Files are spread
//!   across block groups and freed holes are reused first-fit, which is
//!   exactly the behaviour that scatters the SSTables of one compaction
//!   across the used disk span (the paper's Fig. 2) and provokes band
//!   read-modify-writes on SMR (§II-C).
//! * [`FixedBandAlloc`] — one allocation per dedicated fixed band, the
//!   placement SMRDB \[24\] uses for its band-sized SSTables.
//! * [`DynamicBandAlloc`] — the paper's contribution at the device level
//!   (§III-B): a free-space list organised as a sorted array of
//!   SSTable-aligned size classes, each holding a doubly-linked list of
//!   free regions; allocation satisfies `S_free ≥ S_req + S_guard`
//!   (Eq. 1) with split/coalesce/append-at-the-frontier semantics, and
//!   chains a run of level-0 tables back-to-back inside one hole.
//!
//! All allocators speak the same [`Allocator`] trait so the LSM engine's
//! file store can be parameterised over them.

/// The paper's dynamic-band free-space management.
mod dynamicband;
/// Ext4-like scatter allocation (block groups, goal search).
mod ext4sim;
/// Fixed-size band allocation for conventional SMR drives.
mod fixedband;
/// Address-ordered free-space list shared by the allocators.
mod freelist;

pub use dynamicband::DynamicBandAlloc;
pub use ext4sim::Ext4Sim;
pub use fixedband::FixedBandAlloc;

use smr_sim::Extent;
use std::fmt;

/// Why an allocation could not be satisfied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocError {
    /// No region of the requested size is available.
    OutOfSpace {
        /// Bytes requested.
        requested: u64,
        /// Total free bytes remaining (possibly fragmented).
        free: u64,
    },
    /// The request is invalid for this allocator (e.g. larger than a band).
    Unsupported(String),
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::OutOfSpace { requested, free } => {
                write!(f, "out of space: requested {requested}, free {free}")
            }
            AllocError::Unsupported(msg) => write!(f, "unsupported allocation: {msg}"),
        }
    }
}

impl std::error::Error for AllocError {}

/// A disk-space allocator: hands out extents for file data and recycles
/// them on delete.
pub trait Allocator: Send {
    /// Allocates `size` bytes, returning the extent the caller may write.
    fn allocate(&mut self, size: u64) -> Result<Extent, AllocError>;

    /// Allocates `size` bytes for one table of a run that grows to about
    /// `run` data bytes through later calls — the level-0 tables between
    /// two L0→L1 compactions. An allocator that can keeps the run
    /// back-to-back on the device, so a compaction reads it as one
    /// stream. Default: a plain [`Allocator::allocate`].
    fn allocate_in_run(&mut self, size: u64, run: u64) -> Result<Extent, AllocError> {
        let _ = run;
        self.allocate(size)
    }

    /// Returns a previously allocated extent to the allocator. `ext` must
    /// be exactly an extent returned by [`Allocator::allocate`].
    fn free(&mut self, ext: Extent);

    /// One past the highest byte ever handed out (the used disk span).
    fn high_water(&self) -> u64;

    /// Bytes currently allocated to live files.
    fn allocated_bytes(&self) -> u64;

    /// Snapshot of recyclable free regions (for the layout figures). The
    /// untouched space past the high-water mark is not included.
    fn free_regions(&self) -> Vec<Extent>;

    /// Human-readable allocator name for reports.
    fn name(&self) -> &'static str;

    /// Resets the allocator so that exactly `live` extents are allocated —
    /// crash recovery re-learning the disk from the file store's surviving
    /// metadata. Every extent in `live` must be one this allocator handed
    /// out earlier (band-aligned for banded allocators); after the call,
    /// each may be passed to [`Allocator::free`] without panicking.
    /// Reservation bytes (guards) attached to allocations *not* in `live`
    /// may be forgotten rather than recycled: the space is simply never
    /// handed out again, which is safe, merely conservative.
    fn rebuild(&mut self, live: &[Extent]);

    /// Fences `ext` off the allocation path: a latent sector error or
    /// failed band discovered by the scrubber. Fenced space is removed
    /// from the free pool and never handed out again; space currently
    /// allocated inside the fence stays with its owner until freed, at
    /// which point the fenced part is dropped instead of recycled.
    /// Returns the bytes *newly* fenced (0 when the range was already
    /// fenced, or for allocators without fencing support).
    fn quarantine(&mut self, ext: Extent) -> u64 {
        let _ = ext;
        0
    }

    /// Total bytes currently fenced by [`Allocator::quarantine`].
    fn quarantined_bytes(&self) -> u64 {
        0
    }

    /// Dynamic-band snapshot: (band extent, live allocations inside), for
    /// allocators that track bands (Fig. 13). Default: none.
    fn band_snapshot(&self) -> Vec<(Extent, usize)> {
        Vec::new()
    }

    /// Drains queued band-lifecycle events (allocate/append/recycle) for
    /// the observability layer. Allocators have no disk access, so they
    /// queue events and the placement policy above drains them into the
    /// disk's `Obs` with a timestamp. Default: no events.
    fn take_events(&mut self) -> Vec<smr_sim::AllocEvent> {
        Vec::new()
    }
}
