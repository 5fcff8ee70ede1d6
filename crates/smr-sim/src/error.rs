//! Error type for disk operations.

use crate::extent::Extent;
use std::fmt;

/// Errors raised by the simulated disk.
///
/// A correct SMR-aware client (such as SEALDB's dynamic band manager) must
/// never trigger `WouldOverlapValid` / `GuardViolation`; the simulator treats
/// them as faults rather than silently corrupting data, so that tests can
/// assert the host honours the Caveat-Scriptor contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiskError {
    /// Access extends past the end of the disk.
    OutOfRange {
        /// The requested extent.
        ext: Extent,
        /// The disk's size in bytes.
        capacity: u64,
    },
    /// A raw-SMR write would overwrite bytes currently holding valid data.
    WouldOverlapValid {
        /// The requested write.
        ext: Extent,
        /// The valid extent it would overwrite.
        valid: Extent,
    },
    /// A raw-SMR write's shingle-direction damage window would destroy
    /// valid data (the host failed to reserve a guard region).
    GuardViolation {
        /// The requested write.
        ext: Extent,
        /// The valid bytes its damage window would destroy.
        damaged: Extent,
    },
    /// A read touched bytes that were never written (or were invalidated).
    ReadUnwritten {
        /// The requested read.
        ext: Extent,
    },
    /// Injected failure (fault-injection testing).
    Injected,
    /// An injected torn write: the drive acknowledged `ext` but persisted
    /// only a prefix of it before dying, so the extent reads back with a
    /// stale suffix that host-side checksums must catch.
    TornWrite {
        /// The write the drive acknowledged.
        ext: Extent,
    },
    /// An injected *transient* read error (latent sector error that a
    /// retry recovers): re-issuing the same read succeeds.
    TransientRead {
        /// The failed read.
        ext: Extent,
    },
    /// An injected *persistent* read error: the extent overlaps a latent
    /// sector error (or failed band) registered in the fault plan, so
    /// every read of it fails — no retry budget helps. Recovery requires
    /// relocating or re-materialising the data elsewhere.
    UnrecoverableRead {
        /// The failed read.
        ext: Extent,
    },
}

impl DiskError {
    /// True for errors a caller should retry once before giving up.
    pub fn is_transient(&self) -> bool {
        matches!(self, DiskError::TransientRead { .. })
    }
}

impl fmt::Display for DiskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiskError::OutOfRange { ext, capacity } => {
                write!(f, "access {ext:?} out of range (capacity {capacity})")
            }
            DiskError::WouldOverlapValid { ext, valid } => {
                write!(f, "write {ext:?} would overwrite valid data at {valid:?}")
            }
            DiskError::GuardViolation { ext, damaged } => write!(
                f,
                "write {ext:?} damages valid data at {damaged:?} in the shingle direction"
            ),
            DiskError::ReadUnwritten { ext } => {
                write!(f, "read {ext:?} touches unwritten bytes")
            }
            DiskError::Injected => write!(f, "injected write failure"),
            DiskError::TornWrite { ext } => {
                write!(f, "torn write at {ext:?} (prefix persisted, power lost)")
            }
            DiskError::TransientRead { ext } => {
                write!(f, "transient read error at {ext:?} (retry should succeed)")
            }
            DiskError::UnrecoverableRead { ext } => {
                write!(
                    f,
                    "unrecoverable read error at {ext:?} (persistent media fault)"
                )
            }
        }
    }
}

impl std::error::Error for DiskError {}

/// Convenient result alias for disk operations.
pub type DiskResult<T> = Result<T, DiskError>;
