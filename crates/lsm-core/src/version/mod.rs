//! Versioned file-layout metadata: edits, versions, and the version set
//! with manifest logging and compaction picking.

/// Manifest edit records (file adds/deletes, counters).
mod edit;
/// The version set: manifest log, recovery, compaction picking.
pub mod set;
#[allow(clippy::module_inception)]
/// One immutable snapshot of the file layout per level.
pub mod version;

pub use edit::{FileMetaData, FileMetaHandle, VersionEdit};
pub(crate) use set::MANIFEST_LOG_ID;
pub use set::{Compaction, LevelParams, ManifestRecovery, VersionSet, FSMETA_LOG_ID};
pub use version::Version;
