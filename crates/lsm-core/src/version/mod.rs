//! Versioned file-layout metadata: edits, versions, and the version set
//! with manifest logging and compaction picking.

/// Manifest edit records (file adds/deletes, counters).
mod edit;
/// The version set: manifest log, recovery, compaction picking.
pub mod set;
#[allow(clippy::module_inception)]
/// One immutable snapshot of the file layout per level.
pub mod version;

pub(crate) use edit::VersionEdit;
pub use edit::{FileMetaData, FileMetaHandle};
pub use set::{Compaction, FSMETA_LOG_ID};
pub(crate) use set::{LevelParams, VersionSet, MANIFEST_LOG_ID};
pub use version::Version;
