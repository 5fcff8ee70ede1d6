//! Error type for the LSM engine.

use placement::AllocError;
use smr_sim::DiskError;
use std::fmt;

/// Errors surfaced by the engine.
#[derive(Debug, Clone)]
pub enum Error {
    /// An underlying simulated-disk fault.
    Disk(DiskError),
    /// Disk space allocation failed.
    Alloc(AllocError),
    /// On-disk data failed validation (bad CRC, truncated block, ...).
    Corruption(String),
    /// The request is invalid (unknown file, misuse of the API, ...).
    InvalidArgument(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Disk(e) => write!(f, "disk error: {e}"),
            Error::Alloc(e) => write!(f, "allocation error: {e}"),
            Error::Corruption(msg) => write!(f, "corruption: {msg}"),
            Error::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Disk(e) => Some(e),
            Error::Alloc(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DiskError> for Error {
    fn from(e: DiskError) -> Self {
        Error::Disk(e)
    }
}

impl From<AllocError> for Error {
    fn from(e: AllocError) -> Self {
        Error::Alloc(e)
    }
}

/// Result alias for engine operations.
pub type Result<T> = std::result::Result<T, Error>;

/// Shorthand constructor for corruption errors.
pub(crate) fn corruption<T>(msg: impl Into<String>) -> Result<T> {
    Err(Error::Corruption(msg.into()))
}
