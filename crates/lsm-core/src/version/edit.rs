//! Version edits: the deltas recorded in the manifest log. A version edit
//! describes file additions/deletions per level plus bookkeeping counters,
//! exactly LevelDB's `VersionEdit` with an extra `set_id` per file for the
//! SEALDB set bookkeeping.

use crate::error::{corruption, Result};
use crate::types::FileId;
use crate::util::coding::{get_length_prefixed, get_varint64, put_length_prefixed, put_varint64};
use std::sync::Arc;

/// Metadata of one SSTable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileMetaData {
    /// File id.
    pub id: FileId,
    /// File size in bytes.
    pub size: u64,
    /// Smallest internal key in the table.
    pub smallest: Vec<u8>,
    /// Largest internal key in the table.
    pub largest: Vec<u8>,
    /// Set (on-disk region) this file belongs to; 0 = no set.
    pub(crate) set_id: u64,
}

/// A delta against the current version.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct VersionEdit {
    /// New WAL id; logs older than this are obsolete after recovery.
    pub(crate) log_number: Option<u64>,
    /// Next file id counter.
    pub(crate) next_file: Option<u64>,
    /// Last sequence number.
    pub last_sequence: Option<u64>,
    /// Compaction pointers (level, internal key).
    pub(crate) compact_pointers: Vec<(usize, Vec<u8>)>,
    /// Files removed (level, file id).
    pub(crate) deleted: Vec<(usize, FileId)>,
    /// Files added (level, metadata).
    pub(crate) added: Vec<(usize, FileMetaData)>,
    /// Opaque auxiliary subsystem state carried alongside the file
    /// layout (the value log checkpoints its segment directory here).
    /// The latest blob wins; recovery hands it back verbatim.
    pub(crate) aux: Option<Vec<u8>>,
}

const TAG_LOG_NUMBER: u64 = 1;
const TAG_NEXT_FILE: u64 = 2;
const TAG_LAST_SEQUENCE: u64 = 3;
const TAG_COMPACT_POINTER: u64 = 4;
const TAG_DELETED_FILE: u64 = 5;
const TAG_NEW_FILE: u64 = 6;
const TAG_AUX: u64 = 7;

impl VersionEdit {
    /// Serialises the edit for the manifest.
    pub fn encode(&self) -> Vec<u8> {
        let mut dst = Vec::new();
        if let Some(v) = self.log_number {
            put_varint64(&mut dst, TAG_LOG_NUMBER);
            put_varint64(&mut dst, v);
        }
        if let Some(v) = self.next_file {
            put_varint64(&mut dst, TAG_NEXT_FILE);
            put_varint64(&mut dst, v);
        }
        if let Some(v) = self.last_sequence {
            put_varint64(&mut dst, TAG_LAST_SEQUENCE);
            put_varint64(&mut dst, v);
        }
        for (level, key) in &self.compact_pointers {
            put_varint64(&mut dst, TAG_COMPACT_POINTER);
            put_varint64(&mut dst, *level as u64);
            put_length_prefixed(&mut dst, key);
        }
        for (level, id) in &self.deleted {
            put_varint64(&mut dst, TAG_DELETED_FILE);
            put_varint64(&mut dst, *level as u64);
            put_varint64(&mut dst, *id);
        }
        for (level, f) in &self.added {
            put_varint64(&mut dst, TAG_NEW_FILE);
            put_varint64(&mut dst, *level as u64);
            put_varint64(&mut dst, f.id);
            put_varint64(&mut dst, f.size);
            put_varint64(&mut dst, f.set_id);
            put_length_prefixed(&mut dst, &f.smallest);
            put_length_prefixed(&mut dst, &f.largest);
        }
        if let Some(blob) = &self.aux {
            put_varint64(&mut dst, TAG_AUX);
            put_length_prefixed(&mut dst, blob);
        }
        dst
    }

    /// Parses a manifest record.
    pub fn decode(mut src: &[u8]) -> Result<VersionEdit> {
        let mut edit = VersionEdit::default();
        fn take_u64(src: &mut &[u8]) -> Result<u64> {
            match get_varint64(src) {
                Some((v, n)) => {
                    *src = &src[n..];
                    Ok(v)
                }
                None => corruption(format!(
                    "truncated varint in version edit ({} byte(s) left in record)",
                    src.len()
                )),
            }
        }
        fn take_bytes(src: &mut &[u8]) -> Result<Vec<u8>> {
            match get_length_prefixed(src) {
                Some((s, n)) => {
                    let v = s.to_vec();
                    *src = &src[n..];
                    Ok(v)
                }
                None => corruption(format!(
                    "truncated length-prefixed slice in version edit ({} byte(s) left in record)",
                    src.len()
                )),
            }
        }
        while !src.is_empty() {
            let tag = take_u64(&mut src)?;
            match tag {
                TAG_LOG_NUMBER => edit.log_number = Some(take_u64(&mut src)?),
                TAG_NEXT_FILE => edit.next_file = Some(take_u64(&mut src)?),
                TAG_LAST_SEQUENCE => edit.last_sequence = Some(take_u64(&mut src)?),
                TAG_COMPACT_POINTER => {
                    let level = take_u64(&mut src)? as usize;
                    let key = take_bytes(&mut src)?;
                    edit.compact_pointers.push((level, key));
                }
                TAG_DELETED_FILE => {
                    let level = take_u64(&mut src)? as usize;
                    let id = take_u64(&mut src)?;
                    edit.deleted.push((level, id));
                }
                TAG_NEW_FILE => {
                    let level = take_u64(&mut src)? as usize;
                    let id = take_u64(&mut src)?;
                    let size = take_u64(&mut src)?;
                    let set_id = take_u64(&mut src)?;
                    let smallest = take_bytes(&mut src)?;
                    let largest = take_bytes(&mut src)?;
                    edit.added.push((
                        level,
                        FileMetaData {
                            id,
                            size,
                            smallest,
                            largest,
                            set_id,
                        },
                    ));
                }
                TAG_AUX => edit.aux = Some(take_bytes(&mut src)?),
                _ => return corruption(format!("unknown version edit tag {tag}")),
            }
        }
        Ok(edit)
    }

    /// Convenience: records a file addition.
    pub(crate) fn add_file(&mut self, level: usize, meta: FileMetaData) {
        self.added.push((level, meta));
    }

    /// Convenience: records a file deletion.
    pub fn delete_file(&mut self, level: usize, id: FileId) {
        self.deleted.push((level, id));
    }
}

/// Shared pointer to immutable file metadata.
pub type FileMetaHandle = Arc<FileMetaData>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{make_internal_key, ValueType};

    fn meta(id: u64) -> FileMetaData {
        FileMetaData {
            id,
            size: id * 1000,
            smallest: make_internal_key(format!("a{id}").as_bytes(), 1, ValueType::Value),
            largest: make_internal_key(format!("z{id}").as_bytes(), 9, ValueType::Value),
            set_id: id / 2,
        }
    }

    #[test]
    fn empty_edit_roundtrip() {
        let e = VersionEdit::default();
        assert_eq!(VersionEdit::decode(&e.encode()).unwrap(), e);
    }

    #[test]
    fn full_edit_roundtrip() {
        let mut e = VersionEdit {
            log_number: Some(7),
            next_file: Some(42),
            last_sequence: Some(123456789),
            ..Default::default()
        };
        e.compact_pointers
            .push((2, make_internal_key(b"ptr", 5, ValueType::Value)));
        e.delete_file(1, 10);
        e.delete_file(2, 11);
        e.add_file(1, meta(20));
        e.add_file(3, meta(21));
        assert_eq!(VersionEdit::decode(&e.encode()).unwrap(), e);
    }

    #[test]
    fn aux_blob_roundtrip() {
        let mut e = VersionEdit {
            aux: Some(vec![1, 2, 3, 0xFF, 0]),
            ..Default::default()
        };
        e.add_file(1, meta(20));
        assert_eq!(VersionEdit::decode(&e.encode()).unwrap(), e);
        // Empty blob is distinguishable from no blob.
        let empty = VersionEdit {
            aux: Some(Vec::new()),
            ..Default::default()
        };
        assert_eq!(VersionEdit::decode(&empty.encode()).unwrap(), empty);
        assert_ne!(empty, VersionEdit::default());
    }

    #[test]
    fn truncated_rejected() {
        let mut e = VersionEdit::default();
        e.add_file(1, meta(20));
        let enc = e.encode();
        assert!(VersionEdit::decode(&enc[..enc.len() - 3]).is_err());
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut bad = Vec::new();
        put_varint64(&mut bad, 99);
        assert!(VersionEdit::decode(&bad).is_err());
    }
}
