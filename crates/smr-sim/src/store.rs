//! Sparse backing store for disk contents.
//!
//! The simulator holds real bytes so that the KV stores built on top can be
//! checked for correctness, not just timing. A disk is logically up to tens
//! of gigabytes but only a fraction is ever written, so the contents live in
//! fixed-size chunks allocated on demand.

/// Chunk size for the sparse store. 64 KiB balances map overhead against
/// wasted space for small writes.
const CHUNK_SHIFT: u32 = 16;
const CHUNK_SIZE: usize = 1 << CHUNK_SHIFT;

/// A sparse, chunked byte array. Unwritten bytes read as zero.
///
/// Chunks are held behind `Arc` so cloning the store is a cheap
/// copy-on-write snapshot (the crash-point fault-injection harness takes
/// one at every Kth write): the clone shares every chunk until either
/// side writes, at which point only the touched chunk is copied.
#[derive(Debug, Default, Clone)]
pub struct SparseStore {
    chunks: std::collections::BTreeMap<u64, std::sync::Arc<[u8; CHUNK_SIZE]>>,
}

impl SparseStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes `data` starting at byte `offset`.
    pub fn write(&mut self, offset: u64, data: &[u8]) {
        let mut pos = offset;
        let mut rest = data;
        while !rest.is_empty() {
            let chunk_idx = pos >> CHUNK_SHIFT;
            let within = (pos & ((CHUNK_SIZE as u64) - 1)) as usize;
            let n = rest.len().min(CHUNK_SIZE - within);
            let chunk = std::sync::Arc::make_mut(
                self.chunks
                    .entry(chunk_idx)
                    .or_insert_with(|| std::sync::Arc::new([0u8; CHUNK_SIZE])),
            );
            chunk[within..within + n].copy_from_slice(&rest[..n]);
            pos += n as u64;
            rest = &rest[n..];
        }
    }

    /// Reads `len` bytes starting at `offset` into a fresh vector. This
    /// is the one allocation of a device read: the vector is filled
    /// chunk by chunk (never zero-initialised first) and handed up, by
    /// value, to whoever asked the disk for the bytes.
    pub(crate) fn read_vec(&self, offset: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let mut pos = offset;
        while out.len() < len {
            let chunk_idx = pos >> CHUNK_SHIFT;
            let within = (pos & ((CHUNK_SIZE as u64) - 1)) as usize;
            let n = (len - out.len()).min(CHUNK_SIZE - within);
            match self.chunks.get(&chunk_idx) {
                Some(chunk) => out.extend_from_slice(&chunk[within..within + n]),
                None => out.resize(out.len() + n, 0),
            }
            pos += n as u64;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_within_chunk() {
        let mut s = SparseStore::new();
        s.write(100, b"hello world");
        assert_eq!(s.read_vec(100, 11), b"hello world");
        assert_eq!(s.chunks.len(), 1);
    }

    #[test]
    fn roundtrip_across_chunks() {
        let mut s = SparseStore::new();
        let data: Vec<u8> = (0..200_000).map(|i| (i % 251) as u8).collect();
        let offset = (CHUNK_SIZE as u64) - 37;
        s.write(offset, &data);
        assert_eq!(s.read_vec(offset, data.len()), data);
        assert!(s.chunks.len() >= 3);
    }

    #[test]
    fn unwritten_reads_zero() {
        let s = SparseStore::new();
        assert_eq!(s.read_vec(1 << 40, 8), vec![0u8; 8]);
    }

    #[test]
    fn overwrite() {
        let mut s = SparseStore::new();
        s.write(0, b"aaaaaaaa");
        s.write(2, b"bb");
        assert_eq!(s.read_vec(0, 8), b"aabbaaaa");
    }

    #[test]
    fn clone_is_copy_on_write() {
        let mut s = SparseStore::new();
        s.write(0, b"original");
        let snap = s.clone();
        // Writing to the live store must not bleed into the snapshot.
        s.write(0, b"replaced");
        assert_eq!(s.read_vec(0, 8), b"replaced");
        assert_eq!(snap.read_vec(0, 8), b"original");
        // Untouched chunks stay shared; only the written one was copied.
        s.write(1 << 30, b"far");
        assert_eq!(snap.read_vec(1 << 30, 3), vec![0u8; 3]);
    }

    #[test]
    fn sparse_far_apart_writes() {
        let mut s = SparseStore::new();
        s.write(0, b"x");
        s.write(1 << 34, b"y");
        assert_eq!(s.chunks.len(), 2);
        assert_eq!(s.read_vec(1 << 34, 1), b"y");
    }
}
