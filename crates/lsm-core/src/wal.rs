//! Write-ahead log, LevelDB's record format: the log is a sequence of
//! 32 KiB blocks; each record is
//! `masked_crc32c(4) | length(2, LE) | type(1) | payload`, where type is
//! FULL or a FIRST/MIDDLE.../LAST fragment chain for records spanning
//! blocks. Blocks with fewer than 7 trailing bytes are zero-padded.
//!
//! The writer produces bytes into an internal buffer that the database
//! drains to the simulated disk's log zone after each record; the reader
//! parses a fully materialised log (recovery reads the log back in one
//! sequential sweep), skipping corrupt tails the way LevelDB does.

// Crash recovery and repair degrade to contextful errors, never panic:
// a panic during reopen turns a recoverable torn tail into an outage.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::error::{corruption, Result};
use crate::util::coding::decode_fixed32;
use crate::util::crc32c;

/// Log block size.
const BLOCK_SIZE: usize = 32 * 1024;
/// Record header: crc(4) + length(2) + type(1).
const HEADER_SIZE: usize = 7;

const FULL: u8 = 1;
const FIRST: u8 = 2;
const MIDDLE: u8 = 3;
const LAST: u8 = 4;

/// Appends records in the log format.
#[derive(Debug)]
pub struct LogWriter {
    buf: Vec<u8>,
    block_offset: usize,
}

impl LogWriter {
    /// Creates a writer positioned at a block boundary.
    pub fn new() -> Self {
        LogWriter {
            buf: Vec::new(),
            block_offset: 0,
        }
    }

    /// Appends one record (possibly fragmented across blocks).
    pub fn add_record(&mut self, payload: &[u8]) {
        let mut rest = payload;
        let mut first = true;
        loop {
            let leftover = BLOCK_SIZE - self.block_offset;
            if leftover < HEADER_SIZE {
                // Pad the block tail and switch to a new block.
                self.buf.extend(std::iter::repeat_n(0u8, leftover));
                self.block_offset = 0;
            }
            let avail = BLOCK_SIZE - self.block_offset - HEADER_SIZE;
            let frag_len = rest.len().min(avail);
            let end = frag_len == rest.len();
            let ty = match (first, end) {
                (true, true) => FULL,
                (true, false) => FIRST,
                (false, true) => LAST,
                (false, false) => MIDDLE,
            };
            self.emit(ty, &rest[..frag_len]);
            rest = &rest[frag_len..];
            first = false;
            if end {
                break;
            }
        }
    }

    fn emit(&mut self, ty: u8, frag: &[u8]) {
        let crc = crc32c::mask(crc32c::extend(crc32c::crc32c(&[ty]), frag));
        self.buf.extend_from_slice(&crc.to_le_bytes());
        self.buf
            .extend_from_slice(&(frag.len() as u16).to_le_bytes());
        self.buf.push(ty);
        self.buf.extend_from_slice(frag);
        self.block_offset += HEADER_SIZE + frag.len();
        debug_assert!(self.block_offset <= BLOCK_SIZE);
        if self.block_offset == BLOCK_SIZE {
            self.block_offset = 0;
        }
    }

    /// Drains the bytes produced since the last call.
    pub fn take(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.buf)
    }

    /// Bytes pending in the buffer.
    pub(crate) fn pending_len(&self) -> usize {
        self.buf.len()
    }
}

impl Default for LogWriter {
    fn default() -> Self {
        Self::new()
    }
}

/// Reads records back from a materialised log.
#[derive(Debug)]
pub struct LogReader<'a> {
    data: &'a [u8],
    pos: usize,
    /// Corrupt byte ranges skipped so far (for diagnostics).
    pub(crate) dropped_bytes: usize,
}

impl<'a> LogReader<'a> {
    /// Creates a reader over the whole log contents.
    pub fn new(data: &'a [u8]) -> Self {
        LogReader {
            data,
            pos: 0,
            dropped_bytes: 0,
        }
    }

    fn read_fragment(&mut self) -> Option<std::result::Result<(u8, &'a [u8]), ()>> {
        loop {
            let block_left = BLOCK_SIZE - self.pos % BLOCK_SIZE;
            if block_left < HEADER_SIZE {
                // Padding zone.
                self.pos += block_left;
                continue;
            }
            if self.pos + HEADER_SIZE > self.data.len() {
                return None;
            }
            let hdr = &self.data[self.pos..self.pos + HEADER_SIZE];
            let crc = decode_fixed32(hdr);
            let len = u16::from_le_bytes([hdr[4], hdr[5]]) as usize;
            let ty = hdr[6];
            if ty == 0 && len == 0 && crc == 0 {
                // Zero padding written at a truncated tail.
                return None;
            }
            let start = self.pos + HEADER_SIZE;
            if start + len > self.data.len() {
                self.dropped_bytes += self.data.len() - self.pos;
                self.pos = self.data.len();
                return None;
            }
            let frag = &self.data[start..start + len];
            self.pos = start + len;
            let expect = crc32c::mask(crc32c::extend(crc32c::crc32c(&[ty]), frag));
            if expect != crc || !(FULL..=LAST).contains(&ty) {
                self.dropped_bytes += HEADER_SIZE + len;
                return Some(Err(()));
            }
            return Some(Ok((ty, frag)));
        }
    }

    /// Next complete record, or `None` at end of log. Corrupt fragments
    /// produce `Err` but reading may continue.
    pub fn next_record(&mut self) -> Option<Result<Vec<u8>>> {
        let mut assembled: Option<Vec<u8>> = None;
        loop {
            match self.read_fragment() {
                None => {
                    return match assembled {
                        // A dangling FIRST/MIDDLE chain at the tail means a
                        // crash mid-record; LevelDB silently drops it.
                        Some(partial) => {
                            self.dropped_bytes += partial.len();
                            None
                        }
                        None => None,
                    };
                }
                Some(Err(())) => {
                    return Some(corruption(format!(
                        "bad record crc near byte {} of wal (dropped {} bytes so far)",
                        self.pos, self.dropped_bytes
                    )));
                }
                Some(Ok((ty, frag))) => match ty {
                    FULL => {
                        if assembled.is_some() {
                            return Some(corruption(format!(
                                "FULL record inside fragment chain near byte {} of wal",
                                self.pos
                            )));
                        }
                        return Some(Ok(frag.to_vec()));
                    }
                    FIRST => {
                        if assembled.is_some() {
                            return Some(corruption(format!(
                                "FIRST record inside fragment chain near byte {} of wal",
                                self.pos
                            )));
                        }
                        assembled = Some(frag.to_vec());
                    }
                    MIDDLE => match assembled.as_mut() {
                        Some(a) => a.extend_from_slice(frag),
                        None => {
                            return Some(corruption(format!(
                                "MIDDLE record without FIRST near byte {} of wal",
                                self.pos
                            )))
                        }
                    },
                    LAST => match assembled.take() {
                        Some(mut a) => {
                            a.extend_from_slice(frag);
                            return Some(Ok(a));
                        }
                        None => {
                            return Some(corruption(format!(
                                "LAST record without FIRST near byte {} of wal",
                                self.pos
                            )))
                        }
                    },
                    _ => unreachable!("fragment type validated"),
                },
            }
        }
    }

    /// Collects all intact records, ignoring corruption (recovery policy).
    pub fn all_records(&mut self) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        while let Some(rec) = self.next_record() {
            if let Ok(r) = rec {
                out.push(r);
            }
        }
        out
    }
}

/// Incremental record reassembly over log-formatted bytes that arrive
/// in chunks — the replication shipping path. [`LogReader`] parses a
/// fully materialised log and treats an incomplete tail as a crash to
/// drop; a stream must instead *wait*: [`WalStream::next_record`]
/// returns `None` while a record's bytes are still in flight and
/// resumes once [`WalStream::feed`] supplies the rest, preserving
/// fragment chains across calls and block boundaries.
#[derive(Debug, Default)]
pub struct WalStream {
    buf: Vec<u8>,
    /// Parse cursor into `buf`.
    pos: usize,
    /// Absolute log offset of `buf[0]` (drained prefixes), so block
    /// alignment survives buffer compaction.
    consumed: usize,
    /// Fragment chain in progress, carried across `next_record` calls.
    partial: Option<Vec<u8>>,
    /// Corrupt byte ranges skipped so far (for diagnostics).
    pub(crate) dropped_bytes: usize,
}

impl WalStream {
    /// Creates a stream positioned at the start of a log.
    pub fn new() -> Self {
        WalStream::default()
    }

    /// Appends newly arrived log bytes, compacting the parsed prefix.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.consumed += self.pos;
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Next fragment, `None` while its bytes are still in flight.
    fn read_fragment(&mut self) -> Option<std::result::Result<(u8, Vec<u8>), ()>> {
        loop {
            let block_left = BLOCK_SIZE - (self.consumed + self.pos) % BLOCK_SIZE;
            if block_left < HEADER_SIZE {
                if self.buf.len() < self.pos + block_left {
                    return None; // padding still in flight
                }
                self.pos += block_left;
                continue;
            }
            if self.buf.len() < self.pos + HEADER_SIZE {
                return None;
            }
            let hdr = &self.buf[self.pos..self.pos + HEADER_SIZE];
            let crc = decode_fixed32(hdr);
            let len = u16::from_le_bytes([hdr[4], hdr[5]]) as usize;
            let ty = hdr[6];
            if ty == 0 && len == 0 && crc == 0 {
                // A live stream never writes zero headers (short block
                // tails are the only padding, handled above): resync one
                // header forward and report the corruption.
                self.pos += HEADER_SIZE;
                self.dropped_bytes += HEADER_SIZE;
                return Some(Err(()));
            }
            if self.buf.len() < self.pos + HEADER_SIZE + len {
                return None; // payload still in flight
            }
            let start = self.pos + HEADER_SIZE;
            let frag = self.buf[start..start + len].to_vec();
            self.pos = start + len;
            let expect = crc32c::mask(crc32c::extend(crc32c::crc32c(&[ty]), &frag));
            if expect != crc || !(FULL..=LAST).contains(&ty) {
                self.dropped_bytes += HEADER_SIZE + len;
                return Some(Err(()));
            }
            return Some(Ok((ty, frag)));
        }
    }

    /// Next complete record, or `None` until more bytes arrive. Corrupt
    /// fragments produce `Err`; parsing continues on the next call.
    pub fn next_record(&mut self) -> Option<Result<Vec<u8>>> {
        loop {
            match self.read_fragment() {
                None => return None,
                Some(Err(())) => {
                    self.partial = None;
                    return Some(corruption(format!(
                        "bad record crc near stream byte {} (dropped {} bytes so far)",
                        self.consumed + self.pos,
                        self.dropped_bytes
                    )));
                }
                Some(Ok((ty, frag))) => match ty {
                    FULL => {
                        if self.partial.take().is_some() {
                            return Some(corruption(format!(
                                "FULL record inside fragment chain near stream byte {}",
                                self.consumed + self.pos
                            )));
                        }
                        return Some(Ok(frag));
                    }
                    FIRST => {
                        if self.partial.replace(frag).is_some() {
                            return Some(corruption(format!(
                                "FIRST record inside fragment chain near stream byte {}",
                                self.consumed + self.pos
                            )));
                        }
                    }
                    MIDDLE => match self.partial.as_mut() {
                        Some(a) => a.extend_from_slice(&frag),
                        None => {
                            return Some(corruption(format!(
                                "MIDDLE record without FIRST near stream byte {}",
                                self.consumed + self.pos
                            )))
                        }
                    },
                    LAST => match self.partial.take() {
                        Some(mut a) => {
                            a.extend_from_slice(&frag);
                            return Some(Ok(a));
                        }
                        None => {
                            return Some(corruption(format!(
                                "LAST record without FIRST near stream byte {}",
                                self.consumed + self.pos
                            )))
                        }
                    },
                    _ => unreachable!("fragment type validated"),
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains every record currently completable, ignoring corruption.
    fn drain_records(s: &mut WalStream) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        while let Some(rec) = s.next_record() {
            if let Ok(r) = rec {
                out.push(r);
            }
        }
        out
    }

    fn roundtrip(records: &[Vec<u8>]) -> Vec<Vec<u8>> {
        let mut w = LogWriter::new();
        for r in records {
            w.add_record(r);
        }
        let bytes = w.take();
        LogReader::new(&bytes).all_records()
    }

    #[test]
    fn empty_log() {
        assert!(LogReader::new(&[]).all_records().is_empty());
    }

    #[test]
    fn small_records() {
        let recs = vec![b"one".to_vec(), b"two".to_vec(), vec![], b"four".to_vec()];
        assert_eq!(roundtrip(&recs), recs);
    }

    #[test]
    fn record_spanning_blocks() {
        let big = vec![0xAB; BLOCK_SIZE * 3 + 123];
        let recs = vec![b"pre".to_vec(), big.clone(), b"post".to_vec()];
        assert_eq!(roundtrip(&recs), recs);
    }

    #[test]
    fn record_exactly_filling_block() {
        let exact = vec![7u8; BLOCK_SIZE - HEADER_SIZE];
        let recs = vec![exact.clone(), b"after".to_vec()];
        assert_eq!(roundtrip(&recs), recs);
    }

    #[test]
    fn block_tail_padding() {
        // Record that leaves < 7 bytes in the block forces padding.
        let a = vec![1u8; BLOCK_SIZE - HEADER_SIZE - 3];
        let recs = vec![a.clone(), b"next-block".to_vec()];
        assert_eq!(roundtrip(&recs), recs);
    }

    #[test]
    fn corrupt_crc_detected() {
        let mut w = LogWriter::new();
        w.add_record(b"good");
        w.add_record(b"evil");
        let mut bytes = w.take();
        // Flip a payload byte of the second record.
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        let mut r = LogReader::new(&bytes);
        assert_eq!(r.next_record().unwrap().unwrap(), b"good");
        assert!(r.next_record().unwrap().is_err());
        assert!(r.dropped_bytes > 0);
    }

    #[test]
    fn truncated_tail_dropped_silently() {
        let mut w = LogWriter::new();
        w.add_record(b"complete");
        w.add_record(&vec![9u8; 5000]);
        let bytes = w.take();
        // Cut mid-way through the second record.
        let cut = &bytes[..bytes.len() - 2500];
        let recs = LogReader::new(cut).all_records();
        assert_eq!(recs, vec![b"complete".to_vec()]);
    }

    #[test]
    fn stream_reassembles_byte_at_a_time() {
        let big = vec![0x5A; BLOCK_SIZE + 777];
        let recs = vec![b"one".to_vec(), big.clone(), vec![], b"four".to_vec()];
        let mut w = LogWriter::new();
        for r in &recs {
            w.add_record(r);
        }
        let bytes = w.take();
        let mut s = WalStream::new();
        let mut got = Vec::new();
        for b in &bytes {
            s.feed(std::slice::from_ref(b));
            got.extend(drain_records(&mut s));
        }
        assert_eq!(got, recs);
        assert_eq!(s.dropped_bytes, 0);
        assert_eq!(s.buf.len(), s.pos, "every fed byte parsed");
    }

    #[test]
    fn stream_waits_for_inflight_payload() {
        let mut w = LogWriter::new();
        w.add_record(&vec![3u8; 5000]);
        let bytes = w.take();
        let mut s = WalStream::new();
        s.feed(&bytes[..2500]);
        assert!(s.next_record().is_none(), "half a record must not parse");
        s.feed(&bytes[2500..]);
        let rec = s.next_record().expect("complete now").expect("intact");
        assert_eq!(rec, vec![3u8; 5000]);
    }

    #[test]
    fn stream_chain_survives_block_padding_gap() {
        // First record forces padding; the chunk boundary lands inside
        // the padding zone of the first block.
        let a = vec![1u8; BLOCK_SIZE - HEADER_SIZE - 3];
        let mut w = LogWriter::new();
        w.add_record(&a);
        w.add_record(b"next-block");
        let bytes = w.take();
        let cut = BLOCK_SIZE - 2; // inside the 3-byte zero padding
        let mut s = WalStream::new();
        s.feed(&bytes[..cut]);
        assert_eq!(drain_records(&mut s), vec![a.clone()]);
        s.feed(&bytes[cut..]);
        assert_eq!(drain_records(&mut s), vec![b"next-block".to_vec()]);
    }

    #[test]
    fn stream_surfaces_corruption_then_recovers() {
        let mut w = LogWriter::new();
        w.add_record(b"good");
        w.add_record(b"evil");
        w.add_record(b"tail");
        let mut bytes = w.take();
        // Flip a payload byte of the middle record.
        let evil_start = (HEADER_SIZE + 4) + HEADER_SIZE;
        bytes[evil_start] ^= 0xFF;
        let mut s = WalStream::new();
        s.feed(&bytes);
        assert_eq!(s.next_record().unwrap().unwrap(), b"good");
        assert!(s.next_record().unwrap().is_err());
        assert!(s.dropped_bytes > 0);
        assert_eq!(s.next_record().unwrap().unwrap(), b"tail");
    }

    #[test]
    fn stream_matches_reader_on_same_bytes() {
        let recs: Vec<Vec<u8>> = (0..50).map(|i| vec![i as u8; (i * 97) % 3000]).collect();
        let mut w = LogWriter::new();
        for r in &recs {
            w.add_record(r);
        }
        let bytes = w.take();
        let from_reader = LogReader::new(&bytes).all_records();
        let mut s = WalStream::new();
        let mut from_stream = Vec::new();
        for chunk in bytes.chunks(311) {
            s.feed(chunk);
            from_stream.extend(drain_records(&mut s));
        }
        assert_eq!(from_stream, from_reader);
        assert_eq!(from_stream, recs);
    }

    #[test]
    fn take_is_incremental() {
        let mut w = LogWriter::new();
        w.add_record(b"a");
        let first = w.take();
        assert!(!first.is_empty());
        w.add_record(b"b");
        let second = w.take();
        let mut joined = first.clone();
        joined.extend_from_slice(&second);
        let recs = LogReader::new(&joined).all_records();
        assert_eq!(recs, vec![b"a".to_vec(), b"b".to_vec()]);
        assert_eq!(w.pending_len(), 0);
    }
}
