//! Fixture: value-log violations. The log's recovery path (checkpoint
//! decode, torn-tail scan) runs on every reopen, so a context-free
//! corruption error hides which segment holds the bad bytes.

/// Recovers a segment directory, raising a corruption error that never
/// says which segment or offset held the bad bytes.
pub fn recover_segments(head: [u8; 8]) -> Result<u64, String> {
    if head[0] != 1 {
        return Err(corruption("corrupt value-log checkpoint"));
    }
    Ok(u64::from_le_bytes(head))
}
