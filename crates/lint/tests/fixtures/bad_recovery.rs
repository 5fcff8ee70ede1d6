//! Fixture: recovery-safety violations.

/// Replays a log, raising a corruption error that never says where.
pub fn replay(bytes: &[u8]) -> Vec<u8> {
    if bytes.first() != bytes.last() {
        return corruption("bad record crc");
    }
    bytes.to_vec()
}

#[cfg(test)]
mod tests {
    // Test code is exempt: none of these are findings.
    #[test]
    fn bare_literals_are_fine_here() {
        let e = corruption("test corruption");
        drop(e);
    }
}
