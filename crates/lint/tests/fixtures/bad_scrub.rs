//! Fixture: scrub/repair-path violations. The scrub module walks live
//! tables and rebuilds damaged ones; like crash recovery, its corruption
//! errors must say where the bad bytes live.

/// Verifies one table during a scrub pass; the bare literal hides which
/// block failed.
pub fn scan_table(blocks: &[Vec<u8>]) -> Result<(), String> {
    if blocks.first() != blocks.last() {
        return Err(corruption("scrub found a bad block"));
    }
    Ok(())
}

/// Rebuilds a damaged table; the bare literal hides which file died.
pub fn rebuild_table(ok: bool) -> Result<(), String> {
    if !ok {
        return Err(corruption("rebuild read failed"));
    }
    Ok(())
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
