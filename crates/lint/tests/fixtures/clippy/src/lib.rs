//! Every item below trips one of the lints DESIGN.md §11 lists as held by
//! rustc/clippy, under the same attributes and configuration the
//! workspace uses.
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::cast_possible_truncation)]

use std::collections::HashMap;

pub fn undocumented() {}

/// Sums a map whose iteration order varies run to run.
pub fn tally(m: &HashMap<u64, u64>) -> u64 {
    m.values().sum()
}

/// Panics where recovery should return an error.
pub fn replay(log: &[u8]) -> u8 {
    log.first().copied().unwrap() ^ log.last().copied().expect("a tail")
}

/// Truncates a byte counter.
pub fn account(total: u64) -> u32 {
    total as u32
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_unwrap() {
        let exempt_in_tests = super::replay(&[1]).checked_add(1).unwrap();
        assert_eq!(exempt_in_tests, 1);
    }
}
