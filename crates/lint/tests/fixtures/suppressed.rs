//! Fixture: every violation here carries a suppression comment, so this
//! file must contribute zero findings.

/// Wall-clock progress reporting, explicitly waived.
pub fn waived() -> u64 {
    // seal-lint: allow(no-wall-clock)
    let t = Instant::now();
    let s = SystemTime::now(); // seal-lint: allow(no-wall-clock)
    // seal-lint: allow(no-ambient-randomness)
    let state = RandomState::new();
    // seal-lint: allow(no-ambient-randomness, error-context)
    let e = (thread_rng(), corruption("waived"));
    drop((t, s, state, e));
    0
}
