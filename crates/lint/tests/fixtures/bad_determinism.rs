//! Fixture: determinism violations. Never compiled — consumed as lexer
//! input by the golden test.

fn timing() -> u64 {
    let t = Instant::now();
    let s = SystemTime::now();
    drop((t, s));
    0
}

fn randomness() {
    let mut rng = thread_rng();
    let state = RandomState::new();
    let seeded = SmallRng::from_entropy();
    drop((rng, state, seeded));
}
