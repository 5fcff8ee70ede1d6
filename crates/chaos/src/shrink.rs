//! Deterministic replay and delta-debugging reduction of failing chaos
//! schedules.
//!
//! [`schedule_fails`] replays a schedule on a **fresh** harness with a
//! given `(config, seed)` — the judge every pinned regression in
//! `tests/chaos_regressions.rs` (at the workspace root) runs through.
//!
//! When a schedule trips the oracle (or panics an ordering audit), the
//! interesting question is *which handful of its events actually
//! matter*. The test module's `shrink` answers it with classic ddmin:
//! partition the schedule into chunks, try dropping each chunk and each
//! chunk's complement, keep any reduction that still fails, double
//! granularity when stuck — then polish with a 1-minimal single-removal
//! sweep. Every candidate is judged by `schedule_fails`, so the
//! reduction is exactly as deterministic as the harness itself, and
//! `snippet` renders the result ready to paste into a regression test.
//! To minimize a new failure, call `shrink` from a test in that module.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::harness::{ChaosConfig, ChaosHarness};
use crate::schedule::ChaosEvent;

/// Replays `events` on a fresh harness and reports whether the run
/// fails: an oracle violation, a harness error, or a panic (debug
/// ordering audits fail by panicking). Deterministic for fixed inputs.
pub fn schedule_fails(cfg: &ChaosConfig, seed: u64, events: &[ChaosEvent]) -> bool {
    let cfg = cfg.clone();
    let events = events.to_vec();
    let outcome = catch_unwind(AssertUnwindSafe(move || {
        let mut h = match ChaosHarness::new(cfg, seed) {
            Ok(h) => h,
            Err(_) => return true,
        };
        match h.run(&events) {
            Ok(report) => !report.violations.is_empty(),
            Err(_) => true,
        }
    }));
    outcome.unwrap_or(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ChaosEvent::*;

    /// Renders a schedule as a Rust `vec![..]` snippet for pinning in a
    /// regression test. `ChaosEvent`'s derived `Debug` output is valid
    /// Rust under `use seal_chaos::ChaosEvent::*;`.
    fn snippet(events: &[ChaosEvent]) -> String {
        let mut s = String::from("use seal_chaos::ChaosEvent::*;\nlet events = vec![\n");
        for ev in events {
            s.push_str(&format!("    {ev:?},\n"));
        }
        s.push_str("];\n");
        s
    }

    /// Runs `f` with the panic hook silenced, restoring the previous hook
    /// afterwards. The shrinker replays panicking candidates dozens of
    /// times; without this every probe would spray a backtrace.
    fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(prev);
        out
    }

    /// Minimizes a failing schedule with ddmin plus a 1-minimal polish;
    /// the result reproduces under the same `cfg` and `seed`. Panics if
    /// `events` does not fail to begin with — shrinking a passing
    /// schedule is always a caller bug.
    fn shrink(cfg: &ChaosConfig, seed: u64, events: &[ChaosEvent]) -> Vec<ChaosEvent> {
        with_quiet_panics(|| {
            assert!(
                schedule_fails(cfg, seed, events),
                "shrink() requires a failing schedule"
            );
            let mut current = events.to_vec();
            let mut chunks = 2usize;
            while current.len() >= 2 {
                let len = current.len();
                let n = chunks.min(len);
                let mut reduced = false;
                // Chunk boundaries: n near-equal slices of `current`.
                let bounds: Vec<(usize, usize)> =
                    (0..n).map(|i| (i * len / n, (i + 1) * len / n)).collect();
                // Try each complement (drop one chunk), then each chunk
                // alone. Complements first keeps reductions large.
                for &(lo, hi) in &bounds {
                    let mut cand = Vec::with_capacity(len - (hi - lo));
                    cand.extend_from_slice(&current[..lo]);
                    cand.extend_from_slice(&current[hi..]);
                    if !cand.is_empty() && schedule_fails(cfg, seed, &cand) {
                        current = cand;
                        chunks = (chunks - 1).max(2);
                        reduced = true;
                        break;
                    }
                }
                if reduced {
                    continue;
                }
                for &(lo, hi) in &bounds {
                    let cand = current[lo..hi].to_vec();
                    if cand.len() < current.len() && schedule_fails(cfg, seed, &cand) {
                        current = cand;
                        chunks = 2;
                        reduced = true;
                        break;
                    }
                }
                if reduced {
                    continue;
                }
                if chunks >= current.len() {
                    break;
                }
                chunks = (chunks * 2).min(current.len());
            }
            // 1-minimal polish: drop single events until no single removal
            // still fails.
            let mut polished = true;
            while polished && current.len() > 1 {
                polished = false;
                for i in 0..current.len() {
                    let mut cand = current.clone();
                    cand.remove(i);
                    if schedule_fails(cfg, seed, &cand) {
                        current = cand;
                        polished = true;
                        break;
                    }
                }
            }
            current
        })
    }

    fn buggy_cfg() -> ChaosConfig {
        ChaosConfig {
            groups: 1,
            replicas: 1,
            buggy_gc: true,
            ..ChaosConfig::default()
        }
    }

    /// The noisy schedule the shrinker demo starts from: the four
    /// events that actually matter (two full-keyspace rounds make the
    /// keys hot, a churn round kills round-2 versions inside a sealed
    /// hot segment, the drain relocates the survivors and recycles
    /// before their fixups are durable) buried in unrelated noise.
    fn noisy_schedule() -> Vec<crate::schedule::ChaosEvent> {
        vec![
            WriteBurst { base: 0, count: 60 },
            ScrubPass { group: 0 },
            WriteBurst { base: 0, count: 60 },
            TransientReads { group: 0, n: 2 },
            WriteBurst {
                base: 10,
                count: 50,
            },
            FailSlow { group: 0, mult: 3 },
            ScrubPass { group: 0 },
            GcDrain { group: 0 },
            WriteBurst {
                base: 64,
                count: 12,
            },
        ]
    }

    #[test]
    #[cfg(debug_assertions)]
    fn shrinks_the_reinjected_gc_ordering_bug_to_its_core() {
        let cfg = buggy_cfg();
        assert!(
            schedule_fails(&cfg, 7, &noisy_schedule()),
            "the noisy buggy-GC schedule must fail under ordering audits"
        );
        let repro = with_quiet_panics(|| shrink(&cfg, 7, &noisy_schedule()));
        assert!(
            repro.len() <= 5,
            "expected a ≤5-event core, got {:?}",
            repro
        );
        assert!(
            schedule_fails(&cfg, 7, &repro),
            "the minimized schedule must still fail"
        );
        assert!(
            repro.iter().any(|e| matches!(e, GcDrain { .. })),
            "the GC drain must survive shrinking: {:?}",
            repro
        );
        assert!(snippet(&repro).contains("GcDrain"));
        // Shrinking is deterministic: a second reduction of the same
        // input lands on the same core.
        let again = with_quiet_panics(|| shrink(&cfg, 7, &noisy_schedule()));
        assert_eq!(repro, again);
        // 1-minimality: removing any single surviving event yields a
        // passing schedule.
        for i in 0..repro.len() {
            let mut cand = repro.clone();
            cand.remove(i);
            assert!(
                !schedule_fails(&cfg, 7, &cand),
                "dropping event {i} should make the schedule pass: {cand:?}"
            );
        }
    }

    #[test]
    fn correct_gc_passes_the_same_schedule() {
        let cfg = ChaosConfig {
            buggy_gc: false,
            ..buggy_cfg()
        };
        assert!(
            !schedule_fails(&cfg, 7, &noisy_schedule()),
            "the same schedule must pass once GC syncs before recycling"
        );
    }

    #[test]
    fn shrink_is_a_noop_on_an_already_minimal_failure() {
        // A schedule that fails because of a single impossible
        // expectation is already 1-minimal modulo the traffic that
        // arms it.
        let cfg = buggy_cfg();
        let core = vec![
            WriteBurst { base: 0, count: 60 },
            WriteBurst { base: 0, count: 60 },
            WriteBurst {
                base: 10,
                count: 50,
            },
            GcDrain { group: 0 },
        ];
        if !schedule_fails(&cfg, 7, &core) {
            // The harness evolved; the outer demo test will catch it.
            return;
        }
        let repro = with_quiet_panics(|| shrink(&cfg, 7, &core));
        assert!(repro.len() <= core.len());
        assert!(schedule_fails(&cfg, 7, &repro));
    }
}
