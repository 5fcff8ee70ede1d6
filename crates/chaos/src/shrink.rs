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
//! sweep. Every candidate is judged by the failure predicate it is
//! given, so the reduction is exactly as deterministic as that
//! predicate (`schedule_fails` is), and `snippet` renders the result
//! ready to paste into a regression test. To minimize a new failure,
//! call `shrink` with `schedule_fails` from a test in that module.

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

    /// Minimizes a schedule `fails` rejects with ddmin plus a
    /// 1-minimal polish; the result still fails. For a real chaos
    /// failure pass `|events| schedule_fails(&cfg, seed, events)`, with
    /// the panic hook silenced if its candidates can panic (each probe
    /// would print a backtrace otherwise). Panics if `events` does not
    /// fail to begin with — shrinking a passing schedule is always a
    /// caller bug.
    fn shrink(
        events: &[ChaosEvent],
        mut fails: impl FnMut(&[ChaosEvent]) -> bool,
    ) -> Vec<ChaosEvent> {
        assert!(fails(events), "shrink() requires a failing schedule");
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
                if !cand.is_empty() && fails(&cand) {
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
                if cand.len() < current.len() && fails(&cand) {
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
                if fails(&cand) {
                    current = cand;
                    polished = true;
                    break;
                }
            }
        }
        current
    }

    /// A synthetic failure: the schedule fails once a GC drain follows
    /// two full-keyspace write bursts — the shape of the value-log
    /// ordering repros — judged without running a store, so the test
    /// pins what ddmin does, not what the harness finds.
    fn drain_after_two_full_bursts(events: &[ChaosEvent]) -> bool {
        let mut bursts = 0;
        events.iter().any(|e| match e {
            WriteBurst { base: 0, count: 60 } => {
                bursts += 1;
                false
            }
            GcDrain { .. } => bursts >= 2,
            _ => false,
        })
    }

    /// The three events [`drain_after_two_full_bursts`] needs.
    fn core() -> Vec<ChaosEvent> {
        vec![
            WriteBurst { base: 0, count: 60 },
            WriteBurst { base: 0, count: 60 },
            GcDrain { group: 0 },
        ]
    }

    /// [`core`] buried in unrelated noise: scrubs, transient reads,
    /// fail-slow, and write bursts that do not count.
    fn noisy_schedule() -> Vec<ChaosEvent> {
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
    fn shrinks_a_noisy_failure_to_exactly_its_core() {
        let repro = shrink(&noisy_schedule(), drain_after_two_full_bursts);
        assert_eq!(repro, core());
        assert!(snippet(&repro).contains("GcDrain { group: 0 }"));
        // Shrinking is deterministic: a second reduction of the same
        // input lands on the same core.
        assert_eq!(
            shrink(&noisy_schedule(), drain_after_two_full_bursts),
            repro
        );
        // 1-minimality: removing any single surviving event yields a
        // passing schedule.
        for i in 0..repro.len() {
            let mut cand = repro.clone();
            cand.remove(i);
            assert!(
                !drain_after_two_full_bursts(&cand),
                "dropping event {i} should make the schedule pass: {cand:?}"
            );
        }
    }

    #[test]
    fn shrink_is_a_noop_on_an_already_minimal_failure() {
        assert_eq!(shrink(&core(), drain_after_two_full_bursts), core());
    }

    #[test]
    #[should_panic(expected = "requires a failing schedule")]
    fn shrink_refuses_a_passing_schedule() {
        shrink(&core()[1..], drain_after_two_full_bursts);
    }

    /// The noisy schedule drives real GC drains and scrubs over a real
    /// group, and the harness's oracle passes it.
    #[test]
    fn the_noisy_schedule_passes_the_real_harness() {
        let cfg = ChaosConfig {
            groups: 1,
            replicas: 1,
            ..ChaosConfig::default()
        };
        assert!(
            !schedule_fails(&cfg, 7, &noisy_schedule()),
            "the GC path must survive the noisy schedule"
        );
    }
}
