//! Pinned chaos repros and schedule-generator coverage regressions.
//!
//! The first two tests pin the **minimized repro** the chaos shrinker
//! produced for the PR 8 retire-before-sync regression (re-injected on
//! demand via `ChaosConfig::buggy_gc`): the exact event core the
//! delta-debugging pass converged on, kept here verbatim so the
//! ordering bug can never quietly come back. The remaining tests gate
//! the schedule generator itself — CI's composed-fault smoke is only as
//! strong as the fault classes the generator keeps emitting.

use seal_chaos::{generate, schedule_fails, ChaosConfig, ChaosEvent};
use std::collections::BTreeSet;

fn buggy_cfg() -> ChaosConfig {
    ChaosConfig {
        groups: 1,
        replicas: 1,
        buggy_gc: true,
        ..ChaosConfig::default()
    }
}

/// The shrinker's minimized output for the re-injected PR 8 bug: three
/// write bursts arm the value log (hot keys need two puts to divert,
/// and sealed segments need dead records worth reclaiming), then one
/// GC drain.
fn minimized_repro() -> Vec<ChaosEvent> {
    use ChaosEvent::*;
    vec![
        WriteBurst { base: 0, count: 60 },
        WriteBurst { base: 0, count: 60 },
        WriteBurst {
            base: 10,
            count: 50,
        },
        GcDrain { group: 0 },
    ]
}

/// The drain through the barrier-free entry point trips the oracle.
/// Only the debug-build `OrderingAuditor` sees the missing barrier
/// (release builds carry the latent bug silently), so this half runs
/// in debug builds only, like the shrinker's own test.
#[test]
#[cfg(debug_assertions)]
fn minimized_retire_before_sync_repro_is_pinned() {
    assert!(
        schedule_fails(&buggy_cfg(), 7, &minimized_repro()),
        "the pinned minimized repro no longer reproduces the retire-before-sync bug"
    );
}

/// The same schedule through the *correct* GC path passes in every
/// profile — the failure above is the ordering bug, not the schedule.
#[test]
fn correct_gc_path_survives_the_pinned_repro() {
    let fixed = ChaosConfig {
        buggy_gc: false,
        ..buggy_cfg()
    };
    assert!(
        !schedule_fails(&fixed, 7, &minimized_repro()),
        "the correct GC path must survive the pinned repro schedule"
    );
}

/// Generated schedules keep spanning the fault classes the CI smoke
/// gates on: at least 4 device classes and all 3 cluster classes
/// across a small fixed seed range. A weight change that silently
/// drops a class from the generator's reach fails here, not in a
/// production incident.
#[test]
fn generator_keeps_covering_the_gated_fault_classes() {
    let cfg = ChaosConfig::default();
    let mut device: BTreeSet<&'static str> = BTreeSet::new();
    let mut cluster: BTreeSet<&'static str> = BTreeSet::new();
    for seed in 0..8u64 {
        for ev in generate(seed, &cfg) {
            if let Some(c) = ev.device_class() {
                device.insert(c.name());
            }
            for c in ev.cluster_classes() {
                cluster.insert(c.name());
            }
        }
    }
    assert!(
        device.len() >= 4,
        "schedules from 8 seeds span only {device:?} device fault classes"
    );
    assert!(
        cluster.len() >= 3,
        "schedules from 8 seeds span only {cluster:?} cluster fault classes"
    );
}

/// Same seed, same config — same schedule. The repro snippets the
/// shrinker emits are only replayable because generation is pure.
#[test]
fn generation_is_deterministic_per_seed() {
    let cfg = ChaosConfig::default();
    assert_eq!(generate(42, &cfg), generate(42, &cfg));
    assert_ne!(generate(42, &cfg), generate(43, &cfg));
}
