//! Pinned chaos repros and schedule-generator coverage regressions.
//!
//! The first test pins the **minimized repro** the chaos shrinker
//! produced for the value-log retire-before-sync ordering bug: the
//! exact event core the delta-debugging pass converged on, kept here
//! verbatim as a schedule the GC path must keep surviving. (The proof
//! that the debug-build ordering auditor still watches that path is a
//! unit test in `sealdb`'s store module that drives GC without its
//! barrier.) The second pins the five schedules that lost acked writes
//! because a scrub rebuild of a level-0 table shadowed the newer
//! level-0 tables. The remaining tests gate the schedule generator itself —
//! CI's composed-fault smoke is only as strong as the fault classes the
//! generator keeps emitting.

use seal_chaos::{generate, schedule_fails, ChaosConfig, ChaosEvent};
use std::collections::BTreeSet;

/// The shrinker's minimized output for the retire-before-sync bug:
/// three write bursts arm the value log (hot keys need two puts to
/// divert, and sealed segments need dead records worth reclaiming),
/// then one GC drain.
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

/// The pinned schedule through the GC path passes in every profile.
#[test]
fn correct_gc_path_survives_the_pinned_repro() {
    let cfg = ChaosConfig {
        groups: 1,
        replicas: 1,
        ..ChaosConfig::default()
    };
    assert!(
        !schedule_fails(&cfg, 7, &minimized_repro()),
        "the correct GC path must survive the pinned repro schedule"
    );
}

/// The shrunk cores of the five schedules (of 300 × 40 events, seeds
/// drawn by the `--tiny --ycsb-ops 1000` chaos sweep) that lost acked
/// writes when a scrub rebuild gave an older level-0 table a fresh,
/// largest file id: gets then read the rebuilt table first, and value-log
/// GC shipped the stale pointer it returned to every replica. Each holds
/// a `CorruptExtent` and then a `GcDrain` on the same group.
fn level0_rebuild_repros() -> Vec<(u64, Vec<ChaosEvent>)> {
    use ChaosEvent::*;
    vec![
        (
            4479562986975693715,
            vec![
                WriteBurst { base: 0, count: 48 },
                WriteBurst {
                    base: 42,
                    count: 10,
                },
                WriteBurst {
                    base: 63,
                    count: 15,
                },
                WriteBurst {
                    base: 93,
                    count: 16,
                },
                CorruptExtent { group: 0 },
                WriteBurst {
                    base: 102,
                    count: 12,
                },
                WriteBurst { base: 3, count: 16 },
                RestartPrimary { group: 0 },
                WriteBurst {
                    base: 40,
                    count: 16,
                },
                WriteBurst {
                    base: 31,
                    count: 24,
                },
                CorruptExtent { group: 0 },
                GcDrain { group: 0 },
            ],
        ),
        (
            16980263756431448513,
            vec![
                WriteBurst { base: 4, count: 18 },
                UnrecoverableRead { group: 1 },
                WriteBurst {
                    base: 15,
                    count: 10,
                },
                CorruptExtent { group: 1 },
                TornWrite { group: 1 },
                WriteBurst {
                    base: 126,
                    count: 18,
                },
                GcDrain { group: 1 },
            ],
        ),
        (
            12582499441872501150,
            vec![
                WriteBurst { base: 0, count: 48 },
                WriteBurst { base: 1, count: 24 },
                WriteBurst {
                    base: 43,
                    count: 24,
                },
                CorruptExtent { group: 0 },
                WriteBurst { base: 5, count: 15 },
                WriteBurst {
                    base: 37,
                    count: 18,
                },
                CorruptExtent { group: 0 },
                WriteBurst {
                    base: 34,
                    count: 22,
                },
                RestartPrimary { group: 0 },
                WriteBurst {
                    base: 55,
                    count: 13,
                },
                GcDrain { group: 0 },
            ],
        ),
        (
            5904332402497800971,
            vec![
                WriteBurst { base: 0, count: 48 },
                WriteBurst {
                    base: 35,
                    count: 22,
                },
                CorruptExtent { group: 0 },
                WriteBurst {
                    base: 121,
                    count: 24,
                },
                WriteBurst { base: 4, count: 18 },
                CorruptExtent { group: 0 },
                WriteBurst { base: 43, count: 9 },
                RestartPrimary { group: 0 },
                WriteBurst {
                    base: 20,
                    count: 11,
                },
                WriteBurst {
                    base: 80,
                    count: 10,
                },
                WriteBurst { base: 93, count: 8 },
                GcDrain { group: 0 },
            ],
        ),
        (
            12188809602253067844,
            vec![
                WriteBurst { base: 0, count: 48 },
                WriteBurst { base: 32, count: 9 },
                WriteBurst { base: 3, count: 18 },
                TornWrite { group: 0 },
                WriteBurst {
                    base: 122,
                    count: 14,
                },
                WriteBurst {
                    base: 126,
                    count: 23,
                },
                WriteBurst {
                    base: 35,
                    count: 22,
                },
                GcDrain { group: 1 },
                WriteBurst {
                    base: 34,
                    count: 16,
                },
                RestartPrimary { group: 1 },
                WriteBurst {
                    base: 74,
                    count: 22,
                },
                WriteBurst {
                    base: 124,
                    count: 17,
                },
                WriteBurst { base: 69, count: 9 },
                WriteBurst {
                    base: 24,
                    count: 20,
                },
                CorruptExtent { group: 1 },
                GcDrain { group: 1 },
            ],
        ),
    ]
}

/// The five level-0 rebuild repros pass, under the config the chaos
/// sweep runs them with: 2 groups of 3 nodes, 64 KiB tables, 80 MiB
/// drives.
#[test]
fn level0_rebuild_repros_lose_no_acked_write() {
    let cfg = sweep_config();
    for (seed, events) in level0_rebuild_repros() {
        assert!(
            !schedule_fails(&cfg, seed, &events),
            "seed {seed}: the pinned level-0 rebuild repro fails"
        );
    }
}

/// The shrunk schedule that loses acked writes when a primary with a
/// dropped table runs shipping GC: the band failure makes scrub drop a
/// table, which resurrects the older versions it shadowed, GC finds
/// their pointers live and ships the stale values to every replica.
/// `Cluster::vlog_gc_step` refuses GC on such a primary until hole
/// records replace that guard; this schedule fails without it.
fn dropped_table_repro() -> Vec<ChaosEvent> {
    use ChaosEvent::*;
    vec![
        WriteBurst {
            base: 101,
            count: 17,
        },
        CorruptExtent { group: 1 },
        WriteBurst {
            base: 11,
            count: 15,
        },
        WriteBurst {
            base: 81,
            count: 16,
        },
        WriteBurst {
            base: 25,
            count: 20,
        },
        WriteBurst {
            base: 124,
            count: 16,
        },
        WriteBurst {
            base: 121,
            count: 12,
        },
        WriteBurst {
            base: 102,
            count: 22,
        },
        WriteBurst {
            base: 110,
            count: 23,
        },
        WriteBurst {
            base: 120,
            count: 12,
        },
        Migrate { from: 1 },
        RestartPrimary { group: 1 },
        WriteBurst {
            base: 97,
            count: 15,
        },
        Migrate { from: 0 },
        WriteBurst {
            base: 16,
            count: 21,
        },
        WriteBurst { base: 4, count: 18 },
        WriteBurst {
            base: 39,
            count: 19,
        },
        WriteBurst { base: 7, count: 19 },
        BandFailure { group: 1 },
        GcDrain { group: 1 },
    ]
}

/// The sweep's config (see [`level0_rebuild_repros`]).
fn sweep_config() -> ChaosConfig {
    ChaosConfig {
        groups: 2,
        replicas: 2,
        events: 40,
        sstable_size: 64 << 10,
        disk_capacity: 80 << 20,
    }
}

/// The dropped-table repro passes while the ship guard stands.
#[test]
fn dropped_table_repro_ships_no_stale_value() {
    assert!(
        !schedule_fails(&sweep_config(), 7096230870262212339, &dropped_table_repro()),
        "a primary with a dropped table shipped GC"
    );
}

/// Generated schedules keep spanning the fault classes the CI smoke
/// gates on: all 6 device classes and all 3 cluster classes
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
        device.len() >= 6,
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
