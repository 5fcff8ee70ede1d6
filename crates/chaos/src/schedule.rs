//! Seeded random fault schedules.
//!
//! A schedule is a flat list of [`ChaosEvent`]s: serving traffic,
//! device faults, cluster faults, and maintenance operations (GC,
//! scrub, migration, failover) interleaved in one deterministic
//! sequence. The generator draws events from a seeded [`SplitMix`]
//! stream under a *disruption-credit* rule: at most one outstanding
//! availability-reducing fault per replica group (a killed replica, an
//! open partition, or the dead old primary after a failover), so a
//! quorum-1 cluster can always meet its ack policy and every oracle
//! violation found under chaos is a genuine bug rather than a
//! scheduled outage.
//!
//! Event parameters are abstract (a `pick` index is resolved against
//! the live node set at execution time), which keeps generation purely
//! static: the same `(seed, config)` always yields the same schedule,
//! and a schedule replays identically on a fresh harness — the
//! property the delta-debugging shrinker depends on.

use smr_sim::{ClusterFaultClass, DeviceFaultClass};

use crate::harness::ChaosConfig;

/// SplitMix64 pseudo-random stream. Crate-local on purpose: the
/// schedule stream must not share state with the device-level fault
/// mixer inside `smr-sim`, and the harness itself draws nothing at
/// run time — all randomness lives in the generated schedule.
#[derive(Clone, Debug)]
pub struct SplitMix {
    state: u64,
}

impl SplitMix {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix { state: seed }
    }

    /// The next 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw uniform in `[0, n)`; `n` must be non-zero.
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        self.next_u64() % n
    }
}

/// One step of a chaos schedule.
///
/// The `Debug` rendering of every variant is a valid Rust expression
/// (under `use ChaosEvent::*;`), so a shrunk schedule can be pasted
/// into a regression test verbatim.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChaosEvent {
    /// Serve `count` client operations over key indices starting at
    /// `base` (modulo the harness keyspace), routed across groups by
    /// the hash ring. Every seventh operation is a delete; the rest
    /// are value-log-sized puts.
    WriteBurst {
        /// First key index of the burst.
        base: u32,
        /// Number of operations.
        count: u32,
    },
    /// Arm a torn write on the group's primary, issue one unacked
    /// probe write (which must fail mid-write), then power-cycle the
    /// primary through crash recovery.
    TornWrite {
        /// Target replica group.
        group: usize,
    },
    /// Flip bits in a narrow slice of the primary's largest table and
    /// run a repairing scrub pass — single-bit damage the scrubber
    /// must detect and correct.
    CorruptExtent {
        /// Target replica group.
        group: usize,
    },
    /// Arm `n` transient read errors on the primary (each distinct
    /// offset fails once; retries succeed).
    TransientReads {
        /// Target replica group.
        group: usize,
        /// Number of one-shot read errors.
        n: u64,
    },
    /// Plant a latent sector error inside the primary's largest table,
    /// then scrub: the file is repaired around the bad block or
    /// quarantined, and the damaged node is excluded from the state-
    /// hash agreement check (its replicas still hold everything).
    UnrecoverableRead {
        /// Target replica group.
        group: usize,
    },
    /// Fail the whole band under the primary's largest table, then
    /// scrub-quarantine it — the SMR analogue of losing a shingled
    /// band end to end.
    BandFailure {
        /// Target replica group.
        group: usize,
    },
    /// Reads overlapping the primary's largest table run `mult`×
    /// slower until the epilogue clears fail-slow state. Latency-only.
    FailSlow {
        /// Target replica group.
        group: usize,
        /// Service-time multiplier (≥ 2 to have any effect).
        mult: u64,
    },
    /// Partition one replica off the network for `dur_ns` simulated
    /// nanoseconds. Frames buffer behind the partition and deliver at
    /// heal; the epilogue advances the clock past every heal bound.
    Partition {
        /// Target replica group.
        group: usize,
        /// Abstract node pick, resolved modulo the live non-primary
        /// node set at execution time.
        pick: usize,
        /// Partition duration, simulated ns.
        dur_ns: u64,
    },
    /// Kill one replica (store and in-flight frames gone) until a
    /// [`ChaosEvent::Revive`] rejoins it via catch-up streaming.
    KillReplica {
        /// Target replica group.
        group: usize,
        /// Abstract node pick, resolved against live non-primary nodes.
        pick: usize,
    },
    /// Rejoin every dead node of the group and advance the clock past
    /// any scheduled partition heal bound — full group recovery,
    /// releasing the group's disruption credit.
    Revive {
        /// Target replica group.
        group: usize,
    },
    /// Kill the primary and fail over: detection, fencing, promotion
    /// of the most caught-up replica through crash recovery, client
    /// redirect. The dead old primary holds the disruption credit
    /// until revived.
    Failover {
        /// Target replica group.
        group: usize,
    },
    /// Power-cycle the primary in place through the crash-image
    /// recovery path (WAL replay, torn-tail scan); no failover.
    RestartPrimary {
        /// Target replica group.
        group: usize,
    },
    /// Flush the primary, then run its value-log garbage collector
    /// until idle (budget-capped). Under `buggy_gc` this routes
    /// through the deliberately broken retire-before-sync entry point.
    GcDrain {
        /// Target replica group.
        group: usize,
    },
    /// Run one full repairing scrub pass over the primary's tables
    /// and value-log segments.
    ScrubPass {
        /// Target replica group.
        group: usize,
    },
    /// Run the shard cluster's real band-granular migration: split
    /// group `from` onto a freshly built extra group, or — if the last
    /// migration left an extra group live — merge that group away
    /// again. Must be loss-free even while another group is killed or
    /// partitioned; skipped while `from`'s primary carries device damage
    /// (a migration reads its movers back from the source primary).
    Migrate {
        /// Group to split (modulo the group count); ignored by a merge.
        from: usize,
    },
}

impl ChaosEvent {
    /// The device fault class this event injects, if any.
    pub fn device_class(&self) -> Option<DeviceFaultClass> {
        match self {
            ChaosEvent::TornWrite { .. } => Some(DeviceFaultClass::TornWrite),
            ChaosEvent::CorruptExtent { .. } => Some(DeviceFaultClass::Corruption),
            ChaosEvent::TransientReads { .. } => Some(DeviceFaultClass::TransientRead),
            ChaosEvent::UnrecoverableRead { .. } => Some(DeviceFaultClass::UnrecoverableRead),
            ChaosEvent::BandFailure { .. } => Some(DeviceFaultClass::BandFailure),
            ChaosEvent::FailSlow { .. } => Some(DeviceFaultClass::FailSlow),
            _ => None,
        }
    }

    /// The cluster fault classes this event exercises. A failover
    /// counts as a kill (of the primary); a revive counts once even
    /// if it rejoins several nodes.
    pub fn cluster_classes(&self) -> &'static [ClusterFaultClass] {
        match self {
            ChaosEvent::Partition { .. } => &[ClusterFaultClass::Partition],
            ChaosEvent::KillReplica { .. } | ChaosEvent::Failover { .. } => {
                &[ClusterFaultClass::Kill]
            }
            ChaosEvent::Revive { .. } => &[ClusterFaultClass::Revive],
            _ => &[],
        }
    }
}

/// Generates a `cfg.events`-step schedule from `seed`.
///
/// The stream opens with a write burst (faults need state to chew on)
/// and then draws weighted events. Availability-reducing faults
/// (partition, kill, failover) are emitted only while the target
/// group's disruption credit is free; while a group is disrupted the
/// same draws turn into [`ChaosEvent::Revive`], which releases the
/// credit. Device faults target primaries only — replicas must stay
/// pristine so the oracle's survivor checks have a ground truth.
pub fn generate(seed: u64, cfg: &ChaosConfig) -> Vec<ChaosEvent> {
    assert!(cfg.groups >= 1, "a chaos run needs at least one group");
    let mut rng = SplitMix::new(seed ^ 0xC4A0_5C4E_D01E_5EED);
    let mut disrupted = vec![false; cfg.groups];
    let mut out = Vec::with_capacity(cfg.events);
    out.push(ChaosEvent::WriteBurst { base: 0, count: 48 });
    while out.len() < cfg.events {
        let g = rng.below(cfg.groups as u64) as usize;
        let roll = rng.below(100);
        let ev = match roll {
            0..=34 => ChaosEvent::WriteBurst {
                base: rng.below(u64::from(crate::harness::KEYSPACE)) as u32,
                count: 8 + rng.below(17) as u32,
            },
            35..=39 => ChaosEvent::TornWrite { group: g },
            40..=44 => ChaosEvent::CorruptExtent { group: g },
            45..=49 => ChaosEvent::TransientReads {
                group: g,
                n: 1 + rng.below(3),
            },
            50..=53 => ChaosEvent::UnrecoverableRead { group: g },
            54..=57 => ChaosEvent::BandFailure { group: g },
            58..=61 => ChaosEvent::FailSlow {
                group: g,
                mult: 2 + rng.below(5),
            },
            62..=67 => {
                let pick = rng.below(8) as usize;
                let dur_ns = 2_000_000 + rng.below(48) * 1_000_000;
                if disrupted[g] {
                    ChaosEvent::Revive { group: g }
                } else {
                    disrupted[g] = true;
                    ChaosEvent::Partition {
                        group: g,
                        pick,
                        dur_ns,
                    }
                }
            }
            68..=73 => {
                let pick = rng.below(8) as usize;
                if disrupted[g] {
                    ChaosEvent::Revive { group: g }
                } else {
                    disrupted[g] = true;
                    ChaosEvent::KillReplica { group: g, pick }
                }
            }
            74..=78 => {
                if disrupted[g] {
                    ChaosEvent::Revive { group: g }
                } else {
                    disrupted[g] = true;
                    ChaosEvent::Failover { group: g }
                }
            }
            79..=83 => {
                if disrupted[g] {
                    ChaosEvent::Revive { group: g }
                } else {
                    ChaosEvent::WriteBurst {
                        base: rng.below(u64::from(crate::harness::KEYSPACE)) as u32,
                        count: 8 + rng.below(9) as u32,
                    }
                }
            }
            84..=87 => ChaosEvent::RestartPrimary { group: g },
            88..=91 => ChaosEvent::GcDrain { group: g },
            92..=95 => ChaosEvent::ScrubPass { group: g },
            _ => {
                if cfg.groups > 1 {
                    ChaosEvent::Migrate { from: g }
                } else {
                    ChaosEvent::GcDrain { group: g }
                }
            }
        };
        if matches!(ev, ChaosEvent::Revive { .. }) {
            disrupted[g] = false;
        }
        out.push(ev);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn generation_is_deterministic() {
        let cfg = ChaosConfig::default();
        assert_eq!(generate(42, &cfg), generate(42, &cfg));
        assert_ne!(generate(42, &cfg), generate(43, &cfg));
    }

    #[test]
    fn credit_rule_never_stacks_disruptions() {
        // Replay the generator's bookkeeping from the emitted events:
        // a second availability-reducing fault must never hit a group
        // before a Revive released the first.
        let cfg = ChaosConfig {
            events: 400,
            ..ChaosConfig::default()
        };
        for seed in 0..8u64 {
            let mut open = vec![false; cfg.groups];
            for ev in generate(seed, &cfg) {
                match ev {
                    ChaosEvent::Partition { group, .. }
                    | ChaosEvent::KillReplica { group, .. }
                    | ChaosEvent::Failover { group } => {
                        assert!(!open[group], "seed {seed}: stacked disruption on {group}");
                        open[group] = true;
                    }
                    ChaosEvent::Revive { group } => {
                        assert!(open[group], "seed {seed}: revive without disruption");
                        open[group] = false;
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn twenty_five_seeds_cover_every_fault_class() {
        // The CI smoke gate needs ≥4 device and ≥3 cluster fault
        // classes across its 25 schedules; the generator actually
        // reaches all 6 and all 3.
        let cfg = ChaosConfig::default();
        let mut device: BTreeSet<&'static str> = BTreeSet::new();
        let mut cluster: BTreeSet<&'static str> = BTreeSet::new();
        for seed in 0..25u64 {
            for ev in generate(seed, &cfg) {
                if let Some(c) = ev.device_class() {
                    device.insert(c.name());
                }
                for c in ev.cluster_classes() {
                    cluster.insert(c.name());
                }
            }
        }
        assert_eq!(device.len(), smr_sim::DeviceFaultClass::ALL.len());
        assert_eq!(cluster.len(), smr_sim::ClusterFaultClass::ALL.len());
    }
}
