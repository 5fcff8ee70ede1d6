//! The composed-fault torture artifact behind `--chaos-out` and
//! `--chaos-check` (`BENCH_pr10.json`).
//!
//! Each cell seeds a [`seal_chaos`] schedule — serving traffic
//! interleaved with device faults (torn writes, corruption, latent
//! sector errors, band failures, fail-slow), cluster faults
//! (partitions, kills, failovers, revives, primary restarts) and
//! maintenance chaos (GC drains, scrub passes, shard migrations) —
//! replays it on a fresh two-group replicated deployment, and records
//! the oracle verdict plus which fault classes were injected.
//!
//! Headline invariants, re-checked by CI:
//!
//! * **Zero oracle violations** — every schedule ends with all acked
//!   writes durable cluster-wide, every promised value served on its
//!   routed group, survivor state hashes agreeing, and scrub
//!   remediation accounting balanced.
//! * **Coverage with teeth** — across the sweep all six device fault
//!   classes and all three cluster fault classes were actually
//!   injected, so a green artifact can never mean the chaos did
//!   nothing.
//!
//! Everything runs on the simulated clock with seeded schedules, so
//! two runs at the same seed produce byte-identical artifacts. CI runs
//! this sweep in the **debug** profile: the ordering auditors'
//! `debug_assert!`s are live, so a violated ack/durability/recycle
//! edge fails the run even if every value still reads back.

use crate::artifact::{self, row, run_cells, Row};
use crate::BenchScale;
use lsm_core::Result;
use seal_chaos::{generate, ChaosConfig, ChaosHarness, Coverage, SplitMix};

/// Schema marker the checker requires at the top of the artifact.
const CHAOS_SCHEMA: &str = "sealdb-chaos-v1";

/// Replication groups per schedule.
const GROUPS: usize = 2;

/// Replicas per group (each group runs `REPLICAS + 1` nodes).
const REPLICAS: usize = 2;

/// Distinct device fault classes a valid artifact must have injected:
/// all of them (20-event schedules never reach a band failure or a
/// latent sector error, so the committed sweep runs 40-event ones).
const MIN_DEVICE_CLASSES: usize = 6;

/// Distinct cluster fault classes a valid artifact must have injected.
const MIN_CLUSTER_CLASSES: usize = 3;

/// Events per generated schedule at this scale.
fn events_per_schedule(scale: &BenchScale) -> usize {
    (scale.ycsb_ops / 25).clamp(12, 40) as usize
}

fn chaos_config(scale: &BenchScale) -> ChaosConfig {
    ChaosConfig {
        groups: GROUPS,
        replicas: REPLICAS,
        events: events_per_schedule(scale),
        sstable_size: scale.sstable,
        disk_capacity: scale.disk_capacity(),
    }
}

/// Runs `schedules` seeded chaos schedules — one oracle verdict per cell,
/// plus the merged fault-class coverage tally — and returns the artifact
/// as JSON.
pub fn chaos_sweep(scale: &BenchScale, schedules: usize) -> Result<String> {
    let cfg = chaos_config(scale);
    // Every seed is drawn before the fan-out and every report is folded
    // after it, in seed order: which thread ran a schedule shows nowhere.
    let mut draw = SplitMix::new(scale.seed ^ 0xC4A0_5EED_0BEA_7E11);
    let seeds: Vec<u64> = (0..schedules).map(|_| draw.next_u64()).collect();
    let reports = run_cells(schedules, |i| {
        let events = generate(seeds[i], &cfg);
        ChaosHarness::new(cfg.clone(), seeds[i])?.run(&events)
    });
    let mut cells = Vec::with_capacity(schedules);
    let mut coverage = Coverage::default();
    let mut violations_total = 0u64;
    for (&seed, report) in seeds.iter().zip(reports) {
        let report = report?;
        for v in &report.violations {
            eprintln!("chaos seed {seed}: {v}");
        }
        coverage.merge(&report.coverage);
        violations_total += report.violations.len() as u64;
        cells.push(row! {
            "seed" => seed,
            "events_applied" => report.events_applied,
            // Skipped as inapplicable.
            "events_skipped" => report.events_skipped,
            "acked_writes" => report.acked_writes,
            // Acked writes lost on every survivor (must be zero).
            "acked_lost" => report.acked_lost,
            // Acked keys a primary misserved but a survivor held.
            "primary_misses" => report.primary_misses,
            "promised_checked" => report.promised_checked,
            // Promised keys unreadable on their routed group (must be zero).
            "promised_lost" => report.promised_lost,
            // Groups with ≥2 undamaged survivors compared for hash agreement.
            "hash_groups_checked" => report.hash_groups_checked,
            "failovers" => report.failovers,
            "scrub_blocks_corrupt" => report.scrub_blocks_corrupt,
            // Corrected + lost + quarantined files/segments.
            "scrub_remediated" => report.scrub_blocks_corrected
                + report.scrub_blocks_lost
                + report.scrub_files_quarantined,
            "violations" => report.violations.len(),
        });
    }
    let classes = |map: &std::collections::BTreeMap<&'static str, u64>| -> Row {
        map.iter().map(|(class, n)| (*class, *n)).collect()
    };
    let doc = row! {
        "schema" => CHAOS_SCHEMA,
        "base_seed" => scale.seed,
        "schedules" => schedules,
        "groups" => GROUPS,
        "replicas" => REPLICAS,
        "events_per_schedule" => events_per_schedule(scale),
        "coverage" => row! {
            "device" => classes(&coverage.device),
            "cluster" => classes(&coverage.cluster),
        },
        "violations_total" => violations_total,
        "cells" => cells,
    };
    Ok(doc.to_json())
}

/// Validates a chaos artifact: schema marker, the declared cell count,
/// no NaN/Inf — and the torture invariants themselves: zero oracle
/// violations anywhere, zero acked/promised loss, real traffic and
/// hash comparisons in every cell, and injected coverage spanning at
/// least `MIN_DEVICE_CLASSES` device and `MIN_CLUSTER_CLASSES`
/// cluster fault classes. Returns the list of problems; empty means
/// valid.
pub fn check_chaos_json(content: &str) -> Vec<String> {
    artifact::check(content, CHAOS_SCHEMA, |doc, problems| {
        doc.u("base_seed")?;
        let declared = doc.u("schedules")?;
        if declared == 0 {
            problems.push("artifact declares zero schedules".to_string());
        }
        let cells = doc.rows("cells")?;
        artifact::expect_count(problems, declared as usize, "cells", cells.len());
        if doc.u("violations_total")? != 0 {
            problems.push("oracle violations recorded: violations_total != 0".to_string());
        }
        let mut acked_total = 0u64;
        for cell in cells {
            let seed = cell.u("seed")?;
            for must_be_zero in ["acked_lost", "promised_lost", "violations"] {
                if cell.u(must_be_zero)? != 0 {
                    problems.push(format!("cell seed {seed}: {must_be_zero} != 0"));
                }
            }
            let acked = cell.u("acked_writes")?;
            if acked == 0 {
                problems.push(format!("cell seed {seed}: served no traffic"));
            }
            acked_total += acked;
            if cell.u("hash_groups_checked")? == 0 {
                problems.push(format!(
                    "cell seed {seed}: no group had two survivors to compare"
                ));
            }
            if cell.u("scrub_remediated")? < cell.u("scrub_blocks_corrupt")? {
                problems.push(format!("cell seed {seed}: scrub accounting leaks"));
            }
        }
        if acked_total == 0 {
            problems.push("sweep served no traffic at all".to_string());
        }
        let coverage = doc.obj("coverage")?;
        let dev = coverage.obj("device")?.pairs().len();
        if dev < MIN_DEVICE_CLASSES {
            problems.push(format!(
                "only {dev} device fault classes injected, need {MIN_DEVICE_CLASSES}"
            ));
        }
        let clu = coverage.obj("cluster")?.pairs().len();
        if clu < MIN_CLUSTER_CLASSES {
            problems.push(format!(
                "only {clu} cluster fault classes injected, need {MIN_CLUSTER_CLASSES}"
            ));
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    const TEST_SCHEDULES: usize = 8;

    fn test_scale() -> BenchScale {
        let mut s = BenchScale::tiny();
        s.load_bytes = 4 << 20;
        // 40-event schedules, as the committed sweep runs: shorter ones
        // never inject every device fault class the checker requires.
        s.ycsb_ops = 1000;
        s
    }

    /// One sweep shared by the read-only tests (each schedule drives
    /// two three-node groups through a generated fault sequence;
    /// running it once keeps the suite fast).
    fn artifact() -> &'static str {
        static ARTIFACT: OnceLock<String> = OnceLock::new();
        ARTIFACT.get_or_init(|| chaos_sweep(&test_scale(), TEST_SCHEDULES).unwrap())
    }

    #[test]
    fn sweep_is_valid_and_deterministic() {
        let a = artifact();
        let b = chaos_sweep(&test_scale(), TEST_SCHEDULES).unwrap();
        assert_eq!(a, &b, "same-seed artifacts must be byte-identical");
        let problems = check_chaos_json(a);
        assert!(problems.is_empty(), "artifact invalid: {problems:?}");
    }

    #[test]
    fn different_seeds_differ_beyond_the_header() {
        let a = artifact();
        let mut other = test_scale();
        other.seed ^= 0xBAD5EED;
        let b = chaos_sweep(&other, TEST_SCHEDULES).unwrap();
        let tail = |s: &str| s[s.find("\"cells\"").unwrap()..].to_string();
        assert_ne!(tail(a), tail(&b), "schedules must follow the seed");
    }

    #[test]
    fn checker_rejects_bad_artifacts() {
        assert!(!check_chaos_json("{}").is_empty());
        let a = artifact();
        // Forge a violation total: the zero-violations gate must trip.
        let forged = a.replacen("\"violations_total\":0", "\"violations_total\":3", 1);
        assert!(check_chaos_json(&forged)
            .iter()
            .any(|p| p.contains("violations_total")));
        // Forge an acked loss into one cell.
        let forged = a.replacen("\"acked_lost\":0", "\"acked_lost\":2", 1);
        assert!(check_chaos_json(&forged)
            .iter()
            .any(|p| p.contains("acked_lost")));
        // Strip the device coverage: the coverage gate must trip.
        let i = a.find("\"device\":{").unwrap();
        let j = i + a[i..].find('}').unwrap() + 1;
        let gutted = format!("{}\"device\":{{}}{}", &a[..i], &a[j..]);
        assert!(check_chaos_json(&gutted)
            .iter()
            .any(|p| p.contains("device fault classes")));
    }
}
