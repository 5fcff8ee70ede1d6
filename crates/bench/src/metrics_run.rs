//! The observability trajectory artifact behind `--metrics-out` and
//! `--metrics-check` (`BENCH_pr2.json`).
//!
//! A fixed workload — random load, random point reads, one scan — drives
//! each of the three main stores; every store then exports its full
//! metrics snapshot (counters, gauges, latency histograms, trace tail).
//! Everything runs on the simulated clock with seeded randomness, so two
//! runs at the same seed produce byte-identical artifacts; CI checks the
//! schema and rejects any NaN/Inf leak.

use crate::artifact::{self, row, Row};
use crate::BenchScale;
use lsm_core::{Error, Result};
use sealdb::StoreKind;

/// Schema marker the checker requires at the top of the artifact.
pub const METRICS_SCHEMA: &str = "sealdb-metrics-v1";

/// Trace events inlined per store (the ring itself retains more).
const TRACE_TAIL: usize = 64;

/// Metric keys that must appear once per store in a valid artifact.
const REQUIRED_KEYS: [&str; 9] = [
    "\"store.write_ns\"",
    "\"store.get_ns\"",
    "\"store.scan_ns\"",
    "\"store.wa\"",
    "\"store.awa\"",
    "\"store.mwa\"",
    "\"cache.block_hit_ratio\"",
    "\"lsm.flush_bytes\"",
    "\"device.write_ns\"",
];

/// Runs the trajectory over [`StoreKind::MAIN`] and returns the artifact
/// as a JSON string.
pub fn metrics_trajectory(scale: &BenchScale) -> Result<String> {
    let gen = scale.generator();
    let records = scale.load_records().max(1);
    let stores = crate::per_store_parallel(&StoreKind::MAIN, |kind| -> Result<Row> {
        let mut store = crate::build_store(kind, scale)?;
        workloads::fill_random(&mut store, &gen, records, scale.seed)?;
        workloads::read_random(
            &mut store,
            &gen,
            records,
            scale.read_ops.min(records),
            scale.seed ^ 0x9E37_79B9,
        )?;
        store.scan(&gen.key(0), 64)?;
        // The snapshot serialises itself; reading it back as rows puts
        // its bytes under the one writer and its shape under the reader.
        let snapshot = store.metrics_snapshot().to_json(TRACE_TAIL) + "\n";
        artifact::parse(&snapshot)
            .map_err(|e| Error::Corruption(format!("{} metrics snapshot: {e}", kind.name())))
    });
    let doc = row! {
        "schema" => METRICS_SCHEMA,
        "seed" => scale.seed,
        "sstable" => scale.sstable,
        "records" => records,
        "stores" => stores.into_iter().collect::<Result<Vec<Row>>>()?,
    };
    Ok(doc.to_json())
}

/// Validates a metrics artifact: schema marker, one snapshot per main
/// store, every required metric key present per store, and no NaN/Inf
/// anywhere. Returns the list of problems; empty means valid.
pub fn check_metrics_json(content: &str) -> Vec<String> {
    artifact::check(content, METRICS_SCHEMA, |doc, problems| {
        doc.u("seed")?;
        let stores = doc.rows("stores")?.len();
        let expected = StoreKind::MAIN.len();
        artifact::expect_count(problems, expected, "store snapshots", stores);
        for key in REQUIRED_KEYS {
            let n = content.matches(key).count();
            if n != expected {
                problems.push(format!("key {key} appears {n} times, expected {expected}"));
            }
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_scale() -> BenchScale {
        let mut s = BenchScale::tiny();
        // Small but still clear of the 16 MiB log zone (capacity = 10x).
        s.load_bytes = 4 << 20;
        s.read_ops = 200;
        s
    }

    #[test]
    fn trajectory_is_valid_and_deterministic() {
        let scale = test_scale();
        let a = metrics_trajectory(&scale).unwrap();
        let b = metrics_trajectory(&scale).unwrap();
        assert_eq!(a, b, "same-seed artifacts must be byte-identical");
        let problems = check_metrics_json(&a);
        assert!(problems.is_empty(), "artifact invalid: {problems:?}");
        assert!(a.contains("\"store\":\"SEALDB\""));
        assert!(a.contains("\"store\":\"SMRDB\""));
        assert!(a.contains("\"store\":\"LevelDB\""));
    }

    #[test]
    fn different_seeds_differ() {
        let scale = test_scale();
        let mut other = test_scale();
        other.seed ^= 1;
        let a = metrics_trajectory(&scale).unwrap();
        let b = metrics_trajectory(&other).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn checker_rejects_missing_keys_and_nan() {
        assert!(!check_metrics_json("{}").is_empty());
        let mut doc = format!("{{\"schema\":\"{METRICS_SCHEMA}\",\"seed\":1,\"stores\":[]}}\n");
        assert!(check_metrics_json(&doc)
            .iter()
            .any(|p| p.contains("store snapshots")));
        doc = doc.replace("\"seed\":1", "\"seed\":NaN");
        assert!(check_metrics_json(&doc)
            .iter()
            .any(|p| p.contains("non-finite")));
    }
}
