//! The multi-shard scale-out artifact behind `--shard-out` and
//! `--shard-check` (`BENCH_pr7.json`).
//!
//! One cell per shard count: a cluster of N shards is preloaded through
//! the consistent-hash router, then a closed-loop run at 10× the
//! canonical serving operation count measures aggregate saturation
//! throughput. One SMR drive bounds one shard, so saturation must rise
//! strictly with the shard count — that monotonicity, the bounded key
//! placement imbalance of the router, and the zero-acked-key-loss audit
//! of a mid-run split migration are the gates [`check_shard_json`]
//! enforces. Cells run one per OS thread (each
//! cluster owns its own simulated disks) and everything rides the
//! simulated clock: two same-seed sweeps serialize byte-identically.

use crate::artifact::{self, row, run_cells, Row, Val::F};
use crate::BenchScale;
use lsm_core::Result;
use seal_front::ServeConfig;
use seal_shard::{imbalance, serve, ShardCluster, ShardConfig};
use workloads::{ArrivalProcess, WorkloadSpec};

/// Schema marker the checker requires at the top of the artifact.
const SHARD_SCHEMA: &str = "sealdb-shard-v1";

/// Virtual clients per cluster run (cluster-wide, not per shard).
pub(crate) const CLIENTS: usize = 16;

/// Shard counts swept, ascending; saturation must rise strictly.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Scale-out factor over the canonical serving operation count.
const OPS_SCALE: u64 = 10;

fn cluster_at(shards: usize, scale: &BenchScale) -> Result<ShardCluster> {
    let cfg = ShardConfig::new(shards, scale.sstable, scale.disk_capacity()).with_seed(scale.seed);
    ShardCluster::new(cfg)
}

fn serve_cfg(scale: &BenchScale, ops: u64, records: u64) -> ServeConfig {
    ServeConfig::new(
        WorkloadSpec::serve_mix(),
        ArrivalProcess::ClosedLoop { think_ns: 0 },
        CLIENTS,
        ops,
        records,
    )
    .with_seed(scale.seed)
}

/// Total operations of one cell at this scale (10× the canonical
/// serving count, floored at one per client).
fn cell_ops(scale: &BenchScale) -> u64 {
    (scale.ycsb_ops * OPS_SCALE).max(CLIENTS as u64)
}

/// Per-shard state fingerprints, ascending shard index, as fixed-width
/// hex strings.
fn hashes(cluster: &mut ShardCluster) -> Result<Vec<String>> {
    let hashes = cluster.state_hashes()?;
    Ok(hashes.iter().map(|h| format!("{h:016x}")).collect())
}

/// One shard count's saturation cell.
fn run_cell(shards: usize, scale: &BenchScale) -> Result<Row> {
    let gen = scale.generator();
    let records = scale.load_records().max(1);
    let mut cluster = cluster_at(shards, scale)?;
    let placed = cluster.load(&gen, records)?;
    let r = serve(
        &mut cluster,
        &gen,
        &serve_cfg(scale, cell_ops(scale), records),
    )?;
    let (key_imbalance, ops_imbalance) = (imbalance(&placed), r.ops_imbalance());
    Ok(row! {
        "shards" => shards,
        // Aggregate closed-loop saturation, ops per simulated second.
        "saturation_ops_per_sec" => F(r.serve.throughput_ops_per_sec, 3),
        "p50_ns" => r.serve.latency.p50_ns,
        "p99_ns" => r.serve.latency.p99_ns,
        "max_ns" => r.serve.latency.max_ns,
        "write_calls" => r.serve.write_calls,
        "write_ops" => r.serve.write_ops,
        "max_group_wire" => r.serve.max_group_wire,
        // Deepest per-shard queue at any service start.
        "queue_depth_max" => r.serve.queue_depth_max,
        "per_shard_ops" => r.per_shard_ops,
        // Preload keys the router placed on each shard.
        "per_shard_keys" => placed,
        // Max-over-mean of the preload key placement (the routing gate).
        "key_imbalance" => F(key_imbalance, 4),
        // Max-over-mean of served operations: reported, not gated — the
        // zipfian hot key concentrates reads no router can spread.
        "ops_imbalance" => F(ops_imbalance, 4),
        "state_hashes" => hashes(&mut cluster)?,
    })
}

/// The migration cell: a 4-shard cluster split to 5 mid-run, with a full
/// acked-key audit afterwards.
fn run_migration(scale: &BenchScale) -> Result<Row> {
    let gen = scale.generator();
    let records = scale.load_records().max(1);
    let ops = cell_ops(scale);
    let mut cluster = cluster_at(4, scale)?;
    cluster.load(&gen, records)?;
    // First serving phase, then split the hottest shard, then keep
    // serving the grown keyspace — the router must lose nothing.
    let first = serve(&mut cluster, &gen, &serve_cfg(scale, ops / 2, records))?;
    let report = cluster.split_hottest()?;
    let second = serve(
        &mut cluster,
        &gen,
        &serve_cfg(scale, ops - ops / 2, first.records_after).with_seed(scale.seed ^ 0x517),
    )?;
    let audit = cluster.audit(&gen, second.records_after)?;
    Ok(row! {
        "shards_before" => 4usize,
        "shards_after" => cluster.active_shards().len(),
        "moved_keys" => report.moved_keys,
        "moved_bytes" => report.moved_bytes,
        // Band-sized batches the move took.
        "batches" => report.batches,
        "duration_ns" => report.duration_ns,
        "checked_keys" => audit.checked,
        // Audited keys whose routed shard lost the acked value (gate: 0).
        "lost_keys" => audit.lost,
        "state_hashes" => hashes(&mut cluster)?,
    })
}

/// Runs one cell per `SHARD_COUNTS` entry plus the migration cell and
/// returns the artifact as a JSON string.
pub fn shard_sweep(scale: &BenchScale) -> Result<String> {
    let cells = run_cells(SHARD_COUNTS.len() + 1, |i| match SHARD_COUNTS.get(i) {
        Some(&shards) => run_cell(shards, scale),
        None => run_migration(scale),
    });
    let mut cells = cells.into_iter().collect::<Result<Vec<Row>>>()?;
    let migration = cells.pop().expect("the migration cell runs last");
    let doc = row! {
        "schema" => SHARD_SCHEMA,
        "seed" => scale.seed,
        "sstable" => scale.sstable,
        "records" => scale.load_records().max(1),
        "ops" => cell_ops(scale),
        "clients" => CLIENTS,
        "workload" => WorkloadSpec::serve_mix().name,
        "cells" => cells,
        "migration" => migration,
    };
    Ok(doc.to_json())
}

/// Validates a shard artifact: schema marker, one cell per
/// `SHARD_COUNTS` entry, saturation strictly increasing with shard
/// count, key placement imbalance within the routing bound, the
/// migration audit losing zero acked keys, and no NaN/Inf anywhere.
/// Returns the list of problems; empty means valid.
pub fn check_shard_json(content: &str) -> Vec<String> {
    artifact::check(content, SHARD_SCHEMA, |doc, problems| {
        let cells = doc.rows("cells")?;
        let mut shards = Vec::new();
        let mut sat = Vec::new();
        for (i, cell) in cells.iter().enumerate() {
            shards.push(cell.u("shards")?);
            sat.push(cell.f("saturation_ops_per_sec")?);
            let ki = cell.f("key_imbalance")?;
            if ki > 1.25 {
                problems.push(format!(
                    "cell {i}: key placement imbalance {ki:.4} exceeds the 1.25 routing bound"
                ));
            }
        }
        let expected = SHARD_COUNTS.map(|n| n as u64);
        if shards != expected {
            problems.push(format!(
                "expected cells for shard counts {expected:?}, found {shards:?}"
            ));
        }
        for w in sat.windows(2) {
            if w[1] <= w[0] {
                problems.push(format!(
                    "saturation must rise strictly with shard count: {:.3} !> {:.3}",
                    w[1], w[0]
                ));
            }
        }
        let migration = doc.obj("migration")?;
        let lost = migration.u("lost_keys")?;
        if lost != 0 {
            problems.push(format!("migration lost {lost} acked keys"));
        }
        if migration.u("moved_keys")? == 0 {
            problems.push("migration moved no keys".to_string());
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// One sweep shared by every test that only reads the artifact.
    fn artifact() -> &'static str {
        static ARTIFACT: OnceLock<String> = OnceLock::new();
        ARTIFACT.get_or_init(|| shard_sweep(&test_scale()).unwrap())
    }

    fn test_scale() -> BenchScale {
        let mut s = BenchScale::tiny();
        s.load_bytes = 4 << 20;
        s.capacity_ratio = 12;
        s.ycsb_ops = 120;
        s
    }

    #[test]
    fn sweep_is_valid_and_deterministic() {
        let a = artifact();
        let b = shard_sweep(&test_scale()).unwrap();
        assert_eq!(a, &b, "same-seed artifacts must be byte-identical");
        let problems = check_shard_json(a);
        assert!(problems.is_empty(), "artifact invalid: {problems:?}");
    }

    fn saturations(content: &str) -> Vec<f64> {
        let doc = artifact::parse(content).unwrap();
        let cells = doc.rows("cells").unwrap();
        let sat = cells.iter().map(|c| c.f("saturation_ops_per_sec").unwrap());
        sat.collect()
    }

    #[test]
    fn saturation_scales_out_with_shards() {
        let sat = saturations(artifact());
        assert_eq!(sat.len(), SHARD_COUNTS.len());
        for w in sat.windows(2) {
            assert!(w[1] > w[0], "saturation not monotone: {sat:?}");
        }
    }

    #[test]
    fn migration_cell_loses_nothing_and_moves_bands() {
        let doc = artifact::parse(artifact()).unwrap();
        let m = doc.obj("migration").unwrap();
        assert_eq!(m.u("lost_keys"), Ok(0));
        assert!(m.u("moved_keys").unwrap() > 0);
        assert_eq!(m.u("shards_after"), Ok(5));
        assert!(m.u("batches").unwrap() >= 1);
    }

    #[test]
    fn checker_rejects_bad_artifacts() {
        assert!(!check_shard_json("{}").is_empty());
        let a = artifact();
        // Break monotonicity: swap the first saturation value to huge.
        let broken = a.replacen(
            &format!("\"saturation_ops_per_sec\":{:.3}", saturations(a)[0]),
            "\"saturation_ops_per_sec\":999999999.000",
            1,
        );
        assert!(check_shard_json(&broken)
            .iter()
            .any(|p| p.contains("strictly")));
        let lossy = a.replace("\"lost_keys\":0", "\"lost_keys\":3");
        assert!(check_shard_json(&lossy).iter().any(|p| p.contains("lost")));
    }

    /// The hole the substring scan had: it gated on the first
    /// `"lost_keys"` in the text, so a decoy in an earlier cell hid a
    /// lossy migration.
    #[test]
    fn checker_reads_the_migration_not_the_first_lost_keys() {
        let good = include_str!("../../../BENCH_pr7.json");
        assert_eq!(check_shard_json(good), Vec::<String>::new());
        let forged = good
            .replacen("\"lost_keys\":0", "\"lost_keys\":5", 1)
            .replacen("{\"shards\":1,", "{\"shards\":1,\"lost_keys\":0,", 1);
        let problems = check_shard_json(&forged);
        assert!(
            problems.iter().any(|p| p.contains("migration lost 5")),
            "{problems:?}"
        );
        let negative = good.replacen("\"lost_keys\":0", "\"lost_keys\":-3", 1);
        let problems = check_shard_json(&negative);
        assert!(
            problems.iter().any(|p| p.contains("not an integer")),
            "{problems:?}"
        );
    }
}
