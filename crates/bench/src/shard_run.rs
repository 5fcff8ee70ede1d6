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

use crate::BenchScale;
use lsm_core::Result;
use seal_front::ServeConfig;
use seal_shard::{imbalance, serve, ShardCluster, ShardConfig};
use std::fmt::Write as _;
use workloads::{ArrivalProcess, WorkloadSpec};

/// Schema marker the checker requires at the top of the artifact.
pub const SHARD_SCHEMA: &str = "sealdb-shard-v1";

/// Virtual clients per cluster run (cluster-wide, not per shard).
pub const CLIENTS: usize = 16;

/// Shard counts swept, ascending; saturation must rise strictly.
pub const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Scale-out factor over the canonical serving operation count.
pub const OPS_SCALE: u64 = 10;

/// One shard count's saturation cell.
#[derive(Clone, Debug)]
pub struct ShardCell {
    /// Active shards serving this cell.
    pub shards: usize,
    /// Aggregate closed-loop saturation, ops per simulated second.
    pub saturation_ops_per_sec: f64,
    /// End-to-end latency summary of the saturation run.
    pub latency: seal_front::LatencySummary,
    /// `Store::write` calls across all shards.
    pub write_calls: u64,
    /// Write operations those calls carried.
    pub write_ops: u64,
    /// Largest committed group in wire bytes.
    pub max_group_wire: usize,
    /// Deepest per-shard queue at any service start.
    pub queue_depth_max: usize,
    /// Operations served by each shard.
    pub per_shard_ops: Vec<u64>,
    /// Preload keys placed on each shard by the router.
    pub per_shard_keys: Vec<u64>,
    /// Max-over-mean of the preload key placement (the routing gate).
    pub key_imbalance: f64,
    /// Max-over-mean of served operations (zipfian skew; reported, not
    /// gated — the hot key concentrates reads no router can spread).
    pub ops_imbalance: f64,
    /// Per-shard state fingerprints after the run, ascending index.
    pub state_hashes: Vec<u64>,
}

/// What the migration cell measured: a 4-shard cluster split to 5 mid-
/// run, with a full acked-key audit afterwards.
#[derive(Clone, Debug)]
pub struct MigrationCell {
    /// Active shards before the split.
    pub shards_before: usize,
    /// Active shards after the split.
    pub shards_after: usize,
    /// Keys the split moved to the new shard.
    pub moved_keys: u64,
    /// Payload bytes moved.
    pub moved_bytes: u64,
    /// Band-sized batches the move took.
    pub batches: u64,
    /// Simulated time the migration occupied, ns.
    pub duration_ns: u64,
    /// Keys audited after the second serving phase.
    pub checked_keys: u64,
    /// Audited keys whose routed shard lost the acked value (gate: 0).
    pub lost_keys: u64,
    /// Per-shard state fingerprints after the audit.
    pub state_hashes: Vec<u64>,
}

/// The full artifact, structured.
#[derive(Clone, Debug)]
pub struct ShardSweep {
    /// One cell per [`SHARD_COUNTS`] entry, in order.
    pub cells: Vec<ShardCell>,
    /// The mid-run split migration cell.
    pub migration: MigrationCell,
}

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
pub fn cell_ops(scale: &BenchScale) -> u64 {
    (scale.ycsb_ops * OPS_SCALE).max(CLIENTS as u64)
}

fn run_cell(shards: usize, scale: &BenchScale) -> Result<ShardCell> {
    let gen = scale.generator();
    let records = scale.load_records().max(1);
    let mut cluster = cluster_at(shards, scale)?;
    let placed = cluster.load(&gen, records)?;
    let r = serve(
        &mut cluster,
        &gen,
        &serve_cfg(scale, cell_ops(scale), records),
    )?;
    Ok(ShardCell {
        shards,
        saturation_ops_per_sec: r.serve.throughput_ops_per_sec,
        latency: r.serve.latency,
        write_calls: r.serve.write_calls,
        write_ops: r.serve.write_ops,
        max_group_wire: r.serve.max_group_wire,
        queue_depth_max: r.serve.queue_depth_max,
        key_imbalance: imbalance(&placed),
        ops_imbalance: r.ops_imbalance(),
        per_shard_ops: r.per_shard_ops,
        per_shard_keys: placed,
        state_hashes: cluster.state_hashes()?,
    })
}

fn run_migration(scale: &BenchScale) -> Result<MigrationCell> {
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
    Ok(MigrationCell {
        shards_before: 4,
        shards_after: cluster.active_shards().len(),
        moved_keys: report.moved_keys,
        moved_bytes: report.moved_bytes,
        batches: report.batches,
        duration_ns: report.duration_ns,
        checked_keys: audit.checked,
        lost_keys: audit.lost,
        state_hashes: cluster.state_hashes()?,
    })
}

/// Runs every cell (one per OS thread; each cluster owns independent
/// simulated disks) plus the migration cell, in presentation order.
pub fn run_sweep(scale: &BenchScale) -> Result<ShardSweep> {
    let mut cells: Vec<Option<Result<ShardCell>>> = SHARD_COUNTS.iter().map(|_| None).collect();
    let mut migration: Option<Result<MigrationCell>> = None;
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for &n in &SHARD_COUNTS {
            handles.push(s.spawn(move || run_cell(n, scale)));
        }
        let mig = s.spawn(move || run_migration(scale));
        for (slot, h) in cells.iter_mut().zip(handles) {
            *slot = Some(h.join().expect("shard cell thread panicked"));
        }
        migration = Some(mig.join().expect("migration thread panicked"));
    });
    let cells = cells
        .into_iter()
        .map(|c| c.expect("joined"))
        .collect::<Result<Vec<_>>>()?;
    Ok(ShardSweep {
        cells,
        migration: migration.expect("joined")?,
    })
}

fn hashes_json(hashes: &[u64]) -> String {
    let mut s = String::from("[");
    for (i, h) in hashes.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{h:016x}\"");
    }
    s.push(']');
    s
}

fn counts_json(counts: &[u64]) -> String {
    let mut s = String::from("[");
    for (i, c) in counts.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{c}");
    }
    s.push(']');
    s
}

/// Serialises a sweep as the `BENCH_pr7.json` artifact.
pub fn sweep_to_json(scale: &BenchScale, sweep: &ShardSweep) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"schema\":\"{SHARD_SCHEMA}\",\"seed\":{},\"sstable\":{},\"records\":{},\"ops\":{},\"clients\":{},\"workload\":\"S\",\"cells\":[",
        scale.seed,
        scale.sstable,
        scale.load_records().max(1),
        cell_ops(scale),
        CLIENTS,
    );
    for (i, c) in sweep.cells.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            concat!(
                "{{\"shards\":{},\"saturation_ops_per_sec\":{:.3},",
                "\"p50_ns\":{},\"p99_ns\":{},\"max_ns\":{},",
                "\"write_calls\":{},\"write_ops\":{},\"max_group_wire\":{},\"queue_depth_max\":{},",
                "\"per_shard_ops\":{},\"per_shard_keys\":{},",
                "\"key_imbalance\":{:.4},\"ops_imbalance\":{:.4},\"state_hashes\":{}}}"
            ),
            c.shards,
            c.saturation_ops_per_sec,
            c.latency.p50_ns,
            c.latency.p99_ns,
            c.latency.max_ns,
            c.write_calls,
            c.write_ops,
            c.max_group_wire,
            c.queue_depth_max,
            counts_json(&c.per_shard_ops),
            counts_json(&c.per_shard_keys),
            c.key_imbalance,
            c.ops_imbalance,
            hashes_json(&c.state_hashes),
        );
    }
    let m = &sweep.migration;
    let _ = write!(
        s,
        concat!(
            "],\"migration\":{{\"shards_before\":{},\"shards_after\":{},",
            "\"moved_keys\":{},\"moved_bytes\":{},\"batches\":{},\"duration_ns\":{},",
            "\"checked_keys\":{},\"lost_keys\":{},\"state_hashes\":{}}}}}\n"
        ),
        m.shards_before,
        m.shards_after,
        m.moved_keys,
        m.moved_bytes,
        m.batches,
        m.duration_ns,
        m.checked_keys,
        m.lost_keys,
        hashes_json(&m.state_hashes),
    );
    s
}

/// Runs the shard sweep and returns the artifact as a JSON string.
pub fn shard_sweep(scale: &BenchScale) -> Result<String> {
    Ok(sweep_to_json(scale, &run_sweep(scale)?))
}

fn num_values(content: &str, key: &str) -> Vec<f64> {
    crate::json_nums(content, key).collect()
}

/// Validates a shard artifact: schema marker, one cell per
/// [`SHARD_COUNTS`] entry, saturation strictly increasing with shard
/// count, key placement imbalance within the routing bound, the
/// migration audit losing zero acked keys, and no NaN/Inf anywhere.
/// Returns the list of problems; empty means valid.
pub fn check_shard_json(content: &str) -> Vec<String> {
    let mut problems = Vec::new();
    let marker = format!("\"schema\":\"{SHARD_SCHEMA}\"");
    if !content.contains(&marker) {
        problems.push(format!("missing schema marker {marker}"));
    }
    let shards = num_values(content, "shards");
    let expected: Vec<f64> = SHARD_COUNTS.iter().map(|&n| n as f64).collect();
    if shards != expected {
        problems.push(format!(
            "expected cells for shard counts {expected:?}, found {shards:?}"
        ));
    }
    let sat = num_values(content, "saturation_ops_per_sec");
    if sat.len() != SHARD_COUNTS.len() {
        problems.push(format!(
            "expected {} saturation values, found {}",
            SHARD_COUNTS.len(),
            sat.len()
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
    for (i, ki) in num_values(content, "key_imbalance").iter().enumerate() {
        if *ki > 1.25 {
            problems.push(format!(
                "cell {i}: key placement imbalance {ki:.4} exceeds the 1.25 routing bound"
            ));
        }
    }
    match num_values(content, "lost_keys").first() {
        Some(&0.0) => {}
        Some(&lost) => problems.push(format!("migration lost {lost} acked keys")),
        None => problems.push("missing migration \"lost_keys\"".to_string()),
    }
    match num_values(content, "moved_keys").first() {
        Some(&moved) if moved > 0.0 => {}
        _ => problems.push("migration moved no keys".to_string()),
    }
    problems.extend(crate::non_finite_tokens(content));
    problems
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

    #[test]
    fn saturation_scales_out_with_shards() {
        let sat = num_values(artifact(), "saturation_ops_per_sec");
        assert_eq!(sat.len(), SHARD_COUNTS.len());
        for w in sat.windows(2) {
            assert!(w[1] > w[0], "saturation not monotone: {sat:?}");
        }
    }

    #[test]
    fn migration_cell_loses_nothing_and_moves_bands() {
        let a = artifact();
        assert_eq!(num_values(a, "lost_keys"), vec![0.0]);
        assert!(num_values(a, "moved_keys")[0] > 0.0);
        assert!(num_values(a, "shards_after")[0] == 5.0);
        assert!(num_values(a, "batches")[0] >= 1.0);
    }

    #[test]
    fn checker_rejects_bad_artifacts() {
        assert!(!check_shard_json("{}").is_empty());
        let a = artifact();
        // Break monotonicity: swap the first saturation value to huge.
        let sat = num_values(a, "saturation_ops_per_sec");
        let broken = a.replacen(
            &format!("\"saturation_ops_per_sec\":{:.3}", sat[0]),
            "\"saturation_ops_per_sec\":999999999.000",
            1,
        );
        assert!(check_shard_json(&broken)
            .iter()
            .any(|p| p.contains("strictly")));
        let lossy = a.replace("\"lost_keys\":0", "\"lost_keys\":3");
        assert!(check_shard_json(&lossy).iter().any(|p| p.contains("lost")));
    }
}
