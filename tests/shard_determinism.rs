//! Cluster-level determinism: the multi-shard router, serving loop, and
//! migration machinery must replay byte-identically from a (config,
//! seed) pair — the property `BENCH_pr7.json` regeneration stands on —
//! and a mid-run shard split must never lose an acknowledged key.

use bench::{shard_run, BenchScale};
use seal_front::ServeConfig;
use seal_shard::{serve, ShardCluster, ShardConfig};
use workloads::{ArrivalProcess, RecordGenerator, WorkloadSpec};

fn small_scale() -> BenchScale {
    let mut s = BenchScale::tiny();
    s.load_bytes = 4 << 20;
    s.capacity_ratio = 12;
    s.ycsb_ops = 100;
    s
}

fn serve_cfg(clients: usize, ops: u64, records: u64, seed: u64) -> ServeConfig {
    ServeConfig::new(
        WorkloadSpec::serve_mix(),
        ArrivalProcess::ClosedLoop { think_ns: 0 },
        clients,
        ops,
        records,
    )
    .with_seed(seed)
}

/// The full sweep artifact — every cell, the migration, all state
/// hashes — serializes byte-identically across same-seed reruns, and a
/// different seed produces a different artifact.
#[test]
fn shard_sweep_artifact_is_byte_identical_same_seed() {
    let scale = small_scale();
    let a = shard_run::shard_sweep(&scale).unwrap();
    let b = shard_run::shard_sweep(&scale).unwrap();
    assert_eq!(a, b, "same-seed shard artifacts must be byte-identical");
    assert!(
        shard_run::check_shard_json(&a).is_empty(),
        "{:?}",
        shard_run::check_shard_json(&a)
    );

    let mut reseeded = scale;
    reseeded.seed ^= 0xDEAD;
    let c = shard_run::shard_sweep(&reseeded).unwrap();
    assert_ne!(a, c, "a different seed must produce a different artifact");
}

/// A serve → split → serve → merge → serve sequence replays to
/// identical per-shard state hashes, identical cluster clocks, and an
/// audit that loses zero acknowledged keys at every step.
#[test]
fn mid_run_migration_replays_identically_and_loses_nothing() {
    let gen = RecordGenerator::new(16, 128, 21);
    const RECORDS: u64 = 1500;
    let run = || {
        let cfg = ShardConfig::new(3, 32 << 10, 1 << 30).with_seed(77);
        let mut c = ShardCluster::new(cfg).unwrap();
        c.load(&gen, RECORDS).unwrap();

        let r1 = serve(&mut c, &gen, &serve_cfg(6, 400, RECORDS, 31)).unwrap();
        let split = c.split_hottest().unwrap();
        assert!(split.moved_keys > 0);
        let audit1 = c.audit(&gen, r1.records_after).unwrap();
        assert_eq!(audit1.acked_lost, 0, "split lost acked keys");

        let r2 = serve(&mut c, &gen, &serve_cfg(6, 400, r1.records_after, 32)).unwrap();
        let merge = c.merge_shard(0).unwrap();
        let audit2 = c.audit(&gen, r2.records_after).unwrap();
        assert_eq!(audit2.acked_lost, 0, "merge lost acked keys");

        let r3 = serve(&mut c, &gen, &serve_cfg(6, 200, r2.records_after, 33)).unwrap();
        (
            r1.serve.sim_ns,
            r2.serve.sim_ns,
            r3.serve.sim_ns,
            split,
            merge,
            c.state_hashes().unwrap(),
            c.now_ns(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "migration mid-run must replay identically");
}

/// Saturation throughput rises with shard count at test scale — the
/// scale-out property the artifact checker gates at 1→2→4→8.
#[test]
fn saturation_scales_with_shard_count() {
    let gen = RecordGenerator::new(16, 128, 9);
    const RECORDS: u64 = 2000;
    let sat = |shards: usize| {
        let cfg = ShardConfig::new(shards, 32 << 10, 1 << 30).with_seed(5);
        let mut c = ShardCluster::new(cfg).unwrap();
        c.load(&gen, RECORDS).unwrap();
        serve(&mut c, &gen, &serve_cfg(8, 600, RECORDS, 13))
            .unwrap()
            .serve
            .throughput_ops_per_sec
    };
    let one = sat(1);
    let four = sat(4);
    let eight = sat(8);
    assert!(four > one, "4 shards {four:.0} !> 1 shard {one:.0}");
    assert!(eight > four, "8 shards {eight:.0} !> 4 shards {four:.0}");
}
