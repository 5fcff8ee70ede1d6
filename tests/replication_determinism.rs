//! Cross-crate determinism contract for replication: the `seal-bench`
//! replication sweep rides the simulated clock and a seeded network
//! only, so two runs with the same seed must serialize byte-identical
//! `BENCH_pr6.json` artifacts, a different seed must actually change
//! the measured cells, and a full failover episode — including one run
//! under an active partition schedule — must leave the promoted
//! primary with an identical state fingerprint across replays.

use bench::{replicate_run, BenchScale};
use seal_replica::{Cluster, ReplicaConfig};

/// A sweep small enough for a debug-mode double run: the disk must
/// still clear the 16 MiB log-zone floor.
fn small_scale() -> BenchScale {
    let mut s = BenchScale::tiny();
    s.load_bytes = 4 << 20;
    s.capacity_ratio = 12;
    s.ycsb_ops = 200;
    s
}

#[test]
fn same_seed_double_run_is_byte_identical() {
    let first = replicate_run::replicate_sweep(&small_scale()).expect("first sweep");
    let second = replicate_run::replicate_sweep(&small_scale()).expect("second sweep");
    assert_eq!(
        first, second,
        "same-seed replication sweeps must serialize byte-identically"
    );
    let problems = replicate_run::check_replicate_json(&first);
    assert!(problems.is_empty(), "artifact invalid: {problems:?}");
}

#[test]
fn seed_changes_the_measured_cells() {
    let base = replicate_run::replicate_sweep(&small_scale()).expect("base sweep");
    let mut reseeded = small_scale();
    reseeded.seed ^= 0xBAD5EED;
    let other = replicate_run::replicate_sweep(&reseeded).expect("reseeded sweep");
    assert!(replicate_run::check_replicate_json(&other).is_empty());
    assert_ne!(base, other, "a different seed must change the artifact");
}

/// One failover episode under an active partition schedule: replica 2
/// is cut off mid-stream and heals after the election, so the run
/// exercises partition-aware promotion, post-heal delivery, and rejoin
/// — and must still replay identically, down to the promoted primary's
/// state fingerprint.
fn partitioned_episode() -> (u64, u64, usize) {
    let scale = small_scale();
    let mut conf = ReplicaConfig::new(2, scale.sstable, scale.disk_capacity());
    conf.seed = scale.seed;
    let mut c = Cluster::new(conf).expect("cluster");
    let gen = scale.generator();
    for i in 0..10 {
        c.put(&gen.key(i), &gen.value(i))
            .expect("pre-partition write");
    }
    // Cut replica 2 off for a window that spans the kill and the
    // election, healing one simulated second later.
    let cut = c.now_ns();
    c.net_mut()
        .faults_mut()
        .partition(2, cut, cut + 1_000_000_000);
    for i in 10..25 {
        c.put(&gen.key(i), &gen.value(i))
            .expect("partitioned write");
    }
    let report = c.kill_primary().expect("failover");
    assert_eq!(
        report.promoted, 1,
        "the partitioned replica must not win the election"
    );
    for i in 25..40 {
        c.put(&gen.key(i), &gen.value(i))
            .expect("post-failover write");
    }
    c.rejoin(0).expect("rejoin");
    for i in 40..45 {
        c.put(&gen.key(i), &gen.value(i))
            .expect("post-rejoin write");
    }
    let audit = c.audit().expect("audit");
    assert_eq!(
        (audit.primary_misses, audit.acked_lost),
        (0, 0),
        "quorum acks must survive the episode"
    );
    let hash = c.state_hash().expect("state hash");
    (hash, report.rto_ns, report.promoted)
}

#[test]
fn partitioned_failover_replays_identically() {
    assert_eq!(
        partitioned_episode(),
        partitioned_episode(),
        "same-seed failover episodes must agree on promoted state and RTO"
    );
}
