//! Cluster serving: `seal-front`'s serve loop with one request queue
//! per active shard and the consistent-hash ring as its router.
//!
//! Everything about the loop — arrivals, admission, per-queue group
//! commit, degraded reads, idle background work — is
//! [`seal_front::serve_queues`]; a single store is its one-queue case,
//! so a cluster run and a single-store run with the same seed draw the
//! same operations. What the cluster adds is here: shard clocks synced
//! to a common frontier before and after, the ring as the routing
//! function, queue index ↔ shard slot mapping (merged-away slots get no
//! queue), and the per-shard router observability.
//!
//! Throughput is aggregate: completed operations over the cluster span
//! (sync frontier to last completion on any shard). More shards mean
//! more disks serving concurrently, so saturation throughput scales out
//! until the hottest shard — zipfian traffic concentrates — becomes the
//! bottleneck.

use crate::ShardCluster;
use lsm_core::Result;
use seal_front::{serve_queues, ServeConfig, ServeResult};
use sealdb::Store;
use workloads::RecordGenerator;

/// Everything one cluster serving run measured: the shared
/// [`ServeResult`] over all shards plus what only a cluster has.
#[derive(Clone, Debug)]
pub struct ClusterServeResult {
    /// The aggregate run. `sim_ns` is the cluster span — sync frontier
    /// to last completion on any shard — and `queue_depth_max` the
    /// deepest per-shard queue.
    pub serve: ServeResult,
    /// Operations served by each shard slot (merged-away slots read 0).
    pub per_shard_ops: Vec<u64>,
    /// Keyspace size after the run (preload plus serve-phase inserts) —
    /// the audit horizon.
    pub records_after: u64,
}

impl ClusterServeResult {
    /// Max-over-mean of per-shard served operations (active slots).
    pub fn ops_imbalance(&self) -> f64 {
        let active: Vec<u64> = self
            .per_shard_ops
            .iter()
            .copied()
            .filter(|&n| n > 0)
            .collect();
        crate::imbalance(&active)
    }
}

/// Serves `cfg.total_ops` operations against a preloaded cluster and
/// reports aggregate latency and per-shard load. Scans are
/// partition-local (the routed shard's range).
pub fn serve(
    cluster: &mut ShardCluster,
    gen: &RecordGenerator,
    cfg: &ServeConfig,
) -> Result<ClusterServeResult> {
    cluster.sync_all();
    let active = cluster.active_shards();
    let mut queue_of = vec![usize::MAX; cluster.total_shards()];
    for (q, &slot) in active.iter().enumerate() {
        queue_of[slot] = q;
    }
    let ring = &cluster.ring;
    let mut stores: Vec<&mut Store> = cluster
        .shards
        .iter_mut()
        .filter(|s| s.active)
        .map(|s| &mut s.node)
        .collect();
    let served = serve_queues(&mut stores, |key| queue_of[ring.route(key)], gen, cfg)?;

    let mut per_shard_ops = vec![0u64; queue_of.len()];
    // The cluster frontier advances to the last completion.
    let end = cluster.now_ns + served.result.sim_ns;
    for (&slot, q) in active.iter().zip(&served.queues) {
        per_shard_ops[slot] = q.ops;
        cluster.publish_router_obs(slot, q.ops, q.write_calls, q.depth_max);
        cluster.node_mut(slot).advance_clock_to(end);
    }
    cluster.now_ns = end;
    Ok(ClusterServeResult {
        serve: served.result,
        per_shard_ops,
        records_after: served.records_after,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardConfig;
    use sealdb::{StoreConfig, StoreKind};
    use workloads::{ArrivalProcess, WorkloadSpec as Spec};

    const SST: u64 = 32 << 10;
    const CAP: u64 = 1 << 30;

    fn serving_cluster(shards: usize, records: u64, gen: &RecordGenerator) -> ShardCluster {
        let mut c = ShardCluster::new(ShardConfig::new(shards, SST, CAP)).unwrap();
        c.load(gen, records).unwrap();
        c
    }

    fn closed(clients: usize, ops: u64, records: u64) -> ServeConfig {
        ServeConfig::new(
            Spec::serve_mix(),
            ArrivalProcess::ClosedLoop { think_ns: 0 },
            clients,
            ops,
            records,
        )
    }

    #[test]
    fn cluster_serves_all_ops_and_reads_hit() {
        let gen = RecordGenerator::new(16, 100, 1);
        let mut c = serving_cluster(4, 1200, &gen);
        let r = serve(&mut c, &gen, &closed(8, 800, 1200)).unwrap();
        assert_eq!(r.serve.ops, 800);
        assert!(r.serve.sim_ns > 0);
        assert_eq!(r.serve.misses, 0, "preloaded zipfian reads must not miss");
        assert_eq!(r.per_shard_ops.iter().sum::<u64>(), 800);
        assert!(
            r.per_shard_ops.iter().all(|&n| n > 0),
            "{:?}",
            r.per_shard_ops
        );
        // Serve-phase inserts grew the keyspace; audit re-reads all of it.
        assert!(r.records_after > 1200);
        let audit = c.audit(&gen, r.records_after).unwrap();
        assert_eq!(audit.lost, 0);
    }

    #[test]
    fn more_shards_raise_saturation_throughput() {
        let gen = RecordGenerator::new(16, 100, 1);
        let sat = |shards: usize| {
            let mut c = serving_cluster(shards, 1500, &gen);
            serve(&mut c, &gen, &closed(8, 600, 1500))
                .unwrap()
                .serve
                .throughput_ops_per_sec
        };
        let one = sat(1);
        let four = sat(4);
        assert!(
            four > one,
            "4 shards ({four:.0} op/s) must out-serve 1 ({one:.0} op/s)"
        );
    }

    #[test]
    fn group_commit_forms_per_shard_and_respects_cap() {
        let gen = RecordGenerator::new(16, 100, 1);
        let mut c = serving_cluster(2, 800, &gen);
        let mut cfg = closed(8, 600, 800);
        cfg.max_group_bytes = 600;
        let r = serve(&mut c, &gen, &cfg).unwrap().serve;
        assert_eq!(r.ops, 600);
        assert!(r.max_group_len > 1, "groups must form under 8 hot clients");
        assert!(
            r.max_group_wire <= cfg.max_group_bytes,
            "group of {} wire bytes overshot the {} cap",
            r.max_group_wire,
            cfg.max_group_bytes
        );
        assert!(r.write_calls < r.write_ops);
    }

    #[test]
    fn same_seed_cluster_serves_identically() {
        let gen = RecordGenerator::new(16, 100, 1);
        let go = |seed: u64| {
            let mut c = serving_cluster(3, 1000, &gen);
            let cfg = closed(6, 500, 1000).with_seed(seed);
            let r = serve(&mut c, &gen, &cfg).unwrap();
            (r.serve, r.per_shard_ops, c.state_hashes().unwrap())
        };
        let a = go(11);
        let b = go(11);
        assert_eq!(a, b);
        let c = go(12);
        assert_ne!(
            a.0.sim_ns, c.0.sim_ns,
            "a different seed must shift the schedule"
        );
    }

    #[test]
    fn router_metrics_reach_each_shards_obs() {
        use smr_sim::ObsLayer;
        let gen = RecordGenerator::new(16, 100, 1);
        let mut c = serving_cluster(2, 600, &gen);
        let r = serve(&mut c, &gen, &closed(4, 300, 600)).unwrap();
        for s in c.active_shards() {
            let m = c.node(s).metrics_snapshot();
            assert_eq!(
                m.obs.registry.counter(ObsLayer::Router, "ops"),
                r.per_shard_ops[s],
                "shard {s}"
            );
            assert!(m
                .to_json(0)
                .contains(&format!("\"instance\":\"shard-{s}\"")));
        }
    }

    /// A one-shard cluster is the one-queue case: it serves exactly what
    /// `run_serve` serves on a bare store built and preloaded the same
    /// way — every measured field, and the clock it ends on.
    #[test]
    fn one_shard_cluster_serves_exactly_like_a_bare_store() {
        let gen = RecordGenerator::new(16, 100, 1);
        const RECORDS: u64 = 1000;
        let shard_cfg = ShardConfig::new(1, SST, CAP);
        let arrivals = [
            ArrivalProcess::ClosedLoop { think_ns: 0 },
            ArrivalProcess::OpenLoopPoisson { ops_per_sec: 150.0 },
        ];
        for spec in [Spec::a(), Spec::serve_mix()] {
            for arrival in arrivals {
                let cfg = ServeConfig::new(spec, arrival, 4, 400, RECORDS).with_seed(17);
                let mut cluster = ShardCluster::new(shard_cfg.clone()).unwrap();
                cluster.load(&gen, RECORDS).unwrap();
                let clustered = serve(&mut cluster, &gen, &cfg).unwrap();

                let mut sc = StoreConfig::new(StoreKind::SealDb, SST, CAP);
                sc.seed = shard_cfg.seed;
                let mut store = sc.build().unwrap();
                for i in 0..RECORDS {
                    let j = workloads::permute(i, RECORDS, shard_cfg.seed);
                    store.put(&gen.key(j), &gen.value(j)).unwrap();
                }
                store.flush().unwrap();
                let bare = seal_front::run_serve(&mut store, &gen, &cfg).unwrap();

                let what = format!("workload {} under {arrival:?}", spec.name);
                assert_eq!(clustered.serve, bare, "{what}");
                assert_eq!(clustered.per_shard_ops, [bare.ops], "{what}");
                assert_eq!(cluster.node(0).clock_ns(), store.clock_ns(), "{what}");
                assert_eq!(cluster.now_ns(), store.clock_ns(), "{what}");
            }
        }
    }

    /// Sharded serving inherits the loop's degraded mode: a shard whose
    /// reads keep failing serves them as misses while the run — and the
    /// healthy shard — carries on.
    #[test]
    fn a_faulty_shard_degrades_instead_of_aborting_the_cluster() {
        let gen = RecordGenerator::new(16, 100, 1);
        const RECORDS: u64 = 1000;
        let mut c = serving_cluster(2, RECORDS, &gen);
        {
            let store = c.node_mut(0);
            let f = store
                .db
                .current_version()
                .files
                .iter()
                .flatten()
                .max_by_key(|f| f.size)
                .expect("load left no tables")
                .clone();
            let ext = store.db.ctx().lock().fs.file_extent(f.id).unwrap();
            store
                .db
                .ctx()
                .lock()
                .fs
                .disk_mut()
                .faults_mut()
                .fail_reads_permanently(ext);
        }
        let mut cfg = ServeConfig::new(
            Spec::c(),
            ArrivalProcess::ClosedLoop { think_ns: 0 },
            4,
            600,
            RECORDS,
        );
        cfg.read_retries = 1;
        cfg.client_error_budget = u64::MAX;
        let r = serve(&mut c, &gen, &cfg).unwrap();
        assert_eq!(r.serve.ops, 600, "every op is served, none abandoned");
        assert!(r.serve.failed_reads > 0, "reads into the dead table fail");
        // Only shard 0 can fail a read, and the closed keyspace makes
        // failed reads the only misses: shard 1 served all of its share.
        assert!(r.serve.failed_reads <= r.per_shard_ops[0]);
        assert_eq!(r.serve.misses, r.serve.failed_reads);
        assert!(r.per_shard_ops[1] > 0);
        assert_eq!(r.per_shard_ops.iter().sum::<u64>(), 600);
    }
}
