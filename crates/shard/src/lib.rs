//! # seal-shard — deterministic multi-shard scale-out
//!
//! One SMR drive bounds one store's saturation throughput; a serving
//! deployment scales out by running N independent [`Store`] shards —
//! each with its own simulated disk, WAL, allocator, and compaction
//! budget — behind a cluster router. This crate models that as a
//! discrete-event simulation on the shards' *simulated* clocks, so a
//! (config, seed) pair replays byte-identically:
//!
//! * **Routing** — a consistent-hash [`HashRing`] with virtual nodes
//!   maps keys to shards; placement imbalance is bounded by the vnode
//!   count, not luck.
//! * **Serving** — [`serve()`] runs `seal-front`'s serve loop
//!   ([`seal_front::serve_queues`]) with one request queue per active
//!   shard and the ring as its router: same arrivals, group commit,
//!   degraded reads and idle background work as a single store, ties
//!   between shards broken by index.
//! * **Migration** — band-granular split of a shard (the hottest one,
//!   chosen from the per-shard observability gauges) and merge of a
//!   retiring shard, moving keys in band-sized batches with a full
//!   audit trail.
//!
//! Routing and migration are generic over [`KvNode`], so the same
//! cluster type shards bare stores (`ShardCluster`, the default) or
//! whole replication groups (`ShardCluster<seal_replica::Cluster>`).
//! [`ShardCluster::new`] builds every shard as an ordinary [`Store`]
//! from a [`StoreConfig`] with an instance label (`shard-0`,
//! `shard-1`, ...), so per-shard metrics registries stay
//! distinguishable when aggregated.

mod migrate;
mod ring;
mod serve;

pub use migrate::{MigrationKind, MigrationReport};
pub use ring::{fnv1a64, HashRing};
pub use serve::{serve, ClusterServeResult};

use lsm_core::{Error, Result, WriteBatch};
use sealdb::{KvNode, Store, StoreConfig, StoreKind};
use smr_sim::ObsLayer;
use workloads::RecordGenerator;

/// Configuration of one shard cluster.
#[derive(Clone, Debug)]
pub struct ShardConfig {
    /// Initial number of shards.
    pub(crate) shards: usize,
    /// SSTable size of every shard store.
    pub(crate) sstable_size: u64,
    /// Disk capacity of every shard store.
    pub(crate) disk_capacity: u64,
    /// Determinism seed; each shard derives its own store seed from it.
    pub(crate) seed: u64,
}

/// Virtual nodes per shard on the routing ring.
const VNODES: usize = 256;

impl ShardConfig {
    /// A SEALDB cluster of `shards` shards with 256 vnodes each.
    pub fn new(shards: usize, sstable_size: u64, disk_capacity: u64) -> Self {
        ShardConfig {
            shards,
            sstable_size,
            disk_capacity,
            seed: 0x5EA1_5AD5,
        }
    }

    /// Same configuration with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Band size at the paper's ratio (10 × SSTable) — the unit
    /// migration moves data in.
    pub(crate) fn band_size(&self) -> u64 {
        self.sstable_size * 10
    }
}

/// One cluster member: a node plus its routing liveness. A merged-away
/// shard keeps its (emptied) node so indices stay stable, but owns no
/// ring points and receives no traffic.
#[derive(Debug)]
struct Shard<N> {
    node: N,
    active: bool,
}

/// Resident records of one shard, as `(key, value)` pairs.
type Records = Vec<(Vec<u8>, Vec<u8>)>;

/// Result of re-reading every key the cluster has acknowledged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AuditReport {
    /// Keys checked against their routed shard.
    pub checked: u64,
    /// Keys whose routed shard no longer serves the promised value.
    pub lost: u64,
}

/// Max-over-mean of a count vector — the load-imbalance figure the
/// BENCH_pr7 artifact gates on. Empty or all-zero input reads 1.0.
pub fn imbalance(counts: &[u64]) -> f64 {
    if counts.is_empty() {
        return 1.0;
    }
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let mean = total as f64 / counts.len() as f64;
    let max = *counts.iter().max().expect("non-empty") as f64;
    max / mean
}

/// N independent nodes behind a consistent-hash router, on one
/// deterministic simulated timeline.
#[derive(Debug)]
pub struct ShardCluster<N: KvNode = Store> {
    cfg: ShardConfig,
    shards: Vec<Shard<N>>,
    ring: HashRing,
    /// Cluster-logical time: the latest completion frontier. Shard
    /// clocks are synced forward to this before cluster-wide phases.
    now_ns: u64,
}

impl<N: KvNode> ShardCluster<N> {
    /// A cluster over caller-built nodes, one shard slot each
    /// (`cfg.shards` must equal `nodes.len()`).
    pub fn from_nodes(cfg: ShardConfig, nodes: Vec<N>) -> ShardCluster<N> {
        assert!(!nodes.is_empty(), "a cluster needs at least one shard");
        assert_eq!(cfg.shards, nodes.len(), "one node per configured shard");
        let mut ring = HashRing::new(VNODES);
        for idx in 0..nodes.len() {
            ring.add_shard(idx);
        }
        let shards = nodes
            .into_iter()
            .map(|node| Shard { node, active: true })
            .collect();
        ShardCluster {
            cfg,
            shards,
            ring,
            now_ns: 0,
        }
    }

    /// Shards currently taking traffic, ascending index order.
    pub fn active_shards(&self) -> Vec<usize> {
        (0..self.shards.len())
            .filter(|&i| self.shards[i].active)
            .collect()
    }

    /// Total shard slots ever created (including merged-away ones).
    pub fn total_shards(&self) -> usize {
        self.shards.len()
    }

    /// Whether shard `idx` is taking traffic.
    pub fn is_active(&self, idx: usize) -> bool {
        self.shards[idx].active
    }

    /// Cluster-logical simulated time, ns.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// The shard a key routes to.
    pub fn route(&self, key: &[u8]) -> usize {
        self.ring.route(key)
    }

    /// Direct access to shard `idx`'s node (tests, fault injection and
    /// the serve loop).
    pub fn node_mut(&mut self, idx: usize) -> &mut N {
        &mut self.shards[idx].node
    }

    /// Read access to shard `idx`'s node.
    pub fn node(&self, idx: usize) -> &N {
        &self.shards[idx].node
    }

    pub(crate) fn check_active(&self, idx: usize) -> Result<()> {
        if !self.shards[idx].active {
            return Err(Error::InvalidArgument(format!(
                "shard {idx} was merged away and takes no traffic"
            )));
        }
        Ok(())
    }

    /// Syncs every active shard forward to the cluster frontier and
    /// returns that start time — the prologue of cluster-wide phases.
    pub(crate) fn sync_all(&mut self) -> u64 {
        let mut start = self.now_ns;
        for idx in self.active_shards() {
            start = start.max(self.shards[idx].node.clock_ns());
        }
        for idx in self.active_shards() {
            self.shards[idx].node.advance_clock_to(start);
        }
        self.now_ns = start;
        start
    }

    // ----- routed single operations -----

    /// The active node `key` routes to.
    fn routed(&mut self, key: &[u8]) -> Result<&mut N> {
        let idx = self.route(key);
        self.check_active(idx)?;
        Ok(&mut self.shards[idx].node)
    }

    /// Inserts one key/value pair on its routed shard. Single-shard
    /// operations run on that shard's own clock (shards load and serve
    /// in parallel); only cluster-wide phases synchronise timelines.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        let mut b = WriteBatch::new();
        b.put(key, value);
        self.routed(key)?.write(b)
    }

    /// Point-reads a key from its routed shard.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.routed(key)?.get(key)
    }

    /// Deletes a key on its routed shard.
    pub fn delete(&mut self, key: &[u8]) -> Result<()> {
        let mut b = WriteBatch::new();
        b.delete(key);
        self.routed(key)?.write(b)
    }

    // ----- state inspection -----

    /// Every record resident on shard `idx`, key order, in one bulk read
    /// past the block cache ([`KvNode::scan_bulk`]). Paged user scans
    /// re-seek every sorted run at each page boundary, and under the
    /// segmented block cache they take hits on the blocks serving made
    /// hot, each of which breaks a device stream.
    pub(crate) fn resident_keys(&mut self, idx: usize) -> Result<Records> {
        self.shards[idx].node.scan_bulk()
    }

    /// Re-reads records `0..n` of `gen` through the router and counts
    /// keys whose routed shard no longer returns the generator value —
    /// the acked-key loss audit migration gates on.
    pub fn audit(&mut self, gen: &RecordGenerator, n: u64) -> Result<AuditReport> {
        let mut lost = 0u64;
        for i in 0..n {
            let key = gen.key(i);
            if self.get(&key)? != Some(gen.value(i)) {
                lost += 1;
            }
        }
        Ok(AuditReport { checked: n, lost })
    }
}

impl ShardCluster {
    /// Builds a cluster of `cfg.shards` fresh shard stores.
    pub fn new(cfg: ShardConfig) -> Result<ShardCluster> {
        let stores = (0..cfg.shards)
            .map(|idx| build_shard_store(&cfg, idx))
            .collect::<Result<Vec<Store>>>()?;
        Ok(ShardCluster::from_nodes(cfg, stores))
    }

    /// Random-order loads records `0..n` of `gen` through the router
    /// and flushes every shard. Returns the per-shard key placement.
    pub fn load(&mut self, gen: &RecordGenerator, n: u64) -> Result<Vec<u64>> {
        let mut placed = vec![0u64; self.shards.len()];
        for i in 0..n {
            let j = workloads::permute(i, n.max(1), self.cfg.seed);
            let key = gen.key(j);
            let idx = self.route(&key);
            self.check_active(idx)?;
            self.shards[idx].node.put(&key, &gen.value(j))?;
            placed[idx] += 1;
        }
        for idx in self.active_shards() {
            self.shards[idx].node.flush()?;
        }
        Ok(placed)
    }

    /// State hashes ([`Store::state_hash`]) of every active shard,
    /// ascending index order.
    pub fn state_hashes(&mut self) -> Result<Vec<u64>> {
        self.active_shards()
            .into_iter()
            .map(|idx| self.shards[idx].node.state_hash())
            .collect()
    }

    // ----- observability-driven placement -----

    /// The active shard under the most pressure, read off the per-shard
    /// observability bundles: routed operations served (router layer),
    /// write stalls, then write amplification break ties, and the
    /// lowest index wins exact ties — fully deterministic, so the
    /// split decision replays identically.
    fn hottest_shard(&self) -> usize {
        let mut best: Option<(u64, u64, u64, std::cmp::Reverse<usize>)> = None;
        let mut who = 0usize;
        for idx in self.active_shards() {
            let store = &self.shards[idx].node;
            let m = store.metrics_snapshot();
            let routed = m.obs.registry.counter(ObsLayer::Router, "ops");
            let s = store.stall_stats();
            let stalls = s.slowdown_count + s.stop_count + s.memtable_count;
            let wa_milli = (m.obs.registry.gauge(ObsLayer::Store, "wa") * 1000.0) as u64;
            let score = (routed, stalls, wa_milli, std::cmp::Reverse(idx));
            if best.is_none_or(|b| score > b) {
                best = Some(score);
                who = idx;
            }
        }
        who
    }

    /// Splits the hottest shard (per the obs gauges) onto a newly built
    /// shard store — [`ShardCluster::split`] with a deterministic
    /// victim choice.
    pub fn split_hottest(&mut self) -> Result<MigrationReport> {
        let from = self.hottest_shard();
        let store = build_shard_store(&self.cfg, self.total_shards())?;
        self.split(from, store)
    }

    /// Publishes the router-layer view of shard `idx` into its own obs
    /// bundle, namespaced by the store's instance label in exports.
    pub(crate) fn publish_router_obs(
        &mut self,
        idx: usize,
        ops: u64,
        write_calls: u64,
        depth_max: usize,
    ) {
        let ctx = self.shards[idx].node.db.ctx();
        let mut guard = ctx.lock();
        let obs = guard.fs.disk_mut().obs_mut();
        obs.counter_add(ObsLayer::Router, "ops", ops);
        obs.counter_add(ObsLayer::Router, "write_calls", write_calls);
        obs.gauge_set(ObsLayer::Router, "queue_depth_max", depth_max as f64);
    }
}

/// Builds shard `idx`'s store: own derived seed, instance label
/// `shard-{idx}` so per-shard metrics stay distinguishable.
fn build_shard_store(cfg: &ShardConfig, idx: usize) -> Result<Store> {
    let mut sc = StoreConfig::new(StoreKind::SealDb, cfg.sstable_size, cfg.disk_capacity);
    sc.seed = cfg
        .seed
        .wrapping_add((idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    sc = sc.with_instance(format!("shard-{idx}"));
    sc.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Keys currently resident on each shard slot (merged-away shards
    /// report 0).
    pub(crate) fn shard_key_counts<N: KvNode>(c: &mut ShardCluster<N>) -> Vec<u64> {
        let mut counts = vec![0u64; c.shards.len()];
        for idx in c.active_shards() {
            counts[idx] = c.resident_keys(idx).unwrap().len() as u64;
        }
        counts
    }

    const SST: u64 = 32 << 10;
    const CAP: u64 = 1 << 30;

    fn cluster(shards: usize) -> ShardCluster {
        ShardCluster::new(ShardConfig::new(shards, SST, CAP)).unwrap()
    }

    #[test]
    fn routed_ops_land_on_their_shard_and_read_back() {
        let mut c = cluster(4);
        let gen = RecordGenerator::new(16, 64, 7);
        for i in 0..300u64 {
            c.put(&gen.key(i), &gen.value(i)).unwrap();
        }
        for i in 0..300u64 {
            assert_eq!(c.get(&gen.key(i)).unwrap(), Some(gen.value(i)), "key {i}");
        }
        // Every shard took part of the keyspace.
        let counts = shard_key_counts(&mut c);
        assert!(counts.iter().all(|&n| n > 0), "placement {counts:?}");
        assert_eq!(counts.iter().sum::<u64>(), 300);
        // A delete routes to the same shard its put did.
        c.delete(&gen.key(5)).unwrap();
        assert_eq!(c.get(&gen.key(5)).unwrap(), None);
    }

    #[test]
    fn load_places_with_bounded_imbalance() {
        let mut c = cluster(4);
        let gen = RecordGenerator::new(16, 64, 7);
        let placed = c.load(&gen, 4000).unwrap();
        assert_eq!(placed.iter().sum::<u64>(), 4000);
        assert!(
            imbalance(&placed) <= 1.25,
            "load imbalance {:.3} over {placed:?}",
            imbalance(&placed)
        );
        assert_eq!(c.audit(&gen, 4000).unwrap().lost, 0);
    }

    #[test]
    fn shard_instances_namespace_metrics() {
        let c = cluster(2);
        assert_eq!(c.node(0).instance_name(), "shard-0");
        assert_eq!(c.node(1).instance_name(), "shard-1");
        let json = c.node(1).metrics_snapshot().to_json(0);
        assert!(json.contains("\"instance\":\"shard-1\""));
    }

    #[test]
    fn imbalance_math() {
        assert_eq!(imbalance(&[]), 1.0);
        assert_eq!(imbalance(&[0, 0]), 1.0);
        assert_eq!(imbalance(&[10, 10, 10]), 1.0);
        assert_eq!(imbalance(&[30, 10, 20]), 1.5);
    }

    /// A one-shard cluster is a bare store behind a router that always
    /// answers 0: same puts, same state.
    #[test]
    fn one_shard_cluster_hashes_like_a_bare_store() {
        let cfg = ShardConfig::new(1, SST, CAP);
        let mut bare = build_shard_store(&cfg, 0).unwrap();
        let mut c = ShardCluster::new(cfg).unwrap();
        let gen = RecordGenerator::new(16, 64, 7);
        for i in 0..1500u64 {
            c.put(&gen.key(i), &gen.value(i)).unwrap();
            bare.put(&gen.key(i), &gen.value(i)).unwrap();
            if i % 5 == 0 {
                c.delete(&gen.key(i / 2)).unwrap();
                bare.delete(&gen.key(i / 2)).unwrap();
            }
        }
        assert_eq!(c.state_hashes().unwrap(), [bare.state_hash().unwrap()]);
        assert_eq!(c.node(0).clock_ns(), bare.clock_ns());
    }

    #[test]
    fn same_seed_clusters_hash_identically() {
        let run = || {
            let mut c = cluster(3);
            let gen = RecordGenerator::new(16, 64, 9);
            c.load(&gen, 900).unwrap();
            c.state_hashes().unwrap()
        };
        assert_eq!(run(), run());
    }
}
