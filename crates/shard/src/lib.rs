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
//! * **Serving** — [`serve`] runs `seal-front`'s serve loop
//!   ([`seal_front::serve_queues`]) with one request queue per active
//!   shard and the ring as its router: same arrivals, group commit,
//!   degraded reads and idle background work as a single store, ties
//!   between shards broken by index.
//! * **Migration** — band-granular split of the hottest shard (chosen
//!   from the per-shard observability gauges) and merge of a retiring
//!   shard, moving keys in band-sized batches with a full audit trail.
//!
//! Every shard is an ordinary [`Store`] built from a [`StoreConfig`]
//! with an instance label (`shard-0`, `shard-1`, ...), so per-shard
//! metrics registries stay distinguishable when aggregated.

mod migrate;
mod ring;
mod serve;

pub use migrate::{MigrationKind, MigrationReport};
pub use ring::{fnv1a64, HashRing};
pub use serve::{serve, ClusterServeResult};

use lsm_core::{Error, Result};
use sealdb::{Store, StoreConfig, StoreKind};
use smr_sim::ObsLayer;
use workloads::RecordGenerator;

/// Configuration of one shard cluster.
#[derive(Clone, Debug)]
pub struct ShardConfig {
    /// Which store kind every shard runs.
    pub kind: StoreKind,
    /// Initial number of shards.
    pub shards: usize,
    /// SSTable size of every shard store.
    pub sstable_size: u64,
    /// Disk capacity of every shard store.
    pub disk_capacity: u64,
    /// Determinism seed; each shard derives its own store seed from it.
    pub seed: u64,
    /// Virtual nodes per shard on the routing ring.
    pub vnodes: usize,
}

impl ShardConfig {
    /// A SEALDB cluster of `shards` shards with 256 vnodes each.
    pub fn new(shards: usize, sstable_size: u64, disk_capacity: u64) -> Self {
        ShardConfig {
            kind: StoreKind::SealDb,
            shards,
            sstable_size,
            disk_capacity,
            seed: 0x5EA1_5AD5,
            vnodes: 256,
        }
    }

    /// Same configuration with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Band size at the paper's ratio (10 × SSTable) — the unit
    /// migration moves data in.
    pub fn band_size(&self) -> u64 {
        self.sstable_size * 10
    }
}

/// One cluster member: a store plus its routing liveness. A merged-away
/// shard keeps its (emptied) store so indices stay stable, but owns no
/// ring points and receives no traffic.
#[derive(Debug)]
struct Shard {
    store: Store,
    active: bool,
}

/// Result of re-reading every key the cluster has acknowledged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AuditReport {
    /// Keys checked against their routed shard.
    pub checked: u64,
    /// Keys whose routed shard no longer serves the promised value.
    pub lost: u64,
}

/// Cluster-wide rollup of every shard's recovery and scrub counters —
/// one snapshot of how much self-healing the deployment has done, in
/// the same gauge style [`Store::metrics_snapshot`] exports per store.
/// Built by [`ShardCluster::recovery_summary`]; the chaos oracle
/// asserts on its scrub accounting balance after composed-fault runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoverySummary {
    /// Shard slots summed (merged-away slots included — their stores
    /// still exist and may have recovered or scrubbed).
    pub shards: u64,
    /// WAL records replayed across all shards' most recent recoveries.
    pub wal_records_recovered: u64,
    /// WAL records skipped as torn or CRC-failed.
    pub wal_records_skipped: u64,
    /// WAL bytes dropped while resynchronising.
    pub wal_bytes_dropped: u64,
    /// Manifest records dropped after the first corrupt one.
    pub manifest_records_dropped: u64,
    /// Orphan data files reclaimed at recovery.
    pub orphan_files_dropped: u64,
    /// Files quarantined by reopen validation.
    pub recovery_files_quarantined: u64,
    /// Table bytes scrub has read and verified, lifetime.
    pub scrub_bytes_verified: u64,
    /// Blocks that failed their first checksum pass.
    pub scrub_blocks_corrupt: u64,
    /// Corrupt blocks recovered by single-bit correction.
    pub scrub_blocks_corrected: u64,
    /// Blocks lost outright.
    pub scrub_blocks_lost: u64,
    /// Files rebuilt onto healthy space.
    pub scrub_files_repaired: u64,
    /// Files dropped from a version as unrecoverable.
    pub scrub_files_quarantined: u64,
    /// Damaged extents fenced off the allocation path.
    pub scrub_extents_fenced: u64,
    /// Completed full scrub passes.
    pub scrub_full_passes: u64,
}

impl RecoverySummary {
    /// The rollup as stable `(gauge name, value)` pairs, declaration
    /// order — the export shape dashboards and artifacts consume.
    pub fn gauges(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("cluster_shards", self.shards),
            ("cluster_wal_records_recovered", self.wal_records_recovered),
            ("cluster_wal_records_skipped", self.wal_records_skipped),
            ("cluster_wal_bytes_dropped", self.wal_bytes_dropped),
            (
                "cluster_manifest_records_dropped",
                self.manifest_records_dropped,
            ),
            ("cluster_orphan_files_dropped", self.orphan_files_dropped),
            (
                "cluster_recovery_files_quarantined",
                self.recovery_files_quarantined,
            ),
            ("cluster_scrub_bytes_verified", self.scrub_bytes_verified),
            ("cluster_scrub_blocks_corrupt", self.scrub_blocks_corrupt),
            (
                "cluster_scrub_blocks_corrected",
                self.scrub_blocks_corrected,
            ),
            ("cluster_scrub_blocks_lost", self.scrub_blocks_lost),
            ("cluster_scrub_files_repaired", self.scrub_files_repaired),
            (
                "cluster_scrub_files_quarantined",
                self.scrub_files_quarantined,
            ),
            ("cluster_scrub_extents_fenced", self.scrub_extents_fenced),
            ("cluster_scrub_full_passes", self.scrub_full_passes),
        ]
    }

    /// Whether every corrupt block scrub found was accounted for: either
    /// corrected in place or declared lost (and its file repaired or
    /// quarantined). An imbalance means a block vanished from the books
    /// — one of the chaos oracle's invariants.
    pub fn scrub_accounting_balanced(&self) -> bool {
        self.scrub_blocks_corrupt == self.scrub_blocks_corrected + self.scrub_blocks_lost
    }
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

/// N independent store shards behind a consistent-hash router, on one
/// deterministic simulated timeline.
#[derive(Debug)]
pub struct ShardCluster {
    cfg: ShardConfig,
    shards: Vec<Shard>,
    ring: HashRing,
    /// Cluster-logical time: the latest completion frontier. Shard disk
    /// clocks are synced forward to this before cluster-wide phases.
    now_ns: u64,
}

impl ShardCluster {
    /// Builds a cluster of `cfg.shards` fresh shard stores.
    pub fn new(cfg: ShardConfig) -> Result<ShardCluster> {
        assert!(cfg.shards >= 1, "a cluster needs at least one shard");
        let mut ring = HashRing::new(cfg.vnodes);
        let mut shards = Vec::with_capacity(cfg.shards);
        for idx in 0..cfg.shards {
            let store = build_shard_store(&cfg, idx)?;
            ring.add_shard(idx);
            shards.push(Shard {
                store,
                active: true,
            });
        }
        Ok(ShardCluster {
            cfg,
            shards,
            ring,
            now_ns: 0,
        })
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ShardConfig {
        &self.cfg
    }

    /// The routing ring.
    pub fn ring(&self) -> &HashRing {
        &self.ring
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

    /// Direct access to shard `idx`'s store (tests and the serve loop).
    pub fn store_mut(&mut self, idx: usize) -> &mut Store {
        &mut self.shards[idx].store
    }

    /// Read access to shard `idx`'s store.
    pub fn store(&self, idx: usize) -> &Store {
        &self.shards[idx].store
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
            start = start.max(self.shards[idx].store.clock_ns());
        }
        for idx in self.active_shards() {
            self.shards[idx].store.advance_clock_to(start);
        }
        self.now_ns = start;
        start
    }

    // ----- routed single operations -----

    /// Inserts one key/value pair on its routed shard. Single-shard
    /// operations run on that shard's own clock (shards load and serve
    /// in parallel); only cluster-wide phases synchronise timelines.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        let idx = self.route(key);
        self.check_active(idx)?;
        self.shards[idx].store.put(key, value)
    }

    /// Point-reads a key from its routed shard.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let idx = self.route(key);
        self.check_active(idx)?;
        self.shards[idx].store.get(key)
    }

    /// Deletes a key on its routed shard.
    pub fn delete(&mut self, key: &[u8]) -> Result<()> {
        let idx = self.route(key);
        self.check_active(idx)?;
        self.shards[idx].store.delete(key)
    }

    /// Scatter-gather range scan: every active shard scans locally from
    /// `start`, and the cluster merges the fronts to the globally first
    /// `limit` keys.
    pub fn scan(&mut self, start: &[u8], limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut merged: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for idx in self.active_shards() {
            merged.extend(self.shards[idx].store.scan(start, limit)?);
        }
        merged.sort();
        merged.truncate(limit);
        Ok(merged)
    }

    // ----- bulk load -----

    /// Random-order loads records `0..n` of `gen` through the router
    /// and flushes every shard. Returns the per-shard key placement.
    pub fn load(&mut self, gen: &RecordGenerator, n: u64) -> Result<Vec<u64>> {
        let mut placed = vec![0u64; self.shards.len()];
        for i in 0..n {
            let j = workloads::permute(i, n.max(1), self.cfg.seed);
            let key = gen.key(j);
            let idx = self.route(&key);
            self.check_active(idx)?;
            self.shards[idx].store.put(&key, &gen.value(j))?;
            placed[idx] += 1;
        }
        for idx in self.active_shards() {
            self.shards[idx].store.flush()?;
        }
        Ok(placed)
    }

    // ----- state inspection -----

    /// Keys currently resident on each shard slot (paged scans;
    /// merged-away shards report 0).
    pub fn shard_key_counts(&mut self) -> Result<Vec<u64>> {
        let mut counts = vec![0u64; self.shards.len()];
        for idx in self.active_shards() {
            let mut start: Vec<u8> = Vec::new();
            loop {
                let page = self.shards[idx].store.scan(&start, 1024)?;
                counts[idx] += page.len() as u64;
                match page.last() {
                    Some((k, _)) if page.len() == 1024 => {
                        start = k.clone();
                        start.push(0);
                    }
                    _ => break,
                }
            }
        }
        Ok(counts)
    }

    /// FNV-1a digest of shard `idx`'s full key/value state — the
    /// per-shard fingerprint the determinism tests compare.
    pub fn state_hash(&mut self, idx: usize) -> Result<u64> {
        let store = &mut self.shards[idx].store;
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let fold = |h: &mut u64, bytes: &[u8]| {
            *h = (*h ^ bytes.len() as u64).wrapping_mul(0x100_0000_01b3);
            for &b in bytes {
                *h = (*h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        };
        let mut start: Vec<u8> = Vec::new();
        loop {
            let page = store.scan(&start, 1024)?;
            for (k, v) in &page {
                fold(&mut h, k);
                fold(&mut h, v);
            }
            match page.last() {
                Some((k, _)) if page.len() == 1024 => {
                    start = k.clone();
                    start.push(0);
                }
                _ => break,
            }
        }
        Ok(h)
    }

    /// State hashes of every active shard, ascending index order.
    pub fn state_hashes(&mut self) -> Result<Vec<u64>> {
        self.active_shards()
            .into_iter()
            .map(|idx| self.state_hash(idx))
            .collect()
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

    /// Rolls every shard's [`lsm_core::DbCore::recovery_report`] and
    /// scrub lifetime totals into one [`RecoverySummary`]. All shard
    /// slots are summed, merged-away ones included, so the rollup never
    /// loses healing history when the topology changes.
    pub fn recovery_summary(&self) -> RecoverySummary {
        let mut s = RecoverySummary::default();
        for shard in &self.shards {
            let db = &shard.store.db;
            let r = db.recovery_report();
            let sc = db.scrub_report();
            s.shards += 1;
            s.wal_records_recovered += r.wal_records_recovered;
            s.wal_records_skipped += r.wal_records_skipped;
            s.wal_bytes_dropped += r.wal_bytes_dropped;
            s.manifest_records_dropped += r.manifest_records_dropped;
            s.orphan_files_dropped += r.orphan_files_dropped;
            s.recovery_files_quarantined += r.files_quarantined;
            s.scrub_bytes_verified += sc.bytes_verified;
            s.scrub_blocks_corrupt += sc.blocks_corrupt;
            s.scrub_blocks_corrected += sc.blocks_corrected;
            s.scrub_blocks_lost += sc.blocks_lost;
            s.scrub_files_repaired += sc.files_repaired;
            s.scrub_files_quarantined += sc.files_quarantined;
            s.scrub_extents_fenced += sc.extents_fenced;
            s.scrub_full_passes += sc.full_passes;
        }
        s
    }

    // ----- observability-driven placement -----

    /// The active shard under the most pressure, read off the per-shard
    /// observability bundles: routed operations served (router layer),
    /// write stalls, then write amplification break ties, and the
    /// lowest index wins exact ties — fully deterministic, so the
    /// split decision replays identically.
    pub fn hottest_shard(&self) -> usize {
        let mut best: Option<(u64, u64, u64, std::cmp::Reverse<usize>)> = None;
        let mut who = 0usize;
        for idx in self.active_shards() {
            let store = &self.shards[idx].store;
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

    /// Publishes the router-layer view of shard `idx` into its own obs
    /// bundle, namespaced by the store's instance label in exports.
    pub(crate) fn publish_router_obs(
        &mut self,
        idx: usize,
        ops: u64,
        write_calls: u64,
        depth_max: usize,
    ) {
        let store = &mut self.shards[idx].store;
        let ctx = store.db.ctx();
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
    let mut sc = StoreConfig::new(cfg.kind, cfg.sstable_size, cfg.disk_capacity);
    sc.seed = cfg
        .seed
        .wrapping_add((idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    sc = sc.with_instance(format!("shard-{idx}"));
    sc.build()
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let counts = c.shard_key_counts().unwrap();
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
    fn scatter_gather_scan_merges_shards() {
        let mut c = cluster(3);
        let gen = RecordGenerator::new(16, 32, 3);
        for i in 0..200u64 {
            c.put(&gen.key(i), &gen.value(i)).unwrap();
        }
        let page = c.scan(b"", 50).unwrap();
        assert_eq!(page.len(), 50);
        // Globally sorted and globally first: a single-store oracle
        // loaded with the same records returns the same page.
        let mut oracle = StoreConfig::new(StoreKind::SealDb, SST, CAP)
            .build()
            .unwrap();
        for i in 0..200u64 {
            oracle.put(&gen.key(i), &gen.value(i)).unwrap();
        }
        assert_eq!(page, oracle.scan(b"", 50).unwrap());
    }

    #[test]
    fn shard_instances_namespace_metrics() {
        let c = cluster(2);
        assert_eq!(c.store(0).instance_name(), "shard-0");
        assert_eq!(c.store(1).instance_name(), "shard-1");
        let json = c.store(1).metrics_snapshot().to_json(0);
        assert!(json.contains("\"instance\":\"shard-1\""));
    }

    #[test]
    fn imbalance_math() {
        assert_eq!(imbalance(&[]), 1.0);
        assert_eq!(imbalance(&[0, 0]), 1.0);
        assert_eq!(imbalance(&[10, 10, 10]), 1.0);
        assert_eq!(imbalance(&[30, 10, 20]), 1.5);
    }

    #[test]
    fn recovery_summary_rolls_up_scrub_and_recovery_counters() {
        let mut c = cluster(3);
        let gen = RecordGenerator::new(16, 64, 7);
        c.load(&gen, 600).unwrap();
        // A clean cluster reads all-zero healing counters.
        let clean = c.recovery_summary();
        assert_eq!(clean.shards, 3);
        assert_eq!(clean.scrub_blocks_corrupt, 0);
        assert!(clean.scrub_accounting_balanced());
        // Narrow single-bit damage on shard 0, then a repairing scrub.
        {
            let store = c.store_mut(0);
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
                .corrupt_extent(smr_sim::Extent::new(ext.offset + 100, 8));
            let cfg = lsm_core::ScrubConfig {
                bytes_per_step: 1 << 20,
                repair: true,
            };
            store.scrub_full(&cfg).unwrap();
        }
        let s = c.recovery_summary();
        assert_eq!(s.shards, 3);
        assert!(s.scrub_bytes_verified > 0);
        assert!(s.scrub_blocks_corrupt > 0, "scrub must find the damage");
        assert!(
            s.scrub_blocks_corrected > 0,
            "single-bit damage must correct: {s:?}"
        );
        assert!(s.scrub_accounting_balanced(), "{s:?}");
        // Gauge export: stable names, values straight from the fields.
        let g = s.gauges();
        assert_eq!(g.len(), 15);
        assert_eq!(g[0], ("cluster_shards", 3));
        assert!(g
            .iter()
            .any(|&(n, v)| n == "cluster_scrub_blocks_corrected" && v == s.scrub_blocks_corrected));
        // The damage never reached acked data.
        assert_eq!(c.audit(&gen, 600).unwrap().lost, 0);
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
