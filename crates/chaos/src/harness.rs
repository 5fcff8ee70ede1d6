//! The chaos orchestrator and its end-to-end durability oracle.
//!
//! A [`ChaosHarness`] drives the composed stack as the type production
//! would use: a [`ShardCluster`](seal_shard::ShardCluster) whose shards
//! are replication groups (each a [`seal_replica::Cluster`] of
//! vlog-enabled SEALDB stores).
//! Client traffic goes through the cluster's router and migrations run
//! the cluster's own band-granular split/merge. Events from a
//! [`crate::ChaosEvent`] schedule are applied one by one on the shared
//! simulated timeline; the harness tracks every value it promised a
//! client in a global `promised` map.
//!
//! Faults only ever target the `cfg.groups` configured groups (the
//! generator's disruption-credit rule is keyed by that index). A
//! migration splits one of them onto an **extra slot** (index ≥
//! `cfg.groups`), and the next migration merges that slot away again,
//! so the configured groups stay put for the whole schedule.
//!
//! After the schedule, [`ChaosHarness::check`] runs the oracle:
//!
//! 1. **No acked loss** — every group's
//!    [`Cluster::audit`](seal_replica::Cluster::audit) must report zero
//!    acked writes that *no* survivor holds (a lagging or damaged
//!    primary is a repairable miss, not loss).
//! 2. **Routing durability** — every promised key must be served with
//!    its promised value by some live node of the group it currently
//!    routes to, across migrations (the vlog pointer path included:
//!    reads resolve through each node's own value log).
//! 3. **Survivor agreement** — live undamaged nodes of a group must
//!    agree on a full-state hash (nodes that took injected permanent
//!    device damage are excluded: quarantine legitimately sheds data
//!    locally, which is exactly what replicas are for).
//! 4. **Scrub accounting** — every corrupt block a scrubber found must
//!    be remediated: `corrected + lost + files_quarantined ≥ corrupt`.
//! 5. **Ordering audits** — in debug builds the per-store
//!    [`smr_sim::OrderingAuditor`] panics on any ack/durability/recycle
//!    ordering violation; a panic fails the run (and is what the
//!    shrinker minimizes on).
//!
//! Everything is deterministic: the same `(config, seed, schedule)`
//! produces byte-identical [`OracleReport`]s.

use std::collections::{BTreeMap, BTreeSet};

use lsm_core::{Result, ScrubReport, WriteBatch};
use seal_replica::{Cluster, ReplicaConfig, DETECT_TIMEOUT_NS};
use seal_shard::{ShardCluster, ShardConfig};
use sealdb::{Store, VlogParams};
use smr_sim::{ClusterFaultClass, DeviceFaultClass, Extent, FaultPlan};

use crate::schedule::ChaosEvent;

/// Number of distinct client keys the traffic model cycles over.
pub(crate) const KEYSPACE: u32 = 128;

/// Shape of one chaos run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Replication groups (the "shards" of the composed deployment).
    pub groups: usize,
    /// Replicas per group (each group runs `replicas + 1` nodes).
    pub replicas: usize,
    /// Schedule length the generator aims for.
    pub events: usize,
    /// SSTable size of every node store.
    pub sstable_size: u64,
    /// Disk capacity of every node store.
    pub disk_capacity: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            groups: 2,
            replicas: 2,
            events: 24,
            sstable_size: 32 << 10,
            disk_capacity: 1 << 30,
        }
    }
}

/// Which fault classes a run actually injected, by stable class name
/// (see [`DeviceFaultClass::name`] / [`ClusterFaultClass::name`]).
/// The CI smoke gate requires a minimum spread of classes so "chaos
/// passed" can never mean "chaos did nothing".
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Coverage {
    /// Injections per device fault class.
    pub device: BTreeMap<&'static str, u64>,
    /// Injections per cluster fault class.
    pub cluster: BTreeMap<&'static str, u64>,
}

impl Coverage {
    /// Records one device-fault injection.
    fn record_device(&mut self, class: DeviceFaultClass) {
        *self.device.entry(class.name()).or_insert(0) += 1;
    }

    /// Records one cluster-fault injection.
    fn record_cluster(&mut self, class: ClusterFaultClass) {
        *self.cluster.entry(class.name()).or_insert(0) += 1;
    }

    /// Folds another coverage tally into this one.
    pub fn merge(&mut self, other: &Coverage) {
        for (k, v) in &other.device {
            *self.device.entry(k).or_insert(0) += v;
        }
        for (k, v) in &other.cluster {
            *self.cluster.entry(k).or_insert(0) += v;
        }
    }
}

/// What the oracle concluded about one finished schedule. Violations
/// empty ⇒ the run upheld every invariant; anything else is a
/// reproducible bug (minimize it with the ddmin shrinker in the
/// `shrink` module's tests).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OracleReport {
    /// Replica groups in the run, extra migration slots included.
    pub(crate) groups: usize,
    /// Schedule events actually applied.
    pub events_applied: u64,
    /// Schedule events skipped as inapplicable (e.g. a kill with no
    /// live victim after shrinking removed its neighbours).
    pub events_skipped: u64,
    /// Acked client writes across all groups (per-group audit sets).
    pub acked_writes: u64,
    /// Acked keys some group's primary misserved but a survivor held —
    /// repairable inconsistency, not loss.
    pub primary_misses: u64,
    /// Acked keys no survivor of their group holds. Must be zero.
    pub acked_lost: u64,
    /// Promised keys the routing-level check verified.
    pub promised_checked: u64,
    /// Promised keys unreadable on every live node of their routed
    /// group. Must be zero.
    pub promised_lost: u64,
    /// Groups where ≥ 2 undamaged survivors were compared for
    /// state-hash agreement.
    pub hash_groups_checked: u64,
    /// Lifetime scrub counters summed over group primaries.
    pub scrub_blocks_corrupt: u64,
    /// Corrupt blocks recovered by correction or salvage relocation.
    pub scrub_blocks_corrected: u64,
    /// Blocks lost outright.
    pub scrub_blocks_lost: u64,
    /// Files or value-log segments quarantined.
    pub scrub_files_quarantined: u64,
    /// Failovers performed across all groups.
    pub failovers: u64,
    /// Fault classes injected.
    pub coverage: Coverage,
    /// Invariant violations, in detection order. Empty ⇒ pass.
    pub violations: Vec<String>,
}

/// The chaos orchestrator. Build with [`ChaosHarness::new`], drive
/// with [`ChaosHarness::run`] (one-shot: a harness serves one
/// schedule, then its oracle verdict).
#[derive(Debug)]
pub struct ChaosHarness {
    cfg: ChaosConfig,
    seed: u64,
    cluster: ShardCluster<Cluster>,
    /// The extra slot the last split created, until a merge retires it.
    extra: Option<usize>,
    /// Every value promised to a client, by key index (`None` = a
    /// promised deletion).
    promised: BTreeMap<u32, Option<Vec<u8>>>,
    /// Nodes excluded from state-hash agreement: they took injected
    /// permanent device damage (quarantine sheds data locally) or a
    /// write error left them ahead of the shipped frame stream.
    damaged: BTreeSet<(usize, usize)>,
    /// Per group slot, the latest scheduled partition heal bound.
    partition_end: Vec<u64>,
    /// Monotonic operation counter feeding key values and probes.
    seq: u64,
    coverage: Coverage,
    applied: u64,
    skipped: u64,
    violations: Vec<String>,
}

/// Runs `f` against the primary's device fault plan.
fn with_primary_faults<R>(c: &mut Cluster, f: impl FnOnce(&mut FaultPlan) -> R) -> R {
    let store = c.primary_store_mut();
    let ctx = store.db.ctx();
    let mut guard = ctx.lock();
    f(guard.fs.disk_mut().faults_mut())
}

/// The on-disk extent of the primary's largest live table, if any.
fn largest_table_extent(store: &mut Store) -> Option<Extent> {
    let version = store.db.current_version();
    let file = version
        .files
        .iter()
        .flatten()
        .max_by_key(|f| f.size)?
        .clone();
    store.db.ctx().lock().fs.file_extent(file.id).ok()
}

/// Flushes with retries (a transient read fault can fail the
/// compaction that rides along). True once a flush succeeded.
fn flush_with_retry(store: &mut Store) -> bool {
    for _ in 0..4 {
        if store.flush().is_ok() {
            return true;
        }
    }
    false
}

/// Runs repairing scrub steps on the group's primary until one full
/// pass completes, through the cluster so the sequence ranges value-log
/// salvage consumes reach the replicas. False if the pass could not be
/// driven to completion.
fn scrub_until_full_pass(c: &mut Cluster) -> bool {
    let before = c.primary_store_mut().scrub_report().full_passes;
    let mut errs = 0u32;
    for _ in 0..512 {
        if c.scrub_step(1 << 20).is_err() {
            // Transient read faults fail a step; the retried step
            // re-reads the same offsets and succeeds.
            errs += 1;
            if errs > 16 {
                return false;
            }
        }
        if c.primary_store_mut().scrub_report().full_passes > before {
            return true;
        }
    }
    false
}

/// Reads `key` on node `idx`, retrying through the transient-fault
/// budget (each distinct offset fails at most once).
fn get_with_retry(c: &mut Cluster, idx: usize, key: &[u8]) -> Result<Option<Vec<u8>>> {
    let mut got = c.get_of(idx, key);
    for _ in 0..3 {
        if got.is_err() {
            got = c.get_of(idx, key);
        }
    }
    got
}

/// Builds replication group `g`: own seed derived from the run's, every
/// node running key-value separation.
fn build_group(cfg: &ChaosConfig, seed: u64, g: usize) -> Result<Cluster> {
    let mut rc = ReplicaConfig::new(cfg.replicas, cfg.sstable_size, cfg.disk_capacity);
    rc.seed = crate::schedule::SplitMix::new(seed ^ (g as u64 + 1)).next_u64();
    Cluster::new(rc.with_vlog(VlogParams {
        segment_bytes: 32 << 10,
        value_threshold: 64,
    }))
}

/// Client key bytes for key index `idx`. The constant tail is for the
/// router's unfinalized FNV-1a, where a key's last bytes barely reach
/// the high bits the ring orders by: bare `k00042` keys put 108 of 128
/// on one group and a split of the other moved nothing.
fn key_bytes(idx: u32) -> Vec<u8> {
    format!("k{idx:05}-chaos").into_bytes()
}

/// Deterministic value payload for key `idx` at operation `seq` —
/// large enough to divert through the value log.
pub(crate) fn value_bytes(idx: u32, seq: u64) -> Vec<u8> {
    let mut v = format!("value-{idx:05}-{seq:010}-").into_bytes();
    v.resize(400, b'x');
    v
}

impl ChaosHarness {
    /// Builds `cfg.groups` fresh replication groups, each node running
    /// key-value separation, with per-group seeds derived from `seed`.
    pub fn new(cfg: ChaosConfig, seed: u64) -> Result<ChaosHarness> {
        assert!(cfg.groups >= 1, "a chaos run needs at least one group");
        let groups = (0..cfg.groups)
            .map(|g| build_group(&cfg, seed, g))
            .collect::<Result<Vec<Cluster>>>()?;
        let shard_cfg = ShardConfig::new(cfg.groups, cfg.sstable_size, cfg.disk_capacity);
        Ok(ChaosHarness {
            partition_end: vec![0; cfg.groups],
            cluster: ShardCluster::from_nodes(shard_cfg, groups),
            cfg,
            seed,
            extra: None,
            promised: BTreeMap::new(),
            damaged: BTreeSet::new(),
            seq: 0,
            coverage: Coverage::default(),
            applied: 0,
            skipped: 0,
            violations: Vec::new(),
        })
    }

    /// The group key index `idx` currently routes to.
    pub(crate) fn route(&self, idx: u32) -> usize {
        self.cluster.route(&key_bytes(idx))
    }

    /// Applies the whole schedule, then runs the oracle.
    pub fn run(&mut self, events: &[ChaosEvent]) -> Result<OracleReport> {
        for ev in events {
            self.apply_event(ev)?;
        }
        self.check()
    }

    /// Applies one event. Returns whether it was applicable (an event
    /// whose precondition vanished — e.g. a kill with no live victim
    /// after shrinking — is skipped, never an error).
    fn apply_event(&mut self, ev: &ChaosEvent) -> Result<bool> {
        let done = match *ev {
            ChaosEvent::WriteBurst { base, count } => self.ev_write_burst(base, count)?,
            ChaosEvent::TornWrite { group } => self.ev_torn_write(group % self.cfg.groups)?,
            ChaosEvent::CorruptExtent { group } => {
                self.ev_corrupt_extent(group % self.cfg.groups)?
            }
            ChaosEvent::TransientReads { group, n } => {
                self.ev_transient_reads(group % self.cfg.groups, n)?
            }
            ChaosEvent::UnrecoverableRead { group } => {
                self.ev_permanent_damage(group % self.cfg.groups, false)?
            }
            ChaosEvent::BandFailure { group } => {
                self.ev_permanent_damage(group % self.cfg.groups, true)?
            }
            ChaosEvent::FailSlow { group, mult } => {
                self.ev_fail_slow(group % self.cfg.groups, mult)?
            }
            ChaosEvent::Partition {
                group,
                pick,
                dur_ns,
            } => self.ev_partition(group % self.cfg.groups, pick, dur_ns)?,
            ChaosEvent::KillReplica { group, pick } => {
                self.ev_kill_replica(group % self.cfg.groups, pick)?
            }
            ChaosEvent::Revive { group } => self.ev_revive(group % self.cfg.groups)?,
            ChaosEvent::Failover { group } => self.ev_failover(group % self.cfg.groups)?,
            ChaosEvent::RestartPrimary { group } => {
                let g = group % self.cfg.groups;
                self.cluster.node_mut(g).restart_primary()?;
                true
            }
            ChaosEvent::GcDrain { group } => self.ev_gc_drain(group % self.cfg.groups)?,
            ChaosEvent::ScrubPass { group } => self.ev_scrub_pass(group % self.cfg.groups)?,
            ChaosEvent::Migrate { from } => self.ev_migrate(from % self.cfg.groups)?,
        };
        if done {
            self.applied += 1;
            if let Some(c) = ev.device_class() {
                self.coverage.record_device(c);
            }
            for &c in ev.cluster_classes() {
                self.coverage.record_cluster(c);
            }
        } else {
            self.skipped += 1;
        }
        Ok(done)
    }

    fn ev_write_burst(&mut self, base: u32, count: u32) -> Result<bool> {
        for i in 0..count {
            let idx = (base.wrapping_add(i)) % KEYSPACE;
            self.seq += 1;
            let key = key_bytes(idx);
            let delete = self.seq.is_multiple_of(7);
            let value = if delete {
                None
            } else {
                Some(value_bytes(idx, self.seq))
            };
            let res = match &value {
                None => self.cluster.delete(&key),
                Some(v) => self.cluster.put(&key, v),
            };
            if res.is_ok() {
                self.promised.insert(idx, value);
            }
            // A write error promises nothing, and the cluster keeps
            // primary and replicas convergent even then: a batch that
            // committed locally before maintenance failed still ships,
            // so there is no divergence to track here.
        }
        Ok(true)
    }

    fn ev_torn_write(&mut self, g: usize) -> Result<bool> {
        let c = self.cluster.node_mut(g);
        with_primary_faults(c, |f| f.tear_write_after(0));
        self.seq += 1;
        let probe_key = format!("torn-probe-{:08}", self.seq).into_bytes();
        let mut probe_value = format!("torn-{:08}-", self.seq).into_bytes();
        probe_value.resize(200, b't');
        let mut b = WriteBatch::new();
        b.put(&probe_key, &probe_value);
        let res = c.write_unacked(b);
        with_primary_faults(c, |f| f.disarm_torn_writes());
        c.restart_primary()?;
        if res.is_ok() {
            self.violations.push(format!(
                "group {g}: torn write was armed but the probe write succeeded"
            ));
        }
        // If the torn write hit a different device write than the
        // probe's own WAL record, recovery may legitimately resurrect
        // the probe on the primary; no replica ever saw it, so the
        // node leaves the survivor-agreement set.
        let p = c.primary_index();
        if get_with_retry(c, p, &probe_key)?.is_some() {
            self.damaged.insert((g, p));
        }
        Ok(true)
    }

    fn ev_corrupt_extent(&mut self, g: usize) -> Result<bool> {
        let c = self.cluster.node_mut(g);
        flush_with_retry(c.primary_store_mut());
        let Some(ext) = largest_table_extent(c.primary_store_mut()) else {
            return Ok(false);
        };
        if ext.len < 256 {
            return Ok(false);
        }
        // ≤ 64 damaged bytes ⇒ one flipped bit per overlapped 4 KiB
        // block ⇒ single-bit-correctable.
        with_primary_faults(c, |f| f.corrupt_extent(Extent::new(ext.offset + 100, 8)));
        let before = *c.primary_store_mut().scrub_report();
        let completed = scrub_until_full_pass(c);
        with_primary_faults(c, |f| f.clear_corruption());
        let after = *c.primary_store_mut().scrub_report();
        if !completed {
            self.violations.push(format!(
                "group {g}: repair scrub after corruption never finished a pass"
            ));
        }
        if after.blocks_corrupt == before.blocks_corrupt {
            self.violations.push(format!(
                "group {g}: planted corruption was not detected by scrub"
            ));
        } else if after.blocks_corrected == before.blocks_corrected
            && after.blocks_lost == before.blocks_lost
            && after.files_quarantined == before.files_quarantined
        {
            self.violations.push(format!(
                "group {g}: detected corruption was left unremediated"
            ));
        }
        if after.blocks_lost > before.blocks_lost
            || after.files_quarantined > before.files_quarantined
        {
            let p = c.primary_index();
            self.damaged.insert((g, p));
        }
        Ok(true)
    }

    fn ev_transient_reads(&mut self, g: usize, n: u64) -> Result<bool> {
        let budget = n.clamp(1, 3);
        let c = self.cluster.node_mut(g);
        with_primary_faults(c, |f| f.fail_reads_transiently(budget));
        // Absorb most of the budget right away with throwaway reads of
        // promised keys; whatever survives is soaked up by the retry
        // discipline every later read path uses.
        let keys: Vec<u32> = self
            .promised
            .keys()
            .copied()
            .filter(|&idx| self.route(idx) == g)
            .take(4)
            .collect();
        let c = self.cluster.node_mut(g);
        let p = c.primary_index();
        for _ in 0..2 {
            for &idx in &keys {
                let _ = c.get_of(p, &key_bytes(idx));
            }
        }
        Ok(true)
    }

    fn ev_permanent_damage(&mut self, g: usize, whole_band: bool) -> Result<bool> {
        let c = self.cluster.node_mut(g);
        flush_with_retry(c.primary_store_mut());
        let Some(ext) = largest_table_extent(c.primary_store_mut()) else {
            return Ok(false);
        };
        if ext.len < 4096 {
            return Ok(false);
        }
        with_primary_faults(c, |f| {
            if whole_band {
                f.fail_band(ext);
            } else {
                f.fail_reads_permanently(Extent::new(ext.offset + ext.len / 2, 16));
            }
        });
        let before = *c.primary_store_mut().scrub_report();
        let completed = scrub_until_full_pass(c);
        // The drive "remaps" the bad region once scrub has moved or
        // quarantined everything that lived there; the fenced extents
        // stay out of the allocator regardless.
        with_primary_faults(c, |f| f.clear_persistent_faults());
        let after = *c.primary_store_mut().scrub_report();
        let kind = if whole_band {
            "band failure"
        } else {
            "latent sector error"
        };
        if !completed {
            self.violations.push(format!(
                "group {g}: repair scrub after {kind} never finished a pass"
            ));
        }
        let remediated = after.blocks_lost > before.blocks_lost
            || after.files_repaired > before.files_repaired
            || after.files_quarantined > before.files_quarantined
            || after.blocks_corrected > before.blocks_corrected;
        if !remediated {
            self.violations.push(format!(
                "group {g}: planted {kind} left no trace in scrub accounting"
            ));
        }
        // Quarantine/repair may shed data on this node; replicas hold it.
        let p = c.primary_index();
        self.damaged.insert((g, p));
        Ok(true)
    }

    fn ev_fail_slow(&mut self, g: usize, mult: u64) -> Result<bool> {
        let c = self.cluster.node_mut(g);
        let ext =
            largest_table_extent(c.primary_store_mut()).unwrap_or_else(|| Extent::new(0, 1 << 20));
        with_primary_faults(c, |f| f.slow_reads(ext, mult.clamp(2, 16)));
        Ok(true)
    }

    fn live_replica_choices(c: &Cluster) -> Vec<usize> {
        let p = c.primary_index();
        (0..=c.config().replicas)
            .filter(|&i| i != p && c.alive(i))
            .collect()
    }

    fn ev_partition(&mut self, g: usize, pick: usize, dur_ns: u64) -> Result<bool> {
        let c = self.cluster.node_mut(g);
        let choices = Self::live_replica_choices(c);
        if choices.is_empty() {
            return Ok(false);
        }
        let node = choices[pick % choices.len()];
        let from = c.now_ns();
        let to = from + dur_ns.clamp(1_000_000, 200_000_000);
        c.net_mut().faults_mut().partition(node, from, to);
        self.partition_end[g] = self.partition_end[g].max(to);
        Ok(true)
    }

    fn ev_kill_replica(&mut self, g: usize, pick: usize) -> Result<bool> {
        let c = self.cluster.node_mut(g);
        let choices = Self::live_replica_choices(c);
        if choices.is_empty() {
            return Ok(false);
        }
        let node = choices[pick % choices.len()];
        c.kill_replica(node)?;
        Ok(true)
    }

    /// Heals group `g`: steps past its partition heal bound so frames
    /// buffered behind it drain (catch-up streaming then brings a
    /// rejoined node fully up to date), and rejoins every dead replica.
    /// A revive with nothing dead still healed partitions, so it always
    /// counts as applied.
    fn ev_revive(&mut self, g: usize) -> Result<bool> {
        let c = self.cluster.node_mut(g);
        let dt = self.partition_end[g].saturating_sub(c.now_ns()) + 5_000_000;
        c.advance_ns(dt)?;
        let p = c.primary_index();
        for i in 0..=c.config().replicas {
            if i != p && !c.alive(i) {
                c.rejoin(i)?;
                self.damaged.remove(&(g, i));
            }
        }
        Ok(true)
    }

    fn ev_failover(&mut self, g: usize) -> Result<bool> {
        let c = self.cluster.node_mut(g);
        let p = c.primary_index();
        let detect_end = c.now_ns() + DETECT_TIMEOUT_NS;
        let replicas = c.config().replicas;
        let promotable = (0..=replicas)
            .any(|i| i != p && c.alive(i) && !c.net_mut().faults().partitioned_at(i, detect_end));
        if !promotable {
            return Ok(false);
        }
        c.kill_primary()?;
        Ok(true)
    }

    fn ev_gc_drain(&mut self, g: usize) -> Result<bool> {
        let c = self.cluster.node_mut(g);
        flush_with_retry(c.primary_store_mut());
        let mut errs = 0u32;
        for _ in 0..64 {
            // The *cluster-level* GC step: it replicates the sequence
            // range the fixups consume, which store-level GC would leave
            // as a gap in every replica's stream.
            match c.vlog_gc_step(1 << 20) {
                Ok(true) => {}
                Ok(false) => break,
                Err(_) => {
                    errs += 1;
                    if errs > 4 {
                        break;
                    }
                }
            }
        }
        Ok(true)
    }

    fn ev_scrub_pass(&mut self, g: usize) -> Result<bool> {
        if !scrub_until_full_pass(self.cluster.node_mut(g)) {
            self.violations
                .push(format!("group {g}: scheduled scrub never finished a pass"));
        }
        Ok(true)
    }

    /// Runs the cluster's real migration: split `from` onto a freshly
    /// built extra slot, or — while an extra slot is live — merge it
    /// away again. A migration that errors is skipped: the cluster's
    /// failure-atomic order leaves every key served where it was.
    fn ev_migrate(&mut self, from: usize) -> Result<bool> {
        if let Some(slot) = self.extra {
            // A merge whose source deletes failed has still switched.
            let merged = self.cluster.merge_shard(slot);
            if !self.cluster.is_active(slot) {
                self.extra = None;
            }
            return Ok(merged.is_ok());
        }
        // Migration reads its movers back from the source primary. One
        // whose scrub quarantined a table has shed (or reverted) keys
        // locally, so it cannot be a source until a failover replaces it.
        let p = self.cluster.node(from).primary_index();
        if self.damaged.contains(&(from, p)) {
            return Ok(false);
        }
        let slot = self.cluster.total_shards();
        let group = build_group(&self.cfg, self.seed, slot)?;
        let split = self.cluster.split(from, group);
        if self.cluster.total_shards() > slot {
            self.partition_end.push(0);
            self.extra = Some(slot);
        }
        Ok(split.is_ok())
    }

    /// Runs the epilogue (heal, rejoin, settle, verification scrub)
    /// and the oracle. Consumes nothing: the harness can still be
    /// inspected afterwards, but `check` is meant to run once, after
    /// the full schedule.
    pub(crate) fn check(&mut self) -> Result<OracleReport> {
        let mut report = OracleReport {
            groups: self.cluster.total_shards(),
            events_applied: self.applied,
            events_skipped: self.skipped,
            coverage: self.coverage.clone(),
            violations: std::mem::take(&mut self.violations),
            ..OracleReport::default()
        };
        // Every slot, merged-away ones included: a retired group's
        // evacuation deletes are acked writes it must still hold.
        for g in 0..self.cluster.total_shards() {
            // 1. Clear injected device fault state (scrub already
            //    realized permanent damage as quarantine/repair when
            //    it was planted).
            with_primary_faults(self.cluster.node_mut(g), |f| {
                f.disarm_torn_writes();
                f.clear_corruption();
                f.clear_fail_slow();
                f.clear_persistent_faults();
            });
            // 2. Step past every scheduled partition heal bound so
            //    buffered frames drain, then rejoin the dead.
            self.ev_revive(g)?;
            let c = self.cluster.node_mut(g);
            c.settle()?;
            // 3. Verification scrub over tables and value log.
            if !scrub_until_full_pass(c) {
                report
                    .violations
                    .push(format!("group {g}: epilogue scrub never finished a pass"));
            }
            // 4. Durability: no acked write may be lost cluster-wide.
            let mut audit = c.audit();
            for _ in 0..4 {
                if audit.is_err() {
                    audit = c.audit();
                }
            }
            match audit {
                Ok(r) => {
                    report.acked_writes += r.acked_writes;
                    report.primary_misses += r.primary_misses;
                    report.acked_lost += r.acked_lost;
                    if r.acked_lost > 0 {
                        report.violations.push(format!(
                            "group {g}: {} acked writes lost on every survivor",
                            r.acked_lost
                        ));
                    }
                }
                Err(e) => report
                    .violations
                    .push(format!("group {g}: audit kept failing: {e}")),
            }
            // 5. Survivor agreement among undamaged live nodes.
            let mut hashes: Vec<(usize, u64)> = Vec::new();
            for i in 0..=c.config().replicas {
                if !c.alive(i) || self.damaged.contains(&(g, i)) {
                    continue;
                }
                for _ in 0..4 {
                    if let Ok(h) = c.state_hash_of(i) {
                        hashes.push((i, h));
                        break;
                    }
                }
            }
            if hashes.len() >= 2 {
                report.hash_groups_checked += 1;
                if hashes.iter().any(|&(_, h)| h != hashes[0].1) {
                    report.violations.push(format!(
                        "group {g}: survivor state hashes diverge: {hashes:?}"
                    ));
                }
            }
            // 6. Scrub accounting rollup.
            let s: ScrubReport = *c.primary_store_mut().scrub_report();
            report.scrub_blocks_corrupt += s.blocks_corrupt;
            report.scrub_blocks_corrected += s.blocks_corrected;
            report.scrub_blocks_lost += s.blocks_lost;
            report.scrub_files_quarantined += s.files_quarantined;
            report.failovers += c.stats.failovers;
        }
        // 7. Routing-level durability: the promised value must be
        //    served by some live node of the group the key routes to
        //    today, across any migrations.
        let expected: Vec<(u32, Option<Vec<u8>>)> =
            self.promised.iter().map(|(k, v)| (*k, v.clone())).collect();
        for (idx, want) in expected {
            let g = self.route(idx);
            let key = key_bytes(idx);
            let c = self.cluster.node_mut(g);
            let p = c.primary_index();
            let mut order = vec![p];
            order.extend((0..=c.config().replicas).filter(|&i| i != p));
            let mut held = false;
            for i in order {
                if !c.alive(i) {
                    continue;
                }
                if matches!(get_with_retry(c, i, &key), Ok(v) if v == want) {
                    held = true;
                    break;
                }
            }
            report.promised_checked += 1;
            if !held {
                report.promised_lost += 1;
            }
        }
        if report.promised_lost > 0 {
            report.violations.push(format!(
                "{} of {} promised keys unreadable on their routed group",
                report.promised_lost, report.promised_checked
            ));
        }
        // 8. Every corrupt block found must be remediated somewhere:
        //    corrected in place, counted lost, or quarantined with its
        //    file/segment.
        if report.scrub_blocks_corrected + report.scrub_blocks_lost + report.scrub_files_quarantined
            < report.scrub_blocks_corrupt
        {
            report.violations.push(format!(
                "scrub accounting leaks: corrupt={} > corrected={} + lost={} + quarantined={}",
                report.scrub_blocks_corrupt,
                report.scrub_blocks_corrected,
                report.scrub_blocks_lost,
                report.scrub_files_quarantined
            ));
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::generate;

    fn small() -> ChaosConfig {
        ChaosConfig {
            events: 16,
            ..ChaosConfig::default()
        }
    }

    #[test]
    fn generated_schedules_uphold_the_oracle() {
        for seed in 1..=3u64 {
            let cfg = small();
            let events = generate(seed, &cfg);
            let mut h = ChaosHarness::new(cfg, seed).unwrap();
            let report = h.run(&events).unwrap();
            assert!(
                report.violations.is_empty(),
                "seed {seed}: {:?}",
                report.violations
            );
            assert!(report.acked_writes > 0, "seed {seed} served no traffic");
            assert_eq!(report.acked_lost, 0);
            assert_eq!(report.promised_lost, 0);
        }
    }

    #[test]
    fn same_seed_same_schedule_same_report() {
        let cfg = small();
        let events = generate(11, &cfg);
        let r1 = ChaosHarness::new(cfg.clone(), 11)
            .unwrap()
            .run(&events)
            .unwrap();
        let r2 = ChaosHarness::new(cfg, 11).unwrap().run(&events).unwrap();
        assert_eq!(r1, r2);
    }

    fn loaded_harness() -> ChaosHarness {
        let cfg = ChaosConfig {
            events: 0,
            ..ChaosConfig::default()
        };
        let mut h = ChaosHarness::new(cfg, 5).unwrap();
        // Every key twice over: both groups flush a table past the 4 KiB
        // the permanent-damage events need.
        h.apply_event(&ChaosEvent::WriteBurst {
            base: 0,
            count: 256,
        })
        .unwrap();
        h
    }

    #[test]
    fn migrate_splits_then_merges_through_the_real_path() {
        let mut h = loaded_harness();
        let routes = |h: &ChaosHarness| (0..KEYSPACE).map(|i| h.route(i)).collect::<Vec<_>>();
        let before = routes(&h);
        assert!(h.apply_event(&ChaosEvent::Migrate { from: 0 }).unwrap());
        // The split built a third group and moved only group 0's keys.
        assert_eq!(h.cluster.total_shards(), 3);
        let split = routes(&h);
        assert!(split.contains(&2), "the extra slot owns no key");
        for (was, now) in before.iter().zip(&split) {
            assert!(now == was || (*was == 0 && *now == 2), "{was} -> {now}");
        }
        // Traffic reaches the extra slot, then the next migration —
        // whatever group it names — merges that slot away again.
        h.apply_event(&ChaosEvent::WriteBurst {
            base: 64,
            count: 96,
        })
        .unwrap();
        assert!(h.apply_event(&ChaosEvent::Migrate { from: 1 }).unwrap());
        assert!(!h.cluster.is_active(2));
        assert!(routes(&h).iter().all(|&g| g < 2));
        let report = h.check().unwrap();
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.groups, 3, "the retired slot is still audited");
        assert_eq!(report.promised_checked, u64::from(KEYSPACE));
        assert_eq!(report.promised_lost, 0);
    }

    #[test]
    fn migrate_is_skipped_while_the_source_primary_is_damaged() {
        let mut h = loaded_harness();
        let g = (0..2)
            .find(|&group| {
                h.apply_event(&ChaosEvent::UnrecoverableRead { group })
                    .unwrap()
            })
            .expect("no group holds a table large enough to damage");
        assert!(!h.apply_event(&ChaosEvent::Migrate { from: g }).unwrap());
        assert_eq!(h.cluster.total_shards(), 2);
        // A failover replaces the damaged primary: the group can split.
        assert!(h.apply_event(&ChaosEvent::Failover { group: g }).unwrap());
        assert!(h.apply_event(&ChaosEvent::Migrate { from: g }).unwrap());
        let report = h.check().unwrap();
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn composed_kill_partition_and_device_damage_pass_the_oracle() {
        // A hand-built worst-plausible composition: traffic, a replica
        // kill in group 0, a partition in group 1, permanent device
        // damage on group 0's primary, a failover in group 1 after its
        // partition heals, GC and scrub in the middle, migration under
        // the kill, then more traffic.
        let cfg = ChaosConfig {
            events: 0,
            ..ChaosConfig::default()
        };
        use ChaosEvent::*;
        let events = vec![
            WriteBurst {
                base: 0,
                count: 320,
            },
            KillReplica { group: 0, pick: 0 },
            Partition {
                group: 1,
                pick: 0,
                dur_ns: 20_000_000,
            },
            WriteBurst {
                base: 16,
                count: 48,
            },
            UnrecoverableRead { group: 0 },
            GcDrain { group: 0 },
            Migrate { from: 1 },
            Migrate { from: 0 },
            ScrubPass { group: 1 },
            Revive { group: 1 },
            Failover { group: 1 },
            TornWrite { group: 0 },
            WriteBurst {
                base: 40,
                count: 48,
            },
            Revive { group: 0 },
            Revive { group: 1 },
        ];
        let mut h = ChaosHarness::new(cfg, 99).unwrap();
        let report = h.run(&events).unwrap();
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.events_skipped, 0, "every composed event must apply");
        assert!(report.failovers >= 1);
        assert!(report.coverage.device.len() >= 2);
        assert!(report.coverage.cluster.len() >= 3);
    }
}
