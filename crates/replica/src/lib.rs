//! # seal-replica — deterministic primary/replica replication
//!
//! Runs one primary [`Store`] and N replica [`Store`]s on the shared
//! simulated clock, connected by a seeded [`NetModel`]. The primary
//! ships each committed batch's own bytes ([`WriteBatch::rep`]) as one
//! frame, and every replica decodes it ([`WriteBatch::decode`]) and
//! applies it through its own write path ([`Store::apply_replicated`]),
//! keeping the primary-assigned sequence numbers: a hot standby with a
//! tiny replay tail.
//!
//! Acked-write semantics are set by [`AckPolicy`]: under `Quorum(k)`, a
//! write returns only once `k` replicas hold its frame, so a primary
//! kill can lose no acked write (RPO = 0); under `PrimaryOnly`, frames
//! are shipped asynchronously in batches and a kill deterministically
//! loses the unshipped tail — the baseline the sweeps contrast against.
//!
//! Failover: detection timeout, a fencing round with the surviving
//! voters, promotion of the most-caught-up unpartitioned replica through
//! the crash-image recovery path (which replays only that node's own
//! WAL tail), and a client redirect modelled with `smr-sim`'s shared
//! bounded backoff. The old primary rejoins as a replica by catch-up
//! streaming of every batch shipped so far. [`Cluster::audit`] checks every
//! acked write against the primary and every survivor. Everything rides
//! the simulated clock: the same configuration and seed replays
//! byte-identically.

use lsm_core::{Error, Result, ScrubReport, ValueType, WriteBatch};
use sealdb::{AuditReport, GcShipment, KvNode, Store, StoreConfig, StoreKind, VlogParams};
use smr_sim::{bounded_backoff_ns, NetModel, ObsLayer};
use std::collections::BTreeMap;

/// Upper bound on modelled client redirect retries during one failover.
const MAX_CLIENT_RETRIES: u32 = 10_000;

/// Client redirect retry backoff base, ns; doubles per retry (see
/// [`smr_sim::bounded_backoff_ns`]).
const RETRY_BACKOFF_NS: u64 = 500_000;

/// Client redirect retry backoff cap, ns.
const RETRY_BACKOFF_MAX_NS: u64 = 8_000_000;

/// When a write is acknowledged to the client.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AckPolicy {
    /// Acked as soon as the primary's own WAL holds it; frames ship
    /// asynchronously in `ship_every` batches. A primary kill loses
    /// the unshipped tail.
    PrimaryOnly,
    /// Acked once `k` replicas hold the frame (and, by in-order
    /// delivery, every earlier frame — the prefix property that makes
    /// the most-caught-up replica hold every acked write).
    Quorum(usize),
}

impl AckPolicy {
    /// Stable lowercase name used in artifact cells.
    pub fn name(self) -> &'static str {
        match self {
            AckPolicy::PrimaryOnly => "primary",
            AckPolicy::Quorum(_) => "quorum",
        }
    }
}

/// Time from a primary kill to the cluster noticing it, ns.
pub const DETECT_TIMEOUT_NS: u64 = 10_000_000;

/// Configuration of one replication cluster.
#[derive(Clone, Debug)]
pub struct ReplicaConfig {
    /// Number of replicas (nodes are `0..=replicas`, node 0 is the
    /// initial primary).
    pub replicas: usize,
    /// When writes are acknowledged.
    pub ack: AckPolicy,
    /// Determinism seed for the network and every node store.
    pub seed: u64,
    /// SSTable size of every node store.
    pub(crate) sstable_size: u64,
    /// Disk capacity of every node store.
    pub(crate) disk_capacity: u64,
    /// Base one-way link latency, ns.
    pub link_latency_ns: u64,
    /// Under [`AckPolicy::PrimaryOnly`], ship after this many buffered
    /// writes.
    ship_every: usize,
    /// Key-value separation parameters for every node store; `None`
    /// stores values inline. The primary ships its *original* batch
    /// bytes and each node rewrites them through its own value log.
    pub(crate) vlog: Option<VlogParams>,
}

impl ReplicaConfig {
    /// A SEALDB cluster with `replicas` replicas and quorum-1 acks.
    pub fn new(replicas: usize, sstable_size: u64, disk_capacity: u64) -> Self {
        ReplicaConfig {
            replicas,
            ack: AckPolicy::Quorum(1),
            seed: 0x5EA1C1D5,
            sstable_size,
            disk_capacity,
            link_latency_ns: 1_000_000,
            ship_every: 8,
            vlog: None,
        }
    }

    /// Enables key-value separation on every node store.
    pub fn with_vlog(mut self, params: VlogParams) -> Self {
        self.vlog = Some(params);
        self
    }
}

/// Lifetime counters of one cluster run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Frames shipped onto the network.
    pub shipped_frames: u64,
    /// Total shipped frame bytes (per frame, not per link).
    pub shipped_bytes: u64,
    /// Failovers performed.
    pub failovers: u64,
}

/// What one failover cost, by phase. All times simulated ns.
#[derive(Clone, Copy, Debug)]
pub struct FailoverReport {
    /// Node index promoted to primary.
    pub promoted: usize,
    /// Recovery time objective actually measured: detection + fencing
    /// + replay + client redirect.
    pub rto_ns: u64,
    /// Detection timeout charged.
    pub detect_ns: u64,
    /// Fencing round trips with the surviving voters.
    pub fence_ns: u64,
    /// Replay of the promoted node's own WAL tail.
    pub replay_ns: u64,
    /// Client redirect round trip to the new primary.
    pub redirect_ns: u64,
    /// WAL records the promotion recovery replayed.
    pub replayed_records: u64,
    /// Bounded-backoff retries a redirected client issued while the
    /// new primary came up.
    pub client_retries: u64,
}

/// A frame delivered to (but not yet processed by) one replica.
#[derive(Debug)]
struct PendingFrame {
    /// Effective receive time: delivery, deferred behind earlier frames
    /// so application is always in shipping order.
    ready_ns: u64,
    /// The shipped batch's bytes, its sequence stamped.
    rep: Vec<u8>,
}

/// One cluster node: a store (None once killed) plus its receive state.
#[derive(Debug)]
struct Node {
    store: Option<Store>,
    /// Delivered-but-unprocessed frames, in shipping order.
    pending: BTreeMap<u64, PendingFrame>,
    /// Key for the next pending insertion (monotone).
    next_pending: u64,
    /// Effective receive time of the last frame shipped to this node —
    /// the in-order-delivery hold-back watermark.
    eff_tail: u64,
    /// Highest sequence this node holds durably.
    durable_seq: u64,
}

impl Node {
    fn fresh(store: Store) -> Node {
        Node {
            store: Some(store),
            pending: BTreeMap::new(),
            next_pending: 0,
            eff_tail: 0,
            durable_seq: 0,
        }
    }
}

/// A primary plus replicas on one simulated clock and network.
#[derive(Debug)]
pub struct Cluster {
    cfg: ReplicaConfig,
    nodes: Vec<Node>,
    primary: usize,
    net: NetModel,
    /// Cluster-logical time: the primary's acked frontier. Node disk
    /// clocks are synced forward to this before operating on them.
    now_ns: u64,
    /// Monotone message-id source for network sampling.
    msg_seq: u64,
    /// Every batch shipped so far, for rejoin catch-up streaming.
    history: Vec<Vec<u8>>,
    /// Batches acked under `PrimaryOnly` awaiting an async ship.
    unshipped: Vec<Vec<u8>>,
    /// Every acked key and the value the client was promised
    /// (`None` = deletion), for RPO audits.
    acked: BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    /// Lifetime counters.
    pub stats: ClusterStats,
}

impl Cluster {
    /// Builds a cluster of `cfg.replicas + 1` fresh stores; node 0 is
    /// the primary.
    pub fn new(cfg: ReplicaConfig) -> Result<Cluster> {
        assert!(cfg.replicas >= 1, "a cluster needs at least one replica");
        let net = NetModel::new(cfg.seed ^ 0x05EA_14E7, cfg.link_latency_ns);
        let mut cluster = Cluster {
            nodes: Vec::new(),
            primary: 0,
            net,
            now_ns: 0,
            msg_seq: 0,
            history: Vec::new(),
            unshipped: Vec::new(),
            acked: BTreeMap::new(),
            stats: ClusterStats::default(),
            cfg,
        };
        for i in 0..=cluster.cfg.replicas {
            let store = cluster.build_store(i)?;
            cluster.nodes.push(Node::fresh(store));
        }
        Ok(cluster)
    }

    fn build_store(&self, idx: usize) -> Result<Store> {
        let mut sc = StoreConfig::new(
            StoreKind::SealDb,
            self.cfg.sstable_size,
            self.cfg.disk_capacity,
        );
        sc.seed = self
            .cfg
            .seed
            .wrapping_add((idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        // An acked write must survive the node's own reopen.
        sc.sync_writes = true;
        match self.cfg.vlog {
            Some(params) => sc.with_vlog(params).build(),
            None => sc.build(),
        }
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ReplicaConfig {
        &self.cfg
    }

    /// Current primary node index.
    pub fn primary_index(&self) -> usize {
        self.primary
    }

    /// Cluster-logical simulated time, ns.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// The network model (schedule partitions here before driving load).
    pub fn net_mut(&mut self) -> &mut NetModel {
        &mut self.net
    }

    /// Direct access to the primary's store — the hook fault-injection
    /// tests use to plant device damage or run scrub steps mid-stream.
    pub fn primary_store_mut(&mut self) -> &mut Store {
        match self.nodes[self.primary].store.as_mut() {
            Some(s) => s,
            None => unreachable!("primary {} has no store", self.primary),
        }
    }

    /// True while node `idx` has a live store.
    pub fn alive(&self, idx: usize) -> bool {
        self.nodes[idx].store.is_some()
    }

    fn next_msg(&mut self) -> u64 {
        self.msg_seq += 1;
        self.msg_seq
    }

    /// Virtual node index used for client-side latency sampling.
    fn client_node(&self) -> usize {
        self.nodes.len()
    }

    /// Advances node `idx`'s disk clock to at least `t_ns`.
    fn sync_node_clock(&mut self, idx: usize, t_ns: u64) {
        if let Some(store) = self.nodes[idx].store.as_mut() {
            store.advance_clock_to(t_ns);
        }
    }

    // ----- write path -----

    /// Inserts one key/value pair under the configured ack policy.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        let mut b = WriteBatch::new();
        b.put(key, value);
        self.write_batch(b)
    }

    /// Applies a batch and returns once the ack policy is satisfied;
    /// the batch's entries are then recorded as promised to the client
    /// (the RPO audit set).
    fn write_batch(&mut self, batch: WriteBatch) -> Result<()> {
        self.write_inner(batch, true)
    }

    /// Applies and ships a batch but returns *before* the ack — an
    /// in-flight group commit. Its entries join no audit set: if the
    /// primary dies now, the batch may legitimately be lost, but it
    /// must be lost or kept atomically.
    pub fn write_unacked(&mut self, batch: WriteBatch) -> Result<()> {
        self.write_inner(batch, false)
    }

    fn write_inner(&mut self, mut batch: WriteBatch, record_ack: bool) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        // Opportunistically drain replica deliveries that are due.
        self.pump_all(self.now_ns)?;
        let p = self.primary;
        let (rep, entries, clock, written, committed) = {
            let store = self.live_store_at_now(p, "write")?;
            let first = store.last_sequence() + 1;
            batch.set_sequence(first);
            let last = first + u64::from(batch.count()) - 1;
            let rep = batch.rep().to_vec();
            let entries: Vec<(Vec<u8>, Option<Vec<u8>>)> = batch
                .iter()
                .map(|(_, ty, k, v)| {
                    let promised = match ty {
                        ValueType::Value => Some(v.to_vec()),
                        ValueType::Deletion => None,
                    };
                    (k.to_vec(), promised)
                })
                .collect();
            let written = store.write(batch);
            let committed = store.last_sequence() >= last;
            (rep, entries, store.clock_ns(), written, committed)
        };
        self.now_ns = self.now_ns.max(clock);
        if !committed {
            return written;
        }
        // The store commits (WAL + memtable, sequence advanced) before
        // background maintenance runs, so a write can error *after* the
        // batch is locally durable — e.g. a transient device fault
        // failing the triggered compaction. The client gets the error
        // either way, but a committed batch MUST still ship: replicas
        // refuse sequence gaps, so swallowing it would poison every
        // later frame and quietly diverge the primary from its replicas
        // (found by the chaos harness's composed-fault schedules).
        let shipped = match self.cfg.ack {
            AckPolicy::PrimaryOnly => {
                self.unshipped.push(rep);
                None
            }
            AckPolicy::Quorum(k) => Some((k.max(1), self.ship_rep(rep))),
        };
        // No ack was promised for a write that errored: it returns
        // without waiting for one (or flushing the async buffer).
        written?;
        match shipped {
            None => {
                if self.unshipped.len() >= self.cfg.ship_every.max(1) {
                    self.flush_unshipped();
                }
            }
            Some((need, mut acks)) => {
                if acks.len() < need {
                    return Err(Error::InvalidArgument(format!(
                        "ack policy needs {need} replica acks but only {} replicas can answer",
                        acks.len()
                    )));
                }
                acks.sort_unstable();
                self.now_ns = self.now_ns.max(acks[need - 1]);
            }
        }
        if record_ack {
            // Debug-build happens-before audit: every byte acked to the
            // client must already be durable on the primary (the cluster
            // runs `sync_writes`, so the WAL tail drains per write).
            if let Some(store) = self.nodes[p].store.as_mut() {
                store.ordering_ack();
            }
            for (k, v) in entries {
                self.acked.insert(k, v);
            }
        }
        Ok(())
    }

    fn live_replicas(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| i != self.primary && self.nodes[i].store.is_some())
            .collect()
    }

    /// Ships one committed batch's bytes to every live replica as one
    /// frame and keeps them for catch-up. Returns the ack arrival times
    /// that will eventually reach the primary (one per replica that can
    /// answer).
    fn ship_rep(&mut self, rep: Vec<u8>) -> Vec<u64> {
        self.stats.shipped_frames += 1;
        self.stats.shipped_bytes += rep.len() as u64;
        let p = self.primary;
        let send = self.now_ns;
        let mut acks = Vec::new();
        for r in self.live_replicas() {
            let msg = self.next_msg();
            let ack_msg = self.next_msg();
            let Some(d) = self.net.delivery_ns(p, r, msg, send) else {
                continue; // unreachable forever: no ack, no pending frame
            };
            let node = &mut self.nodes[r];
            // A frame is processable only after every earlier frame:
            // the receiver holds back out-of-order deliveries.
            let eff = node.eff_tail.max(d);
            node.eff_tail = eff;
            let key = node.next_pending;
            node.next_pending += 1;
            node.pending.insert(
                key,
                PendingFrame {
                    ready_ns: eff,
                    rep: rep.clone(),
                },
            );
            if let Some(a) = self.net.delivery_ns(r, p, ack_msg, eff) {
                acks.push(a);
            }
        }
        self.history.push(rep);
        acks
    }

    /// Ships everything in the async buffer (PrimaryOnly mode).
    fn flush_unshipped(&mut self) {
        for rep in std::mem::take(&mut self.unshipped) {
            self.ship_rep(rep);
        }
    }

    /// Runs one budgeted cooperative value-log GC step on the primary
    /// and replicates the sequence range its pointer fixups consumed.
    ///
    /// GC fixups go through the primary's unaccounted write path, so
    /// they advance the primary's sequence counter like any client
    /// write — but they carry *pointers into the primary's own value
    /// log*, which mean nothing on another node. Running store-level GC
    /// on a replicated primary therefore silently opens a sequence gap
    /// that makes every later shipped frame unappliable (the chaos
    /// harness found exactly this). This method closes the gap: it
    /// ships the relocated records' **original values**, stamped with
    /// the consumed sequence range; each replica's apply path rewrites
    /// them through its *own* value log, so logical state converges
    /// while pointers stay node-local. Shipping is best-effort (GC
    /// promises no client ack) — unreachable replicas catch up from
    /// the frame history on rejoin. Returns whether any GC work was
    /// done.
    ///
    /// A primary that has dropped a table ([`Store::tables_dropped`])
    /// runs no GC and ships nothing: the drop resurrected the older
    /// versions the table shadowed, GC's liveness check would find
    /// their pointers live, and the shipped stale values would
    /// overwrite every replica's good copy.
    pub fn vlog_gc_step(&mut self, budget_bytes: u64) -> Result<bool> {
        self.step_primary_shipping("run GC", |store| {
            if store.tables_dropped > 0 {
                return Ok((false, Vec::new()));
            }
            let shipment = store.vlog_gc_step_shipping(budget_bytes)?;
            Ok((shipment.is_some(), Vec::from_iter(shipment)))
        })
    }

    /// Runs one budgeted scrub step on the primary and replicates the
    /// sequence ranges its value-log salvage consumed. Salvage relocates
    /// a damaged segment's readable live records and writes pointer
    /// fixups exactly as a GC step does (see [`Cluster::vlog_gc_step`]),
    /// so a primary scrubbed directly through
    /// [`Cluster::primary_store_mut`] opens the same sequence gap.
    pub fn scrub_step(&mut self, budget_bytes: u64) -> Result<ScrubReport> {
        self.step_primary_shipping("scrub", |store| store.scrub_step_shipping(budget_bytes))
    }

    /// Runs a maintenance `step` on the primary, then ships every GC or
    /// salvage shipment it returned as one batch each, stamped with the
    /// first sequence its fixups consumed on the primary. Shipping is
    /// best-effort (no client ack was promised); the first shipment
    /// error surfaces only after every consumed range has shipped.
    fn step_primary_shipping<R>(
        &mut self,
        what: &str,
        step: impl FnOnce(&mut Store) -> Result<(R, Vec<GcShipment>)>,
    ) -> Result<R> {
        self.pump_all(self.now_ns)?;
        let store = self.live_store_at_now(self.primary, what)?;
        let (out, shipments) = step(store)?;
        let clock = store.clock_ns();
        self.now_ns = self.now_ns.max(clock);
        let mut first_error = None;
        for shipment in shipments {
            if !shipment.entries.is_empty() {
                let mut batch = WriteBatch::new();
                for (k, v) in &shipment.entries {
                    batch.put(k, v);
                }
                batch.set_sequence(shipment.first_seq);
                self.ship_rep(batch.rep().to_vec());
            }
            if let Some(e) = shipment.barrier_error {
                first_error.get_or_insert(e);
            }
        }
        match first_error {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }

    // ----- replica receive path -----

    /// Processes every delivery already due at the cluster clock. The
    /// write path does this opportunistically; call it before inspecting
    /// replica state mid-stream.
    pub fn settle(&mut self) -> Result<()> {
        self.pump_all(self.now_ns)
    }

    /// Advances the cluster clock by `dt_ns` and delivers everything
    /// that becomes due — how the chaos harness steps past a finite
    /// partition's heal bound so frames buffered behind it drain
    /// deterministically before the oracle runs.
    pub fn advance_ns(&mut self, dt_ns: u64) -> Result<()> {
        self.now_ns = self.now_ns.saturating_add(dt_ns);
        self.settle()
    }

    /// Reads `key` on node `idx` at the cluster clock — the per-survivor
    /// read path the chaos oracle uses to check a promised value against
    /// every live node, not just the primary. A dead node is an error.
    pub fn get_of(&mut self, idx: usize, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.live_store_at_now(idx, "read")?.get(key)
    }

    /// Processes every due delivery on every live replica up to `t_ns`.
    fn pump_all(&mut self, t_ns: u64) -> Result<()> {
        for r in self.live_replicas() {
            self.pump_node(r, t_ns)?;
        }
        Ok(())
    }

    /// Processes node `idx`'s pending frames with `ready_ns <= t_ns`,
    /// in shipping order.
    fn pump_node(&mut self, idx: usize, t_ns: u64) -> Result<()> {
        loop {
            let due = match self.nodes[idx].pending.first_key_value() {
                Some((&key, frame)) if frame.ready_ns <= t_ns => key,
                _ => break,
            };
            if let Some(frame) = self.nodes[idx].pending.remove(&due) {
                self.apply_frame(idx, frame)?;
            }
        }
        Ok(())
    }

    /// Applies one received frame on node `idx` at its ready time. A
    /// frame that does not decode, or whose sequence range the store
    /// refuses, is an error that leaves the node as it was; an empty
    /// batch changes nothing.
    fn apply_frame(&mut self, idx: usize, frame: PendingFrame) -> Result<()> {
        self.sync_node_clock(idx, frame.ready_ns);
        let node = &mut self.nodes[idx];
        let store = node
            .store
            .as_mut()
            .ok_or_else(|| Error::InvalidArgument(format!("frame delivered to dead node {idx}")))?;
        let batch = WriteBatch::decode(&frame.rep)?;
        if batch.is_empty() {
            return Ok(());
        }
        let seqs = batch.sequence_range();
        store.apply_replicated(batch)?;
        // The store refused a range `seqs` could not hold.
        node.durable_seq = node.durable_seq.max(seqs?.end - 1);
        Ok(())
    }

    // ----- failover -----

    /// Kills the current primary at the cluster clock and fails over:
    /// detection timeout, fencing with the surviving voters, promotion
    /// of the most-caught-up unpartitioned replica via the crash-image
    /// recovery path, and a modelled client redirect. Writes acked
    /// under `PrimaryOnly` that were still in the async ship buffer
    /// die with the primary.
    pub fn kill_primary(&mut self) -> Result<FailoverReport> {
        let kill_ns = self.now_ns;
        let old = self.primary;
        self.net.faults_mut().kill(old, kill_ns);
        self.nodes[old].store = None;
        self.nodes[old].pending.clear();
        self.unshipped.clear();
        self.stats.failovers += 1;
        self.failover(kill_ns)
    }

    /// Kills a non-primary node at the cluster clock: its store and any
    /// frames still in flight to it are gone. The cluster keeps serving
    /// as long as the ack policy can still be met; the node can come
    /// back later via [`Cluster::rejoin`].
    pub fn kill_replica(&mut self, idx: usize) -> Result<()> {
        if idx == self.primary {
            return Err(Error::InvalidArgument(format!(
                "node {idx} is the primary; use kill_primary for a failover"
            )));
        }
        if self.nodes[idx].store.is_none() {
            return Err(Error::InvalidArgument(format!(
                "node {idx} is already dead"
            )));
        }
        self.net.faults_mut().kill(idx, self.now_ns);
        self.nodes[idx].store = None;
        self.nodes[idx].pending.clear();
        Ok(())
    }

    /// Power-cycles the current primary in place: the store restarts
    /// from its durable on-disk state through the crash-image recovery
    /// path (WAL replay, manifest quarantine, value-log torn-tail
    /// scan), exactly as if the machine lost power and came back. The
    /// primary keeps its role — no failover, no fencing — so this
    /// models a fast reboot rather than a kill. Returns the number of
    /// WAL records recovery replayed.
    pub fn restart_primary(&mut self) -> Result<u64> {
        let p = self.primary;
        self.sync_node_clock(p, self.now_ns);
        let store = self.nodes[p].store.take().ok_or_else(|| {
            Error::InvalidArgument(format!("primary node {p} is dead; cannot restart"))
        })?;
        let store = store.reopen()?;
        let replayed = store.db.recovery_report().wal_records_recovered;
        self.now_ns = self.now_ns.max(store.clock_ns());
        self.nodes[p].store = Some(store);
        Ok(replayed)
    }

    fn failover(&mut self, kill_ns: u64) -> Result<FailoverReport> {
        let detect_ns = DETECT_TIMEOUT_NS;
        let detect_end = kill_ns + detect_ns;
        // Voters: live replicas reachable at detection time. A
        // partitioned replica cannot be fenced, so it cannot be
        // promoted — quorum acks guarantee some reachable replica
        // holds every acked write.
        let voters: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| {
                self.nodes[i].store.is_some() && !self.net.faults().partitioned_at(i, detect_end)
            })
            .collect();
        // Bring every voter up to date with deliveries due by now.
        for &v in &voters {
            self.pump_node(v, detect_end)?;
        }
        let candidate = voters
            .iter()
            .copied()
            .max_by_key(|&v| (self.nodes[v].durable_seq, std::cmp::Reverse(v)))
            .ok_or_else(|| {
                Error::InvalidArgument(format!(
                    "no promotable replica among {} nodes (all dead or partitioned)",
                    self.nodes.len()
                ))
            })?;
        // Fencing: two round trips with every other voter, so the old
        // epoch is sealed before the candidate serves.
        let mut fence_ns = 0u64;
        for &v in voters.iter().filter(|&&v| v != candidate) {
            let m1 = self.next_msg();
            let m2 = self.next_msg();
            let rtt = self.net.sample_latency_ns(candidate, v, m1)
                + self.net.sample_latency_ns(v, candidate, m2);
            fence_ns = fence_ns.max(2 * rtt);
        }
        let fence_end = detect_end + fence_ns;
        // Frames that land during detection + fencing still count.
        self.pump_node(candidate, fence_end)?;
        // Anything still in flight to the candidate is fenced off.
        self.nodes[candidate].pending.clear();
        // Promotion: the crash-image + recovery path, replaying only
        // the candidate's own WAL tail.
        self.sync_node_clock(candidate, fence_end);
        let store = self.nodes[candidate].store.take().ok_or_else(|| {
            Error::InvalidArgument(format!("candidate {candidate} lost its store mid-failover"))
        })?;
        let store = store.reopen()?;
        let replayed = store.db.recovery_report().wal_records_recovered;
        let replay_ns = store.clock_ns().saturating_sub(fence_end);
        // Client redirect: one round trip to the promoted node,
        // retried on seal-front's capped backoff while it came up.
        let client = self.client_node();
        let m3 = self.next_msg();
        let m4 = self.next_msg();
        let redirect_ns = self.net.sample_latency_ns(client, candidate, m3)
            + self.net.sample_latency_ns(candidate, client, m4);
        let rto_ns = detect_ns + fence_ns + replay_ns + redirect_ns;
        let mut waited = 0u64;
        let mut retries = 0u32;
        while waited < rto_ns && retries < MAX_CLIENT_RETRIES {
            waited += bounded_backoff_ns(RETRY_BACKOFF_NS, RETRY_BACKOFF_MAX_NS, retries);
            retries += 1;
        }
        {
            let mut guard = store.db.ctx().lock();
            let obs = guard.fs.disk_mut().obs_mut();
            obs.latency(ObsLayer::Replication, "rto_ns", rto_ns);
            obs.counter_add(ObsLayer::Replication, "failovers", 1);
            obs.counter_add(ObsLayer::Replication, "replayed_records", replayed);
            obs.counter_add(
                ObsLayer::Replication,
                "client_redirect_retries",
                u64::from(retries),
            );
        }
        self.nodes[candidate].store = Some(store);
        self.primary = candidate;
        self.now_ns = self.now_ns.max(kill_ns + rto_ns);
        Ok(FailoverReport {
            promoted: candidate,
            rto_ns,
            detect_ns,
            fence_ns,
            replay_ns,
            redirect_ns,
            replayed_records: replayed,
            client_retries: u64::from(retries),
        })
    }

    /// Rebuilds a killed node as a fresh replica and catches it up by
    /// streaming every batch shipped so far. Returns the frames streamed.
    pub fn rejoin(&mut self, idx: usize) -> Result<u64> {
        if self.nodes[idx].store.is_some() {
            return Err(Error::InvalidArgument(format!(
                "node {idx} is still alive; only killed nodes rejoin"
            )));
        }
        if idx == self.primary {
            return Err(Error::InvalidArgument(format!(
                "node {idx} is the primary slot; promote elsewhere first"
            )));
        }
        self.net.faults_mut().revive(idx);
        let mut node = Node::fresh(self.build_store(idx)?);
        node.eff_tail = self.now_ns;
        self.nodes[idx] = node;
        let frames = self.history.clone();
        let caught = frames.len() as u64;
        let ready_ns = self.now_ns;
        for rep in frames {
            self.apply_frame(idx, PendingFrame { ready_ns, rep })?;
        }
        Ok(caught)
    }

    // ----- audit -----

    /// Checks every acked write against the primary *and*, for keys the
    /// primary misserves, against every other live node. A key counts
    /// as lost only when **no** live store returns the promised value —
    /// the cluster-wide durability oracle the chaos harness asserts on:
    /// a lagging primary is a repairable inconsistency, but a key no
    /// survivor holds is unrecoverable acked-write loss. Quorum clusters
    /// must report zero loss after any single kill (RPO = 0);
    /// primary-only clusters lose the unshipped tail, on the primary and
    /// everywhere else.
    ///
    /// A node whose `get` *errors* counts as not holding the key — a
    /// degraded read (for example a fail-closed pointer chase into a
    /// quarantined value-log segment after media failure) is a miss on
    /// that node, not grounds to abort the audit: the question the
    /// oracle answers is whether any survivor still serves the value.
    pub fn audit(&mut self) -> Result<AuditReport> {
        self.pump_all(self.now_ns)?;
        let expected: Vec<(Vec<u8>, Option<Vec<u8>>)> = self
            .acked
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        let live: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| self.nodes[i].store.is_some())
            .collect();
        for &i in &live {
            self.sync_node_clock(i, self.now_ns);
        }
        let p = self.primary;
        let mut primary_misses = 0u64;
        let mut lost = 0u64;
        for (k, v) in expected {
            let on_primary = match self.nodes[p].store.as_mut() {
                Some(store) => store.get(&k).is_ok_and(|got| got == v),
                None => false,
            };
            if on_primary {
                continue;
            }
            primary_misses += 1;
            let mut held = false;
            for &i in live.iter().filter(|&&i| i != p) {
                let store = self.nodes[i].store.as_mut().expect("filtered live");
                if store.get(&k).is_ok_and(|got| got == v) {
                    held = true;
                    break;
                }
            }
            if !held {
                lost += 1;
            }
        }
        Ok(AuditReport {
            acked_writes: self.acked.len() as u64,
            primary_misses,
            acked_lost: lost,
        })
    }

    /// Order-independent FNV-1a digest of the primary's full key/value
    /// state — the cross-run promoted-state fingerprint determinism
    /// tests compare.
    pub fn state_hash(&mut self) -> Result<u64> {
        self.state_hash_of(self.primary)
    }

    /// [`Cluster::state_hash`] for an arbitrary live node — survivor
    /// agreement checks hash every caught-up node and compare.
    pub fn state_hash_of(&mut self, idx: usize) -> Result<u64> {
        self.live_store_at_now(idx, "hash")?.state_hash()
    }

    /// Node `idx`'s store with its disk clock synced to the cluster
    /// clock; a dead node is an error naming what could not be done.
    fn live_store_at_now(&mut self, idx: usize, what: &str) -> Result<&mut Store> {
        self.sync_node_clock(idx, self.now_ns);
        self.nodes[idx]
            .store
            .as_mut()
            .ok_or_else(|| Error::InvalidArgument(format!("node {idx} is dead; cannot {what}")))
    }
}

/// A replication group as one routable node: writes ack under the
/// group's policy, reads and scans are served by the current primary at
/// the cluster clock.
impl KvNode for Cluster {
    fn write(&mut self, batch: WriteBatch) -> Result<()> {
        self.write_batch(batch)
    }

    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.get_of(self.primary, key)
    }

    fn scan(&mut self, start: &[u8], limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.live_store_at_now(self.primary, "scan")?
            .scan(start, limit)
    }

    fn scan_bulk(&mut self) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.live_store_at_now(self.primary, "scan")?.scan_bulk()
    }

    fn clock_ns(&self) -> u64 {
        self.now_ns
    }

    fn advance_clock_to(&mut self, t_ns: u64) {
        self.now_ns = self.now_ns.max(t_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SST: u64 = 32 << 10;
    const CAP: u64 = 1 << 30;

    fn cfg(replicas: usize) -> ReplicaConfig {
        ReplicaConfig::new(replicas, SST, CAP)
    }

    fn key(i: u32) -> Vec<u8> {
        format!("key{i:05}").into_bytes()
    }

    fn value(i: u32) -> Vec<u8> {
        format!("value-{i:05}-{}", "x".repeat(80)).into_bytes()
    }

    fn load(c: &mut Cluster, from: u32, to: u32) {
        for i in from..to {
            c.put(&key(i), &value(i)).unwrap();
        }
    }

    #[test]
    fn quorum_replication_survives_primary_kill_with_zero_rpo() {
        let mut c = Cluster::new(cfg(2)).unwrap();
        load(&mut c, 0, 40);
        let r = c.kill_primary().unwrap();
        assert_ne!(r.promoted, 0, "a replica must take over");
        assert!(r.rto_ns > 0 && r.rto_ns >= r.detect_ns);
        // Survivable: the new primary keeps accepting writes.
        load(&mut c, 40, 60);
        let audit = c.audit().unwrap();
        assert_eq!(audit.acked_writes, 60);
        assert_eq!(
            (audit.primary_misses, audit.acked_lost),
            (0, 0),
            "quorum acks must make RPO zero"
        );
        // Reads on the promoted primary see pre-kill values.
        let got = c.primary_store_mut().get(&key(7)).unwrap();
        assert_eq!(got, Some(value(7)));
    }

    #[test]
    fn primary_only_acks_lose_the_unshipped_tail() {
        let mut conf = cfg(2);
        conf.ack = AckPolicy::PrimaryOnly;
        conf.ship_every = 8;
        let mut c = Cluster::new(conf).unwrap();
        // 21 writes: 16 ship in two batches, 5 die in the buffer.
        load(&mut c, 0, 21);
        c.kill_primary().unwrap();
        let audit = c.audit().unwrap();
        assert_eq!(audit.acked_writes, 21);
        assert_eq!(
            audit.primary_misses, 5,
            "async shipping must lose exactly the unshipped tail"
        );
    }

    #[test]
    fn rejoined_node_catches_up_and_is_promotable() {
        let mut c = Cluster::new(cfg(2)).unwrap();
        load(&mut c, 0, 20);
        let first = c.kill_primary().unwrap();
        load(&mut c, 20, 30);
        let caught = c.rejoin(0).unwrap();
        assert_eq!(caught, 30, "catch-up must stream the full history");
        assert_eq!(c.nodes[0].durable_seq, 30);
        load(&mut c, 30, 35);
        // Kill again: the rejoined node is now a legitimate candidate.
        let second = c.kill_primary().unwrap();
        assert_ne!(second.promoted, first.promoted);
        let audit = c.audit().unwrap();
        assert_eq!(audit.acked_writes, 35);
        assert_eq!((audit.primary_misses, audit.acked_lost), (0, 0));
    }

    #[test]
    fn rejoin_refuses_live_nodes() {
        let mut c = Cluster::new(cfg(1)).unwrap();
        load(&mut c, 0, 3);
        let err = c.rejoin(1).unwrap_err();
        assert!(format!("{err:?}").contains("still alive"));
    }

    // --- satellite 3: failover edge cases ---

    #[test]
    fn kill_during_group_commit_flush_is_atomic() {
        // In-flight group commit under async shipping: the whole batch
        // sits in the unshipped buffer, so the kill loses it whole.
        let mut conf = cfg(2);
        conf.ack = AckPolicy::PrimaryOnly;
        conf.ship_every = 100; // never auto-flush
        let mut c = Cluster::new(conf).unwrap();
        load(&mut c, 0, 5);
        let mut batch = WriteBatch::new();
        for i in 100..103 {
            batch.put(&key(i), &value(i));
        }
        c.write_unacked(batch).unwrap();
        c.kill_primary().unwrap();
        let present = (100..103)
            .filter(|&i| c.primary_store_mut().get(&key(i)).unwrap().is_some())
            .count();
        assert_eq!(present, 0, "an unshipped group commit dies whole");

        // Same in-flight batch under quorum shipping: it was already on
        // the wire, so the kill keeps it whole.
        let mut c = Cluster::new(cfg(2)).unwrap();
        load(&mut c, 0, 5);
        let mut batch = WriteBatch::new();
        for i in 100..103 {
            batch.put(&key(i), &value(i));
        }
        c.write_unacked(batch).unwrap();
        c.kill_primary().unwrap();
        let present = (100..103)
            .filter(|&i| c.primary_store_mut().get(&key(i)).unwrap().is_some())
            .count();
        assert_eq!(present, 3, "a shipped group commit survives whole");
    }

    #[test]
    fn kill_during_scrub_in_progress_loses_nothing_acked() {
        let mut c = Cluster::new(cfg(2)).unwrap();
        load(&mut c, 0, 40);
        // Damage a table on the primary and start (but do not finish)
        // a scrub: the kill lands mid-repair.
        {
            let store = c.primary_store_mut();
            store.flush().unwrap();
            let f = store
                .db
                .current_version()
                .files
                .iter()
                .flatten()
                .max_by_key(|f| f.size)
                .expect("flush left no tables")
                .clone();
            let ext = store.db.ctx().lock().fs.file_extent(f.id).unwrap();
            store
                .db
                .ctx()
                .lock()
                .fs
                .disk_mut()
                .faults_mut()
                .corrupt_extent(smr_sim::Extent::new(ext.offset + 100, 64));
            store.scrub_step(1).unwrap();
        }
        c.kill_primary().unwrap();
        // The replica never saw the primary's local damage or its
        // half-done repair; every acked write survives.
        let audit = c.audit().unwrap();
        assert_eq!(audit.acked_writes, 40);
        assert_eq!((audit.primary_misses, audit.acked_lost), (0, 0));
    }

    #[test]
    fn double_failover_under_quorum_acks_keeps_every_write() {
        let mut c = Cluster::new(cfg(2)).unwrap();
        load(&mut c, 0, 15);
        let first = c.kill_primary().unwrap();
        load(&mut c, 15, 25);
        let second = c.kill_primary().unwrap();
        assert_ne!(first.promoted, second.promoted);
        assert_eq!(c.stats.failovers, 2);
        let audit = c.audit().unwrap();
        assert_eq!(audit.acked_writes, 25);
        assert_eq!(
            (audit.primary_misses, audit.acked_lost),
            (0, 0),
            "quorum acks survive two failovers"
        );
    }

    #[test]
    fn partitioned_replica_is_never_promoted() {
        let mut c = Cluster::new(cfg(2)).unwrap();
        // Node 2 is cut off before any traffic and never heals.
        c.net_mut().faults_mut().partition(2, 0, u64::MAX);
        load(&mut c, 0, 20);
        assert_eq!(c.nodes[2].durable_seq, 0, "partitioned replica saw nothing");
        let r = c.kill_primary().unwrap();
        assert_eq!(
            r.promoted, 1,
            "a partitioned replica cannot win the election"
        );
        let audit = c.audit().unwrap();
        assert_eq!((audit.primary_misses, audit.acked_lost), (0, 0));
    }

    #[test]
    fn all_replicas_gone_is_a_refused_failover() {
        let mut c = Cluster::new(cfg(1)).unwrap();
        c.net_mut().faults_mut().partition(1, 0, u64::MAX);
        // Quorum writes cannot even ack.
        let err = c.put(&key(0), &value(0)).unwrap_err();
        assert!(format!("{err:?}").contains("replica acks"));
        let err = c.kill_primary().unwrap_err();
        assert!(format!("{err:?}").contains("no promotable replica"));
    }

    #[test]
    fn vlog_cluster_replicates_kills_and_fails_over_losslessly() {
        // Key-value separation on every node: values large enough to
        // divert, shipped as original bytes and rewritten through each
        // node's own log.
        let conf = cfg(2).with_vlog(sealdb::VlogParams {
            segment_bytes: 32 << 10,
            value_threshold: 64,
        });
        let mut c = Cluster::new(conf).unwrap();
        for i in 0..40u32 {
            c.put(&key(i), &vec![(i % 250) as u8; 1024]).unwrap();
        }
        c.settle().unwrap();
        // Caught-up nodes agree on full state, pointer chases included.
        let h1 = c.state_hash_of(1).unwrap();
        let h2 = c.state_hash_of(2).unwrap();
        assert_eq!(h1, h2, "caught-up replicas must hash identically");
        assert_eq!(c.state_hash().unwrap(), h1);
        // Failover: the promoted replica serves every diverted value.
        c.kill_primary().unwrap();
        let audit = c.audit().unwrap();
        assert_eq!(audit.acked_writes, 40);
        assert_eq!(
            (audit.primary_misses, audit.acked_lost),
            (0, 0),
            "vlog values must survive failover"
        );
        let got = c.primary_store_mut().get(&key(11)).unwrap();
        assert_eq!(got.as_deref(), Some(vec![11u8; 1024].as_slice()));
    }

    #[test]
    fn cluster_gc_ships_fixup_sequences_and_replicas_stay_convergent() {
        // Value-log GC writes pointer fixups through the primary's
        // unaccounted write path, consuming sequence numbers. The
        // cluster-level GC step must replicate that range (as original
        // values, rewritten through each replica's own log) — running
        // store-level GC instead would leave a sequence gap that makes
        // every later frame unappliable. The same holds when GC finds
        // its victim damaged and salvages it instead of draining it.
        for damaged in [false, true] {
            let conf = cfg(2).with_vlog(sealdb::VlogParams {
                segment_bytes: 8 << 10,
                value_threshold: 64,
            });
            let mut c = Cluster::new(conf).unwrap();
            // Several overwrite rounds: sealed segments fill with dead
            // records, leaving live survivors for GC to relocate.
            for round in 0..6u32 {
                for i in 0..40u32 {
                    c.put(&key(i), &vec![(round + 1) as u8; 512]).unwrap();
                }
            }
            c.primary_store_mut().flush().unwrap();
            if damaged {
                // 532-byte records, 15 to a segment: segment 13 holds
                // five dead records, then the live keys 0..=9. Flipped
                // bits in its eleventh record leave keys 0..=4 to
                // salvage and lose keys 5..=9 on the primary.
                let ctx = c.primary_store_mut().db.ctx();
                let mut guard = ctx.lock();
                let seg = guard.fs.file_extent(lsm_core::VLOG_FILE_BASE + 13).unwrap();
                guard
                    .fs
                    .disk_mut()
                    .faults_mut()
                    .corrupt_extent(smr_sim::Extent::new(seg.offset + 5500, 8));
            }
            let before = c.primary_store_mut().last_sequence();
            let mut steps = 0u32;
            while c.vlog_gc_step(1 << 20).unwrap() {
                steps += 1;
                assert!(steps < 256, "GC never drained");
            }
            let after = c.primary_store_mut().last_sequence();
            assert_eq!(
                after - before,
                if damaged { 5 } else { 10 },
                "fixups for the live records GC could read"
            );
            // Later writes still apply everywhere and the nodes agree on
            // the full logical state — the fixup range shipped cleanly.
            for i in 100..110u32 {
                c.put(&key(i), &value(i)).unwrap();
            }
            c.advance_ns(50_000_000).unwrap();
            let last = c.primary_store_mut().last_sequence();
            assert_eq!(c.nodes[1].durable_seq, last);
            let h1 = c.state_hash_of(1).unwrap();
            assert_eq!(h1, c.state_hash_of(2).unwrap());
            if damaged {
                // The primary fails closed on what it lost; the replicas
                // still serve it, so the audit counts misses, not loss.
                assert!(c.get_of(0, &key(7)).is_err());
                let audit = c.audit().unwrap();
                assert_eq!((audit.primary_misses, audit.acked_lost), (5, 0));
            } else {
                assert_eq!(h1, c.state_hash_of(0).unwrap());
            }
        }
    }

    #[test]
    fn a_primary_that_dropped_a_table_runs_no_shipping_gc() {
        // A table scrub cannot repair leaves the tree, and the older
        // versions it shadowed read again. GC on that primary would find
        // their pointers live and ship the stale values over every
        // replica's good copy, so the cluster step does nothing there.
        let conf = cfg(2).with_vlog(sealdb::VlogParams {
            segment_bytes: 8 << 10,
            value_threshold: 64,
        });
        let mut c = Cluster::new(conf).unwrap();
        for round in 0..6u32 {
            for i in 0..40u32 {
                c.put(&key(i), &vec![(round + 1) as u8; 512]).unwrap();
            }
        }
        let primary = c.primary_store_mut();
        primary.flush().unwrap();
        assert!(primary.vlog_gc_pending(), "overwrites leave GC work");
        let table = {
            let version = primary.db.current_version();
            let file = version
                .files
                .iter()
                .flatten()
                .max_by_key(|f| f.size)
                .cloned();
            file.expect("the flush wrote a table")
        };
        let ctx = primary.db.ctx().clone();
        let ext = ctx.lock().fs.file_extent(table.id).unwrap();
        ctx.lock()
            .fs
            .disk_mut()
            .faults_mut()
            .fail_reads_permanently(ext);
        let mut steps = 0;
        while c.primary_store_mut().scrub_report().files_quarantined == 0 {
            c.scrub_step(1 << 20).unwrap();
            steps += 1;
            assert!(steps < 64, "scrub never dropped the unreadable table");
        }
        ctx.lock()
            .fs
            .disk_mut()
            .faults_mut()
            .clear_persistent_faults();
        let before = c.primary_store_mut().last_sequence();
        let shipped = [c.nodes[1].durable_seq, c.nodes[2].durable_seq];
        assert!(
            !c.vlog_gc_step(1 << 20).unwrap(),
            "no GC on a damaged primary"
        );
        assert_eq!(c.primary_store_mut().last_sequence(), before);
        c.advance_ns(50_000_000).unwrap();
        assert_eq!([c.nodes[1].durable_seq, c.nodes[2].durable_seq], shipped);
        assert!(c.primary_store_mut().vlog_gc_pending(), "the garbage stays");
    }

    #[test]
    fn cluster_scrub_ships_salvage_sequences_and_replicas_stay_convergent() {
        // A scrub that finds a damaged value-log segment salvages its
        // readable live records through the same relocate-and-fixup path
        // GC uses, consuming sequence numbers on the primary. Scrubbing
        // through the cluster ships that range, so later frames still
        // apply on every replica.
        let conf = cfg(2).with_vlog(sealdb::VlogParams {
            segment_bytes: 8 << 10,
            value_threshold: 64,
        });
        let mut c = Cluster::new(conf).unwrap();
        for round in 0..6u32 {
            for i in 0..40u32 {
                c.put(&key(i), &vec![(round + 1) as u8; 512]).unwrap();
            }
        }
        // 532-byte records, 15 to a segment: sealed segment 13 holds five
        // dead records, then keys 0..=9. Overwriting keys 5..=9 leaves
        // its live records in front of the bits flipped in its eleventh
        // record, so salvage relocates keys 0..=4 and loses nothing live.
        for i in 5..10u32 {
            c.put(&key(i), &vec![7u8; 512]).unwrap();
        }
        c.primary_store_mut().flush().unwrap();
        {
            let ctx = c.primary_store_mut().db.ctx();
            let mut guard = ctx.lock();
            let seg = guard.fs.file_extent(lsm_core::VLOG_FILE_BASE + 13).unwrap();
            guard
                .fs
                .disk_mut()
                .faults_mut()
                .corrupt_extent(smr_sim::Extent::new(seg.offset + 5500, 8));
        }
        let before = c.primary_store_mut().last_sequence();
        let passes = c.primary_store_mut().scrub_report().full_passes;
        let mut corrected = 0;
        while c.primary_store_mut().scrub_report().full_passes == passes {
            corrected += c.scrub_step(1 << 20).unwrap().blocks_corrected;
        }
        assert_eq!(corrected, 5, "salvage relocates the five live records");
        assert_eq!(c.primary_store_mut().last_sequence() - before, 5);
        for i in 100..110u32 {
            c.put(&key(i), &value(i)).unwrap();
        }
        c.advance_ns(50_000_000).unwrap();
        let last = c.primary_store_mut().last_sequence();
        assert_eq!(c.nodes[1].durable_seq, last);
        assert_eq!(c.nodes[2].durable_seq, last);
        let h0 = c.state_hash_of(0).unwrap();
        assert_eq!(h0, c.state_hash_of(1).unwrap());
        assert_eq!(h0, c.state_hash_of(2).unwrap());
    }

    #[test]
    fn killed_replica_rejoins_and_catches_up() {
        let mut c = Cluster::new(cfg(2)).unwrap();
        load(&mut c, 0, 10);
        c.kill_replica(2).unwrap();
        assert!(!c.alive(2));
        // Quorum(1) still holds with one live replica.
        load(&mut c, 10, 25);
        let caught = c.rejoin(2).unwrap();
        assert_eq!(caught, 25, "catch-up streams the full history");
        c.settle().unwrap();
        assert_eq!(c.state_hash_of(2).unwrap(), c.state_hash().unwrap());
        // Guards: no killing the primary slot, no double kill.
        let err = c.kill_replica(c.primary_index()).unwrap_err();
        assert!(format!("{err:?}").contains("kill_primary"));
        c.kill_replica(2).unwrap();
        let err = c.kill_replica(2).unwrap_err();
        assert!(format!("{err:?}").contains("already dead"));
    }

    #[test]
    fn restart_primary_recovers_in_place_and_keeps_acked_writes() {
        let mut c = Cluster::new(cfg(2)).unwrap();
        load(&mut c, 0, 30);
        let before = c.primary_index();
        let replayed = c.restart_primary().unwrap();
        assert_eq!(c.primary_index(), before, "a restart is not a failover");
        assert_eq!(c.stats.failovers, 0);
        let _ = replayed; // sync_writes: the tail may already be in tables
        let audit = c.audit().unwrap();
        assert_eq!(audit.acked_writes, 30);
        assert_eq!(
            (audit.primary_misses, audit.acked_lost),
            (0, 0),
            "power-cycle must lose nothing acked"
        );
        // Still a functional primary afterwards.
        load(&mut c, 30, 35);
        let audit = c.audit().unwrap();
        assert_eq!((audit.primary_misses, audit.acked_lost), (0, 0));
    }

    #[test]
    fn audit_distinguishes_lagging_primary_from_true_loss() {
        // PrimaryOnly + a kill: the unshipped tail is truly lost — no
        // live node holds it — so every primary miss is a loss. (A
        // primary that lost keys its replicas still hold counts them as
        // misses only: see the damaged GC case above.)
        let mut conf = cfg(2);
        conf.ack = AckPolicy::PrimaryOnly;
        conf.ship_every = 8;
        let mut c = Cluster::new(conf).unwrap();
        load(&mut c, 0, 21);
        c.kill_primary().unwrap();
        let audit = c.audit().unwrap();
        assert_eq!(audit.acked_writes, 21);
        assert_eq!(audit.primary_misses, 5);
        assert_eq!(audit.acked_lost, 5, "an unshipped tail is lost everywhere");
        // Quorum acks: nothing is ever lost anywhere.
        let mut c = Cluster::new(cfg(2)).unwrap();
        load(&mut c, 0, 21);
        c.kill_primary().unwrap();
        let audit = c.audit().unwrap();
        assert_eq!(audit.acked_lost, 0);
        assert_eq!(audit.primary_misses, 0);
    }

    #[test]
    fn committed_but_errored_write_still_ships_and_keeps_replicas_convergent() {
        // A device fault can fail the compaction a write triggers
        // *after* the batch committed (WAL + memtable, sequence
        // advanced). The client sees the error, but the batch must
        // still ship: replicas refuse sequence gaps, so a swallowed
        // committed batch would poison every later frame. Transient
        // read faults are retried inside the filestore, so the trigger
        // here is a *persistent* read fault on a flushed table — the
        // first compaction that reads it fails.
        let mut c = Cluster::new(cfg(2)).unwrap();
        load(&mut c, 0, 10);
        {
            let store = c.primary_store_mut();
            store.flush().unwrap();
            let version = store.db.current_version();
            let file = version
                .files
                .iter()
                .flatten()
                .max_by_key(|f| f.size)
                .unwrap()
                .clone();
            let ext = store.db.ctx().lock().fs.file_extent(file.id).unwrap();
            store
                .db
                .ctx()
                .lock()
                .fs
                .disk_mut()
                .faults_mut()
                .fail_reads_permanently(smr_sim::Extent::new(ext.offset + 64, 16));
        }
        // Overwrite the damaged table's key range so it overlaps every
        // later flush and a compaction must read it.
        let mut failed = 0u32;
        for i in 10..2000 {
            if c.put(&key(i % 50), &value(i)).is_err() {
                failed += 1;
            }
        }
        assert!(failed > 0, "no write tripped over the damaged table");
        c.primary_store_mut()
            .db
            .ctx()
            .lock()
            .fs
            .disk_mut()
            .faults_mut()
            .clear_persistent_faults();
        // The stream stays healthy: later writes succeed and every
        // surviving node agrees on the full logical state, including
        // the committed-but-errored batches.
        load(&mut c, 1200, 1210);
        c.settle().unwrap();
        let h0 = c.state_hash_of(0).unwrap();
        assert_eq!(h0, c.state_hash_of(1).unwrap());
        assert_eq!(h0, c.state_hash_of(2).unwrap());
        let audit = c.audit().unwrap();
        assert_eq!(audit.acked_lost, 0);
    }

    #[test]
    fn a_bad_or_empty_frame_leaves_the_replica_as_it_was() {
        let mut c = Cluster::new(cfg(1)).unwrap();
        load(&mut c, 0, 5);
        c.settle().unwrap();
        let state = |c: &mut Cluster| {
            let seq = c.nodes[1].store.as_ref().unwrap().last_sequence();
            (c.nodes[1].durable_seq, seq)
        };
        let before = state(&mut c);
        assert_eq!(before, (5, 5));
        let mut empty_at_the_end = WriteBatch::new();
        empty_at_the_end.set_sequence(u64::MAX);
        let mut overflowing = WriteBatch::new();
        overflowing.put(b"k", b"v");
        overflowing.put(b"k2", b"v2");
        overflowing.set_sequence(u64::MAX);
        let mut past_max = overflowing.clone();
        past_max.set_sequence(lsm_core::types::MAX_SEQUENCE);
        let frames = [
            (b"not a batch".to_vec(), false),
            (vec![0xFF; 40], false),
            (overflowing.rep().to_vec(), false),
            (past_max.rep().to_vec(), false),
            (WriteBatch::new().rep().to_vec(), true),
            (empty_at_the_end.rep().to_vec(), true),
        ];
        for (rep, harmless) in frames {
            let ready_ns = c.now_ns();
            let applied = c.apply_frame(1, PendingFrame { ready_ns, rep });
            assert_eq!(applied.is_ok(), harmless, "{applied:?}");
            assert_eq!(state(&mut c), before);
        }
        // The stream goes on: the next real frame applies.
        load(&mut c, 5, 6);
        c.settle().unwrap();
        assert_eq!(state(&mut c), (6, 6));
    }

    #[test]
    fn same_seed_replays_identically() {
        let run = || {
            let mut c = Cluster::new(cfg(2)).unwrap();
            load(&mut c, 0, 25);
            let r = c.kill_primary().unwrap();
            load(&mut c, 25, 30);
            c.rejoin(0).unwrap();
            load(&mut c, 30, 33);
            (r.rto_ns, c.now_ns(), c.state_hash().unwrap())
        };
        assert_eq!(run(), run());
    }
}
