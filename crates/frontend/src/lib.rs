//! # seal-front — a deterministic multi-client serving front-end
//!
//! The paper's db_bench-style experiments measure one client issuing
//! operations back to back, so latency is pure service time. A serving
//! deployment looks different: many clients, an offered load that does
//! not care how fast the store is, a queue in front of the disk, and
//! background compaction competing with foreground requests. This crate
//! models that as a discrete-event simulation on the store's *simulated*
//! clock — no threads, no wall time, so a (config, seed) pair always
//! produces byte-identical results.
//!
//! There is one serve loop, [`serve_queues`]: one FIFO request queue per
//! store, a routing function from key to queue, and the next event
//! always the queue that can start serving its head earliest.
//! [`run_serve`] is that loop with a single queue; the shard router
//! (`seal-shard`) is the same loop with one queue per shard.
//!
//! The moving pieces, each borrowed from LevelDB's serving machinery:
//!
//! * **Virtual clients** issue YCSB-mix operations either *open-loop*
//!   (seeded Poisson arrivals at a target rate, [`ArrivalProcess`]) or
//!   *closed-loop* (wait for completion, think, reissue).
//! * **Group commit** — writes waiting in the queue behind a serving
//!   write are merged into its batch (`BuildBatchGroup`): one WAL
//!   append, one sync, one contiguous sequence range for the group.
//! * **Write backpressure** — the store runs in deferred-compaction
//!   mode, so L0 slowdown/stop triggers and memtable-full stalls hit
//!   the serving path exactly as they would a real writer, and the
//!   front-end drives [`sealdb::Store::compact_until`] during idle gaps,
//!   standing in for the background compaction thread (which the store
//!   itself also runs while a slowed-down writer sleeps).

use lsm_core::{Result, StallStats, WriteBatch};
use sealdb::Store;
use smr_sim::{bounded_backoff_ns, ObsLayer};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use workloads::{ArrivalProcess, InterArrival, OpStream, RecordGenerator, WorkloadSpec, YcsbOp};

/// Configuration of one serving run.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Number of virtual clients.
    pub(crate) clients: usize,
    /// Total operations to serve across all clients.
    pub(crate) total_ops: u64,
    /// Records preloaded into the store (the YCSB keyspace).
    pub(crate) record_count: u64,
    /// Operation mix and key distribution.
    pub(crate) spec: WorkloadSpec,
    /// Traffic shape (per client).
    pub(crate) arrival: ArrivalProcess,
    /// Seed for every RNG stream the run owns.
    pub(crate) seed: u64,
    /// Group-commit size cap in batch wire bytes (LevelDB: 1 MiB).
    pub max_group_bytes: usize,
    /// In-request retries for a read — point get or range scan — that
    /// errors (latent sector error, corrupt block). Each retry waits
    /// `retry_backoff_ns` (then doubling) of simulated time before
    /// reissuing.
    pub read_retries: u32,
    /// Backoff before the first read retry, ns; doubles per retry up to
    /// [`ServeConfig::retry_backoff_max_ns`].
    pub(crate) retry_backoff_ns: u64,
    /// Cap on the doubling retry backoff, ns: long fault bursts (or a
    /// replication failover holding reads off) must not balloon a
    /// single wait past the sweep horizon. Values below
    /// `retry_backoff_ns` clamp up to it.
    pub(crate) retry_backoff_max_ns: u64,
    /// Failed operations a client tolerates before giving up and
    /// abandoning the rest of its operations (degraded-mode SLO: a
    /// client facing a broken shard walks away rather than hammering
    /// it). Failed reads are served empty either way.
    pub client_error_budget: u64,
    /// When non-zero, idle gaps also run one scrub step with this byte
    /// budget, so repair proceeds under load in the space compaction
    /// leaves over. Zero disables in-flight scrubbing.
    idle_scrub_bytes: u64,
    /// When non-zero and the store has a value log, idle gaps also run
    /// one cooperative GC step with this byte budget
    /// ([`sealdb::Store::vlog_gc_step`]), standing in for the value
    /// log's background GC thread the same way idle compaction steps
    /// stand in for the compaction thread. Zero disables in-flight vlog
    /// GC.
    pub idle_vlog_gc_bytes: u64,
}

impl ServeConfig {
    /// A serving run with the default group cap.
    pub fn new(
        spec: WorkloadSpec,
        arrival: ArrivalProcess,
        clients: usize,
        total_ops: u64,
        record_count: u64,
    ) -> Self {
        ServeConfig {
            clients,
            total_ops,
            record_count,
            spec,
            arrival,
            seed: 0x5EA1F007,
            max_group_bytes: 1 << 20,
            read_retries: 2,
            retry_backoff_ns: 500_000,
            retry_backoff_max_ns: 8_000_000,
            client_error_budget: 64,
            idle_scrub_bytes: 0,
            idle_vlog_gc_bytes: 0,
        }
    }

    /// Same run with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Exact latency summary from a complete sample vector (the obs layer's
/// histograms are bucketed; serving percentiles are reported exactly).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean, ns.
    pub mean_ns: f64,
    /// Median, ns.
    pub p50_ns: u64,
    /// 95th percentile, ns.
    pub p95_ns: u64,
    /// 99th percentile, ns.
    pub p99_ns: u64,
    /// Maximum, ns.
    pub max_ns: u64,
}

impl LatencySummary {
    /// Summarises a sample slice (sorted in place, nearest-rank
    /// percentiles).
    fn from_samples(samples: &mut [u64]) -> Self {
        if samples.is_empty() {
            return LatencySummary::default();
        }
        samples.sort_unstable();
        let n = samples.len();
        let rank = |q: f64| -> u64 {
            let idx = ((n as f64 * q).ceil() as usize).clamp(1, n) - 1;
            samples[idx]
        };
        let sum: u128 = samples.iter().map(|&v| u128::from(v)).sum();
        LatencySummary {
            count: n as u64,
            mean_ns: sum as f64 / n as f64,
            p50_ns: rank(0.50),
            p95_ns: rank(0.95),
            p99_ns: rank(0.99),
            max_ns: samples[n - 1],
        }
    }
}

/// Everything one serving run measured.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServeResult {
    /// Display name of the store served.
    pub(crate) store: &'static str,
    /// Operations completed.
    pub ops: u64,
    /// Simulated duration of the serving phase, ns.
    pub sim_ns: u64,
    /// Completed operations per simulated second.
    pub throughput_ops_per_sec: f64,
    /// End-to-end latency (arrival → completion): queueing + service.
    pub latency: LatencySummary,
    /// Queueing delay alone (arrival → service start).
    pub queue_delay: LatencySummary,
    /// Deepest request queue observed at a service start.
    pub queue_depth_max: usize,
    /// Mean queue depth over service starts.
    pub queue_depth_mean: f64,
    /// `Store::write` calls issued (each is one WAL append + sync).
    pub write_calls: u64,
    /// Write operations carried by those calls (≥ `write_calls`; the
    /// ratio is the group-commit amortisation factor).
    pub write_ops: u64,
    /// Largest write group merged.
    pub max_group_len: usize,
    /// Largest committed group in wire bytes. Never exceeds
    /// [`ServeConfig::max_group_bytes`] unless a single oversized batch
    /// committed alone (merging must not overshoot the cap; a lone batch
    /// bigger than the cap still commits).
    pub max_group_wire: usize,
    /// Write stalls during the serving phase only.
    pub stalls: StallStats,
    /// Background compaction steps run in idle gaps.
    pub idle_compactions: u64,
    /// Point reads that found their key.
    pub hits: u64,
    /// Point reads that missed.
    pub misses: u64,
    /// Reads (point or scan) that succeeded only after at least one
    /// in-request retry (the request was served, but degraded).
    degraded_reads: u64,
    /// Reads (point or scan) that exhausted their retry budget and were
    /// served empty: a point read as a miss, a scan with no rows.
    pub failed_reads: u64,
    /// Files the in-flight scrubber repaired during idle gaps.
    repaired_in_flight: u64,
    /// Value-log GC steps run in idle gaps.
    pub vlog_gc_steps: u64,
    /// Background steps (GC, compaction, scrub) that failed in an idle
    /// gap. A background error never ends the run: the foreground meets
    /// the same fault on its own path, where reads degrade gracefully
    /// and a write error still surfaces.
    idle_errors: u64,
    /// Operations abandoned by clients that blew their error budget.
    pub abandoned_ops: u64,
    /// Clients that gave up before issuing all their operations.
    clients_abandoned: u64,
}

impl ServeResult {
    /// Mean write operations per WAL commit (1.0 = no grouping).
    pub fn avg_group_size(&self) -> f64 {
        if self.write_calls == 0 {
            0.0
        } else {
            self.write_ops as f64 / self.write_calls as f64
        }
    }
}

/// One operation, decided at admission so queued writes are visible to
/// group commit.
enum Op {
    Get(Vec<u8>),
    Write(WriteBatch),
    Scan(Vec<u8>, usize),
    Rmw(Vec<u8>, Vec<u8>),
}

impl Op {
    /// Materialises a drawn operation into key/value bytes.
    fn build(gen: &RecordGenerator, op: YcsbOp) -> Op {
        match op {
            YcsbOp::Read(i) => Op::Get(gen.key(i)),
            YcsbOp::Update(i) | YcsbOp::Insert(i) => {
                let mut b = WriteBatch::new();
                b.put(&gen.key(i), &gen.value(i));
                Op::Write(b)
            }
            YcsbOp::Scan(i, len) => Op::Scan(gen.key(i), len),
            YcsbOp::Rmw(i) => Op::Rmw(gen.key(i), gen.value(i)),
        }
    }

    /// The key that routes this operation to a queue.
    fn route_key(&self) -> &[u8] {
        match self {
            Op::Get(k) | Op::Scan(k, _) | Op::Rmw(k, _) => k,
            Op::Write(b) => b.iter().next().map_or(&[], |(_, _, k, _)| k),
        }
    }
}

/// A request sitting in one store's queue.
struct Request {
    arrival_ns: u64,
    client: usize,
    op: Op,
}

/// What the degraded read path observed for one read.
struct ReadOutcome<T> {
    value: T,
    /// Served, but only after at least one retry.
    retried: bool,
    /// Retry budget exhausted; served empty (a miss, or no rows).
    failed: bool,
}

impl<T> ReadOutcome<T> {
    /// Counts this read into `r`'s degraded / failed tallies and returns
    /// the failure events it adds to its operation.
    fn tally(&self, r: &mut ServeResult) -> u32 {
        r.degraded_reads += u64::from(self.retried);
        r.failed_reads += u64::from(self.failed);
        u32::from(self.failed)
    }
}

/// Whether merging `next` into the group led by `head` keeps the merged
/// batch within `cap` wire bytes. Checked *before* appending, so a group
/// never overshoots the cap; the merged size charges `next` its body
/// bytes only (the group shares the leader's 12-byte header). A head
/// batch already at or past the cap simply admits no followers — it
/// still commits, alone. Shared by `seal-front`'s serve loop and the
/// shard router's per-shard group commit.
fn group_fits(head: &WriteBatch, next: &WriteBatch, cap: usize) -> bool {
    head.byte_size() + next.body_bytes() <= cap
}

/// Per-client error-budget accounting with *at-most-once-per-op*
/// failure counting.
///
/// An operation can fail at more than one point in its life — a
/// failover redirect that times out *and* a read that then exhausts
/// its retry budget. Charging the client once per failure point
/// double-counts the op and trips the budget early (the historical
/// serve-loop accounting charged each site separately); this helper
/// pins the contract that one operation costs at most one unit of
/// budget no matter how many ways it failed.
#[derive(Clone, Debug)]
pub(crate) struct ClientBudget {
    /// Failure budget per client; a client at or past it gives up.
    budget: u64,
    /// Failed-op tally per client.
    failures: Vec<u64>,
    /// Clients that already gave up (latched).
    gave_up: Vec<bool>,
}

impl ClientBudget {
    /// A fresh accountant for `clients` clients with the given budget
    /// (floored at 1, like the serve loop always did).
    pub(crate) fn new(clients: usize, budget: u64) -> Self {
        ClientBudget {
            budget: budget.max(1),
            failures: vec![0; clients],
            gave_up: vec![false; clients],
        }
    }

    /// Records the outcome of ONE operation for `client` that observed
    /// `failure_events` distinct failure points (0 = clean). The op is
    /// charged at most one unit of budget regardless of how many points
    /// it failed at. Returns `true` exactly when this op newly tripped
    /// the client's budget (the caller abandons the client's remaining
    /// work once).
    fn note_op(&mut self, client: usize, failure_events: u32) -> bool {
        if failure_events > 0 {
            self.failures[client] += 1;
        }
        if !self.gave_up[client] && self.failures[client] >= self.budget {
            self.gave_up[client] = true;
            return true;
        }
        false
    }
}

/// A read — point or range — that survives device faults: on error,
/// back off on the simulated clock (doubling, capped at
/// `cfg.retry_backoff_max_ns`) and reissue, up to `cfg.read_retries`
/// times. A read that keeps failing is served empty (a miss, no rows)
/// rather than tearing down the serving loop — availability degrades,
/// the server stays up, and the scrubber repairs the damage out-of-band.
fn degraded_read<T: Default>(
    store: &mut Store,
    cfg: &ServeConfig,
    mut read: impl FnMut(&mut Store) -> Result<T>,
) -> ReadOutcome<T> {
    let mut attempt = 0u32;
    loop {
        match read(store) {
            Ok(value) => {
                return ReadOutcome {
                    value,
                    retried: attempt > 0,
                    failed: false,
                }
            }
            Err(_) if attempt < cfg.read_retries => {
                let wait =
                    bounded_backoff_ns(cfg.retry_backoff_ns, cfg.retry_backoff_max_ns, attempt);
                store.advance_clock_to(store.clock_ns() + wait);
                attempt += 1;
            }
            Err(_) => {
                return ReadOutcome {
                    value: T::default(),
                    retried: attempt > 0,
                    failed: true,
                }
            }
        }
    }
}

/// Serves `cfg.total_ops` operations against a preloaded store and
/// reports latency under the offered load: [`serve_queues`] with one
/// queue, mirrored into the store's frontend observability layer.
pub fn run_serve(
    store: &mut Store,
    gen: &RecordGenerator,
    cfg: &ServeConfig,
) -> Result<ServeResult> {
    let served = serve_queues(&mut [&mut *store], |_| 0, gen, cfg)?;
    publish_obs(store, &served);
    Ok(served.result)
}

/// What one queue of a [`serve_queues`] run did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Operations this queue's store served.
    pub ops: u64,
    /// `Store::write` calls this queue's store took.
    pub write_calls: u64,
    /// Deepest this queue got at a service start.
    pub depth_max: usize,
}

/// A [`serve_queues`] run: the aggregate result and its per-queue split.
#[derive(Debug)]
pub struct QueuedServe {
    /// Everything the run measured, over all queues. `store` names the
    /// first queue's store; `stalls` sums every store's.
    pub result: ServeResult,
    /// Per-queue load, in `stores` order.
    pub queues: Vec<QueueStats>,
    /// Keyspace size after the run (preload plus serve-phase inserts).
    pub records_after: u64,
    latencies: Vec<u64>,
    queue_delays: Vec<u64>,
}

/// Serves `cfg.total_ops` operations against preloaded stores, one FIFO
/// request queue per store, `route` mapping each operation's key to the
/// index of the queue that serves it. Stores run concurrently on their
/// own simulated clocks (the caller starts them on a common frontier);
/// the next event is always the queue that can begin serving its head
/// earliest, ties to the lower index.
///
/// Every store is flipped into deferred-compaction (serve) mode for the
/// duration and restored afterwards, so preload and any surrounding
/// benchmark phases keep the original quiesce-on-write behavior.
pub fn serve_queues<R: Fn(&[u8]) -> usize>(
    stores: &mut [&mut Store],
    route: R,
    gen: &RecordGenerator,
    cfg: &ServeConfig,
) -> Result<QueuedServe> {
    assert!(cfg.clients > 0, "serve needs at least one client");
    assert!(!stores.is_empty(), "serve needs at least one store");
    for store in stores.iter_mut() {
        store.set_deferred_compaction(true);
    }
    let served = serve_loop(stores, &route, gen, cfg);
    for store in stores.iter_mut() {
        store.set_deferred_compaction(false);
    }
    served
}

/// Write stalls so far, summed over `stores`.
fn total_stalls(stores: &[&mut Store]) -> StallStats {
    stores.iter().fold(StallStats::default(), |mut t, store| {
        let s = store.stall_stats();
        t.slowdown_count += s.slowdown_count;
        t.slowdown_ns += s.slowdown_ns;
        t.stop_count += s.stop_count;
        t.stop_ns += s.stop_ns;
        t.memtable_count += s.memtable_count;
        t.memtable_ns += s.memtable_ns;
        t
    })
}

/// Spends a store's idle time until `until` on background work — the
/// stand-in for the GC, compaction and scrub threads sharing the disk —
/// then lets the clock catch up. Any of it may overshoot `until`; the
/// next request then queues behind it, exactly like a foreground write
/// behind a busy disk. Returns at once when the store is not idle, so
/// the two sites that reach it for the same gap do the work once. A
/// step that fails is counted in [`ServeResult::idle_errors`] and the
/// gap goes on to the next kind of work.
fn idle_until(store: &mut Store, until: u64, cfg: &ServeConfig, r: &mut ServeResult) {
    if store.clock_ns() >= until {
        return;
    }
    // The value log's cooperative GC gets the first slice of the gap:
    // one budgeted step, relocating live values and recycling dead
    // segments. It runs *before* the compaction loop because that loop
    // is greedy (it eats the gap), while a budgeted GC step is bounded —
    // ordered the other way, update-heavy traffic starves the value log
    // and dead segments pile up. A new victim starts only once the log's
    // garbage reaches the tree's space budget (1/AF of the live bytes);
    // below it a step would mostly relocate live values.
    if cfg.idle_vlog_gc_bytes > 0 && store.vlog_gc_due() {
        match store.vlog_gc_step(cfg.idle_vlog_gc_bytes) {
            Ok(_) => r.vlog_gc_steps += 1,
            Err(_) => r.idle_errors += 1,
        }
    }
    if store.compact_until(until, &mut r.idle_compactions).is_err() {
        r.idle_errors += 1;
    }
    // Spare idle time also advances the scrubber: one budgeted step per
    // gap, so repair makes progress under load without starving
    // foreground requests.
    if cfg.idle_scrub_bytes > 0 && store.clock_ns() < until {
        match store.scrub_step(cfg.idle_scrub_bytes) {
            Ok(report) => r.repaired_in_flight += report.files_repaired,
            Err(_) => r.idle_errors += 1,
        }
    }
    store.advance_clock_to(until);
}

fn serve_loop<R: Fn(&[u8]) -> usize>(
    stores: &mut [&mut Store],
    route: &R,
    gen: &RecordGenerator,
    cfg: &ServeConfig,
) -> Result<QueuedServe> {
    let start = stores
        .iter()
        .map(|s| s.clock_ns())
        .max()
        .expect("at least one store");
    let stalls_before = total_stalls(stores);
    let mut draw = OpStream::new(&cfg.spec, cfg.record_count, cfg.seed);

    // Per-client traffic state: gap generator and unissued-op quota.
    let mut gaps: Vec<InterArrival> = (0..cfg.clients)
        .map(|c| InterArrival::new(cfg.arrival, cfg.seed ^ (0xC11E57 + c as u64 * 0x9E3779B9)))
        .collect();
    let mut remaining: Vec<u64> = {
        let base = cfg.total_ops / cfg.clients as u64;
        let extra = (cfg.total_ops % cfg.clients as u64) as usize;
        (0..cfg.clients)
            .map(|c| base + u64::from(c < extra))
            .collect()
    };
    let open_loop = matches!(cfg.arrival, ArrivalProcess::OpenLoopPoisson { .. });

    // Future arrivals, ordered by (time, admission index) — the index
    // breaks ties deterministically.
    let mut arrivals: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();
    let mut next_idx = 0u64;
    for c in 0..cfg.clients {
        if remaining[c] == 0 {
            continue;
        }
        let t = if open_loop {
            start + gaps[c].next_gap_ns()
        } else {
            start
        };
        arrivals.push(Reverse((t, next_idx, c)));
        next_idx += 1;
        remaining[c] -= 1;
    }

    let mut pending: Vec<VecDeque<Request>> = stores.iter().map(|_| VecDeque::new()).collect();
    let mut queues = vec![QueueStats::default(); stores.len()];
    let mut latencies: Vec<u64> = Vec::with_capacity(cfg.total_ops as usize);
    let mut queue_delays: Vec<u64> = Vec::with_capacity(cfg.total_ops as usize);
    let mut members: Vec<(u64, usize)> = Vec::new();
    let mut depth_sum = 0u64;
    let mut depth_samples = 0u64;
    let mut last_done = start;
    // Counters accumulate in place; the derived fields are filled in
    // after the loop.
    let mut r = ServeResult {
        store: stores[0].name(),
        ..ServeResult::default()
    };
    // Per-client failed-op accounting; each op charges at most one
    // unit of budget no matter how many points it failed at.
    let mut budget = ClientBudget::new(cfg.clients, cfg.client_error_budget);

    while r.ops + r.abandoned_ops < cfg.total_ops {
        // The next service event: the queue that can begin serving its
        // head earliest. A store is ready at max(its disk clock, the
        // head's arrival); ties break by queue index.
        let next_service: Option<(u64, usize)> = pending
            .iter()
            .enumerate()
            .filter_map(|(q, queue)| {
                let head = queue.front()?;
                Some((stores[q].clock_ns().max(head.arrival_ns), q))
            })
            .min();

        // Admit every arrival due at or before the next service event
        // (or, with nothing queued anywhere, at the next arrival
        // instant): an admitted write becomes visible to the group
        // commit of the service it queues behind. Open-loop clients
        // immediately schedule their next arrival (the offered load
        // ignores completions); closed-loop clients reschedule at
        // completion time below.
        if let Some(&Reverse((t_a, _, _))) = arrivals.peek() {
            let horizon = match next_service {
                Some((t_s, _)) => t_s,
                None => {
                    for store in stores.iter_mut() {
                        idle_until(store, t_a, cfg, &mut r);
                    }
                    t_a
                }
            };
            if t_a <= horizon {
                while let Some(&Reverse((t, _, c))) = arrivals.peek() {
                    if t > horizon {
                        break;
                    }
                    arrivals.pop();
                    let op = Op::build(gen, draw.next().expect("the op stream is endless"));
                    pending[route(op.route_key())].push_back(Request {
                        arrival_ns: t,
                        client: c,
                        op,
                    });
                    if open_loop && remaining[c] > 0 {
                        arrivals.push(Reverse((t + gaps[c].next_gap_ns(), next_idx, c)));
                        next_idx += 1;
                        remaining[c] -= 1;
                    }
                }
                continue; // recompute the service event with the new queue state
            }
        }

        let Some((_, q)) = next_service else {
            break; // no pending work and no arrivals left
        };
        let store = &mut *stores[q];
        let queue = &mut pending[q];

        // This store may sit idle until its head arrives (the head was
        // admitted under another queue's later horizon).
        idle_until(store, queue[0].arrival_ns, cfg, &mut r);

        // Serve the head request; a write absorbs queued writes behind
        // it (group commit).
        queues[q].depth_max = queues[q].depth_max.max(queue.len());
        depth_sum += queue.len() as u64;
        depth_samples += 1;
        let service_start = store.clock_ns();
        let head = queue.pop_front().expect("non-empty queue");
        members.clear();
        members.push((head.arrival_ns, head.client));
        let get = |store: &mut Store, r: &mut ServeResult, key: &[u8]| {
            let out = degraded_read(store, cfg, |s| s.get(key));
            if out.value.is_some() {
                r.hits += 1;
            } else {
                r.misses += 1;
            }
            out.tally(r)
        };
        let op_failure_events = match head.op {
            Op::Write(mut batch) => {
                // A queued request whose arrival is still in this
                // store's future cannot join a group that commits
                // before it arrives.
                while let Some(Request {
                    arrival_ns,
                    client,
                    op: Op::Write(b),
                }) = queue.front()
                {
                    if *arrival_ns > service_start || !group_fits(&batch, b, cfg.max_group_bytes) {
                        break;
                    }
                    batch.append(b);
                    members.push((*arrival_ns, *client));
                    queue.pop_front();
                }
                r.write_calls += 1;
                queues[q].write_calls += 1;
                r.write_ops += members.len() as u64;
                r.max_group_len = r.max_group_len.max(members.len());
                r.max_group_wire = r.max_group_wire.max(batch.byte_size());
                store.write(batch)?;
                0
            }
            Op::Get(key) => get(store, &mut r, &key),
            // Queue-local: the routed store's range only.
            Op::Scan(key, len) => degraded_read(store, cfg, |s| s.scan(&key, len)).tally(&mut r),
            Op::Rmw(key, value) => {
                let failed = get(store, &mut r, &key);
                store.put(&key, &value)?;
                failed
            }
        };
        // A client that has blown its error budget walks away: whatever
        // it had not yet issued is abandoned, not served. Checked before
        // completion bookkeeping so a closed-loop client that just gave
        // up does not reissue.
        if budget.note_op(head.client, op_failure_events) {
            r.clients_abandoned += 1;
            r.abandoned_ops += remaining[head.client];
            remaining[head.client] = 0;
        }
        let done = store.clock_ns();
        last_done = last_done.max(done);
        queues[q].ops += members.len() as u64;
        for &(arrival, client) in &members {
            latencies.push(done - arrival);
            queue_delays.push(service_start - arrival);
            r.ops += 1;
            if !open_loop && remaining[client] > 0 {
                arrivals.push(Reverse((
                    done + gaps[client].next_gap_ns(),
                    next_idx,
                    client,
                )));
                next_idx += 1;
                remaining[client] -= 1;
            }
        }
    }

    r.sim_ns = last_done - start;
    if r.sim_ns > 0 {
        r.throughput_ops_per_sec = r.ops as f64 * 1e9 / r.sim_ns as f64;
    }
    r.stalls = total_stalls(stores).delta_since(&stalls_before);
    r.latency = LatencySummary::from_samples(&mut latencies);
    r.queue_delay = LatencySummary::from_samples(&mut queue_delays);
    r.queue_depth_max = queues.iter().map(|q| q.depth_max).max().unwrap_or(0);
    if depth_samples > 0 {
        r.queue_depth_mean = depth_sum as f64 / depth_samples as f64;
    }
    Ok(QueuedServe {
        result: r,
        queues,
        records_after: draw.records(),
        latencies,
        queue_delays,
    })
}

/// Mirrors the run into the store's observability bundle under the
/// frontend layer: exact sample vectors feed the bucketed histograms,
/// scalars become counters/gauges, so `metrics_snapshot` exports carry
/// the serving view alongside every other layer.
fn publish_obs(store: &mut Store, served: &QueuedServe) {
    let r = &served.result;
    let ctx = store.db.ctx();
    let mut guard = ctx.lock();
    let obs = guard.fs.disk_mut().obs_mut();
    for &ns in &served.latencies {
        obs.latency(ObsLayer::Frontend, "latency_ns", ns);
    }
    for &ns in &served.queue_delays {
        obs.latency(ObsLayer::Frontend, "queue_delay_ns", ns);
    }
    obs.counter_add(ObsLayer::Frontend, "ops", r.ops);
    obs.counter_add(ObsLayer::Frontend, "write_calls", r.write_calls);
    obs.counter_add(ObsLayer::Frontend, "write_ops", r.write_ops);
    obs.counter_add(ObsLayer::Frontend, "idle_compactions", r.idle_compactions);
    obs.counter_add(ObsLayer::Frontend, "degraded_reads", r.degraded_reads);
    obs.counter_add(ObsLayer::Frontend, "failed_reads", r.failed_reads);
    obs.counter_add(
        ObsLayer::Frontend,
        "repaired_in_flight",
        r.repaired_in_flight,
    );
    obs.counter_add(ObsLayer::Frontend, "vlog_gc_steps", r.vlog_gc_steps);
    obs.counter_add(ObsLayer::Frontend, "abandoned_ops", r.abandoned_ops);
    obs.gauge_set(
        ObsLayer::Frontend,
        "queue_depth_max",
        r.queue_depth_max as f64,
    );
    obs.gauge_set(ObsLayer::Frontend, "queue_depth_mean", r.queue_depth_mean);
    obs.gauge_set(
        ObsLayer::Frontend,
        "throughput_ops_per_sec",
        r.throughput_ops_per_sec,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use sealdb::{StoreConfig, StoreKind};
    use workloads::micro::fill_random;

    fn preloaded(kind: StoreKind, gen: &RecordGenerator, n: u64) -> Store {
        let mut store = StoreConfig::new(kind, 32 << 10, 1 << 30).build().unwrap();
        fill_random(&mut store, gen, n, 3).unwrap();
        store
    }

    fn run(kind: StoreKind, cfg: &ServeConfig, gen: &RecordGenerator) -> ServeResult {
        let mut store = preloaded(kind, gen, cfg.record_count);
        run_serve(&mut store, gen, cfg).unwrap()
    }

    #[test]
    fn closed_loop_serves_all_ops() {
        let gen = RecordGenerator::new(16, 100, 1);
        let cfg = ServeConfig::new(
            WorkloadSpec::a(),
            ArrivalProcess::ClosedLoop { think_ns: 0 },
            4,
            400,
            1000,
        );
        let r = run(StoreKind::SealDb, &cfg, &gen);
        assert_eq!(r.ops, 400);
        assert!(r.sim_ns > 0);
        assert!(r.throughput_ops_per_sec > 0.0);
        assert_eq!(r.misses, 0, "closed keyspace must not miss");
        assert_eq!(r.latency.count, 400);
        assert!(r.latency.p95_ns >= r.latency.p50_ns);
        assert!(r.latency.max_ns >= r.latency.p99_ns);
    }

    #[test]
    fn group_commit_merges_concurrent_writers() {
        let gen = RecordGenerator::new(16, 100, 1);
        // Write-only mix, 8 clients hammering with zero think time: every
        // service round finds the other clients' writes queued behind the
        // head, so groups must form.
        let mut spec = WorkloadSpec::a();
        spec.mix.read = 0.0;
        spec.mix.update = 1.0;
        let cfg = ServeConfig::new(
            spec,
            ArrivalProcess::ClosedLoop { think_ns: 0 },
            8,
            400,
            800,
        );
        let r = run(StoreKind::SealDb, &cfg, &gen);
        assert_eq!(r.ops, 400);
        assert_eq!(r.write_ops, 400);
        assert!(
            r.write_calls < r.write_ops,
            "no grouping: {} calls for {} writes",
            r.write_calls,
            r.write_ops
        );
        assert!(r.max_group_len > 1);
        assert!(r.avg_group_size() > 1.5, "avg group {}", r.avg_group_size());
    }

    /// A single-put batch whose wire representation is exactly `wire`
    /// bytes (value length solved by search around the encoding
    /// overhead).
    fn batch_of_wire_size(wire: usize) -> WriteBatch {
        for vlen in wire.saturating_sub(64)..wire {
            let mut b = WriteBatch::new();
            b.put(b"k", &vec![0xAB; vlen]);
            if b.byte_size() == wire {
                return b;
            }
        }
        panic!("no single-put batch encodes to exactly {wire} wire bytes");
    }

    #[test]
    fn group_cap_admits_merges_up_to_the_exact_boundary() {
        // LevelDB's 1 MiB cap, probed at cap-1 / cap / cap+1 merged wire
        // bytes. The pre-fix check charged the follower its full wire
        // size (12-byte header included), so a merge landing exactly on
        // the cap — or within 11 bytes below it — was wrongly refused.
        let cap = 1 << 20;
        let head = batch_of_wire_size(cap / 2);
        let fit = |merged_wire: usize| {
            let follow = batch_of_wire_size(merged_wire - head.byte_size() + 12);
            assert_eq!(head.byte_size() + follow.body_bytes(), merged_wire);
            group_fits(&head, &follow, cap)
        };
        assert!(fit(cap - 1), "merge to cap-1 bytes must be admitted");
        assert!(fit(cap), "merge to exactly cap bytes must be admitted");
        assert!(!fit(cap + 1), "merge to cap+1 bytes must be refused");
    }

    #[test]
    fn merging_checks_the_cap_before_appending() {
        // The merged group never overshoots: appending happens only
        // after the size check admits the follower.
        let cap = 1 << 20;
        let mut head = batch_of_wire_size(cap - 100);
        let follow = batch_of_wire_size(200);
        assert!(!group_fits(&head, &follow, cap));
        // Were it appended anyway, the group would overshoot:
        head.append(&follow);
        assert!(head.byte_size() > cap);
    }

    #[test]
    fn oversized_single_batch_still_commits_alone() {
        let cap = 1 << 20;
        let head = batch_of_wire_size(cap + 1);
        // No follower may join it...
        assert!(!group_fits(&head, &batch_of_wire_size(50), cap));
        // ...but the serve loop still commits it: an over-cap head batch
        // admits no followers, it is never rejected.
        let gen = RecordGenerator::new(16, 100, 1);
        let mut spec = WorkloadSpec::a();
        spec.mix.read = 0.0;
        spec.mix.update = 1.0;
        let mut cfg = ServeConfig::new(
            spec,
            ArrivalProcess::ClosedLoop { think_ns: 0 },
            4,
            100,
            400,
        );
        // Cap below a single update batch's wire size (16 B key + 100 B
        // value + framing): every batch is oversized and commits alone.
        cfg.max_group_bytes = 64;
        let r = run(StoreKind::SealDb, &cfg, &gen);
        assert_eq!(r.ops, 100);
        assert_eq!(
            r.write_calls, r.write_ops,
            "oversized batches must commit alone, not merge"
        );
        assert_eq!(r.max_group_len, 1);
        assert!(r.max_group_wire > cfg.max_group_bytes);
    }

    #[test]
    fn merged_groups_never_overshoot_the_cap() {
        let gen = RecordGenerator::new(16, 100, 1);
        let mut spec = WorkloadSpec::a();
        spec.mix.read = 0.0;
        spec.mix.update = 1.0;
        let mut cfg = ServeConfig::new(
            spec,
            ArrivalProcess::ClosedLoop { think_ns: 0 },
            8,
            400,
            800,
        );
        // A cap admitting a few followers per group: groups must form,
        // and no committed group may exceed the cap in wire bytes.
        cfg.max_group_bytes = 600;
        let r = run(StoreKind::SealDb, &cfg, &gen);
        assert_eq!(r.ops, 400);
        assert!(r.max_group_len > 1, "groups must form under this cap");
        assert!(
            r.max_group_wire <= cfg.max_group_bytes,
            "group of {} wire bytes overshot the {} cap",
            r.max_group_wire,
            cfg.max_group_bytes
        );
    }

    #[test]
    fn same_seed_runs_are_identical() {
        let gen = RecordGenerator::new(16, 100, 1);
        let cfg = ServeConfig::new(
            WorkloadSpec::b(),
            ArrivalProcess::OpenLoopPoisson { ops_per_sec: 300.0 },
            4,
            300,
            1000,
        );
        let a = run(StoreKind::SealDb, &cfg, &gen);
        let b = run(StoreKind::SealDb, &cfg, &gen);
        assert_eq!(a.sim_ns, b.sim_ns);
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.queue_delay, b.queue_delay);
        assert_eq!(
            a.throughput_ops_per_sec.to_bits(),
            b.throughput_ops_per_sec.to_bits()
        );
        assert_eq!(a.write_calls, b.write_calls);
        assert_eq!(a.stalls, b.stalls);
        // A different seed shifts the schedule.
        let c = run(StoreKind::SealDb, &cfg.clone().with_seed(99), &gen);
        assert_ne!(a.latency, c.latency);
    }

    #[test]
    fn overload_inflates_tail_latency() {
        let gen = RecordGenerator::new(16, 100, 1);
        let spec = WorkloadSpec::a();
        let n = 1000u64;
        // Measure saturation throughput closed-loop, then offer well
        // below and well above it open-loop.
        let closed = ServeConfig::new(spec, ArrivalProcess::ClosedLoop { think_ns: 0 }, 4, 300, n);
        let sat = run(StoreKind::SealDb, &closed, &gen).throughput_ops_per_sec;
        let at = |x: f64| {
            let cfg = ServeConfig::new(
                spec,
                ArrivalProcess::OpenLoopPoisson {
                    ops_per_sec: sat * x / 4.0,
                },
                4,
                300,
                n,
            );
            run(StoreKind::SealDb, &cfg, &gen)
        };
        let light = at(0.3);
        let heavy = at(2.0);
        assert!(
            heavy.latency.p99_ns > light.latency.p99_ns,
            "overload p99 {} must exceed light-load p99 {}",
            heavy.latency.p99_ns,
            light.latency.p99_ns
        );
        assert!(
            heavy.queue_delay.mean_ns > light.queue_delay.mean_ns,
            "overload must queue"
        );
        assert!(heavy.queue_depth_max >= light.queue_depth_max);
    }

    #[test]
    fn frontend_metrics_reach_the_obs_layer() {
        let gen = RecordGenerator::new(16, 100, 1);
        let cfg = ServeConfig::new(
            WorkloadSpec::a(),
            ArrivalProcess::ClosedLoop { think_ns: 0 },
            2,
            200,
            500,
        );
        let mut store = preloaded(StoreKind::SealDb, &gen, cfg.record_count);
        let r = run_serve(&mut store, &gen, &cfg).unwrap();
        let m = store.metrics_snapshot();
        let h = m.obs.histogram(ObsLayer::Frontend, "latency_ns").unwrap();
        assert_eq!(h.count(), r.ops);
        assert_eq!(m.obs.registry.counter(ObsLayer::Frontend, "ops"), r.ops);
        assert_eq!(
            m.obs.registry.counter(ObsLayer::Frontend, "write_calls"),
            r.write_calls
        );
        assert!(
            m.obs
                .registry
                .gauge(ObsLayer::Frontend, "throughput_ops_per_sec")
                > 0.0
        );
    }

    #[test]
    fn saturated_inserts_compact_in_the_slowdown_sleep_and_never_stop() {
        // Closed loop, zero think time, inserts only: the queue never
        // empties, so no idle gap opens and the only background work is
        // what a slowed-down writer's 1 ms sleep pays for. That alone
        // must hold L0 off the stop trigger.
        let gen = RecordGenerator::new(16, 1000, 1);
        let mut spec = WorkloadSpec::serve_mix();
        spec.mix.read = 0.0;
        spec.mix.insert = 1.0;
        let cfg = ServeConfig::new(
            spec,
            ArrivalProcess::ClosedLoop { think_ns: 0 },
            4,
            3000,
            500,
        );
        let mut store = preloaded(StoreKind::SealDb, &gen, cfg.record_count);
        let r = run_serve(&mut store, &gen, &cfg).unwrap();
        assert_eq!(r.ops, 3000);
        assert_eq!(r.idle_compactions, 0, "a saturated loop has no idle gap");
        assert!(r.stalls.slowdown_count > 0, "{:?}", r.stalls);
        assert_eq!(r.stalls.stop_count, 0, "{:?}", r.stalls);
        let l0 = store.db.current_version().level_file_count(0);
        assert!(l0 < store.db.options().l0_slowdown_trigger, "L0 {l0}");
    }

    /// A 2 000-record SEALDB store and its generator, every third table
    /// carrying flipped bits 100 bytes in, inside its first data block:
    /// reads through that block fail its checksum.
    fn damaged_for_scans() -> (RecordGenerator, Store) {
        let gen = RecordGenerator::new(16, 600, 1);
        let store = preloaded(StoreKind::SealDb, &gen, 2000);
        {
            let ctx = store.db.ctx();
            let mut guard = ctx.lock();
            for (_, ext) in guard.fs.file_extents().into_iter().step_by(3) {
                let bad = smr_sim::Extent::new(ext.offset + 100, 8);
                guard.fs.disk_mut().faults_mut().corrupt_extent(bad);
            }
        }
        (gen, store)
    }

    #[test]
    fn a_scan_over_a_bad_block_is_complete_or_err() {
        let (gen, mut store) = damaged_for_scans();
        let model: std::collections::BTreeMap<Vec<u8>, Vec<u8>> =
            (0..2000).map(|i| (gen.key(i), gen.value(i))).collect();
        let (mut complete, mut failed) = (0, 0);
        for start in (0..1900).step_by(37) {
            let from = gen.key(start);
            match store.scan(&from, 100) {
                Ok(rows) => {
                    let want: Vec<(Vec<u8>, Vec<u8>)> = model
                        .range(from..)
                        .take(100)
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect();
                    assert!(rows == want, "scan from key {start}: wrong or missing rows");
                    complete += 1;
                }
                Err(_) => failed += 1,
            }
        }
        // Both outcomes occur: the damage is on some scans' paths only.
        assert!(
            complete > 0 && failed > 0,
            "{complete} complete, {failed} failed"
        );
    }

    #[test]
    fn scans_over_bad_blocks_degrade_instead_of_ending_the_run() {
        let (gen, mut store) = damaged_for_scans();
        let mut cfg = ServeConfig::new(
            WorkloadSpec::e(),
            ArrivalProcess::ClosedLoop { think_ns: 0 },
            4,
            200,
            2000,
        );
        cfg.client_error_budget = u64::MAX;
        let r = run_serve(&mut store, &gen, &cfg).expect("a failed scan ends no run");
        assert_eq!(r.ops, 200);
        assert_eq!(r.abandoned_ops, 0);
        assert!(r.failed_reads > 0, "no scan met the damage");
    }

    /// Extent of the largest live table — the degraded-mode tests damage
    /// it so the read path is guaranteed to trip over the fault.
    fn largest_file_extent(store: &Store) -> smr_sim::Extent {
        let v = store.db.current_version();
        let f = v
            .files
            .iter()
            .flatten()
            .max_by_key(|f| f.size)
            .expect("preload left no tables")
            .clone();
        store.db.ctx().lock().fs.file_extent(f.id).unwrap()
    }

    /// The boundary the redirect-plus-retry bug lived on: an op that
    /// fails at TWO points (failover redirect timed out AND the read
    /// exhausted its retries) charges the client's budget exactly once.
    /// Under the old per-site accounting a budget of 2 tripped after
    /// one such op; it must take two failing ops.
    #[test]
    fn error_budget_charges_each_op_at_most_once() {
        let mut b = ClientBudget::new(2, 2);
        // One op, two failure events: one charge, budget not tripped.
        assert!(!b.note_op(0, 2));
        assert_eq!(b.failures[0], 1);
        assert!(!b.gave_up[0]);
        // A clean op charges nothing.
        assert!(!b.note_op(0, 0));
        assert_eq!(b.failures[0], 1);
        // The second failing op (again double-failed) trips the budget,
        // exactly once — the latch never re-fires.
        assert!(b.note_op(0, 2));
        assert!(b.gave_up[0]);
        assert!(!b.note_op(0, 1));
        assert_eq!(b.failures[0], 3);
        // Other clients are untouched.
        assert_eq!(b.failures[1], 0);
        assert!(!b.gave_up[1]);
    }

    /// A zero configured budget behaves like 1 (the serve loop's
    /// historical `.max(1)` floor): the first failing op trips it.
    #[test]
    fn error_budget_zero_floors_at_one() {
        let mut b = ClientBudget::new(1, 0);
        assert!(!b.note_op(0, 0));
        assert!(b.note_op(0, 1));
        assert!(b.gave_up[0]);
    }

    #[test]
    fn degraded_reads_wait_capped_backoff_on_the_simulated_clock() {
        let gen = RecordGenerator::new(16, 100, 1);
        let mut store = preloaded(StoreKind::SealDb, &gen, 200);
        let ext = largest_file_extent(&store);
        // Persistent read errors: every retry fails, so the degraded
        // read path walks the full backoff schedule.
        store
            .db
            .ctx()
            .lock()
            .fs
            .disk_mut()
            .faults_mut()
            .fail_reads_permanently(smr_sim::Extent::new(ext.offset, ext.len));
        let mut cfg = ServeConfig::new(
            WorkloadSpec::c(),
            ArrivalProcess::ClosedLoop { think_ns: 0 },
            1,
            1,
            200,
        );
        cfg.read_retries = 10;
        cfg.retry_backoff_ns = 1_000_000;
        cfg.retry_backoff_max_ns = 2_000_000;
        let key = gen.key(0);
        let t0 = store.clock_ns();
        let out = degraded_read(&mut store, &cfg, |s| s.get(&key));
        assert!(out.failed);
        let waited = store.clock_ns() - t0;
        // Uncapped doubling would wait 1+2+4+...+512 = 1023 ms; the cap
        // bounds the schedule at 1 + 2 + 8*2 = 19 ms (plus read time).
        let capped_total = 19_000_000u64;
        assert!(
            waited >= capped_total,
            "backoff waits missing: {waited} < {capped_total}"
        );
        assert!(
            waited < 100_000_000,
            "cap not applied: waited {waited} ns, uncapped schedule is ~1s"
        );
    }

    #[test]
    fn clean_run_reports_no_degradation() {
        let gen = RecordGenerator::new(16, 100, 1);
        let cfg = ServeConfig::new(
            WorkloadSpec::b(),
            ArrivalProcess::ClosedLoop { think_ns: 0 },
            4,
            300,
            800,
        );
        let r = run(StoreKind::SealDb, &cfg, &gen);
        assert_eq!(r.ops, 300);
        assert_eq!(r.degraded_reads, 0);
        assert_eq!(r.failed_reads, 0);
        assert_eq!(r.repaired_in_flight, 0);
        assert_eq!(r.abandoned_ops, 0);
        assert_eq!(r.clients_abandoned, 0);
    }

    #[test]
    fn serving_survives_persistent_corruption_and_repairs_in_flight() {
        let gen = RecordGenerator::new(16, 100, 1);
        let n = 1000u64;
        let mut store = preloaded(StoreKind::SealDb, &gen, n);
        let ext = largest_file_extent(&store);
        // A latent-error region inside the table's first data block:
        // every read through it returns flipped bits, so point reads on
        // those keys keep failing until the scrubber rewrites the file.
        store
            .db
            .ctx()
            .lock()
            .fs
            .disk_mut()
            .faults_mut()
            .corrupt_extent(smr_sim::Extent::new(ext.offset + 100, 64));
        let mut cfg = ServeConfig::new(
            WorkloadSpec::c(),
            ArrivalProcess::ClosedLoop {
                think_ns: 2_000_000,
            },
            4,
            600,
            n,
        );
        cfg.idle_scrub_bytes = 64 << 10;
        cfg.client_error_budget = u64::MAX;
        let r = run_serve(&mut store, &gen, &cfg).unwrap();
        // The loop survived the fault: every op was served, none
        // abandoned, and the scrubber repaired the table under load.
        assert_eq!(r.ops, 600);
        assert_eq!(r.abandoned_ops, 0);
        assert!(
            r.repaired_in_flight >= 1,
            "idle scrub must repair the damaged table"
        );
        // Reads that hit the bad block before the repair were served as
        // misses; the closed keyspace makes them the only misses.
        assert_eq!(r.misses, r.failed_reads);
        // After the serve, the damage is gone: every key reads back.
        for i in 0..n {
            assert!(store.get(&gen.key(i)).unwrap().is_some(), "key {i}");
        }
        let m = store.metrics_snapshot();
        assert_eq!(
            m.obs
                .registry
                .counter(ObsLayer::Frontend, "repaired_in_flight"),
            r.repaired_in_flight
        );
    }

    #[test]
    fn vlog_store_serves_update_heavy_mixes_with_idle_gc() {
        // YCSB A (updates) and F (read-modify-writes) against a store
        // with key-value separation on: every update routes its value
        // through the vlog, idle gaps drive the cooperative GC, and the
        // closed keyspace proves no pointer ever dangles.
        // GC step counts frozen so that the loop's two idle sites, which
        // see the same gap here, run the step once, not twice. Steps run
        // only while the log's garbage is at least 1/AF of its live
        // bytes (or a started victim is unfinished). Value-log appends
        // held back and written 64 KiB at a time shorten the update
        // path, which moves one more idle gap over a step (45 → 46 on
        // both workloads).
        for (spec, gc_steps) in [(WorkloadSpec::a(), 46), (WorkloadSpec::f(), 46)] {
            let (gen, mut store, n) = preloaded_vlog_store();
            let mut cfg = ServeConfig::new(
                spec,
                ArrivalProcess::ClosedLoop {
                    think_ns: 40_000_000,
                },
                4,
                600,
                n,
            );
            cfg.idle_vlog_gc_bytes = 32 << 10;
            let r = run_serve(&mut store, &gen, &cfg).unwrap();
            assert_eq!(r.ops, 600, "workload {}", spec.name);
            assert_eq!(r.misses, 0, "workload {} missed reads", spec.name);
            assert_eq!(
                r.vlog_gc_steps, gc_steps,
                "workload {}: idle gaps must drive vlog GC, one step each",
                spec.name
            );
            // GC relocations must not have broken any pointer.
            for i in 0..n {
                assert!(store.get(&gen.key(i)).unwrap().is_some(), "key {i}");
            }
        }
    }

    /// 400 keys of 600-byte values on a store with key-value separation
    /// on: 16 KiB segments, every value in the log.
    fn preloaded_vlog_store() -> (RecordGenerator, Store, u64) {
        let gen = RecordGenerator::new(16, 600, 1);
        let n = 400u64;
        let params = sealdb::VlogParams {
            segment_bytes: 16 << 10,
            value_threshold: 256,
        };
        let mut store = StoreConfig::new(StoreKind::SealDb, 32 << 10, 1 << 30)
            .with_vlog(params)
            .build()
            .unwrap();
        fill_random(&mut store, &gen, n, 3).unwrap();
        (gen, store, n)
    }

    /// A vlog store whose sealed segments hold garbage, but less than
    /// 1/AF of its live bytes: a GC victim exists, yet GC is not due.
    fn vlog_store_under_its_gc_budget() -> (RecordGenerator, Store, u64) {
        let (gen, mut store, n) = preloaded_vlog_store();
        // 20 overwrites leave 20 dead records against 400 live ones.
        for i in 0..20 {
            store.put(&gen.key(i), &gen.value(i)).unwrap();
        }
        assert!(store.vlog_gc_pending(), "sealed garbage is a victim");
        assert!(!store.vlog_gc_due(), "20 dead per 400 live is under 1/AF");
        (gen, store, n)
    }

    #[test]
    fn idle_gaps_leave_garbage_under_the_space_budget_alone() {
        let (gen, mut store, n) = vlog_store_under_its_gc_budget();
        // Reads only, 40 ms apart per client: hundreds of idle gaps and
        // no new garbage.
        let mut cfg = ServeConfig::new(
            WorkloadSpec::c(),
            ArrivalProcess::ClosedLoop {
                think_ns: 40_000_000,
            },
            4,
            200,
            n,
        );
        cfg.idle_vlog_gc_bytes = 32 << 10;
        let relocated = store.vlog.as_ref().unwrap().stats().relocated_bytes;
        let r = run_serve(&mut store, &gen, &cfg).unwrap();
        assert_eq!(r.ops, 200);
        assert_eq!(r.vlog_gc_steps, 0, "no idle gap may churn live values");
        let stats = store.vlog.as_ref().unwrap().stats();
        assert_eq!(stats.relocated_bytes, relocated);
        assert_eq!(stats.segments_retired, 0);
    }

    #[test]
    fn explicit_gc_steps_still_drain_a_victim_under_the_budget() {
        let (gen, mut store, n) = vlog_store_under_its_gc_budget();
        // Explicit callers (chaos drains, crash-point suites) drain any
        // victim, budget or not.
        let mut steps = 0;
        while store.vlog.as_ref().unwrap().stats().segments_retired == 0 {
            assert!(store.vlog_gc_step(32 << 10).unwrap(), "step {steps}");
            steps += 1;
        }
        let stats = store.vlog.as_ref().unwrap().stats();
        assert!(stats.relocated_bytes > 0, "the victim's live values moved");
        assert_eq!(stats.segments_retired, 1);
        for i in 0..n {
            assert_eq!(
                store.get(&gen.key(i)).unwrap(),
                Some(gen.value(i)),
                "key {i}"
            );
        }
    }

    #[test]
    fn damaged_vlog_segments_never_end_a_serving_run() {
        // Two ways a value-log band goes bad under a read-only serve
        // with idle GC and idle scrub on: flipped bits (GC frames the
        // victim itself, meets the bad record and hands the segment to
        // salvage + quarantine) and a dead region (the GC read errors
        // until the scrubber condemns the segment; each failed step is
        // counted). Either way every operation is served.
        type Plant = fn(&mut smr_sim::FaultPlan, smr_sim::Extent);
        // 26 records of 12 + 16 + 600 bytes fill a sealed 16 KiB segment:
        // byte 16 000 is inside the last one, so the salvageable prefix
        // is every other record of the segment.
        let flipped_bits: Plant =
            |faults, seg| faults.corrupt_extent(smr_sim::Extent::new(seg.offset + 16_000, 8));
        let dead_region: Plant = |faults, seg| faults.fail_reads_permanently(seg);
        for (plant, gc_errors) in [(flipped_bits, false), (dead_region, true)] {
            // The second pass overwrites half the keys, so sealed
            // segments hold a mix of live and dead records.
            let (gen, mut store, n) = preloaded_vlog_store();
            fill_random(&mut store, &gen, 200, 4).unwrap();
            // Damage every other segment.
            let mut damaged = Vec::new();
            {
                let ctx = store.db.ctx();
                let mut guard = ctx.lock();
                let segments: Vec<(u64, smr_sim::Extent)> = guard
                    .fs
                    .file_extents()
                    .into_iter()
                    .filter(|(id, _)| *id >= lsm_core::VLOG_FILE_BASE)
                    .collect();
                for (id, ext) in segments.into_iter().step_by(2) {
                    plant(guard.fs.disk_mut().faults_mut(), ext);
                    damaged.push(id);
                }
            }
            let readable: Vec<u64> = (0..n).filter(|&i| store.get(&gen.key(i)).is_ok()).collect();
            assert!(!readable.is_empty() && readable.len() < n as usize);

            let mut cfg = ServeConfig::new(
                WorkloadSpec::c(),
                ArrivalProcess::ClosedLoop {
                    think_ns: 40_000_000,
                },
                4,
                200,
                n,
            );
            cfg.idle_vlog_gc_bytes = 32 << 10;
            cfg.idle_scrub_bytes = 64 << 10;
            cfg.client_error_budget = u64::MAX;
            let r = run_serve(&mut store, &gen, &cfg).expect("background damage ends no run");
            assert_eq!(r.ops, 200);
            assert_eq!(
                r.idle_errors > 0,
                gc_errors,
                "{} idle errors",
                r.idle_errors
            );
            // Every damaged band is out of the directory and off the disk...
            let live = store.vlog.as_ref().unwrap().segment_ids();
            for id in &damaged {
                assert!(!live.contains(id), "segment {id} still in service");
                assert!(!store.db.ctx().lock().fs.has_file(*id), "segment {id}");
            }
            // ...and no key that was readable lost its value to the repair.
            for i in readable {
                assert_eq!(
                    store.get(&gen.key(i)).unwrap(),
                    Some(gen.value(i)),
                    "key {i}"
                );
            }
        }
    }

    #[test]
    fn error_budget_makes_clients_walk_away() {
        let gen = RecordGenerator::new(16, 100, 1);
        let n = 1000u64;
        let mut store = preloaded(StoreKind::SealDb, &gen, n);
        let ext = largest_file_extent(&store);
        // The whole table sits on a dead region: every read into it
        // errors, unrecoverably. No scrub runs, so it never heals.
        store
            .db
            .ctx()
            .lock()
            .fs
            .disk_mut()
            .faults_mut()
            .fail_reads_permanently(ext);
        let mut cfg = ServeConfig::new(
            WorkloadSpec::c(),
            ArrivalProcess::ClosedLoop { think_ns: 0 },
            4,
            600,
            n,
        );
        cfg.client_error_budget = 3;
        cfg.read_retries = 1;
        let r = run_serve(&mut store, &gen, &cfg).unwrap();
        assert!(r.failed_reads >= 3, "reads into the dead table must fail");
        assert!(r.clients_abandoned >= 1, "budget must trip");
        assert!(r.abandoned_ops > 0);
        assert_eq!(
            r.ops + r.abandoned_ops,
            600,
            "every op is either served or abandoned"
        );
    }

    #[test]
    fn degraded_runs_with_same_seed_are_identical() {
        let gen = RecordGenerator::new(16, 100, 1);
        let n = 800u64;
        let go = || {
            let mut store = preloaded(StoreKind::SealDb, &gen, n);
            let ext = largest_file_extent(&store);
            store
                .db
                .ctx()
                .lock()
                .fs
                .disk_mut()
                .faults_mut()
                .corrupt_extent(smr_sim::Extent::new(ext.offset + 64, 32));
            let mut cfg = ServeConfig::new(
                WorkloadSpec::b(),
                ArrivalProcess::ClosedLoop {
                    think_ns: 1_000_000,
                },
                4,
                400,
                n,
            );
            cfg.idle_scrub_bytes = 64 << 10;
            run_serve(&mut store, &gen, &cfg).unwrap()
        };
        let a = go();
        let b = go();
        assert_eq!(a.sim_ns, b.sim_ns);
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.failed_reads, b.failed_reads);
        assert_eq!(a.degraded_reads, b.degraded_reads);
        assert_eq!(a.repaired_in_flight, b.repaired_in_flight);
        assert_eq!(a.abandoned_ops, b.abandoned_ops);
    }
}
