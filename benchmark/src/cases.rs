//! The seven workloads. One rep = a fresh set-up (build + preload, host-timed
//! as `setup_s`) followed by the timed phase(s), then a read-back audit. Every
//! rep draws from its own [`Seeds`], so any rep can be reproduced alone and
//! simulated-clock results repeat exactly.
//!
//! All loops are closed (one caller waits for each reply) except the two
//! `seal-front` open-loop phases, which are Poisson at a fixed simulated rate
//! and time each request from its due time. Arrivals there are events on the
//! simulated clock, so the generator is never late (lateness 0 by
//! construction).

use crate::hostclock::{PhaseTime, PhaseTimer, Stopwatch};
use crate::spans::{Name, Recorder, NONE};
use crate::stats::percentile;
use crate::surface::{
    self, build_cluster, build_store, build_vlog_store, cluster_counters, permute, serve,
    zipf_next, Cluster, ClusterCounters, RecordGenerator, Rng, ScrambledZipfian, ServeArgs,
    ServeMix, ServeResult, Store, StoreDelta, StoreProbe, System,
};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    LoadRandom,
    ReadCold,
    ReadHot,
    ScanMixed,
    ServeMixed,
    UpdateVlog,
    ReplicatedWrite,
}

impl Workload {
    /// In `catalog::WORKLOADS` order.
    pub const ALL: [Workload; 7] = [
        Workload::LoadRandom,
        Workload::ReadCold,
        Workload::ReadHot,
        Workload::ScanMixed,
        Workload::ServeMixed,
        Workload::UpdateVlog,
        Workload::ReplicatedWrite,
    ];

    pub fn name(self) -> &'static str {
        let i = Workload::ALL
            .iter()
            .position(|&w| w == self)
            .expect("listed");
        crate::catalog::WORKLOADS[i].name
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Single store, one closed-loop caller: every simulated nanosecond of
    /// the timed phase is charged to some `IoKind`, so the time shares sum to
    /// 1 with nothing left for `other` (`verify` checks it).
    pub fn shares_sum_exactly(self) -> bool {
        matches!(
            self,
            Workload::LoadRandom | Workload::ReadCold | Workload::ReadHot | Workload::ScanMixed
        )
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the baseline was recorded at.
    Full,
    /// Seconds for all seven workloads: tests and `verify`.
    Smoke,
}

impl Scale {
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }
}

/// The two seeds of one rep.
///
/// Where a workload reads or serves a preloaded dataset, the dataset is part of
/// the benchmark like a fixed corpus: rep `r` of every run preloads dataset `r`
/// (`data`), and only the op and arrival streams follow `--seed` (`ops`). A run
/// still covers several store layouts, while two runs — or two commits —
/// differ by what they do, not by which layout they drew. `load-random` and
/// `replicated-write`, whose input *is* the data, draw everything from `ops`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Seeds {
    pub data: u64,
    pub ops: u64,
}

impl Seeds {
    /// Seeds of rep `r` of a run seeded `seed`: a SplitMix64 step over both,
    /// so runs with neighbouring seeds share no op stream.
    pub fn for_rep(seed: u64, r: usize) -> Seeds {
        let mix = |seed: u64| {
            let mut z = seed
                .wrapping_add((r as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 30)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Seeds {
            data: mix(0x5EA1_DA7A),
            ops: mix(seed),
        }
    }
}

const KEY_BYTES: usize = 16;
const CLIENTS: usize = 4;
/// Keys read back after each mutating rep.
const AUDIT_KEYS: u64 = 2000;
/// Offered load of the open-loop phases, op/s over all clients.
pub const SERVE_MIXED_RATE: f64 = 250.0;
pub const UPDATE_VLOG_RATE: f64 = 80.0;
const IDLE_VLOG_GC_BYTES: u64 = 64 << 10;

/// Sizes of one rep. Full-scale values put each rep's timed phase near two
/// host seconds on the 2-core machine the baseline was recorded on.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub value_bytes: usize,
    /// User bytes loaded during set-up.
    pub preload_bytes: u64,
    /// Ops of the timed phase (per phase for `serve-mixed`).
    pub ops: u64,
    /// `read-hot`: keys in the hot slice.
    pub hot_keys: u64,
}

impl Sizes {
    /// User bytes `serve-mixed` inserts: half of `ops` in each of two phases.
    fn insert_bytes(&self) -> u64 {
        self.ops * (KEY_BYTES + self.value_bytes) as u64
    }
}

pub fn sizes(w: Workload, scale: Scale) -> Sizes {
    let mib = |m: u64| m << 20;
    let (value_bytes, preload, ops, smoke_preload, smoke_ops) = match w {
        // Set-up loads the first third so timing starts on a tree that has
        // its levels; the timed phase loads the other two thirds.
        Workload::LoadRandom => (1024, mib(24), 48_000, mib(1), 2_000),
        Workload::ReadCold => (1024, mib(24), 100_000, mib(2), 3_000),
        Workload::ReadHot => (1024, mib(24), 400_000, mib(2), 10_000),
        Workload::ScanMixed => (1024, mib(24), 16_000, mib(2), 500),
        Workload::ServeMixed => (1024, mib(16), 100_000, mib(2), 1_500),
        Workload::UpdateVlog => (4096, mib(48), 32_000, mib(4), 1_500),
        Workload::ReplicatedWrite => (1024, mib(4), 20_000, mib(1), 1_000),
    };
    let (preload_bytes, ops) = match scale {
        Scale::Full => (preload, ops),
        Scale::Smoke => (smoke_preload, smoke_ops),
    };
    Sizes {
        value_bytes,
        preload_bytes,
        ops,
        // 256 KiB of values: half the 512 KiB block cache.
        hot_keys: 256,
    }
}

/// Per-op latencies of the directly-called workloads, ns, and the simulated
/// clock as of the last timed call.
#[derive(Debug)]
struct OpLog {
    /// Simulated time plus host time of the store call: what a caller of this
    /// code on the modelled device would wait.
    both: Vec<u64>,
    sim: Vec<u64>,
    now: u64,
}

impl OpLog {
    fn starting_at(now: u64, ops: u64) -> OpLog {
        OpLog {
            both: Vec::with_capacity(ops as usize),
            sim: Vec::with_capacity(ops as usize),
            now,
        }
    }

    /// Runs `call(target)` under a `name` span, times it on both clocks
    /// (`clock` reads the simulated one) and logs it.
    #[inline]
    fn timed<S, T>(
        &mut self,
        rec: &mut Recorder,
        name: Name,
        op: u32,
        target: &mut S,
        clock: fn(&S) -> u64,
        call: impl FnOnce(&mut S) -> T,
    ) -> T {
        let span = rec.open(name, op, self.now);
        let t = Stopwatch::start();
        let out = call(target);
        let host = t.ns();
        let now = clock(target);
        rec.close(span, now);
        self.both.push(host + now - self.now);
        self.sim.push(now - self.now);
        self.now = now;
        out
    }
}

/// Latency percentiles of one rep, ns.
#[derive(Clone, Copy, Debug, Default)]
pub struct Latency {
    pub both_p50: f64,
    pub both_p99: f64,
    pub sim_p50: f64,
    pub sim_p99: f64,
    pub samples: u64,
}

impl Latency {
    fn from_log(mut log: OpLog) -> Latency {
        log.both.sort_unstable();
        log.sim.sort_unstable();
        Latency {
            both_p50: percentile(&log.both, 0.50) as f64,
            both_p99: percentile(&log.both, 0.99) as f64,
            sim_p50: percentile(&log.sim, 0.50) as f64,
            sim_p99: percentile(&log.sim, 0.99) as f64,
            samples: log.both.len() as u64,
        }
    }

    /// `run_serve` is one call, so per-op host time is not visible from
    /// outside: its simulated arrival→completion percentiles get the phase's
    /// mean host time per op added instead.
    fn from_serve(r: &ServeResult, host_ns: u64) -> Latency {
        let host_per_op = host_ns as f64 / r.ops.max(1) as f64;
        Latency {
            both_p50: r.latency.p50_ns as f64 + host_per_op,
            both_p99: r.latency.p99_ns as f64 + host_per_op,
            sim_p50: r.latency.p50_ns as f64,
            sim_p99: r.latency.p99_ns as f64,
            samples: r.latency.count,
        }
    }
}

/// `seal-front` extras of the serving workloads.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeOut {
    /// Closed-loop throughput; 0 when the workload has no closed-loop phase.
    pub saturation_ops_per_s: f64,
    pub queue_delay_p99_ns: u64,
    pub queue_depth_max: u64,
    pub avg_group_size: f64,
    pub idle_compactions: u64,
    pub vlog_gc_steps: u64,
    /// Host ns inside `run_serve` per op served.
    pub host_ns_per_op: f64,
    /// Open-loop phase only: completed op/s over offered op/s. Below 1 the
    /// backlog grew faster than it drained.
    pub achieved_share: f64,
}

/// Everything one rep measured.
#[derive(Clone, Debug, Default)]
pub struct RepOut {
    pub setup_ns: u64,
    /// Host time of the timed phase(s): on-CPU time, see `hostclock`.
    pub host_ns: u64,
    /// Wall time of the timed phase(s): what `--seconds` is spent in.
    pub wall_ns: u64,
    /// User ops of the timed phase(s).
    pub ops: u64,
    /// The phase that defines `sim_ops_per_s`.
    pub sim_ns: u64,
    pub sim_ops: u64,
    pub latency: Latency,
    /// The measured store (the primary, for the cluster) over the timed
    /// phase(s).
    pub delta: StoreDelta,
    pub live_user_bytes: u64,
    /// User bytes returned by gets and scans.
    pub returned_bytes: u64,
    pub gets: u64,
    pub attempted: u64,
    pub failed: u64,
    pub serve: Option<ServeOut>,
    pub cluster: Option<(ClusterCounters, f64)>,
}

impl RepOut {
    pub fn host_ops_per_s(&self) -> f64 {
        self.ops as f64 * 1e9 / self.host_ns.max(1) as f64
    }

    pub fn host_wall_ops_per_s(&self) -> f64 {
        self.ops as f64 * 1e9 / self.wall_ns.max(1) as f64
    }

    pub fn sim_ops_per_s(&self) -> f64 {
        self.sim_ops as f64 * 1e9 / self.sim_ns.max(1) as f64
    }

    pub fn space_amp(&self) -> f64 {
        self.delta.allocated_bytes as f64 / self.live_user_bytes.max(1) as f64
    }

    /// Device bytes read on the get/scan path per user byte returned; the
    /// repo's neutral 1.0 when the workload reads nothing.
    pub fn read_amp(&self) -> f64 {
        if self.returned_bytes == 0 {
            1.0
        } else {
            self.delta.read_path_device_bytes as f64 / self.returned_bytes as f64
        }
    }
}

fn generator(s: &Sizes, seed: u64) -> RecordGenerator {
    RecordGenerator::new(KEY_BYTES, s.value_bytes, seed ^ 0x5EED)
}

/// Puts records `permute(i)` for `i` in `range` (untimed set-up work).
fn preload(
    store: &mut Store,
    gen: &RecordGenerator,
    range: std::ops::Range<u64>,
    n: u64,
    seed: u64,
) {
    for i in range {
        let j = permute(i, n, seed);
        store.put(&gen.key(j), &gen.value(j)).expect("preload put");
    }
    store.flush().expect("preload flush");
}

/// The set-up of every workload that runs on a dataset: dataset `seeds.data`
/// loaded into the fresh `store`. Returns the generator, the record count and
/// the store.
fn preloaded(s: &Sizes, seeds: Seeds, mut store: Store) -> (RecordGenerator, u64, Store) {
    let gen = generator(s, seeds.data);
    let n = s.preload_bytes / gen.record_size();
    preload(&mut store, &gen, 0..n, n, seeds.data);
    (gen, n, store)
}

/// A fresh SEALDB store for the dataset plus `grow_bytes` of inserts.
fn sealdb_store(s: &Sizes, grow_bytes: u64) -> Store {
    build_store(System::SealDb, s.preload_bytes + grow_bytes)
}

/// Reads back `AUDIT_KEYS` keys drawn from `[0, live)` and counts the ones
/// that are missing or wrong.
fn audit(
    seed: u64,
    live: u64,
    gen: &RecordGenerator,
    mut get: impl FnMut(&[u8]) -> Option<Vec<u8>>,
) -> (u64, u64) {
    let mut rng = Rng::new(seed ^ 0xA0D17);
    let checks = AUDIT_KEYS.min(live);
    let mut failed = 0;
    for _ in 0..checks {
        let i = rng.next_below(live);
        if get(&gen.key(i)).as_deref() != Some(&gen.value(i)[..]) {
            failed += 1;
        }
    }
    (checks, failed)
}

fn store_get(store: &mut Store) -> impl FnMut(&[u8]) -> Option<Vec<u8>> + '_ {
    |key| store.get(key).ok().flatten()
}

/// Runs one rep of `w`. The recorder gets `rep → phase → op → …` spans when it
/// is on; set-up and audit stay outside the rep span.
pub fn run_rep(w: Workload, scale: Scale, seeds: Seeds, rec: &mut Recorder) -> RepOut {
    let s = sizes(w, scale);
    match w {
        Workload::LoadRandom => load_random(&s, seeds.ops, System::SealDb, rec),
        Workload::ReadCold | Workload::ReadHot => point_reads(w, &s, seeds, rec),
        Workload::ScanMixed => scan_mixed(&s, seeds, rec),
        Workload::ServeMixed => serve_mixed(&s, seeds, rec),
        Workload::UpdateVlog => update_vlog(&s, seeds, UPDATE_VLOG_RATE, rec),
        Workload::ReplicatedWrite => replicated_write(&s, seeds.ops, rec),
    }
}

/// `load-random` on either system (`LevelDb` only for the paper-ratio probe).
pub fn load_random(s: &Sizes, seed: u64, system: System, rec: &mut Recorder) -> RepOut {
    let t = PhaseTimer::start();
    let gen = generator(s, seed);
    let warm = s.preload_bytes / gen.record_size();
    let n = warm + s.ops;
    let mut store = build_store(system, n * gen.record_size());
    preload(&mut store, &gen, 0..warm, n, seed);
    let setup_ns = t.stop().host_ns;

    let before = StoreProbe::take(&store);
    let mut log = OpLog::starting_at(before.clock_ns(), s.ops);
    let mut failed = 0;
    let rep = rec.open(Name::Rep, NONE, log.now);
    let phase = rec.open(Name::Phase, NONE, log.now);
    let t = PhaseTimer::start();
    for i in 0..s.ops {
        let op = i as u32;
        let span = rec.open(Name::Op, op, log.now);
        let j = rec.span(Name::Draw, op, log.now, || permute(warm + i, n, seed));
        let key = rec.span(Name::Key, op, log.now, || gen.key(j));
        let value = rec.span(Name::Value, op, log.now, || gen.value(j));
        let put = log.timed(rec, Name::Put, op, &mut store, Store::clock_ns, |s| {
            s.put(&key, &value)
        });
        failed += u64::from(put.is_err());
        rec.close(span, log.now);
    }
    let flush = rec.open(Name::Flush, NONE, log.now);
    failed += u64::from(store.flush().is_err());
    let sim = store.clock_ns();
    rec.close(flush, sim);
    let timed = t.stop();
    rec.close(phase, sim);
    rec.close(rep, sim);
    let after = StoreProbe::take(&store);

    let (checks, wrong) = audit(seed, n, &gen, store_get(&mut store));
    let delta = StoreDelta::between(&before, &after);
    RepOut {
        setup_ns,
        host_ns: timed.host_ns,
        wall_ns: timed.wall_ns,
        ops: s.ops,
        sim_ns: delta.sim_ns,
        sim_ops: s.ops,
        latency: Latency::from_log(log),
        delta,
        live_user_bytes: n * gen.record_size(),
        attempted: s.ops + 1 + checks,
        failed: failed + wrong,
        ..Default::default()
    }
}

/// `read-cold` (uniform over all keys) and `read-hot` (97 % over a slice that
/// fits the block cache, 3 % uniform so the tail still touches the device).
fn point_reads(w: Workload, s: &Sizes, seeds: Seeds, rec: &mut Recorder) -> RepOut {
    let t = PhaseTimer::start();
    let (gen, n, mut store) = preloaded(s, seeds, sealdb_store(s, 0));
    let setup_ns = t.stop().host_ns;

    let mut rng = Rng::new(seeds.ops ^ 0x0BAD_5EED);
    // Which slice is hot belongs to the dataset, not to the op stream.
    let hot =
        (w == Workload::ReadHot).then(|| Rng::new(seeds.data ^ 0x0407).next_below(n - s.hot_keys));
    let before = StoreProbe::take(&store);
    let mut log = OpLog::starting_at(before.clock_ns(), s.ops);
    let (mut failed, mut returned) = (0u64, 0u64);
    let rep = rec.open(Name::Rep, NONE, log.now);
    let phase = rec.open(Name::Phase, NONE, log.now);
    let t = PhaseTimer::start();
    for i in 0..s.ops {
        let op = i as u32;
        let span = rec.open(Name::Op, op, log.now);
        let j = rec.span(Name::Draw, op, log.now, || match hot {
            Some(base) if rng.next_below(100) >= 3 => base + rng.next_below(s.hot_keys),
            _ => rng.next_below(n),
        });
        let key = rec.span(Name::Key, op, log.now, || gen.key(j));
        let got = log.timed(rec, Name::Get, op, &mut store, Store::clock_ns, |s| {
            s.get(&key)
        });
        let ok = rec.span(
            Name::Verify,
            op,
            log.now,
            || matches!(&got, Ok(Some(v)) if *v == gen.value(j)),
        );
        if ok {
            returned += gen.record_size();
        } else {
            failed += 1;
        }
        rec.close(span, log.now);
    }
    let timed = t.stop();
    rec.close(phase, log.now);
    rec.close(rep, log.now);
    let after = StoreProbe::take(&store);

    let delta = StoreDelta::between(&before, &after);
    RepOut {
        setup_ns,
        host_ns: timed.host_ns,
        wall_ns: timed.wall_ns,
        ops: s.ops,
        sim_ns: delta.sim_ns,
        sim_ops: s.ops,
        latency: Latency::from_log(log),
        delta,
        live_user_bytes: n * gen.record_size(),
        returned_bytes: returned,
        gets: s.ops,
        attempted: s.ops,
        failed,
        ..Default::default()
    }
}

/// `scan-mixed`: YCSB-E drawn like `workloads::ycsb::run` draws it, with
/// every returned row checked.
fn scan_mixed(s: &Sizes, seeds: Seeds, rec: &mut Recorder) -> RepOut {
    let t = PhaseTimer::start();
    let (gen, n, mut store) = preloaded(s, seeds, sealdb_store(s, 0));
    let mut zipf = ScrambledZipfian::new(n);
    let setup_ns = t.stop().host_ns;

    let (scan_share, max_len) = surface::ycsb_e();
    let mut op_rng = Rng::new(seeds.ops ^ 0x0E0E);
    let mut key_rng = Rng::new(seeds.ops ^ 0xDEAD_BEEF);
    let mut n_now = n;
    let before = StoreProbe::take(&store);
    let mut log = OpLog::starting_at(before.clock_ns(), s.ops);
    let (mut failed, mut returned) = (0u64, 0u64);
    let rep = rec.open(Name::Rep, NONE, log.now);
    let phase = rec.open(Name::Phase, NONE, log.now);
    let t = PhaseTimer::start();
    for i in 0..s.ops {
        let op = i as u32;
        let span = rec.open(Name::Op, op, log.now);
        let r = (op_rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        if r < scan_share {
            let (start, len) = rec.span(Name::Draw, op, log.now, || {
                let start = zipf_next(&mut zipf, &mut key_rng, n_now);
                (start, 1 + key_rng.next_below(max_len as u64))
            });
            let key = rec.span(Name::Key, op, log.now, || gen.key(start));
            let rows = log.timed(rec, Name::Scan, op, &mut store, Store::clock_ns, |s| {
                s.scan(&key, len as usize)
            });
            // Keys are dense in [0, n_now): a scan from `start` returns
            // exactly the next `len` records, clipped at the end.
            let expected = len.min(n_now - start);
            let ok = rec.span(Name::Verify, op, log.now, || match &rows {
                Ok(rows) => {
                    rows.len() as u64 == expected
                        && rows
                            .iter()
                            .zip(start..)
                            .all(|((k, v), j)| *k == gen.key(j) && *v == gen.value(j))
                }
                Err(_) => false,
            });
            if ok {
                returned += expected * gen.record_size();
            } else {
                failed += 1;
            }
        } else {
            let j = n_now;
            n_now += 1;
            let key = rec.span(Name::Key, op, log.now, || gen.key(j));
            let value = rec.span(Name::Value, op, log.now, || gen.value(j));
            let put = log.timed(rec, Name::Put, op, &mut store, Store::clock_ns, |s| {
                s.put(&key, &value)
            });
            failed += u64::from(put.is_err());
        }
        rec.close(span, log.now);
    }
    let timed = t.stop();
    rec.close(phase, log.now);
    rec.close(rep, log.now);
    let after = StoreProbe::take(&store);

    let (checks, wrong) = audit(seeds.ops, n_now, &gen, store_get(&mut store));
    let delta = StoreDelta::between(&before, &after);
    RepOut {
        setup_ns,
        host_ns: timed.host_ns,
        wall_ns: timed.wall_ns,
        ops: s.ops,
        sim_ns: delta.sim_ns,
        sim_ops: s.ops,
        latency: Latency::from_log(log),
        delta,
        live_user_bytes: n_now * gen.record_size(),
        returned_bytes: returned,
        attempted: s.ops + checks,
        failed: failed + wrong,
        ..Default::default()
    }
}

/// Arguments of one `serve-mixed` phase: 50/50 zipfian read/insert, closed
/// loop when `rate` is `None`.
fn read_insert_args(s: &Sizes, record_count: u64, rate: Option<f64>, seed: u64) -> ServeArgs {
    ServeArgs {
        mix: ServeMix::ReadInsert,
        rate,
        clients: CLIENTS,
        ops: s.ops,
        record_count,
        seed,
        idle_vlog_gc_bytes: 0,
    }
}

/// One `run_serve` call under a phase span; returns the result and its time.
fn serve_phase(
    store: &mut Store,
    gen: &RecordGenerator,
    args: &ServeArgs,
    rec: &mut Recorder,
) -> (ServeResult, PhaseTime) {
    let sim = store.clock_ns();
    let phase = rec.open(Name::Phase, NONE, sim);
    let span = rec.open(Name::RunServe, NONE, sim);
    let t = PhaseTimer::start();
    let result = serve(store, gen, args);
    let timed = t.stop();
    let sim = store.clock_ns();
    rec.close(span, sim);
    rec.close(phase, sim);
    (result, timed)
}

fn serve_failures(r: &ServeResult) -> u64 {
    r.misses + r.failed_reads + r.abandoned_ops
}

/// The `seal-front` extras of an open-loop phase offered `rate` op/s, within
/// serving that took `host_ns` for `ops` ops in all.
fn serve_out(open: &ServeResult, rate: f64, host_ns: u64, ops: u64) -> ServeOut {
    ServeOut {
        saturation_ops_per_s: 0.0,
        queue_delay_p99_ns: open.queue_delay.p99_ns,
        queue_depth_max: open.queue_depth_max as u64,
        avg_group_size: open.avg_group_size(),
        idle_compactions: open.idle_compactions,
        vlog_gc_steps: open.vlog_gc_steps,
        host_ns_per_op: host_ns as f64 / ops.max(1) as f64,
        achieved_share: open.throughput_ops_per_sec / rate,
    }
}

/// `serve-mixed`: on one freshly preloaded store, a closed-loop zero-think
/// phase (saturation → `sim_ops_per_s`), then an open-loop Poisson phase at
/// [`SERVE_MIXED_RATE`] (→ latency percentiles).
fn serve_mixed(s: &Sizes, seeds: Seeds, rec: &mut Recorder) -> RepOut {
    let t = PhaseTimer::start();
    let (gen, n, mut store) = preloaded(s, seeds, sealdb_store(s, s.insert_bytes()));
    let setup_ns = t.stop().host_ns;

    let before = StoreProbe::take(&store);
    let rep = rec.open(Name::Rep, NONE, before.clock_ns());
    let args = read_insert_args(s, n, None, seeds.ops);
    let (closed, closed_time) = serve_phase(&mut store, &gen, &args, rec);
    // Inserts are sequential from `record_count`: the next phase continues
    // where this one stopped.
    let grown = n + closed.write_ops;
    let args = read_insert_args(s, grown, Some(SERVE_MIXED_RATE), seeds.ops ^ 0x0F0F);
    let (open, open_time) = serve_phase(&mut store, &gen, &args, rec);
    rec.close(rep, store.clock_ns());
    let after = StoreProbe::take(&store);

    let live = grown + open.write_ops;
    let (checks, wrong) = audit(seeds.ops, live, &gen, store_get(&mut store));
    let host_ns = closed_time.host_ns + open_time.host_ns;
    let ops = closed.ops + open.ops;
    RepOut {
        setup_ns,
        host_ns,
        wall_ns: closed_time.wall_ns + open_time.wall_ns,
        ops,
        sim_ns: closed.sim_ns,
        sim_ops: closed.ops,
        latency: Latency::from_serve(&open, open_time.host_ns),
        delta: StoreDelta::between(&before, &after),
        live_user_bytes: live * gen.record_size(),
        returned_bytes: (closed.hits + open.hits) * gen.record_size(),
        gets: closed.hits + closed.misses + open.hits + open.misses,
        attempted: 2 * s.ops + checks,
        failed: serve_failures(&closed) + serve_failures(&open) + wrong,
        serve: Some(ServeOut {
            saturation_ops_per_s: closed.throughput_ops_per_sec,
            idle_compactions: closed.idle_compactions + open.idle_compactions,
            ..serve_out(&open, SERVE_MIXED_RATE, host_ns, ops)
        }),
        ..Default::default()
    }
}

/// One open-loop `serve-mixed` phase at `rate` on a freshly preloaded store —
/// a step of the fixed-rate ladder: simulated p99 (ns) and the achieved share
/// of the offered rate.
pub fn serve_mixed_at(s: &Sizes, seeds: Seeds, rate: f64) -> (f64, f64) {
    let (gen, n, mut store) = preloaded(s, seeds, sealdb_store(s, s.insert_bytes()));
    let r = serve(
        &mut store,
        &gen,
        &read_insert_args(s, n, Some(rate), seeds.ops),
    );
    (r.latency.p99_ns as f64, r.throughput_ops_per_sec / rate)
}

/// `update-vlog`: open-loop YCSB-A on a store with key-value separation, at
/// `rate` op/s (the workload's fixed rate, or a ladder step).
pub fn update_vlog(s: &Sizes, seeds: Seeds, rate: f64, rec: &mut Recorder) -> RepOut {
    let t = PhaseTimer::start();
    let (gen, n, mut store) = preloaded(s, seeds, build_vlog_store(s.preload_bytes));
    let setup_ns = t.stop().host_ns;

    let before = StoreProbe::take(&store);
    let rep = rec.open(Name::Rep, NONE, before.clock_ns());
    let args = ServeArgs {
        mix: ServeMix::ReadUpdate,
        rate: Some(rate),
        clients: CLIENTS,
        ops: s.ops,
        record_count: n,
        seed: seeds.ops,
        idle_vlog_gc_bytes: IDLE_VLOG_GC_BYTES,
    };
    let (open, timed) = serve_phase(&mut store, &gen, &args, rec);
    rec.close(rep, store.clock_ns());
    let after = StoreProbe::take(&store);

    let (checks, wrong) = audit(seeds.ops, n, &gen, store_get(&mut store));
    RepOut {
        setup_ns,
        host_ns: timed.host_ns,
        wall_ns: timed.wall_ns,
        ops: open.ops,
        sim_ns: open.sim_ns,
        sim_ops: open.ops,
        latency: Latency::from_serve(&open, timed.host_ns),
        delta: StoreDelta::between(&before, &after),
        live_user_bytes: n * gen.record_size(),
        returned_bytes: open.hits * gen.record_size(),
        gets: open.hits + open.misses,
        attempted: s.ops + checks,
        failed: serve_failures(&open) + wrong,
        serve: Some(serve_out(&open, rate, timed.host_ns, open.ops)),
        ..Default::default()
    }
}

/// `replicated-write`: random-order puts through a 1 + 2 cluster, `settle()`
/// included.
fn replicated_write(s: &Sizes, seed: u64, rec: &mut Recorder) -> RepOut {
    let t = PhaseTimer::start();
    let gen = generator(s, seed);
    let warm = s.preload_bytes / gen.record_size();
    let n = warm + s.ops;
    let mut cluster = build_cluster(n * gen.record_size());
    for i in 0..warm {
        let j = permute(i, n, seed);
        cluster
            .put(&gen.key(j), &gen.value(j))
            .expect("preload put");
    }
    cluster.settle().expect("preload settle");
    let setup_ns = t.stop().host_ns;

    let before = StoreProbe::take(cluster.primary_store_mut());
    let shipped_before = cluster_counters(&cluster);
    let sim_start = cluster.now_ns();
    let mut log = OpLog::starting_at(sim_start, s.ops);
    let mut failed = 0;
    let rep = rec.open(Name::Rep, NONE, log.now);
    let phase = rec.open(Name::Phase, NONE, log.now);
    let t = PhaseTimer::start();
    for i in 0..s.ops {
        let op = i as u32;
        let span = rec.open(Name::Op, op, log.now);
        let j = rec.span(Name::Draw, op, log.now, || permute(warm + i, n, seed));
        let key = rec.span(Name::Key, op, log.now, || gen.key(j));
        let value = rec.span(Name::Value, op, log.now, || gen.value(j));
        let put = log.timed(
            rec,
            Name::ReplicaPut,
            op,
            &mut cluster,
            Cluster::now_ns,
            |c| c.put(&key, &value),
        );
        failed += u64::from(put.is_err());
        rec.close(span, log.now);
    }
    let settle = rec.open(Name::Settle, NONE, log.now);
    failed += u64::from(cluster.settle().is_err());
    let sim = cluster.now_ns();
    rec.close(settle, sim);
    let timed = t.stop();
    rec.close(phase, sim);
    rec.close(rep, sim);
    let after = StoreProbe::take(cluster.primary_store_mut());
    let shipped_after = cluster_counters(&cluster);

    // Let in-flight frames land, then read half the audit keys on the primary
    // and half on a replica.
    cluster.advance_ns(100_000_000).expect("drain");
    let primary = cluster.primary_index();
    let mut node = 0;
    let (checks, wrong) = audit(seed, n, &gen, |key| {
        node += 1;
        let idx = if node % 2 == 0 { primary } else { primary + 1 };
        cluster.get_of(idx, key).ok().flatten()
    });
    let delta = StoreDelta::between(&before, &after);
    let sim_ns = sim - sim_start;
    // What the primary's own device did not account for: ship and ack waits.
    let device_ns: u64 = delta.kind_time_ns.iter().sum();
    let ack_wait_share = 1.0 - device_ns as f64 / sim_ns.max(1) as f64;
    RepOut {
        setup_ns,
        host_ns: timed.host_ns,
        wall_ns: timed.wall_ns,
        ops: s.ops,
        sim_ns,
        sim_ops: s.ops,
        latency: Latency::from_log(log),
        delta,
        live_user_bytes: n * gen.record_size(),
        attempted: s.ops + 1 + checks,
        failed: failed + wrong,
        cluster: Some((
            ClusterCounters {
                shipped_frames: shipped_after.shipped_frames - shipped_before.shipped_frames,
                shipped_bytes: shipped_after.shipped_bytes - shipped_before.shipped_bytes,
            },
            ack_wait_share,
        )),
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn smoke_pass_of_all_seven_workloads() {
        for w in Workload::ALL {
            let out = run_rep(w, Scale::Smoke, Seeds::for_rep(7, 0), &mut Recorder::off());
            assert_eq!(out.failed, 0, "{}", w.name());
            assert!(out.attempted >= out.ops && out.ops > 0, "{}", w.name());
            assert!(
                out.setup_ns > 0 && out.host_ns > 0 && out.sim_ns > 0,
                "{}",
                w.name()
            );
            assert!(out.latency.both_p99 >= out.latency.both_p50, "{}", w.name());
            assert!(out.latency.both_p50 > 0.0, "{}", w.name());
            // Records still in the memtable are live but not yet allocated,
            // so a small store can read just under 1.
            assert!(out.space_amp() > 0.9, "{}: {}", w.name(), out.space_amp());
            assert!(
                out.read_amp() > 0.0 && out.delta.life_wa >= 1.0,
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn simulated_results_repeat_for_a_seed_and_move_with_it() {
        let run = |seed| {
            let seeds = Seeds::for_rep(seed, 0);
            let o = run_rep(
                Workload::ScanMixed,
                Scale::Smoke,
                seeds,
                &mut Recorder::off(),
            );
            (
                o.sim_ns,
                o.delta.device_read_bytes,
                o.latency.sim_p99 as u64,
            )
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }
}
