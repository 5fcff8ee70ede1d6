//! The measured surface: the ONLY file of the benchmark that names items from
//! the repo's crates. Everything else goes through what is defined or
//! re-exported here, so a change to any item below needs a benchmark issue
//! first (the baseline is re-measured after it lands).
//!
//! Public items bound, by crate:
//!
//! * `sealdb` — `StoreConfig::{new, with_vlog, band_size, build}`, `StoreKind`,
//!   `VlogParams`, `Store::{put, get, scan, write (through seal-front), flush,
//!   clock_ns, snapshot, metrics_snapshot, stall_stats}`, `StoreSnapshot`,
//!   `MetricsSnapshot`.
//! * `workloads` — `RecordGenerator::{new, key, value, record_size}`,
//!   `permute`, `ScrambledZipfian::new` + `Distribution::next`,
//!   `WorkloadSpec::{a, e, serve_mix}`, `ArrivalProcess`.
//! * `seal_front` — `run_serve`, `ServeConfig::{new, with_seed}` (+ its
//!   `idle_vlog_gc_bytes` field), `ServeResult`.
//! * `seal_replica` — `Cluster::{new, put, settle, get_of, now_ns,
//!   primary_store_mut}`, `Cluster.stats`, `ReplicaConfig::new`.
//! * `smr_sim` — `IoStats` / `IoKind` / `KindCounters` (deltas and the
//!   `wa`/`awa`/`mwa` formulas), `Obs` counters, gauges and `LatencyHistogram`
//!   buckets (read through `metrics_snapshot`), and for the probes `Disk::{new,
//!   read, write}`, `Layout::RawHmSmr`, `TimeModel::smr_st5000as0011`,
//!   `Extent::new`, `Obs::{counter_add, latency}`.
//! * `lsm_core` — `Options::scaled` (the engine defaults stated in the output),
//!   `StallStats`, `CompactionRecord`, `util::rng::XorShift64`, and for the
//!   probes `util::crc32c::crc32c`, `util::bloom::BloomFilter::{build,
//!   may_contain}`, `memtable::MemTable::{new, add, get}`,
//!   `LogWriter::{add_record, take}`, `sstable::block::{BlockBuilder, Block}`,
//!   `sstable::{TableBuilder, TableOptions, scan_all}`, `cache::LruCache`,
//!   `iterator::{InternalIterator, MergingIterator, VecIterator}`,
//!   `WriteBatch::put`, `types::make_internal_key`.
//! * `placement` — `DynamicBandAlloc::new` + `Allocator::{allocate, free}`.
//! * `seal_shard` — `HashRing::{new, add_shard, route}`.

use smr_sim::{IoKind, IoStats, LatencyHistogram, ObsLayer};
use workloads::Distribution as _;

pub use lsm_core::util::rng::XorShift64 as Rng;
pub use seal_front::ServeResult;
pub use seal_replica::Cluster;
pub use sealdb::Store;
pub use workloads::{permute, RecordGenerator, ScrambledZipfian};

/// Leaf public functions timed by the host-clock probes.
pub mod leaf {
    pub use lsm_core::cache::LruCache;
    pub use lsm_core::iterator::{InternalIterator, MergingIterator, VecIterator};
    pub use lsm_core::memtable::MemTable;
    pub use lsm_core::sstable::block::{Block, BlockBuilder};
    pub use lsm_core::sstable::{scan_all, TableBuilder, TableOptions};
    pub use lsm_core::types::{make_internal_key, ValueType};
    pub use lsm_core::util::bloom::BloomFilter;
    pub use lsm_core::util::crc32c::crc32c;
    pub use lsm_core::{LogWriter, WriteBatch};
    pub use placement::{Allocator, DynamicBandAlloc};
    pub use seal_shard::HashRing;
    pub use smr_sim::{Disk, Extent, IoKind, Layout, Obs, ObsLayer, TimeModel};
}

/// SSTable size of every store the benchmark builds (1/16 of the paper's).
pub const SSTABLE_BYTES: u64 = 256 << 10;
/// Device capacity as a multiple of the bytes a workload loads (paper: 10×).
pub const CAPACITY_RATIO: u64 = 10;
/// Value-log divert threshold of `update-vlog`.
pub const VLOG_THRESHOLD: usize = 512;

/// Band size at [`SSTABLE_BYTES`] (the paper's 10 × SSTable).
pub fn band_bytes() -> u64 {
    store_config(sealdb::StoreKind::SealDb, 1 << 30).band_size()
}

/// The engine's cache defaults at [`SSTABLE_BYTES`]: block cache bytes and
/// table cache entries. Stated in every result so the working-set sizes can
/// be read against them.
pub fn cache_defaults() -> (u64, u64) {
    let o = lsm_core::Options::scaled(SSTABLE_BYTES);
    (o.block_cache_bytes, o.table_cache_entries)
}

/// Which of the paper's systems to build. Every workload runs SEALDB; the
/// LevelDB baseline exists for `bench.paper.load_speedup_vs_leveldb` only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum System {
    SealDb,
    LevelDb,
}

fn store_config(kind: sealdb::StoreKind, load_bytes: u64) -> sealdb::StoreConfig {
    // `StoreConfig::seed` stays default: the program sees only generated
    // inputs, never the benchmark's seed.
    sealdb::StoreConfig::new(kind, SSTABLE_BYTES, capacity_for(load_bytes))
}

fn capacity_for(load_bytes: u64) -> u64 {
    // Small loads still need room for the log zone and a few bands.
    (load_bytes * CAPACITY_RATIO).max(256 << 20)
}

/// A fresh store sized for `load_bytes` of user data.
pub fn build_store(system: System, load_bytes: u64) -> Store {
    let kind = match system {
        System::SealDb => sealdb::StoreKind::SealDb,
        System::LevelDb => sealdb::StoreKind::LevelDb,
    };
    store_config(kind, load_bytes)
        .build()
        .expect("store builds")
}

/// A fresh SEALDB store with key-value separation: band-sized segments,
/// [`VLOG_THRESHOLD`]-byte divert threshold.
pub fn build_vlog_store(load_bytes: u64) -> Store {
    let cfg = store_config(sealdb::StoreKind::SealDb, load_bytes);
    let params = sealdb::VlogParams {
        segment_bytes: cfg.band_size(),
        value_threshold: VLOG_THRESHOLD,
        ..Default::default()
    };
    cfg.with_vlog(params).build().expect("vlog store builds")
}

/// A fresh cluster: 1 primary + 2 replicas, `WalApply`, `Quorum(1)`, 1 ms
/// links, inline values (the `ReplicaConfig::new` defaults).
pub fn build_cluster(load_bytes: u64) -> Cluster {
    let cfg = seal_replica::ReplicaConfig::new(2, SSTABLE_BYTES, capacity_for(load_bytes));
    Cluster::new(cfg).expect("cluster builds")
}

/// Next scrambled-zipfian item over `[0, n)`.
pub fn zipf_next(z: &mut ScrambledZipfian, rng: &mut Rng, n: u64) -> u64 {
    z.next(rng, n)
}

/// YCSB-E's scan share and maximum scan length, from the repo's spec.
pub fn ycsb_e() -> (f64, usize) {
    let e = workloads::WorkloadSpec::e();
    (e.mix.scan, e.max_scan_len)
}

/// Operation mix of a serving phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeMix {
    /// `WorkloadSpec::serve_mix()`: 50/50 zipfian read / insert.
    ReadInsert,
    /// `WorkloadSpec::a()`: 50/50 zipfian read / update.
    ReadUpdate,
}

/// One `seal_front::run_serve` call.
#[derive(Clone, Copy, Debug)]
pub struct ServeArgs {
    pub mix: ServeMix,
    /// Total offered load in op/s over all clients (open-loop Poisson at a
    /// fixed simulated rate); `None` is closed-loop with zero think time.
    pub rate: Option<f64>,
    pub clients: usize,
    pub ops: u64,
    /// Keys the store holds when the phase starts.
    pub record_count: u64,
    pub seed: u64,
    pub idle_vlog_gc_bytes: u64,
}

pub fn serve(store: &mut Store, gen: &RecordGenerator, a: &ServeArgs) -> ServeResult {
    let spec = match a.mix {
        ServeMix::ReadInsert => workloads::WorkloadSpec::serve_mix(),
        ServeMix::ReadUpdate => workloads::WorkloadSpec::a(),
    };
    let arrival = match a.rate {
        Some(total) => workloads::ArrivalProcess::OpenLoopPoisson {
            ops_per_sec: total / a.clients as f64,
        },
        None => workloads::ArrivalProcess::ClosedLoop { think_ns: 0 },
    };
    let mut cfg = seal_front::ServeConfig::new(spec, arrival, a.clients, a.ops, a.record_count)
        .with_seed(a.seed);
    cfg.idle_vlog_gc_bytes = a.idle_vlog_gc_bytes;
    seal_front::run_serve(store, gen, &cfg).expect("serve phase runs")
}

/// Order of the per-kind arrays in [`StoreDelta`]: `IoKind::ALL`.
pub const KIND_NAMES: [&str; 11] = [
    "wal",
    "flush",
    "compaction_read",
    "compaction_write",
    "get",
    "scan",
    "meta",
    "raw",
    "gc",
    "vlog_append",
    "vlog_gc",
];

/// Everything the public snapshots expose at one instant, taken outside the
/// timed phase.
#[derive(Debug)]
pub struct StoreProbe {
    snap: sealdb::StoreSnapshot,
    metrics: sealdb::MetricsSnapshot,
    stalls: lsm_core::StallStats,
}

impl StoreProbe {
    pub fn take(store: &Store) -> StoreProbe {
        StoreProbe {
            snap: store.snapshot(),
            metrics: store.metrics_snapshot(),
            stalls: store.stall_stats(),
        }
    }

    pub fn clock_ns(&self) -> u64 {
        self.snap.clock_ns
    }

    fn counter(&self, layer: ObsLayer, name: &str) -> u64 {
        self.metrics.obs.registry.counter(layer, name)
    }

    fn gauge(&self, layer: ObsLayer, name: &str) -> f64 {
        self.metrics.obs.registry.gauge(layer, name)
    }
}

/// What one store did between two probes, as plain numbers.
#[derive(Clone, Debug, Default)]
pub struct StoreDelta {
    pub sim_ns: u64,
    /// Simulated service time per `IoKind` ([`KIND_NAMES`] order).
    pub kind_time_ns: [u64; 11],
    pub device_read_ops: u64,
    pub device_write_ops: u64,
    pub device_read_bytes: u64,
    pub device_written_bytes: u64,
    /// Host I/O calls of all kinds.
    pub io_ops: u64,
    pub seeks: u64,
    pub band_rmw_events: u64,
    pub device_read_p99_ns: u64,
    pub device_write_p99_ns: u64,
    /// `IoStats::awa` over the delta (neutral 1.0 with no writes).
    pub awa: f64,
    /// `IoStats::{wa, mwa}` of the store's whole life up to the second probe.
    pub life_wa: f64,
    pub life_mwa: f64,
    /// Device bytes read by `IoKind::{Get, Scan}`.
    pub read_path_device_bytes: u64,
    /// Device reads issued by `IoKind::Get`.
    pub get_device_reads: u64,
    pub band_allocs: u64,
    pub band_appends: u64,
    pub band_recycles: u64,
    /// At the second probe.
    pub allocated_bytes: u64,
    pub high_water_bytes: u64,
    pub free_fragments: u64,
    pub flushes: u64,
    pub flush_bytes: u64,
    /// Real compactions (trivial moves counted apart).
    pub compactions: u64,
    pub compaction_in_bytes: u64,
    pub compaction_out_bytes: u64,
    pub trivial_moves: u64,
    /// Nearest-rank p99 of the real compactions' simulated durations.
    pub compaction_p99_ns: u64,
    pub stall_slowdowns: u64,
    pub stall_stops: u64,
    pub stall_memtable_waits: u64,
    pub stall_ns: u64,
    pub block_cache_hits: u64,
    pub block_cache_misses: u64,
    pub table_cache_hits: u64,
    pub table_cache_misses: u64,
    pub sets: u64,
    pub set_files: u64,
    pub vlog_appended_bytes: u64,
    pub vlog_relocated_bytes: u64,
    pub vlog_reclaimed_bytes: u64,
    /// At the second probe.
    pub vlog_segments: u64,
}

/// p99 of the samples a histogram gained between two snapshots: the upper
/// bound of the bucket holding the rank, clamped to the later maximum (the
/// repo's own `quantile_ns` convention, applied to the bucket deltas).
fn hist_delta_p99(
    before: Option<&LatencyHistogram>,
    after: Option<&LatencyHistogram>,
) -> (u64, u64) {
    let Some(after) = after else {
        return (0, 0);
    };
    let zero = LatencyHistogram::new();
    let before = before.unwrap_or(&zero);
    let counts: Vec<u64> = after
        .bucket_counts()
        .iter()
        .zip(before.bucket_counts())
        .map(|(a, b)| a - b)
        .collect();
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return (0, 0);
    }
    let rank = ((total as f64 * 0.99).ceil() as u64).clamp(1, total);
    let mut seen = 0;
    for (i, c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return (
                total,
                LatencyHistogram::bucket_upper_bound(i).min(after.max_ns()),
            );
        }
    }
    (total, after.max_ns())
}

impl StoreDelta {
    pub fn between(before: &StoreProbe, after: &StoreProbe) -> StoreDelta {
        let (b, a) = (&before.snap, &after.snap);
        let mut d = StoreDelta {
            sim_ns: a.clock_ns - b.clock_ns,
            ..Default::default()
        };
        // Rebuild an `IoStats` holding only the delta, so AWA comes from the
        // repo's own formula.
        let mut io = IoStats::new();
        for (i, kind) in IoKind::ALL.into_iter().enumerate() {
            let (kb, ka) = (b.io.kind(kind), a.io.kind(kind));
            d.kind_time_ns[i] = ka.time_ns - kb.time_ns;
            d.io_ops += ka.ops - kb.ops;
            d.device_read_bytes += ka.device_read - kb.device_read;
            d.device_written_bytes += ka.device_written - kb.device_written;
            io.record_read(
                kind,
                ka.logical_read - kb.logical_read,
                ka.device_read - kb.device_read,
                0,
            );
            io.record_write(
                kind,
                ka.logical_written - kb.logical_written,
                ka.device_written - kb.device_written,
                0,
            );
        }
        io.user_payload = a.io.user_payload - b.io.user_payload;
        d.awa = io.awa();
        d.life_wa = a.io.wa();
        d.life_mwa = a.io.mwa();
        d.read_path_device_bytes =
            io.kind(IoKind::Get).device_read + io.kind(IoKind::Scan).device_read;
        d.get_device_reads = a.io.kind(IoKind::Get).ops - b.io.kind(IoKind::Get).ops;
        d.seeks = a.io.seeks - b.io.seeks;
        d.band_rmw_events = a.io.band_rmw_events - b.io.band_rmw_events;

        let (bo, ao) = (&before.metrics.obs, &after.metrics.obs);
        (d.device_read_ops, d.device_read_p99_ns) = hist_delta_p99(
            bo.histogram(ObsLayer::Device, "read_ns"),
            ao.histogram(ObsLayer::Device, "read_ns"),
        );
        (d.device_write_ops, d.device_write_p99_ns) = hist_delta_p99(
            bo.histogram(ObsLayer::Device, "write_ns"),
            ao.histogram(ObsLayer::Device, "write_ns"),
        );

        let counter = |layer, name: &str| after.counter(layer, name) - before.counter(layer, name);
        d.band_allocs = counter(ObsLayer::Placement, "band-allocate");
        d.band_appends = counter(ObsLayer::Placement, "band-append");
        d.band_recycles = counter(ObsLayer::Placement, "band-recycle");
        d.allocated_bytes = a.allocated_bytes;
        d.high_water_bytes = a.high_water;
        d.free_fragments = a.free_regions.len() as u64;

        d.flushes = a.flushes - b.flushes;
        d.flush_bytes = counter(ObsLayer::Lsm, "flush_bytes");
        let mut durations = Vec::new();
        for c in &a.compactions[b.compactions.len()..] {
            if c.trivial_move {
                d.trivial_moves += 1;
            } else {
                d.compactions += 1;
                d.compaction_in_bytes += c.input_bytes;
                d.compaction_out_bytes += c.output_bytes;
                durations.push(c.duration_ns);
            }
        }
        durations.sort_unstable();
        d.compaction_p99_ns = crate::stats::percentile(&durations, 0.99);

        let s = after.stalls.delta_since(&before.stalls);
        d.stall_slowdowns = s.slowdown_count;
        d.stall_stops = s.stop_count;
        d.stall_memtable_waits = s.memtable_count;
        d.stall_ns = s.total_ns();

        let gauge = |name: &str| {
            (after.gauge(ObsLayer::Cache, name) - before.gauge(ObsLayer::Cache, name)) as u64
        };
        d.block_cache_hits = gauge("block_hits");
        d.block_cache_misses = gauge("block_misses");
        d.table_cache_hits = gauge("table_hits");
        d.table_cache_misses = gauge("table_misses");

        if let (Some(sb), Some(sa)) = (b.set_stats, a.set_stats) {
            d.sets = sa.compaction_sets - sb.compaction_sets;
            d.set_files = sa.compaction_set_files - sb.compaction_set_files;
        }

        let vlog = |name: &str| {
            (after.gauge(ObsLayer::ValueLog, name) - before.gauge(ObsLayer::ValueLog, name)) as u64
        };
        d.vlog_appended_bytes = vlog("appended_bytes");
        d.vlog_relocated_bytes = vlog("relocated_bytes");
        d.vlog_reclaimed_bytes = vlog("reclaimed_bytes");
        d.vlog_segments = after.gauge(ObsLayer::ValueLog, "segments") as u64;
        d
    }
}

/// `Cluster.stats` counters the replicated workload reports.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClusterCounters {
    pub shipped_frames: u64,
    pub shipped_bytes: u64,
}

pub fn cluster_counters(cluster: &Cluster) -> ClusterCounters {
    ClusterCounters {
        shipped_frames: cluster.stats.shipped_frames,
        shipped_bytes: cluster.stats.shipped_bytes,
    }
}
