//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the repo
//! root is generated from this file (`seal-perf manifest`) and a test fails
//! when the two differ.

use crate::json::Json;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Seconds of timed phases one run measures (`--seconds` default and the
/// manifest's `run_seconds`).
pub const RUN_SECONDS: u64 = 10;

pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadInfo; 7] = [
    WorkloadInfo {
        name: "load-random",
        why: "Random-order bulk load into a fresh store (the paper's Fig. 8): memtable, WAL, table build, compaction, dynamic bands and device writes do all the work; the read path does none.",
    },
    WorkloadInfo {
        name: "read-cold",
        why: "Uniform point gets over a working set 48x the block cache: the device and the table/block decode path dominate, so cache, placement and seek changes show here.",
    },
    WorkloadInfo {
        name: "read-hot",
        why: "97% of gets hit a slice that fits the block cache, 3% go cold: the CPU read path (context lock, cache lookup, block seek, copies); bypasses every device and placement change.",
    },
    WorkloadInfo {
        name: "scan-mixed",
        why: "YCSB-E, 95% short scans from a zipfian start and 5% inserts: the iterator and merge path, the same read layers used differently from point gets.",
    },
    WorkloadInfo {
        name: "serve-mixed",
        why: "seal-front with 4 clients, 50/50 zipfian read/insert, closed loop for saturation then open-loop Poisson at a fixed rate: stalls, group commit and compaction interference under queueing.",
    },
    WorkloadInfo {
        name: "update-vlog",
        why: "Open-loop YCSB-A on 4 KiB values with key-value separation: value-log append, pointer chase and idle GC do the work; an update path cheap for inline values but costly here shows only on this row.",
    },
    WorkloadInfo {
        name: "replicated-write",
        why: "Puts through a 1 primary + 2 replica cluster with quorum acks: synced WAL appends plus ship/ack waits, the write path used differently from load-random.",
    },
];

/// Which clock produces a metric; it decides which reps feed it (`run`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    Host,
    Sim,
    /// Simulated time plus the host time of the call.
    Both,
    /// A count, not a time.
    Neither,
}

impl Clock {
    pub fn as_str(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
            Clock::Both => "sim+host",
            Clock::Neither => "-",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base median by which the metric may worsen.
    pub bound: f64,
    /// Absolute difference under which `compare` ignores a change.
    pub floor: f64,
    pub clock: Clock,
}

impl EndToEnd {
    /// Listed in `BENCHMARK.json`. `fail_ratio` is not: the driver's contract
    /// wants metrics that are never 0 and carries failures in the result
    /// line's `attempted` / `failed` / `correct` instead.
    pub fn in_manifest(&self) -> bool {
        self.name != "fail_ratio"
    }
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    floor: f64,
    clock: Clock,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        floor,
        clock,
    }
}

/// Bounds are about three times the spread seen over ten seeds
/// (the table in `README.md`, from `baseline/ten_seeds.json`); `fail_ratio`
/// tolerates no increase at all.
pub const END_TO_END: [EndToEnd; 11] = [
    e2e(
        "host_ops_per_s",
        "1/s",
        Better::Higher,
        0.25,
        0.0,
        Clock::Host,
    ),
    e2e(
        "host_peak_rss_mib",
        "MiB",
        Better::Lower,
        0.20,
        8.0,
        Clock::Host,
    ),
    e2e("setup_s", "s", Better::Lower, 0.25, 0.05, Clock::Host),
    e2e(
        "sim_ops_per_s",
        "1/s",
        Better::Higher,
        0.08,
        0.0,
        Clock::Sim,
    ),
    e2e("op_p50_ms", "ms", Better::Lower, 0.12, 0.001, Clock::Both),
    e2e("op_p99_ms", "ms", Better::Lower, 0.25, 0.01, Clock::Both),
    e2e("wa", "ratio", Better::Lower, 0.08, 0.0, Clock::Sim),
    e2e("mwa", "ratio", Better::Lower, 0.08, 0.0, Clock::Sim),
    e2e("space_amp", "ratio", Better::Lower, 0.15, 0.0, Clock::Sim),
    e2e("read_amp", "ratio", Better::Lower, 0.05, 0.0, Clock::Sim),
    e2e(
        "fail_ratio",
        "ratio",
        Better::Lower,
        0.0,
        0.0,
        Clock::Neither,
    ),
];

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn pl(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher as H, Lower as L};

/// Layer = crate name. Counters are timed-phase deltas read through public
/// snapshots (they repeat exactly for a seed); `*_ns` probes are host-clock
/// medians of fixed-input loops over leaf public functions. A metric that does
/// not apply to a workload reads 0.
pub const PER_LAYER: [PerLayer; 103] = [
    // smr-sim: where simulated time goes, what the device did, and what the
    // simulator itself costs the host.
    pl("smr-sim.time_share.wal", "ratio", L),
    pl("smr-sim.time_share.flush", "ratio", L),
    pl("smr-sim.time_share.compaction_read", "ratio", L),
    pl("smr-sim.time_share.compaction_write", "ratio", L),
    pl("smr-sim.time_share.get", "ratio", L),
    pl("smr-sim.time_share.scan", "ratio", L),
    pl("smr-sim.time_share.meta", "ratio", L),
    pl("smr-sim.time_share.gc", "ratio", L),
    pl("smr-sim.time_share.vlog_append", "ratio", L),
    pl("smr-sim.time_share.vlog_gc", "ratio", L),
    pl("smr-sim.time_share.other", "ratio", L),
    pl("smr-sim.device_write_ops", "count", L),
    pl("smr-sim.device_write_mib", "MiB", L),
    pl("smr-sim.device_read_ops", "count", L),
    pl("smr-sim.device_read_mib", "MiB", L),
    pl("smr-sim.seeks", "count", L),
    pl("smr-sim.band_rmw_events", "count", L),
    pl("smr-sim.awa", "ratio", L),
    pl("smr-sim.device_read_p99_ms", "ms", L),
    pl("smr-sim.device_write_p99_ms", "ms", L),
    pl("smr-sim.host_ns_per_device_io", "ns", L),
    pl("smr-sim.disk.write_ns", "ns", L),
    pl("smr-sim.disk.read_ns", "ns", L),
    pl("smr-sim.obs.counter_add_ns", "ns", L),
    pl("smr-sim.obs.latency_ns", "ns", L),
    // placement
    pl("placement.band_allocs", "count", H),
    pl("placement.band_appends", "count", L),
    pl("placement.band_recycles", "count", H),
    pl("placement.allocated_mib", "MiB", L),
    pl("placement.high_water_mib", "MiB", L),
    pl("placement.free_fragments", "count", L),
    pl("placement.dynamicband.alloc_free_ns", "ns", L),
    // lsm-core
    pl("lsm-core.flushes", "count", L),
    pl("lsm-core.flush_mib", "MiB", L),
    pl("lsm-core.compactions", "count", L),
    pl("lsm-core.compaction_in_mib", "MiB", L),
    pl("lsm-core.compaction_out_mib", "MiB", L),
    pl("lsm-core.trivial_moves", "count", H),
    pl("lsm-core.compaction_p99_ms", "ms", L),
    pl("lsm-core.stall.slowdowns", "count", L),
    pl("lsm-core.stall.stops", "count", L),
    pl("lsm-core.stall.memtable_waits", "count", L),
    pl("lsm-core.stall.time_share", "ratio", L),
    pl("lsm-core.cache.block_hit_ratio", "ratio", H),
    pl("lsm-core.cache.table_hit_ratio", "ratio", H),
    pl("lsm-core.device_reads_per_get", "ratio", L),
    pl("lsm-core.crc32c.ns_per_kib", "ns", L),
    pl("lsm-core.bloom.query_ns", "ns", L),
    pl("lsm-core.bloom.build_ns_per_key", "ns", L),
    pl("lsm-core.memtable.add_ns", "ns", L),
    pl("lsm-core.memtable.get_ns", "ns", L),
    pl("lsm-core.wal.add_record_ns", "ns", L),
    pl("lsm-core.block.build_ns_per_entry", "ns", L),
    pl("lsm-core.block.seek_ns", "ns", L),
    pl("lsm-core.table.build_ns_per_entry", "ns", L),
    pl("lsm-core.table.scan_ns_per_entry", "ns", L),
    pl("lsm-core.cache.get_hit_ns", "ns", L),
    pl("lsm-core.cache.insert_evict_ns", "ns", L),
    pl("lsm-core.merge.next_ns_per_entry", "ns", L),
    pl("lsm-core.batch.put_ns", "ns", L),
    // sealdb: the store calls themselves, from the traced rep.
    pl("sealdb.set.count", "count", L),
    pl("sealdb.set.avg_files", "ratio", H),
    pl("sealdb.put.host_p50_ns", "ns", L),
    pl("sealdb.put.host_p99_ns", "ns", L),
    pl("sealdb.get.host_p50_ns", "ns", L),
    pl("sealdb.get.host_p99_ns", "ns", L),
    pl("sealdb.scan.host_p50_ns", "ns", L),
    pl("sealdb.scan.host_p99_ns", "ns", L),
    pl("sealdb.put.sim_p999_ms", "ms", L),
    pl("sealdb.op.sim_p50_ms", "ms", L),
    pl("sealdb.op.sim_p99_ms", "ms", L),
    pl("sealdb.host_share", "ratio", L),
    // seal-vlog
    pl("seal-vlog.appended_mib", "MiB", L),
    pl("seal-vlog.relocated_mib", "MiB", L),
    pl("seal-vlog.reclaimed_mib", "MiB", H),
    pl("seal-vlog.gc_wa", "ratio", L),
    pl("seal-vlog.segments", "count", L),
    pl("seal-vlog.gc_steps", "count", L),
    // seal-front
    pl("seal-front.saturation_ops_per_s", "1/s", H),
    pl("seal-front.queue_delay_p99_ms", "ms", L),
    pl("seal-front.queue_depth_max", "count", L),
    pl("seal-front.avg_group_size", "ratio", H),
    pl("seal-front.idle_compactions", "count", L),
    pl("seal-front.host_ns_per_op", "ns", L),
    pl("seal-front.p99_ms.x075", "ms", L),
    pl("seal-front.p99_ms.x100", "ms", L),
    pl("seal-front.p99_ms.x125", "ms", L),
    pl("seal-front.p99_ms.x150", "ms", L),
    pl("seal-front.p99_ms.x200", "ms", L),
    pl("seal-front.max_rate_ok", "1/s", H),
    // seal-replica
    pl("seal-replica.shipped_frames", "count", L),
    pl("seal-replica.shipped_mib", "MiB", L),
    pl("seal-replica.ack_wait_share", "ratio", L),
    pl("seal-replica.put.host_p50_ns", "ns", L),
    pl("seal-replica.put.host_p99_ns", "ns", L),
    // seal-shard, workloads: probes, and the generation + verification floor
    // no store change can beat.
    pl("seal-shard.route_ns", "ns", L),
    pl("workloads.key_ns", "ns", L),
    pl("workloads.value_ns", "ns", L),
    pl("workloads.zipfian_next_ns", "ns", L),
    pl("workloads.host_share", "ratio", L),
    // bench: what tracing costs, wall over on-CPU time of the traced rep's
    // timed phases (1 unless the code blocked or the host took the CPU away),
    // and the model's error against its reference (the paper reports 3.42x,
    // EXPERIMENTS.md 2.96x).
    pl("bench.trace_overhead", "ratio", H),
    pl("bench.wall_per_cpu", "ratio", L),
    pl("bench.paper.load_speedup_vs_leveldb", "ratio", H),
];

/// The latency limit of the fixed-rate ladder, and its steps: percent of the
/// serving workload's own fixed rate. Every step is one open-loop phase on a
/// freshly preloaded store.
pub const LADDER_LIMIT_MS: f64 = 500.0;
pub const LADDER_STEPS: [(&str, u64); 5] = [
    ("x075", 75),
    ("x100", 100),
    ("x125", 125),
    ("x150", 150),
    ("x200", 200),
];

/// `BENCHMARK.json`, exactly the keys the driver's contract names.
pub fn manifest() -> Json {
    let workloads = WORKLOADS
        .iter()
        .map(|w| Json::obj().with("name", w.name).with("why", w.why))
        .collect::<Vec<_>>();
    let end_to_end = END_TO_END
        .iter()
        .filter(|m| m.in_manifest())
        .map(|m| {
            Json::obj()
                .with("name", m.name)
                .with("unit", m.unit)
                .with("better", m.better.as_str())
                .with("bound", m.bound)
        })
        .collect::<Vec<_>>();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            Json::obj()
                .with("name", m.name)
                .with("unit", m.unit)
                .with("better", m.better.as_str())
        })
        .collect::<Vec<_>>();
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ]
    .iter()
    .map(|&s| Json::from(s))
    .collect::<Vec<_>>();
    Json::obj()
        .with("command", command)
        .with("paths", vec![Json::from("benchmark")])
        .with("run_seconds", RUN_SECONDS)
        .with("workloads", workloads)
        .with("end_to_end", end_to_end)
        .with("per_layer", per_layer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn every_name_is_well_formed_and_used_once() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(well_formed(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit_ok(unit), "{unit}");
        }
    }

    #[test]
    fn manifest_respects_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let listed: Vec<_> = END_TO_END.iter().filter(|m| m.in_manifest()).collect();
        assert!((1..=16).contains(&listed.len()));
        assert!(listed.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = end_to_end("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        // Set-up time gets the largest bound.
        assert!(listed.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(manifest().pretty().len() <= 64 << 10);
    }

    /// The lines of `[profile.release]` in a manifest.
    fn release_profile(manifest: &str) -> Vec<String> {
        manifest
            .lines()
            .skip_while(|l| l.trim() != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with('['))
            .map(|l| l.trim().to_string())
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect()
    }

    #[test]
    fn release_profile_equals_the_roots() {
        // Path dependencies are compiled with the benchmark's profile: the
        // measured code must be the shipped code.
        let own = include_str!("../Cargo.toml");
        let root = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml"))
            .expect("root Cargo.toml");
        assert!(!release_profile(own).is_empty());
        assert_eq!(release_profile(own), release_profile(&root));
    }

    #[test]
    fn benchmark_json_is_generated_from_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            manifest().pretty(),
            "regenerate with `seal-perf manifest > BENCHMARK.json`"
        );
    }
}
