//! The latency-under-load artifact behind `--serve-out` and
//! `--serve-check` (`BENCH_pr3.json`).
//!
//! Per main store: a closed-loop run (zero think time) measures the
//! saturation throughput, then open-loop Poisson points at fractions and
//! multiples of it trace the latency-vs-offered-load curve — throughput
//! plateaus at the knee while p99 and queue depth climb, and past the
//! knee the L0 slowdown/stop triggers surface as stall counts. Every
//! point runs on a freshly preloaded store so no state leaks between
//! load levels, and everything rides the simulated clock: two same-seed
//! sweeps serialize byte-identically.

use crate::BenchScale;
use lsm_core::Result;
use seal_front::{run_serve, ServeConfig, ServeResult};
use sealdb::{Store, StoreKind};
use std::fmt::Write as _;
use workloads::{ArrivalProcess, WorkloadSpec};

/// Schema marker the checker requires at the top of the artifact.
pub const SERVE_SCHEMA: &str = "sealdb-serve-v1";

/// Virtual clients per serving run.
pub const CLIENTS: usize = 4;

/// Offered load as a fraction of the measured saturation throughput.
pub const LOAD_MULTIPLIERS: [f64; 4] = [0.5, 0.8, 1.0, 1.3];

/// Keys that must appear once per sweep point in a valid artifact.
const POINT_KEYS: [&str; 12] = [
    "\"offered_ops_per_sec\"",
    "\"throughput_ops_per_sec\"",
    "\"mean_ns\"",
    "\"p50_ns\"",
    "\"p95_ns\"",
    "\"p99_ns\"",
    "\"max_ns\"",
    "\"queue_depth_max\"",
    "\"stall_slowdowns\"",
    "\"stall_stops\"",
    "\"stall_memtables\"",
    "\"avg_group_size\"",
];

fn point_json(offered_per_client: f64, r: &ServeResult) -> String {
    format!(
        concat!(
            "{{\"offered_ops_per_sec\":{:.3},\"throughput_ops_per_sec\":{:.3},",
            "\"mean_ns\":{:.1},\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{},\"max_ns\":{},",
            "\"queue_delay_mean_ns\":{:.1},\"queue_depth_max\":{},\"queue_depth_mean\":{:.3},",
            "\"stall_slowdowns\":{},\"stall_stops\":{},\"stall_memtables\":{},\"stall_ns\":{},",
            "\"write_calls\":{},\"write_ops\":{},\"avg_group_size\":{:.3},",
            "\"idle_compactions\":{}}}"
        ),
        offered_per_client * CLIENTS as f64,
        r.throughput_ops_per_sec,
        r.latency.mean_ns,
        r.latency.p50_ns,
        r.latency.p95_ns,
        r.latency.p99_ns,
        r.latency.max_ns,
        r.queue_delay.mean_ns,
        r.queue_depth_max,
        r.queue_depth_mean,
        r.stalls.slowdown_count,
        r.stalls.stop_count,
        r.stalls.memtable_count,
        r.stalls.total_ns(),
        r.write_calls,
        r.write_ops,
        r.avg_group_size(),
        r.idle_compactions,
    )
}

/// One offered-load level of a store's sweep.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Total offered load across all clients, ops per simulated second.
    pub offered_ops_per_sec: f64,
    /// Everything the serving run measured at this load.
    pub result: ServeResult,
}

/// One store's full sweep.
#[derive(Clone, Debug)]
pub struct StoreSweep {
    /// Display name of the store.
    pub store: &'static str,
    /// Closed-loop (zero think time) saturation throughput.
    pub saturation_ops_per_sec: f64,
    /// Open-loop points, in [`LOAD_MULTIPLIERS`] order.
    pub points: Vec<SweepPoint>,
}

fn sweep_store(kind: StoreKind, scale: &BenchScale) -> Result<StoreSweep> {
    let gen = scale.generator();
    let records = scale.load_records().max(1);
    let ops = scale.ycsb_ops.max(CLIENTS as u64);
    let spec = WorkloadSpec::serve_mix();
    let fresh = || -> Result<Store> {
        let mut store = crate::build_store(kind, scale)?;
        workloads::fill_random(&mut store, &gen, records, scale.seed)?;
        Ok(store)
    };

    // Saturation: closed loop, zero think time — the store serves as
    // fast as it can.
    let mut store = fresh()?;
    let closed = ServeConfig::new(
        spec,
        ArrivalProcess::ClosedLoop { think_ns: 0 },
        CLIENTS,
        ops,
        records,
    )
    .with_seed(scale.seed);
    let sat = run_serve(&mut store, &gen, &closed)?;
    let t_sat = sat.throughput_ops_per_sec;

    let mut points = Vec::with_capacity(LOAD_MULTIPLIERS.len());
    for mult in LOAD_MULTIPLIERS {
        let per_client = t_sat * mult / CLIENTS as f64;
        let mut store = fresh()?;
        let cfg = ServeConfig::new(
            spec,
            ArrivalProcess::OpenLoopPoisson {
                ops_per_sec: per_client,
            },
            CLIENTS,
            ops,
            records,
        )
        .with_seed(scale.seed);
        let result = run_serve(&mut store, &gen, &cfg)?;
        points.push(SweepPoint {
            offered_ops_per_sec: per_client * CLIENTS as f64,
            result,
        });
    }
    Ok(StoreSweep {
        store: kind.name(),
        saturation_ops_per_sec: t_sat,
        points,
    })
}

/// Runs the sweep over [`StoreKind::MAIN`], one store per thread, and
/// returns the structured results in presentation order.
pub fn run_sweep(scale: &BenchScale) -> Result<Vec<StoreSweep>> {
    crate::per_store_parallel(&StoreKind::MAIN, |kind| sweep_store(kind, scale))
        .into_iter()
        .collect()
}

/// The artifact header's statement of the scale it was swept at.
fn scale_header(scale: &BenchScale) -> String {
    format!(
        "\"sstable\":{},\"records\":{},\"ops\":{},",
        scale.sstable,
        scale.load_records().max(1),
        scale.ycsb_ops.max(CLIENTS as u64)
    )
}

/// Serialises a sweep as the `BENCH_pr3.json` artifact.
pub fn sweep_to_json(scale: &BenchScale, sweeps: &[StoreSweep]) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"schema\":\"{SERVE_SCHEMA}\",\"seed\":{},{}\"clients\":{},\"workload\":\"S\",\"stores\":[",
        scale.seed,
        scale_header(scale),
        CLIENTS,
    );
    for (i, sweep) in sweeps.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"store\":\"{}\",\"saturation_ops_per_sec\":{:.3},\"points\":[",
            sweep.store, sweep.saturation_ops_per_sec
        );
        for (j, p) in sweep.points.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            s.push_str(&point_json(
                p.offered_ops_per_sec / CLIENTS as f64,
                &p.result,
            ));
        }
        s.push_str("]}");
    }
    s.push_str("]}\n");
    s
}

/// Runs the serving sweep over [`StoreKind::MAIN`] and returns the
/// artifact as a JSON string.
pub fn serve_sweep(scale: &BenchScale) -> Result<String> {
    Ok(sweep_to_json(scale, &run_sweep(scale)?))
}

/// Validates a serving artifact: schema marker, one sweep per main
/// store, every point key present the right number of times, no
/// NaN/Inf anywhere — and, for a sweep at the canonical `--serving`
/// scale, the headline property: SEALDB sustains the highest saturation
/// throughput of the stores swept. Returns the list of problems; empty
/// means valid.
pub fn check_serve_json(content: &str) -> Vec<String> {
    let mut problems = Vec::new();
    let marker = format!("\"schema\":\"{SERVE_SCHEMA}\"");
    if !content.contains(&marker) {
        problems.push(format!("missing schema marker {marker}"));
    }
    for key in ["\"seed\":", "\"clients\":", "\"ops\":"] {
        if !content.contains(key) {
            problems.push(format!("missing key {key}"));
        }
    }
    let expected_stores = StoreKind::MAIN.len();
    let stores = content.matches("\"store\":").count();
    if stores != expected_stores {
        problems.push(format!(
            "expected {expected_stores} store sweeps, found {stores}"
        ));
    }
    let sat = content.matches("\"saturation_ops_per_sec\":").count();
    if sat != expected_stores {
        problems.push(format!(
            "key \"saturation_ops_per_sec\" appears {sat} times, expected {expected_stores}"
        ));
    }
    let expected_points = expected_stores * LOAD_MULTIPLIERS.len();
    for key in POINT_KEYS {
        let n = content.matches(key).count();
        if n != expected_points {
            problems.push(format!(
                "key {key} appears {n} times, expected {expected_points}"
            ));
        }
    }
    problems.extend(crate::non_finite_tokens(content));
    // The headline property is claimed — and so gated — at the canonical
    // `--serving` scale; a smaller sweep does not climb the L0 ladder far
    // enough for set-aware compaction to decide the ranking.
    if content.contains(&scale_header(&BenchScale::serving())) {
        let sats: Vec<(&str, f64)> = content
            .split("{\"store\":\"")
            .skip(1)
            .filter_map(|sweep| {
                let sat = crate::json_nums(sweep, "saturation_ops_per_sec").next()?;
                Some((sweep.split('"').next()?, sat))
            })
            .collect();
        let sealdb = StoreKind::SealDb.name();
        if let Some(&(_, best)) = sats.iter().find(|(store, _)| *store == sealdb) {
            for &(store, sat) in sats.iter().filter(|(store, _)| *store != sealdb) {
                if sat >= best {
                    problems.push(format!(
                        "SEALDB saturation {best:.3} not highest: {store} sustains {sat:.3}"
                    ));
                }
            }
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// One sweep shared by every test that only reads the artifact (the
    /// sweep preloads 15 stores; running it once keeps the suite fast).
    fn artifact() -> &'static str {
        static ARTIFACT: OnceLock<String> = OnceLock::new();
        ARTIFACT.get_or_init(|| serve_sweep(&test_scale()).unwrap())
    }

    fn test_scale() -> BenchScale {
        let mut s = BenchScale::tiny();
        // Clear of the 16 MiB log zone (capacity = 12x load) with room
        // for the deferred-mode L0 buildup the sweep provokes.
        s.load_bytes = 4 << 20;
        s.capacity_ratio = 12;
        s.ycsb_ops = 400;
        s
    }

    fn values(content: &str, key: &str) -> Vec<f64> {
        crate::json_nums(content, key).collect()
    }

    #[test]
    fn sweep_is_valid_and_deterministic() {
        let a = artifact();
        let b = serve_sweep(&test_scale()).unwrap();
        assert_eq!(a, &b, "same-seed artifacts must be byte-identical");
        let problems = check_serve_json(a);
        assert!(problems.is_empty(), "artifact invalid: {problems:?}");
        for store in ["LevelDB", "SMRDB", "SEALDB"] {
            assert!(a.contains(&format!("\"store\":\"{store}\"")));
        }
    }

    #[test]
    fn latency_rises_with_offered_load() {
        let artifact = artifact();
        let p99 = values(artifact, "p99_ns");
        let n = LOAD_MULTIPLIERS.len();
        assert_eq!(p99.len(), 3 * n);
        for (s, chunk) in p99.chunks(n).enumerate() {
            // Past the knee the tail must inflate: the overload point's
            // p99 strictly exceeds the half-load point's.
            assert!(
                chunk[n - 1] > chunk[0],
                "store {s}: p99 {chunk:?} did not rise with load"
            );
        }
        // Throughput cannot exceed what was offered (open loop serves
        // only what arrived).
        let offered = values(artifact, "offered_ops_per_sec");
        let got = values(artifact, "throughput_ops_per_sec");
        for (o, g) in offered.iter().zip(&got) {
            assert!(g <= &(o * 1.05), "throughput {g} exceeds offered {o}");
        }
    }

    #[test]
    fn checker_rejects_bad_artifacts() {
        assert!(!check_serve_json("{}").is_empty());
        let doc = format!(
            "{{\"schema\":\"{SERVE_SCHEMA}\",\"seed\":1,\"clients\":4,\"ops\":9,\"stores\":[]}}"
        );
        assert!(check_serve_json(&doc)
            .iter()
            .any(|p| p.contains("store sweeps")));
        let doc = doc.replace("\"seed\":1", "\"seed\":NaN");
        assert!(check_serve_json(&doc)
            .iter()
            .any(|p| p.contains("non-finite")));
        // The committed canonical-scale artifact, doctored so LevelDB
        // out-saturates SEALDB.
        let good = include_str!("../../../BENCH_pr3.json");
        assert_eq!(check_serve_json(good), Vec::<String>::new());
        let leveldb = values(good, "saturation_ops_per_sec")[0];
        let slower = good.replacen(
            &format!("\"saturation_ops_per_sec\":{leveldb:.3}"),
            "\"saturation_ops_per_sec\":999999999.000",
            1,
        );
        assert!(check_serve_json(&slower)
            .iter()
            .any(|p| p.contains("not highest: LevelDB")));
    }
}
