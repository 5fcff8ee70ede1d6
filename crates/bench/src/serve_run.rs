//! The latency-under-load artifact behind `--serve-out` and
//! `--serve-check` (`BENCH_pr3.json`).
//!
//! Per main store: a closed-loop run (zero think time) measures the
//! saturation throughput, then open-loop Poisson points at fractions and
//! multiples of it trace the latency-vs-offered-load curve — throughput
//! plateaus at the knee while p99 and queue depth climb, and past the
//! knee the L0 slowdown trigger surfaces as stall counts (the stop
//! trigger must not: compaction in the slowdown sleep holds L0). Every
//! point runs on a freshly preloaded store so no state leaks between
//! load levels, and everything rides the simulated clock: two same-seed
//! sweeps serialize byte-identically.

use crate::artifact::{self, expect_count, row, Row, Val::F};
use crate::BenchScale;
use lsm_core::Result;
use seal_front::{run_serve, ServeConfig, ServeResult};
use sealdb::{Store, StoreKind};
use workloads::{ArrivalProcess, WorkloadSpec};

/// Schema marker the checker requires at the top of the artifact.
const SERVE_SCHEMA: &str = "sealdb-serve-v1";

/// Virtual clients per serving run.
pub(crate) const CLIENTS: usize = 4;

/// Offered load as a fraction of the measured saturation throughput.
const LOAD_MULTIPLIERS: [f64; 4] = [0.5, 0.8, 1.0, 1.3];

/// One offered-load level: everything the serving run measured there.
fn point_row(offered_ops_per_sec: f64, r: &ServeResult) -> Row {
    row! {
        // Total across all clients, ops per simulated second.
        "offered_ops_per_sec" => F(offered_ops_per_sec, 3),
        "throughput_ops_per_sec" => F(r.throughput_ops_per_sec, 3),
        "mean_ns" => F(r.latency.mean_ns, 1),
        "p50_ns" => r.latency.p50_ns,
        "p95_ns" => r.latency.p95_ns,
        "p99_ns" => r.latency.p99_ns,
        "max_ns" => r.latency.max_ns,
        "queue_delay_mean_ns" => F(r.queue_delay.mean_ns, 1),
        "queue_depth_max" => r.queue_depth_max,
        "queue_depth_mean" => F(r.queue_depth_mean, 3),
        "stall_slowdowns" => r.stalls.slowdown_count,
        "stall_stops" => r.stalls.stop_count,
        "stall_memtables" => r.stalls.memtable_count,
        "stall_ns" => r.stalls.total_ns(),
        "write_calls" => r.write_calls,
        "write_ops" => r.write_ops,
        "avg_group_size" => F(r.avg_group_size(), 3),
        "idle_compactions" => r.idle_compactions,
    }
}

/// One store's full sweep: its closed-loop saturation and the open-loop
/// points in [`LOAD_MULTIPLIERS`] order.
fn sweep_store(kind: StoreKind, scale: &BenchScale) -> Result<Row> {
    let gen = scale.generator();
    let (_, records, ops) = swept_at(scale);
    let spec = WorkloadSpec::serve_mix();
    let fresh = || -> Result<Store> {
        let mut store = crate::build_store(kind, scale)?;
        workloads::fill_random(&mut store, &gen, records, scale.seed)?;
        Ok(store)
    };
    let serve = |arrival: ArrivalProcess| -> Result<ServeResult> {
        let cfg = ServeConfig::new(spec, arrival, CLIENTS, ops, records).with_seed(scale.seed);
        run_serve(&mut fresh()?, &gen, &cfg)
    };

    // Saturation: closed loop, zero think time — the store serves as
    // fast as it can.
    let t_sat = serve(ArrivalProcess::ClosedLoop { think_ns: 0 })?.throughput_ops_per_sec;

    let mut points = Vec::with_capacity(LOAD_MULTIPLIERS.len());
    for mult in LOAD_MULTIPLIERS {
        let ops_per_sec = t_sat * mult / CLIENTS as f64;
        let result = serve(ArrivalProcess::OpenLoopPoisson { ops_per_sec })?;
        points.push(point_row(ops_per_sec * CLIENTS as f64, &result));
    }
    Ok(row! {
        "store" => kind.name(),
        "saturation_ops_per_sec" => F(t_sat, 3),
        "points" => points,
    })
}

/// The scale an artifact header states: (sstable, records, ops).
fn swept_at(scale: &BenchScale) -> (u64, u64, u64) {
    let records = scale.load_records().max(1);
    (scale.sstable, records, scale.ycsb_ops.max(CLIENTS as u64))
}

/// Runs the sweep over [`StoreKind::MAIN`], one store per cell, and
/// returns the `BENCH_pr3.json` document: what `seal-bench serve` and
/// `sealdb-cli serve` tabulate and [`serve_sweep`] serialises.
pub fn serve_rows(scale: &BenchScale) -> Result<Row> {
    let stores = crate::per_store_parallel(&StoreKind::MAIN, |kind| sweep_store(kind, scale));
    let (sstable, records, ops) = swept_at(scale);
    Ok(row! {
        "schema" => SERVE_SCHEMA,
        "seed" => scale.seed,
        "sstable" => sstable,
        "records" => records,
        "ops" => ops,
        "clients" => CLIENTS,
        "workload" => WorkloadSpec::serve_mix().name,
        "stores" => stores.into_iter().collect::<Result<Vec<Row>>>()?,
    })
}

/// Runs the serving sweep over [`StoreKind::MAIN`] and returns the
/// artifact as a JSON string.
pub fn serve_sweep(scale: &BenchScale) -> Result<String> {
    Ok(serve_rows(scale)?.to_json())
}

/// Validates a serving artifact: schema marker, one sweep per main
/// store with every load point, no NaN/Inf anywhere — and, for a sweep
/// at the canonical `--serving` scale, the headline properties: SEALDB
/// sustains the highest saturation throughput of the stores swept, and
/// no store stops a write at any load point.
/// Returns the list of problems; empty means valid.
pub fn check_serve_json(content: &str) -> Vec<String> {
    artifact::check(content, SERVE_SCHEMA, |doc, problems| {
        let stores = doc.rows("stores")?;
        expect_count(
            problems,
            StoreKind::MAIN.len(),
            "store sweeps",
            stores.len(),
        );
        let mut sats = Vec::new();
        let mut stops = Vec::new();
        for sweep in stores {
            let store = sweep.s("store")?;
            sats.push((store, sweep.f("saturation_ops_per_sec")?));
            let points = sweep.rows("points")?;
            for p in &points {
                stops.push((store, p.f("offered_ops_per_sec")?, p.u("stall_stops")?));
            }
            let what = format!("points of store {store}");
            expect_count(problems, LOAD_MULTIPLIERS.len(), &what, points.len());
        }
        doc.u("seed")?;
        doc.u("clients")?;
        // The headline properties are claimed — and so gated — at the
        // canonical `--serving` scale; a smaller sweep does not climb the L0
        // ladder far enough for set-aware compaction to decide the ranking.
        let scale = (doc.u("sstable")?, doc.u("records")?, doc.u("ops")?);
        if scale == swept_at(&BenchScale::serving()) {
            // Compaction in the writers' slowdown sleep keeps L0 off the
            // stop trigger at every offered load, overload included.
            for &(store, offered, n) in stops.iter().filter(|&&(_, _, n)| n > 0) {
                problems.push(format!(
                    "{store} stopped writes {n} times at {offered:.3} ops/s offered"
                ));
            }
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
        Ok(())
    })
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

    /// `key` of every point, store by store.
    fn point_values(content: &str, key: &str) -> Vec<f64> {
        let doc = artifact::parse(content).unwrap();
        let stores = doc.rows("stores").unwrap();
        let points = stores.iter().flat_map(|s| s.rows("points").unwrap());
        points.map(|p| p.f(key).unwrap()).collect()
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
        let p99 = point_values(artifact, "p99_ns");
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
        let offered = point_values(artifact, "offered_ops_per_sec");
        let got = point_values(artifact, "throughput_ops_per_sec");
        for (o, g) in offered.iter().zip(&got) {
            assert!(g <= &(o * 1.05), "throughput {g} exceeds offered {o}");
        }
    }

    #[test]
    fn checker_rejects_bad_artifacts() {
        assert!(!check_serve_json("{}").is_empty());
        let doc = format!(
            "{{\"schema\":\"{SERVE_SCHEMA}\",\"seed\":1,\"clients\":4,\"ops\":9,\"stores\":[]}}\n"
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
        let doc = artifact::parse(good).unwrap();
        let leveldb = doc.rows("stores").unwrap()[0]
            .f("saturation_ops_per_sec")
            .unwrap();
        let slower = good.replacen(
            &format!("\"saturation_ops_per_sec\":{leveldb:.3}"),
            "\"saturation_ops_per_sec\":999999999.000",
            1,
        );
        assert!(check_serve_json(&slower)
            .iter()
            .any(|p| p.contains("not highest: LevelDB")));
        // ...and so that one point stopped writes.
        let stopped = good.replacen("\"stall_stops\":0", "\"stall_stops\":4", 1);
        assert!(check_serve_json(&stopped)
            .iter()
            .any(|p| p.contains("stopped writes 4 times")));
    }
}
