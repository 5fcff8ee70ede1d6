//! The key-value-separation artifact behind `--vlog-out` and
//! `--vlog-check` (`BENCH_pr8.json`).
//!
//! Update-heavy YCSB traffic (A: 50% updates, F: 50% read-modify-writes)
//! is served closed-loop at saturation against two SEALDB builds that
//! differ only in key-value separation: values inline in the LSM (the
//! baseline every prior PR measured) versus values in the band-aligned
//! value log with pointers in the LSM. After the serve phase each store
//! pays its deferred debt — the inline store drains compaction, the vlog
//! store drains compaction plus value-log GC while it is due — so the
//! update write-amplification each cell reports covers the *whole* cost
//! of the traffic, not just the foreground slice. The invariants the CI
//! gate enforces: vlog-on update-WA strictly below inline at every cell,
//! at least 2× lower on workload A, a higher sustained op/s knee, and
//! zero lost keys anywhere.

use crate::artifact::{self, expect_count, row, run_cells, Row, Val::F};
use crate::BenchScale;
use lsm_core::Result;
use seal_front::{run_serve, ServeConfig};
use sealdb::{Store, StoreConfig, StoreKind, VlogParams};
use smr_sim::IoStats;
use workloads::{ArrivalProcess, WorkloadSpec};

/// Schema marker the checker requires at the top of the artifact.
const VLOG_SCHEMA: &str = "sealdb-vlog-v1";

/// Virtual clients per serving run.
pub(crate) const CLIENTS: usize = 4;

/// The update-heavy workloads of the sweep, in artifact order.
pub(crate) const WORKLOADS: [&str; 2] = ["A", "F"];

fn spec_for(workload: &str) -> WorkloadSpec {
    match workload {
        "A" => WorkloadSpec::a(),
        _ => WorkloadSpec::f(),
    }
}

/// The vlog parameters of the sweep's separated build: segments sized
/// to one whole band, and a threshold of 1 so every benchmark value is
/// separated (the WiscKey-style full-separation configuration).
fn sweep_params(scale: &BenchScale) -> VlogParams {
    VlogParams {
        segment_bytes: scale.band_size(),
        value_threshold: 1,
    }
}

fn io_snapshot(store: &Store) -> IoStats {
    store.db.ctx().lock().fs.disk().stats().clone()
}

/// WA ratio of a counter delta; 0/0 reports 0 (nothing moved).
fn delta_ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// One (workload × store build) cell of the sweep.
fn run_cell(workload: &str, with_vlog: bool, scale: &BenchScale) -> Result<Row> {
    let gen = scale.generator();
    let records = scale.load_records().max(1);
    let ops = scale.ycsb_ops.max(CLIENTS as u64);
    // The sweep favours small keyspaces hammered by many updates (so
    // steady-state garbage, not the preload, dominates GC); floor the
    // capacity clear of the log zone plus working room either way.
    let capacity = scale.disk_capacity().max(48 << 20);
    let mut cfg = StoreConfig::new(StoreKind::SealDb, scale.sstable, capacity);
    cfg.seed = scale.seed;
    if with_vlog {
        cfg = cfg.with_vlog(sweep_params(scale));
    }
    let mut store = cfg.build()?;
    workloads::fill_random(&mut store, &gen, records, scale.seed)?;
    store.flush()?;

    let base = io_snapshot(&store);
    let serve_cfg = ServeConfig::new(
        spec_for(workload),
        ArrivalProcess::ClosedLoop { think_ns: 0 },
        CLIENTS,
        ops,
        records,
    )
    .with_seed(scale.seed);
    let served = run_serve(&mut store, &gen, &serve_cfg)?;

    // Pay the deferred debt the closed-loop phase left behind, on the
    // simulated clock: the inline build drains its compaction backlog;
    // the vlog build drains compaction plus GC for as long as GC is due
    // — until the log's garbage is back under the tree's space budget.
    // The loop ends: with no user writes, a retire only removes dead
    // bytes (every live record of the victim was relocated first, which
    // moved its bytes to the survivor head and left the old copy dead), so each
    // victim lowers the log's known-dead bytes by its own garbage, and
    // nothing else adds any.
    let drain_start = store.clock_ns();
    store.compact_until(u64::MAX, &mut 0)?;
    let gc_budget = scale.band_size();
    while store.vlog_gc_due() {
        store.vlog_gc_step(gc_budget)?;
        store.compact_until(u64::MAX, &mut 0)?;
    }
    let drain_ns = store.clock_ns() - drain_start;

    let end = io_snapshot(&store);
    let payload = end.user_payload - base.user_payload;
    let lsm = end.lsm_written() - base.lsm_written();
    let vlog_bytes = end.vlog_written() - base.vlog_written();

    let mut lost_keys = 0u64;
    for i in 0..records {
        if !matches!(store.get(&gen.key(i)), Ok(Some(_))) {
            lost_keys += 1;
        }
    }

    let vstats = store.vlog.as_ref().map(|v| v.stats()).unwrap_or_default();
    let total_ns = served.sim_ns + drain_ns;
    let knee = if total_ns == 0 {
        0.0
    } else {
        served.ops as f64 * 1e9 / total_ns as f64
    };
    Ok(row! {
        "workload" => workload,
        "vlog" => with_vlog,
        // Store-internal write bytes per user payload byte over the serve
        // phase plus its deferred-debt drain: flush + compaction, and for
        // the vlog build also value-log appends and GC relocations.
        "update_wa" => F(delta_ratio(lsm + vlog_bytes, payload), 4),
        "wa_compaction" => F(delta_ratio(lsm, payload), 4),
        "wa_vlog_gc" => F(delta_ratio(vlog_bytes, payload), 4),
        // Sustained throughput: served ops over serve *plus* drain time —
        // the op/s knee a store holds once its deferred debt is charged.
        "saturation_ops_per_sec" => F(knee, 3),
        // Foreground-only throughput of the closed-loop serve phase.
        "serve_ops_per_sec" => F(served.throughput_ops_per_sec, 3),
        "p99_ns" => served.latency.p99_ns,
        "drain_ns" => drain_ns,
        // Preloaded keys unreadable after serve + drain (must be 0).
        "lost_keys" => lost_keys,
        "vlog_appended_bytes" => vstats.appended_bytes,
        "vlog_relocated_bytes" => vstats.relocated_bytes,
        "vlog_reclaimed_bytes" => vstats.reclaimed_bytes,
        "vlog_segments_retired" => vstats.segments_retired,
    })
}

/// Runs the four-cell sweep (two workloads × inline/vlog) and returns the
/// artifact as a JSON string.
pub fn vlog_sweep(scale: &BenchScale) -> Result<String> {
    let cells = run_cells(WORKLOADS.len() * 2, |i| {
        run_cell(WORKLOADS[i / 2], i % 2 == 1, scale)
    });
    let doc = row! {
        "schema" => VLOG_SCHEMA,
        "seed" => scale.seed,
        "sstable" => scale.sstable,
        "records" => scale.load_records().max(1),
        "ops" => scale.ycsb_ops.max(CLIENTS as u64),
        "clients" => CLIENTS,
        "value_bytes" => scale.value_size,
        "segment_bytes" => scale.band_size(),
        "cells" => cells.into_iter().collect::<Result<Vec<Row>>>()?,
    };
    Ok(doc.to_json())
}

/// The `(workload, vlog)` cell of a parsed sweep.
fn cell_of<'a>(cells: &[&'a Row], workload: &str, vlog: bool) -> Option<&'a Row> {
    let is = |c: &&Row| c.s("workload") == Ok(workload) && c.b("vlog") == Ok(vlog);
    cells.iter().copied().find(is)
}

/// Validates a key-value-separation artifact: schema marker, all four
/// cells, no NaN/Inf, and the headline invariants (vlog update-WA
/// strictly below inline per workload and at least 2x below on A; a
/// higher sustained knee per workload; zero lost keys). Returns the
/// problems; empty = valid.
pub fn check_vlog_json(content: &str) -> Vec<String> {
    artifact::check(content, VLOG_SCHEMA, |doc, problems| {
        for key in ["seed", "clients", "ops", "segment_bytes"] {
            doc.u(key)?;
        }
        let cells = doc.rows("cells")?;
        let expected_cells = WORKLOADS.len() * 2;
        expect_count(problems, expected_cells, "cells", cells.len());
        // Headline invariants: separation cuts update-WA at every cell (at
        // least 2x on workload A) and sustains a higher op/s knee.
        for w in WORKLOADS {
            let pair = |key: &str| {
                let of = |vlog: bool| cell_of(&cells, w, vlog)?.f(key).ok();
                of(false).zip(of(true))
            };
            match pair("update_wa") {
                Some((inline, vlog)) => {
                    if vlog >= inline {
                        problems.push(format!(
                            "workload {w}: vlog update_wa {vlog} not below inline {inline}"
                        ));
                    } else if w == "A" && vlog * 2.0 > inline {
                        problems.push(format!(
                            "workload A: vlog update_wa {vlog} not 2x below inline {inline}"
                        ));
                    }
                }
                None => problems.push(format!("workload {w}: missing inline/vlog update_wa pair")),
            }
            match pair("saturation_ops_per_sec") {
                Some((inline, vlog)) if vlog <= inline => problems.push(format!(
                    "workload {w}: vlog knee {vlog} not above inline {inline}"
                )),
                Some(_) => {}
                None => problems.push(format!("workload {w}: missing inline/vlog knee pair")),
            }
        }
        for cell in cells {
            if cell.u("lost_keys")? != 0 {
                problems.push("artifact reports lost keys".to_string());
            }
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// One sweep shared by every test that only reads the artifact.
    fn artifact() -> &'static str {
        static ARTIFACT: OnceLock<String> = OnceLock::new();
        ARTIFACT.get_or_init(|| vlog_sweep(&test_scale()).unwrap())
    }

    /// The committed `BENCH_pr8.json` flags: `--tiny --value 4096
    /// --load-mb 4 --ycsb-ops 4000`. Key-value separation pays off in
    /// the large-value regime, where compaction bandwidth (not head
    /// seeks) dominates the update cost — the same regime the paper's
    /// set-aware stores target with whole-band payloads.
    fn test_scale() -> BenchScale {
        let mut s = BenchScale::tiny();
        s.value_size = 4096;
        s.load_bytes = 4 << 20;
        s.ycsb_ops = 4000;
        s
    }

    #[test]
    fn sweep_is_valid_and_deterministic() {
        let a = artifact();
        let b = vlog_sweep(&test_scale()).unwrap();
        assert_eq!(a, &b, "same-seed artifacts must be byte-identical");
        let problems = check_vlog_json(a);
        assert!(problems.is_empty(), "artifact invalid: {problems:?}");
    }

    /// One numeric field of the `(workload, vlog)` cell.
    fn cell_value(content: &str, workload: &str, vlog: bool, key: &str) -> f64 {
        let doc = artifact::parse(content).unwrap();
        let cells = doc.rows("cells").unwrap();
        let cell = cell_of(&cells, workload, vlog).unwrap();
        cell.f(key).unwrap()
    }

    #[test]
    fn checker_rejects_bad_artifacts() {
        assert!(!check_vlog_json("{}").is_empty());
        let good = artifact();
        // Flipping the invariant must trip the checker: swap the two
        // update_wa values of workload A.
        let inline = cell_value(good, "A", false, "update_wa");
        let vlog = cell_value(good, "A", true, "update_wa");
        let bad = good
            .replace(
                &format!("\"update_wa\":{inline:.4}"),
                "\"update_wa\":__TMP__",
            )
            .replace(
                &format!("\"update_wa\":{vlog:.4}"),
                &format!("\"update_wa\":{inline:.4}"),
            )
            .replace("\"update_wa\":__TMP__", &format!("\"update_wa\":{vlog:.4}"));
        assert!(check_vlog_json(&bad)
            .iter()
            .any(|p| p.contains("not below inline")));
        let lost = good.replace("\"lost_keys\":0", "\"lost_keys\":3");
        assert!(check_vlog_json(&lost)
            .iter()
            .any(|p| p.contains("lost keys")));
        // Below inline, but by less than 2x, on workload A.
        let close = good.replace(
            &format!("\"update_wa\":{vlog:.4}"),
            &format!("\"update_wa\":{:.4}", inline * 0.75),
        );
        assert!(check_vlog_json(&close)
            .iter()
            .any(|p| p.contains("not 2x below inline")));
        // The vlog build of workload F sustaining a lower knee.
        let knee = cell_value(good, "F", true, "saturation_ops_per_sec");
        let slow = good.replace(
            &format!("\"saturation_ops_per_sec\":{knee:.3}"),
            "\"saturation_ops_per_sec\":1.000",
        );
        assert!(check_vlog_json(&slow)
            .iter()
            .any(|p| p.contains("workload F: vlog knee")));
    }

    /// The hole the line scan had: inline/vlog pairs were located by
    /// *line*, so the same JSON without its newlines was rejected.
    #[test]
    fn committed_artifact_is_one_line_and_valid() {
        let good = include_str!("../../../BENCH_pr8.json");
        assert_eq!(good.matches('\n').count(), 1);
        assert_eq!(check_vlog_json(good), Vec::<String>::new());
    }
}
