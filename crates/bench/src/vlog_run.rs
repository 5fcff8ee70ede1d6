//! The key-value-separation artifact behind `--vlog-out` and
//! `--vlog-check` (`BENCH_pr8.json`).
//!
//! Update-heavy YCSB traffic (A: 50% updates, F: 50% read-modify-writes)
//! is served closed-loop at saturation against two SEALDB builds that
//! differ only in key-value separation: values inline in the LSM (the
//! baseline every prior PR measured) versus values in the band-aligned
//! value log with pointers in the LSM. After the serve phase each store
//! pays its deferred debt — the inline store drains compaction, the vlog
//! store drains compaction plus one garbage-collection lap — so the
//! update write-amplification each cell reports covers the *whole* cost
//! of the traffic, not just the foreground slice. The invariants the CI
//! gate enforces: vlog-on update-WA strictly below inline at every cell,
//! at least 2× lower on workload A, a higher sustained op/s knee, and
//! zero lost keys anywhere.

use crate::BenchScale;
use lsm_core::Result;
use seal_front::{run_serve, ServeConfig};
use sealdb::{Store, StoreConfig, StoreKind, VlogParams};
use smr_sim::IoStats;
use std::fmt::Write as _;
use workloads::{ArrivalProcess, WorkloadSpec};

/// Schema marker the checker requires at the top of the artifact.
pub const VLOG_SCHEMA: &str = "sealdb-vlog-v1";

/// Virtual clients per serving run.
pub const CLIENTS: usize = 4;

/// The update-heavy workloads of the sweep, in artifact order.
pub const WORKLOADS: [&str; 2] = ["A", "F"];

/// Keys that must appear once per sweep cell in a valid artifact.
const CELL_KEYS: [&str; 10] = [
    "\"workload\"",
    "\"vlog\"",
    "\"update_wa\"",
    "\"wa_compaction\"",
    "\"wa_vlog_gc\"",
    "\"saturation_ops_per_sec\"",
    "\"serve_ops_per_sec\"",
    "\"p99_ns\"",
    "\"drain_ns\"",
    "\"lost_keys\"",
];

/// One (workload × store build) cell of the sweep.
#[derive(Clone, Debug)]
pub struct VlogCell {
    /// Workload tag ("A" or "F").
    pub workload: &'static str,
    /// Whether key-value separation was on.
    pub vlog: bool,
    /// Store-internal write bytes per user payload byte over the serve
    /// phase plus its deferred-debt drain: flush + compaction, and for
    /// the vlog build also value-log appends and GC relocations.
    pub update_wa: f64,
    /// Compaction-attributable component of `update_wa`.
    pub wa_compaction: f64,
    /// Value-log-attributable component of `update_wa` (0 for inline).
    pub wa_vlog_gc: f64,
    /// Sustained throughput: served ops over serve *plus* drain time —
    /// the op/s knee a store holds once its deferred debt is charged.
    pub saturation_ops_per_sec: f64,
    /// Foreground-only throughput of the closed-loop serve phase.
    pub serve_ops_per_sec: f64,
    /// p99 end-to-end latency of the serve phase, ns.
    pub p99_ns: u64,
    /// Simulated time spent paying deferred debt after the serve, ns.
    pub drain_ns: u64,
    /// Preloaded keys unreadable after serve + drain (must be 0).
    pub lost_keys: u64,
    /// Value-log bytes appended on behalf of user writes.
    pub vlog_appended_bytes: u64,
    /// Value-log bytes rewritten by GC relocation.
    pub vlog_relocated_bytes: u64,
    /// Segment bytes returned to the allocator by GC.
    pub vlog_reclaimed_bytes: u64,
    /// Segments GC retired during the drain lap.
    pub vlog_segments_retired: u64,
}

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
        ..VlogParams::default()
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

fn run_cell(workload: &'static str, with_vlog: bool, scale: &BenchScale) -> Result<VlogCell> {
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
    // the vlog build drains compaction plus one GC lap over the
    // segments sealed so far (bounded — endless laps would churn live
    // data forever, which no real collector does).
    let drain_start = store.clock_ns();
    while store.needs_compaction() && store.compact_step()? {}
    let gc_budget = scale.band_size();
    let lap = store.vlog.as_ref().map_or(0, |v| v.segment_count() as u64);
    let retired_before = store
        .vlog
        .as_ref()
        .map_or(0, |v| v.stats().segments_retired);
    while store.vlog_gc_pending()
        && store
            .vlog
            .as_ref()
            .map_or(0, |v| v.stats().segments_retired)
            - retired_before
            < lap
    {
        store.vlog_gc_step(gc_budget)?;
        while store.needs_compaction() && store.compact_step()? {}
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
    Ok(VlogCell {
        workload,
        vlog: with_vlog,
        update_wa: delta_ratio(lsm + vlog_bytes, payload),
        wa_compaction: delta_ratio(lsm, payload),
        wa_vlog_gc: delta_ratio(vlog_bytes, payload),
        saturation_ops_per_sec: if total_ns == 0 {
            0.0
        } else {
            served.ops as f64 * 1e9 / total_ns as f64
        },
        serve_ops_per_sec: served.throughput_ops_per_sec,
        p99_ns: served.latency.p99_ns,
        drain_ns,
        lost_keys,
        vlog_appended_bytes: vstats.appended_bytes,
        vlog_relocated_bytes: vstats.relocated_bytes,
        vlog_reclaimed_bytes: vstats.reclaimed_bytes,
        vlog_segments_retired: vstats.segments_retired,
    })
}

/// Runs the four-cell sweep (two workloads × inline/vlog), cells in
/// parallel (each owns an independent simulated disk).
pub fn run_sweep(scale: &BenchScale) -> Result<Vec<VlogCell>> {
    let cells: [(&'static str, bool); 4] = [("A", false), ("A", true), ("F", false), ("F", true)];
    let mut out: Vec<Option<Result<VlogCell>>> = cells.iter().map(|_| None).collect();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for &(w, v) in &cells {
            handles.push(s.spawn(move || run_cell(w, v, scale)));
        }
        for (slot, h) in out.iter_mut().zip(handles) {
            *slot = Some(h.join().expect("sweep cell thread panicked"));
        }
    });
    out.into_iter().map(|o| o.expect("joined")).collect()
}

/// Serialises the sweep as the `BENCH_pr8.json` artifact — one cell per
/// line, which is how [`cell_value`] finds a cell.
pub fn sweep_to_json(scale: &BenchScale, cells: &[VlogCell]) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"schema\":\"{VLOG_SCHEMA}\",\"seed\":{},\"sstable\":{},\"records\":{},\"ops\":{},\"clients\":{},\"value_bytes\":{},\"segment_bytes\":{},\"cells\":[",
        scale.seed,
        scale.sstable,
        scale.load_records().max(1),
        scale.ycsb_ops.max(CLIENTS as u64),
        CLIENTS,
        scale.value_size,
        scale.band_size(),
    );
    for (i, c) in cells.iter().enumerate() {
        s.push_str(if i > 0 { ",\n" } else { "\n" });
        let _ = write!(
            s,
            concat!(
                "{{\"workload\":\"{}\",\"vlog\":{},\"update_wa\":{:.4},",
                "\"wa_compaction\":{:.4},\"wa_vlog_gc\":{:.4},",
                "\"saturation_ops_per_sec\":{:.3},\"serve_ops_per_sec\":{:.3},",
                "\"p99_ns\":{},\"drain_ns\":{},\"lost_keys\":{},",
                "\"vlog_appended_bytes\":{},\"vlog_relocated_bytes\":{},",
                "\"vlog_reclaimed_bytes\":{},\"vlog_segments_retired\":{}}}"
            ),
            c.workload,
            c.vlog,
            c.update_wa,
            c.wa_compaction,
            c.wa_vlog_gc,
            c.saturation_ops_per_sec,
            c.serve_ops_per_sec,
            c.p99_ns,
            c.drain_ns,
            c.lost_keys,
            c.vlog_appended_bytes,
            c.vlog_relocated_bytes,
            c.vlog_reclaimed_bytes,
            c.vlog_segments_retired,
        );
    }
    s.push_str("\n]}\n");
    s
}

/// Runs the sweep and returns the artifact as a JSON string.
pub fn vlog_sweep(scale: &BenchScale) -> Result<String> {
    Ok(sweep_to_json(scale, &run_sweep(scale)?))
}

/// Validates a key-value-separation artifact: schema marker, all four
/// cells, every cell key present the right number of times, no NaN/Inf,
/// and the headline invariants (vlog update-WA strictly below inline
/// per workload and at least 2x below on A; a higher sustained knee per
/// workload; zero lost keys). Returns the problems; empty = valid.
pub fn check_vlog_json(content: &str) -> Vec<String> {
    let mut problems = Vec::new();
    let marker = format!("\"schema\":\"{VLOG_SCHEMA}\"");
    if !content.contains(&marker) {
        problems.push(format!("missing schema marker {marker}"));
    }
    for key in [
        "\"seed\":",
        "\"clients\":",
        "\"ops\":",
        "\"segment_bytes\":",
    ] {
        if !content.contains(key) {
            problems.push(format!("missing key {key}"));
        }
    }
    let expected_cells = WORKLOADS.len() * 2;
    for key in CELL_KEYS {
        let n = content.matches(&format!("{key}:")).count();
        if n != expected_cells {
            problems.push(format!(
                "key {key} appears {n} times, expected {expected_cells}"
            ));
        }
    }
    problems.extend(crate::non_finite_tokens(content));
    // Headline invariants: separation cuts update-WA at every cell (at
    // least 2x on workload A) and sustains a higher op/s knee.
    for w in WORKLOADS {
        let pair = |key: &str| {
            let of = |v: bool| cell_value(content, w, v, key);
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
    for (i, _) in content.match_indices("\"lost_keys\":") {
        let rest = &content[i + "\"lost_keys\":".len()..];
        if !rest.starts_with('0') {
            problems.push("artifact reports lost keys".to_string());
        }
    }
    problems
}

/// Pulls one numeric field out of the `(workload, vlog)` cell of a
/// one-cell-per-line artifact.
pub fn cell_value(content: &str, workload: &str, vlog: bool, key: &str) -> Option<f64> {
    let tag = format!("\"workload\":\"{workload}\",\"vlog\":{vlog},");
    let line = content.lines().find(|l| l.contains(&tag))?;
    crate::json_nums(line, key).next()
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

    #[test]
    fn checker_rejects_bad_artifacts() {
        assert!(!check_vlog_json("{}").is_empty());
        let good = artifact();
        // Flipping the invariant must trip the checker: swap the two
        // update_wa values of workload A.
        let inline = cell_value(good, "A", false, "update_wa").unwrap();
        let vlog = cell_value(good, "A", true, "update_wa").unwrap();
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
        let knee = cell_value(good, "F", true, "saturation_ops_per_sec").unwrap();
        let slow = good.replace(
            &format!("\"saturation_ops_per_sec\":{knee:.3}"),
            "\"saturation_ops_per_sec\":1.000",
        );
        assert!(check_vlog_json(&slow)
            .iter()
            .any(|p| p.contains("workload F: vlog knee")));
    }
}
