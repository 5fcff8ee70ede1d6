//! The durability-under-latent-errors artifact behind `--scrub-out` and
//! `--scrub-check` (`BENCH_pr5.json`).
//!
//! SEALDB is loaded, then latent sector errors are planted in its live
//! tables (every read through a planted region returns flipped bits —
//! the fault is on the platter, so re-reads do not help). The sweep
//! crosses the number of planted regions with the scrubber's per-step
//! byte budget, plus a scrub-off baseline per fault count; every cell
//! then audits the full keyspace. The artifact's headline invariant,
//! re-checked by CI: with scrubbing on, **zero keys are lost** — every
//! planted region is found, corrected and the table rewritten onto
//! clean space — while the scrub-off baseline loses a deterministic,
//! quantified set of keys. A fail-slow region rides along so the
//! artifact also exercises the latency-fault counters.
//!
//! Everything runs on the simulated clock with seeded fault placement,
//! so two runs at the same seed produce byte-identical artifacts.

use crate::{json_nums, BenchScale};
use lsm_core::{Result, ScrubConfig};
use sealdb::{Store, StoreKind};
use smr_sim::Extent;
use std::fmt::Write as _;

/// Schema marker the checker requires at the top of the artifact.
pub const SCRUB_SCHEMA: &str = "sealdb-scrub-v1";

/// Scrub per-step byte budgets swept (0 = scrub disabled is implicit:
/// one baseline cell per fault count).
pub const SCRUB_BUDGETS: [u64; 2] = [64 << 10, 1 << 20];

/// Latent-error regions planted, one per distinct table.
pub const FAULT_COUNTS: [usize; 2] = [1, 4];

/// Bytes per planted latent-error region. Under a block it guarantees a
/// single bit flip per block read — detectable by the block CRC and
/// within reach of the scrubber's single-bit corrector, which is what
/// makes the zero-loss invariant achievable at all.
pub const FAULT_REGION_BYTES: u64 = 64;

/// Keys that must appear once per sweep cell in a valid artifact.
const CELL_KEYS: [&str; 10] = [
    "\"scrub\":",
    "\"scrub_budget\":",
    "\"fault_regions\":",
    "\"lost_keys\":",
    "\"read_errors\":",
    "\"files_repaired\":",
    "\"blocks_corrected\":",
    "\"blocks_lost\":",
    "\"bytes_fenced\":",
    "\"fail_slow_reads\":",
];

/// One cell of the scrub sweep.
#[derive(Clone, Debug)]
pub struct ScrubCell {
    /// Scrubber byte budget per step; 0 means scrubbing was off.
    pub scrub_budget: u64,
    /// Latent-error regions actually planted.
    pub fault_regions: usize,
    /// Keys that no longer read back correctly after the episode.
    pub lost_keys: u64,
    /// Keyspace-audit reads that returned an error (scrub-off: the
    /// planted damage surfaces as checksum failures on every read).
    pub read_errors: u64,
    /// Tables the scrubber rewrote onto clean space.
    pub files_repaired: u64,
    /// Blocks recovered by single-bit correction.
    pub blocks_corrected: u64,
    /// Blocks beyond correction whose entries were dropped.
    pub blocks_lost: u64,
    /// Bytes fenced out of the allocator's free pool.
    pub bytes_fenced: u64,
    /// Reads slowed by the planted fail-slow region.
    pub fail_slow_reads: u64,
}

/// Extents of the `k` largest live tables, largest first — deterministic
/// targets that are guaranteed to hold several data blocks.
fn target_extents(store: &Store, k: usize) -> Vec<Extent> {
    let v = store.db.current_version();
    let mut files: Vec<_> = v.files.iter().flatten().cloned().collect();
    files.sort_by(|a, b| b.size.cmp(&a.size).then(a.id.cmp(&b.id)));
    files
        .iter()
        .take(k)
        .map(|f| {
            store
                .db
                .ctx()
                .lock()
                .fs
                .file_extent(f.id)
                .expect("live file")
        })
        .collect()
}

fn run_cell(scale: &BenchScale, budget: u64, fault_regions: usize) -> Result<ScrubCell> {
    let (mut store, _) = crate::loaded_store(StoreKind::SealDb, scale)?;
    let gen = scale.generator();
    let records = scale.load_records().max(1);
    let targets = target_extents(&store, fault_regions);
    let planted = targets.len();
    {
        let ctx = store.db.ctx();
        let mut guard = ctx.lock();
        let faults = guard.fs.disk_mut().faults_mut();
        for ext in &targets {
            // A quarter into the file: inside the data-block region, well
            // clear of the filter/index/footer at the tail.
            faults.corrupt_extent(Extent::new(ext.offset + ext.len / 4, FAULT_REGION_BYTES));
        }
        if let Some(first) = targets.first() {
            faults.slow_reads(*first, 4);
        }
    }
    if budget > 0 {
        store.scrub_full(&ScrubConfig {
            bytes_per_step: budget,
            repair: true,
        })?;
    }
    // Full-keyspace audit: a key is lost if it errors, vanished, or
    // reads back with the wrong bytes.
    let mut lost_keys = 0u64;
    let mut read_errors = 0u64;
    for i in 0..records {
        match store.get(&gen.key(i)) {
            Ok(Some(v)) if v == gen.value(i) => {}
            Ok(_) => lost_keys += 1,
            Err(_) => {
                lost_keys += 1;
                read_errors += 1;
            }
        }
    }
    let report = *store.scrub_report();
    let faults = store.snapshot().io.faults;
    Ok(ScrubCell {
        scrub_budget: budget,
        fault_regions: planted,
        lost_keys,
        read_errors,
        files_repaired: report.files_repaired,
        blocks_corrected: report.blocks_corrected,
        blocks_lost: report.blocks_lost,
        bytes_fenced: report.bytes_fenced,
        fail_slow_reads: faults.fail_slow_reads,
    })
}

/// Runs the full sweep: per fault count, a scrub-off baseline followed
/// by one cell per budget in [`SCRUB_BUDGETS`].
pub fn run_scrub_sweep(scale: &BenchScale) -> Result<Vec<ScrubCell>> {
    let mut cells = Vec::new();
    for &k in &FAULT_COUNTS {
        cells.push(run_cell(scale, 0, k)?);
        for &budget in &SCRUB_BUDGETS {
            cells.push(run_cell(scale, budget, k)?);
        }
    }
    Ok(cells)
}

fn cell_json(c: &ScrubCell) -> String {
    format!(
        concat!(
            "{{\"scrub\":{},\"scrub_budget\":{},\"fault_regions\":{},",
            "\"lost_keys\":{},\"read_errors\":{},\"files_repaired\":{},",
            "\"blocks_corrected\":{},\"blocks_lost\":{},\"bytes_fenced\":{},",
            "\"fail_slow_reads\":{}}}"
        ),
        c.scrub_budget > 0,
        c.scrub_budget,
        c.fault_regions,
        c.lost_keys,
        c.read_errors,
        c.files_repaired,
        c.blocks_corrected,
        c.blocks_lost,
        c.bytes_fenced,
        c.fail_slow_reads,
    )
}

/// Serialises the sweep as the `BENCH_pr5.json` artifact.
pub fn sweep_to_json(scale: &BenchScale, cells: &[ScrubCell]) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"schema\":\"{SCRUB_SCHEMA}\",\"seed\":{},\"sstable\":{},\"records\":{},\"region_bytes\":{},\"cells\":[",
        scale.seed,
        scale.sstable,
        scale.load_records().max(1),
        FAULT_REGION_BYTES,
    );
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&cell_json(c));
    }
    s.push_str("]}\n");
    s
}

/// Runs the scrub sweep and returns the artifact as a JSON string.
pub fn scrub_sweep(scale: &BenchScale) -> Result<String> {
    Ok(sweep_to_json(scale, &run_scrub_sweep(scale)?))
}

/// Validates a scrub artifact: schema marker, the full cell grid, no
/// NaN/Inf — and the durability invariant itself: every scrub-on cell
/// lost zero keys, and at least one scrub-off baseline lost some.
/// Returns the list of problems; empty means valid.
pub fn check_scrub_json(content: &str) -> Vec<String> {
    let mut problems = Vec::new();
    let marker = format!("\"schema\":\"{SCRUB_SCHEMA}\"");
    if !content.contains(&marker) {
        problems.push(format!("missing schema marker {marker}"));
    }
    for key in ["\"seed\":", "\"records\":", "\"region_bytes\":"] {
        if !content.contains(key) {
            problems.push(format!("missing key {key}"));
        }
    }
    let expected_cells = FAULT_COUNTS.len() * (1 + SCRUB_BUDGETS.len());
    for key in CELL_KEYS {
        let n = content.matches(key).count();
        if n != expected_cells {
            problems.push(format!(
                "key {key} appears {n} times, expected {expected_cells}"
            ));
        }
    }
    problems.extend(crate::non_finite_tokens(content));
    let mut baseline_lost = 0u64;
    let mut saw_on = false;
    let mut saw_off = false;
    for cell in content.split("{\"scrub\":").skip(1) {
        let on = cell.starts_with("true");
        let lost = json_nums(cell, "lost_keys").next().unwrap_or(u64::MAX);
        if on {
            saw_on = true;
            if lost != 0 {
                problems.push(format!(
                    "durability invariant violated: scrub-on cell lost {lost} keys"
                ));
            }
            if json_nums(cell, "files_repaired").next() == Some(0u64) {
                problems.push("scrub-on cell repaired no files".to_string());
            }
        } else {
            saw_off = true;
            baseline_lost += lost;
        }
    }
    if !saw_on || !saw_off {
        problems.push("artifact must contain both scrub-on and scrub-off cells".to_string());
    } else if baseline_lost == 0 {
        problems
            .push("scrub-off baselines lost no keys: the planted faults did not bite".to_string());
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn test_scale() -> BenchScale {
        let mut s = BenchScale::tiny();
        // Small but clear of the 16 MiB log zone (capacity = 10x load).
        s.load_bytes = 4 << 20;
        s
    }

    /// One sweep shared by the read-only tests (each cell preloads a
    /// full store; running the grid once keeps the suite fast).
    fn artifact() -> &'static str {
        static ARTIFACT: OnceLock<String> = OnceLock::new();
        ARTIFACT.get_or_init(|| scrub_sweep(&test_scale()).unwrap())
    }

    #[test]
    fn sweep_is_valid_and_deterministic() {
        let a = artifact();
        let b = scrub_sweep(&test_scale()).unwrap();
        assert_eq!(a, &b, "same-seed artifacts must be byte-identical");
        let problems = check_scrub_json(a);
        assert!(problems.is_empty(), "artifact invalid: {problems:?}");
    }

    #[test]
    fn scrub_on_loses_nothing_and_baseline_loses_something() {
        let cells = run_scrub_sweep(&test_scale()).unwrap();
        for c in &cells {
            if c.scrub_budget > 0 {
                assert_eq!(c.lost_keys, 0, "scrub-on cell lost keys: {c:?}");
                assert!(c.files_repaired >= 1, "nothing repaired: {c:?}");
                assert!(c.blocks_corrected >= 1, "nothing corrected: {c:?}");
                assert!(c.bytes_fenced > 0, "nothing fenced: {c:?}");
            } else {
                assert!(c.lost_keys > 0, "baseline fault did not bite: {c:?}");
                assert_eq!(c.read_errors, c.lost_keys);
            }
            assert!(c.fail_slow_reads > 0, "fail-slow region never read: {c:?}");
        }
    }

    #[test]
    fn different_seeds_differ_beyond_the_header() {
        let a = artifact();
        let mut other = test_scale();
        other.seed ^= 1;
        let b = scrub_sweep(&other).unwrap();
        let tail = |s: &str| s[s.find("\"cells\"").unwrap()..].to_string();
        assert_ne!(tail(a), tail(&b), "fault placement must follow the seed");
    }

    #[test]
    fn checker_rejects_bad_artifacts() {
        assert!(!check_scrub_json("{}").is_empty());
        let a = artifact();
        // Forge a lost key into a scrub-on cell: the durability invariant
        // must trip.
        let forged = a.replacen("{\"scrub\":true,", "{\"scrub\":true,\"x\":0,", 1);
        let forged = {
            // Rewrite the first scrub-on cell's lost_keys to 7.
            let i = forged.find("\"x\":0,").unwrap();
            let cell_rest = &forged[i..];
            let j = cell_rest.find("\"lost_keys\":").unwrap() + "\"lost_keys\":".len();
            let end = i + j + cell_rest[j..].find(|c: char| !c.is_ascii_digit()).unwrap();
            format!("{}7{}", &forged[..i + j], &forged[end..])
        };
        assert!(check_scrub_json(&forged)
            .iter()
            .any(|p| p.contains("durability invariant")));
    }
}
