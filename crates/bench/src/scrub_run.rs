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

use crate::artifact::{self, expect_count, row, run_cells, Row};
use crate::BenchScale;
use lsm_core::{Result, ScrubConfig};
use sealdb::{Store, StoreKind};
use smr_sim::Extent;

/// Schema marker the checker requires at the top of the artifact.
const SCRUB_SCHEMA: &str = "sealdb-scrub-v1";

/// Scrub per-step byte budgets swept (0 = scrub disabled is implicit:
/// one baseline cell per fault count).
const SCRUB_BUDGETS: [u64; 2] = [64 << 10, 1 << 20];

/// Latent-error regions planted, one per distinct table.
const FAULT_COUNTS: [usize; 2] = [1, 4];

/// Bytes per planted latent-error region. Under a block it guarantees a
/// single bit flip per block read — detectable by the block CRC and
/// within reach of the scrubber's single-bit corrector, which is what
/// makes the zero-loss invariant achievable at all.
const FAULT_REGION_BYTES: u64 = 64;

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

fn run_cell(scale: &BenchScale, budget: u64, fault_regions: usize) -> Result<Row> {
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
    Ok(row! {
        "scrub" => budget > 0,
        // Scrubber byte budget per step; 0 means scrubbing was off.
        "scrub_budget" => budget,
        // Regions actually planted (a small tree may hold fewer tables).
        "fault_regions" => planted,
        "lost_keys" => lost_keys,
        // Scrub-off: the planted damage surfaces as checksum failures on
        // every audit read through it.
        "read_errors" => read_errors,
        "files_repaired" => report.files_repaired,
        "blocks_corrected" => report.blocks_corrected,
        // Blocks beyond single-bit correction, whose entries were dropped.
        "blocks_lost" => report.blocks_lost,
        "bytes_fenced" => report.bytes_fenced,
        "fail_slow_reads" => faults.fail_slow_reads,
    })
}

/// Runs the scrub sweep — per fault count, a scrub-off baseline followed
/// by one cell per budget in `SCRUB_BUDGETS` — and returns the artifact
/// as a JSON string.
pub fn scrub_sweep(scale: &BenchScale) -> Result<String> {
    let budgets = [&[0], &SCRUB_BUDGETS[..]].concat();
    let grid: Vec<(usize, u64)> = FAULT_COUNTS
        .iter()
        .flat_map(|&k| budgets.iter().map(move |&budget| (k, budget)))
        .collect();
    let cells = run_cells(grid.len(), |i| run_cell(scale, grid[i].1, grid[i].0));
    let doc = row! {
        "schema" => SCRUB_SCHEMA,
        "seed" => scale.seed,
        "sstable" => scale.sstable,
        "records" => scale.load_records().max(1),
        "region_bytes" => FAULT_REGION_BYTES,
        "cells" => cells.into_iter().collect::<Result<Vec<Row>>>()?,
    };
    Ok(doc.to_json())
}

/// Validates a scrub artifact: schema marker, the full cell grid, no
/// NaN/Inf — and the durability invariant itself: every scrub-on cell
/// lost zero keys, and at least one scrub-off baseline lost some.
/// Returns the list of problems; empty means valid.
pub fn check_scrub_json(content: &str) -> Vec<String> {
    artifact::check(content, SCRUB_SCHEMA, |doc, problems| {
        for key in ["seed", "records", "region_bytes"] {
            doc.u(key)?;
        }
        let cells = doc.rows("cells")?;
        let expected_cells = FAULT_COUNTS.len() * (1 + SCRUB_BUDGETS.len());
        expect_count(problems, expected_cells, "cells", cells.len());
        let mut baseline_lost = 0u64;
        let mut saw_on = false;
        let mut saw_off = false;
        for cell in cells {
            let lost = cell.u("lost_keys")?;
            if cell.b("scrub")? {
                saw_on = true;
                if lost != 0 {
                    problems.push(format!(
                        "durability invariant violated: scrub-on cell lost {lost} keys"
                    ));
                }
                if cell.u("files_repaired")? == 0 {
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
            problems.push(
                "scrub-off baselines lost no keys: the planted faults did not bite".to_string(),
            );
        }
        Ok(())
    })
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
        let doc = artifact::parse(artifact()).unwrap();
        for c in doc.rows("cells").unwrap() {
            let u = |key| c.u(key).unwrap();
            if u("scrub_budget") > 0 {
                assert_eq!(u("lost_keys"), 0, "scrub-on cell lost keys: {c:?}");
                assert!(u("files_repaired") >= 1, "nothing repaired: {c:?}");
                assert!(u("blocks_corrected") >= 1, "nothing corrected: {c:?}");
                assert!(u("bytes_fenced") > 0, "nothing fenced: {c:?}");
            } else {
                assert!(u("lost_keys") > 0, "baseline fault did not bite: {c:?}");
                assert_eq!(u("read_errors"), u("lost_keys"));
            }
            assert!(
                u("fail_slow_reads") > 0,
                "fail-slow region never read: {c:?}"
            );
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
