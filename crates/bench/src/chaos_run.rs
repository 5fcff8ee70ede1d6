//! The composed-fault torture artifact behind `--chaos-out` and
//! `--chaos-check` (`BENCH_pr10.json`).
//!
//! Each cell seeds a [`seal_chaos`] schedule — serving traffic
//! interleaved with device faults (torn writes, corruption, latent
//! sector errors, band failures, fail-slow), cluster faults
//! (partitions, kills, failovers, revives, primary restarts) and
//! maintenance chaos (GC drains, scrub passes, shard migrations) —
//! replays it on a fresh two-group replicated deployment, and records
//! the oracle verdict plus which fault classes were injected.
//!
//! Headline invariants, re-checked by CI:
//!
//! * **Zero oracle violations** — every schedule ends with all acked
//!   writes durable cluster-wide, every promised value served on its
//!   routed group, survivor state hashes agreeing, and scrub
//!   remediation accounting balanced.
//! * **Coverage with teeth** — across the sweep at least four device
//!   fault classes and three cluster fault classes were actually
//!   injected, so a green artifact can never mean the chaos did
//!   nothing.
//!
//! Everything runs on the simulated clock with seeded schedules, so
//! two runs at the same seed produce byte-identical artifacts. CI runs
//! this sweep in the **debug** profile: the ordering auditors'
//! `debug_assert!`s are live, so a violated ack/durability/recycle
//! edge fails the run even if every value still reads back.

use crate::BenchScale;
use lsm_core::Result;
use seal_chaos::{generate, ChaosConfig, ChaosHarness, Coverage, SplitMix};
use std::fmt::Write as _;

/// Schema marker the checker requires at the top of the artifact.
pub const CHAOS_SCHEMA: &str = "sealdb-chaos-v1";

/// Replication groups per schedule.
pub const GROUPS: usize = 2;

/// Replicas per group (each group runs `REPLICAS + 1` nodes).
pub const REPLICAS: usize = 2;

/// Distinct device fault classes a valid artifact must have injected.
pub const MIN_DEVICE_CLASSES: usize = 4;

/// Distinct cluster fault classes a valid artifact must have injected.
pub const MIN_CLUSTER_CLASSES: usize = 3;

/// Keys that must appear once per cell in a valid artifact.
const CELL_KEYS: [&str; 13] = [
    "{\"seed\":",
    "\"events_applied\":",
    "\"events_skipped\":",
    "\"acked_writes\":",
    "\"acked_lost\":",
    "\"primary_misses\":",
    "\"promised_checked\":",
    "\"promised_lost\":",
    "\"hash_groups_checked\":",
    "\"failovers\":",
    "\"scrub_blocks_corrupt\":",
    "\"scrub_remediated\":",
    "\"violations\":",
];

/// One chaos schedule's oracle verdict.
#[derive(Clone, Debug)]
pub struct ChaosCell {
    /// Schedule/harness seed.
    pub seed: u64,
    /// Events applied.
    pub events_applied: u64,
    /// Events skipped as inapplicable.
    pub events_skipped: u64,
    /// Acked client writes audited.
    pub acked_writes: u64,
    /// Acked writes lost on every survivor (must be zero).
    pub acked_lost: u64,
    /// Acked keys a primary misserved but a survivor held.
    pub primary_misses: u64,
    /// Promised keys checked through the routing layer.
    pub promised_checked: u64,
    /// Promised keys unreadable on their routed group (must be zero).
    pub promised_lost: u64,
    /// Groups with ≥2 undamaged survivors compared for hash agreement.
    pub hash_groups_checked: u64,
    /// Failovers performed.
    pub failovers: u64,
    /// Corrupt blocks scrub detected.
    pub scrub_blocks_corrupt: u64,
    /// Remediations: corrected + lost + quarantined files/segments.
    pub scrub_remediated: u64,
    /// Oracle violations (must be zero).
    pub violations: u64,
}

/// Events per generated schedule at this scale.
pub fn events_per_schedule(scale: &BenchScale) -> usize {
    (scale.ycsb_ops / 25).clamp(12, 40) as usize
}

fn chaos_config(scale: &BenchScale) -> ChaosConfig {
    ChaosConfig {
        groups: GROUPS,
        replicas: REPLICAS,
        events: events_per_schedule(scale),
        sstable_size: scale.sstable,
        disk_capacity: scale.disk_capacity(),
        buggy_gc: false,
    }
}

/// Runs `schedules` seeded chaos schedules and returns the cells plus
/// the merged fault-class coverage tally.
pub fn run_chaos_sweep(scale: &BenchScale, schedules: usize) -> Result<(Vec<ChaosCell>, Coverage)> {
    let cfg = chaos_config(scale);
    let mut seeds = SplitMix::new(scale.seed ^ 0xC4A0_5EED_0BEA_7E11);
    let mut cells = Vec::with_capacity(schedules);
    let mut coverage = Coverage::default();
    for _ in 0..schedules {
        let seed = seeds.next_u64();
        let events = generate(seed, &cfg);
        let mut harness = ChaosHarness::new(cfg.clone(), seed)?;
        let report = harness.run(&events)?;
        for v in &report.violations {
            eprintln!("chaos seed {seed}: {v}");
        }
        coverage.merge(&report.coverage);
        cells.push(ChaosCell {
            seed,
            events_applied: report.events_applied,
            events_skipped: report.events_skipped,
            acked_writes: report.acked_writes,
            acked_lost: report.acked_lost,
            primary_misses: report.primary_misses,
            promised_checked: report.promised_checked,
            promised_lost: report.promised_lost,
            hash_groups_checked: report.hash_groups_checked,
            failovers: report.failovers,
            scrub_blocks_corrupt: report.scrub_blocks_corrupt,
            scrub_remediated: report.scrub_blocks_corrected
                + report.scrub_blocks_lost
                + report.scrub_files_quarantined,
            violations: report.violations.len() as u64,
        });
    }
    Ok((cells, coverage))
}

fn cell_json(c: &ChaosCell) -> String {
    format!(
        concat!(
            "{{\"seed\":{},\"events_applied\":{},\"events_skipped\":{},",
            "\"acked_writes\":{},\"acked_lost\":{},\"primary_misses\":{},",
            "\"promised_checked\":{},\"promised_lost\":{},",
            "\"hash_groups_checked\":{},\"failovers\":{},",
            "\"scrub_blocks_corrupt\":{},\"scrub_remediated\":{},",
            "\"violations\":{}}}"
        ),
        c.seed,
        c.events_applied,
        c.events_skipped,
        c.acked_writes,
        c.acked_lost,
        c.primary_misses,
        c.promised_checked,
        c.promised_lost,
        c.hash_groups_checked,
        c.failovers,
        c.scrub_blocks_corrupt,
        c.scrub_remediated,
        c.violations,
    )
}

fn coverage_json(tag: &str, map: &std::collections::BTreeMap<&'static str, u64>) -> String {
    let mut s = format!("\"{tag}\":{{");
    for (i, (k, v)) in map.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{k}\":{v}");
    }
    s.push('}');
    s
}

/// Serialises the sweep as the `BENCH_pr10.json` artifact.
pub fn sweep_to_json(
    scale: &BenchScale,
    schedules: usize,
    cells: &[ChaosCell],
    coverage: &Coverage,
) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        concat!(
            "{{\"schema\":\"{}\",\"base_seed\":{},\"schedules\":{},",
            "\"groups\":{},\"replicas\":{},\"events_per_schedule\":{},",
            "\"coverage\":{{{},{}}},\"violations_total\":{},\"cells\":["
        ),
        CHAOS_SCHEMA,
        scale.seed,
        schedules,
        GROUPS,
        REPLICAS,
        events_per_schedule(scale),
        coverage_json("device", &coverage.device),
        coverage_json("cluster", &coverage.cluster),
        cells.iter().map(|c| c.violations).sum::<u64>(),
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

/// Runs the chaos sweep and returns the artifact as JSON.
pub fn chaos_sweep(scale: &BenchScale, schedules: usize) -> Result<String> {
    let (cells, coverage) = run_chaos_sweep(scale, schedules)?;
    Ok(sweep_to_json(scale, schedules, &cells, &coverage))
}

/// Counts the entries of the `"tag":{..}` coverage object.
fn coverage_entries(content: &str, tag: &str) -> usize {
    let pat = format!("\"{tag}\":{{");
    let Some(i) = content.find(&pat) else {
        return 0;
    };
    let rest = &content[i + pat.len()..];
    let Some(end) = rest.find('}') else { return 0 };
    let body = &rest[..end];
    if body.trim().is_empty() {
        0
    } else {
        body.matches(':').count()
    }
}

/// Validates a chaos artifact: schema marker, the declared cell count,
/// no NaN/Inf — and the torture invariants themselves: zero oracle
/// violations anywhere, zero acked/promised loss, real traffic and
/// hash comparisons in every cell, and injected coverage spanning at
/// least [`MIN_DEVICE_CLASSES`] device and [`MIN_CLUSTER_CLASSES`]
/// cluster fault classes. Returns the list of problems; empty means
/// valid.
pub fn check_chaos_json(content: &str) -> Vec<String> {
    let first = |frag: &str, key: &str| crate::json_nums::<u64>(frag, key).next();
    let mut problems = Vec::new();
    let marker = format!("\"schema\":\"{CHAOS_SCHEMA}\"");
    if !content.contains(&marker) {
        problems.push(format!("missing schema marker {marker}"));
    }
    for key in ["\"base_seed\":", "\"schedules\":", "\"coverage\":"] {
        if !content.contains(key) {
            problems.push(format!("missing key {key}"));
        }
    }
    problems.extend(crate::non_finite_tokens(content));
    let declared = first(content, "schedules").unwrap_or(0) as usize;
    if declared == 0 {
        problems.push("artifact declares zero schedules".to_string());
    }
    for key in CELL_KEYS {
        let n = content.matches(key).count();
        if n != declared {
            problems.push(format!("key {key} appears {n} times, expected {declared}"));
        }
    }
    if first(content, "violations_total") != Some(0) {
        problems.push("oracle violations recorded: violations_total != 0".to_string());
    }
    let mut acked_total = 0u64;
    for cell in content.split("{\"seed\":").skip(1) {
        let seed = {
            let end = cell.find(|c: char| !c.is_ascii_digit()).unwrap_or(0);
            cell[..end].to_string()
        };
        for must_be_zero in ["acked_lost", "promised_lost", "violations"] {
            if first(cell, must_be_zero) != Some(0) {
                problems.push(format!("cell seed {seed}: {must_be_zero} != 0"));
            }
        }
        let acked = first(cell, "acked_writes").unwrap_or(0);
        if acked == 0 {
            problems.push(format!("cell seed {seed}: served no traffic"));
        }
        acked_total += acked;
        if first(cell, "hash_groups_checked") == Some(0) {
            problems.push(format!(
                "cell seed {seed}: no group had two survivors to compare"
            ));
        }
        if first(cell, "scrub_remediated").unwrap_or(0)
            < first(cell, "scrub_blocks_corrupt").unwrap_or(u64::MAX)
        {
            problems.push(format!("cell seed {seed}: scrub accounting leaks"));
        }
    }
    if acked_total == 0 {
        problems.push("sweep served no traffic at all".to_string());
    }
    let dev = coverage_entries(content, "device");
    if dev < MIN_DEVICE_CLASSES {
        problems.push(format!(
            "only {dev} device fault classes injected, need {MIN_DEVICE_CLASSES}"
        ));
    }
    let clu = coverage_entries(content, "cluster");
    if clu < MIN_CLUSTER_CLASSES {
        problems.push(format!(
            "only {clu} cluster fault classes injected, need {MIN_CLUSTER_CLASSES}"
        ));
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    const TEST_SCHEDULES: usize = 8;

    fn test_scale() -> BenchScale {
        let mut s = BenchScale::tiny();
        s.load_bytes = 4 << 20;
        s
    }

    /// One sweep shared by the read-only tests (each schedule drives
    /// two three-node groups through a generated fault sequence;
    /// running it once keeps the suite fast).
    fn artifact() -> &'static str {
        static ARTIFACT: OnceLock<String> = OnceLock::new();
        ARTIFACT.get_or_init(|| chaos_sweep(&test_scale(), TEST_SCHEDULES).unwrap())
    }

    #[test]
    fn sweep_is_valid_and_deterministic() {
        let a = artifact();
        let b = chaos_sweep(&test_scale(), TEST_SCHEDULES).unwrap();
        assert_eq!(a, &b, "same-seed artifacts must be byte-identical");
        let problems = check_chaos_json(a);
        assert!(problems.is_empty(), "artifact invalid: {problems:?}");
    }

    #[test]
    fn different_seeds_differ_beyond_the_header() {
        let a = artifact();
        let mut other = test_scale();
        other.seed ^= 0xBAD5EED;
        let b = chaos_sweep(&other, TEST_SCHEDULES).unwrap();
        let tail = |s: &str| s[s.find("\"cells\"").unwrap()..].to_string();
        assert_ne!(tail(a), tail(&b), "schedules must follow the seed");
    }

    #[test]
    fn checker_rejects_bad_artifacts() {
        assert!(!check_chaos_json("{}").is_empty());
        let a = artifact();
        // Forge a violation total: the zero-violations gate must trip.
        let forged = a.replacen("\"violations_total\":0", "\"violations_total\":3", 1);
        assert!(check_chaos_json(&forged)
            .iter()
            .any(|p| p.contains("violations_total")));
        // Forge an acked loss into one cell.
        let forged = a.replacen("\"acked_lost\":0", "\"acked_lost\":2", 1);
        assert!(check_chaos_json(&forged)
            .iter()
            .any(|p| p.contains("acked_lost")));
        // Strip the device coverage: the coverage gate must trip.
        let i = a.find("\"device\":{").unwrap();
        let j = i + a[i..].find('}').unwrap() + 1;
        let gutted = format!("{}\"device\":{{}}{}", &a[..i], &a[j..]);
        assert!(check_chaos_json(&gutted)
            .iter()
            .any(|p| p.contains("device fault classes")));
    }
}
