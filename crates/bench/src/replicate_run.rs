//! The durability-across-nodes artifact behind `--replicate-out` and
//! `--replicate-check` (`BENCH_pr6.json`).
//!
//! Each cell builds a fresh three-node cluster (one primary, two
//! replicas) on the seeded simulated network, streams writes under the
//! configured ack policy, kills the primary at a sweep-chosen point,
//! fails over, lets the old primary rejoin by catch-up streaming,
//! finishes the write stream on the new primary, and audits every acked
//! write. The sweep crosses ack policy (primary-only vs quorum-1) ×
//! base link latency × kill point.
//!
//! Headline invariants, re-checked by CI:
//!
//! * **RPO** — every quorum-ack cell loses **zero** acked writes, while
//!   at least one primary-only cell loses its unshipped tail (the kill
//!   points are odd, so the async ship buffer is never empty).
//! * **RTO** — every failover completes in finite positive time, and
//!   within each (ack, kill point) group the measured RTO is
//!   strictly monotone in the base link latency: detection is constant,
//!   fencing and client redirect scale with the link, and replay is
//!   latency-independent.
//!
//! Everything runs on the simulated clock with seeded jitter, so two
//! runs at the same seed produce byte-identical artifacts.

use crate::artifact::{self, expect_count, row, run_cells, Row};
use crate::BenchScale;
use lsm_core::Result;
use seal_replica::{AckPolicy, Cluster, ReplicaConfig};
use std::collections::BTreeMap;

/// Schema marker the checker requires at the top of the artifact.
const REPLICATE_SCHEMA: &str = "sealdb-replicate-v2";

/// Ack policies swept.
const ACKS: [AckPolicy; 2] = [AckPolicy::PrimaryOnly, AckPolicy::Quorum(1)];

/// Base one-way link latencies swept, ns (≥5× apart so the RTO
/// monotonicity invariant has headroom over the seeded jitter).
const LINK_LATENCIES_NS: [u64; 3] = [200_000, 1_000_000, 5_000_000];

/// Replicas per cluster.
const REPLICAS: usize = 2;

/// Writes per cell at this scale.
fn writes_per_cell(scale: &BenchScale) -> u64 {
    (scale.ycsb_ops / 4).max(24)
}

/// The two kill points swept: a third and two-thirds into the stream,
/// forced odd so a primary-only cell always has a non-empty async ship
/// buffer to lose.
fn kill_points(scale: &BenchScale) -> [u64; 2] {
    let w = writes_per_cell(scale);
    [(w / 3) | 1, (2 * w / 3) | 1]
}

fn run_cell(
    scale: &BenchScale,
    ack: AckPolicy,
    link_latency_ns: u64,
    kill_after: u64,
) -> Result<Row> {
    let writes = writes_per_cell(scale);
    let mut conf = ReplicaConfig::new(REPLICAS, scale.sstable, scale.disk_capacity());
    conf.ack = ack;
    conf.seed = scale.seed;
    conf.link_latency_ns = link_latency_ns;
    let mut cluster = Cluster::new(conf)?;
    let gen = scale.generator();
    for i in 0..kill_after {
        cluster.put(&gen.key(i), &gen.value(i))?;
    }
    let report = cluster.kill_primary()?;
    // Serve half the remaining stream from the new primary, then let
    // the old primary rejoin and catch up while the rest lands.
    let resume = kill_after + (writes - kill_after) / 2;
    for i in kill_after..resume {
        cluster.put(&gen.key(i), &gen.value(i))?;
    }
    let catchup_frames = cluster.rejoin(0)?;
    for i in resume..writes {
        cluster.put(&gen.key(i), &gen.value(i))?;
    }
    let audit = cluster.audit()?;
    let state_hash = cluster.state_hash()?;
    Ok(row! {
        "ack" => ack.name(),
        "link_latency_ns" => link_latency_ns,
        "kill_after" => kill_after,
        "writes" => writes,
        "acked_writes" => audit.acked_writes,
        // Acked writes the post-failover primary could not read back.
        "acked_lost" => audit.primary_misses,
        "rto_ns" => report.rto_ns,
        "detect_ns" => report.detect_ns,
        "fence_ns" => report.fence_ns,
        "replay_ns" => report.replay_ns,
        "redirect_ns" => report.redirect_ns,
        "promoted" => report.promoted,
        "replayed_records" => report.replayed_records,
        // Frames streamed to the rejoining old primary.
        "catchup_frames" => catchup_frames,
        // Bounded-backoff retries the redirected client issued.
        "client_retries" => report.client_retries,
        // Order-independent digest of the final primary's state.
        "state_hash" => state_hash,
    })
}

/// Runs the full ack × kill-point × link-latency grid and returns the
/// artifact as JSON.
pub fn replicate_sweep(scale: &BenchScale) -> Result<String> {
    let mut grid = Vec::new();
    for ack in ACKS {
        for kill_after in kill_points(scale) {
            for link in LINK_LATENCIES_NS {
                grid.push((ack, link, kill_after));
            }
        }
    }
    let cells = run_cells(grid.len(), |i| {
        let (ack, link, kill_after) = grid[i];
        run_cell(scale, ack, link, kill_after)
    });
    let doc = row! {
        "schema" => REPLICATE_SCHEMA,
        "seed" => scale.seed,
        "sstable" => scale.sstable,
        "replicas" => REPLICAS,
        "writes_per_cell" => writes_per_cell(scale),
        "cells" => cells.into_iter().collect::<Result<Vec<Row>>>()?,
    };
    Ok(doc.to_json())
}

/// What an RTO series is grouped by: (ack, kill point).
type RtoGroup<'a> = (&'a str, u64);

/// Validates a replication artifact: schema marker, the full cell grid,
/// no NaN/Inf — and the durability invariants themselves: zero acked
/// loss in every quorum cell (with at least one primary-only cell
/// losing its tail, proving the audit has teeth), and an RTO that is
/// finite, positive, and strictly monotone in the link latency within
/// each (ack, kill point) group. Returns the list of problems;
/// empty means valid.
pub fn check_replicate_json(content: &str) -> Vec<String> {
    artifact::check(content, REPLICATE_SCHEMA, |doc, problems| {
        for key in ["seed", "replicas", "writes_per_cell"] {
            doc.u(key)?;
        }
        let cells = doc.rows("cells")?;
        let expected_cells = ACKS.len() * 2 * LINK_LATENCIES_NS.len();
        expect_count(problems, expected_cells, "cells", cells.len());
        let mut saw_quorum = false;
        let mut primary_lost = 0u64;
        let mut groups: BTreeMap<RtoGroup, Vec<(u64, u64)>> = BTreeMap::new();
        for cell in cells {
            let ack = cell.s("ack")?;
            let link = cell.u("link_latency_ns")?;
            // The column is the audit's `primary_misses` (acked writes
            // the post-failover primary cannot serve), not the report's
            // cluster-wide `acked_lost`; see `run_cell`.
            let lost = cell.u("acked_lost")?;
            let rto = cell.u("rto_ns")?;
            match ack {
                "quorum" => {
                    saw_quorum = true;
                    if lost != 0 {
                        problems.push(format!(
                            "durability invariant violated: {ack}-ack cell (link {link}) lost {lost} acked writes"
                        ));
                    }
                }
                "primary" => primary_lost += lost,
                other => problems.push(format!("cell has unknown ack policy {other:?}")),
            }
            if rto == 0 || rto < cell.u("detect_ns")? {
                problems.push(format!(
                    "cell (ack {ack}, link {link}) has implausible rto {rto}"
                ));
            }
            let group = (ack, cell.u("kill_after")?);
            groups.entry(group).or_default().push((link, rto));
        }
        if !saw_quorum {
            problems.push("artifact contains no quorum-ack cells".to_string());
        }
        if primary_lost == 0 {
            problems.push(
                "primary-only baselines lost no acked writes: the kill points never caught the async ship buffer".to_string(),
            );
        }
        for ((ack, kill), mut series) in groups {
            series.sort_unstable();
            for pair in series.windows(2) {
                if pair[1].1 <= pair[0].1 {
                    problems.push(format!(
                        "rto not monotone in link latency for (ack {ack}, kill {kill}): {} ns @ link {} vs {} ns @ link {}",
                        pair[0].1, pair[0].0, pair[1].1, pair[1].0
                    ));
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

    fn test_scale() -> BenchScale {
        let mut s = BenchScale::tiny();
        // Small but clear of the 16 MiB log zone (capacity = 10x load).
        s.load_bytes = 4 << 20;
        s.ycsb_ops = 200;
        s
    }

    /// One sweep shared by the read-only tests (each cell drives a
    /// three-node cluster through a failover; running the 12-cell grid
    /// once keeps the suite fast).
    fn artifact() -> &'static str {
        static ARTIFACT: OnceLock<String> = OnceLock::new();
        ARTIFACT.get_or_init(|| replicate_sweep(&test_scale()).unwrap())
    }

    #[test]
    fn sweep_is_valid_and_deterministic() {
        let a = artifact();
        let b = replicate_sweep(&test_scale()).unwrap();
        assert_eq!(a, &b, "same-seed artifacts must be byte-identical");
        let problems = check_replicate_json(a);
        assert!(problems.is_empty(), "artifact invalid: {problems:?}");
    }

    #[test]
    fn quorum_cells_lose_nothing_and_primary_cells_lose_the_tail() {
        let doc = artifact::parse(artifact()).unwrap();
        let mut primary_lost = 0u64;
        for c in doc.rows("cells").unwrap() {
            let u = |key| c.u(key).unwrap();
            assert_eq!(
                u("acked_writes"),
                u("writes"),
                "every write was acked: {c:?}"
            );
            if c.s("ack") == Ok("quorum") {
                assert_eq!(u("acked_lost"), 0, "quorum cell lost acked writes: {c:?}");
            } else {
                // The odd kill point guarantees a non-empty ship buffer.
                assert!(u("acked_lost") > 0, "primary-only cell lost nothing: {c:?}");
                primary_lost += u("acked_lost");
            }
            assert!(u("rto_ns") >= u("detect_ns") && u("rto_ns") > 0);
            assert!(u("promoted") > 0, "a replica must be promoted: {c:?}");
            assert!(u("catchup_frames") > 0, "rejoin streamed nothing: {c:?}");
        }
        assert!(primary_lost > 0);
    }

    #[test]
    fn different_seeds_differ_beyond_the_header() {
        let a = artifact();
        let mut other = test_scale();
        other.seed ^= 0xBAD5EED;
        let b = replicate_sweep(&other).unwrap();
        let tail = |s: &str| s[s.find("\"cells\"").unwrap()..].to_string();
        assert_ne!(
            tail(a),
            tail(&b),
            "jitter and payloads must follow the seed"
        );
    }

    #[test]
    fn checker_rejects_bad_artifacts() {
        assert!(!check_replicate_json("{}").is_empty());
        let a = artifact();
        // Forge a lost write into a quorum cell: the RPO invariant
        // must trip.
        let forged = a.replacen("\"ack\":\"quorum\"", "\"ack\":\"quorum\",\"x\":0", 1);
        let i = forged.find("\"x\":0").unwrap();
        let j = i + forged[i..].find("\"acked_lost\":").unwrap() + "\"acked_lost\":".len();
        let end = j + forged[j..].find(|c: char| !c.is_ascii_digit()).unwrap();
        let forged = format!("{}7{}", &forged[..j], &forged[end..]);
        assert!(check_replicate_json(&forged)
            .iter()
            .any(|p| p.contains("durability invariant")));
        // Swap every rto to a constant: the monotonicity invariant
        // must trip.
        let flat = {
            let mut s = String::new();
            let mut rest = a;
            while let Some(i) = rest.find("\"rto_ns\":") {
                let j = i + "\"rto_ns\":".len();
                let end = j + rest[j..].find(|c: char| !c.is_ascii_digit()).unwrap();
                s.push_str(&rest[..j]);
                s.push_str("11000000");
                rest = &rest[end..];
            }
            s.push_str(rest);
            s
        };
        assert!(check_replicate_json(&flat)
            .iter()
            .any(|p| p.contains("not monotone")));
    }

    /// The holes the substring scan had: it never noticed a missing tail
    /// or a cell list of the wrong shape, and it read a signed or
    /// fractional loss count as `u64::MAX` keys.
    #[test]
    fn checker_rejects_truncated_and_mistyped_artifacts() {
        let good = include_str!("../../../BENCH_pr6.json");
        assert_eq!(check_replicate_json(good), Vec::<String>::new());
        assert!(!check_replicate_json(&good[..good.len() - 4]).is_empty());
        let nested = good
            .replacen("\"cells\":[", "\"cells\":[[", 1)
            .replacen("]}\n", "]]}\n", 1);
        let problems = check_replicate_json(&nested);
        assert!(
            problems.iter().any(|p| p.contains("not a list of objects")),
            "{problems:?}"
        );
        for forged in ["\"acked_lost\":0.5", "\"acked_lost\":-3"] {
            let problems = check_replicate_json(&good.replacen("\"acked_lost\":0", forged, 1));
            assert_eq!(
                problems,
                ["key \"acked_lost\" is not an integer: found a signed or fractional number"]
            );
        }
    }
}
