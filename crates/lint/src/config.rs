//! Rule scoping and the per-crate allowlist.
//!
//! Each rule applies to a *scope* — a set of workspace-relative path
//! patterns — and may be switched off for specific files by the
//! allowlist, which pairs every exemption with a written justification
//! (printed by `seal-lint --allowlist`). Paths always use `/` separators
//! relative to the workspace root, e.g. `crates/smr-sim/src/disk.rs`.

use crate::rules::Rule;

/// Matches workspace-relative paths against a small glob dialect:
/// `**` matches any number of path segments (including zero), `*`
/// matches any characters within one segment. Everything else is
/// literal.
pub(crate) fn path_matches(pattern: &str, path: &str) -> bool {
    let pat: Vec<&str> = pattern.split('/').collect();
    let segs: Vec<&str> = path.split('/').collect();
    match_segments(&pat, &segs)
}

fn match_segments(pat: &[&str], segs: &[&str]) -> bool {
    match pat.first() {
        None => segs.is_empty(),
        Some(&"**") => {
            // `**` may absorb zero or more leading segments.
            (0..=segs.len()).any(|skip| match_segments(&pat[1..], &segs[skip..]))
        }
        Some(p) => match segs.first() {
            Some(s) if segment_matches(p, s) => match_segments(&pat[1..], &segs[1..]),
            _ => false,
        },
    }
}

fn segment_matches(pat: &str, seg: &str) -> bool {
    // `*` within one segment: split the pattern on stars and greedily
    // match the literal pieces left to right.
    if !pat.contains('*') {
        return pat == seg;
    }
    let pieces: Vec<&str> = pat.split('*').collect();
    let mut rest = seg;
    for (i, piece) in pieces.iter().enumerate() {
        if piece.is_empty() {
            continue;
        }
        if i == 0 {
            match rest.strip_prefix(piece) {
                Some(r) => rest = r,
                None => return false,
            }
        } else if i == pieces.len() - 1 && !pat.ends_with('*') {
            return rest.ends_with(piece);
        } else {
            match rest.find(piece) {
                Some(at) => rest = &rest[at + piece.len()..],
                None => return false,
            }
        }
    }
    true
}

/// One allowlist entry: a rule switched off for files matching `pattern`,
/// with a human-readable justification.
#[derive(Clone, Debug)]
pub struct AllowEntry {
    /// The rule being exempted.
    pub rule: Rule,
    /// Path pattern (see `path_matches`).
    pub pattern: &'static str,
    /// Why the exemption is sound. Shown by `seal-lint --allowlist`.
    pub justification: &'static str,
}

/// The workspace allowlist. Every entry must carry a justification; an
/// exemption nobody can explain should be a suppression comment in the
/// code instead, where review will see it.
pub fn default_allowlist() -> Vec<AllowEntry> {
    vec![AllowEntry {
        rule: Rule::NoWallClock,
        pattern: "crates/bench/src/main.rs",
        justification: "progress reporting on stderr times the run itself, not results",
    }]
}

/// Scope table: which files each rule examines. Patterns are matched with
/// [`path_matches`] against workspace-relative paths.
pub(crate) fn default_scope(rule: Rule) -> Vec<&'static str> {
    match rule {
        // Determinism rules sweep every crate: one stray wall-clock read
        // or ambient RNG anywhere poisons byte-identical artifacts.
        Rule::NoWallClock | Rule::NoAmbientRandomness => vec!["**/*.rs"],
        // Corruption errors raised during recovery or repair must say
        // where the bad bytes live.
        Rule::ErrorContext => vec![
            "crates/lsm-core/src/wal.rs",
            "crates/lsm-core/src/version/**",
            "crates/lsm-core/src/db/scrub.rs",
            "crates/vlog/src/**",
        ],
        Rule::ObsMetricNaming => vec!["crates/**/src/**"],
        // The durability-ordering family applies to all crate sources:
        // the trigger names are specific enough that out-of-scope code
        // simply never trips them, and a new crate that grows an ack,
        // repair or recycle path is covered from day one.
        Rule::SyncBeforeAck
        | Rule::CheckpointBeforePointer
        | Rule::FenceBeforeRepair
        | Rule::RecycleAfterFixupsDurable
        | Rule::NoDurabilityInDrop => vec!["crates/*/src/**", "src/**"],
        // Library crates only: `surface` itself tells a crate's library
        // files from its binaries, which are users, never subjects.
        Rule::PubWithoutOutsideUser => vec!["crates/*/src/**"],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_and_star() {
        assert!(path_matches(
            "crates/bench/src/main.rs",
            "crates/bench/src/main.rs"
        ));
        assert!(path_matches(
            "crates/*/src/lib.rs",
            "crates/bench/src/lib.rs"
        ));
        assert!(!path_matches(
            "crates/*/src/lib.rs",
            "crates/bench/src/main.rs"
        ));
        assert!(path_matches("**/wal.rs", "crates/lsm-core/src/wal.rs"));
        assert!(path_matches("**/*.rs", "src/lib.rs"));
    }

    #[test]
    fn double_star_spans_segments() {
        assert!(path_matches(
            "crates/smr-sim/src/**",
            "crates/smr-sim/src/disk.rs"
        ));
        assert!(path_matches(
            "crates/lsm-core/src/version/**",
            "crates/lsm-core/src/version/set.rs"
        ));
        assert!(!path_matches(
            "crates/smr-sim/src/**",
            "crates/sealdb/src/store.rs"
        ));
        // `**` may match zero segments.
        assert!(path_matches("crates/bench/**", "crates/bench/Cargo.toml"));
    }

    #[test]
    fn within_segment_star() {
        assert!(path_matches(
            "**/prop_*.rs",
            "crates/placement/tests/prop_alloc.rs"
        ));
        assert!(!path_matches(
            "**/prop_*.rs",
            "crates/placement/tests/alloc.rs"
        ));
    }

    #[test]
    fn scrub_module_is_in_repair_rule_scopes() {
        // The scrubber's repair path is held to the same standard as
        // crash recovery: corruption errors carry file/offset context.
        let scrub = "crates/lsm-core/src/db/scrub.rs";
        assert!(default_scope(Rule::ErrorContext)
            .iter()
            .any(|p| path_matches(p, scrub)));
    }

    #[test]
    fn every_workspace_crate_is_covered_by_determinism_and_ordering_rules() {
        // The meta-test that replaces grow-by-hand per-crate scope
        // tests: enumerate `crates/*/src` from disk at test time, so a
        // new crate that is not covered by the determinism and
        // ordering rules fails CI the day it lands (the "new crate
        // silently unlinted" failure mode seen at PRs 5–8).
        let workspace = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(std::path::Path::parent)
            .expect("crates/lint sits two levels below the workspace root")
            .to_path_buf();
        let mut crates: Vec<String> = std::fs::read_dir(workspace.join("crates"))
            .expect("workspace has a crates/ directory")
            .filter_map(|e| e.ok())
            .filter(|e| e.path().join("src").is_dir())
            .filter_map(|e| e.file_name().to_str().map(String::from))
            .collect();
        crates.sort();
        assert!(
            crates.len() >= 12,
            "expected the full workspace, found only {crates:?}"
        );
        let blanket = [
            Rule::NoWallClock,
            Rule::NoAmbientRandomness,
            Rule::SyncBeforeAck,
            Rule::CheckpointBeforePointer,
            Rule::FenceBeforeRepair,
            Rule::RecycleAfterFixupsDurable,
            Rule::NoDurabilityInDrop,
        ];
        for krate in &crates {
            let probe = format!("crates/{krate}/src/lib.rs");
            for rule in blanket {
                assert!(
                    default_scope(rule).iter().any(|p| path_matches(p, &probe)),
                    "{rule:?} does not cover crate `{krate}` ({probe})"
                );
            }
        }
        // The root façade crate too.
        for rule in blanket {
            assert!(
                default_scope(rule)
                    .iter()
                    .any(|p| path_matches(p, "src/lib.rs")),
                "{rule:?} does not cover src/lib.rs"
            );
        }
    }

    #[test]
    fn vlog_crate_is_in_recovery_and_api_rule_scopes() {
        // The value log is a recovery surface (torn-tail scans, segment
        // checkpoint decode) and feeds the BENCH_pr8 artifact: its
        // determinism and error discipline are held to the same bar as
        // the WAL and manifest.
        let vlog = "crates/vlog/src/lib.rs";
        for rule in [
            Rule::NoWallClock,
            Rule::NoAmbientRandomness,
            Rule::ErrorContext,
        ] {
            assert!(
                default_scope(rule).iter().any(|p| path_matches(p, vlog)),
                "{rule:?} does not cover the vlog crate"
            );
        }
    }

    #[test]
    fn allowlist_entries_all_carry_justifications() {
        for e in default_allowlist() {
            assert!(
                !e.justification.is_empty(),
                "{:?} lacks justification",
                e.rule
            );
        }
    }
}
