//! seal-lint: workspace-native static analysis for sealdb.
//!
//! Enforces the determinism and recovery-safety invariants the benchmark
//! artifacts depend on — no wall clock or ambient randomness in simulated
//! code, ordered iteration wherever bytes are exported, no panics in
//! crash-recovery paths — with zero external dependencies so the
//! workspace builds offline. See `DESIGN.md` §11 for the rule catalogue.

/// Rule scoping, path matching and the justified allowlist.
pub mod config;
/// Durability-ordering dataflow analysis with call-graph summaries.
pub mod dataflow;
/// Hand-rolled Rust token lexer (no external parser crates).
pub mod lexer;
/// The durability-ordering effect annotation table.
pub mod ordering;
/// Recursive-descent parser producing the item/statement AST.
pub mod parser;
/// The rule catalogue and per-file checking engine.
pub mod rules;

use config::{default_allowlist, default_scope, path_matches, AllowEntry};
use rules::{Finding, Rule};
use std::path::{Path, PathBuf};

/// How a lint run is scoped. The default (`Options::workspace()`) applies
/// the per-rule scope table and the allowlist; fixture tests use
/// `Options::everything()` to run every rule on every file with no
/// exemptions.
#[derive(Clone, Debug)]
pub struct Options {
    /// Ignore the scope table: run every rule on every file.
    pub all_rules_everywhere: bool,
    /// Apply the allowlist from [`config::default_allowlist`].
    pub use_allowlist: bool,
}

impl Options {
    /// Production scoping: per-rule scopes plus the allowlist.
    pub fn workspace() -> Options {
        Options {
            all_rules_everywhere: false,
            use_allowlist: true,
        }
    }

    /// Fixture scoping: all rules, no exemptions.
    pub fn everything() -> Options {
        Options {
            all_rules_everywhere: true,
            use_allowlist: false,
        }
    }
}

/// Directory *names* never descended into: build output, VCS state,
/// and the related-repo reference trees.
const SKIP_DIRS: [&str; 3] = ["target", ".git", "related"];

/// The one fixtures directory the linter skips: its files are known-bad
/// on purpose. The skip is by exact workspace-relative path — a crate
/// cannot hide code from the linter by naming a source dir `fixtures`.
const LINT_FIXTURES_DIR: &str = "crates/lint/tests/fixtures";

/// Lints every `.rs` file under `root`, returning findings sorted by
/// (path, line, rule, message). Paths in findings are `/`-separated and
/// relative to `root`.
///
/// Runs in two passes: pass one reads and parses every file to build
/// the cross-file call-graph summaries the ordering rules consume;
/// pass two checks each file against its applicable rules.
pub fn lint_root(root: &Path, opts: &Options) -> std::io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let allowlist = if opts.use_allowlist {
        default_allowlist()
    } else {
        Vec::new()
    };
    // Pass 1: parse everything for the summary layer. Summaries come
    // from the whole tree regardless of per-file rule scoping, so a
    // helper in one crate can satisfy a dominance requirement in
    // another.
    let mut sources: Vec<(String, String)> = Vec::with_capacity(files.len());
    for rel in &files {
        sources.push((rel.clone(), std::fs::read_to_string(root.join(rel))?));
    }
    let mut all_fns = Vec::new();
    for (_, src) in &sources {
        let tokens = lexer::lex(src);
        let test_mask = rules::mask_test_code(&tokens);
        let code: Vec<usize> = (0..tokens.len())
            .filter(|&i| {
                !matches!(
                    tokens[i].kind,
                    lexer::TokenKind::Comment | lexer::TokenKind::DocComment
                ) && !test_mask[i]
            })
            .collect();
        all_fns.extend(parser::parse(&tokens, &code));
    }
    let summaries = dataflow::summarize(&all_fns);
    // Pass 2: per-file rule checks.
    let mut findings = Vec::new();
    for (rel, src) in &sources {
        let applicable = applicable_rules(rel, opts, &allowlist);
        if applicable.is_empty() {
            continue;
        }
        findings.extend(rules::check_file(rel, src, &applicable, &summaries));
    }
    findings.sort();
    Ok(findings)
}

/// Rules that apply to the file at workspace-relative path `rel`.
fn applicable_rules(rel: &str, opts: &Options, allowlist: &[AllowEntry]) -> Vec<Rule> {
    Rule::ALL
        .iter()
        .copied()
        .filter(|&rule| {
            let in_scope = opts.all_rules_everywhere
                || default_scope(rule).iter().any(|pat| path_matches(pat, rel));
            let allowed = allowlist
                .iter()
                .any(|e| e.rule == rule && path_matches(e.pattern, rel));
            in_scope && !allowed
        })
        .collect()
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if path.is_dir() {
            if SKIP_DIRS.contains(&name) || name.starts_with('.') {
                continue;
            }
            let rel = path
                .strip_prefix(root)
                .map(|r| {
                    r.components()
                        .map(|c| c.as_os_str().to_string_lossy())
                        .collect::<Vec<_>>()
                        .join("/")
                })
                .unwrap_or_default();
            if rel == LINT_FIXTURES_DIR {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                let rel = rel
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect::<Vec<_>>()
                    .join("/");
                out.push(rel);
            }
        }
    }
    Ok(())
}

/// Renders findings one per line in the stable `path:line: rule: message`
/// format used by the golden fixture file.
pub fn render(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&f.to_string());
        out.push('\n');
    }
    out
}

/// Renders findings as deterministic JSON: stable field order
/// (`path`, `line`, `rule`, `message`), findings in their sorted
/// order, a trailing `count`, and a final newline. Byte-identical
/// across runs for identical findings.
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"path\":");
        json_string(&mut out, &f.path);
        out.push_str(",\"line\":");
        out.push_str(&f.line.to_string());
        out.push_str(",\"rule\":");
        json_string(&mut out, f.rule.name());
        out.push_str(",\"message\":");
        json_string(&mut out, &f.message);
        out.push('}');
    }
    out.push_str("],\"count\":");
    out.push_str(&findings.len().to_string());
    out.push_str("}\n");
    out
}

fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// One parsed `--baseline` entry: a known finding being suppressed,
/// with a written justification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BaselineEntry {
    /// Path pattern matched with [`config::path_matches`].
    pub pattern: String,
    /// The rule being suppressed.
    pub rule: rules::Rule,
    /// Why the suppression is sound. Must be non-empty.
    pub justification: String,
}

/// Parses a baseline file: one `path-pattern: rule-name: justification`
/// entry per line; `#` comments and blank lines are skipped. Every
/// entry must name a real rule and carry a non-empty justification.
pub fn parse_baseline(text: &str) -> Result<Vec<BaselineEntry>, String> {
    let mut entries = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, ':');
        let (Some(pattern), Some(rule_name), Some(justification)) =
            (parts.next(), parts.next(), parts.next())
        else {
            return Err(format!(
                "baseline line {}: expected `path-pattern: rule-name: justification`",
                lineno + 1
            ));
        };
        let rule_name = rule_name.trim();
        let Some(rule) = rules::Rule::from_name(rule_name) else {
            return Err(format!(
                "baseline line {}: unknown rule `{rule_name}`",
                lineno + 1
            ));
        };
        let justification = justification.trim();
        if justification.is_empty() {
            return Err(format!(
                "baseline line {}: entry for `{rule_name}` lacks a justification",
                lineno + 1
            ));
        }
        entries.push(BaselineEntry {
            pattern: pattern.trim().to_string(),
            rule,
            justification: justification.to_string(),
        });
    }
    Ok(entries)
}

/// Applies a baseline: findings matched by an entry are suppressed.
/// Returns the surviving findings and the (0-based) indices of entries
/// that matched nothing — stale entries a CI run should warn about.
pub fn apply_baseline(
    findings: Vec<Finding>,
    baseline: &[BaselineEntry],
) -> (Vec<Finding>, Vec<usize>) {
    let mut used = vec![false; baseline.len()];
    let kept: Vec<Finding> = findings
        .into_iter()
        .filter(|f| {
            let mut suppressed = false;
            for (i, e) in baseline.iter().enumerate() {
                if e.rule == f.rule && path_matches(&e.pattern, &f.path) {
                    used[i] = true;
                    suppressed = true;
                }
            }
            !suppressed
        })
        .collect();
    let stale = (0..baseline.len()).filter(|&i| !used[i]).collect();
    (kept, stale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn applicable_rules_respect_scope_and_allowlist() {
        let opts = Options::workspace();
        let allow = default_allowlist();
        // bench main.rs: wall clock allowed, ambient randomness still banned.
        let rules = applicable_rules("crates/bench/src/main.rs", &opts, &allow);
        assert!(!rules.contains(&Rule::NoWallClock));
        assert!(rules.contains(&Rule::NoAmbientRandomness));
        // disk.rs: ordered-iteration rule in force.
        let rules = applicable_rules("crates/smr-sim/src/disk.rs", &opts, &allow);
        assert!(rules.contains(&Rule::NoUnorderedIteration));
        assert!(rules.contains(&Rule::NoWallClock));
        // wal.rs: recovery rules in force.
        let rules = applicable_rules("crates/lsm-core/src/wal.rs", &opts, &allow);
        assert!(rules.contains(&Rule::NoUnwrapInRecovery));
        assert!(rules.contains(&Rule::ErrorContext));
    }

    #[test]
    fn everything_mode_ignores_scope_and_allowlist() {
        let opts = Options::everything();
        let rules = applicable_rules("crates/bench/src/main.rs", &opts, &[]);
        assert_eq!(rules.len(), Rule::ALL.len());
    }

    #[test]
    fn json_rendering_is_stable_and_escaped() {
        let findings = vec![rules::Finding {
            path: "crates/x/src/lib.rs".to_string(),
            line: 3,
            rule: Rule::NoWallClock,
            message: "a \"quoted\"\nmessage".to_string(),
        }];
        let a = render_json(&findings);
        let b = render_json(&findings);
        assert_eq!(a, b);
        assert_eq!(
            a,
            "{\"findings\":[{\"path\":\"crates/x/src/lib.rs\",\"line\":3,\
             \"rule\":\"no-wall-clock\",\"message\":\"a \\\"quoted\\\"\\nmessage\"}],\
             \"count\":1}\n"
        );
        assert_eq!(render_json(&[]), "{\"findings\":[],\"count\":0}\n");
    }

    #[test]
    fn baseline_parses_and_suppresses() {
        let text = "# known findings\n\
                    crates/x/src/*.rs: no-wall-clock: migration in flight\n";
        let entries = parse_baseline(text).unwrap();
        assert_eq!(entries.len(), 1);
        let findings = vec![
            rules::Finding {
                path: "crates/x/src/lib.rs".to_string(),
                line: 1,
                rule: Rule::NoWallClock,
                message: "m".to_string(),
            },
            rules::Finding {
                path: "crates/y/src/lib.rs".to_string(),
                line: 1,
                rule: Rule::NoWallClock,
                message: "m".to_string(),
            },
        ];
        let (kept, stale) = apply_baseline(findings, &entries);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].path, "crates/y/src/lib.rs");
        assert!(stale.is_empty());
    }

    #[test]
    fn baseline_rejects_missing_justification_and_unknown_rules() {
        assert!(parse_baseline("crates/x/**: no-wall-clock:").is_err());
        assert!(parse_baseline("crates/x/**: no-wall-clock:   ").is_err());
        assert!(parse_baseline("crates/x/**: not-a-rule: because").is_err());
        assert!(parse_baseline("just-one-field").is_err());
    }

    #[test]
    fn baseline_reports_stale_entries() {
        let entries = parse_baseline("crates/gone/**: no-wall-clock: was removed\n").unwrap();
        let (kept, stale) = apply_baseline(Vec::new(), &entries);
        assert!(kept.is_empty());
        assert_eq!(stale, [0]);
    }
}
