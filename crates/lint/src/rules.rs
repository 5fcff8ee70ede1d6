//! The rule catalogue and the per-file checking engine.
//!
//! Rules operate on the token stream produced by the lexer. Two
//! stream-wide analyses run before any rule: test-code masking (tokens
//! inside `#[cfg(test)]`-gated modules and `#[test]` functions are
//! invisible to every rule — tests may read the host clock) and suppression
//! collection (`// seal-lint: allow(rule-name)` on the same line or the
//! line above a finding silences it).

use crate::lexer::{lex, Token, TokenKind};
use std::collections::BTreeMap;
use std::fmt;

/// The enforced invariants. See `DESIGN.md` §11 for the full catalogue
/// with rationale and examples.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `Instant`/`SystemTime` outside the bench crate: simulated results
    /// must be a pure function of the seed, never of the host clock.
    NoWallClock,
    /// `thread_rng`/`RandomState`/argless `from_entropy`: all randomness
    /// must flow from an explicit seed.
    NoAmbientRandomness,
    /// Corruption errors built from a bare string literal: recovery
    /// diagnostics must say *where* (file, offset, record) the bad bytes
    /// live.
    ErrorContext,
    /// Metric names passed to the obs layer must be snake_case and the
    /// call must name a declared `ObsLayer`.
    ObsMetricNaming,
    /// A write acknowledgement must be dominated by a durability
    /// barrier (`sync_wal`/`append_durable`) on every path.
    SyncBeforeAck,
    /// Value-log pointers must not reach the WAL before the segment
    /// directory checkpoint commits (the PR 8 bug class).
    CheckpointBeforePointer,
    /// Repair/salvage of damaged storage must be dominated by a fence
    /// (`quarantine_extent`/`seal`) on every path.
    FenceBeforeRepair,
    /// Segment recycle must be dominated by a durability barrier so
    /// pointer fixups are on stable media before bytes are freed.
    RecycleAfterFixupsDurable,
    /// No durability work (`sync`/checkpoint) reachable from `Drop`
    /// impls, where ordering at crash is undefined.
    NoDurabilityInDrop,
    /// Every `pub` item of a library crate is named outside that crate
    /// (workspace-level; see the `surface` module).
    PubWithoutOutsideUser,
}

impl Rule {
    /// Every rule, in diagnostic order.
    pub const ALL: [Rule; 10] = [
        Rule::NoWallClock,
        Rule::NoAmbientRandomness,
        Rule::ErrorContext,
        Rule::ObsMetricNaming,
        Rule::SyncBeforeAck,
        Rule::CheckpointBeforePointer,
        Rule::FenceBeforeRepair,
        Rule::RecycleAfterFixupsDurable,
        Rule::NoDurabilityInDrop,
        Rule::PubWithoutOutsideUser,
    ];

    /// Stable kebab-case name used in diagnostics and suppressions.
    pub fn name(self) -> &'static str {
        match self {
            Rule::NoWallClock => "no-wall-clock",
            Rule::NoAmbientRandomness => "no-ambient-randomness",
            Rule::ErrorContext => "error-context",
            Rule::ObsMetricNaming => "obs-metric-naming",
            Rule::SyncBeforeAck => "sync-before-ack",
            Rule::CheckpointBeforePointer => "checkpoint-before-pointer",
            Rule::FenceBeforeRepair => "fence-before-repair",
            Rule::RecycleAfterFixupsDurable => "recycle-after-fixups-durable",
            Rule::NoDurabilityInDrop => "no-durability-in-drop",
            Rule::PubWithoutOutsideUser => "pub-without-outside-user",
        }
    }

    /// Parses a kebab-case rule name (for suppression comments).
    pub(crate) fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.name() == name)
    }

    /// One-line description shown by `seal-lint --rules`.
    pub fn summary(self) -> &'static str {
        match self {
            Rule::NoWallClock => "no Instant/SystemTime outside the bench crate",
            Rule::NoAmbientRandomness => "no thread_rng/RandomState/argless from_entropy",
            Rule::ErrorContext => "corruption errors must carry file/offset context",
            Rule::ObsMetricNaming => {
                "metric names snake_case, registered under a declared ObsLayer"
            }
            Rule::SyncBeforeAck => "write acks dominated by a durability barrier on every path",
            Rule::CheckpointBeforePointer => {
                "segment-directory checkpoint commits before vlog pointers reach the WAL"
            }
            Rule::FenceBeforeRepair => "repair/salvage dominated by a fence on every path",
            Rule::RecycleAfterFixupsDurable => {
                "segment recycle dominated by durable pointer fixups"
            }
            Rule::NoDurabilityInDrop => "no sync/checkpoint work reachable from Drop impls",
            Rule::PubWithoutOutsideUser => {
                "every pub item of a library crate is named outside that crate"
            }
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One diagnostic: a rule violated at a file and line.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based source line.
    pub(crate) line: u32,
    /// The violated rule.
    pub rule: Rule,
    /// What was found and what to do instead.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Checks one file's source against `rules`, honouring suppression
/// comments and skipping test-gated code. `path` is only stamped into
/// findings; scoping decisions happen in [`crate::lint_root`], which
/// also computes the cross-file call-graph `summaries`.
pub(crate) fn check_file(
    path: &str,
    src: &str,
    rules: &[Rule],
    summaries: &crate::dataflow::Summaries,
) -> Vec<Finding> {
    let tokens = lex(src);
    let suppressed = collect_suppressions(&tokens);
    let test_mask = mask_test_code(&tokens);
    // Code view: comments and doc comments removed, with a map back to
    // the full stream so the test mask stays aligned.
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| tokens[i].kind != TokenKind::Comment && !test_mask[i])
        .collect();
    let mut out = Vec::new();
    let mut emit = |line: u32, rule: Rule, message: String| {
        if !is_suppressed(&suppressed, line, rule) {
            out.push(Finding {
                path: path.to_string(),
                line,
                rule,
                message,
            });
        }
    };
    let mut ordering_rules: Vec<Rule> = Vec::new();
    for &rule in rules {
        match rule {
            Rule::NoWallClock => no_wall_clock(&tokens, &code, rule, &mut emit),
            Rule::NoAmbientRandomness => no_ambient_randomness(&tokens, &code, rule, &mut emit),
            Rule::ErrorContext => error_context(&tokens, &code, rule, &mut emit),
            Rule::ObsMetricNaming => obs_metric_naming(&tokens, &code, rule, &mut emit),
            Rule::SyncBeforeAck
            | Rule::CheckpointBeforePointer
            | Rule::FenceBeforeRepair
            | Rule::RecycleAfterFixupsDurable
            | Rule::NoDurabilityInDrop => ordering_rules.push(rule),
            // Workspace-level: `lint_root` runs it over every file at once.
            Rule::PubWithoutOutsideUser => {}
        }
    }
    if !ordering_rules.is_empty() {
        let fns = crate::parser::parse(&tokens, &code);
        for f in &fns {
            crate::dataflow::check_fn(f, summaries, &ordering_rules, &mut emit);
        }
    }
    out.sort();
    out
}

/// Whether a suppression in `map` silences `rule` at `line`: a comment
/// on that line or on the line directly above it.
pub(crate) fn is_suppressed(map: &BTreeMap<u32, Vec<Rule>>, line: u32, rule: Rule) -> bool {
    let hit = |l: u32| map.get(&l).is_some_and(|set| set.contains(&rule));
    hit(line) || (line > 1 && hit(line - 1))
}

/// Parses `// seal-lint: allow(rule-a, rule-b)` comments into a line →
/// allowed-rules map. A suppression covers findings on its own line and
/// on the line directly below it (comment-above style).
pub(crate) fn collect_suppressions(tokens: &[Token]) -> BTreeMap<u32, Vec<Rule>> {
    let mut map: BTreeMap<u32, Vec<Rule>> = BTreeMap::new();
    for t in tokens {
        if t.kind != TokenKind::Comment {
            continue;
        }
        let Some(at) = t.text.find("seal-lint:") else {
            continue;
        };
        let rest = &t.text[at + "seal-lint:".len()..];
        let Some(open) = rest.find("allow(") else {
            continue;
        };
        let Some(close) = rest[open..].find(')') else {
            continue;
        };
        let inner = &rest[open + "allow(".len()..open + close];
        let entry = map.entry(t.line).or_default();
        for name in inner.split(',') {
            if let Some(rule) = Rule::from_name(name.trim()) {
                entry.push(rule);
            }
        }
    }
    map
}

/// Marks tokens inside `#[cfg(test)]`-gated items and `#[test]`
/// functions. The mask is computed on the *full* stream (comments
/// included) so indices line up everywhere.
pub(crate) fn mask_test_code(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if !tokens[i].is_punct('#') || !tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            i += 1;
            continue;
        }
        // Collect the attribute's tokens up to the matching `]`.
        let attr_start = i;
        let mut depth = 0usize;
        let mut j = i + 1;
        while j < tokens.len() {
            if tokens[j].is_punct('[') {
                depth += 1;
            } else if tokens[j].is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        let attr = &tokens[attr_start..=j.min(tokens.len() - 1)];
        let has = |s: &str| attr.iter().any(|t| t.is_ident(s));
        // `#[test]` or `#[cfg(test)]` (but not `#[cfg(not(test))]`,
        // which gates *non*-test code).
        let gates_test = has("test") && !has("not");
        if !gates_test {
            i = j + 1;
            continue;
        }
        // Skip any further attributes, then the item header, up to the
        // body `{` (or a terminating `;` for brace-less items).
        let mut k = j + 1;
        while k < tokens.len() {
            if tokens[k].is_punct('#') && tokens.get(k + 1).is_some_and(|t| t.is_punct('[')) {
                let mut d = 0usize;
                while k < tokens.len() {
                    if tokens[k].is_punct('[') {
                        d += 1;
                    } else if tokens[k].is_punct(']') {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    k += 1;
                }
                k += 1;
                continue;
            }
            if tokens[k].is_punct(';') {
                // `#[cfg(test)] use ...;` — nothing to mask beyond it.
                break;
            }
            if tokens[k].is_punct('{') {
                // Mask the attribute, header and the whole body.
                let mut d = 0usize;
                let mut m = k;
                while m < tokens.len() {
                    if tokens[m].is_punct('{') {
                        d += 1;
                    } else if tokens[m].is_punct('}') {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    m += 1;
                }
                for slot in mask
                    .iter_mut()
                    .take(m.min(tokens.len() - 1) + 1)
                    .skip(attr_start)
                {
                    *slot = true;
                }
                k = m;
                break;
            }
            k += 1;
        }
        i = k + 1;
    }
    mask
}

type Emit<'a> = dyn FnMut(u32, Rule, String) + 'a;

fn no_wall_clock(tokens: &[Token], code: &[usize], rule: Rule, emit: &mut Emit) {
    for &i in code {
        let t = &tokens[i];
        if t.is_ident("Instant") || t.is_ident("SystemTime") {
            emit(
                t.line,
                rule,
                format!(
                    "`{}` reads the host clock; simulated results must be a pure \
                     function of the seed (use the simulated clock, or move timing \
                     into crates/bench)",
                    t.text
                ),
            );
        }
    }
}

fn no_ambient_randomness(tokens: &[Token], code: &[usize], rule: Rule, emit: &mut Emit) {
    for (pos, &i) in code.iter().enumerate() {
        let t = &tokens[i];
        if t.is_ident("thread_rng") || t.is_ident("RandomState") {
            emit(
                t.line,
                rule,
                format!(
                    "`{}` draws ambient entropy; derive all randomness from an \
                     explicit seed instead",
                    t.text
                ),
            );
        }
        // `from_entropy()` with no arguments; `from_entropy(seed)` or a
        // mere mention in a path is fine.
        if t.is_ident("from_entropy")
            && code.get(pos + 1).is_some_and(|&a| tokens[a].is_punct('('))
            && code.get(pos + 2).is_some_and(|&a| tokens[a].is_punct(')'))
        {
            emit(
                t.line,
                rule,
                "argless `from_entropy()` seeds from the OS; thread an explicit \
                 seed through instead"
                    .to_string(),
            );
        }
    }
}

fn error_context(tokens: &[Token], code: &[usize], rule: Rule, emit: &mut Emit) {
    for (pos, &i) in code.iter().enumerate() {
        let t = &tokens[i];
        // `corruption("literal")` / `Corruption("literal"...)`: the next
        // code token after `(` being a bare string literal means no
        // file/offset/record context was formatted in.
        if (t.is_ident("corruption") || t.is_ident("Corruption"))
            && code.get(pos + 1).is_some_and(|&a| tokens[a].is_punct('('))
            && code
                .get(pos + 2)
                .is_some_and(|&a| tokens[a].kind == TokenKind::Str)
        {
            emit(
                t.line,
                rule,
                "corruption error built from a bare string literal; include where \
                 the bad bytes live (file id, byte offset, record index)"
                    .to_string(),
            );
        }
    }
}

const OBS_SINKS: [&str; 3] = ["counter_add", "gauge_set", "latency"];

fn obs_metric_naming(tokens: &[Token], code: &[usize], rule: Rule, emit: &mut Emit) {
    for (pos, &i) in code.iter().enumerate() {
        let t = &tokens[i];
        let is_sink_call = t.kind == TokenKind::Ident
            && OBS_SINKS.contains(&t.text.as_str())
            && pos > 0
            && tokens[code[pos - 1]].is_punct('.')
            && code.get(pos + 1).is_some_and(|&a| tokens[a].is_punct('('));
        if !is_sink_call {
            continue;
        }
        // Walk the argument list to the matching `)`.
        let mut depth = 0usize;
        let mut first_arg: Option<&Token> = None;
        let mut names: Vec<&Token> = Vec::new();
        for &a in &code[pos + 1..] {
            let tok = &tokens[a];
            if tok.is_punct('(') {
                depth += 1;
                continue;
            }
            if tok.is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
                continue;
            }
            if depth == 1 {
                if first_arg.is_none() {
                    first_arg = Some(tok);
                }
                if tok.kind == TokenKind::Str {
                    names.push(tok);
                }
            }
        }
        // The layer argument must be a declared `ObsLayer` variant or a
        // lowercase local carrying one.
        if let Some(arg) = first_arg {
            let declared = arg.is_ident("ObsLayer")
                || arg.is_ident("self")
                || (arg.kind == TokenKind::Ident
                    && arg.text.chars().next().is_some_and(|c| c.is_lowercase()));
            if !declared {
                emit(
                    t.line,
                    rule,
                    format!(
                        "`{}` call must register under a declared `ObsLayer` \
                         (got `{}`)",
                        t.text, arg.text
                    ),
                );
            }
        }
        for name in names {
            // Names may group by dotted prefix (`compaction.l0.bytes_in`);
            // every part is held to snake_case.
            if !name.text.split('.').all(is_snake_case) {
                emit(
                    name.line,
                    rule,
                    format!(
                        "metric name \"{}\" is not snake_case (lowercase letters, \
                         digits and underscores, starting with a letter)",
                        name.text
                    ),
                );
            }
        }
    }
}

fn is_snake_case(s: &str) -> bool {
    !s.is_empty()
        && s.chars().next().is_some_and(|c| c.is_ascii_lowercase())
        && s.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Checks one source as `f.rs`: the call-graph summary layer sees
    /// only this file's own functions.
    fn run(src: &str, rules: &[Rule]) -> Vec<Finding> {
        let tokens = lex(src);
        let test_mask = mask_test_code(&tokens);
        let code: Vec<usize> = (0..tokens.len())
            .filter(|&i| tokens[i].kind != TokenKind::Comment && !test_mask[i])
            .collect();
        let fns = crate::parser::parse(&tokens, &code);
        let summaries = crate::dataflow::summarize(&fns);
        check_file("f.rs", src, rules, &summaries)
    }

    #[test]
    fn ordering_rules_route_through_the_dataflow_pass() {
        let bad = run(
            "fn f(db: &mut Db) { db.ack_write(1); }",
            &[Rule::SyncBeforeAck],
        );
        assert_eq!(bad.len(), 1);
        assert!(bad[0].message.contains("sync_wal"));
        // Suppression comments work on dataflow findings too.
        let ok = run(
            "fn f(db: &mut Db) {\n    // seal-lint: allow(sync-before-ack)\n    db.ack_write(1);\n}",
            &[Rule::SyncBeforeAck],
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn wall_clock_flagged_and_suppressed() {
        let f = run("let t = Instant::now();", &[Rule::NoWallClock]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 1);
        let ok = run(
            "// seal-lint: allow(no-wall-clock)\nlet t = Instant::now();",
            &[Rule::NoWallClock],
        );
        assert!(ok.is_empty());
        let same_line = run(
            "let t = Instant::now(); // seal-lint: allow(no-wall-clock)",
            &[Rule::NoWallClock],
        );
        assert!(same_line.is_empty());
    }

    #[test]
    fn string_mentions_are_not_findings() {
        let f = run(r#"let s = "Instant::now and HashMap";"#, &Rule::ALL);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn randomness_variants() {
        let f = run(
            "let a = thread_rng(); let b = RandomState::new(); let c = Rng::from_entropy();",
            &[Rule::NoAmbientRandomness],
        );
        assert_eq!(f.len(), 3);
        // Seeded from_entropy(seed) is not ambient.
        let ok = run(
            "let c = Rng::from_entropy(seed);",
            &[Rule::NoAmbientRandomness],
        );
        assert!(ok.is_empty());
    }

    #[test]
    fn test_code_is_invisible() {
        let src = "#[cfg(test)]\nmod tests {\n fn f() { let t = Instant::now(); }\n}";
        assert!(run(src, &Rule::ALL).is_empty());
        let src2 = "#[test]\nfn t() { let t = Instant::now(); }";
        assert!(run(src2, &Rule::ALL).is_empty());
        // ...but cfg(not(test)) code is linted.
        let src3 = "#[cfg(not(test))]\nfn f() { let t = Instant::now(); }";
        assert_eq!(run(src3, &[Rule::NoWallClock]).len(), 1);
    }

    #[test]
    fn error_context_literal_vs_format() {
        let bad = run(r#"return corruption("bad crc");"#, &[Rule::ErrorContext]);
        assert_eq!(bad.len(), 1);
        let good = run(
            r#"return corruption(format!("bad crc at {off}"));"#,
            &[Rule::ErrorContext],
        );
        assert!(good.is_empty());
    }

    #[test]
    fn metric_naming() {
        let bad = run(
            r#"obs.counter_add(ObsLayer::Device, "BadName", 1);"#,
            &[Rule::ObsMetricNaming],
        );
        assert_eq!(bad.len(), 1);
        let good = run(
            r#"obs.counter_add(ObsLayer::Device, "band_rmw_bytes", 1);"#,
            &[Rule::ObsMetricNaming],
        );
        assert!(good.is_empty());
        let grouped = run(
            r#"obs.counter_add(ObsLayer::Lsm, "compaction.bridged_bytes", 1);"#,
            &[Rule::ObsMetricNaming],
        );
        assert!(grouped.is_empty());
        for bad_group in ["compaction.BridgedBytes", "compaction..bytes", ".bytes"] {
            let src = format!(r#"obs.counter_add(ObsLayer::Lsm, "{bad_group}", 1);"#);
            assert_eq!(run(&src, &[Rule::ObsMetricNaming]).len(), 1, "{bad_group}");
        }
        let undeclared = run(
            r#"obs.counter_add(LAYER, "ok_name", 1);"#,
            &[Rule::ObsMetricNaming],
        );
        assert_eq!(undeclared.len(), 1);
        assert!(undeclared[0].message.contains("ObsLayer"));
    }

    #[test]
    fn findings_sort_deterministically() {
        let src = "let a = SystemTime::now();\nlet b = Instant::now();";
        let f = run(src, &[Rule::NoWallClock]);
        assert_eq!(f.len(), 2);
        assert!(f[0].line < f[1].line);
    }

    #[test]
    fn rule_names_roundtrip() {
        for r in Rule::ALL {
            assert_eq!(Rule::from_name(r.name()), Some(r));
        }
        assert_eq!(Rule::from_name("nope"), None);
    }
}
