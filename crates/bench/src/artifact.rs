//! The one JSON writer, the one JSON reader and the one fan-out behind
//! every `BENCH_pr*.json` artifact.
//!
//! A sweep builds [`Row`]s — ordered `"name" => value` pairs, see
//! `row!` — and [`Row::to_json`] is the only code that turns them into
//! bytes. [`parse`] is the only code that turns bytes back into rows, and
//! it accepts exactly the writer's language: no whitespace but the final
//! newline, no escapes, no exponents, no duplicate keys. Any byte state
//! of an artifact is therefore either read as the rows that wrote it or
//! reported with its offset, and the checkers (`check`) gate on typed
//! values of named keys, never on where a substring happens to sit.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Deepest nesting [`parse`] follows (the artifacts use six levels); the
/// bound is what keeps hostile input from overflowing the stack.
const MAX_DEPTH: usize = 16;

/// One JSON value of an artifact.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Val {
    /// Integers stay `u64`: state hashes and chaos seeds exceed 2^53.
    U(u64),
    /// A float and the decimals it prints with — carried so that
    /// write∘parse∘write is the identity.
    F(f64, usize),
    /// A string; the writer's language has no escapes, so one holding a
    /// quote, a backslash or a control byte does not re-parse.
    S(String),
    /// `true` / `false`.
    B(bool),
    /// `[..]`.
    List(Vec<Val>),
    /// `{..}`.
    Obj(Row),
}

/// An ordered JSON object: a header, a cell, a whole document.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Row(Vec<(String, Val)>);

/// Builds a [`Row`] from `"name" => value` lines; a value is anything
/// `Val: From` it (integers, `bool`, strings, rows, `Vec`s of those) or a
/// [`Val`] spelled out, as floats must be to state their precision.
macro_rules! row {
    ($($key:expr => $val:expr),* $(,)?) => {
        [$(($key, $crate::artifact::Val::from($val))),*]
            .into_iter()
            .collect::<$crate::artifact::Row>()
    };
}
pub(crate) use row;

macro_rules! val_from {
    ($($t:ty => |$v:ident| $e:expr;)*) => {$(
        impl From<$t> for Val {
            fn from($v: $t) -> Val {
                $e
            }
        }
    )*};
}
val_from! {
    u64 => |v| Val::U(v);
    usize => |v| Val::U(v as u64);
    bool => |v| Val::B(v);
    &str => |v| Val::S(v.to_string());
    String => |v| Val::S(v);
    Row => |v| Val::Obj(v);
}

impl<T: Into<Val>> From<Vec<T>> for Val {
    fn from(items: Vec<T>) -> Val {
        Val::List(items.into_iter().map(Into::into).collect())
    }
}

impl<K: ToString, V: Into<Val>> FromIterator<(K, V)> for Row {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(pairs: I) -> Row {
        Row(pairs
            .into_iter()
            .map(|(k, v)| (k.to_string(), v.into()))
            .collect())
    }
}

impl Val {
    fn write(&self, out: &mut String) {
        match self {
            Val::U(v) => {
                let _ = write!(out, "{v}");
            }
            Val::F(v, decimals) => {
                let _ = write!(out, "{v:.decimals$}");
            }
            Val::S(s) => {
                let _ = write!(out, "\"{s}\"");
            }
            Val::B(b) => out.push_str(if *b { "true" } else { "false" }),
            Val::List(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Val::Obj(row) => row.write(out),
        }
    }

    /// The JSON kind, for [`mistyped`].
    fn kind(&self) -> &'static str {
        match self {
            Val::U(_) => "an integer",
            Val::F(..) => "a signed or fractional number",
            Val::S(_) => "a string",
            Val::B(_) => "a boolean",
            Val::List(_) => "a list",
            Val::Obj(_) => "an object",
        }
    }
}

impl Row {
    fn write(&self, out: &mut String) {
        out.push('{');
        for (i, (key, val)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{key}\":");
            val.write(out);
        }
        out.push('}');
    }

    /// The artifact text of a document row: the object and one newline.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out.push('\n');
        out
    }

    /// The pairs, in written order.
    pub(crate) fn pairs(&self) -> &[(String, Val)] {
        &self.0
    }

    fn get(&self, key: &str) -> Result<&Val, String> {
        let found = self.0.iter().find(|(k, _)| k == key);
        found
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing key {key:?}"))
    }

    /// The integer at `key`.
    pub fn u(&self, key: &str) -> Result<u64, String> {
        match self.get(key)? {
            Val::U(n) => Ok(*n),
            other => Err(mistyped(key, "an integer", other)),
        }
    }

    /// The number at `key` (an integer reads as its float).
    pub fn f(&self, key: &str) -> Result<f64, String> {
        match self.get(key)? {
            Val::U(n) => Ok(*n as f64),
            Val::F(x, _) => Ok(*x),
            other => Err(mistyped(key, "a number", other)),
        }
    }

    /// The string at `key`.
    pub fn s(&self, key: &str) -> Result<&str, String> {
        match self.get(key)? {
            Val::S(s) => Ok(s),
            other => Err(mistyped(key, "a string", other)),
        }
    }

    /// The boolean at `key`.
    pub(crate) fn b(&self, key: &str) -> Result<bool, String> {
        match self.get(key)? {
            Val::B(b) => Ok(*b),
            other => Err(mistyped(key, "a boolean", other)),
        }
    }

    /// The object at `key`.
    pub(crate) fn obj(&self, key: &str) -> Result<&Row, String> {
        match self.get(key)? {
            Val::Obj(row) => Ok(row),
            other => Err(mistyped(key, "an object", other)),
        }
    }

    /// The list of objects at `key` — a sweep's cells.
    pub fn rows(&self, key: &str) -> Result<Vec<&Row>, String> {
        let items = match self.get(key)? {
            Val::List(items) => items,
            other => return Err(mistyped(key, "a list", other)),
        };
        let rows = items.iter().map(|item| match item {
            Val::Obj(row) => Ok(row),
            other => Err(mistyped(key, "a list of objects", other)),
        });
        rows.collect()
    }
}

/// Names the key and the JSON kind found there, never the subtree.
fn mistyped(key: &str, want: &str, found: &Val) -> String {
    format!("key {key:?} is not {want}: found {}", found.kind())
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn fail<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += hit as usize;
        hit
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.eat(byte) {
            return Ok(());
        }
        self.fail(&format!("expected '{}'", byte as char))
    }

    /// The comma-separated items between the bracket at `pos` and `close`.
    fn items(
        &mut self,
        close: u8,
        depth: usize,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        if depth >= MAX_DEPTH {
            return self.fail("nesting deeper than 16 levels");
        }
        self.pos += 1;
        if self.eat(close) {
            return Ok(());
        }
        loop {
            item(self)?;
            if self.eat(close) {
                return Ok(());
            }
            self.expect(b',')?;
        }
    }

    fn object(&mut self, depth: usize) -> Result<Row, String> {
        if self.peek() != Some(b'{') {
            return self.fail("expected '{'");
        }
        let mut row = Row::default();
        self.items(b'}', depth, |p| {
            let key = p.string()?;
            if row.get(&key).is_ok() {
                return p.fail(&format!("duplicate key {key:?}"));
            }
            p.expect(b':')?;
            row.0.push((key, p.value(depth + 1)?));
            Ok(())
        })?;
        Ok(row)
    }

    fn value(&mut self, depth: usize) -> Result<Val, String> {
        match self.peek() {
            Some(b'{') => Ok(Val::Obj(self.object(depth)?)),
            Some(b'[') => {
                let mut list = Vec::new();
                self.items(b']', depth, |p| {
                    list.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Val::List(list))
            }
            Some(b'"') => Ok(Val::S(self.string()?)),
            Some(b't' | b'f') => {
                let truth = self.peek() == Some(b't');
                let word = if truth { "true" } else { "false" };
                if !self.text[self.pos..].starts_with(word) {
                    return self.fail("expected a value");
                }
                self.pos += word.len();
                Ok(Val::B(truth))
            }
            Some(b'-' | b'0'..=b'9' | b'N' | b'I' | b'i') => self.number(),
            _ => self.fail("expected a value"),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.pos;
        loop {
            match self.peek() {
                Some(b'"') => break,
                Some(b'\\') => return self.fail("escape in string"),
                Some(byte) if byte >= 0x20 => self.pos += 1,
                _ => return self.fail("unterminated string"),
            }
        }
        self.pos += 1;
        Ok(self.text[start..self.pos - 1].to_string())
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// Fixed-point only: every artifact formats numbers at a stated
    /// precision, so `NaN`, `inf` or an exponent is a regression upstream.
    fn number(&mut self) -> Result<Val, String> {
        let start = self.pos;
        let negative = self.eat(b'-');
        if matches!(self.peek(), Some(b'N' | b'I' | b'i')) {
            return self.fail("non-finite number token");
        }
        let leading_zero = self.peek() == Some(b'0');
        let whole = self.digits();
        if whole == 0 || (leading_zero && whole > 1) {
            return self.fail("malformed number");
        }
        let mut decimals = 0;
        if self.eat(b'.') {
            decimals = self.digits();
            if decimals == 0 {
                return self.fail("malformed number");
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            return self.fail("exponent in number");
        }
        let token = &self.text[start..self.pos];
        if !negative && decimals == 0 {
            return match token.parse() {
                Ok(n) => Ok(Val::U(n)),
                Err(_) => self.fail("integer beyond u64"),
            };
        }
        match token.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Val::F(x, decimals)),
            _ => self.fail("non-finite number"),
        }
    }
}

/// Parses an artifact: one object, then the newline the writer ends on
/// (so a truncated file cannot pass). Strict — see the module doc — and an
/// `Err` names the byte; no input panics.
pub fn parse(text: &str) -> Result<Row, String> {
    let Some(body) = text.strip_suffix('\n') else {
        return Err("artifact does not end in a newline: truncated?".to_string());
    };
    let mut p = Parser { text: body, pos: 0 };
    let doc = p.object(0)?;
    if p.pos != body.len() {
        return p.fail("trailing bytes");
    }
    Ok(doc)
}

/// The leaves that differ between two artifacts, one `path: old → new`
/// line each: keys joined by `.`, list items as `[i]`, a leaf only one
/// side has printed as `(absent)` on the other. Lines follow the old
/// document's order; keys only the new one has come after their
/// siblings.
pub fn diff(old: &Row, new: &Row) -> Vec<String> {
    let mut lines = Vec::new();
    diff_rows("", old, new, &mut lines);
    lines
}

fn diff_rows(path: &str, old: &Row, new: &Row, lines: &mut Vec<String>) {
    let added = new.0.iter().filter(|(k, _)| old.get(k).is_err());
    for (key, _) in old.0.iter().chain(added) {
        let path = if path.is_empty() {
            key.clone()
        } else {
            format!("{path}.{key}")
        };
        diff_vals(&path, old.get(key).ok(), new.get(key).ok(), lines);
    }
}

fn diff_vals(path: &str, old: Option<&Val>, new: Option<&Val>, lines: &mut Vec<String>) {
    match (old, new) {
        (Some(Val::Obj(a)), Some(Val::Obj(b))) => diff_rows(path, a, b, lines),
        (Some(Val::List(a)), Some(Val::List(b))) => {
            for i in 0..a.len().max(b.len()) {
                diff_vals(&format!("{path}[{i}]"), a.get(i), b.get(i), lines);
            }
        }
        _ if old != new => {
            let show = |v: Option<&Val>| {
                let mut out = String::new();
                match v {
                    Some(v) => v.write(&mut out),
                    None => out.push_str("(absent)"),
                }
                out
            };
            lines.push(format!("{path}: {} → {}", show(old), show(new)));
        }
        _ => {}
    }
}

/// Validates an artifact: parses it, requires `"schema":schema`, and runs
/// `gates`, which push what they find wrong onto the problem list and may
/// stop early with `?` on a key that is missing or mistyped. Empty means
/// valid.
pub(crate) fn check(
    text: &str,
    schema: &str,
    gates: impl FnOnce(&Row, &mut Vec<String>) -> Result<(), String>,
) -> Vec<String> {
    let mut problems = Vec::new();
    let read = parse(text).and_then(|doc| match doc.s("schema") {
        Ok(found) if found == schema => gates(&doc, &mut problems),
        _ => Err(format!("missing schema marker {schema:?}")),
    });
    problems.extend(read.err());
    problems
}

/// The gate every sweep shares: it holds `expected` of `what`.
pub(crate) fn expect_count(problems: &mut Vec<String>, expected: usize, what: &str, found: usize) {
    if found != expected {
        problems.push(format!("expected {expected} {what}, found {found}"));
    }
}

/// Runs `cell(0..n)` as a work queue over at most `available_parallelism`
/// threads (every cell owns its simulated disks, so the fan-out is
/// embarrassingly parallel) and returns the results by index: the bytes
/// built from them cannot depend on the thread count.
pub(crate) fn run_cells<T: Send>(n: usize, cell: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let workers = std::thread::available_parallelism().map_or(1, |p| p.get());
    // Relaxed: the counter only hands out indices; results travel by join.
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, T)> = std::thread::scope(|s| {
        let worker = || {
            let mut mine = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return mine;
                }
                mine.push((i, cell(i)));
            }
        };
        let handles: Vec<_> = (0..workers.min(n)).map(|_| s.spawn(worker)).collect();
        let joined = handles
            .into_iter()
            .map(|h| h.join().expect("cell panicked"));
        joined.flatten().collect()
    });
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const PR7: &str = include_str!("../../../BENCH_pr7.json");

    fn doc(body: &str) -> Result<Row, String> {
        parse(&format!("{{\"schema\":\"t\",{body}}}\n"))
    }

    #[test]
    fn every_committed_artifact_round_trips_byte_identically() {
        let committed = [
            (include_str!("../../../BENCH_pr2.json"), "sealdb-metrics-v1"),
            (include_str!("../../../BENCH_pr3.json"), "sealdb-serve-v1"),
            (include_str!("../../../BENCH_pr5.json"), "sealdb-scrub-v1"),
            (
                include_str!("../../../BENCH_pr6.json"),
                "sealdb-replicate-v1",
            ),
            (PR7, "sealdb-shard-v1"),
            (include_str!("../../../BENCH_pr8.json"), "sealdb-vlog-v1"),
            (include_str!("../../../BENCH_pr10.json"), "sealdb-chaos-v1"),
        ];
        for (text, schema) in committed {
            let doc = parse(text).unwrap_or_else(|e| panic!("{schema}: {e}"));
            assert_eq!(doc.s("schema"), Ok(schema));
            assert!(doc.to_json() == text, "{schema} does not round-trip");
        }
    }

    #[test]
    fn every_proper_prefix_is_an_error() {
        for end in 0..PR7.len() {
            assert!(parse(&PR7[..end]).is_err(), "prefix {end}");
        }
    }

    #[test]
    fn no_single_byte_substitution_panics_or_misreads() {
        for at in 0..PR7.len() {
            for byte in *b"{\",-.e\xFF\x00" {
                let mut bytes = PR7.as_bytes().to_vec();
                bytes[at] = byte;
                // Not UTF-8 is refused where the file is read (`main.rs`).
                let Ok(text) = std::str::from_utf8(&bytes) else {
                    continue;
                };
                // Whatever still parses is read as exactly what it says.
                if let Ok(doc) = parse(text) {
                    assert!(doc.to_json() == text, "byte {at} <- {byte:#04x}");
                }
            }
        }
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        let deep = doc(&format!("\"a\":{}", "[".repeat(100_000)));
        assert!(deep.unwrap_err().contains("nesting deeper"));
        assert!(doc(&format!("\"a\":{}1{}", "[".repeat(14), "]".repeat(14))).is_ok());
    }

    #[test]
    fn only_the_writers_language_is_accepted() {
        for (body, why) in [
            ("\"a\":NaN", "non-finite"),
            ("\"a\":inf", "non-finite"),
            ("\"a\":-inf", "non-finite"),
            ("\"a\":-Infinity", "non-finite"),
            ("\"a\":1e5", "exponent"),
            ("\"a\":1.5E-3", "exponent"),
            ("\"a\":01", "malformed number"),
            ("\"a\":1.", "malformed number"),
            ("\"a\":.5", "expected a value"),
            ("\"a\":-", "malformed number"),
            ("\"a\":99999999999999999999", "beyond u64"),
            ("\"a\":null", "expected a value"),
            ("\"a\":tru", "expected a value"),
            ("\"a\":\"x\\n\"", "escape"),
            ("\"a\":\"x", "unterminated"),
            ("\"a\":1,\"a\":2", "duplicate key \"a\""),
            ("\"a\": 1", "expected a value"),
            ("\"a\":[1,]", "expected a value"),
            ("\"a\":[1}", "expected ','"),
            ("\"a\":1}", "trailing bytes"),
        ] {
            let err = doc(body).expect_err(body);
            assert!(err.contains(why), "{body}: {err}");
            assert!(err.contains("at byte"), "{body}: {err}");
        }
        assert!(parse("{\"schema\":\"t\"}").unwrap_err().contains("newline"));
        assert!(parse("{\"schema\":\"t\"}\n\n").is_err());
        let wrong = check("{\"schema\":\"u\"}\n", "t", |_, _| Ok(()));
        assert_eq!(wrong, ["missing schema marker \"t\""]);
    }

    #[test]
    fn accessors_name_the_key_and_the_kind_not_the_subtree() {
        let doc = doc("\"n\":-3,\"x\":0.50,\"big\":18446744073709551615,\"cells\":[[7]]").unwrap();
        assert_eq!(doc.u("big"), Ok(u64::MAX));
        assert_eq!(doc.f("x"), Ok(0.5));
        assert_eq!(doc.f("big"), Ok(u64::MAX as f64));
        assert_eq!(doc.u("gone").unwrap_err(), "missing key \"gone\"");
        for key in ["n", "x"] {
            let err = doc.u(key).unwrap_err();
            assert!(err.contains(key) && err.contains("not an integer"), "{err}");
        }
        let err = doc.rows("cells").unwrap_err();
        assert_eq!(err, "key \"cells\" is not a list of objects: found a list");
        assert!(doc.s("cells").unwrap_err().ends_with("found a list"));
        assert!(doc.obj("n").is_err() && doc.b("x").is_err());
        assert_eq!(
            doc.to_json(),
            "{\"schema\":\"t\",\"n\":-3,\"x\":0.50,\"big\":18446744073709551615,\"cells\":[[7]]}\n"
        );
    }

    #[test]
    fn diff_prints_each_changed_leaf_with_its_path() {
        let old = doc(r#""seed":1,"cells":[{"n":2,"p99":1.50},{"n":4,"p99":2.00}],"gone":true"#);
        let new =
            doc(r#""seed":1,"cells":[{"n":2,"p99":1.25},{"n":4,"p99":2.00},{"n":8}],"new":"x""#);
        let (old, new) = (old.unwrap(), new.unwrap());
        assert_eq!(
            diff(&old, &new),
            [
                "cells[0].p99: 1.50 → 1.25",
                r#"cells[2]: (absent) → {"n":8}"#,
                "gone: true → (absent)",
                r#"new: (absent) → "x""#,
            ]
        );
        assert!(diff(&old, &old).is_empty());
        // A precision change is a change of bytes, so it is reported.
        let wider = doc(r#""seed":1,"cells":[{"n":2,"p99":1.500},{"n":4,"p99":2.00}],"gone":true"#);
        assert_eq!(diff(&old, &wider.unwrap()), ["cells[0].p99: 1.50 → 1.500"]);
    }

    #[test]
    fn run_cells_returns_index_order_whatever_the_thread_count() {
        for n in [0, 1, 257] {
            let got = run_cells(n, |i| i * i);
            assert_eq!(got, (0..n).map(|i| i * i).collect::<Vec<_>>());
        }
    }
}
