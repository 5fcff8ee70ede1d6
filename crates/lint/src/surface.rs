//! The `pub-without-outside-user` rule: every `pub` item of a library
//! crate must be named somewhere outside that library.
//!
//! Per-file rules see one token stream; this one needs them all, so
//! [`crate::lint_root`] runs it once over the streams its first pass
//! lexed. A *library file* is `crates/<name>/src/**` of a crate that
//! has a `src/lib.rs`, minus `src/main.rs` and `src/bin/**` (those
//! compile as crates of their own). Every other file — other crates,
//! the package's own binaries, `tests/`, benches and examples, the
//! root package and `benchmark/` — is a potential outside user. A use
//! is an identifier token in code: comments, doc comments and string
//! literals never count; test code outside the library does.
//!
//! Subjects are the declarations `scripts/size.sh` counts: a line that
//! starts with `pub` followed by an item keyword, or a `pub name:`
//! field, outside test code. `pub(crate)` and its kin are never
//! reported. Each leaf of a `pub use` is judged on its own; a glob
//! re-export never is.
//!
//! The check matches identifiers, not resolved paths, so it errs quiet:
//! a common name (`new`, `len`) used anywhere outside keeps every item
//! of that name public. So that it never asks for a change rustc
//! rejects (`private_interfaces`, re-exporting a private item, a
//! functional record update across crates), three more kinds of use
//! keep an item public, iterated to a fixed point:
//! - a name in the interface of a kept item: a fn's parameters, return
//!   type, generics and where-clause, plus its inherent impl's header;
//!   a kept field's type; a struct's generics and tuple fields; a type
//!   alias; a const's or static's type; an enum's or trait's body; an
//!   associated type in a trait impl;
//! - the target of a kept `pub use` leaf;
//! - every field of a struct built or matched outside with
//!   `Name { .., ..base }`.

use crate::lexer::{Token, TokenKind};
use crate::rules::{Finding, Rule};
use std::collections::{BTreeMap, BTreeSet};

/// One lexed file as the first pass of [`crate::lint_root`] saw it.
pub(crate) struct LexedFile {
    /// Workspace-relative path with `/` separators.
    pub(crate) rel: String,
    /// The full token stream, comments included.
    pub(crate) tokens: Vec<Token>,
    /// Tokens inside `#[cfg(test)]` items and `#[test]` functions.
    pub(crate) test_mask: Vec<bool>,
}

/// A `pub` declaration of a library crate.
struct Decl {
    file: usize,
    line: u32,
    krate: String,
    /// What the finding calls it: `fn foo`, `field bar`, `re-export Baz`.
    what: String,
    /// The name outside code must mention.
    name: String,
    /// Identifiers that must stay public while this item is kept.
    interface: Vec<String>,
    /// For a field: the struct it belongs to.
    parent: Option<String>,
}

/// Who owns a file's identifiers: the library crate it belongs to, or
/// nobody (a binary, test, example or another workspace).
fn owner(rel: &str, libs: &BTreeSet<&str>) -> Option<String> {
    let rest = rel.strip_prefix("crates/")?;
    let (krate, path) = rest.split_once('/')?;
    let src = path.strip_prefix("src/")?;
    let is_lib = libs.contains(krate) && src != "main.rs" && !src.starts_with("bin/");
    is_lib.then(|| krate.to_string())
}

/// Runs the rule over every lexed file of the tree and returns its
/// findings, each with the index of its file in `files`, unsorted and
/// unfiltered by scope.
pub(crate) fn check(files: &[LexedFile]) -> Vec<(usize, Finding)> {
    let libs: BTreeSet<&str> = files
        .iter()
        .filter_map(|f| f.rel.strip_prefix("crates/")?.strip_suffix("/src/lib.rs"))
        .collect();
    let owners: Vec<Option<String>> = files.iter().map(|f| owner(&f.rel, &libs)).collect();
    // Identifier -> the owners that name it in code ("" = no library).
    let mut named_by: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    // Struct name -> owners that build or match it with `..`.
    let mut rest_built_by: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    // Crate -> identifiers that must stay public: associated types of
    // its trait impls, then the interface of each item found kept.
    let mut interface: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut decls = Vec::new();
    for (idx, file) in files.iter().enumerate() {
        let own = owners[idx].as_deref().unwrap_or("");
        let code: Vec<&Token> = file
            .tokens
            .iter()
            .filter(|t| t.kind != TokenKind::Comment)
            .collect();
        for t in &code {
            if t.kind == TokenKind::Ident {
                named_by.entry(&t.text).or_default().insert(own);
            }
        }
        for name in structs_with_rest(&code) {
            rest_built_by.entry(name).or_default().insert(own);
        }
        let Some(krate) = &owners[idx] else {
            continue;
        };
        let live: Vec<&Token> = file
            .tokens
            .iter()
            .zip(&file.test_mask)
            .filter(|(t, &test)| !test && t.kind != TokenKind::Comment)
            .map(|(t, _)| t)
            .collect();
        let assoc = interface.entry(krate.clone()).or_default();
        collect_decls(&live, idx, krate, &mut decls, assoc);
    }
    let outside = |name: &str, krate: &str, map: &BTreeMap<&str, BTreeSet<&str>>| {
        map.get(name)
            .is_some_and(|owners| owners.iter().any(|o| *o != krate))
    };
    let mut kept: Vec<bool> = decls
        .iter()
        .map(|d| {
            outside(&d.name, &d.krate, &named_by)
                || d.parent
                    .as_deref()
                    .is_some_and(|s| outside(s, &d.krate, &rest_built_by))
        })
        .collect();
    // Fixed point: an item named in a kept item's interface is kept.
    let mut done = vec![false; decls.len()];
    let named = |d: &Decl, i: &BTreeMap<String, BTreeSet<String>>| {
        i.get(&d.krate).is_some_and(|u| u.contains(&d.name))
    };
    while let Some(i) =
        (0..decls.len()).find(|&i| !done[i] && (kept[i] || named(&decls[i], &interface)))
    {
        (kept[i], done[i]) = (true, true);
        let used = interface.entry(decls[i].krate.clone()).or_default();
        used.extend(decls[i].interface.iter().cloned());
    }
    decls
        .iter()
        .zip(&kept)
        .filter(|(_, &k)| !k)
        .map(|(d, _)| {
            let finding = Finding {
                path: files[d.file].rel.clone(),
                line: d.line,
                rule: Rule::PubWithoutOutsideUser,
                message: format!(
                    "pub {} has no user outside crate `{}`; make it pub(crate) or private \
                     (and delete it if rustc then finds it dead)",
                    d.what, d.krate
                ),
            };
            (d.file, finding)
        })
        .collect()
}

/// Names of structs built or matched with a rest (`Name { a, ..base }`
/// or `Name { a, .. }`): every field of such a struct must stay as
/// visible as the code doing it.
fn structs_with_rest<'a>(code: &[&'a Token]) -> Vec<&'a str> {
    let mut out = Vec::new();
    for i in 0..code.len() {
        if code[i].kind != TokenKind::Ident || !code.get(i + 1).is_some_and(|t| t.is_punct('{')) {
            continue;
        }
        if i >= 2 && code[i - 1].is_punct('>') && code[i - 2].is_punct('-') {
            continue; // `-> Name {` opens a fn body, not a struct
        }
        let mut depth = 0usize;
        for j in i + 1..code.len() {
            let t = code[j];
            if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if depth == 1
                && t.is_punct('.')
                && code.get(j + 1).is_some_and(|n| n.is_punct('.'))
            {
                out.push(code[i].text.as_str());
                break;
            }
        }
    }
    out
}

/// Walks one library file's live code (no comments, no test code) and
/// records every `pub` declaration `scripts/size.sh` counts, plus into
/// `assoc` the identifiers of each `type Name = ...;` directly inside a
/// trait impl (an associated type of a public trait is interface).
fn collect_decls(
    code: &[&Token],
    file: usize,
    krate: &str,
    out: &mut Vec<Decl>,
    assoc: &mut BTreeSet<String>,
) {
    // The impl (header start, body `{`) enclosing each `{`, if any.
    let mut stack: Vec<Option<(usize, usize)>> = Vec::new();
    let mut impl_at: BTreeMap<usize, (usize, usize)> = BTreeMap::new();
    // Struct whose body each `{` opens, for fields.
    let mut struct_at: BTreeMap<usize, String> = BTreeMap::new();
    let mut struct_stack: Vec<Option<String>> = Vec::new();
    for i in 0..code.len() {
        let t = code[i];
        if t.is_ident("impl") && at_item_start(code, i) {
            if let Some(open) = header_end(code, i) {
                impl_at.insert(open, (i, open));
            }
        }
        if t.is_punct('{') {
            stack.push(impl_at.get(&i).copied());
            struct_stack.push(struct_at.remove(&i));
            continue;
        }
        if t.is_punct('}') {
            stack.pop();
            struct_stack.pop();
            continue;
        }
        let impl_header = stack.last().copied().flatten();
        let is_trait_impl = |(a, b): (usize, usize)| code[a..b].iter().any(|t| t.is_ident("for"));
        if t.is_ident("type") && impl_header.is_some_and(is_trait_impl) {
            assoc.extend(idents(&code[i + 1..header_end_or_semi(code, i)]));
        }
        // `pub(crate)` and its kin fail the keyword match below.
        if !t.is_ident("pub") {
            continue;
        }
        if i > 0 && code[i - 1].line == t.line {
            continue; // not at the start of its line: size.sh skips it
        }
        let parent = struct_stack.last().cloned().flatten();
        let decl = |line, what: String, name: &str, interface: Vec<String>| Decl {
            file,
            line,
            krate: krate.to_string(),
            what,
            name: name.to_string(),
            interface,
            parent: None,
        };
        let mut k = i + 1;
        // `pub const fn` / `pub unsafe fn` count as functions.
        while code.get(k).is_some_and(|m| {
            (m.is_ident("const") || m.is_ident("unsafe")) && next_is(code, k, "fn")
        }) {
            k += 1;
        }
        let Some(kw) = code.get(k).filter(|t| t.kind == TokenKind::Ident) else {
            continue;
        };
        match kw.text.as_str() {
            "fn" | "struct" | "enum" | "trait" | "mod" | "const" | "static" | "type" => {
                let mut n = k + 1;
                if code.get(n).is_some_and(|m| m.is_ident("mut")) {
                    n += 1;
                }
                let Some(name) = code.get(n).filter(|t| t.kind == TokenKind::Ident) else {
                    continue;
                };
                let end = header_end_or_semi(code, n);
                let interface = match kw.text.as_str() {
                    "fn" => {
                        let mut v = idents(&code[n + 1..end]);
                        if let Some((a, b)) = impl_header {
                            v.extend(idents(&code[a..b]));
                        }
                        v
                    }
                    "struct" => {
                        if code.get(end).is_some_and(|t| t.is_punct('{')) {
                            struct_at.insert(end, name.text.clone());
                        }
                        idents(&code[n + 1..end])
                    }
                    "enum" | "trait" => {
                        let close = if code.get(end).is_some_and(|t| t.is_punct('{')) {
                            matching(code, end)
                        } else {
                            end
                        };
                        idents(&code[n + 1..close])
                    }
                    "const" | "static" => {
                        let eq = (n..end).find(|&j| code[j].is_punct('=')).unwrap_or(end);
                        idents(&code[n + 1..eq])
                    }
                    "type" => idents(&code[n + 1..end]),
                    _ => Vec::new(),
                };
                let what = format!("{} `{}`", kw.text, name.text);
                out.push(decl(t.line, what, &name.text, interface));
            }
            "use" => {
                let end = (k..code.len())
                    .find(|&j| code[j].is_punct(';'))
                    .unwrap_or(code.len());
                for (exposed, target) in use_leaves(&code[k + 1..end]) {
                    let what = format!("re-export `{exposed}`");
                    out.push(decl(t.line, what, &exposed, vec![target]));
                }
            }
            _ if next_is(code, k, ":") && !next_is(code, k + 1, ":") => {
                let end = field_end(code, k + 2);
                let mut d = decl(
                    t.line,
                    format!("field `{}`", kw.text),
                    &kw.text,
                    idents(&code[k + 2..end]),
                );
                d.parent = parent;
                out.push(d);
            }
            _ => {}
        }
    }
}

fn next_is(code: &[&Token], i: usize, s: &str) -> bool {
    code.get(i + 1).is_some_and(|t| t.text == s)
}

/// True when token `i` opens an item (follows `{`, `}`, `;`, an
/// attribute's `]`, or starts the file) rather than sitting in a type
/// (`-> impl Trait`).
fn at_item_start(code: &[&Token], i: usize) -> bool {
    i == 0 || ["{", "}", ";", "]"].contains(&code[i - 1].text.as_str())
}

/// Index of the `{` that ends the header starting at `i`, skipping
/// parentheses and brackets; `None` if a `;` comes first.
fn header_end(code: &[&Token], i: usize) -> Option<usize> {
    let end = header_end_or_semi(code, i);
    code.get(end).filter(|t| t.is_punct('{')).map(|_| end)
}

/// Index of the first `{` or `;` at parenthesis/bracket depth 0 from
/// `i` (or the stream's end).
fn header_end_or_semi(code: &[&Token], i: usize) -> usize {
    let mut depth = 0usize;
    for (j, t) in code.iter().enumerate().skip(i) {
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth = depth.saturating_sub(1);
        } else if depth == 0 && (t.is_punct('{') || t.is_punct(';')) {
            return j;
        }
    }
    code.len()
}

/// Index of the `}` matching the `{` at `open` (or the stream's end).
fn matching(code: &[&Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (j, t) in code.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    code.len()
}

/// End of a field's type starting at `i`: the `,` or closing `}` at
/// depth 0, counting `<`/`>` (but not the `>` of `->`) as brackets.
fn field_end(code: &[&Token], i: usize) -> usize {
    let mut depth = 0usize;
    for j in i..code.len() {
        let t = code[j];
        let arrow = t.is_punct('>') && code[j - 1].is_punct('-');
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') || t.is_punct('{') {
            depth += 1;
        } else if (t.is_punct(')') || t.is_punct(']') || t.is_punct('>') || t.is_punct('}'))
            && !arrow
        {
            if depth == 0 {
                return j;
            }
            depth -= 1;
        } else if depth == 0 && t.is_punct(',') {
            return j;
        }
    }
    code.len()
}

fn idents(code: &[&Token]) -> Vec<String> {
    code.iter()
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.clone())
        .collect()
}

/// The leaves of a use tree (the tokens after `use`, up to `;`), each
/// as `(exposed name, target name)`: `a::B` gives `(B, B)`, `a::C as
/// D` gives `(D, C)`, `a::{self}` gives `(a, a)`. Globs give nothing.
fn use_leaves(code: &[&Token]) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut prefixes: Vec<Option<String>> = Vec::new();
    let mut last: Option<String> = None;
    let mut rename: Option<String> = None;
    let mut after_as = false;
    let mut finish =
        |last: &mut Option<String>, rename: &mut Option<String>, pre: Option<&String>| {
            if let Some(target) = last.take() {
                let target = if target == "self" {
                    pre.cloned().unwrap_or(target)
                } else {
                    target
                };
                let exposed = rename.take().unwrap_or_else(|| target.clone());
                if exposed != "_" {
                    out.push((exposed, target));
                }
            }
            *rename = None;
        };
    for t in code {
        if t.kind == TokenKind::Ident {
            if t.text == "as" {
                after_as = true;
            } else if after_as {
                rename = Some(t.text.clone());
                after_as = false;
            } else {
                last = Some(t.text.clone());
            }
        } else if t.is_punct('{') {
            prefixes.push(last.take());
        } else if t.is_punct('*') {
            last = None;
        } else if t.is_punct(',') || t.is_punct('}') {
            let pre = prefixes.last().cloned().flatten();
            finish(&mut last, &mut rename, pre.as_ref());
            if t.is_punct('}') {
                prefixes.pop();
            }
        }
    }
    finish(&mut last, &mut rename, None);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn leaves(src: &str) -> Vec<(String, String)> {
        let tokens = lex(src);
        let code: Vec<&Token> = tokens.iter().collect();
        use_leaves(&code)
    }

    fn pair(a: &str, b: &str) -> (String, String) {
        (a.to_string(), b.to_string())
    }

    /// Names reported for a workspace of `(path, source)` files.
    fn reported(files: &[(&str, &str)]) -> Vec<String> {
        let lexed: Vec<LexedFile> = files
            .iter()
            .map(|(rel, src)| {
                let tokens = lex(src);
                let test_mask = crate::rules::mask_test_code(&tokens);
                LexedFile {
                    rel: rel.to_string(),
                    tokens,
                    test_mask,
                }
            })
            .collect();
        let mut names: Vec<String> = check(&lexed)
            .into_iter()
            .map(|(_, f)| f.message.split('`').nth(1).unwrap().to_string())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn interfaces_rustc_checks_keep_their_types_public() {
        let lib = "pub struct Public { pub(crate) x: u8 }\n\
                   pub struct Item;\n\
                   impl Iterator for Public { type Item = Item; }\n\
                   pub struct Field;\n\
                   pub struct Holder {\n    pub kept: Field,\n    pub spare: u8,\n}\n\
                   pub struct Built {\n    pub a: u8,\n    pub b: u8,\n}\n\
                   pub use inner::{Reexported, Unused};\n";
        let user =
            "fn f(h: Holder) { let _: Public; h.kept; Built { a: 1, ..base() }; Reexported; }";
        let got = reported(&[("crates/a/src/lib.rs", lib), ("crates/b/src/lib.rs", user)]);
        // `Item` (associated type), `Field` (a kept field's type) and
        // `b` (a field of a struct built with `..base`) stay public; so
        // does the re-export target `Reexported`.
        assert_eq!(got, ["Unused", "spare"]);
    }

    #[test]
    fn use_trees_yield_their_leaves() {
        assert_eq!(leaves("a::b::C"), [pair("C", "C")]);
        assert_eq!(leaves("a::C as D"), [pair("D", "C")]);
        assert_eq!(
            leaves("a::{B, c::{D, E as F}, g::*, h::{self}}"),
            [
                pair("B", "B"),
                pair("D", "D"),
                pair("F", "E"),
                pair("h", "h")
            ]
        );
        assert!(leaves("a::*").is_empty());
        assert!(leaves("a::Trait as _").is_empty());
    }

    #[test]
    fn ownership_follows_crate_layout() {
        let libs: BTreeSet<&str> = ["alpha"].into_iter().collect();
        assert_eq!(
            owner("crates/alpha/src/x/y.rs", &libs).as_deref(),
            Some("alpha")
        );
        assert_eq!(owner("crates/alpha/src/main.rs", &libs), None);
        assert_eq!(owner("crates/alpha/src/bin/tool.rs", &libs), None);
        assert_eq!(owner("crates/alpha/tests/t.rs", &libs), None);
        assert_eq!(owner("crates/beta/src/lib.rs", &libs), None);
        assert_eq!(owner("src/lib.rs", &libs), None);
    }
}
