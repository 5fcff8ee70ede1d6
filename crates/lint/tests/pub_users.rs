//! The `pub-without-outside-user` boundaries, pinned on a two-crate
//! workspace written to a temp dir: which uses keep a `pub` item quiet
//! and which leave it reported.

use seal_lint::rules::Rule;
use seal_lint::{lint_root, Options};
use std::path::PathBuf;
use std::process::Command;
use std::sync::OnceLock;

const ALPHA_LIB: &str = r#"//! Library whose items probe each boundary.

/// Called by crate beta: quiet.
pub fn used_by_beta() {}

/// Called only inside alpha: reported.
pub fn used_inside() {}

/// Called only by alpha's own binary: quiet.
pub fn used_by_main() {}

/// Called only by alpha's integration tests: quiet.
pub fn used_by_tests() {}

/// Named by beta only in a comment, a doc comment and a string: reported.
pub fn only_mentioned() {}

/// Named nowhere outside, but the return type of a kept fn: quiet.
pub struct Returned;

/// Called by crate beta: quiet, and keeps `Returned` public.
pub fn make() -> Returned {
    Returned
}

/// Crate-visible and unused outside: never reported.
pub(crate) fn crate_only() {
    used_inside();
}
"#;

const ALPHA_MAIN: &str = "fn main() {\n    alpha::used_by_main();\n}\n";

const ALPHA_TEST: &str = "#[test]\nfn t() {\n    alpha::used_by_tests();\n}\n";

const BETA_LIB: &str = r#"//! Names `only_mentioned` in its crate docs.

// only_mentioned in a plain comment.
/// Calls alpha; see `only_mentioned`.
pub fn beta_entry() -> &'static str {
    alpha::used_by_beta();
    let _ = alpha::make();
    "only_mentioned"
}
"#;

/// The workspace root, written once per test process (tests run in
/// parallel and must never read a half-written file).
fn workspace() -> PathBuf {
    static ROOT: OnceLock<PathBuf> = OnceLock::new();
    ROOT.get_or_init(|| {
        let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("pub-users");
        for (path, src) in [
            ("crates/alpha/src/lib.rs", ALPHA_LIB),
            ("crates/alpha/src/main.rs", ALPHA_MAIN),
            ("crates/alpha/tests/t.rs", ALPHA_TEST),
            ("crates/beta/src/lib.rs", BETA_LIB),
        ] {
            let file = root.join(path);
            std::fs::create_dir_all(file.parent().unwrap()).unwrap();
            std::fs::write(file, src).unwrap();
        }
        root
    })
    .clone()
}

/// `(path, item)` for every `pub-without-outside-user` finding.
fn reported() -> Vec<(String, String)> {
    lint_root(&workspace(), &Options::workspace())
        .unwrap()
        .into_iter()
        .filter(|f| f.rule == Rule::PubWithoutOutsideUser)
        .map(|f| {
            let item = f.message.split('`').nth(1).unwrap().to_string();
            (f.path, item)
        })
        .collect()
}

fn is_reported(item: &str) -> bool {
    reported().iter().any(|(_, i)| i == item)
}

#[test]
fn an_item_another_crate_uses_is_quiet() {
    assert!(!is_reported("used_by_beta"));
    assert!(!is_reported("make"));
}

#[test]
fn an_item_used_only_inside_its_crate_is_reported() {
    assert!(reported().contains(&("crates/alpha/src/lib.rs".into(), "used_inside".into())));
    // beta's own entry point has no user outside beta either.
    assert!(reported().contains(&("crates/beta/src/lib.rs".into(), "beta_entry".into())));
}

#[test]
fn the_packages_own_binary_and_tests_are_outside_users() {
    assert!(!is_reported("used_by_main"));
    assert!(!is_reported("used_by_tests"));
}

#[test]
fn comments_doc_comments_and_strings_are_not_uses() {
    assert!(is_reported("only_mentioned"));
}

#[test]
fn a_type_in_a_kept_signature_is_quiet() {
    assert!(!is_reported("Returned"));
}

#[test]
fn crate_visible_items_are_never_reported() {
    assert!(!is_reported("crate_only"));
    assert_eq!(reported().len(), 3, "{:?}", reported());
}

#[test]
fn json_output_is_byte_identical_across_runs() {
    let root = workspace();
    let run = || {
        Command::new(env!("CARGO_BIN_EXE_seal-lint"))
            .args(["--root", root.to_str().unwrap(), "--format", "json"])
            .output()
            .unwrap()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.status.code(), Some(1), "findings drive the exit code");
    assert_eq!(a.stdout, b.stdout);
    let text = String::from_utf8(a.stdout).unwrap();
    assert!(
        text.contains("\"rule\":\"pub-without-outside-user\""),
        "{text}"
    );
}
