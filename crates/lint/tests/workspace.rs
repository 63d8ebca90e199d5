//! Workspace-level tests over the checked-in fixture corpora: the
//! seeded tree must trip every rule (CI additionally asserts the
//! binary's nonzero exit over the same tree), and the clean twin —
//! same constructs, each suppressed — must come back spotless.

use std::collections::BTreeMap;

use dz_lint::{budget_to_json, lint_workspace, parse_budget, report_to_json, Options};

fn fixture(name: &str) -> Options {
    Options::new(format!(
        "{}/tests/fixtures/{name}",
        env!("CARGO_MANIFEST_DIR")
    ))
}

#[test]
fn seeded_fixture_trips_every_rule() {
    let report = lint_workspace(&fixture("seeded")).expect("lint seeded fixture");
    assert_eq!(report.files_scanned, 1);
    let rules: Vec<&str> = report.findings.iter().map(|f| f.rule.as_str()).collect();
    for expected in [
        "wall-clock",
        "hash-iter",
        "float-eq",
        "unwrap-budget",
        "thread-spawn",
        "bench-provenance",
        "dead-pub",
    ] {
        assert!(rules.contains(&expected), "missing {expected} in {rules:?}");
    }
    // Findings are sorted and carry real line numbers.
    let mut sorted = report.findings.clone();
    sorted.sort_by(|a, b| (&a.path, a.line, &a.rule).cmp(&(&b.path, b.line, &b.rule)));
    assert_eq!(
        report
            .findings
            .iter()
            .map(|f| (f.path.clone(), f.line))
            .collect::<Vec<_>>(),
        sorted
            .iter()
            .map(|f| (f.path.clone(), f.line))
            .collect::<Vec<_>>(),
    );
    assert!(report.findings.iter().all(|f| f.line >= 1));
    // The JSON view carries the same findings.
    let json = report_to_json(&report);
    assert!(json.contains("\"wall-clock\""));
    assert!(json.contains("\"finding_count\""));
}

#[test]
fn clean_fixture_is_spotless() {
    let report = lint_workspace(&fixture("clean")).expect("lint clean fixture");
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    // The suppressed unwrap is excluded from the tally, matching the
    // zero budget.
    assert_eq!(report.unwrap_counts.get("serve"), Some(&0));
}

#[test]
fn budget_roundtrips_through_json() {
    let mut counts = BTreeMap::new();
    counts.insert("serve".to_string(), 31usize);
    counts.insert("store".to_string(), 0usize);
    let text = budget_to_json(&counts);
    assert_eq!(parse_budget(&text).expect("parse"), counts);
}

#[test]
fn workspace_budget_matches_reality() {
    // The real repo root: dz-lint --check must stay green, and the
    // checked-in budget must match the live counts exactly (the ratchet
    // both directions).
    let root = format!("{}/../..", env!("CARGO_MANIFEST_DIR"));
    let report = lint_workspace(&Options::new(&root)).expect("lint workspace");
    assert!(
        report.findings.is_empty(),
        "workspace has lint findings:\n{}",
        report
            .findings
            .iter()
            .map(|f| format!("{}:{}: [{}] {}", f.path, f.line, f.rule, f.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

// --- dead-pub -------------------------------------------------------------

/// Writes `files` (workspace-relative path, contents) into a fresh tree
/// and returns its `dead-pub` and suppression-hygiene findings as
/// `(rule, path, message)`.
fn dead_pub_findings(tag: &str, files: &[(&str, &str)]) -> Vec<(String, String, String)> {
    let root = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("dead-pub-{tag}"));
    std::fs::remove_dir_all(&root).ok();
    for (rel, src) in files {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().expect("file has a parent")).expect("mkdir");
        std::fs::write(&path, src).expect("write fixture file");
    }
    let report = lint_workspace(&Options::new(&root)).expect("lint tree");
    std::fs::remove_dir_all(&root).ok();
    report
        .findings
        .into_iter()
        .filter(|f| f.rule != "unwrap-budget")
        .map(|f| (f.rule, f.path, f.message))
        .collect()
}

#[test]
fn dead_pub_flags_an_item_only_its_own_tests_use() {
    let found = dead_pub_findings(
        "own-tests",
        &[
            (
                "crates/a/src/lib.rs",
                "pub fn lonely() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        super::lonely();\n    }\n}\n",
            ),
            ("crates/a/tests/t.rs", "#[test]\nfn t() {\n    a::lonely();\n}\n"),
        ],
    );
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].0, "dead-pub");
    assert_eq!(found[0].1, "crates/a/src/lib.rs");
    assert!(found[0].2.contains("`pub fn lonely`"), "{found:?}");
}

#[test]
fn dead_pub_accepts_a_user_in_another_crate() {
    let found = dead_pub_findings(
        "cross-crate",
        &[
            ("crates/a/src/lib.rs", "pub struct Shared;\n"),
            (
                "crates/b/src/lib.rs",
                "pub(crate) fn caller() -> a::Shared {\n    a::Shared\n}\n",
            ),
        ],
    );
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn dead_pub_reads_dzbench_as_a_user() {
    let files = [
        ("crates/a/src/lib.rs", "pub const LIMIT: usize = 4;\n"),
        (
            "dzbench/src/main.rs",
            "fn main() {\n    let _ = a::LIMIT;\n}\n",
        ),
    ];
    assert!(dead_pub_findings("dzbench", &files).is_empty());
    // Without the dzbench user the same constant is dead.
    let found = dead_pub_findings("no-dzbench", &files[..1]);
    assert!(found[0].2.contains("`pub const LIMIT`"), "{found:?}");
}

#[test]
fn dead_pub_ignores_re_exports() {
    let found = dead_pub_findings(
        "re-export",
        &[(
            "crates/a/src/lib.rs",
            "pub mod inner {\n    pub fn exported() {}\n}\npub use inner::exported;\n",
        )],
    );
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].2.contains("`pub fn exported`"), "{found:?}");
}

#[test]
fn dead_pub_skips_trait_impl_methods() {
    let found = dead_pub_findings(
        "trait-impl",
        &[
            (
                "crates/a/src/lib.rs",
                "pub struct Dog;\nimpl std::fmt::Display for Dog {\n    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {\n        write!(f, \"dog\")\n    }\n}\n",
            ),
            (
                "crates/a/src/bin/main.rs",
                "fn main() {\n    println!(\"{}\", a::Dog);\n}\n",
            ),
        ],
    );
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn dead_pub_honours_a_justified_allow_and_reports_an_unused_one() {
    let found = dead_pub_findings(
        "allow",
        &[
            (
                "crates/a/src/lib.rs",
                "// dz-lint: allow(dead-pub, \"reference the tests compare against\")\npub fn reference() {}\n\n// dz-lint: allow(dead-pub, \"stale\")\npub fn used() {}\n",
            ),
            ("crates/a/src/bin/main.rs", "fn main() {\n    a::used();\n}\n"),
        ],
    );
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].0, "unused-suppression");
    assert!(found[0].2.contains("allow(dead-pub)"), "{found:?}");
}
