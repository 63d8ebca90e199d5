//! Rule-engine tests: one positive and one suppressed hit per rule,
//! plus the suppression-hygiene meta-rules and test-region exemptions.

use dz_lint::rules::{FileMeta, UnwrapSite};
use dz_lint::{lint_source, Finding};

fn meta(rel_path: &str, crate_name: &str) -> FileMeta {
    FileMeta {
        rel_path: rel_path.to_string(),
        crate_name: crate_name.to_string(),
        is_test_file: false,
    }
}

fn serve(src: &str) -> (Vec<Finding>, Vec<UnwrapSite>) {
    lint_source(src, &meta("crates/serve/src/x.rs", "serve"))
}

fn rules_of(findings: &[Finding]) -> Vec<&str> {
    findings.iter().map(|f| f.rule.as_str()).collect()
}

// --- wall-clock -----------------------------------------------------------

#[test]
fn wall_clock_positive() {
    let (f, _) =
        serve("pub fn f() -> f64 { let t = std::time::Instant::now(); t.elapsed().as_secs_f64() }");
    assert_eq!(rules_of(&f), ["wall-clock"]);
}

#[test]
fn wall_clock_import_alone_is_fine() {
    let (f, _) = serve("use std::time::Instant;\npub fn f(t: Instant) -> Instant { t }\n");
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn wall_clock_system_time_positive() {
    let (f, _) = serve("pub fn f() { let _ = std::time::SystemTime::UNIX_EPOCH; }");
    assert_eq!(rules_of(&f), ["wall-clock"]);
}

#[test]
fn wall_clock_suppressed() {
    let (f, _) = serve(
        "pub fn f() {\n    // dz-lint: allow(wall-clock, \"measured on purpose\")\n    let _ = std::time::Instant::now();\n}\n",
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn wall_clock_allowed_in_bench_crate() {
    let (f, _) = lint_source(
        "pub fn f() { let _ = std::time::Instant::now(); }",
        &meta("crates/bench/src/x.rs", "bench"),
    );
    assert!(f.is_empty(), "{f:?}");
}

// --- hash-iter ------------------------------------------------------------

#[test]
fn hash_iter_method_positive() {
    let src = "use std::collections::HashMap;\npub fn f(warm: &HashMap<usize, u64>) -> u64 { warm.values().sum() }\n";
    let (f, _) = serve(src);
    assert_eq!(rules_of(&f), ["hash-iter"]);
}

#[test]
fn hash_iter_for_loop_positive() {
    let src = "use std::collections::HashSet;\npub fn f(ready: HashSet<u32>) -> u32 {\n    let mut n = 0;\n    for _x in &ready {\n        n += 1;\n    }\n    n\n}\n";
    let (f, _) = serve(src);
    assert_eq!(rules_of(&f), ["hash-iter"]);
    assert_eq!(f[0].line, 4);
}

#[test]
fn hash_iter_retain_on_mut_ref_positive() {
    let src = "use std::collections::HashMap;\npub fn f(m: &mut HashMap<u32, u32>) { m.retain(|_, v| *v > 0); }\n";
    let (f, _) = serve(src);
    assert_eq!(rules_of(&f), ["hash-iter"]);
}

#[test]
fn hash_point_ops_are_fine() {
    let src = "use std::collections::HashMap;\npub fn f(m: &HashMap<u32, u32>, k: u32) -> Option<u32> { m.get(&k).copied() }\n";
    let (f, _) = serve(src);
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn btree_iteration_is_fine() {
    let src = "use std::collections::BTreeMap;\npub fn f(m: &BTreeMap<u32, u32>) -> u32 { m.values().sum() }\n";
    let (f, _) = serve(src);
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn hash_iter_outside_sim_crates_is_fine() {
    let src = "use std::collections::HashMap;\npub fn f(m: &HashMap<u32, u32>) -> u32 { m.values().sum() }\n";
    let (f, _) = lint_source(src, &meta("crates/compress/src/x.rs", "compress"));
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn hash_iter_suppressed() {
    let src = "use std::collections::HashMap;\npub fn f(m: &HashMap<u32, u32>) -> u32 {\n    m.values().sum() // dz-lint: allow(hash-iter, \"sum is order-independent\")\n}\n";
    let (f, _) = serve(src);
    assert!(f.is_empty(), "{f:?}");
}

// --- float-eq -------------------------------------------------------------

#[test]
fn float_eq_positive_both_sides() {
    let (f, _) = serve("pub fn f(x: f64) -> bool { x == 0.5 }");
    assert_eq!(rules_of(&f), ["float-eq"]);
    let (f, _) = serve("pub fn f(x: f64) -> bool { 1.0 != x }");
    assert_eq!(rules_of(&f), ["float-eq"]);
    let (f, _) = serve("pub fn f(x: f32) -> bool { x == 2f32 }");
    assert_eq!(rules_of(&f), ["float-eq"]);
}

#[test]
fn int_and_var_comparisons_are_fine() {
    let (f, _) = serve("pub fn f(x: u32, y: u32) -> bool { x == y && x == 3 && x <= 4 }");
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn to_bits_comparison_is_fine() {
    let (f, _) = serve("pub fn f(x: f64, y: f64) -> bool { x.to_bits() == y.to_bits() }");
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn float_eq_suppressed() {
    let (f, _) =
        serve("pub fn f(x: f64) -> bool { x == 0.0 } // dz-lint: allow(float-eq, \"sentinel\")");
    assert!(f.is_empty(), "{f:?}");
}

// --- thread-spawn ---------------------------------------------------------

#[test]
fn thread_spawn_positive() {
    let (f, _) = serve("pub fn f() { std::thread::spawn(|| {}); }");
    assert_eq!(rules_of(&f), ["thread-spawn"]);
    let (f, _) = serve("pub fn f() { std::thread::scope(|_s| {}); }");
    assert_eq!(rules_of(&f), ["thread-spawn"]);
    // No library file is exempt, the page decoder included.
    let (f, _) = lint_source(
        "pub fn f() { std::thread::scope(|_s| {}); }",
        &meta("crates/lossless/src/page.rs", "lossless"),
    );
    assert_eq!(rules_of(&f), ["thread-spawn"]);
}

#[test]
fn thread_spawn_suppressed() {
    let src = "pub fn f() {\n    // dz-lint: allow(thread-spawn, \"joined immediately\")\n    std::thread::spawn(|| {});\n}\n";
    let (f, _) = serve(src);
    assert!(f.is_empty(), "{f:?}");
}

// --- bench-provenance -----------------------------------------------------

#[test]
fn bench_provenance_positive() {
    let (f, _) = serve("pub fn path() -> &'static str { \"BENCH_run.json\" }");
    assert_eq!(rules_of(&f), ["bench-provenance"]);
}

#[test]
fn bench_provenance_satisfied_by_call() {
    let src = "pub fn write() -> String { let head = json_provenance(\"fleet\"); format!(\"{head} BENCH_run.json\") }";
    let (f, _) = serve(src);
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn bench_provenance_suppressed_on_literal_line() {
    let src = "pub fn path() -> &'static str {\n    // dz-lint: allow(bench-provenance, \"constant only\")\n    \"BENCH_run.json\"\n}\n";
    let (f, _) = serve(src);
    assert!(f.is_empty(), "{f:?}");
}

// --- unwrap-budget sites --------------------------------------------------

#[test]
fn unwrap_sites_are_counted() {
    let src = "pub fn f(xs: &[u32]) -> u32 {\n    let a = *xs.first().unwrap();\n    let b: u32 = \"3\".parse().expect(\"parse\");\n    if a == b { panic!(\"boom\"); }\n    a\n}\n";
    let (f, sites) = serve(src);
    assert!(f.is_empty(), "{f:?}");
    let whats: Vec<&str> = sites.iter().map(|s| s.what).collect();
    assert_eq!(whats, ["unwrap", "expect", "panic!"]);
}

#[test]
fn unwrap_or_and_field_names_do_not_count() {
    let src = "pub fn f(x: Option<u32>, unwrap: u32) -> u32 { x.unwrap_or(unwrap) }";
    let (_, sites) = serve(src);
    assert!(sites.is_empty(), "{sites:?}");
}

#[test]
fn unwrap_in_test_region_does_not_count() {
    let src = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n";
    let (_, sites) = serve(src);
    assert!(sites.is_empty(), "{sites:?}");
}

#[test]
fn unwrap_suppression_removes_the_site() {
    let src = "pub fn f(xs: &[u32]) -> u32 {\n    *xs.first().unwrap() // dz-lint: allow(unwrap-budget, \"non-empty by construction\")\n}\n";
    let (f, sites) = serve(src);
    assert!(f.is_empty(), "{f:?}");
    assert!(sites.is_empty(), "{sites:?}");
}

// --- suppression hygiene --------------------------------------------------

#[test]
fn unknown_rule_is_bad_suppression() {
    let (f, _) = serve("pub fn f() {} // dz-lint: allow(no-such-rule, \"x\")");
    assert_eq!(rules_of(&f), ["bad-suppression"]);
}

#[test]
fn missing_justification_is_bad_suppression() {
    let (f, _) = serve("pub fn f() {} // dz-lint: allow(float-eq)");
    assert_eq!(rules_of(&f), ["bad-suppression"]);
    let (f, _) = serve("pub fn f() {} // dz-lint: allow(float-eq, \"\")");
    assert_eq!(rules_of(&f), ["bad-suppression"]);
}

#[test]
fn unused_suppression_is_reported() {
    let (f, _) =
        serve("pub fn f(x: u32) -> u32 { x } // dz-lint: allow(float-eq, \"nothing here\")");
    assert_eq!(rules_of(&f), ["unused-suppression"]);
}

#[test]
fn mention_mid_comment_is_not_a_directive() {
    let (f, _) =
        serve("pub fn f() {} // suppress with dz-lint: allow(float-eq, \"why\") if needed");
    assert!(f.is_empty(), "{f:?}");
}

// --- test exemptions ------------------------------------------------------

#[test]
fn violations_in_cfg_test_are_exempt() {
    let src = "pub fn real() {}\n#[cfg(test)]\nmod tests {\n    fn t(x: f64) -> bool {\n        let _ = std::time::Instant::now();\n        x == 0.5\n    }\n}\n";
    let (f, _) = serve(src);
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn test_files_are_exempt_entirely() {
    let (f, sites) = lint_source(
        "fn t() { let _ = std::time::Instant::now(); Some(1).unwrap(); }",
        &FileMeta {
            rel_path: "crates/serve/tests/x.rs".to_string(),
            crate_name: "serve".to_string(),
            is_test_file: true,
        },
    );
    assert!(f.is_empty(), "{f:?}");
    assert!(sites.is_empty(), "{sites:?}");
}
