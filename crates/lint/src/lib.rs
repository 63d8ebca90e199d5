//! dz-lint — workspace determinism & accounting auditor.
//!
//! The simulator's headline claim is bit-identical reproducibility: the
//! fleet, cluster, and toppings suites pin `to_bits` checksums, and CI
//! diffs them on every push. That claim dies quietly the moment someone
//! iterates a `HashMap` inside replica state or compares two `f64`s
//! with `==`. dz-lint is the gate that keeps those mistakes from
//! landing: a hand-rolled lexer (no `syn` in this offline workspace)
//! strips comments, strings, and `#[cfg(test)]` regions, and a small
//! rule engine pattern-matches what remains.
//!
//! Rules: `wall-clock`, `hash-iter`, `float-eq`, `unwrap-budget`,
//! `thread-spawn`, `bench-provenance`, `dead-pub` — see [`rules`] for
//! the full taxonomy. Any individual site can be suppressed with a
//! justification:
//!
//! ```text
//! // dz-lint: allow(wall-clock, "decode throughput is measured in real time by design")
//! let t0 = Instant::now();
//! ```
//!
//! A suppression on its own line covers the next code line; a trailing
//! suppression covers its own line. Unknown rules, missing
//! justifications, and suppressions that match nothing are themselves
//! diagnostics (`bad-suppression` / `unused-suppression`), so the
//! allow-list can never rot silently.

pub mod lexer;
pub mod rules;

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use lexer::LexedFile;
use rules::{FileMeta, PubItem, RawFinding, UnwrapSite, RULE_IDS};
use serde::value::{Number, Value};

/// Directory components never descended into.
const SKIP_DIRS: &[&str] = &["target", "vendor", "fixtures", ".git"];

/// Package sub-directories scanned per crate. Files outside `src/` are
/// test-classified (exempt from every rule except suppression hygiene).
const PKG_DIRS: &[&str] = &["src", "tests", "examples", "benches"];

/// One diagnostic, ready to print as `path:line: [rule] message`.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id (a [`RULE_IDS`] entry, `bad-suppression`, or
    /// `unused-suppression`).
    pub rule: String,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable diagnostic.
    pub message: String,
}

/// The result of linting a workspace.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, sorted by (path, line, rule).
    pub findings: Vec<Finding>,
    /// Unsuppressed unwrap/expect/panic! sites per crate.
    pub unwrap_counts: BTreeMap<String, usize>,
    /// Number of `.rs` files lexed.
    pub files_scanned: usize,
}

/// Lint configuration.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workspace root.
    pub root: PathBuf,
    /// Unwrap-budget file, relative to `root` (or absolute).
    pub budget_path: PathBuf,
    /// Rewrite the budget file from current counts instead of
    /// comparing against it.
    pub update_budget: bool,
}

impl Options {
    /// Defaults for a workspace rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Options {
        Options {
            root: root.into(),
            budget_path: PathBuf::from("ci/unwrap-budget.json"),
            update_budget: false,
        }
    }

    fn budget_abs(&self) -> PathBuf {
        if self.budget_path.is_absolute() {
            self.budget_path.clone()
        } else {
            self.root.join(&self.budget_path)
        }
    }
}

// ---------------------------------------------------------------------------
// Suppressions.
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct Suppression {
    rule: String,
    /// Code line the suppression covers.
    target_line: usize,
    /// Line the comment itself sits on.
    comment_line: usize,
    used: bool,
}

/// Parses one comment body. `None` when the comment is not a dz-lint
/// directive at all; `Some(Err(reason))` when it tries and fails.
///
/// The directive must be the entire comment (`// dz-lint: …`), so docs
/// that merely *mention* the syntax mid-sentence are never parsed.
fn parse_directive(text: &str) -> Option<Result<(String, String), String>> {
    // Strip the comment markers the lexer preserves: `//`, `///`,
    // `//!`, or `/*` — the directive marker must come right after.
    let t = text.trim_start();
    let t = t.strip_prefix("/*").unwrap_or(t);
    let t = t.strip_prefix("//").unwrap_or(t);
    let t = t.strip_prefix(['!', '/']).unwrap_or(t);
    let rest = t.trim_start().strip_prefix("dz-lint:")?;
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix("allow(") else {
        return Some(Err("expected `allow(<rule>, \"<justification>\")`".into()));
    };
    let Some((rule, rest)) = rest.split_once(',') else {
        return Some(Err(
            "missing justification: expected `allow(<rule>, \"<justification>\")`".into(),
        ));
    };
    let rule = rule.trim().to_string();
    if !RULE_IDS.contains(&rule.as_str()) {
        return Some(Err(format!(
            "unknown rule `{rule}` (known: {})",
            RULE_IDS.join(", ")
        )));
    }
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('"') else {
        return Some(Err("justification must be a quoted string".into()));
    };
    let Some((justification, rest)) = rest.split_once('"') else {
        return Some(Err("unterminated justification string".into()));
    };
    if justification.trim().is_empty() {
        return Some(Err("justification must not be empty".into()));
    }
    if !rest.trim_start().starts_with(')') {
        return Some(Err("missing closing `)`".into()));
    }
    Some(Ok((rule, justification.to_string())))
}

/// Extracts suppressions from a lexed file's comments and resolves each
/// to the code line it covers. Malformed directives become findings.
fn collect_suppressions(
    lexed: &LexedFile,
    path: &str,
    findings: &mut Vec<Finding>,
) -> Vec<Suppression> {
    let n_lines = lexed.code.lines().count();
    // A line can carry a finding if it has code, or if a string literal
    // starts there (bench-provenance anchors on the literal, whose line
    // is blank in the code view).
    let lit_lines: std::collections::BTreeSet<usize> =
        lexed.strings.iter().map(|s| s.line).collect();
    let coverable = |l: usize| !lexed.code_line(l).trim().is_empty() || lit_lines.contains(&l);
    let mut out = Vec::new();
    for c in &lexed.comments {
        match parse_directive(&c.text) {
            None => {}
            Some(Err(reason)) => findings.push(Finding {
                rule: "bad-suppression".into(),
                path: path.to_string(),
                line: c.line,
                message: format!("malformed dz-lint directive: {reason}"),
            }),
            Some(Ok((rule, _justification))) => {
                // Trailing comment → covers its own line; standalone →
                // covers the next coverable line.
                let mut target = c.line;
                if !coverable(target) {
                    target += 1;
                    while target <= n_lines && !coverable(target) {
                        target += 1;
                    }
                }
                out.push(Suppression {
                    rule,
                    target_line: target,
                    comment_line: c.line,
                    used: false,
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Workspace walking.
// ---------------------------------------------------------------------------

/// Lists the `.rs` files of the workspace in sorted order with their
/// crate attribution.
fn collect_files(root: &Path) -> io::Result<Vec<(PathBuf, FileMeta)>> {
    let mut out = Vec::new();
    collect_package(root, root, "deltazip-repro", &mut out)?;
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut names: Vec<String> = fs::read_dir(&crates)?
            .filter_map(|e| e.ok())
            .filter(|e| e.path().is_dir())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        for name in names {
            collect_package(root, &crates.join(&name), &name, &mut out)?;
        }
    }
    Ok(out)
}

fn collect_package(
    root: &Path,
    pkg: &Path,
    crate_name: &str,
    out: &mut Vec<(PathBuf, FileMeta)>,
) -> io::Result<()> {
    for sub in PKG_DIRS {
        let dir = pkg.join(sub);
        if !dir.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        walk_rs(&dir, &mut files)?;
        files.sort();
        for f in files {
            let rel = f
                .strip_prefix(root)
                .unwrap_or(&f)
                .to_string_lossy()
                .replace('\\', "/");
            out.push((
                f.clone(),
                FileMeta {
                    rel_path: rel,
                    crate_name: crate_name.to_string(),
                    is_test_file: *sub != "src",
                },
            ));
        }
    }
    Ok(())
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_str()) {
                walk_rs(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Budget file.
// ---------------------------------------------------------------------------

/// Serializes the budget as stable, diff-friendly JSON.
pub fn budget_to_json(counts: &BTreeMap<String, usize>) -> String {
    let mut s = String::from("{\n  \"schema_version\": 1,\n");
    s.push_str(
        "  \"note\": \"unwrap/expect/panic! sites in non-test library code; \
         this file may only shrink — fix sites, then run dz-lint --update-budget\",\n",
    );
    s.push_str("  \"crates\": {\n");
    let n = counts.len();
    for (i, (name, count)) in counts.iter().enumerate() {
        let comma = if i + 1 == n { "" } else { "," };
        s.push_str(&format!("    \"{name}\": {count}{comma}\n"));
    }
    s.push_str("  }\n}\n");
    s
}

/// Parses a budget file into per-crate counts.
pub fn parse_budget(text: &str) -> Result<BTreeMap<String, usize>, String> {
    let value = Value::parse_json(text).map_err(|e| e.to_string())?;
    let crates = value
        .get("crates")
        .ok_or_else(|| "missing `crates` object".to_string())?;
    let Value::Object(pairs) = crates else {
        return Err("`crates` must be an object".into());
    };
    let mut out = BTreeMap::new();
    for (name, v) in pairs {
        let n = v
            .as_u64()
            .ok_or_else(|| format!("budget for `{name}` must be a non-negative integer"))?;
        out.insert(name.clone(), n as usize);
    }
    Ok(out)
}

fn check_budget(opts: &Options, counts: &BTreeMap<String, usize>, findings: &mut Vec<Finding>) {
    let rel = opts.budget_path.to_string_lossy().replace('\\', "/");
    let mut push = |message: String| {
        findings.push(Finding {
            rule: "unwrap-budget".into(),
            path: rel.clone(),
            line: 1,
            message,
        });
    };
    let text = match fs::read_to_string(opts.budget_abs()) {
        Ok(t) => t,
        Err(_) => {
            push(format!(
                "unwrap budget file `{rel}` is missing — create it with `dz-lint --update-budget`"
            ));
            return;
        }
    };
    let budget = match parse_budget(&text) {
        Ok(b) => b,
        Err(e) => {
            push(format!("unwrap budget file `{rel}` is invalid: {e}"));
            return;
        }
    };
    for (name, &count) in counts {
        match budget.get(name) {
            None => push(format!(
                "crate `{name}` has {count} unwrap/expect/panic! sites but no budget entry — \
                 add one via `dz-lint --update-budget`"
            )),
            Some(&b) if count > b => push(format!(
                "crate `{name}` has {count} unwrap/expect/panic! sites, over its budget of {b} — \
                 handle the error or annotate the site; the budget may only shrink"
            )),
            Some(&b) if count < b => push(format!(
                "crate `{name}` has {count} unwrap/expect/panic! sites, under its budget of {b} — \
                 lock in the improvement with `dz-lint --update-budget`"
            )),
            Some(_) => {}
        }
    }
    for name in budget.keys() {
        if !counts.contains_key(name) {
            push(format!(
                "budget lists unknown crate `{name}` — remove it via `dz-lint --update-budget`"
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// Entry points.
// ---------------------------------------------------------------------------

/// Lints one file's source text with the per-file rules. Exposed for
/// tests; [`lint_workspace`] is the real driver and the only one that
/// runs `dead-pub`.
// dz-lint: allow(dead-pub, "single-file entry point the rule tests and the dzbench source test lint through")
pub fn lint_source(src: &str, meta: &FileMeta) -> (Vec<Finding>, Vec<UnwrapSite>) {
    lint_lexed(&LexedFile::lex(src), meta, Vec::new())
}

/// Lints one lexed file: the per-file rules plus `extra` workspace-level
/// findings, all matched against the file's suppressions.
fn lint_lexed(
    lexed: &LexedFile,
    meta: &FileMeta,
    extra: Vec<RawFinding>,
) -> (Vec<Finding>, Vec<UnwrapSite>) {
    let (mut raw, mut sites) = rules::check_file(lexed, meta);
    raw.extend(extra);
    let mut findings = Vec::new();
    let mut sups = collect_suppressions(lexed, &meta.rel_path, &mut findings);

    let mut keep: Vec<RawFinding> = Vec::new();
    for f in raw {
        let hit = sups
            .iter_mut()
            .find(|s| s.rule == f.rule && s.target_line == f.line);
        match hit {
            Some(s) => s.used = true,
            None => keep.push(f),
        }
    }
    sites.retain(|site| {
        let hit = sups
            .iter_mut()
            .find(|s| s.rule == "unwrap-budget" && s.target_line == site.line);
        match hit {
            Some(s) => {
                s.used = true;
                false
            }
            None => true,
        }
    });
    for s in &sups {
        if !s.used && !lexed.is_test_line(s.target_line) && !meta.is_test_file {
            findings.push(Finding {
                rule: "unused-suppression".into(),
                path: meta.rel_path.clone(),
                line: s.comment_line,
                message: format!(
                    "dz-lint allow({}) matches no finding on line {} — remove it",
                    s.rule, s.target_line
                ),
            });
        }
    }
    findings.extend(keep.into_iter().map(|f| Finding {
        rule: f.rule.to_string(),
        path: meta.rel_path.clone(),
        line: f.line,
        message: f.message,
    }));
    (findings, sites)
}

/// Lints the whole workspace under `opts.root`, including the
/// unwrap-budget comparison (or rewrite, with
/// [`Options::update_budget`]).
pub fn lint_workspace(opts: &Options) -> io::Result<Report> {
    let mut report = Report::default();
    let mut files = Vec::new();
    for (path, meta) in collect_files(&opts.root)? {
        files.push((LexedFile::lex(&fs::read_to_string(&path)?), meta));
    }
    let mut dead = dead_pub_findings(&opts.root, &files)?;
    for (lexed, meta) in files {
        let extra = dead.remove(&meta.rel_path).unwrap_or_default();
        let (findings, sites) = lint_lexed(&lexed, &meta, extra);
        report.findings.extend(findings);
        report.files_scanned += 1;
        if !meta.is_test_file {
            *report.unwrap_counts.entry(meta.crate_name).or_insert(0) += sites.len();
        }
    }
    if opts.update_budget {
        fs::write(opts.budget_abs(), budget_to_json(&report.unwrap_counts))?;
    } else {
        check_budget(opts, &report.unwrap_counts, &mut report.findings);
    }
    report
        .findings
        .sort_by(|a, b| (&a.path, a.line, &a.rule).cmp(&(&b.path, b.line, &b.rule)));
    Ok(report)
}

/// Whether a file defines items `dead-pub` checks: library code under
/// `crates/*/src`, binaries excluded.
fn defines_pub_items(meta: &FileMeta) -> bool {
    !meta.is_test_file
        && meta.rel_path.starts_with("crates/")
        && !meta.rel_path.contains("/src/bin/")
}

/// Whether a file's code counts as a user of `pub` items: `src/` code,
/// binaries included, and examples. Tests and benches do not count.
fn uses_pub_items(meta: &FileMeta) -> bool {
    !meta.is_test_file
        || meta.rel_path.starts_with("examples/")
        || meta.rel_path.contains("/examples/")
}

/// Runs `dead-pub` over the workspace, keyed by file. The out-of-tree
/// `dzbench/src`, when present, counts as a user but is never linted.
fn dead_pub_findings(
    root: &Path,
    files: &[(LexedFile, FileMeta)],
) -> io::Result<BTreeMap<String, Vec<RawFinding>>> {
    let mut uses = BTreeMap::new();
    for (lexed, meta) in files {
        if uses_pub_items(meta) {
            rules::count_idents(lexed, &mut uses);
        }
    }
    let dzbench = root.join("dzbench/src");
    if dzbench.is_dir() {
        let mut paths = Vec::new();
        walk_rs(&dzbench, &mut paths)?;
        for path in paths {
            rules::count_idents(&LexedFile::lex(&fs::read_to_string(path)?), &mut uses);
        }
    }
    let items: Vec<(&str, Vec<PubItem>)> = files
        .iter()
        .filter(|(_, meta)| defines_pub_items(meta))
        .map(|(lexed, meta)| (meta.rel_path.as_str(), rules::pub_items(lexed)))
        .collect();
    let mut defs = BTreeMap::new();
    for item in items.iter().flat_map(|(_, items)| items) {
        *defs.entry(item.name.clone()).or_insert(0) += 1;
    }
    Ok(items
        .iter()
        .map(|(path, items)| (path.to_string(), rules::dead_pub(items, &uses, &defs)))
        .filter(|(_, found)| !found.is_empty())
        .collect())
}

/// Renders a report as machine-readable JSON (`--json`).
pub fn report_to_json(report: &Report) -> String {
    let findings = report
        .findings
        .iter()
        .map(|f| {
            Value::Object(vec![
                ("rule".to_string(), Value::Str(f.rule.clone())),
                ("path".to_string(), Value::Str(f.path.clone())),
                ("line".to_string(), Value::Num(Number::Int(f.line as i64))),
                ("message".to_string(), Value::Str(f.message.clone())),
            ])
        })
        .collect();
    let counts = report
        .unwrap_counts
        .iter()
        .map(|(k, &v)| (k.clone(), Value::Num(Number::Int(v as i64))))
        .collect();
    Value::Object(vec![
        ("schema_version".to_string(), Value::Num(Number::Int(1))),
        (
            "files_scanned".to_string(),
            Value::Num(Number::Int(report.files_scanned as i64)),
        ),
        (
            "finding_count".to_string(),
            Value::Num(Number::Int(report.findings.len() as i64)),
        ),
        ("findings".to_string(), Value::Array(findings)),
        ("unwrap_counts".to_string(), Value::Object(counts)),
    ])
    .to_json()
}
