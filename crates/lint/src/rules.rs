//! The dz-lint rule set. Every rule pattern-matches the blanked code
//! view a [`LexedFile`] produces, so comments
//! and string/char literals can never trigger a diagnostic, and code in
//! `#[cfg(test)]` / `mod tests` regions (or whole files under `tests/`,
//! `benches/`, `examples/`) is exempt — test code may time, panic, and
//! hash freely.
//!
//! | rule | forbids | where |
//! |------|---------|-------|
//! | `wall-clock` | `Instant::now` / `SystemTime` | everywhere except `crates/bench` |
//! | `hash-iter` | iterating `HashMap` / `HashSet` | sim-state crates (serve, store, gpusim, workload, trace) |
//! | `float-eq` | `==` / `!=` against float literals | sim-state crates |
//! | `unwrap-budget` | `.unwrap()` / `.expect()` / `panic!` growth | all library code, vs `ci/unwrap-budget.json` |
//! | `thread-spawn` | `thread::spawn` / `thread::scope` | all library code |
//! | `bench-provenance` | writing `BENCH_*.json` without `json_provenance` | all library code |
//! | `dead-pub` | `pub` items no non-test code names outside `use` lines | library `crates/*/src` (whole-workspace pass) |
//!
//! Every rule but `dead-pub` looks at one file at a time; `dead-pub`
//! needs the whole tree, so [`crate::lint_workspace`] runs it.
//!
//! Any individual site can be suppressed with
//! `// dz-lint: allow(<rule>, "<justification>")` on or above the line.

use std::collections::BTreeMap;

use crate::lexer::{word_at, LexedFile};

/// Every suppressible rule id, in diagnostic order.
pub const RULE_IDS: &[&str] = &[
    "wall-clock",
    "hash-iter",
    "float-eq",
    "unwrap-budget",
    "thread-spawn",
    "bench-provenance",
    "dead-pub",
];

/// Crates whose simulation state must stay iteration-order- and
/// float-comparison-deterministic: these feed the `to_bits` differential
/// suites and golden pins (cluster pins, toppings/legacy,
/// traced/untraced chaos).
pub const SIM_STATE_CRATES: &[&str] = &["serve", "store", "gpusim", "workload", "trace"];

/// The one crate allowed to read wall clocks freely: the bench harness
/// measures real time by design.
pub const WALL_CLOCK_CRATES: &[&str] = &["bench"];

/// Where a file sits in the workspace, for rule scoping.
#[derive(Debug, Clone)]
pub struct FileMeta {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// Crate directory name under `crates/` (`"root"` for the umbrella
    /// package).
    pub crate_name: String,
    /// Whole-file test code: under a `tests/`, `benches/`, or
    /// `examples/` directory.
    pub is_test_file: bool,
}

/// One rule hit before suppression matching.
#[derive(Debug, Clone)]
pub struct RawFinding {
    /// Rule id (an entry of [`RULE_IDS`]).
    pub rule: &'static str,
    /// 1-based source line.
    pub line: usize,
    /// Human-readable diagnostic.
    pub message: String,
}

/// One unwrap/expect/panic site in library code (fed to the budget
/// check rather than reported individually).
#[derive(Debug, Clone)]
pub struct UnwrapSite {
    /// 1-based source line.
    pub line: usize,
    /// Which macro/method: `unwrap`, `expect`, or `panic!`.
    pub what: &'static str,
}

/// Runs every per-file rule, returning findings plus the unwrap sites
/// for the crate-level budget tally.
pub fn check_file(lexed: &LexedFile, meta: &FileMeta) -> (Vec<RawFinding>, Vec<UnwrapSite>) {
    let mut findings = Vec::new();
    let mut unwraps = Vec::new();
    if meta.is_test_file {
        return (findings, unwraps);
    }
    let exempt = |line: usize| lexed.is_test_line(line);

    wall_clock(lexed, meta, &exempt, &mut findings);
    hash_iter(lexed, meta, &exempt, &mut findings);
    float_eq(lexed, meta, &exempt, &mut findings);
    thread_spawn(lexed, &exempt, &mut findings);
    bench_provenance(lexed, meta, &exempt, &mut findings);
    unwrap_sites(lexed, &exempt, &mut unwraps);
    (findings, unwraps)
}

// ---------------------------------------------------------------------------
// Scan helpers over the code view.
// ---------------------------------------------------------------------------

/// Byte positions of `word` in `code` with identifier boundaries.
fn word_positions(code: &str, word: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(off) = code[from..].find(word) {
        let i = from + off;
        if word_at(code, i, word) {
            out.push(i);
        }
        from = i + word.len();
    }
    out
}

fn skip_ws(bytes: &[u8], mut i: usize) -> usize {
    while i < bytes.len() && (bytes[i] as char).is_whitespace() {
        i += 1;
    }
    i
}

fn skip_ws_back(bytes: &[u8], mut i: usize) -> usize {
    // Returns the index just past the last non-ws byte before `i`.
    while i > 0 && (bytes[i - 1] as char).is_whitespace() {
        i -= 1;
    }
    i
}

/// After the word at `i` (length `len`), does `.method(` follow for one
/// of `methods` (whitespace/newlines allowed between tokens)? Returns
/// the matched method.
fn method_call_after(code: &str, i: usize, len: usize, methods: &[&str]) -> Option<&'static str> {
    const KNOWN: &[&str] = &[
        "iter",
        "iter_mut",
        "keys",
        "values",
        "values_mut",
        "drain",
        "retain",
        "into_iter",
        "into_keys",
        "into_values",
    ];
    let bytes = code.as_bytes();
    let mut j = skip_ws(bytes, i + len);
    if bytes.get(j) != Some(&b'.') {
        return None;
    }
    j = skip_ws(bytes, j + 1);
    for m in methods {
        if word_at(code, j, m) {
            let k = skip_ws(bytes, j + m.len());
            if bytes.get(k) == Some(&b'(') {
                return KNOWN.iter().find(|k| *k == m).copied();
            }
        }
    }
    None
}

/// The identifier ending just before non-ws position `end` (exclusive),
/// if any.
fn ident_ending_at(code: &str, end: usize) -> Option<&str> {
    let bytes = code.as_bytes();
    let mut start = end;
    while start > 0 {
        let c = bytes[start - 1] as char;
        if c.is_alphanumeric() || c == '_' {
            start -= 1;
        } else {
            break;
        }
    }
    (start < end && !(bytes[start] as char).is_ascii_digit()).then(|| &code[start..end])
}

// ---------------------------------------------------------------------------
// wall-clock
// ---------------------------------------------------------------------------

fn wall_clock(
    lexed: &LexedFile,
    meta: &FileMeta,
    exempt: &dyn Fn(usize) -> bool,
    out: &mut Vec<RawFinding>,
) {
    if WALL_CLOCK_CRATES.contains(&meta.crate_name.as_str()) {
        return;
    }
    let code = &lexed.code;
    let bytes = code.as_bytes();
    for i in word_positions(code, "Instant") {
        // Only the clock read is a violation; `use std::time::Instant`
        // or an `Instant` in a type position is inert.
        let mut j = skip_ws(bytes, i + "Instant".len());
        if !code[j..].starts_with("::") {
            continue;
        }
        j = skip_ws(bytes, j + 2);
        if word_at(code, j, "now") {
            let line = lexed.line_of(i);
            if !exempt(line) {
                out.push(RawFinding {
                    rule: "wall-clock",
                    line,
                    message: "Instant::now() reads the wall clock; simulation code must use \
                              the simulated clock (crates/bench and annotated measurement \
                              sites only)"
                        .into(),
                });
            }
        }
    }
    for i in word_positions(code, "SystemTime") {
        let line = lexed.line_of(i);
        if !exempt(line) {
            out.push(RawFinding {
                rule: "wall-clock",
                line,
                message: "SystemTime is wall-clock state; simulation results must not depend \
                          on real time"
                    .into(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// hash-iter
// ---------------------------------------------------------------------------

/// Collects identifiers bound to `HashMap` / `HashSet` in this file:
/// `name: [&mut] [std::collections::]HashMap<…>` declarations (fields,
/// params, lets) and `name = HashMap::new()`-style initializations.
fn hash_bound_idents(code: &str) -> Vec<String> {
    let bytes = code.as_bytes();
    let mut idents: Vec<String> = Vec::new();
    for word in ["HashMap", "HashSet"] {
        for i in word_positions(code, word) {
            // Walk backward over an optional `std :: collections ::`
            // path prefix and `&`/`&mut` reference noise, then expect
            // `:` (type ascription) or `=` (assignment), then the
            // identifier. Wrapped types (`Option<HashMap<…>>`) are
            // deliberately NOT matched — only direct bindings.
            let mut end = skip_ws_back(bytes, i);
            for seg in ["::", "collections", "::", "std"] {
                if code[..end].ends_with(seg) {
                    end = skip_ws_back(bytes, end - seg.len());
                }
            }
            loop {
                if end > 0 && bytes[end - 1] == b'&' {
                    end = skip_ws_back(bytes, end - 1);
                    continue;
                }
                if code[..end].ends_with("mut") && word_at(code, end - 3, "mut") {
                    end = skip_ws_back(bytes, end - 3);
                    continue;
                }
                break;
            }
            if end == 0 {
                continue;
            }
            let sep = bytes[end - 1];
            if sep != b':' && sep != b'=' {
                continue;
            }
            if sep == b':' && end >= 2 && bytes[end - 2] == b':' {
                continue; // a `::` path, not a type ascription
            }
            if sep == b'=' && end >= 2 && matches!(bytes[end - 2], b'=' | b'!' | b'<' | b'>') {
                continue; // comparison, not assignment
            }
            let j = skip_ws_back(bytes, end - 1);
            if let Some(name) = ident_ending_at(code, j) {
                if name != "mut" && name != "let" && !idents.iter().any(|n| n == name) {
                    idents.push(name.to_string());
                }
            }
        }
    }
    idents
}

fn hash_iter(
    lexed: &LexedFile,
    meta: &FileMeta,
    exempt: &dyn Fn(usize) -> bool,
    out: &mut Vec<RawFinding>,
) {
    if !SIM_STATE_CRATES.contains(&meta.crate_name.as_str()) {
        return;
    }
    let code = &lexed.code;
    let bytes = code.as_bytes();
    const ITER_METHODS: &[&str] = &[
        "iter",
        "iter_mut",
        "keys",
        "values",
        "values_mut",
        "drain",
        "retain",
        "into_iter",
        "into_keys",
        "into_values",
    ];
    for name in hash_bound_idents(code) {
        for i in word_positions(code, &name) {
            let line = lexed.line_of(i);
            if exempt(line) {
                continue;
            }
            if let Some(m) = method_call_after(code, i, name.len(), ITER_METHODS) {
                out.push(RawFinding {
                    rule: "hash-iter",
                    line,
                    message: format!(
                        "`{name}.{m}()` iterates a Hash{{Map,Set}} in simulation state — \
                         iteration order is nondeterministic; use BTreeMap/BTreeSet or \
                         sort explicitly"
                    ),
                });
                continue;
            }
            // `for x in &name {` / `for x in name {` — direct container
            // iteration without a method call.
            let after = skip_ws(bytes, i + name.len());
            if bytes.get(after) == Some(&b'{') {
                let before = skip_ws_back(bytes, i);
                let mut j = before;
                if j > 0 && (bytes[j - 1] == b'&' || code[..j].ends_with("mut")) {
                    if code[..j].ends_with("mut") {
                        j = skip_ws_back(bytes, j - 3);
                    }
                    if j > 0 && bytes[j - 1] == b'&' {
                        j = skip_ws_back(bytes, j - 1);
                    }
                }
                if code[..j].ends_with("in") && word_at(code, j - 2, "in") {
                    out.push(RawFinding {
                        rule: "hash-iter",
                        line,
                        message: format!(
                            "`for … in {name}` iterates a Hash{{Map,Set}} in simulation \
                             state — iteration order is nondeterministic; use \
                             BTreeMap/BTreeSet or sort explicitly"
                        ),
                    });
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// float-eq
// ---------------------------------------------------------------------------

/// Is the token ending at `end` (exclusive) a float literal (`0.5`,
/// `1.`, `1.0f64`, `2f32`)?
fn float_lit_ending_at(code: &str, end: usize) -> bool {
    let bytes = code.as_bytes();
    let mut start = end;
    while start > 0 {
        let c = bytes[start - 1] as char;
        if c.is_alphanumeric() || c == '_' || c == '.' {
            start -= 1;
        } else {
            break;
        }
    }
    is_float_lit(&code[start..end])
}

/// Is the token starting at `start` a float literal?
fn float_lit_starting_at(code: &str, start: usize) -> bool {
    let bytes = code.as_bytes();
    let mut end = start;
    while end < bytes.len() {
        let c = bytes[end] as char;
        if c.is_alphanumeric() || c == '_' || c == '.' {
            end += 1;
        } else {
            break;
        }
    }
    is_float_lit(&code[start..end])
}

fn is_float_lit(tok: &str) -> bool {
    if tok.is_empty() || !tok.starts_with(|c: char| c.is_ascii_digit()) {
        return false;
    }
    let has_dot = tok.contains('.');
    let has_suffix = tok.ends_with("f32") || tok.ends_with("f64");
    // Reject method-call chains picked up by the dot scan (`1.0.to_bits`
    // never reaches here — to_bits breaks at the `(` — but `1.x` would).
    let numeric = tok
        .chars()
        .all(|c| c.is_ascii_digit() || c == '.' || c == '_' || c == 'f' || c == '3' || c == '2');
    (has_dot || has_suffix) && numeric
}

fn float_eq(
    lexed: &LexedFile,
    meta: &FileMeta,
    exempt: &dyn Fn(usize) -> bool,
    out: &mut Vec<RawFinding>,
) {
    if !SIM_STATE_CRATES.contains(&meta.crate_name.as_str()) {
        return;
    }
    let code = &lexed.code;
    let bytes = code.as_bytes();
    let mut i = 0usize;
    while i + 1 < bytes.len() {
        let two = &code[i..i + 2];
        let is_eq = two == "==" || two == "!=";
        if !is_eq {
            i += 1;
            continue;
        }
        // Not part of `===`? (not Rust), `<=`, `>=`, `!=` already ok.
        let prev = if i > 0 { bytes[i - 1] } else { b' ' };
        let next = bytes.get(i + 2).copied().unwrap_or(b' ');
        if matches!(prev, b'=' | b'<' | b'>' | b'!') || next == b'=' {
            i += 2;
            continue;
        }
        let lhs = float_lit_ending_at(code, skip_ws_back(bytes, i));
        let rhs = float_lit_starting_at(code, skip_ws(bytes, i + 2));
        if lhs || rhs {
            let line = lexed.line_of(i);
            if !exempt(line) {
                out.push(RawFinding {
                    rule: "float-eq",
                    line,
                    message: format!(
                        "`{two}` against a float literal is a lossy comparison in \
                         simulation state; compare via `to_bits()` or an explicit \
                         epsilon/ordering"
                    ),
                });
            }
        }
        i += 2;
    }
}

// ---------------------------------------------------------------------------
// thread-spawn
// ---------------------------------------------------------------------------

fn thread_spawn(lexed: &LexedFile, exempt: &dyn Fn(usize) -> bool, out: &mut Vec<RawFinding>) {
    let code = &lexed.code;
    let bytes = code.as_bytes();
    for i in word_positions(code, "thread") {
        let mut j = skip_ws(bytes, i + "thread".len());
        if !code[j..].starts_with("::") {
            continue;
        }
        j = skip_ws(bytes, j + 2);
        let which = if word_at(code, j, "spawn") {
            "spawn"
        } else if word_at(code, j, "scope") {
            "scope"
        } else {
            continue;
        };
        let line = lexed.line_of(i);
        if !exempt(line) {
            out.push(RawFinding {
                rule: "thread-spawn",
                line,
                message: format!(
                    "`thread::{which}` in library code — library code runs on the \
                     calling thread, and thread scheduling must never touch \
                     simulation state"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// bench-provenance
// ---------------------------------------------------------------------------

fn bench_provenance(
    lexed: &LexedFile,
    meta: &FileMeta,
    exempt: &dyn Fn(usize) -> bool,
    out: &mut Vec<RawFinding>,
) {
    let _ = meta;
    let has_provenance = !word_positions(&lexed.code, "json_provenance").is_empty();
    if has_provenance {
        return;
    }
    for lit in &lexed.strings {
        if lit.text.contains("BENCH_") && lit.text.contains(".json") && !exempt(lit.line) {
            let shown: String = lit.text.chars().take(48).collect();
            out.push(RawFinding {
                rule: "bench-provenance",
                line: lit.line,
                message: format!(
                    // dz-lint: allow(bench-provenance, "the diagnostic text itself, not an artifact writer")
                    "mentions `{}` but never calls `json_provenance` — every BENCH_*.json \
                     artifact must open with schema_version + experiment + config provenance",
                    shown.replace('\n', " ")
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// unwrap-budget sites
// ---------------------------------------------------------------------------

fn unwrap_sites(lexed: &LexedFile, exempt: &dyn Fn(usize) -> bool, out: &mut Vec<UnwrapSite>) {
    let code = &lexed.code;
    let bytes = code.as_bytes();
    for (word, what) in [("unwrap", "unwrap"), ("expect", "expect")] {
        for i in word_positions(code, word) {
            // Must be a method call: `.unwrap(` / `.expect(`, so that
            // `unwrap_or` / field names never count.
            let before = skip_ws_back(bytes, i);
            if before == 0 || bytes[before - 1] != b'.' {
                continue;
            }
            let after = skip_ws(bytes, i + word.len());
            if bytes.get(after) != Some(&b'(') {
                continue;
            }
            let line = lexed.line_of(i);
            if !exempt(line) {
                out.push(UnwrapSite { line, what });
            }
        }
    }
    for i in word_positions(code, "panic") {
        let after = skip_ws(bytes, i + "panic".len());
        if bytes.get(after) == Some(&b'!') {
            let line = lexed.line_of(i);
            if !exempt(line) {
                out.push(UnwrapSite {
                    line,
                    what: "panic!",
                });
            }
        }
    }
    out.sort_by_key(|s| s.line);
}

// ---------------------------------------------------------------------------
// dead-pub
// ---------------------------------------------------------------------------

/// Item kinds a `dead-pub` definition can have.
const ITEM_KINDS: &[&str] = &["fn", "struct", "enum", "trait", "const", "static", "type"];

/// Words that may sit between `pub` and the item kind.
const ITEM_QUALIFIERS: &[&str] = &["unsafe", "async", "extern"];

/// One `pub` item definition outside test regions.
#[derive(Debug, Clone)]
pub(crate) struct PubItem {
    /// The item's identifier.
    pub name: String,
    /// Item kind (an [`ITEM_KINDS`] entry).
    pub kind: &'static str,
    /// 1-based line of the `pub` keyword.
    pub line: usize,
}

/// The identifier starting at byte `i` of `code`, if one does.
fn ident_at(code: &str, i: usize) -> Option<&str> {
    let rest = &code[i..];
    let len = rest
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    (len > 0 && !rest.starts_with(|c: char| c.is_ascii_digit())).then(|| &rest[..len])
}

/// Every `pub` item (not `pub(crate)` and friends) outside test regions.
pub(crate) fn pub_items(lexed: &LexedFile) -> Vec<PubItem> {
    let code = &lexed.code;
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    for i in word_positions(code, "pub") {
        let line = lexed.line_of(i);
        if lexed.is_test_line(line) {
            continue;
        }
        let mut j = skip_ws(bytes, i + 3);
        let kind = loop {
            let Some(word) = ident_at(code, j) else {
                break None;
            };
            j = skip_ws(bytes, j + word.len());
            let next = ident_at(code, j);
            match word {
                // `pub const fn` is a function; `pub const X` a constant.
                "const" if next.is_some_and(|w| w == "fn" || ITEM_QUALIFIERS.contains(&w)) => {}
                "static" if next == Some("mut") => {
                    j = skip_ws(bytes, j + 3);
                    break Some("static");
                }
                w if ITEM_QUALIFIERS.contains(&w) => {}
                w => break ITEM_KINDS.iter().find(|k| **k == w).copied(),
            }
        };
        if let (Some(kind), Some(name)) = (kind, ident_at(code, j)) {
            out.push(PubItem {
                name: name.to_string(),
                kind,
                line,
            });
        }
    }
    out
}

/// Adds every identifier in the non-test code of `lexed` to `counts`,
/// skipping `use` declarations: a re-export names an item without
/// using it.
pub(crate) fn count_idents(lexed: &LexedFile, counts: &mut BTreeMap<String, usize>) {
    let code = &lexed.code;
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut i = 0usize;
    while let Some(c) = code[i..].chars().next() {
        if !is_ident(c) {
            i += c.len_utf8();
            continue;
        }
        let rest = &code[i..];
        let len = rest.find(|c| !is_ident(c)).unwrap_or(rest.len());
        let word = &rest[..len];
        if word == "use" {
            i += code[i..].find(';').unwrap_or(code.len() - i);
            continue;
        }
        if !word.starts_with(|c: char| c.is_ascii_digit()) && !lexed.is_test_line(lexed.line_of(i))
        {
            *counts.entry(word.to_string()).or_insert(0) += 1;
        }
        i += len;
    }
}

/// The `dead-pub` findings for one file's definitions, given the
/// workspace-wide identifier counts and per-name definition counts. An
/// item is dead when its name occurs no more often than it is defined:
/// two items sharing a name can hide a dead one, never flag a live one.
pub(crate) fn dead_pub(
    items: &[PubItem],
    uses: &BTreeMap<String, usize>,
    defs: &BTreeMap<String, usize>,
) -> Vec<RawFinding> {
    items
        .iter()
        .filter(|it| uses.get(&it.name) <= defs.get(&it.name))
        .map(|it| RawFinding {
            rule: "dead-pub",
            line: it.line,
            message: format!(
                "`pub {} {}` is named by no non-test code outside `use` lines — delete it, \
                 or keep it with a justified allow(dead-pub, …)",
                it.kind, it.name
            ),
        })
        .collect()
}
