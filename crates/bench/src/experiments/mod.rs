//! Experiment drivers regenerating every table and figure in the paper.
//!
//! Each `figN`/`tableN` function reproduces the corresponding artifact of
//! the evaluation section and returns a text [`Report`] (printed by the
//! `exp` binary and archived under `target/experiments/`). The experiment
//! index lives in `DESIGN.md`; expected-vs-measured notes in
//! `EXPERIMENTS.md`.

pub mod ablations;
pub mod chaos;
pub mod cluster;
pub mod codec;
pub mod compress;
pub mod extensions;
pub mod fleet;
pub mod kernels;
pub mod quality;
pub mod serving;
pub mod smoke;
pub mod swap;
pub mod toppings;
pub mod workloads;

use dz_gpusim::shapes::ModelShape;
use dz_gpusim::spec::NodeSpec;
use dz_serve::cluster::{
    LeastLoadedRouter, PlacementAwareRouter, PlacementPlan, RoundRobinRouter, Router,
};
use dz_serve::{CostModel, DeltaZipConfig, TraceConfig, TraceLog, TraceTrack};
use dz_workload::PopularityDist;
use serde::value::Value;
use std::io;
use std::path::Path;

/// The single RTX 3090 node serving Llama-7B that the cluster, chaos,
/// swap and toppings benches share.
fn rtx3090_7b() -> CostModel {
    CostModel::new(NodeSpec::rtx3090_node(1), ModelShape::llama7b())
}

/// Per-replica engine settings of the cluster and chaos benches.
fn cluster_engine_config() -> DeltaZipConfig {
    DeltaZipConfig {
        max_concurrent_deltas: 4,
        max_batch: 32,
        host_capacity_deltas: Some(6),
        ..DeltaZipConfig::default()
    }
}

/// The router behind one of [`cluster::POLICIES`] over `n_models`
/// models.
fn cluster_router(
    policy: &str,
    popularity: PopularityDist,
    n_models: usize,
    n_replicas: usize,
) -> Box<dyn Router> {
    match policy {
        "round-robin" => Box::new(RoundRobinRouter::new()),
        "least-loaded" => Box::new(LeastLoadedRouter::new()),
        "placement-aware" => Box::new(PlacementAwareRouter::new(PlacementPlan::from_popularity(
            popularity, n_models, n_replicas,
        ))),
        other => panic!("unknown policy {other}"),
    }
}

/// Appends `tracks` to `sink`, when tracing, as `<prefix>/<name>` lanes.
fn push_lanes(
    sink: Option<&mut Vec<TraceTrack>>,
    prefix: &str,
    tracks: impl IntoIterator<Item = TraceTrack>,
) {
    if let Some(sink) = sink {
        for mut track in tracks {
            track.name = format!("{prefix}/{}", track.name);
            sink.push(track);
        }
    }
}

/// Runs `run` once per mode, in order. When `trace` is given every mode
/// runs traced and its engine log lands there as a `<bench>/<mode>` lane.
fn run_modes<T>(
    bench: &str,
    modes: &[&'static str],
    mut trace: Option<&mut Vec<TraceTrack>>,
    run: impl Fn(&str, Option<TraceConfig>) -> (T, Option<TraceLog>),
) -> Vec<(&'static str, T)> {
    let cfg = trace.as_ref().map(|_| TraceConfig::default());
    modes
        .iter()
        .map(|&mode| {
            let (out, log) = run(mode, cfg);
            let lane = log.map(|log| TraceTrack {
                name: mode.into(),
                log,
            });
            push_lanes(trace.as_deref_mut(), bench, lane);
            (mode, out)
        })
        .collect()
}

/// A rendered experiment artifact.
#[derive(Debug, Clone)]
pub struct Report {
    /// Stable id, e.g. `"table1"` or `"fig11"`.
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Pre-rendered text body (markdown-ish).
    pub body: String,
}

impl Report {
    /// Renders with a header.
    pub fn render(&self) -> String {
        format!("## {} — {}\n\n{}\n", self.id, self.title, self.body)
    }
}

/// Global experiment scale (quality experiments train real models; `Quick`
/// divides step counts by 4 for smoke runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Full runs, used for the committed EXPERIMENTS.md numbers.
    Full,
    /// 4x fewer training steps; shapes hold, absolute accuracy dips.
    Quick,
}

impl Scale {
    /// Scales a step count.
    pub fn steps(&self, full: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Quick => (full / 4).max(50),
        }
    }
}

/// Schema version stamped into every `BENCH_*.json` artifact. Bump when
/// an emitter changes field names or meanings; `exp bench-smoke --check`
/// refuses baselines written for a newer schema.
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// Renders the provenance preamble shared by every `BENCH_*.json`
/// emitter: schema version, experiment id, and the run configuration
/// that produced the numbers. Returns indented `"key": value,` lines
/// ready to splice directly after the opening `{`. Config values must
/// already be rendered as JSON (quote strings yourself).
pub fn json_provenance(experiment: &str, config: &[(&str, String)]) -> String {
    let mut s = format!(
        "  \"schema_version\": {BENCH_SCHEMA_VERSION},\n  \"experiment\": \"{experiment}\",\n  \"config\": {{"
    );
    for (i, (key, value)) in config.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!("\"{key}\": {value}"));
    }
    s.push_str("},\n");
    s
}

/// How one side of a [`Table`] column renders its value.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Fmt {
    /// Integers and text as they are; numbers with `{}`.
    Plain,
    /// `{:.N}`.
    Fix(usize),
    /// The value × 100 with `N` decimals and a `%` suffix.
    Pct(usize),
    /// `{:.N}` with an `x` suffix.
    Times(usize),
    /// `{:+.N}`.
    Signed(usize),
}

/// One report value before formatting.
#[derive(Debug, Clone)]
pub(crate) enum Val {
    Int(u64),
    Num(f64),
    Text(String),
    /// Absent: `never` in markdown, `null` in JSON.
    Missing,
    /// A nested JSON value, such as a `p99_attribution` breakdown.
    Json(Value),
}

impl From<usize> for Val {
    fn from(v: usize) -> Self {
        Val::Int(v as u64)
    }
}

impl From<u64> for Val {
    fn from(v: u64) -> Self {
        Val::Int(v)
    }
}

impl From<f64> for Val {
    fn from(v: f64) -> Self {
        Val::Num(v)
    }
}

impl From<&str> for Val {
    fn from(v: &str) -> Self {
        Val::Text(v.to_string())
    }
}

impl From<String> for Val {
    fn from(v: String) -> Self {
        Val::Text(v)
    }
}

impl From<Option<f64>> for Val {
    fn from(v: Option<f64>) -> Self {
        v.map_or(Val::Missing, Val::Num)
    }
}

impl From<Value> for Val {
    fn from(v: Value) -> Self {
        Val::Json(v)
    }
}

impl Val {
    fn markdown(&self, fmt: Fmt) -> String {
        match (self, fmt) {
            (Val::Int(i), _) => i.to_string(),
            (Val::Num(x), Fmt::Plain) => x.to_string(),
            (Val::Num(x), Fmt::Fix(p)) => format!("{x:.p$}"),
            (Val::Num(x), Fmt::Pct(p)) => format!("{:.p$}%", x * 100.0),
            (Val::Num(x), Fmt::Times(p)) => format!("{x:.p$}x"),
            (Val::Num(x), Fmt::Signed(p)) => format!("{x:+.p$}"),
            (Val::Text(t), _) => t.clone(),
            (Val::Missing, _) => "never".into(),
            (Val::Json(v), _) => v.to_json(),
        }
    }

    fn json(&self, fmt: Fmt) -> String {
        match self {
            Val::Num(x) if !x.is_finite() => "null".into(),
            Val::Text(t) => quote(t),
            Val::Missing => "null".into(),
            _ => self.markdown(fmt),
        }
    }
}

/// `text` as a JSON string literal, escaped.
fn quote(text: &str) -> String {
    Value::Str(text.to_string()).to_json()
}

/// One column of a [`Table`]: a markdown header and/or a JSON key, each
/// with its format, and the cell value of a row.
struct Column<'a, R> {
    md: Option<(&'a str, Fmt)>,
    json: Option<(&'a str, Fmt)>,
    cell: Box<dyn Fn(&R) -> Val + 'a>,
}

/// A report table declared once per column; the same rows render both the
/// markdown table and the `BENCH_*.json` row objects.
pub(crate) struct Table<'a, R> {
    rows: &'a [R],
    columns: Vec<Column<'a, R>>,
}

impl<'a, R> Table<'a, R> {
    pub(crate) fn new(rows: &'a [R]) -> Self {
        Table {
            rows,
            columns: Vec::new(),
        }
    }

    /// A column in both renderings.
    pub(crate) fn col<V: Into<Val>>(
        self,
        header: &'a str,
        md: Fmt,
        key: &'a str,
        json: Fmt,
        cell: impl Fn(&R) -> V + 'a,
    ) -> Self {
        self.push(Some((header, md)), Some((key, json)), cell)
    }

    /// A markdown-only column.
    pub(crate) fn md<V: Into<Val>>(
        self,
        header: &'a str,
        fmt: Fmt,
        cell: impl Fn(&R) -> V + 'a,
    ) -> Self {
        self.push(Some((header, fmt)), None, cell)
    }

    /// A JSON-only column.
    pub(crate) fn json<V: Into<Val>>(
        self,
        key: &'a str,
        fmt: Fmt,
        cell: impl Fn(&R) -> V + 'a,
    ) -> Self {
        self.push(None, Some((key, fmt)), cell)
    }

    fn push<V: Into<Val>>(
        mut self,
        md: Option<(&'a str, Fmt)>,
        json: Option<(&'a str, Fmt)>,
        cell: impl Fn(&R) -> V + 'a,
    ) -> Self {
        self.columns.push(Column {
            md,
            json,
            cell: Box::new(move |r| cell(r).into()),
        });
        self
    }

    /// The markdown table of the markdown columns.
    pub(crate) fn markdown(&self) -> String {
        let cols: Vec<_> = self
            .columns
            .iter()
            .filter_map(|c| c.md.map(|md| (md, &c.cell)))
            .collect();
        let header: Vec<&str> = cols.iter().map(|((h, _), _)| *h).collect();
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                cols.iter()
                    .map(|((_, f), cell)| cell(r).markdown(*f))
                    .collect()
            })
            .collect();
        md_table(&header, &rows)
    }

    /// One JSON object per row, over the JSON columns.
    fn json_rows(&self) -> Vec<String> {
        self.rows
            .iter()
            .map(|r| {
                let fields: Vec<String> = self
                    .columns
                    .iter()
                    .filter_map(|c| {
                        let (key, f) = c.json?;
                        Some(format!("{}: {}", quote(key), (c.cell)(r).json(f)))
                    })
                    .collect();
                format!("{{{}}}", fields.join(", "))
            })
            .collect()
    }
}

/// A nested JSON array or object: `items` one per line between `open`
/// and `close`.
fn block(open: char, items: &[String], close: char) -> String {
    format!("{open}\n    {}\n  {close}", items.join(",\n    "))
}

/// The one writer of `BENCH_<name>.json` artifacts: the
/// [`json_provenance`] preamble, then top-level fields in the order they
/// are added.
pub(crate) struct BenchJson {
    name: &'static str,
    provenance: String,
    fields: Vec<String>,
}

impl BenchJson {
    /// The artifact of experiment `bench-<name>`, run with `config`
    /// (values already rendered as JSON).
    pub(crate) fn new(name: &'static str, config: &[(&str, String)]) -> Self {
        BenchJson {
            name,
            provenance: json_provenance(&format!("bench-{name}"), config),
            fields: Vec::new(),
        }
    }

    fn field(mut self, key: &str, value: String) -> Self {
        self.fields.push(format!("  {}: {value}", quote(key)));
        self
    }

    /// A top-level scalar.
    pub(crate) fn scalar(self, key: &str, fmt: Fmt, value: impl Into<Val>) -> Self {
        let value = value.into().json(fmt);
        self.field(key, value)
    }

    /// An array with one object per table row.
    pub(crate) fn rows<R>(self, key: &str, table: &Table<R>) -> Self {
        self.field(key, block('[', &table.json_rows(), ']'))
    }

    /// The object of a one-row table, on one line.
    pub(crate) fn row<R>(self, key: &str, table: &Table<R>) -> Self {
        self.field(key, table.json_rows().concat())
    }

    /// An object with one `"name": value` line per entry.
    pub(crate) fn object(self, key: &str, fmt: Fmt, entries: &[(&str, f64)]) -> Self {
        let lines: Vec<String> = entries
            .iter()
            .map(|(name, v)| format!("{}: {}", quote(name), Val::Num(*v).json(fmt)))
            .collect();
        self.field(key, block('{', &lines, '}'))
    }

    /// The document text.
    fn render(&self) -> String {
        format!("{{\n{}{}\n}}\n", self.provenance, self.fields.join(",\n"))
    }

    /// Writes `BENCH_<name>.json` into `dir` (created if missing) and
    /// returns its path.
    pub(crate) fn write(&self, dir: &Path) -> io::Result<String> {
        let path = dir.join(format!("BENCH_{}.json", self.name));
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, self.render()))
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
        Ok(path.display().to_string())
    }
}

/// Formats a markdown table from a header and rows.
pub fn md_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(&format!("| {} |\n", header.join(" | ")));
    out.push_str(&format!(
        "|{}\n",
        header.iter().map(|_| "---|").collect::<String>()
    ));
    for row in rows {
        out.push_str(&format!("| {} |\n", row.join(" | ")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::Fmt::{Fix, Pct, Plain};
    use super::*;
    use serde::value::Number;

    #[test]
    fn md_table_renders() {
        let t = md_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert!(t.contains("| a | b |"));
        assert!(t.contains("| 1 | 2 |"));
        assert_eq!(t.lines().count(), 3);
    }

    #[test]
    fn scale_quick_divides() {
        assert_eq!(Scale::Quick.steps(1200), 300);
        assert_eq!(Scale::Full.steps(1200), 1200);
        assert_eq!(Scale::Quick.steps(100), 50);
    }

    #[test]
    fn table_renders_markdown_and_json_rows() {
        let rows = [("p2c", 0.25, 3usize), ("round-robin", 0.5, 4)];
        let table = Table::new(&rows)
            .col("router", Plain, "router", Plain, |(name, ..)| *name)
            .col("warm", Pct(0), "warm_frac", Fix(3), |(_, f, _)| *f)
            .md("cells", Plain, |(name, _, n)| format!("{name} x{n}"))
            .json("n", Plain, |(.., n)| *n)
            .json("nested", Plain, |(_, f, _)| {
                Value::Object(vec![("f".into(), Value::Num(Number::Float(*f)))])
            });
        assert_eq!(
            table.markdown(),
            "| router | warm | cells |\n|---|---|---|\n\
             | p2c | 25% | p2c x3 |\n| round-robin | 50% | round-robin x4 |\n"
        );
        assert_eq!(
            table.json_rows(),
            [
                r#"{"router": "p2c", "warm_frac": 0.250, "n": 3, "nested": {"f":0.25}}"#,
                r#"{"router": "round-robin", "warm_frac": 0.500, "n": 4, "nested": {"f":0.5}}"#,
            ]
        );
    }

    #[test]
    fn strings_are_escaped_and_non_finite_numbers_are_null() {
        let rows = [
            ("a \"b\" \\ c", f64::NAN, None),
            ("d", f64::INFINITY, Some(2.0)),
        ];
        let table = Table::new(&rows)
            .col("name", Plain, "name", Plain, |(name, ..)| *name)
            .col("x", Fix(1), "x", Fix(1), |(_, x, _)| *x)
            .col("recovery", Fix(0), "recovery_s", Fix(3), |(.., r)| *r);
        assert_eq!(
            table.json_rows(),
            [
                r#"{"name": "a \"b\" \\ c", "x": null, "recovery_s": null}"#,
                r#"{"name": "d", "x": null, "recovery_s": 2.000}"#,
            ]
        );
        assert!(table
            .markdown()
            .ends_with("| a \"b\" \\ c | NaN | never |\n| d | inf | 2 |\n"));
    }

    #[test]
    fn provenance_is_valid_json_when_spliced() {
        let rows = [1usize, 2];
        let table = Table::new(&rows).json("i", Plain, |i| *i);
        let doc = BenchJson::new(
            "x",
            &[("duration_s", "60".into()), ("mode", "\"fast\"".into())],
        )
        .scalar("label", Plain, "a \"b\"")
        .scalar("gbps", Fix(4), None::<f64>)
        .rows("rows", &table)
        .row("first", &Table::new(&rows[..1]).json("i", Plain, |i| *i))
        .object("metrics", Fix(4), &[("m", 1.0), ("nan", f64::NAN)])
        .render();
        assert_eq!(
            doc,
            r#"{
  "schema_version": 1,
  "experiment": "bench-x",
  "config": {"duration_s": 60, "mode": "fast"},
  "label": "a \"b\"",
  "gbps": null,
  "rows": [
    {"i": 1},
    {"i": 2}
  ],
  "first": {"i": 1},
  "metrics": {
    "m": 1.0000,
    "nan": null
  }
}
"#
        );
        let v = Value::parse_json(&doc).expect("a valid JSON document");
        assert_eq!(
            v.get("schema_version").and_then(Value::as_f64),
            Some(BENCH_SCHEMA_VERSION as f64)
        );
        assert_eq!(v.get("experiment"), Some(&Value::Str("bench-x".into())));
        assert!(v.get("config").and_then(|c| c.get("mode")).is_some());
    }

    #[test]
    fn a_failed_write_is_an_error_naming_the_path() {
        let dir = std::env::temp_dir().join(format!("dz-bench-json-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("BENCH_x.json")).expect("temp dir");
        let written = BenchJson::new("x", &[])
            .scalar("k", Plain, 1usize)
            .write(&dir);
        std::fs::remove_dir_all(&dir).expect("temp dir removed");
        let err = written.expect_err("a directory sits at the artifact path");
        assert!(err.to_string().contains("BENCH_x.json"), "{err}");
    }

    #[test]
    fn report_renders_with_header() {
        let r = Report {
            id: "figX",
            title: "Test",
            body: "body".into(),
        };
        assert!(r.render().starts_with("## figX — Test"));
    }
}
