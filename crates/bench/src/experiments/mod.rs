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
use dz_serve::{CostModel, DeltaZipConfig};
use dz_workload::PopularityDist;

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
    use super::*;

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
    fn provenance_is_valid_json_when_spliced() {
        let pre = json_provenance(
            "bench-x",
            &[("duration_s", "60".into()), ("mode", "\"fast\"".into())],
        );
        let doc = format!("{{\n{pre}  \"rows\": []\n}}\n");
        let v = serde::value::Value::parse_json(&doc).expect("splices into valid JSON");
        assert_eq!(
            v.get("schema_version").and_then(|x| x.as_f64()),
            Some(BENCH_SCHEMA_VERSION as f64)
        );
        assert!(v.get("config").is_some());
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
