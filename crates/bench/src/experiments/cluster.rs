//! Cluster-scale serving sweep: replica count × routing policy ×
//! popularity skew.
//!
//! `bench-cluster` drives [`dz_serve::ClusterSim`] over Zipfian traces
//! with all three routing policies and reports cluster-level percentile
//! latency, warm-routing fraction, and (in an overloaded configuration
//! with SLO-aware admission control) goodput and shed counts. Alongside
//! the rendered markdown it emits a machine-readable
//! `BENCH_cluster.json`; the headline number is placement-aware routing
//! beating round-robin p99 latency under skewed delta popularity.

use super::{
    cluster_engine_config, cluster_router, json_provenance, md_table, rtx3090_7b, Report, Scale,
};
use dz_serve::cluster::{AdmissionConfig, ClusterConfig, ClusterReport, ClusterSim};
use dz_serve::{CauseBreakdown, SloClass, SloPolicy, TraceConfig, TraceTrack};
use dz_workload::{PopularityDist, Trace, TraceSpec};
use serde::Serialize;

const N_MODELS: usize = 24;
/// Routing policy ids swept by the experiment.
pub const POLICIES: [&str; 3] = ["round-robin", "least-loaded", "placement-aware"];

/// Runs one cluster cell (also reused by the `bench-smoke` perf gate).
pub fn run_cluster(
    policy: &str,
    n_replicas: usize,
    alpha: f64,
    rate_per_replica: f64,
    duration_s: f64,
    admission: Option<AdmissionConfig>,
) -> ClusterReport {
    run_cluster_traced(
        policy,
        n_replicas,
        alpha,
        rate_per_replica,
        duration_s,
        admission,
        None,
    )
    .0
}

/// [`run_cluster`] with optional event tracing: when `trace_cfg` is set
/// the front-end and every replica engine record trace lanes, returned
/// alongside the report.
#[allow(clippy::too_many_arguments)]
pub fn run_cluster_traced(
    policy: &str,
    n_replicas: usize,
    alpha: f64,
    rate_per_replica: f64,
    duration_s: f64,
    admission: Option<AdmissionConfig>,
    trace_cfg: Option<TraceConfig>,
) -> (ClusterReport, Vec<TraceTrack>) {
    let popularity = PopularityDist::Zipf { alpha };
    let trace = Trace::generate(TraceSpec {
        n_models: N_MODELS,
        arrival_rate: rate_per_replica * n_replicas as f64,
        duration_s,
        popularity,
        seed: 0xC105,
    });
    // The small node: GPU + host tiers hold only a fraction of the 24
    // deltas, so routing decides how often each replica re-loads from
    // disk (on the big A800 node every delta stays GPU-resident and all
    // policies converge).
    let cost = rtx3090_7b();
    let config = ClusterConfig {
        n_replicas,
        engine: cluster_engine_config(),
        admission,
        ..ClusterConfig::default()
    };
    let mut sim = ClusterSim::new(
        vec![cost; n_replicas],
        config,
        cluster_router(policy, popularity, N_MODELS, n_replicas),
    );
    if let Some(cfg) = trace_cfg {
        sim = sim.with_tracing(cfg);
    }
    let report = sim.run(&trace);
    (report, sim.take_trace())
}

struct SweepRow {
    policy: &'static str,
    replicas: usize,
    alpha: f64,
    requests: usize,
    mean_e2e_s: f64,
    p50_e2e_s: f64,
    p99_e2e_s: f64,
    p99_ttft_s: f64,
    warm_frac: f64,
}

struct OverloadRow {
    policy: &'static str,
    offered: usize,
    served: usize,
    shed: usize,
    goodput: f64,
    interactive_p99_ttft_s: f64,
    attribution: CauseBreakdown,
}

/// The `bench-cluster` experiment. When `trace` is given, the most
/// interesting sweep cell (placement-aware, 4 replicas, zipf-1.5) runs
/// traced and its front-end + replica lanes land there as `cluster/*`.
pub fn bench_cluster(
    scale: Scale,
    out_dir: &std::path::Path,
    mut trace: Option<&mut Vec<TraceTrack>>,
) -> Report {
    let duration_s = match scale {
        Scale::Full => 150.0,
        Scale::Quick => 60.0,
    };
    let replica_counts = [2usize, 4];
    let alphas = [1.0f64, 1.5];

    let mut sweep = Vec::new();
    for &replicas in &replica_counts {
        for &alpha in &alphas {
            for policy in POLICIES {
                let traced_cell =
                    trace.is_some() && policy == "placement-aware" && replicas == 4 && alpha == 1.5;
                let cfg = traced_cell.then(TraceConfig::default);
                let (report, tracks) =
                    run_cluster_traced(policy, replicas, alpha, 0.6, duration_s, None, cfg);
                if let Some(sink) = trace.as_deref_mut() {
                    for mut track in tracks {
                        track.name = format!("cluster/{}", track.name);
                        sink.push(track);
                    }
                }
                let m = &report.merged;
                sweep.push(SweepRow {
                    policy,
                    replicas,
                    alpha,
                    requests: m.len(),
                    mean_e2e_s: m.mean_e2e(),
                    p50_e2e_s: m.e2e_percentile(0.5),
                    p99_e2e_s: m.e2e_percentile(0.99),
                    p99_ttft_s: m.ttft_percentile(0.99),
                    warm_frac: report.routing.warm_fraction(),
                });
            }
        }
    }

    // Overload arm: 3x the sustainable rate with SLO-aware admission
    // control — goodput and who gets shed, per policy.
    let slo = SloPolicy::tiered(N_MODELS, 4);
    let mut overload = Vec::new();
    for policy in POLICIES {
        let report = run_cluster(
            policy,
            4,
            1.5,
            3.0,
            duration_s,
            Some(AdmissionConfig::new(slo.clone())),
        );
        let served = report.merged.len();
        let shed = report.shed.len();
        let interactive = report.merged.subset("interactive".into(), |r| {
            slo.class_of(r.model) == SloClass::Interactive
        });
        overload.push(OverloadRow {
            policy,
            offered: served + shed,
            served,
            shed,
            goodput: report.goodput(),
            interactive_p99_ttft_s: interactive.ttft_percentile(0.99),
            attribution: report.merged.attribution(0.99),
        });
    }

    let mut body = String::from("Latency sweep (rate 0.6 req/s per replica):\n\n");
    body.push_str(&md_table(
        &[
            "router",
            "replicas",
            "zipf α",
            "requests",
            "mean E2E (s)",
            "p50 E2E (s)",
            "p99 E2E (s)",
            "p99 TTFT (s)",
            "warm-routed",
        ],
        &sweep
            .iter()
            .map(|r| {
                vec![
                    r.policy.to_string(),
                    r.replicas.to_string(),
                    format!("{:.1}", r.alpha),
                    r.requests.to_string(),
                    format!("{:.1}", r.mean_e2e_s),
                    format!("{:.1}", r.p50_e2e_s),
                    format!("{:.1}", r.p99_e2e_s),
                    format!("{:.1}", r.p99_ttft_s),
                    format!("{:.0}%", r.warm_frac * 100.0),
                ]
            })
            .collect::<Vec<_>>(),
    ));
    body.push_str(
        "\nOverload arm (3.0 req/s per replica, 4 replicas, zipf-1.5, SLO admission):\n\n",
    );
    body.push_str(&md_table(
        &[
            "router",
            "offered",
            "served",
            "shed",
            "goodput",
            "interactive p99 TTFT (s)",
        ],
        &overload
            .iter()
            .map(|r| {
                vec![
                    r.policy.to_string(),
                    r.offered.to_string(),
                    r.served.to_string(),
                    r.shed.to_string(),
                    format!("{:.2}", r.goodput),
                    format!("{:.1}", r.interactive_p99_ttft_s),
                ]
            })
            .collect::<Vec<_>>(),
    ));
    body.push_str("\nOverload p99 attribution (share of tail-request e2e per cause):\n\n");
    let mut attr_header = vec!["router"];
    attr_header.extend(dz_serve::CAUSE_NAMES);
    body.push_str(&md_table(
        &attr_header,
        &overload
            .iter()
            .map(|r| {
                let mut row = vec![r.policy.to_string()];
                for share in r.attribution.tail_share() {
                    row.push(format!("{:.0}%", share * 100.0));
                }
                row
            })
            .collect::<Vec<_>>(),
    ));
    match write_json(&sweep, &overload, duration_s, out_dir) {
        Ok(path) => body.push_str(&format!("\njson: {path}\n")),
        Err(e) => body.push_str(&format!("\njson write failed: {e}\n")),
    }
    Report {
        id: "bench-cluster",
        title: "Cluster routing: replicas x policy x popularity skew",
        body,
    }
}

/// Hand-rolled JSON (matching the other emitters' style).
fn write_json(
    sweep: &[SweepRow],
    overload: &[OverloadRow],
    duration_s: f64,
    dir: &std::path::Path,
) -> std::io::Result<String> {
    std::fs::create_dir_all(dir)?;
    let mut json = String::from("{\n");
    json.push_str(&json_provenance(
        "bench-cluster",
        &[
            ("n_models", N_MODELS.to_string()),
            ("duration_s", format!("{duration_s:.1}")),
            ("sweep_rate_per_replica", "0.6".into()),
            ("overload_rate_per_replica", "3.0".into()),
            ("seed", "49413".into()),
        ],
    ));
    json.push_str("  \"sweep\": [\n");
    for (i, r) in sweep.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"router\": \"{}\", \"replicas\": {}, \"zipf_alpha\": {:.1}, \
             \"requests\": {}, \"mean_e2e_s\": {:.3}, \"p50_e2e_s\": {:.3}, \
             \"p99_e2e_s\": {:.3}, \"p99_ttft_s\": {:.3}, \"warm_routed_frac\": {:.4}}}{}\n",
            r.policy,
            r.replicas,
            r.alpha,
            r.requests,
            r.mean_e2e_s,
            r.p50_e2e_s,
            r.p99_e2e_s,
            r.p99_ttft_s,
            r.warm_frac,
            if i + 1 == sweep.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n  \"overload\": [\n");
    for (i, r) in overload.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"router\": \"{}\", \"replicas\": 4, \"zipf_alpha\": 1.5, \
             \"offered\": {}, \"served\": {}, \"shed\": {}, \"goodput\": {:.4}, \
             \"interactive_p99_ttft_s\": {:.3}, \"p99_attribution\": {}}}{}\n",
            r.policy,
            r.offered,
            r.served,
            r.shed,
            r.goodput,
            r.interactive_p99_ttft_s,
            r.attribution.to_value().to_json(),
            if i + 1 == overload.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = dir.join("BENCH_cluster.json");
    std::fs::write(&path, json)?;
    Ok(path.display().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_aware_beats_round_robin_p99_under_skew() {
        // The acceptance gate: on Zipf >= 1.0 popularity, placement-aware
        // routing must beat round-robin tail latency at every replica
        // count the sweep covers.
        for replicas in [2usize, 4] {
            for alpha in [1.0f64, 1.5] {
                let rr = run_cluster("round-robin", replicas, alpha, 0.6, 60.0, None);
                let pa = run_cluster("placement-aware", replicas, alpha, 0.6, 60.0, None);
                assert_eq!(rr.merged.len(), pa.merged.len());
                let (p99_rr, p99_pa) = (
                    rr.merged.e2e_percentile(0.99),
                    pa.merged.e2e_percentile(0.99),
                );
                assert!(
                    p99_pa < p99_rr,
                    "placement-aware p99 {p99_pa} must beat round-robin {p99_rr} \
                     (replicas={replicas}, alpha={alpha})"
                );
            }
        }
    }

    #[test]
    fn overload_admission_keeps_goodput_meaningful() {
        let slo = SloPolicy::tiered(N_MODELS, 4);
        let admission = AdmissionConfig {
            defer_depth: 8,
            defer_s: 5.0,
            max_defers: 2,
            shed_depth: 16,
            ..AdmissionConfig::new(slo)
        };
        let report = run_cluster("least-loaded", 2, 1.5, 3.0, 40.0, Some(admission));
        // Overdriven 3x: something must be shed, but most load is served.
        assert!(report.goodput() < 1.0, "overload must shed");
        assert!(report.goodput() > 0.5, "admission must not collapse");
    }
}
