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

use super::Fmt::{Fix, Pct, Plain};
use super::{
    cluster_engine_config, cluster_router, push_lanes, rtx3090_7b, BenchJson, Report, Scale, Table,
};
use dz_serve::cluster::{AdmissionConfig, ClusterConfig, ClusterReport, ClusterSim};
use dz_serve::{SloClass, SloPolicy, TraceConfig, TraceTrack, CAUSE_NAMES};
use dz_workload::{PopularityDist, Trace, TraceSpec};
use serde::Serialize;
use std::io;
use std::path::Path;

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

/// The `bench-cluster` experiment. When `trace` is given, the most
/// interesting sweep cell (placement-aware, 4 replicas, zipf-1.5) runs
/// traced and its front-end + replica lanes land there as `cluster/*`.
pub fn bench_cluster(
    scale: Scale,
    out_dir: &Path,
    mut trace: Option<&mut Vec<TraceTrack>>,
) -> io::Result<Report> {
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
                push_lanes(trace.as_deref_mut(), "cluster", tracks);
                sweep.push((policy, replicas, alpha, report));
            }
        }
    }

    // Overload arm: 3x the sustainable rate with SLO-aware admission
    // control — goodput and who gets shed, per policy.
    let slo = SloPolicy::tiered(N_MODELS, 4);
    let overload: Vec<_> = POLICIES
        .iter()
        .map(|&policy| {
            let admission = Some(AdmissionConfig::new(slo.clone()));
            let report = run_cluster(policy, 4, 1.5, 3.0, duration_s, admission);
            (policy, report.merged.attribution(0.99), report)
        })
        .collect();

    let sweep_table = Table::new(&sweep)
        .col("router", Plain, "router", Plain, |(policy, ..)| *policy)
        .col("replicas", Plain, "replicas", Plain, |(_, n, ..)| *n)
        .col(
            "zipf α",
            Fix(1),
            "zipf_alpha",
            Fix(1),
            |(_, _, alpha, _)| *alpha,
        )
        .col("requests", Plain, "requests", Plain, |(.., r)| {
            r.merged.len()
        })
        .col("mean E2E (s)", Fix(1), "mean_e2e_s", Fix(3), |(.., r)| {
            r.merged.mean_e2e()
        })
        .col("p50 E2E (s)", Fix(1), "p50_e2e_s", Fix(3), |(.., r)| {
            r.merged.e2e_percentile(0.5)
        })
        .col("p99 E2E (s)", Fix(1), "p99_e2e_s", Fix(3), |(.., r)| {
            r.merged.e2e_percentile(0.99)
        })
        .col("p99 TTFT (s)", Fix(1), "p99_ttft_s", Fix(3), |(.., r)| {
            r.merged.ttft_percentile(0.99)
        })
        .col(
            "warm-routed",
            Pct(0),
            "warm_routed_frac",
            Fix(4),
            |(.., r)| r.routing.warm_fraction(),
        );
    let overload_table = Table::new(&overload)
        .col("router", Plain, "router", Plain, |(policy, ..)| *policy)
        .json("replicas", Plain, |_| 4usize)
        .json("zipf_alpha", Fix(1), |_| 1.5)
        .col("offered", Plain, "offered", Plain, |(.., r)| {
            r.merged.len() + r.shed.len()
        })
        .col("served", Plain, "served", Plain, |(.., r)| r.merged.len())
        .col("shed", Plain, "shed", Plain, |(.., r)| r.shed.len())
        .col("goodput", Fix(2), "goodput", Fix(4), |(.., r)| r.goodput())
        .col(
            "interactive p99 TTFT (s)",
            Fix(1),
            "interactive_p99_ttft_s",
            Fix(3),
            |(.., r)| {
                let interactive = r.merged.subset("interactive".into(), |x| {
                    slo.class_of(x.model) == SloClass::Interactive
                });
                interactive.ttft_percentile(0.99)
            },
        )
        .json("p99_attribution", Plain, |(_, a, _)| a.to_value());
    let mut attribution = Table::new(&overload).md("router", Plain, |(policy, ..)| *policy);
    for (i, cause) in CAUSE_NAMES.iter().enumerate() {
        attribution = attribution.md(cause, Pct(0), move |(_, a, _)| a.tail_share()[i]);
    }

    let mut body = String::from("Latency sweep (rate 0.6 req/s per replica):\n\n");
    body.push_str(&sweep_table.markdown());
    body.push_str(
        "\nOverload arm (3.0 req/s per replica, 4 replicas, zipf-1.5, SLO admission):\n\n",
    );
    body.push_str(&overload_table.markdown());
    body.push_str("\nOverload p99 attribution (share of tail-request e2e per cause):\n\n");
    body.push_str(&attribution.markdown());
    let json = BenchJson::new(
        "cluster",
        &[
            ("n_models", N_MODELS.to_string()),
            ("duration_s", format!("{duration_s:.1}")),
            ("sweep_rate_per_replica", "0.6".into()),
            ("overload_rate_per_replica", "3.0".into()),
            ("seed", "49413".into()),
        ],
    )
    .rows("sweep", &sweep_table)
    .rows("overload", &overload_table)
    .write(out_dir)?;
    body.push_str(&format!("\njson: {json}\n"));
    Ok(Report {
        id: "bench-cluster",
        title: "Cluster routing: replicas x policy x popularity skew",
        body,
    })
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
