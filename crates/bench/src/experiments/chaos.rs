//! Chaos & elasticity bench: recovery after faults, autoscaling under
//! nonstationary load, and rolling rollouts.
//!
//! `bench-chaos` drives [`dz_serve::ClusterSim`] through three unhappy
//! paths and emits `BENCH_chaos.json`:
//!
//! * **recovery** — a scripted replica crash (cold restart later) under
//!   Zipf traffic, round-robin vs placement-aware + prefetch: windowed
//!   SLO attainment, recovery time, total SLO-violation time, and churn
//!   p99 inflation over the healthy baseline. The headline: the
//!   placement-aware fleet re-replicates around the hole and races
//!   prefetch against traffic, so it recovers attainment markedly faster
//!   and keeps tail inflation bounded,
//! * **elasticity** — a diurnal (sinusoidal) workload against an
//!   [`Autoscaler`]: cold spares activate on the morning ramp, drain in
//!   the trough, and the elastic fleet holds attainment close to a
//!   statically-provisioned one,
//! * **flash-rollout** — a cold delta goes viral
//!   ([`Nonstationarity::FlashCrowd`]) while a rolling [`Rollout`]
//!   migrates the viral model's traffic to its v2 delta mid-shock.
//!
//! Every random draw (fault schedule, rollout coin flips, workload) runs
//! off recorded seeds stamped into the JSON provenance, so any run can
//! be reproduced bit-for-bit.

use super::cluster::POLICIES;
use super::Fmt::{Fix, Pct, Plain, Times};
use super::{
    cluster_engine_config, cluster_router, push_lanes, rtx3090_7b, BenchJson, Report, Scale, Table,
};
use dz_serve::cluster::{ClusterConfig, ClusterReport, ClusterSim};
use dz_serve::{
    Autoscaler, ChaosConfig, FaultEvent, FaultKind, FaultPlan, Metrics, Rollout, TraceConfig,
    TraceTrack,
};
use dz_workload::{Nonstationarity, PopularityDist, Trace, TraceSpec};
use std::io;
use std::path::Path;

const N_MODELS: usize = 24;
/// Master seed for every chaos bench run (workload seed and chaos seed
/// derive from it; stamped into `BENCH_chaos.json` provenance).
pub const CHAOS_SEED: u64 = 0xC405;
/// Attainment threshold below which a window counts as an SLO violation.
const ATTAIN_THRESHOLD: f64 = 0.9;
/// Windowed-attainment bucket width (s).
const WINDOW_S: f64 = 5.0;

/// Runs one chaos cell: `policy` over `trace`, with optional chaos
/// config and tracing. Placement-aware cells get routing-time prefetch
/// (that is the "placement + prefetch beats round-robin" comparison the
/// recovery arm makes).
fn run_cell(
    policy: &str,
    n_replicas: usize,
    trace: &Trace,
    chaos: Option<ChaosConfig>,
    trace_cfg: Option<TraceConfig>,
) -> (ClusterReport, Vec<TraceTrack>) {
    let popularity = trace.spec.popularity;
    let config = ClusterConfig {
        n_replicas,
        engine: cluster_engine_config(),
        prefetch: policy == "placement-aware",
        ..ClusterConfig::default()
    };
    let mut sim = ClusterSim::new(
        vec![rtx3090_7b(); n_replicas],
        config,
        cluster_router(policy, popularity, N_MODELS, n_replicas),
    );
    if let Some(c) = chaos {
        sim = sim.with_chaos(c);
    }
    if let Some(cfg) = trace_cfg {
        sim = sim.with_tracing(cfg);
    }
    let report = sim.run(trace);
    let tracks = sim.take_trace();
    (report, tracks)
}

/// Total seconds of SLO-violation intervals at or after `from_s`.
fn violated_after(merged: &Metrics, slo_s: f64, from_s: f64) -> f64 {
    let windows = merged.windowed_attainment(WINDOW_S, slo_s, false);
    let total: f64 = Metrics::violation_intervals(&windows, ATTAIN_THRESHOLD)
        .iter()
        .map(|&(lo, hi)| (hi - lo.max(from_s)).max(0.0))
        .sum();
    if total > 0.0 {
        total
    } else {
        0.0
    }
}

/// One recovery-arm measurement for a policy.
pub struct RecoveryRow {
    /// Routing policy id.
    pub policy: &'static str,
    /// Healthy-run (no chaos) p99 E2E — the steady-state tail.
    pub steady_p99_s: f64,
    /// The service-level E2E SLO this run was judged against.
    pub slo_s: f64,
    /// p99 E2E of requests arriving during the churn window
    /// `[crash, restart + settle]`.
    pub churn_p99_s: f64,
    /// `churn_p99 / steady_p99`.
    pub p99_inflation: f64,
    /// Seconds from the crash until windowed attainment first re-crosses
    /// the threshold (`None` = never within the run).
    pub recovery_s: Option<f64>,
    /// Total SLO-violation seconds at or after the crash.
    pub violated_s: f64,
    /// In-flight requests lost to the crash.
    pub lost_in_flight: usize,
}

/// Parameters of the scripted-crash recovery scenario.
#[derive(Clone, Copy)]
pub struct RecoveryScenario {
    /// Fleet size.
    pub n_replicas: usize,
    /// Arrival rate per replica (req/s).
    pub rate_per_replica: f64,
    /// Trace length (s).
    pub duration_s: f64,
    /// When the replica dies (s).
    pub crash_at_s: f64,
    /// How long it stays down (s).
    pub down_for_s: f64,
}

impl RecoveryScenario {
    /// The bench scenario at a given scale.
    pub fn at(scale: Scale) -> Self {
        match scale {
            Scale::Full => RecoveryScenario {
                n_replicas: 4,
                rate_per_replica: 0.8,
                duration_s: 180.0,
                crash_at_s: 60.0,
                down_for_s: 35.0,
            },
            Scale::Quick => RecoveryScenario {
                n_replicas: 4,
                rate_per_replica: 0.8,
                duration_s: 120.0,
                crash_at_s: 40.0,
                down_for_s: 30.0,
            },
        }
    }
}

/// Runs the recovery arm for one policy: a healthy baseline run
/// establishes the steady-state tail, then the same trace replays with
/// replica 0 crashing. `slo_s` is the service-level E2E SLO every policy
/// is judged against; `None` derives it from this policy's own healthy
/// run (just above its p95 — loose enough that the healthy fleet attains
/// over 90% of every window, tight enough that outage backlog registers).
/// Also reused by the `bench-smoke` perf gate and the acceptance test.
pub fn run_recovery(
    policy: &str,
    sc: RecoveryScenario,
    slo_s: Option<f64>,
    trace_cfg: Option<TraceConfig>,
) -> (RecoveryRow, Vec<TraceTrack>) {
    let trace = Trace::generate(TraceSpec {
        n_models: N_MODELS,
        arrival_rate: sc.rate_per_replica * sc.n_replicas as f64,
        duration_s: sc.duration_s,
        popularity: PopularityDist::Zipf { alpha: 1.5 },
        seed: CHAOS_SEED,
    });
    let (healthy, _) = run_cell(policy, sc.n_replicas, &trace, None, None);
    let steady_p99 = healthy.merged.e2e_percentile(0.99);
    let slo_s = slo_s.unwrap_or_else(|| healthy.merged.e2e_percentile(0.95) * 1.1);

    let plan = FaultPlan::scripted(vec![FaultEvent {
        at: sc.crash_at_s,
        kind: FaultKind::Crash {
            replica: 0,
            restart_after_s: Some(sc.down_for_s),
        },
    }]);
    let (report, tracks) = run_cell(
        policy,
        sc.n_replicas,
        &trace,
        Some(ChaosConfig::faults(plan, CHAOS_SEED)),
        trace_cfg,
    );
    let churn_end = sc.crash_at_s + sc.down_for_s + 15.0;
    let churn = report.merged.subset("churn".into(), |r| {
        (sc.crash_at_s..churn_end).contains(&r.arrival)
    });
    let churn_p99 = churn.e2e_percentile(0.99);
    let windows = report.merged.windowed_attainment(WINDOW_S, slo_s, false);
    let row = RecoveryRow {
        policy: POLICIES
            .iter()
            .copied()
            .find(|p| *p == policy)
            .expect("known policy"),
        steady_p99_s: steady_p99,
        slo_s,
        churn_p99_s: churn_p99,
        p99_inflation: if steady_p99 > 0.0 {
            churn_p99 / steady_p99
        } else {
            0.0
        },
        recovery_s: Metrics::recovery_time_s(&windows, sc.crash_at_s, ATTAIN_THRESHOLD),
        violated_s: violated_after(&report.merged, slo_s, sc.crash_at_s),
        lost_in_flight: report.chaos.as_ref().map_or(0, |c| c.lost_in_flight),
    };
    (row, tracks)
}

/// Share of the run's attainment windows (judged against `slo_s`) that
/// meet the attainment threshold.
fn attained_windows_frac(report: &ClusterReport, slo_s: f64) -> f64 {
    let windows = report.merged.windowed_attainment(WINDOW_S, slo_s, false);
    let (attained, counted) = windows
        .iter()
        .filter_map(|w| w.attainment)
        .fold((0usize, 0usize), |(a, n), att| {
            (a + (att >= ATTAIN_THRESHOLD) as usize, n + 1)
        });
    attained as f64 / counted.max(1) as f64
}

/// The elasticity arm: a diurnal workload against an autoscaled fleet
/// (2 of 4 slots live at t=0) vs the same 4 slots statically live.
/// Returns both labelled runs and the SLO they are judged by.
fn run_elasticity(scale: Scale) -> (Vec<(&'static str, ClusterReport)>, f64) {
    let duration_s = match scale {
        Scale::Full => 200.0,
        Scale::Quick => 120.0,
    };
    let spec = TraceSpec {
        n_models: N_MODELS,
        arrival_rate: 2.4,
        duration_s,
        popularity: PopularityDist::Zipf { alpha: 1.5 },
        seed: CHAOS_SEED ^ 1,
    };
    let trace = Trace::generate_shaped(
        spec,
        Nonstationarity::Diurnal {
            period_s: duration_s,
            amplitude: 0.8,
        },
    );
    // The static fleet's p99 is the SLO both fleets are judged by.
    let (static_fleet, _) = run_cell("placement-aware", 4, &trace, None, None);
    let slo_s = static_fleet.merged.e2e_percentile(0.99);
    let elastic_chaos = ChaosConfig {
        autoscaler: Some(Autoscaler::new(1, 4)),
        initial_replicas: Some(2),
        seed: CHAOS_SEED ^ 1,
        ..ChaosConfig::default()
    };
    let (elastic, _) = run_cell("placement-aware", 4, &trace, Some(elastic_chaos), None);
    (
        vec![("static-4", static_fleet), ("autoscaled-1..4", elastic)],
        slo_s,
    )
}

/// The tail model that goes viral in the flash-rollout arm.
const VIRAL_MODEL: usize = N_MODELS - 4;
/// The model the rolling upgrade moves the viral model's traffic to.
const VIRAL_V2: usize = N_MODELS - 3;

/// The flash-rollout arm: a tail delta goes viral while a rolling
/// upgrade migrates its traffic to v2 mid-shock. Returns the run and the
/// shock time (s).
fn run_flash_rollout(scale: Scale) -> (ClusterReport, f64) {
    let duration_s = match scale {
        Scale::Full => 150.0,
        Scale::Quick => 90.0,
    };
    let shock_at = duration_s * 0.4;
    let spec = TraceSpec {
        n_models: N_MODELS,
        arrival_rate: 2.0,
        duration_s,
        popularity: PopularityDist::Zipf { alpha: 1.3 },
        seed: CHAOS_SEED ^ 2,
    };
    let trace = Trace::generate_shaped(
        spec,
        Nonstationarity::FlashCrowd {
            model: VIRAL_MODEL,
            at_s: shock_at,
            boost: 300.0,
            decay_s: duration_s * 0.15,
            rate_surge: 0.5,
        },
    );
    let chaos = ChaosConfig {
        rollouts: vec![Rollout {
            model: VIRAL_MODEL,
            v2: VIRAL_V2,
            start_s: shock_at + 5.0,
            duration_s: 20.0,
        }],
        seed: CHAOS_SEED ^ 2,
        ..ChaosConfig::default()
    };
    let (report, _) = run_cell("placement-aware", 4, &trace, Some(chaos), None);
    (report, shock_at)
}

/// p99 E2E of the requests arriving in `[from_s, to_s)`.
fn p99_arriving(report: &ClusterReport, from_s: f64, to_s: f64) -> f64 {
    report
        .merged
        .subset("window".into(), |r| (from_s..to_s).contains(&r.arrival))
        .e2e_percentile(0.99)
}

/// The `bench-chaos` experiment. When `trace` is given, the
/// placement-aware recovery cell runs traced and its front-end +
/// replica lanes land there as `chaos/*`.
pub fn bench_chaos(
    scale: Scale,
    out_dir: &Path,
    trace: Option<&mut Vec<TraceTrack>>,
) -> io::Result<Report> {
    let sc = RecoveryScenario::at(scale);
    // Placement-aware runs first: its healthy tail sets the one
    // service-level SLO every policy is judged against (what an operator
    // provisioning this fleet would promise).
    let cfg = trace.is_some().then(TraceConfig::default);
    let (pa_row, tracks) = run_recovery("placement-aware", sc, None, cfg);
    push_lanes(trace, "chaos", tracks);
    let slo_s = pa_row.slo_s;
    let mut recovery = Vec::new();
    for policy in POLICIES.iter().filter(|p| **p != "placement-aware") {
        let (row, _) = run_recovery(policy, sc, Some(slo_s), None);
        recovery.push(row);
    }
    recovery.push(pa_row);
    let (elasticity, elastic_slo_s) = run_elasticity(scale);
    let (flash, shock_at) = run_flash_rollout(scale);

    let recovery_table = Table::new(&recovery)
        .col("router", Plain, "router", Plain, |r| r.policy)
        .col("steady p99 (s)", Fix(1), "steady_p99_s", Fix(3), |r| {
            r.steady_p99_s
        })
        .json("slo_s", Fix(3), |r| r.slo_s)
        .col("churn p99 (s)", Fix(1), "churn_p99_s", Fix(3), |r| {
            r.churn_p99_s
        })
        .col("p99 inflation", Times(2), "p99_inflation", Fix(3), |r| {
            r.p99_inflation
        })
        .col("recovery (s)", Fix(0), "recovery_s", Fix(3), |r| {
            r.recovery_s
        })
        .col("SLO-violated (s)", Fix(0), "violated_s", Fix(3), |r| {
            r.violated_s
        })
        .col("lost in-flight", Plain, "lost_in_flight", Plain, |r| {
            r.lost_in_flight
        });
    let live = |r: &ClusterReport| {
        r.chaos
            .as_ref()
            .map_or((4, 4), |c| (c.min_live, c.max_live))
    };
    let elasticity_table = Table::new(&elasticity)
        .col("fleet", Plain, "fleet", Plain, |(label, _)| *label)
        .col("requests", Plain, "requests", Plain, |(_, r)| {
            r.merged.len()
        })
        .col("p99 E2E (s)", Fix(1), "p99_e2e_s", Fix(3), |(_, r)| {
            r.merged.e2e_percentile(0.99)
        })
        .col(
            "windows attained",
            Pct(0),
            "attained_windows_frac",
            Fix(4),
            |(_, r)| attained_windows_frac(r, elastic_slo_s),
        )
        .col("scale ups", Plain, "scale_ups", Plain, |(_, r)| {
            r.chaos.as_ref().map_or(0, |c| c.scale_ups)
        })
        .col("scale downs", Plain, "scale_downs", Plain, |(_, r)| {
            r.chaos.as_ref().map_or(0, |c| c.scale_downs)
        })
        .md("live range", Plain, |(_, r)| {
            let (min, max) = live(r);
            format!("{min}..{max}")
        })
        .json("min_live", Plain, |(_, r)| live(r).0)
        .json("max_live", Plain, |(_, r)| live(r).1);
    let flash_rows = [flash];
    let flash_table = Table::new(&flash_rows)
        .json("viral_model", Plain, |_| VIRAL_MODEL)
        .json("shock_at_s", Fix(1), |_| shock_at)
        .col(
            "pre-shock p99 (s)",
            Fix(1),
            "pre_shock_p99_s",
            Fix(3),
            |r| p99_arriving(r, f64::NEG_INFINITY, shock_at),
        )
        .col("shock p99 (s)", Fix(1), "shock_p99_s", Fix(3), |r| {
            p99_arriving(r, shock_at, shock_at + 30.0)
        })
        .col("remapped to v2", Plain, "rollout_remapped", Plain, |r| {
            r.chaos.as_ref().map_or(0, |c| c.rollout_remapped)
        })
        .col("v2 served", Plain, "v2_served", Plain, |r| {
            r.merged
                .records
                .iter()
                .filter(|x| x.model == VIRAL_V2)
                .count()
        });

    let mut body = format!(
        "Recovery arm: replica 0 crashes at {:.0} s, cold restart {:.0} s later \
         ({} replicas, zipf-1.5, {:.1} req/s/replica, {:.0} s; one service \
         SLO for all policies, {:.0} s windows, attainment threshold {:.0}%):\n\n",
        sc.crash_at_s,
        sc.down_for_s,
        sc.n_replicas,
        sc.rate_per_replica,
        sc.duration_s,
        WINDOW_S,
        ATTAIN_THRESHOLD * 100.0
    );
    body.push_str(&recovery_table.markdown());
    body.push_str(&format!(
        "\nElasticity arm: diurnal load (amplitude 0.8), autoscaled 1..4 vs \
         static 4 replicas (SLO {elastic_slo_s:.1} s = static fleet's p99):\n\n"
    ));
    body.push_str(&elasticity_table.markdown());
    body.push_str(&format!(
        "\nFlash-rollout arm: model {VIRAL_MODEL} goes viral at {shock_at:.0} s (boost 300x, rate \
         surge 1.5x) while a 20 s rolling upgrade migrates it to v2:\n\n"
    ));
    body.push_str(&flash_table.markdown());
    let json = BenchJson::new(
        "chaos",
        &[
            ("chaos_seed", CHAOS_SEED.to_string()),
            ("n_models", N_MODELS.to_string()),
            ("recovery_replicas", sc.n_replicas.to_string()),
            ("recovery_duration_s", format!("{:.1}", sc.duration_s)),
            ("crash_at_s", format!("{:.1}", sc.crash_at_s)),
            ("down_for_s", format!("{:.1}", sc.down_for_s)),
            ("window_s", format!("{WINDOW_S:.1}")),
            ("attain_threshold", format!("{ATTAIN_THRESHOLD:.2}")),
        ],
    )
    .rows("recovery", &recovery_table)
    .rows("elasticity", &elasticity_table)
    .row("flash_rollout", &flash_table)
    .write(out_dir)?;
    body.push_str(&format!("\njson: {json}\n"));
    Ok(Report {
        id: "bench-chaos",
        title: "Chaos & elasticity: crash recovery, autoscaling, rolling rollout",
        body,
    })
}

/// The deterministic chaos cell the `bench-smoke` perf gate measures:
/// `(recovery_s, churn_p99_inflation)` of the placement-aware recovery
/// scenario at quick scale. Simulated time — bit-for-bit reproducible —
/// so `ci/perf-baseline.json` bounds it tightly.
pub fn smoke_chaos_metrics() -> (f64, f64) {
    let sc = RecoveryScenario::at(Scale::Quick);
    let (row, _) = run_recovery("placement-aware", sc, None, None);
    // "Never recovered" would be a hard regression; surface it as a
    // sentinel the baseline's max bound rejects.
    let recovery = row.recovery_s.unwrap_or(f64::MAX);
    (recovery, row.p99_inflation)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_aware_recovers_faster_than_round_robin() {
        // The acceptance gate: after a replica crash, placement-aware +
        // prefetch keeps churn p99 inflation bounded (< 3x steady state)
        // and round-robin spends at least 2x longer in SLO violation.
        let sc = RecoveryScenario::at(Scale::Quick);
        let (pa, _) = run_recovery("placement-aware", sc, None, None);
        let (rr, _) = run_recovery("round-robin", sc, Some(pa.slo_s), None);
        assert!(pa.lost_in_flight > 0 || rr.lost_in_flight > 0, "crash bit");
        assert!(
            pa.p99_inflation < 3.0,
            "placement-aware churn p99 inflation {:.2}x must stay under 3x",
            pa.p99_inflation
        );
        assert!(
            pa.recovery_s.is_some(),
            "placement-aware must recover attainment within the run"
        );
        assert!(
            rr.violated_s >= 2.0 * pa.violated_s,
            "round-robin must violate the SLO at least 2x longer: \
             rr {:.1}s vs pa {:.1}s",
            rr.violated_s,
            pa.violated_s
        );
    }

    #[test]
    fn smoke_chaos_cell_is_deterministic() {
        let (r1, i1) = smoke_chaos_metrics();
        let (r2, i2) = smoke_chaos_metrics();
        assert_eq!(r1.to_bits(), r2.to_bits());
        assert_eq!(i1.to_bits(), i2.to_bits());
        assert!(r1.is_finite(), "smoke scenario must recover");
        assert!(i1 > 0.0);
    }
}
