//! The CI perf-regression smoke run: small, seeded, fast (<60 s).
//!
//! `bench-smoke` measures one representative number from each
//! performance-critical subsystem:
//!
//! * `decode_mb_s` — LUT decode throughput on the shared packed-delta
//!   corpus (wall-clock; the baseline bound is generous to absorb runner
//!   variance),
//! * `cluster_p99_e2e_s` — placement-aware cluster p99 on a fixed-seed
//!   trace (simulated time: bit-for-bit deterministic),
//! * `swap_overlap_frac`, `swap_warm_ttft_p99_s`, `swap_stall_ratio` —
//!   the overlapped-swap pipeline on a fixed-seed churn trace: how much
//!   load time hides behind decode, the warm-request TTFT tail, and the
//!   overlapped-vs-serialized total-stall ratio (simulated:
//!   deterministic),
//! * `chaos_recovery_s`, `chaos_churn_p99_inflation` — the chaos
//!   recovery cell: how fast a placement-aware fleet re-attains its SLO
//!   after a scripted replica crash and how far the churn-window p99
//!   inflates over the healthy baseline (simulated: deterministic),
//! * `fleet_1000_replica_wall_s`, `fleet_p2c_p99_s` — the fleet-scale
//!   event core: wall clock of a 1000-replica 100k-request p2c cell
//!   (generous bound) and its simulated p99 (deterministic, tight
//!   bounds),
//! * `toppings_mixed_goodput`, `toppings_mixed_ttft_p99_s` — the
//!   mixed-kind toppings pool on the interleaved variant catalog:
//!   SLO-attaining requests per second of makespan and the TTFT tail
//!   (simulated: deterministic),
//! * `*_packed_ratio` — delta-only packed compression ratio of each
//!   method-zoo codec on a fixed-seed synthetic model pair (pure
//!   arithmetic: deterministic),
//! * `deltacome_compress_ratio` — Delta-CoMe low-budget compression wall
//!   time over SparseGPT-2★'s, best of 3 each, on a fixed-seed
//!   `llama-tiny-l` pair (wall-clock, but a ratio of two runs on the
//!   same host; max-only).
//!
//! It emits `BENCH_smoke.json`, and `exp bench-smoke --check
//! ci/perf-baseline.json` compares the fresh numbers against the
//! checked-in per-metric bounds, exiting nonzero on any regression — the
//! CI perf gate.

use super::cluster::run_cluster_traced;
use super::codec::packed_delta_like;
use super::swap::{run_swap, run_swap_traced, warm_ttft_p99};
use super::toppings::{goodput, run_toppings_traced};
use super::Fmt::{Fix, Plain};
use super::{push_lanes, BenchJson, Report, Table, BENCH_SCHEMA_VERSION};
use dz_compress::codec::{BitDeltaCodec, DeltaCodec, DeltaComeCodec, SparseGptCodec};
use dz_model::tasks::Corpus;
use dz_model::transformer::{test_config, ModelConfig, Params};
use dz_model::zoo::preset;
use dz_serve::{TraceConfig, TraceTrack};
use dz_tensor::{Matrix, Rng};
use serde::value::Value;
use std::io;
use std::path::Path;
use std::time::Instant;

/// The smoke run's measurements, in report order.
pub struct SmokeMetrics {
    /// `(name, value)` pairs.
    pub entries: Vec<(&'static str, f64)>,
}

impl SmokeMetrics {
    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

/// Fixed-seed synthetic `(base, finetuned)` pair of shape `cfg`: an
/// initialized transformer plus a seeded N(0, 0.005) bump on every
/// tensor. No training — the ratio metrics depend only on tensor shapes
/// and value distributions, so this keeps the smoke run fast and
/// bit-deterministic.
fn synthetic_pair(cfg: ModelConfig) -> (Params, Params) {
    let mut rng = Rng::seeded(0x50_0E);
    let base = Params::init(cfg, &mut rng);
    let mut tuned = base.clone();
    for m in tuned.tensors_mut() {
        let bump = Matrix::randn(m.rows(), m.cols(), 0.005, &mut rng);
        m.add_assign(&bump);
    }
    (base, tuned)
}

/// Delta-CoMe low-budget compression wall time over SparseGPT-2★'s, best
/// of 3 each, on [`synthetic_pair`] of `cfg`. On `test_config`'s 16-wide
/// matrices Delta-CoMe would take `svd_leading`'s exact rule; the
/// `llama-tiny-l` shape takes its subspace iteration, as served.
fn compress_cost_ratio(cfg: ModelConfig) -> f64 {
    let (base, tuned) = synthetic_pair(cfg);
    let calib = dz_compress::calib::calibration_set(&Corpus::new(cfg.max_seq), 4, 0xCA11B);
    let best_of_3 = |codec: &dyn DeltaCodec| -> f64 {
        (0..3)
            .map(|_| {
                let t0 = Instant::now();
                codec.compress(&base, &tuned, &calib);
                t0.elapsed().as_secs_f64()
            })
            .fold(f64::MAX, f64::min)
    };
    best_of_3(&DeltaComeCodec::low_budget()) / best_of_3(&SparseGptCodec::starred(2))
}

/// Runs the smoke measurements. When `trace` is given, the cluster
/// cell's lanes and the overlapped swap and mixed toppings runs' lanes
/// land there as `smoke/*`. Tracing never perturbs the measured numbers
/// (the instrumentation is a no-op on the metrics path — pinned by a test
/// in `dz-serve`).
fn measure_traced(mut trace: Option<&mut Vec<TraceTrack>>) -> SmokeMetrics {
    // 1. Decode throughput: 2 MiB packed-delta corpus, LUT, best of 3.
    let corpus = packed_delta_like(2 << 20, 7);
    let compressed = dz_lossless::compress(&corpus);
    let mut best = f64::MAX;
    for _ in 0..3 {
        let t0 = Instant::now();
        dz_lossless::decompress(&compressed).expect("decode");
        best = best.min(t0.elapsed().as_secs_f64());
    }
    let decode_mb_s = corpus.len() as f64 / best / 1e6;

    // 2. Cluster tail latency: one placement-aware cell, fixed seed.
    let trace_cfg = trace.as_ref().map(|_| TraceConfig::default());
    let (report, tracks) =
        run_cluster_traced("placement-aware", 2, 1.5, 0.6, 40.0, None, trace_cfg);
    push_lanes(trace.as_deref_mut(), "smoke", tracks);
    let cluster_p99 = report.merged.e2e_percentile(0.99);

    // 3. Swap pipeline: overlapped vs serialized on the fixed-seed churn
    //    trace (simulated time: deterministic).
    let (overlapped, swap_log) = run_swap_traced("overlapped", 40.0, trace_cfg);
    let lane = swap_log.map(|log| TraceTrack {
        name: "swap-overlapped".into(),
        log,
    });
    push_lanes(trace.as_deref_mut(), "smoke", lane);
    let serialized = run_swap("serialized", 40.0);
    let swap_overlap_frac = overlapped.swap.overlap_fraction();
    let swap_warm_ttft = warm_ttft_p99(&overlapped);
    let swap_stall_ratio = if serialized.swap.stall_s > 0.0 {
        overlapped.swap.stall_s / serialized.swap.stall_s
    } else {
        0.0
    };

    // 4. Toppings pool: the mixed-kind batch on the interleaved variant
    //    catalog (simulated time: deterministic).
    let (mixed, toppings_log) = run_toppings_traced("mixed", 40.0, trace_cfg);
    let lane = toppings_log.map(|log| TraceTrack {
        name: "toppings-mixed".into(),
        log,
    });
    push_lanes(trace, "smoke", lane);
    let toppings_goodput = goodput(&mixed);
    let toppings_ttft = mixed.ttft_percentile(0.99);

    // 5. Chaos recovery: placement-aware fleet after a scripted replica
    //    crash (simulated time: deterministic). Recovery seconds and
    //    churn-window p99 inflation over the healthy baseline.
    let (chaos_recovery_s, chaos_inflation) = super::chaos::smoke_chaos_metrics();

    // 6. Fleet-scale routing: 1000-replica p2c cell at quick scale. The
    //    p99 is simulated (deterministic, tight bounds); the wall is the
    //    event core's real cost and bounded generously.
    let (fleet_wall_s, fleet_p2c_p99) = super::fleet::smoke_fleet_metrics();

    // 7. Codec packed ratios on the synthetic pair.
    let (base, tuned) = synthetic_pair(test_config());
    let calib = dz_compress::calib::calibration_set(&Corpus::new(base.config.max_seq), 4, 0xCA11B);
    let ratio_of = |codec: &dyn DeltaCodec| -> f64 {
        let (cd, _) = codec.compress(&base, &tuned, &calib);
        cd.report.delta_ratio()
    };
    let sgpt4 = ratio_of(&SparseGptCodec::starred(4));
    let bitdelta = ratio_of(&BitDeltaCodec::per_row());
    let deltacome = ratio_of(&DeltaComeCodec::low_budget());

    // 8. Delta-CoMe's compression cost against SparseGPT-2★'s on the
    //    llama-tiny-l shape. A missing preset reads as an infinite ratio,
    //    which the gate refuses.
    let deltacome_compress_ratio =
        preset("llama-tiny-l").map_or(f64::INFINITY, |p| compress_cost_ratio(p.config));

    SmokeMetrics {
        entries: vec![
            ("decode_mb_s", decode_mb_s),
            ("cluster_p99_e2e_s", cluster_p99),
            ("swap_overlap_frac", swap_overlap_frac),
            ("swap_warm_ttft_p99_s", swap_warm_ttft),
            ("swap_stall_ratio", swap_stall_ratio),
            ("chaos_recovery_s", chaos_recovery_s),
            ("chaos_churn_p99_inflation", chaos_inflation),
            ("fleet_1000_replica_wall_s", fleet_wall_s),
            ("fleet_p2c_p99_s", fleet_p2c_p99),
            ("toppings_mixed_goodput", toppings_goodput),
            ("toppings_mixed_ttft_p99_s", toppings_ttft),
            ("sparsegpt4_packed_ratio", sgpt4),
            ("bitdelta_packed_ratio", bitdelta),
            ("deltacome_packed_ratio", deltacome),
            ("deltacome_compress_ratio", deltacome_compress_ratio),
        ],
    }
}

/// The `bench-smoke` experiment: measures, renders, and writes
/// `BENCH_smoke.json`.
pub fn bench_smoke(
    out_dir: &Path,
    trace: Option<&mut Vec<TraceTrack>>,
) -> io::Result<(Report, SmokeMetrics)> {
    let metrics = measure_traced(trace);
    let mut body = Table::new(&metrics.entries)
        .md("metric", Plain, |(name, _)| *name)
        .md("value", Fix(3), |(_, v)| *v)
        .markdown();
    let json = BenchJson::new(
        "smoke",
        &[
            ("corpus_bytes", (2u64 << 20).to_string()),
            ("cluster", "\"placement-aware x2, zipf-1.5, 40s\"".into()),
            ("swap", "\"overlapped vs serialized, 40s\"".into()),
            (
                "chaos",
                format!(
                    "\"placement-aware recovery, quick scenario, seed {}\"",
                    super::chaos::CHAOS_SEED
                ),
            ),
            (
                "fleet",
                format!(
                    "\"1000-replica p2c, quick scale, seed {}\"",
                    super::fleet::FLEET_SEED
                ),
            ),
            (
                "toppings",
                "\"mixed pool, interleaved catalog, 40s\"".into(),
            ),
        ],
    )
    .object("metrics", Fix(4), &metrics.entries)
    .write(out_dir)?;
    body.push_str(&format!("\njson: {json}\n"));
    Ok((
        Report {
            id: "bench-smoke",
            title: "CI perf smoke: decode throughput, cluster p99, codec ratios",
            body,
        },
        metrics,
    ))
}

/// The `schema_version` a baseline file declares, if any (`None` for
/// pre-versioned baselines, which [`check_baseline`] still accepts).
pub fn baseline_schema_version(baseline_json: &str) -> Option<u64> {
    Value::parse_json(baseline_json)
        .ok()?
        .get("schema_version")?
        .as_f64()
        .map(|v| v as u64)
}

/// Compares measured metrics against a checked-in baseline file.
///
/// The baseline is a JSON object `{"schema_version": 1?, "metrics":
/// {"<name>": {"min": x?, "max": y?}, ...}}`: a metric regresses when it
/// falls below its `min` (throughput/ratio-style metrics) or above its
/// `max` (latency-style metrics). A missing `schema_version` is
/// tolerated (pre-versioned baselines); a version newer than
/// [`BENCH_SCHEMA_VERSION`] is an error, since the bounds may not mean
/// what this binary thinks they mean. Returns the list of violations
/// (empty = gate passes).
pub fn check_baseline(metrics: &SmokeMetrics, baseline_json: &str) -> Result<Vec<String>, String> {
    let root = Value::parse_json(baseline_json).map_err(|e| format!("baseline parse: {e}"))?;
    if let Some(v) = root.get("schema_version").and_then(Value::as_f64) {
        let v = v as u64;
        if v > BENCH_SCHEMA_VERSION {
            return Err(format!(
                "baseline schema_version {v} is newer than supported {BENCH_SCHEMA_VERSION}"
            ));
        }
    }
    let Some(Value::Object(entries)) = root.get("metrics") else {
        return Err("baseline has no `metrics` object".into());
    };
    let mut failures = Vec::new();
    for (name, bounds) in entries {
        let Some(measured) = metrics.get(name) else {
            failures.push(format!("metric `{name}` missing from smoke run"));
            continue;
        };
        let min = bounds.get("min").and_then(Value::as_f64);
        let max = bounds.get("max").and_then(Value::as_f64);
        if min.is_none() && max.is_none() {
            return Err(format!("baseline metric `{name}` has neither min nor max"));
        }
        if let Some(lo) = min {
            if measured < lo {
                failures.push(format!("{name}: {measured:.3} below baseline min {lo:.3}"));
            }
        }
        if let Some(hi) = max {
            if measured > hi {
                failures.push(format!("{name}: {measured:.3} above baseline max {hi:.3}"));
            }
        }
    }
    Ok(failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed_metrics() -> SmokeMetrics {
        SmokeMetrics {
            entries: vec![("decode_mb_s", 100.0), ("cluster_p99_e2e_s", 50.0)],
        }
    }

    #[test]
    fn baseline_within_bounds_passes() {
        let baseline = r#"{"metrics": {
            "decode_mb_s": {"min": 50.0},
            "cluster_p99_e2e_s": {"max": 60.0}
        }}"#;
        assert!(check_baseline(&fixed_metrics(), baseline)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn regressions_are_reported_per_metric() {
        let baseline = r#"{"metrics": {
            "decode_mb_s": {"min": 200.0},
            "cluster_p99_e2e_s": {"max": 10.0},
            "missing_metric": {"min": 1.0}
        }}"#;
        let failures = check_baseline(&fixed_metrics(), baseline).unwrap();
        assert_eq!(failures.len(), 3, "{failures:?}");
        assert!(failures.iter().any(|f| f.contains("below baseline min")));
        assert!(failures.iter().any(|f| f.contains("above baseline max")));
        assert!(failures
            .iter()
            .any(|f| f.contains("missing from smoke run")));
    }

    #[test]
    fn malformed_baseline_is_an_error_not_a_pass() {
        assert!(check_baseline(&fixed_metrics(), "not json").is_err());
        assert!(check_baseline(&fixed_metrics(), r#"{"no_metrics": 1}"#).is_err());
        let no_bounds = r#"{"metrics": {"decode_mb_s": {}}}"#;
        assert!(check_baseline(&fixed_metrics(), no_bounds).is_err());
    }

    #[test]
    fn baseline_schema_version_is_tolerated_and_gated() {
        // Current and pre-versioned baselines both pass.
        let current = r#"{"schema_version": 1, "metrics": {"decode_mb_s": {"min": 50.0}}}"#;
        assert!(check_baseline(&fixed_metrics(), current)
            .unwrap()
            .is_empty());
        assert_eq!(baseline_schema_version(current), Some(1));
        let unversioned = r#"{"metrics": {"decode_mb_s": {"min": 50.0}}}"#;
        assert!(check_baseline(&fixed_metrics(), unversioned)
            .unwrap()
            .is_empty());
        assert_eq!(baseline_schema_version(unversioned), None);
        // A future schema is an error, not a silent pass.
        let future = r#"{"schema_version": 99, "metrics": {"decode_mb_s": {"min": 50.0}}}"#;
        let err = check_baseline(&fixed_metrics(), future).unwrap_err();
        assert!(err.contains("schema_version 99"), "{err}");
    }

    #[test]
    fn synthetic_ratio_metrics_are_deterministic() {
        // The gate only works if re-running produces identical ratios.
        let a = measure_ratios_only();
        let b = measure_ratios_only();
        assert_eq!(a, b);
        // And the ratios are in sane ranges.
        assert!(a.iter().all(|&r| r > 2.0 && r < 64.0), "{a:?}");
    }

    fn measure_ratios_only() -> Vec<f64> {
        let (base, tuned) = synthetic_pair(test_config());
        let calib =
            dz_compress::calib::calibration_set(&Corpus::new(base.config.max_seq), 4, 0xCA11B);
        [
            &SparseGptCodec::starred(4) as &dyn DeltaCodec,
            &BitDeltaCodec::per_row(),
            &DeltaComeCodec::low_budget(),
        ]
        .into_iter()
        .map(|c| c.compress(&base, &tuned, &calib).0.report.delta_ratio())
        .collect()
    }
}
