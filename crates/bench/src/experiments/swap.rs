//! Overlapped delta swapping vs the serialized-load baseline, with and
//! without predictive prefetch.
//!
//! `bench-swap` drives the [`dz_serve::DeltaZipEngine`] over a fixed-seed
//! Zipf trace on the capacity-constrained 3090/7B node — deltas churn
//! through GPU and host tiers, so cold loads co-batch with warm traffic
//! constantly — and compares four modes:
//!
//! * `serialized` — the legacy whole-batch stall (every missing delta
//!   charged up front, everyone waits on the sum),
//! * `overlapped` — loads progress on the bandwidth-shared transfer
//!   timeline while the resident sub-batch decodes; each request stalls
//!   only until its own delta lands,
//! * `overlap+lookahead` — plus queue-lookahead prefetch,
//! * `overlap+popularity` — plus popularity-driven prefetch.
//!
//! The headline number is the warm-request tail: TTFT p99 of requests to
//! the hottest model (whose delta is essentially always resident), which
//! the serialized baseline pollutes with other models' swap-in waits.
//! Emits `BENCH_swap.json`; two smoke metrics feed the CI perf gate.

use super::{json_provenance, md_table, rtx3090_7b, Report, Scale};
use dz_serve::swap::{PopularityPrefetch, QueueLookahead};
use dz_serve::{
    CauseBreakdown, DeltaZipConfig, DeltaZipEngine, Engine, Metrics, TraceConfig, TraceLog,
    TraceTrack, CAUSE_NAMES,
};
use dz_workload::{PopularityDist, Trace, TraceSpec};
use serde::Serialize;

const N_MODELS: usize = 16;
/// The hottest model: its delta is effectively always GPU-resident, so
/// its requests are the "warm co-batched with cold" population.
pub const WARM_MODEL: usize = 0;
/// Mode ids swept by the experiment.
pub const MODES: [&str; 4] = [
    "serialized",
    "overlapped",
    "overlap+lookahead",
    "overlap+popularity",
];

fn swap_trace(duration_s: f64) -> Trace {
    Trace::generate(TraceSpec {
        n_models: N_MODELS,
        arrival_rate: 1.2,
        duration_s,
        popularity: PopularityDist::Zipf { alpha: 1.2 },
        seed: 0x5A11,
    })
}

/// Runs one swap-bench mode (also reused by the `bench-smoke` perf gate).
pub fn run_swap(mode: &str, duration_s: f64) -> Metrics {
    run_swap_traced(mode, duration_s, None).0
}

/// [`run_swap`] with optional event tracing: when `trace_cfg` is set the
/// engine records its event log, returned alongside the metrics.
pub fn run_swap_traced(
    mode: &str,
    duration_s: f64,
    trace_cfg: Option<TraceConfig>,
) -> (Metrics, Option<TraceLog>) {
    // The small node: GPU holds only a few deltas next to the base and
    // the host cache is bounded, so swap traffic never stops.
    let cost = rtx3090_7b();
    let trace = swap_trace(duration_s);
    let config = DeltaZipConfig {
        max_concurrent_deltas: 2,
        max_batch: 32,
        host_capacity_deltas: Some(6),
        overlap_swaps: mode != "serialized",
        ..DeltaZipConfig::default()
    };
    let mut engine = DeltaZipEngine::new(cost, config);
    engine = match mode {
        "overlap+lookahead" => engine.with_prefetcher(Box::new(QueueLookahead::new(4))),
        "overlap+popularity" => engine.with_prefetcher(Box::new(PopularityPrefetch::new(
            trace.spec.popularity,
            N_MODELS,
            4,
        ))),
        "serialized" | "overlapped" => engine,
        other => panic!("unknown swap mode {other}"),
    };
    if let Some(cfg) = trace_cfg {
        engine = engine.with_tracing(cfg);
    }
    let m = engine.run(&trace);
    let log = engine.tracer.take_log();
    (m, log)
}

/// TTFT p99 of the warm-model requests.
pub fn warm_ttft_p99(m: &Metrics) -> f64 {
    m.subset("warm".into(), |r| r.model == WARM_MODEL)
        .ttft_percentile(0.99)
}

struct Row {
    mode: &'static str,
    requests: usize,
    warm_ttft_p99_s: f64,
    ttft_p99_s: f64,
    e2e_p99_s: f64,
    mean_load_s: f64,
    overlap_frac: f64,
    stall_s: f64,
    serialized_stall_s: f64,
    prefetch_issued: usize,
    prefetch_hit_rate: f64,
    attribution: CauseBreakdown,
}

fn measure(
    mode: &'static str,
    duration_s: f64,
    trace_cfg: Option<TraceConfig>,
) -> (Row, Option<TraceLog>) {
    let (m, log) = run_swap_traced(mode, duration_s, trace_cfg);
    let mean_load = if m.is_empty() {
        0.0
    } else {
        m.records.iter().map(|r| r.load_s).sum::<f64>() / m.len() as f64
    };
    let row = Row {
        mode,
        requests: m.len(),
        warm_ttft_p99_s: warm_ttft_p99(&m),
        ttft_p99_s: m.ttft_percentile(0.99),
        e2e_p99_s: m.e2e_percentile(0.99),
        mean_load_s: mean_load,
        overlap_frac: m.swap.overlap_fraction(),
        stall_s: m.swap.stall_s,
        serialized_stall_s: m.swap.serialized_stall_s,
        prefetch_issued: m.swap.prefetch_issued,
        prefetch_hit_rate: m.swap.prefetch_hit_rate(),
        attribution: m.attribution(0.99),
    };
    (row, log)
}

/// The `bench-swap` experiment. When `trace` is given, each mode's engine
/// event log lands there as a `swap/<mode>` lane.
pub fn bench_swap(
    scale: Scale,
    out_dir: &std::path::Path,
    mut trace: Option<&mut Vec<TraceTrack>>,
) -> Report {
    let duration_s = match scale {
        Scale::Full => 150.0,
        Scale::Quick => 60.0,
    };
    let trace_cfg = trace.as_ref().map(|_| TraceConfig::default());
    let rows: Vec<Row> = MODES
        .iter()
        .map(|m| {
            let (row, log) = measure(m, duration_s, trace_cfg);
            if let (Some(tracks), Some(log)) = (trace.as_deref_mut(), log) {
                tracks.push(TraceTrack {
                    name: format!("swap/{m}"),
                    log,
                });
            }
            row
        })
        .collect();
    let mut body = String::from(
        "Swap modes on the 3090/7B node (Zipf-1.2, 16 models, bounded host cache).\n\
         `warm TTFT p99` is the tail of the hottest model's requests — the\n\
         population the serialized whole-batch stall pollutes:\n\n",
    );
    body.push_str(&md_table(
        &[
            "mode",
            "requests",
            "warm TTFT p99 (s)",
            "TTFT p99 (s)",
            "E2E p99 (s)",
            "mean load (s)",
            "overlap",
            "stall (s)",
            "serial charge (s)",
            "prefetches",
            "pf hit rate",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.mode.to_string(),
                    r.requests.to_string(),
                    format!("{:.2}", r.warm_ttft_p99_s),
                    format!("{:.2}", r.ttft_p99_s),
                    format!("{:.2}", r.e2e_p99_s),
                    format!("{:.3}", r.mean_load_s),
                    format!("{:.0}%", r.overlap_frac * 100.0),
                    format!("{:.1}", r.stall_s),
                    format!("{:.1}", r.serialized_stall_s),
                    r.prefetch_issued.to_string(),
                    format!("{:.0}%", r.prefetch_hit_rate * 100.0),
                ]
            })
            .collect::<Vec<_>>(),
    ));
    body.push_str(
        "\nWhere did the p99 go — mean attributed seconds over tail requests\n\
         (e2e at or beyond the p99 threshold), per cause:\n\n",
    );
    let mut attr_header = vec!["mode", "tail n", "threshold (s)"];
    attr_header.extend(CAUSE_NAMES);
    body.push_str(&md_table(
        &attr_header,
        &rows
            .iter()
            .map(|r| {
                let a = &r.attribution;
                let mut row = vec![
                    r.mode.to_string(),
                    a.n_tail.to_string(),
                    format!("{:.2}", a.tail_threshold_s),
                ];
                let shares = a.tail_share();
                for (i, v) in a.tail_mean.as_array().iter().enumerate() {
                    row.push(format!("{v:.2} ({:.0}%)", shares[i] * 100.0));
                }
                row
            })
            .collect::<Vec<_>>(),
    ));
    match write_json(&rows, duration_s, out_dir) {
        Ok(path) => body.push_str(&format!("\njson: {path}\n")),
        Err(e) => body.push_str(&format!("\njson write failed: {e}\n")),
    }
    Report {
        id: "bench-swap",
        title: "Overlapped swapping + prefetch vs the serialized-load baseline",
        body,
    }
}

fn write_json(rows: &[Row], duration_s: f64, dir: &std::path::Path) -> std::io::Result<String> {
    std::fs::create_dir_all(dir)?;
    let mut json = String::from("{\n");
    json.push_str(&json_provenance(
        "bench-swap",
        &[
            ("n_models", N_MODELS.to_string()),
            ("arrival_rate", "1.2".into()),
            ("duration_s", format!("{duration_s:.1}")),
            ("zipf_alpha", "1.2".into()),
            ("seed", "23057".into()),
        ],
    ));
    json.push_str("  \"modes\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"mode\": \"{}\", \"requests\": {}, \"warm_ttft_p99_s\": {:.4}, \
             \"ttft_p99_s\": {:.4}, \"e2e_p99_s\": {:.4}, \"mean_load_s\": {:.4}, \
             \"overlap_frac\": {:.4}, \"stall_s\": {:.4}, \"serialized_stall_s\": {:.4}, \
             \"prefetch_issued\": {}, \"prefetch_hit_rate\": {:.4}, \
             \"p99_attribution\": {}}}{}\n",
            r.mode,
            r.requests,
            r.warm_ttft_p99_s,
            r.ttft_p99_s,
            r.e2e_p99_s,
            r.mean_load_s,
            r.overlap_frac,
            r.stall_s,
            r.serialized_stall_s,
            r.prefetch_issued,
            r.prefetch_hit_rate,
            r.attribution.to_value().to_json(),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = dir.join("BENCH_swap.json");
    std::fs::write(&path, json)?;
    Ok(path.display().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlapped_beats_serialized_on_warm_tail() {
        // The acceptance gate: warm requests co-batched with cold deltas
        // must see a strictly better TTFT p99 once loads overlap decode.
        let serialized = run_swap("serialized", 60.0);
        let overlapped = run_swap("overlapped", 60.0);
        assert_eq!(serialized.len(), overlapped.len());
        let (ws, wo) = (warm_ttft_p99(&serialized), warm_ttft_p99(&overlapped));
        assert!(
            wo < ws,
            "overlapped warm TTFT p99 {wo} must beat serialized {ws}"
        );
        // Overlap hides load time; the serialized baseline hides none.
        assert!(overlapped.swap.overlap_fraction() > 0.0);
        assert_eq!(serialized.swap.overlapped_s, 0.0);
        // Per-request stalls never exceed the whole-batch charges.
        assert!(overlapped.swap.stall_s <= serialized.swap.stall_s);
    }

    #[test]
    fn prefetch_modes_issue_and_hit() {
        let plain = run_swap("overlapped", 60.0);
        for mode in ["overlap+lookahead", "overlap+popularity"] {
            let m = run_swap(mode, 60.0);
            assert!(m.swap.prefetch_issued > 0, "{mode} must prefetch");
            assert!(
                m.swap.prefetch_hit_rate() > 0.0,
                "{mode} prefetches must hit"
            );
            // Prewarming hides more load time and never adds stalls.
            assert!(
                m.swap.stall_s <= plain.swap.stall_s * 1.05,
                "{mode} stalls {} vs plain {}",
                m.swap.stall_s,
                plain.swap.stall_s
            );
        }
        // Queue-lookahead (which prewarms what is *actually* queued, not
        // just what is popular) must also win the warm tail.
        let lookahead = run_swap("overlap+lookahead", 60.0);
        assert!(
            warm_ttft_p99(&lookahead) <= warm_ttft_p99(&plain) * 1.10,
            "lookahead warm tail {} vs plain {}",
            warm_ttft_p99(&lookahead),
            warm_ttft_p99(&plain)
        );
    }
}
