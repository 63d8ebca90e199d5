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

use super::Fmt::{Fix, Pct, Plain};
use super::{rtx3090_7b, run_modes, BenchJson, Report, Scale, Table};
use dz_serve::swap::{PopularityPrefetch, QueueLookahead};
use dz_serve::{
    DeltaZipConfig, Engine, EngineBuilder, Metrics, TraceConfig, TraceLog, TraceTrack, CAUSE_NAMES,
};
use dz_workload::{PopularityDist, Trace, TraceSpec};
use serde::Serialize;
use std::io;
use std::path::Path;

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
    let mut builder = EngineBuilder::new(cost).scheduler(config);
    builder = match mode {
        "overlap+lookahead" => builder.prefetcher(Box::new(QueueLookahead::new(4))),
        "overlap+popularity" => builder.prefetcher(Box::new(PopularityPrefetch::new(
            trace.spec.popularity,
            N_MODELS,
            4,
        ))),
        "serialized" | "overlapped" => builder,
        other => panic!("unknown swap mode {other}"),
    };
    if let Some(cfg) = trace_cfg {
        builder = builder.tracing(cfg);
    }
    let mut engine = builder.build();
    let m = engine.run(&trace);
    let log = engine.tracer.take_log();
    (m, log)
}

/// TTFT p99 of the warm-model requests.
pub fn warm_ttft_p99(m: &Metrics) -> f64 {
    m.subset("warm".into(), |r| r.model == WARM_MODEL)
        .ttft_percentile(0.99)
}

/// The `bench-swap` experiment. When `trace` is given, each mode's engine
/// event log lands there as a `swap/<mode>` lane.
pub fn bench_swap(
    scale: Scale,
    out_dir: &Path,
    trace: Option<&mut Vec<TraceTrack>>,
) -> io::Result<Report> {
    let duration_s = match scale {
        Scale::Full => 150.0,
        Scale::Quick => 60.0,
    };
    let runs: Vec<_> = run_modes("swap", &MODES, trace, |mode, cfg| {
        run_swap_traced(mode, duration_s, cfg)
    })
    .into_iter()
    .map(|(mode, m)| (mode, m.attribution(0.99), m))
    .collect();
    let table = Table::new(&runs)
        .col("mode", Plain, "mode", Plain, |(mode, _, _)| *mode)
        .col("requests", Plain, "requests", Plain, |(_, _, m)| m.len())
        .col(
            "warm TTFT p99 (s)",
            Fix(2),
            "warm_ttft_p99_s",
            Fix(4),
            |(_, _, m)| warm_ttft_p99(m),
        )
        .col("TTFT p99 (s)", Fix(2), "ttft_p99_s", Fix(4), |(_, _, m)| {
            m.ttft_percentile(0.99)
        })
        .col("E2E p99 (s)", Fix(2), "e2e_p99_s", Fix(4), |(_, _, m)| {
            m.e2e_percentile(0.99)
        })
        .col(
            "mean load (s)",
            Fix(3),
            "mean_load_s",
            Fix(4),
            |(_, _, m)| m.records.iter().map(|r| r.load_s).sum::<f64>() / m.len().max(1) as f64,
        )
        .col("overlap", Pct(0), "overlap_frac", Fix(4), |(_, _, m)| {
            m.swap.overlap_fraction()
        })
        .col("stall (s)", Fix(1), "stall_s", Fix(4), |(_, _, m)| {
            m.swap.stall_s
        })
        .col(
            "serial charge (s)",
            Fix(1),
            "serialized_stall_s",
            Fix(4),
            |(_, _, m)| m.swap.serialized_stall_s,
        )
        .col(
            "prefetches",
            Plain,
            "prefetch_issued",
            Plain,
            |(_, _, m)| m.swap.prefetch_issued,
        )
        .col(
            "pf hit rate",
            Pct(0),
            "prefetch_hit_rate",
            Fix(4),
            |(_, _, m)| m.swap.prefetch_hit_rate(),
        )
        .json("p99_attribution", Plain, |(_, a, _)| a.to_value());
    let mut attribution = Table::new(&runs)
        .md("mode", Plain, |(mode, _, _)| *mode)
        .md("tail n", Plain, |(_, a, _)| a.n_tail)
        .md("threshold (s)", Fix(2), |(_, a, _)| a.tail_threshold_s);
    for (i, cause) in CAUSE_NAMES.iter().enumerate() {
        attribution = attribution.md(cause, Plain, move |(_, a, _)| {
            let (mean, share) = (a.tail_mean.as_array()[i], a.tail_share()[i]);
            format!("{mean:.2} ({:.0}%)", share * 100.0)
        });
    }
    let mut body = String::from(
        "Swap modes on the 3090/7B node (Zipf-1.2, 16 models, bounded host cache).\n\
         `warm TTFT p99` is the tail of the hottest model's requests — the\n\
         population the serialized whole-batch stall pollutes:\n\n",
    );
    body.push_str(&table.markdown());
    body.push_str(
        "\nWhere did the p99 go — mean attributed seconds over tail requests\n\
         (e2e at or beyond the p99 threshold), per cause:\n\n",
    );
    body.push_str(&attribution.markdown());
    let json = BenchJson::new(
        "swap",
        &[
            ("n_models", N_MODELS.to_string()),
            ("arrival_rate", "1.2".into()),
            ("duration_s", format!("{duration_s:.1}")),
            ("zipf_alpha", "1.2".into()),
            ("seed", "23057".into()),
        ],
    )
    .rows("modes", &table)
    .write(out_dir)?;
    body.push_str(&format!("\njson: {json}\n"));
    Ok(Report {
        id: "bench-swap",
        title: "Overlapped swapping + prefetch vs the serialized-load baseline",
        body,
    })
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
