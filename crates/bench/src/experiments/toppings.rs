//! Heterogeneous "toppings" batches: mixed-kind serving vs the
//! segregated-pool baseline.
//!
//! `bench-toppings` drives the unified engine over a fixed-seed Zipf
//! trace on the capacity-constrained 3090/7B node with an interleaved
//! variant catalog — base, LoRA, delta, and stacked delta+LoRA models all
//! receive traffic — and compares three modes:
//!
//! * `mixed` — one pool: delta-backed and pure-LoRA toppings co-batch
//!   under the `max_toppings_per_batch` cap; adapters fill batch slots
//!   while deltas swap in,
//! * `mixed-uncapped` — the same pool without the toppings cap (the SGMV
//!   grouping cost then grows with every co-batched adapter),
//! * `segregated` — delta-backed and pure-LoRA toppings never share an
//!   iteration (the paper's §8 coarse-grained co-serving baseline).
//!
//! The headline numbers are goodput (SLO-attaining requests per second of
//! makespan) and TTFT p99. Emits `BENCH_toppings.json`; two smoke metrics
//! feed the CI perf gate.

use super::Fmt::{Fix, Plain};
use super::{rtx3090_7b, run_modes, BenchJson, Report, Scale, Table};
use dz_serve::{
    DeltaZipConfig, Engine, EngineBuilder, Metrics, TraceConfig, TraceLog, TraceTrack,
    VariantCatalog,
};
use dz_workload::{PopularityDist, Trace, TraceSpec};
use std::io;
use std::path::Path;

const N_MODELS: usize = 24;
const ADAPTER_RANK: usize = 16;
/// Distinct non-base toppings allowed per iteration in the capped modes.
pub const TOPPINGS_CAP: usize = 4;
/// The goodput SLO: a request attains service when its E2E stays under
/// this bound.
pub const GOODPUT_SLO_E2E_S: f64 = 40.0;
/// Mode ids swept by the experiment.
pub const MODES: [&str; 3] = ["mixed", "mixed-uncapped", "segregated"];

fn toppings_trace(duration_s: f64) -> Trace {
    Trace::generate(TraceSpec {
        n_models: N_MODELS,
        arrival_rate: 1.5,
        duration_s,
        popularity: PopularityDist::Zipf { alpha: 1.2 },
        seed: 0x7019,
    })
}

/// Runs one toppings-bench mode (also reused by the `bench-smoke` perf
/// gate). The catalog interleaves all four variant kinds across
/// `N_MODELS` models; only the pool policy differs between modes. When
/// `trace_cfg` is set the engine records its event log, returned
/// alongside the metrics.
pub fn run_toppings_traced(
    mode: &str,
    duration_s: f64,
    trace_cfg: Option<TraceConfig>,
) -> (Metrics, Option<TraceLog>) {
    // The small node: GPU holds only a few deltas next to the base, so
    // delta-backed toppings churn while adapters are always resident.
    let cost = rtx3090_7b();
    let trace = toppings_trace(duration_s);
    let cap = match mode {
        "mixed" | "segregated" => Some(TOPPINGS_CAP),
        "mixed-uncapped" => None,
        other => panic!("unknown toppings mode {other}"),
    };
    let mut builder = EngineBuilder::new(cost)
        .scheduler(DeltaZipConfig {
            max_concurrent_deltas: 2,
            max_batch: 32,
            host_capacity_deltas: Some(6),
            max_toppings_per_batch: cap,
            segregate_kinds: mode == "segregated",
            ..DeltaZipConfig::default()
        })
        .catalog(VariantCatalog::interleaved(N_MODELS, ADAPTER_RANK));
    if let Some(cfg) = trace_cfg {
        builder = builder.tracing(cfg);
    }
    let mut engine = builder.build();
    let m = engine.run(&trace);
    let log = engine.tracer.take_log();
    (m, log)
}

/// SLO-attaining requests per second of makespan.
pub fn goodput(m: &Metrics) -> f64 {
    if m.makespan_s > 0.0 {
        m.len() as f64 * m.slo_attainment_e2e(GOODPUT_SLO_E2E_S) / m.makespan_s
    } else {
        0.0
    }
}

/// The `bench-toppings` experiment. When `trace` is given, each mode's
/// engine event log lands there as a `toppings/<mode>` lane.
pub fn bench_toppings(
    scale: Scale,
    out_dir: &Path,
    trace: Option<&mut Vec<TraceTrack>>,
) -> io::Result<Report> {
    let duration_s = match scale {
        Scale::Full => 150.0,
        Scale::Quick => 60.0,
    };
    let runs = run_modes("toppings", &MODES, trace, |mode, cfg| {
        run_toppings_traced(mode, duration_s, cfg)
    });
    let table = Table::new(&runs)
        .col("mode", Plain, "mode", Plain, |(mode, _)| *mode)
        .col("requests", Plain, "requests", Plain, |(_, m)| m.len())
        .col(
            "goodput (req/s)",
            Fix(3),
            "goodput_rps",
            Fix(4),
            |(_, m)| goodput(m),
        )
        .col("TTFT p99 (s)", Fix(2), "ttft_p99_s", Fix(4), |(_, m)| {
            m.ttft_percentile(0.99)
        })
        .col("E2E p99 (s)", Fix(2), "e2e_p99_s", Fix(4), |(_, m)| {
            m.e2e_percentile(0.99)
        })
        .col("batches", Plain, "batches", Plain, |(_, m)| {
            m.toppings.batches
        })
        .col("mixed", Plain, "mixed_batches", Plain, |(_, m)| {
            m.toppings.mixed_batches
        })
        .col(
            "max toppings",
            Plain,
            "max_toppings_in_batch",
            Plain,
            |(_, m)| m.toppings.max_toppings_in_batch,
        )
        .col("base GEMM (s)", Fix(1), "base_gemm_s", Fix(4), |(_, m)| {
            m.toppings.base_gemm_s
        })
        .col("SBMM (s)", Fix(1), "sbmm_s", Fix(4), |(_, m)| {
            m.toppings.sbmm_s
        })
        .col("SGMV (s)", Fix(1), "sgmv_s", Fix(4), |(_, m)| {
            m.toppings.sgmv_s
        });
    let mut body = format!(
        "Toppings pools on the 3090/7B node (Zipf-1.2, {N_MODELS} models, interleaved\n\
         base/LoRA/delta/stacked catalog, rank {ADAPTER_RANK}). Goodput counts requests\n\
         finishing under the {GOODPUT_SLO_E2E_S:.0} s E2E SLO per second of makespan:\n\n"
    );
    body.push_str(&table.markdown());
    body.push_str(
        "\nThe mixed pool fills batch slots with resident adapters while\n\
         delta-backed toppings swap in; the segregated baseline leaves those\n\
         slots empty whenever the other pool holds the iteration.\n",
    );
    let json = BenchJson::new(
        "toppings",
        &[
            ("n_models", N_MODELS.to_string()),
            ("adapter_rank", ADAPTER_RANK.to_string()),
            ("toppings_cap", TOPPINGS_CAP.to_string()),
            ("arrival_rate", "1.5".into()),
            ("duration_s", format!("{duration_s:.1}")),
            ("zipf_alpha", "1.2".into()),
            ("slo_e2e_s", format!("{GOODPUT_SLO_E2E_S:.1}")),
            ("seed", "28697".into()),
        ],
    )
    .rows("modes", &table)
    .write(out_dir)?;
    body.push_str(&format!("\njson: {json}\n"));
    Ok(Report {
        id: "bench-toppings",
        title: "Mixed-kind toppings batches vs the segregated-pool baseline",
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_pool_beats_segregated_on_goodput() {
        // The acceptance gate: co-batching adapters with swapping deltas
        // must not lose goodput against the segregated-pool baseline.
        let mixed = run_toppings_traced("mixed", 60.0, None).0;
        let segregated = run_toppings_traced("segregated", 60.0, None).0;
        assert_eq!(mixed.len(), segregated.len());
        let (gm, gs) = (goodput(&mixed), goodput(&segregated));
        assert!(
            gm >= gs,
            "mixed goodput {gm} must not lose to segregated {gs}"
        );
        // Segregation really did keep the pools apart, and mixing really
        // did co-batch them.
        assert_eq!(segregated.toppings.mixed_batches, 0);
        assert!(mixed.toppings.mixed_batches > 0);
    }

    #[test]
    fn capped_modes_respect_the_toppings_cap() {
        for mode in ["mixed", "segregated"] {
            let m = run_toppings_traced(mode, 60.0, None).0;
            assert!(
                m.toppings.max_toppings_in_batch <= TOPPINGS_CAP,
                "{mode}: {} toppings over cap {TOPPINGS_CAP}",
                m.toppings.max_toppings_in_batch
            );
        }
        // The uncapped pool actually uses the freedom the cap removes.
        let uncapped = run_toppings_traced("mixed-uncapped", 60.0, None).0;
        assert!(uncapped.toppings.max_toppings_in_batch > TOPPINGS_CAP);
    }

    #[test]
    fn all_kinds_receive_traffic_and_kernel_charges_split() {
        let m = run_toppings_traced("mixed", 60.0, None).0;
        let t = &m.toppings;
        assert_eq!(t.total_reqs(), m.len());
        assert!(t.base_reqs > 0 && t.lora_reqs > 0);
        assert!(t.delta_reqs > 0 && t.stacked_reqs > 0);
        // Every kernel family was charged: shared base work always, SBMM
        // for the delta-backed kinds, SGMV for the adapter-backed ones.
        assert!(t.base_gemm_s > 0.0 && t.sbmm_s > 0.0 && t.sgmv_s > 0.0);
    }
}
