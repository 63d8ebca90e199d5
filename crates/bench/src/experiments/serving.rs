//! End-to-end serving figures: 10-16, 18, 19.

use super::{md_table, Report};
use dz_gpusim::shapes::ModelShape;
use dz_gpusim::spec::NodeSpec;
use dz_serve::{
    CostModel, DeltaZipConfig, DeltaZipEngine, Engine, EngineBuilder, Metrics, PreemptionPolicy,
    VariantCatalog, VariantSpec, VllmScbConfig, VllmScbEngine,
};
use dz_workload::{PopularityDist, Trace, TraceSpec};

fn a800_13b() -> CostModel {
    CostModel::new(NodeSpec::a800_node(4), ModelShape::llama13b())
}

/// Variants behind the 13B node.
const N_MODELS_13B: usize = 32;

fn trace_13b(rate: f64, pop: PopularityDist, seed: u64) -> Trace {
    Trace::generate(TraceSpec {
        n_models: N_MODELS_13B,
        arrival_rate: rate,
        duration_s: 300.0,
        popularity: pop,
        seed,
    })
}

fn dz_engine(cost: CostModel, n: usize) -> DeltaZipEngine {
    DeltaZipEngine::new(
        cost,
        DeltaZipConfig {
            max_concurrent_deltas: n,
            ..DeltaZipConfig::default()
        },
    )
}

/// Adapter serving: every 13B variant is a rank-`rank` LoRA adapter.
fn lora_engine(cost: CostModel, rank: usize) -> DeltaZipEngine {
    let specs = vec![VariantSpec::lora(rank); N_MODELS_13B];
    EngineBuilder::new(cost)
        .catalog(VariantCatalog::from_specs(specs))
        .build()
}

fn dist_name(pop: PopularityDist) -> &'static str {
    match pop {
        PopularityDist::Uniform => "uniform",
        PopularityDist::Zipf { .. } => "zipf-1.5",
        PopularityDist::AzureLike => "azure",
    }
}

/// Figure 10: mean time per token vs `N`, several (rate, skew) settings.
pub fn fig10() -> Report {
    let cost = CostModel::new(NodeSpec::rtx3090_node(2), ModelShape::llama7b());
    let mut rows = Vec::new();
    let configs: Vec<(f64, f64)> = vec![
        (3.0, 4.0),
        (3.5, 4.0),
        (4.0, 3.0),
        (4.0, 4.0),
        (4.0, 5.0),
        (5.0, 4.0),
    ];
    for n in 1..=6usize {
        let mut row = vec![format!("{n}")];
        for &(rate, alpha) in &configs {
            let trace = Trace::generate(TraceSpec {
                n_models: 12,
                arrival_rate: rate,
                duration_s: 25.0,
                popularity: PopularityDist::Zipf { alpha },
                seed: 0x10 + (rate * 10.0) as u64 + alpha as u64,
            });
            let m = dz_engine(cost, n).run(&trace);
            row.push(format!("{:.3}", m.mean_time_per_token()));
        }
        rows.push(row);
    }
    let header: Vec<String> = std::iter::once("N".to_string())
        .chain(configs.iter().map(|(r, a)| format!("ar={r},zipf:{a}")))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    Report {
        id: "fig10",
        title: "Mean time per token (s) vs number of concurrent deltas N",
        body: md_table(&header_refs, &rows),
    }
}

fn grid() -> Vec<(f64, PopularityDist)> {
    let dists = [
        PopularityDist::AzureLike,
        PopularityDist::Uniform,
        PopularityDist::Zipf { alpha: 1.5 },
    ];
    let mut out = Vec::new();
    for pop in dists {
        for rate in [0.5, 1.0] {
            out.push((rate, pop));
        }
    }
    out
}

fn run_three(rate: f64, pop: PopularityDist, seed: u64) -> (Metrics, Metrics, Metrics) {
    let cost = a800_13b();
    let trace = trace_13b(rate, pop, seed);
    let vllm = VllmScbEngine::new(cost, VllmScbConfig::default()).run(&trace);
    let dz8 = dz_engine(cost, 8).run(&trace);
    let dz12 = dz_engine(cost, 12).run(&trace);
    (vllm, dz8, dz12)
}

/// Figure 11: throughput (requests/s) across the (rate, distribution) grid.
pub fn fig11() -> Report {
    let mut rows = Vec::new();
    for (rate, pop) in grid() {
        let (vllm, dz8, dz12) = run_three(rate, pop, 0x11);
        rows.push(vec![
            dist_name(pop).to_string(),
            format!("{rate}"),
            format!("{:.2}", vllm.throughput_rps()),
            format!("{:.2}", dz8.throughput_rps()),
            format!("{:.2}", dz12.throughput_rps()),
            format!(
                "{:.1}x",
                dz8.throughput_rps() / vllm.throughput_rps().max(1e-9)
            ),
        ]);
    }
    Report {
        id: "fig11",
        title: "Throughput (req/s): vLLM+SCB vs DeltaZip (N=8, N=12), 13B",
        body: md_table(
            &[
                "distribution",
                "rate",
                "vLLM+SCB",
                "DeltaZip N=8",
                "DeltaZip N=12",
                "speedup(N=8)",
            ],
            &rows,
        ),
    }
}

/// Figure 12: mean E2E latency and TTFT across the same grid.
pub fn fig12() -> Report {
    let mut rows = Vec::new();
    for (rate, pop) in grid() {
        let (vllm, dz8, dz12) = run_three(rate, pop, 0x12);
        rows.push(vec![
            dist_name(pop).to_string(),
            format!("{rate}"),
            format!("{:.1} / {:.1}", vllm.mean_e2e(), vllm.mean_ttft()),
            format!("{:.1} / {:.1}", dz8.mean_e2e(), dz8.mean_ttft()),
            format!("{:.1} / {:.1}", dz12.mean_e2e(), dz12.mean_ttft()),
        ]);
    }
    Report {
        id: "fig12",
        title: "Mean E2E latency / TTFT (s) across rates and distributions, 13B",
        body: md_table(
            &[
                "distribution",
                "rate",
                "vLLM+SCB",
                "DeltaZip N=8",
                "DeltaZip N=12",
            ],
            &rows,
        ),
    }
}

/// Figure 13: SLO attainment curves (E2E and TTFT), Azure distribution.
pub fn fig13() -> Report {
    let mut body = String::new();
    for rate in [0.5, 1.0] {
        let (vllm, dz8, dz12) = run_three(rate, PopularityDist::AzureLike, 0x13);
        for (metric, ttft) in [("E2E", false), ("TTFT", true)] {
            let thresholds: Vec<f64> = vec![1.0, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0, 900.0];
            let mut rows = Vec::new();
            for &thr in &thresholds {
                let grab = |m: &Metrics| {
                    if ttft {
                        m.slo_attainment_ttft(thr)
                    } else {
                        m.slo_attainment_e2e(thr)
                    }
                };
                rows.push(vec![
                    format!("{thr}"),
                    format!("{:.2}", grab(&vllm)),
                    format!("{:.2}", grab(&dz8)),
                    format!("{:.2}", grab(&dz12)),
                ]);
            }
            body.push_str(&format!("\n### rate={rate}, {metric} SLO\n\n"));
            body.push_str(&md_table(
                &["SLO (s)", "vLLM+SCB", "DeltaZip N=8", "DeltaZip N=12"],
                &rows,
            ));
        }
    }
    Report {
        id: "fig13",
        title: "SLO attainment, Azure-like distribution, 13B",
        body,
    }
}

/// Figure 14: serving LoRA vs FMT variants on both systems.
pub fn fig14() -> Report {
    let cost = a800_13b();
    let trace = trace_13b(0.75, PopularityDist::Zipf { alpha: 1.5 }, 0x14);
    // LoRA node: both systems use the Punica path (DeltaZip inherits it).
    let lora = lora_engine(cost, 16).run(&trace);
    // FMT node: baseline swaps full models, DeltaZip serves deltas.
    let fmt_vllm = VllmScbEngine::new(cost, VllmScbConfig::default()).run(&trace);
    let fmt_dz = dz_engine(cost, 8).run(&trace);
    let rows = vec![
        vec![
            "LoRA".into(),
            format!("{:.1}", lora.mean_e2e()),
            format!("{:.2}", lora.mean_ttft()),
            format!("{:.1}", lora.mean_e2e()),
            format!("{:.2}", lora.mean_ttft()),
        ],
        vec![
            "FMT".into(),
            format!("{:.1}", fmt_vllm.mean_e2e()),
            format!("{:.2}", fmt_vllm.mean_ttft()),
            format!("{:.1}", fmt_dz.mean_e2e()),
            format!("{:.2}", fmt_dz.mean_ttft()),
        ],
    ];
    Report {
        id: "fig14",
        title: "E2E / TTFT serving LoRA and FMT variants (s)",
        body: md_table(
            &[
                "workload",
                "vLLM E2E",
                "vLLM TTFT",
                "DeltaZip E2E",
                "DeltaZip TTFT",
            ],
            &rows,
        ),
    }
}

/// Figure 15: latency vs arrival rate for delta / full-model / LoRA serving.
pub fn fig15() -> Report {
    let cost = a800_13b();
    let mut rows = Vec::new();
    for rate in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let trace = trace_13b(rate, PopularityDist::Uniform, 0x15);
        let dz = dz_engine(cost, 8).run(&trace);
        let full = VllmScbEngine::new(cost, VllmScbConfig::default()).run(&trace);
        let l16 = lora_engine(cost, 16).run(&trace);
        let l64 = lora_engine(cost, 64).run(&trace);
        rows.push(vec![
            format!("{rate}"),
            format!("{:.1} / {:.2}", dz.mean_e2e(), dz.mean_ttft()),
            format!("{:.1} / {:.2}", full.mean_e2e(), full.mean_ttft()),
            format!("{:.1} / {:.2}", l16.mean_e2e(), l16.mean_ttft()),
            format!("{:.1} / {:.2}", l64.mean_e2e(), l64.mean_ttft()),
        ]);
    }
    Report {
        id: "fig15",
        title: "Mean E2E / TTFT (s) vs arrival rate",
        body: md_table(
            &[
                "rate",
                "Compressed Delta",
                "Full Model",
                "LoRA r=16",
                "LoRA r=64",
            ],
            &rows,
        ),
    }
}

/// Figure 16: per-request latency breakdown timeline (12 models, 60 s).
pub fn fig16() -> Report {
    let cost = CostModel::new(NodeSpec::rtx3090_node(2), ModelShape::llama7b());
    let trace = Trace::generate(TraceSpec {
        n_models: 12,
        arrival_rate: 0.5,
        duration_s: 60.0,
        popularity: PopularityDist::Uniform,
        seed: 0x16,
    });
    let vllm = VllmScbEngine::new(cost, VllmScbConfig::default()).run(&trace);
    let dz = dz_engine(cost, 6).run(&trace);
    let mut body = String::new();
    for m in [&vllm, &dz] {
        let (q, l, i) = m.breakdown();
        body.push_str(&format!(
            "\n### {} — mean queuing {q:.1}s, loading {l:.1}s, inference {i:.1}s (makespan {:.0}s)\n\n",
            m.engine, m.makespan_s
        ));
        let mut rows = Vec::new();
        for r in m.records.iter().take(15) {
            rows.push(vec![
                format!("#{}", r.model),
                format!("{:.1}", r.arrival),
                format!("{:.1}", r.queue_s),
                format!("{:.1}", r.load_s),
                format!("{:.1}", (r.e2e_s - r.queue_s - r.load_s).max(0.0)),
            ]);
        }
        body.push_str(&md_table(
            &["model", "arrival", "queuing", "loading", "inference"],
            &rows,
        ));
    }
    Report {
        id: "fig16",
        title: "Serving latency breakdown (s), 12 models on 2x RTX 3090",
        body,
    }
}

/// Figure 18: tensor-parallel scaling on both platforms.
pub fn fig18() -> Report {
    let mut rows = Vec::new();
    let cases: Vec<(&str, CostModel)> = vec![
        (
            "7B, 1x3090",
            CostModel::new(NodeSpec::rtx3090_node(1), ModelShape::llama7b()),
        ),
        (
            "7B, 2x3090",
            CostModel::new(NodeSpec::rtx3090_node(2), ModelShape::llama7b()),
        ),
        (
            "13B, 2xA800",
            CostModel::new(NodeSpec::a800_node(2), ModelShape::llama13b()),
        ),
        (
            "13B, 4xA800",
            CostModel::new(NodeSpec::a800_node(4), ModelShape::llama13b()),
        ),
    ];
    for (label, cost) in cases {
        let trace = Trace::generate(TraceSpec {
            n_models: 16,
            arrival_rate: 0.6,
            duration_s: 120.0,
            popularity: PopularityDist::Zipf { alpha: 1.5 },
            seed: 0x18,
        });
        let m = dz_engine(cost, 6).run(&trace);
        rows.push(vec![
            label.to_string(),
            format!("{:.1}", m.mean_e2e()),
            format!("{:.1}", m.mean_ttft()),
        ]);
    }
    Report {
        id: "fig18",
        title: "DeltaZip E2E / TTFT (s) vs number of GPUs (tensor parallelism)",
        body: md_table(&["platform", "E2E", "TTFT"], &rows),
    }
}

/// Figure 19: starvation-handling (preemption) ablation.
///
/// Preemption pays off when line-skippers for hot deltas keep slots away
/// from queued cold-delta requests: few concurrent deltas (N=3), a heavy
/// head (zipf-1.5), and an overdriven arrival rate. In mild regimes the
/// mechanism is neutral (the engine only preempts when someone is actually
/// starving).
pub fn fig19() -> Report {
    let cost = a800_13b();
    let trace = Trace::generate(TraceSpec {
        n_models: 32,
        arrival_rate: 4.0,
        duration_s: 180.0,
        popularity: PopularityDist::Zipf { alpha: 1.5 },
        seed: 0x19,
    });
    let mut with = dz_engine(cost, 3);
    with.config.max_batch = 32;
    let mut without = dz_engine(cost, 3);
    without.config.max_batch = 32;
    without.config.preemption = PreemptionPolicy::Never;
    let mw = with.run(&trace);
    let mo = without.run(&trace);
    let mut rows = Vec::new();
    for q in [0.5, 0.9, 0.99] {
        rows.push(vec![
            format!("p{}", (q * 100.0) as usize),
            format!("{:.1} / {:.1}", mo.e2e_percentile(q), mw.e2e_percentile(q)),
            format!(
                "{:.1} / {:.1}",
                mo.ttft_percentile(q),
                mw.ttft_percentile(q)
            ),
        ]);
    }
    let gain = |no: f64, yes: f64| (no - yes) / no.max(1e-9) * 100.0;
    let p90_ttft = gain(mo.ttft_percentile(0.9), mw.ttft_percentile(0.9));
    let p90_e2e = gain(mo.e2e_percentile(0.9), mw.e2e_percentile(0.9));
    let mut body = md_table(
        &[
            "percentile",
            "E2E no-preempt / preempt",
            "TTFT no-preempt / preempt",
        ],
        &rows,
    );
    body.push_str(&format!(
        "\nImproved P90 TTFT by preemption: {p90_ttft:.1}% (paper: 49.0%)\n\
         Improved P90 E2E by preemption: {p90_e2e:.1}% (paper: 18.8%)\n"
    ));
    Report {
        id: "fig19",
        title: "Starvation handling: FCFS+skip-the-line vs with preemption (s)",
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11_deltazip_wins_throughput() {
        let r = fig11();
        for line in r.body.lines().filter(|l| l.contains("x |")) {
            let speedup: f64 = line
                .split('|')
                .rev()
                .nth(1)
                .and_then(|c| c.trim().trim_end_matches('x').parse().ok())
                .unwrap();
            assert!(speedup >= 1.0, "speedup below 1 in: {line}");
        }
    }

    #[test]
    fn fig15_lora_never_slower_than_full_model() {
        let r = fig15();
        for line in r.body.lines().filter(|l| {
            l.starts_with("| 0")
                || l.starts_with("| 1")
                || l.starts_with("| 2")
                || l.starts_with("| 4")
        }) {
            let cols: Vec<&str> = line.split('|').map(|c| c.trim()).collect();
            let full: f64 = cols[3].split('/').next().unwrap().trim().parse().unwrap();
            let lora: f64 = cols[4].split('/').next().unwrap().trim().parse().unwrap();
            assert!(lora <= full, "{line}");
        }
    }

    #[test]
    fn fig10_table_has_six_n_values() {
        let r = fig10();
        assert_eq!(
            r.body
                .lines()
                .filter(|l| l.starts_with("| ") && !l.starts_with("| N"))
                .count(),
            6
        );
    }
}
