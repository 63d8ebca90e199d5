//! Experiments for the paper's §8 extensions implemented in this repo:
//! PEFT methods beyond LoRA (RoSA, GaLore), length-aware preemption,
//! resume-policy selection, SLO-class scheduling, online `N` tuning, and
//! the hierarchical (disk-tier) delta cache.

use super::{md_table, Report, Scale};
use crate::experiments::quality::Zoo;
use dz_compress::calib::calibration_set;
use dz_compress::pipeline::{delta_compress, DeltaCompressConfig};
use dz_gpusim::shapes::ModelShape;
use dz_gpusim::spec::NodeSpec;
use dz_model::eval::task_accuracy;
use dz_model::galore::{finetune_galore, low_rank_residual, GaloreConfig};
use dz_model::lora::{LoraAdapter, LoraConfig};
use dz_model::rosa::{finetune_rosa, RosaAdapter, RosaConfig};
use dz_model::tasks::{Corpus, MathTask};
use dz_model::train::TrainConfig;
use dz_model::zoo::preset;
use dz_serve::predictor::LengthEstimator;
use dz_serve::slo::SloPolicy;
use dz_serve::tuning::{DynamicN, DynamicNConfig};
use dz_serve::{
    CostModel, DeltaZipConfig, DeltaZipEngine, Engine, EngineBuilder, Metrics, PreemptionPolicy,
    ResumePolicy,
};
use dz_tensor::Rng;
use dz_workload::{PopularityDist, Trace, TraceSpec};

fn a800_13b() -> CostModel {
    CostModel::new(NodeSpec::a800_node(4), ModelShape::llama13b())
}

/// PEFT beyond LoRA (§8): RoSA and GaLore against LoRA, FMT and ΔCompress
/// on the hard (math) task, with artifact sizes and the rank evidence for
/// why each method needs the adapter or the delta serving path.
///
/// Adapter training on the carry task is strongly seed-sensitive at tiny
/// scale (a grokking-style transition), so LoRA and RoSA take the best of
/// three seeds — the analog of the "extensive hyper-parameter tuning" the
/// paper grants LoRA for Table 2.
pub fn ext_peft(zoo: &mut Zoo, scale: Scale) -> Report {
    let p = preset("llama-tiny-m").expect("preset exists");
    let task = MathTask;
    let rank = 8;
    let steps = scale.steps(1000);
    let n_eval = 300;
    let seeds = [0x10Au64, 0x10B, 0xE82];

    let base = zoo.base(&p);
    let fmt = zoo.fmt_on(&p, &task);

    let eval = |m: &dz_model::Params| task_accuracy(m, &task, n_eval, &mut Rng::seeded(0xE7A1));
    let train_at = |seed: u64| TrainConfig {
        steps,
        batch: 8,
        lr: 1e-2,
        clip: 1.0,
        seed,
    };

    let lora_merged = seeds
        .iter()
        .map(|&seed| {
            let mut adapter =
                LoraAdapter::init(&base, LoraConfig::rank(rank), &mut Rng::seeded(seed ^ 8));
            dz_model::lora::finetune_lora(&base, &mut adapter, &task, train_at(seed));
            adapter.merge(&base)
        })
        .max_by(|a, b| eval(a).partial_cmp(&eval(b)).expect("finite accuracy"))
        .expect("non-empty seed list");

    let (rosa, rosa_merged) = seeds
        .iter()
        .map(|&seed| {
            let mut adapter = RosaAdapter::init(
                &base,
                RosaConfig::new(rank, 0.05),
                &mut Rng::seeded(seed ^ 8),
            );
            finetune_rosa(&base, &mut adapter, &task, train_at(seed));
            let merged = adapter.merge(&base);
            (adapter, merged)
        })
        .max_by(|a, b| {
            eval(&a.1)
                .partial_cmp(&eval(&b.1))
                .expect("finite accuracy")
        })
        .expect("non-empty seed list");

    let mut galore_model = base.clone();
    finetune_galore(
        &mut galore_model,
        &task,
        TrainConfig {
            steps,
            batch: 8,
            lr: 2e-3,
            clip: 1.0,
            seed: 0xE83,
        },
        GaloreConfig::rank(rank),
    );

    let calib = calibration_set(&Corpus::new(p.config.max_seq), 12, 0xCA11B);
    let (fmt_delta, fmt_served) =
        delta_compress(&base, &fmt, &calib, DeltaCompressConfig::starred(4));
    let (galore_delta, galore_served) = delta_compress(
        &base,
        &galore_model,
        &calib,
        DeltaCompressConfig::starred(4),
    );

    let acc = |m: &dz_model::Params| {
        format!(
            "{:.1}",
            task_accuracy(m, &task, n_eval, &mut Rng::seeded(0xE7A1)) * 100.0
        )
    };
    let mib = |b: usize| format!("{:.2}", b as f64 / (1 << 20) as f64);
    let lora_bytes =
        LoraAdapter::init(&base, LoraConfig::rank(rank), &mut Rng::seeded(1)).fp16_bytes();
    let residual = |m: &dz_model::Params| {
        let name = "layer0.wq";
        let delta = m
            .get(name)
            .expect("projection exists")
            .sub(base.get(name).expect("projection exists"));
        format!(
            "{:.2}",
            low_rank_residual(&delta, rank, &mut Rng::seeded(2))
        )
    };

    let rows = vec![
        vec![
            "Base".into(),
            acc(&base),
            "-".into(),
            "-".into(),
            "-".into(),
        ],
        vec![
            format!("LoRA (r={rank})"),
            acc(&lora_merged),
            mib(lora_bytes),
            residual(&lora_merged),
            "adapter".into(),
        ],
        vec![
            format!("RoSA (r={rank}, d=5%)"),
            acc(&rosa_merged),
            mib(rosa.serving_bytes()),
            residual(&rosa_merged),
            "adapter (sparse ext.)".into(),
        ],
        vec![
            format!("GaLore (r={rank})"),
            acc(&galore_model),
            mib(galore_model.fp16_bytes()),
            residual(&galore_model),
            "delta only".into(),
        ],
        vec![
            "FMT".into(),
            acc(&fmt),
            mib(fmt.fp16_bytes()),
            residual(&fmt),
            "delta only".into(),
        ],
        vec![
            "ΔCompress(FMT, 4bit*)".into(),
            acc(&fmt_served),
            mib(fmt_delta.packed_bytes()),
            residual(&fmt_served),
            "delta (compressed)".into(),
        ],
        vec![
            "ΔCompress(GaLore, 4bit*)".into(),
            acc(&galore_served),
            mib(galore_delta.packed_bytes()),
            residual(&galore_served),
            "delta (compressed)".into(),
        ],
    ];
    Report {
        id: "ext-peft",
        title: "PEFT beyond LoRA (§8): accuracy, artifact size (MiB), \
                rank-residual of layer0.wq delta, serving path",
        body: md_table(
            &[
                "method",
                "math acc (%)",
                "artifact MiB",
                "rank-res",
                "serving path",
            ],
            &rows,
        ),
    }
}

// The fig19 starvation regime: few concurrent deltas, heavy head, an
// overdriven rate — where the preemption mechanisms actually bind.
fn preemption_heavy_trace(seed: u64) -> Trace {
    Trace::generate(TraceSpec {
        n_models: 32,
        arrival_rate: 4.0,
        duration_s: 180.0,
        popularity: PopularityDist::Zipf { alpha: 1.5 },
        seed,
    })
}

/// Resume-policy ablation (§8: "whether and when recomputing from scratch
/// may be faster than swap-and-resume").
pub fn ablation_resume() -> Report {
    let cost = a800_13b();
    let trace = preemption_heavy_trace(0xE51);
    let mut rows = Vec::new();
    for (name, resume) in [
        ("swap to host (paper)", ResumePolicy::SwapToHost),
        ("recompute", ResumePolicy::Recompute),
        ("cost-based", ResumePolicy::CostBased),
    ] {
        let mut e = DeltaZipEngine::new(
            cost,
            DeltaZipConfig {
                max_concurrent_deltas: 3,
                max_batch: 32,
                resume,
                ..DeltaZipConfig::default()
            },
        );
        let m = e.run(&trace);
        let preemptions: usize = m.records.iter().map(|r| r.preemptions).sum();
        rows.push(vec![
            name.to_string(),
            format!("{:.1}", m.mean_e2e()),
            format!("{:.2}", m.mean_ttft()),
            format!("{:.1}", m.e2e_percentile(0.9)),
            preemptions.to_string(),
        ]);
    }
    Report {
        id: "ablation-resume",
        title: "Resume policy for preempted requests (s)",
        body: md_table(
            &["policy", "mean E2E", "mean TTFT", "p90 E2E", "preemptions"],
            &rows,
        ),
    }
}

/// Length-aware preemption ablation (§8's output-length-prediction fix),
/// comparing the paper's parent-finish rule with sparing nearly-finished
/// children under the online and oracle estimators.
pub fn ablation_length_aware() -> Report {
    let cost = a800_13b();
    let trace = preemption_heavy_trace(0xE52);
    let mut rows = Vec::new();
    let runs: Vec<(&str, PreemptionPolicy, LengthEstimator)> = vec![
        (
            "parent-finish (paper)",
            PreemptionPolicy::ParentFinish,
            LengthEstimator::default(),
        ),
        (
            "length-aware, online mean",
            PreemptionPolicy::LengthAware { spare_tokens: 16 },
            LengthEstimator::default(),
        ),
        (
            "length-aware, online p75",
            PreemptionPolicy::LengthAware { spare_tokens: 16 },
            LengthEstimator::quantile(0.75),
        ),
        (
            "length-aware, oracle",
            PreemptionPolicy::LengthAware { spare_tokens: 16 },
            LengthEstimator::Oracle,
        ),
        ("never", PreemptionPolicy::Never, LengthEstimator::default()),
    ];
    for (name, preemption, estimator) in runs {
        let mut e = EngineBuilder::new(cost)
            .scheduler(DeltaZipConfig {
                max_concurrent_deltas: 3,
                max_batch: 32,
                preemption,
                ..DeltaZipConfig::default()
            })
            .estimator(estimator)
            .build();
        let m = e.run(&trace);
        let preemptions: usize = m.records.iter().map(|r| r.preemptions).sum();
        rows.push(vec![
            name.to_string(),
            format!("{:.1}", m.mean_e2e()),
            format!("{:.2}", m.mean_ttft()),
            format!("{:.1}", m.ttft_percentile(0.9)),
            preemptions.to_string(),
        ]);
    }
    Report {
        id: "ablation-length-aware",
        title: "Starvation handling with output-length prediction (s)",
        body: md_table(
            &["policy", "mean E2E", "mean TTFT", "p90 TTFT", "preemptions"],
            &rows,
        ),
    }
}

/// SLO-class scheduling (§8: prioritizing models by their constraints).
pub fn ablation_slo() -> Report {
    let cost = a800_13b();
    let trace = Trace::generate(TraceSpec {
        n_models: 32,
        arrival_rate: 2.0,
        duration_s: 180.0,
        popularity: PopularityDist::Zipf { alpha: 1.2 },
        seed: 0xE53,
    });
    let policy = SloPolicy::tiered(32, 4);
    let plain = DeltaZipEngine::new(
        cost,
        DeltaZipConfig {
            max_concurrent_deltas: 4,
            max_batch: 32,
            ..DeltaZipConfig::default()
        },
    )
    .run(&trace);
    let prioritized = EngineBuilder::new(cost)
        .scheduler(DeltaZipConfig {
            max_concurrent_deltas: 4,
            max_batch: 32,
            ..DeltaZipConfig::default()
        })
        .slo(policy.clone())
        .build()
        .run(&trace);
    let mut rows = Vec::new();
    for (engine, m) in [("FCFS", &plain), ("SLO-priority", &prioritized)] {
        for (class, sub) in policy.split_metrics(m) {
            let target = class.ttft_target_s();
            rows.push(vec![
                engine.to_string(),
                format!("{class:?}"),
                sub.len().to_string(),
                format!("{:.2}", sub.mean_ttft()),
                format!("{:.1}", sub.ttft_percentile(0.9)),
                format!("{:.0}%", sub.slo_attainment_ttft(target) * 100.0),
            ]);
        }
    }
    Report {
        id: "ablation-slo",
        title: "SLO classes: per-class TTFT with and without priority scheduling",
        body: md_table(
            &[
                "scheduler",
                "class",
                "requests",
                "mean TTFT (s)",
                "p90 TTFT (s)",
                "attain@target",
            ],
            &rows,
        ),
    }
}

/// Online `N` tuning on a regime-shift workload (§5.4 "dynamic tuning").
pub fn ablation_dynamic_n() -> Report {
    let cost = CostModel::new(NodeSpec::rtx3090_node(2), ModelShape::llama7b());
    // Phase 1: heavy skew (few hot deltas, small N is right). Phase 2:
    // uniform popularity (many live deltas, large N is right).
    let skewed = Trace::generate(TraceSpec {
        n_models: 12,
        arrival_rate: 3.0,
        duration_s: 90.0,
        popularity: PopularityDist::Zipf { alpha: 4.0 },
        seed: 0xE54,
    });
    let uniform = Trace::generate(TraceSpec {
        n_models: 12,
        arrival_rate: 1.5,
        duration_s: 90.0,
        popularity: PopularityDist::Uniform,
        seed: 0xE55,
    });
    let trace = skewed.then(&uniform);
    let run_fixed = |n: usize| {
        DeltaZipEngine::new(
            cost,
            DeltaZipConfig {
                max_concurrent_deltas: n,
                ..DeltaZipConfig::default()
            },
        )
        .run(&trace)
    };
    let mut rows = Vec::new();
    let describe = |name: &str, m: &Metrics, rows: &mut Vec<Vec<String>>| {
        rows.push(vec![
            name.to_string(),
            format!("{:.3}", m.mean_time_per_token()),
            format!("{:.1}", m.mean_e2e()),
            format!("{:.2}", m.mean_ttft()),
        ]);
    };
    describe("fixed N=2", &run_fixed(2), &mut rows);
    describe("fixed N=12", &run_fixed(12), &mut rows);
    let ctl = DynamicN::new(
        DynamicNConfig {
            min_n: 2,
            max_n: 12,
            ..DynamicNConfig::default()
        },
        4,
    );
    let dynamic = EngineBuilder::new(cost)
        .scheduler(DeltaZipConfig {
            max_concurrent_deltas: 4,
            ..DeltaZipConfig::default()
        })
        .dynamic_n(ctl)
        .build()
        .run(&trace);
    describe("dynamic N (2..12)", &dynamic, &mut rows);
    Report {
        id: "ablation-dynamic-n",
        title: "Online N tuning on a skew-shift trace (zipf-4.0 -> uniform)",
        body: md_table(
            &["engine", "time/token (s)", "mean E2E (s)", "mean TTFT (s)"],
            &rows,
        ),
    }
}

/// Hierarchical delta management (§5.4 scalability): sweeping the host-DRAM
/// cache capacity shows the graceful degradation to disk loads.
///
/// Uses the small (2x RTX 3090) node so GPU memory holds only a fraction
/// of the 64 deltas — on the big node everything stays GPU-resident and
/// the host tier never binds.
pub fn ext_scalability() -> Report {
    let cost = CostModel::new(NodeSpec::rtx3090_node(2), ModelShape::llama7b());
    let trace = Trace::generate(TraceSpec {
        n_models: 64,
        arrival_rate: 0.5,
        duration_s: 300.0,
        popularity: PopularityDist::Uniform,
        seed: 0xE56,
    });
    let mut rows = Vec::new();
    for cap in [Some(8usize), Some(16), Some(32), Some(48), None] {
        let m = DeltaZipEngine::new(
            cost,
            DeltaZipConfig {
                max_concurrent_deltas: 8,
                host_capacity_deltas: cap,
                ..DeltaZipConfig::default()
            },
        )
        .run(&trace);
        let label = cap.map_or("unbounded".to_string(), |c| c.to_string());
        let load_total: f64 = m.records.iter().map(|r| r.load_s).sum();
        rows.push(vec![
            label,
            format!("{:.1}", m.mean_e2e()),
            format!("{:.2}", m.mean_ttft()),
            format!("{:.1}", load_total / m.len().max(1) as f64),
        ]);
    }
    Report {
        id: "ext-scalability",
        title: "Host-cache capacity sweep (64 variants): disk-tier degradation",
        body: md_table(
            &[
                "host cache (deltas)",
                "mean E2E (s)",
                "mean TTFT (s)",
                "mean load wait (s)",
            ],
            &rows,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resume_ablation_covers_every_policy() {
        let r = ablation_resume();
        for name in ["swap to host (paper)", "recompute", "cost-based"] {
            assert!(r.body.contains(name), "missing row for {name}");
        }
    }

    #[test]
    fn slo_ablation_reports_both_schedulers() {
        let r = ablation_slo();
        assert!(r.body.contains("FCFS"));
        assert!(r.body.contains("SLO-priority"));
        assert!(r.body.contains("Interactive"));
    }

    #[test]
    fn dynamic_n_is_never_far_from_the_best_fixed_choice() {
        let r = ablation_dynamic_n();
        let vals: Vec<f64> = r
            .body
            .lines()
            .filter(|l| l.contains("fixed") || l.contains("dynamic"))
            .map(|l| {
                l.split('|')
                    .nth(2)
                    .expect("time/token column")
                    .trim()
                    .parse::<f64>()
                    .expect("numeric time/token")
            })
            .collect();
        assert_eq!(vals.len(), 3);
        let best_fixed = vals[0].min(vals[1]);
        assert!(
            vals[2] <= best_fixed * 1.35,
            "dynamic {} should track best fixed {best_fixed}",
            vals[2]
        );
    }

    #[test]
    fn scalability_degrades_monotonically_in_spirit() {
        let r = ext_scalability();
        let e2e: Vec<f64> = r
            .body
            .lines()
            .filter(|l| l.contains("| ") && !l.contains("host cache") && !l.contains("---"))
            .map(|l| {
                l.split('|')
                    .nth(2)
                    .expect("E2E column")
                    .trim()
                    .parse::<f64>()
                    .expect("numeric E2E")
            })
            .collect();
        assert_eq!(e2e.len(), 5);
        // The tightest cache must not beat the unbounded one.
        assert!(
            e2e[0] >= e2e[4] * 0.99,
            "tight {} vs unbounded {}",
            e2e[0],
            e2e[4]
        );
    }
}
