//! Ablation studies beyond the paper's figures, covering the design choices
//! DESIGN.md calls out: the scheduler's two mechanisms, the ΔCompress
//! reconstruction step, SBMM strategies end-to-end, and the §5.4 N-tuner.

use super::{md_table, Report};
use crate::experiments::quality::Zoo;
use dz_compress::calib::calibration_set;
use dz_compress::pipeline::{delta_compress, delta_compress_no_reconstruct, DeltaCompressConfig};
use dz_gpusim::kernel::BatchedImpl;
use dz_gpusim::shapes::ModelShape;
use dz_gpusim::spec::NodeSpec;
use dz_model::eval::task_accuracy;
use dz_model::tasks::{self, Corpus, Task};
use dz_model::zoo::preset;
use dz_serve::tuning::profile_best_n;
use dz_serve::{CostModel, DeltaZipConfig, DeltaZipEngine, Engine, PreemptionPolicy};
use dz_tensor::Rng;
use dz_workload::{PopularityDist, Trace, TraceSpec};

/// Scheduler ablation: skip-the-line and preemption toggled independently.
pub fn ablation_scheduler() -> Report {
    let cost = CostModel::new(NodeSpec::a800_node(4), ModelShape::llama13b());
    let trace = Trace::generate(TraceSpec {
        n_models: 32,
        arrival_rate: 1.5,
        duration_s: 180.0,
        popularity: PopularityDist::Zipf { alpha: 1.5 },
        seed: 0xAB1,
    });
    let mut rows = Vec::new();
    for (skip, preempt) in [
        (false, PreemptionPolicy::Never),
        (true, PreemptionPolicy::Never),
        (true, PreemptionPolicy::ParentFinish),
    ] {
        let m = DeltaZipEngine::new(
            cost,
            DeltaZipConfig {
                skip_the_line: skip,
                preemption: preempt,
                ..DeltaZipConfig::default()
            },
        )
        .run(&trace);
        rows.push(vec![
            format!("skip={skip}, preempt={}", preempt.enabled()),
            format!("{:.1}", m.mean_e2e()),
            format!("{:.2}", m.mean_ttft()),
            format!("{:.1}", m.ttft_percentile(0.9)),
            format!("{:.2}", m.throughput_rps()),
        ]);
    }
    Report {
        id: "ablation-scheduler",
        title: "Scheduler mechanisms: plain FCFS vs skip-the-line vs +preemption",
        body: md_table(
            &[
                "config",
                "mean E2E (s)",
                "mean TTFT (s)",
                "p90 TTFT (s)",
                "req/s",
            ],
            &rows,
        ),
    }
}

/// SBMM strategy ablation, end to end (not just the kernel microbenchmark).
pub fn ablation_sbmm() -> Report {
    let cost = CostModel::new(NodeSpec::a800_node(4), ModelShape::llama13b());
    let trace = Trace::generate(TraceSpec {
        n_models: 32,
        arrival_rate: 1.0,
        duration_s: 180.0,
        popularity: PopularityDist::Uniform,
        seed: 0xAB2,
    });
    let mut rows = Vec::new();
    for (name, strategy) in [
        ("naive for-loop", BatchedImpl::NaiveForLoop),
        ("reorder only (Ours)", BatchedImpl::Sbmm),
        ("fused launch (Ours+)", BatchedImpl::SbmmPlus),
    ] {
        let m = DeltaZipEngine::new(
            cost,
            DeltaZipConfig {
                strategy,
                ..DeltaZipConfig::default()
            },
        )
        .run(&trace);
        rows.push(vec![
            name.to_string(),
            format!("{:.1}", m.mean_e2e()),
            format!("{:.2}", m.mean_ttft()),
            format!("{:.2}", m.throughput_rps()),
        ]);
    }
    Report {
        id: "ablation-sbmm",
        title: "End-to-end impact of the SBMM kernel strategy",
        body: md_table(
            &["strategy", "mean E2E (s)", "mean TTFT (s)", "req/s"],
            &rows,
        ),
    }
}

/// ΔCompress reconstruction ablation (Line 6 of Algorithm 1) on accuracy.
pub fn ablation_reconstruct(zoo: &mut Zoo) -> Report {
    let p = preset("llama-tiny-m").expect("preset exists");
    let base = zoo.base(&p);
    let tuned = zoo.fmt_mixture(&p);
    let calib = calibration_set(&Corpus::new(p.config.max_seq), 12, 0xCA11B);
    let task_list: Vec<Box<dyn Task>> = vec![
        Box::new(tasks::BoolQTask),
        Box::new(tasks::NliTask),
        Box::new(tasks::RecallTask),
    ];
    let mut rows = Vec::new();
    for bits in [4u32, 2] {
        let (_, with) = delta_compress(&base, &tuned, &calib, DeltaCompressConfig::starred(bits));
        let (_, without) = delta_compress_no_reconstruct(
            &base,
            &tuned,
            &calib,
            DeltaCompressConfig::starred(bits),
        );
        for (label, model) in [("with reconstruct", &with), ("no reconstruct", &without)] {
            let accs: Vec<String> = task_list
                .iter()
                .map(|t| {
                    format!(
                        "{:.1}",
                        task_accuracy(model, t.as_ref(), 300, &mut Rng::seeded(0xAB3)) * 100.0
                    )
                })
                .collect();
            rows.push([vec![format!("{bits}bit*"), label.to_string()], accs].concat());
        }
    }
    Report {
        id: "ablation-reconstruct",
        title: "Algorithm 1 Line 6 ablation: per-layer weight reconstruction (accuracy %)",
        body: md_table(&["config", "variant", "boolq", "nli", "recall"], &rows),
    }
}

/// The §5.4 offline N-profiling procedure in action.
pub fn tuning_demo() -> Report {
    let cost = CostModel::new(NodeSpec::rtx3090_node(2), ModelShape::llama7b());
    let profile = profile_best_n(
        cost,
        DeltaZipConfig::default(),
        TraceSpec {
            n_models: 12,
            arrival_rate: 3.0,
            duration_s: 25.0,
            popularity: PopularityDist::Zipf { alpha: 4.0 },
            seed: 0xAB4,
        },
        &[1, 2, 3, 4, 6, 8],
    );
    let rows: Vec<Vec<String>> = profile
        .candidates
        .iter()
        .map(|&(n, t)| vec![n.to_string(), format!("{t:.3}")])
        .collect();
    let mut body = md_table(&["N", "mean time/token (s)"], &rows);
    body.push_str(&format!("\nProfiler picks N = {}\n", profile.best_n));
    Report {
        id: "tuning-n",
        title: "Offline profiling to choose N concurrent deltas (§5.4)",
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduler_ablation_shows_batching_value() {
        let r = ablation_scheduler();
        // Extract mean E2E of the first (plain FCFS) and last (full) rows.
        let vals: Vec<f64> = r
            .body
            .lines()
            .filter(|l| l.contains("skip="))
            .map(|l| l.split('|').nth(2).unwrap().trim().parse::<f64>().unwrap())
            .collect();
        assert_eq!(vals.len(), 3);
        assert!(
            vals[2] <= vals[0] * 1.05,
            "full scheduler should not lose to plain FCFS: {vals:?}"
        );
    }

    #[test]
    fn tuning_demo_reports_a_choice() {
        let r = tuning_demo();
        assert!(r.body.contains("Profiler picks N ="));
    }
}
