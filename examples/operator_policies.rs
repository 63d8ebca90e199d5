//! Operator's tour of the scheduling policies beyond the paper's defaults
//! (§5.4 dynamic tuning and the §8 future-work mechanisms built here):
//!
//! 1. SLO tiers — latency-critical variants are scheduled first, with
//!    aging so the batch tier cannot starve;
//! 2. length-aware preemption — children predicted to finish soon keep
//!    their slots instead of being kicked back to the queue;
//! 3. resume policies — swap-to-host vs recompute vs cost-based restore
//!    of preempted requests;
//! 4. online `N` tuning — the concurrent-delta cap follows the workload
//!    through a skew shift.
//!
//! ```text
//! cargo run --release --example operator_policies
//! ```

use dz_gpusim::shapes::ModelShape;
use dz_gpusim::spec::NodeSpec;
use dz_serve::predictor::LengthEstimator;
use dz_serve::slo::SloPolicy;
use dz_serve::tuning::{DynamicN, DynamicNConfig};
use dz_serve::{
    CostModel, DeltaZipConfig, DeltaZipEngine, Engine, EngineBuilder, Metrics, PreemptionPolicy,
    ResumePolicy,
};
use dz_workload::{PopularityDist, Trace, TraceSpec};

fn skewed_trace(seed: u64) -> Trace {
    Trace::generate(TraceSpec {
        n_models: 32,
        arrival_rate: 2.0,
        duration_s: 120.0,
        popularity: PopularityDist::Zipf { alpha: 1.5 },
        seed,
    })
}

fn summarize(label: &str, m: &Metrics) {
    let preemptions: usize = m.records.iter().map(|r| r.preemptions).sum();
    println!(
        "{label:<34} E2E {:>6.1}s  TTFT {:>6.2}s  p90 TTFT {:>6.1}s  preempt {preemptions}",
        m.mean_e2e(),
        m.mean_ttft(),
        m.ttft_percentile(0.9),
    );
}

fn main() {
    let cost = CostModel::new(NodeSpec::a800_node(4), ModelShape::llama13b());
    let base_config = DeltaZipConfig {
        max_concurrent_deltas: 4,
        max_batch: 32,
        ..DeltaZipConfig::default()
    };

    println!("== 1. SLO tiers (first 4 variants sold as Interactive) ==");
    let trace = skewed_trace(0x0b1);
    let policy = SloPolicy::tiered(32, 4);
    let plain = DeltaZipEngine::new(cost, base_config).run(&trace);
    let tiered = EngineBuilder::new(cost)
        .scheduler(base_config)
        .slo(policy.clone())
        .build()
        .run(&trace);
    for (name, metrics) in [("FCFS", &plain), ("SLO-priority", &tiered)] {
        for (class, sub) in policy.split_metrics(metrics) {
            println!(
                "{name:<14} {class:?}: mean TTFT {:>6.2}s, attain@{:.0}s = {:.0}%",
                sub.mean_ttft(),
                class.ttft_target_s(),
                sub.slo_attainment_ttft(class.ttft_target_s()) * 100.0
            );
        }
    }

    println!("\n== 2. Starvation handling with length prediction ==");
    for (label, preemption, estimator) in [
        (
            "parent-finish (paper)",
            PreemptionPolicy::ParentFinish,
            LengthEstimator::default(),
        ),
        (
            "length-aware (online mean)",
            PreemptionPolicy::LengthAware { spare_tokens: 16 },
            LengthEstimator::default(),
        ),
        (
            "length-aware (oracle)",
            PreemptionPolicy::LengthAware { spare_tokens: 16 },
            LengthEstimator::Oracle,
        ),
    ] {
        let mut engine = EngineBuilder::new(cost)
            .scheduler(DeltaZipConfig {
                preemption,
                ..base_config
            })
            .estimator(estimator)
            .build();
        summarize(label, &engine.run(&trace));
    }

    println!("\n== 3. Resume policy for preempted requests ==");
    for (label, resume) in [
        ("swap to host (paper)", ResumePolicy::SwapToHost),
        ("recompute", ResumePolicy::Recompute),
        ("cost-based", ResumePolicy::CostBased),
    ] {
        let mut engine = DeltaZipEngine::new(
            cost,
            DeltaZipConfig {
                resume,
                ..base_config
            },
        );
        summarize(label, &engine.run(&trace));
    }

    println!("\n== 4. Online N tuning across a skew shift ==");
    let cost_small = CostModel::new(NodeSpec::rtx3090_node(2), ModelShape::llama7b());
    let shift = Trace::generate(TraceSpec {
        n_models: 12,
        arrival_rate: 3.0,
        duration_s: 90.0,
        popularity: PopularityDist::Zipf { alpha: 4.0 },
        seed: 0x0b2,
    })
    .then(&Trace::generate(TraceSpec {
        n_models: 12,
        arrival_rate: 1.5,
        duration_s: 90.0,
        popularity: PopularityDist::Uniform,
        seed: 0x0b3,
    }));
    for n in [2usize, 12] {
        let m = DeltaZipEngine::new(
            cost_small,
            DeltaZipConfig {
                max_concurrent_deltas: n,
                ..DeltaZipConfig::default()
            },
        )
        .run(&shift);
        summarize(&format!("fixed N={n}"), &m);
    }
    let controller = DynamicN::new(
        DynamicNConfig {
            min_n: 2,
            max_n: 12,
            ..DynamicNConfig::default()
        },
        4,
    );
    let mut dynamic = EngineBuilder::new(cost_small).dynamic_n(controller).build();
    let m = dynamic.run(&shift);
    summarize("dynamic N (2..12)", &m);
    let final_n = dynamic
        .dynamic_n
        .as_ref()
        .expect("controller present")
        .current();
    println!("controller settled at N = {final_n} after the uniform phase");
}
