//! Property-based scheduler invariants: for arbitrary traces and configs,
//! every engine conserves requests and produces physical latencies.

use dz_gpusim::shapes::ModelShape;
use dz_gpusim::spec::NodeSpec;
use dz_serve::{
    CostModel, DeltaZipConfig, DeltaZipEngine, Engine, EngineBuilder, PreemptionPolicy,
    VariantCatalog, VariantSpec, VllmScbConfig, VllmScbEngine,
};
use dz_workload::{PopularityDist, Trace, TraceSpec};
use proptest::prelude::*;

fn arb_pop() -> impl Strategy<Value = PopularityDist> {
    prop_oneof![
        Just(PopularityDist::Uniform),
        (1.0f64..3.0).prop_map(|alpha| PopularityDist::Zipf { alpha }),
        Just(PopularityDist::AzureLike),
    ]
}

fn check(trace: &Trace, m: &dz_serve::Metrics) {
    assert_eq!(m.len(), trace.len());
    for r in &m.records {
        assert!(r.e2e_s > 0.0 && r.e2e_s.is_finite());
        assert!(r.ttft_s > 0.0 && r.ttft_s <= r.e2e_s + 1e-9);
        assert!(r.queue_s >= -1e-9);
        assert!(r.load_s >= 0.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn deltazip_invariants(seed in any::<u64>(), rate in 0.2f64..3.0, pop in arb_pop(),
                           n in 1usize..12, batch in 4usize..64,
                           preempt in any::<bool>(), skip in any::<bool>()) {
        let trace = Trace::generate(TraceSpec {
            n_models: 16,
            arrival_rate: rate,
            duration_s: 30.0,
            popularity: pop,
            seed,
        });
        let cost = CostModel::new(NodeSpec::a800_node(4), ModelShape::llama13b());
        let m = DeltaZipEngine::new(cost, DeltaZipConfig {
            max_concurrent_deltas: n,
            max_batch: batch,
            preemption: if preempt {
                PreemptionPolicy::ParentFinish
            } else {
                PreemptionPolicy::Never
            },
            skip_the_line: skip,
            ..DeltaZipConfig::default()
        }).run(&trace);
        check(&trace, &m);
    }

    #[test]
    fn vllm_invariants(seed in any::<u64>(), rate in 0.2f64..2.0, pop in arb_pop()) {
        let trace = Trace::generate(TraceSpec {
            n_models: 16,
            arrival_rate: rate,
            duration_s: 30.0,
            popularity: pop,
            seed,
        });
        let cost = CostModel::new(NodeSpec::a800_node(4), ModelShape::llama13b());
        let m = VllmScbEngine::new(cost, VllmScbConfig::default()).run(&trace);
        check(&trace, &m);
    }

    #[test]
    fn lora_invariants(seed in any::<u64>(), rate in 0.2f64..3.0, rank in 1usize..128) {
        let trace = Trace::generate(TraceSpec {
            n_models: 16,
            arrival_rate: rate,
            duration_s: 30.0,
            popularity: PopularityDist::Uniform,
            seed,
        });
        let cost = CostModel::new(NodeSpec::a800_node(4), ModelShape::llama13b());
        let m = EngineBuilder::new(cost)
            .catalog(VariantCatalog::from_specs(vec![VariantSpec::lora(rank); 16]))
            .build()
            .run(&trace);
        check(&trace, &m);
    }
}

// Policy-surface invariants: every combination of the §8 extension knobs
// must still conserve requests and produce physical latencies.
fn arb_preemption() -> impl Strategy<Value = PreemptionPolicy> {
    prop_oneof![
        Just(PreemptionPolicy::Never),
        Just(PreemptionPolicy::ParentFinish),
        (0usize..64).prop_map(|spare_tokens| PreemptionPolicy::LengthAware { spare_tokens }),
    ]
}

fn arb_resume() -> impl Strategy<Value = dz_serve::ResumePolicy> {
    prop_oneof![
        Just(dz_serve::ResumePolicy::SwapToHost),
        Just(dz_serve::ResumePolicy::Recompute),
        Just(dz_serve::ResumePolicy::CostBased),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn policy_combination_invariants(
        seed in any::<u64>(),
        rate in 1.0f64..4.0,
        preemption in arb_preemption(),
        resume in arb_resume(),
        host_cap in prop_oneof![Just(None), (1usize..16).prop_map(Some)],
        oracle in any::<bool>(),
    ) {
        let trace = Trace::generate(TraceSpec {
            n_models: 16,
            arrival_rate: rate,
            duration_s: 30.0,
            popularity: PopularityDist::Zipf { alpha: 1.5 },
            seed,
        });
        let cost = CostModel::new(NodeSpec::a800_node(4), ModelShape::llama13b());
        let mut builder = EngineBuilder::new(cost).scheduler(DeltaZipConfig {
            max_concurrent_deltas: 3,
            max_batch: 24,
            preemption,
            resume,
            host_capacity_deltas: host_cap,
            ..DeltaZipConfig::default()
        });
        if oracle {
            builder = builder.estimator(dz_serve::LengthEstimator::Oracle);
        }
        let m = builder.build().run(&trace);
        check(&trace, &m);
    }

    #[test]
    fn slo_and_dynamic_n_invariants(
        seed in any::<u64>(),
        rate in 0.5f64..3.0,
        n_interactive in 0usize..16,
        start_n in 1usize..12,
    ) {
        let trace = Trace::generate(TraceSpec {
            n_models: 16,
            arrival_rate: rate,
            duration_s: 30.0,
            popularity: PopularityDist::Zipf { alpha: 1.2 },
            seed,
        });
        let cost = CostModel::new(NodeSpec::a800_node(4), ModelShape::llama13b());
        let policy = dz_serve::SloPolicy::tiered(16, n_interactive);
        let controller = dz_serve::tuning::DynamicN::new(
            dz_serve::tuning::DynamicNConfig::default(),
            start_n,
        );
        let m = EngineBuilder::new(cost)
            .slo(policy.clone())
            .dynamic_n(controller)
            .build()
            .run(&trace);
        check(&trace, &m);
        // Per-class views partition the records.
        let total: usize = policy.split_metrics(&m).iter().map(|(_, s)| s.len()).sum();
        prop_assert_eq!(total, m.len());
    }

    #[test]
    fn p2_quantile_tracks_exact_quantile(
        mut values in proptest::collection::vec(0.0f64..1e4, 64..512),
        q in 0.1f64..0.9,
    ) {
        let mut est = dz_serve::predictor::P2Quantile::new(q);
        for &v in &values {
            est.observe(v);
        }
        let got = est.estimate().expect("estimate after stream");
        values.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
        // Exact quantile and a generous tolerance band: P² is approximate,
        // but must stay within the observed range and near the true rank.
        let lo_idx = ((q - 0.25).max(0.0) * (values.len() - 1) as f64) as usize;
        let hi_idx = ((q + 0.25).min(1.0) * (values.len() - 1) as f64) as usize;
        prop_assert!(got >= values[0] && got <= values[values.len() - 1]);
        prop_assert!(
            got >= values[lo_idx] && got <= values[hi_idx],
            "estimate {} outside [{}, {}] for q={}",
            got, values[lo_idx], values[hi_idx], q
        );
    }
}
