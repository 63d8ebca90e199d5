//! Cross-engine serving integration: the paper's relative claims must hold
//! on shared traces, and every engine must satisfy conservation invariants.

use dz_gpusim::shapes::ModelShape;
use dz_gpusim::spec::NodeSpec;
use dz_serve::{
    CostModel, DeltaZipConfig, DeltaZipEngine, Engine, EngineBuilder, Metrics, VariantCatalog,
    VariantSpec, VllmScbConfig, VllmScbEngine,
};
use dz_workload::{PopularityDist, Trace, TraceSpec};

fn cost() -> CostModel {
    CostModel::new(NodeSpec::a800_node(4), ModelShape::llama13b())
}

fn trace(rate: f64, pop: PopularityDist, seed: u64) -> Trace {
    Trace::generate(TraceSpec {
        n_models: 32,
        arrival_rate: rate,
        duration_s: 120.0,
        popularity: pop,
        seed,
    })
}

fn check_conservation(trace: &Trace, m: &Metrics) {
    assert_eq!(
        m.len(),
        trace.len(),
        "{}: lost/duplicated requests",
        m.engine
    );
    let mut ids: Vec<usize> = m.records.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), trace.len(), "{}: duplicate records", m.engine);
    for r in &m.records {
        assert!(
            r.ttft_s > 0.0 && r.ttft_s <= r.e2e_s + 1e-9,
            "{}: #{}",
            m.engine,
            r.id
        );
        assert!(r.e2e_s.is_finite());
    }
}

#[test]
fn all_engines_conserve_requests() {
    let tr = trace(1.0, PopularityDist::AzureLike, 1);
    let c = cost();
    let engines: Vec<Box<dyn Engine>> = vec![
        Box::new(DeltaZipEngine::new(c, DeltaZipConfig::default())),
        Box::new(VllmScbEngine::new(c, VllmScbConfig::default())),
        Box::new(
            EngineBuilder::new(c)
                .catalog(VariantCatalog::from_specs(vec![VariantSpec::lora(16); 32]))
                .build(),
        ),
    ];
    for mut e in engines {
        let m = e.run(&tr);
        check_conservation(&tr, &m);
    }
}

#[test]
fn headline_speedup_holds_across_distributions() {
    // Figure 11's claim: DeltaZip achieves 2x-12x throughput vs vLLM+SCB.
    let c = cost();
    for (pop, seed) in [
        (PopularityDist::AzureLike, 2u64),
        (PopularityDist::Uniform, 3),
        (PopularityDist::Zipf { alpha: 1.5 }, 4),
    ] {
        let tr = trace(1.0, pop, seed);
        let vllm = VllmScbEngine::new(c, VllmScbConfig::default()).run(&tr);
        let dz = DeltaZipEngine::new(
            c,
            DeltaZipConfig {
                max_concurrent_deltas: 8,
                ..DeltaZipConfig::default()
            },
        )
        .run(&tr);
        let speedup = vllm.mean_e2e() / dz.mean_e2e();
        assert!(
            speedup > 1.5,
            "{pop:?}: E2E speedup only {speedup:.2} ({} vs {})",
            dz.mean_e2e(),
            vllm.mean_e2e()
        );
        assert!(
            dz.throughput_rps() >= vllm.throughput_rps() * 0.99,
            "{pop:?}: throughput regressed"
        );
    }
}

#[test]
fn ttft_improvement_is_larger_than_e2e_improvement() {
    // The paper attributes the even larger TTFT wins to reduced queuing.
    let c = cost();
    let tr = trace(1.0, PopularityDist::Zipf { alpha: 1.5 }, 5);
    let vllm = VllmScbEngine::new(c, VllmScbConfig::default()).run(&tr);
    let dz = DeltaZipEngine::new(c, DeltaZipConfig::default()).run(&tr);
    let e2e_gain = vllm.mean_e2e() / dz.mean_e2e();
    let ttft_gain = vllm.mean_ttft() / dz.mean_ttft();
    assert!(
        ttft_gain > e2e_gain * 0.8,
        "ttft gain {ttft_gain:.1} vs e2e gain {e2e_gain:.1}"
    );
}

#[test]
fn slo_attainment_dominates_baseline() {
    let c = cost();
    let tr = trace(0.75, PopularityDist::AzureLike, 6);
    let vllm = VllmScbEngine::new(c, VllmScbConfig::default()).run(&tr);
    let dz = DeltaZipEngine::new(c, DeltaZipConfig::default()).run(&tr);
    for slo in [10.0, 30.0, 60.0, 120.0] {
        assert!(
            dz.slo_attainment_e2e(slo) >= vllm.slo_attainment_e2e(slo) - 1e-9,
            "slo {slo}: dz {} vs vllm {}",
            dz.slo_attainment_e2e(slo),
            vllm.slo_attainment_e2e(slo)
        );
    }
}

#[test]
fn deltazip_scales_with_tensor_parallelism() {
    let tr = trace(0.5, PopularityDist::Zipf { alpha: 1.5 }, 7);
    let two = DeltaZipEngine::new(
        CostModel::new(NodeSpec::a800_node(2), ModelShape::llama13b()),
        DeltaZipConfig::default(),
    )
    .run(&tr);
    let four = DeltaZipEngine::new(
        CostModel::new(NodeSpec::a800_node(4), ModelShape::llama13b()),
        DeltaZipConfig::default(),
    )
    .run(&tr);
    assert!(
        four.mean_e2e() < two.mean_e2e(),
        "4 GPUs {} should beat 2 GPUs {}",
        four.mean_e2e(),
        two.mean_e2e()
    );
}

#[test]
fn deterministic_replay() {
    let c = cost();
    let tr = trace(1.0, PopularityDist::Uniform, 8);
    let a = DeltaZipEngine::new(c, DeltaZipConfig::default()).run(&tr);
    let b = DeltaZipEngine::new(c, DeltaZipConfig::default()).run(&tr);
    assert_eq!(a.mean_e2e(), b.mean_e2e());
    assert_eq!(a.makespan_s, b.makespan_s);
}
