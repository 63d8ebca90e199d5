//! Adapter serving on the one toppings engine: LoRA and RoSA catalogs
//! against compressed-delta and full-model serving (Figures 14–15 and §8).

use dz_gpusim::shapes::ModelShape;
use dz_gpusim::spec::NodeSpec;
use dz_serve::{
    CostModel, DeltaZipConfig, DeltaZipEngine, Engine, EngineBuilder, Metrics, VariantCatalog,
    VariantSpec, VllmScbConfig, VllmScbEngine,
};
use dz_workload::{PopularityDist, Trace, TraceSpec};

const N_MODELS: usize = 16;

fn trace(rate: f64, seed: u64) -> Trace {
    Trace::generate(TraceSpec {
        n_models: N_MODELS,
        arrival_rate: rate,
        duration_s: 60.0,
        popularity: PopularityDist::Uniform,
        seed,
    })
}

fn cost() -> CostModel {
    CostModel::new(NodeSpec::a800_node(4), ModelShape::llama13b())
}

/// Runs `tr` with every model served as `spec`.
fn serve_all_as(spec: VariantSpec, tr: &Trace) -> Metrics {
    EngineBuilder::new(cost())
        .catalog(VariantCatalog::from_specs(vec![spec; N_MODELS]))
        .build()
        .run(tr)
}

#[test]
fn serves_everything_with_no_load_waits() {
    let tr = trace(1.0, 1);
    let m = serve_all_as(VariantSpec::lora(16), &tr);
    assert_eq!(m.len(), tr.len());
    assert!(m.records.iter().all(|r| r.load_s == 0.0));
}

#[test]
fn figure15_ordering_lora_fastest_fullmodel_slowest() {
    let tr = trace(1.5, 2);
    let lora = serve_all_as(VariantSpec::lora(16), &tr);
    let dz = DeltaZipEngine::new(cost(), DeltaZipConfig::default()).run(&tr);
    let vllm = VllmScbEngine::new(cost(), VllmScbConfig::default()).run(&tr);
    assert!(
        lora.mean_e2e() <= dz.mean_e2e() * 1.05,
        "lora {} vs dz {}",
        lora.mean_e2e(),
        dz.mean_e2e()
    );
    assert!(
        dz.mean_e2e() < vllm.mean_e2e(),
        "dz {} vs vllm {}",
        dz.mean_e2e(),
        vllm.mean_e2e()
    );
}

#[test]
fn higher_rank_is_slightly_slower() {
    let tr = trace(2.0, 3);
    let r16 = serve_all_as(VariantSpec::lora(16), &tr);
    let r64 = serve_all_as(VariantSpec::lora(64), &tr);
    assert!(
        r16.mean_e2e() <= r64.mean_e2e() * 1.01,
        "r16 {} vs r64 {}",
        r16.mean_e2e(),
        r64.mean_e2e()
    );
}

#[test]
fn rosa_serving_sits_between_lora_and_delta() {
    // §8's point: RoSA adapters are servable on the adapter path and
    // cost more than plain LoRA, yet stay well under compressed-delta
    // FMT serving.
    let tr = trace(1.5, 4);
    let rosa = serve_all_as(VariantSpec::rosa(16, 0.01), &tr);
    let lora = serve_all_as(VariantSpec::lora(16), &tr);
    let dz = DeltaZipEngine::new(cost(), DeltaZipConfig::default()).run(&tr);
    assert_eq!(rosa.len(), tr.len());
    assert!(
        rosa.mean_e2e() >= lora.mean_e2e(),
        "rosa {} should not undercut lora {}",
        rosa.mean_e2e(),
        lora.mean_e2e()
    );
    assert!(
        rosa.mean_e2e() < dz.mean_e2e() * 1.5,
        "rosa {} should stay near adapter-serving costs, dz {}",
        rosa.mean_e2e(),
        dz.mean_e2e()
    );
}

#[test]
fn rosa_co_batched_with_deltas_and_lora_pays_its_sparse_term() {
    // One RoSA adapter in a pool of deltas and plain LoRA adapters: every
    // request is served, the pools mix, and the sparse term shows up as
    // adapter (SGMV) time over the same catalog at density 0.
    let tr = trace(2.0, 5);
    let run = |density: f64| {
        let specs = (0..N_MODELS)
            .map(|i| match i {
                4 => VariantSpec::rosa(16, density),
                _ if i % 2 == 0 => VariantSpec::delta(),
                _ => VariantSpec::lora(16),
            })
            .collect();
        EngineBuilder::new(cost())
            .catalog(VariantCatalog::from_specs(specs))
            .build()
            .run(&tr)
    };
    let (plain, rosa) = (run(0.0), run(0.01));
    for m in [&plain, &rosa] {
        assert_eq!(m.len(), tr.len());
        assert_eq!(m.toppings.total_reqs(), tr.len());
        assert!(m.toppings.mixed_batches > 0, "pools never mixed");
    }
    assert!(
        rosa.toppings.sgmv_s > plain.toppings.sgmv_s,
        "rosa sgmv {} vs density-0 sgmv {}",
        rosa.toppings.sgmv_s,
        plain.toppings.sgmv_s
    );
}
