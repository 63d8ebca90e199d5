//! Multi-tenant serving scenario: 32 fine-tuned 13B variants behind one
//! 4-GPU node, bursty Azure-like traffic — the paper's core use case.
//!
//! Replays the same trace through DeltaZip, the vLLM+SCB baseline, and
//! DeltaZip serving the 32 variants as LoRA adapters (the Punica-style
//! adapter path) on the calibrated GPU performance model, then prints the
//! comparison.
//!
//! ```text
//! cargo run --release --example serve_multi_tenant
//! ```

use dz_gpusim::shapes::ModelShape;
use dz_gpusim::spec::NodeSpec;
use dz_serve::{
    CostModel, DeltaZipConfig, DeltaZipEngine, Engine, EngineBuilder, VariantCatalog, VariantSpec,
    VllmScbConfig, VllmScbEngine,
};
use dz_workload::stats::{idle_fraction, invocation_matrix, render_heatmap};
use dz_workload::{PopularityDist, Trace, TraceSpec};

fn main() {
    let trace = Trace::generate(TraceSpec {
        n_models: 32,
        arrival_rate: 1.0,
        duration_s: 300.0,
        popularity: PopularityDist::AzureLike,
        seed: 99,
    });
    println!(
        "trace: {} requests, 32 variants, 300 s (Azure-like bursts)\n",
        trace.len()
    );
    let matrix = invocation_matrix(&trace, 15.0);
    println!("{}", render_heatmap(&matrix[..8.min(matrix.len())]));
    println!(
        "... ({:.0}% of (model, window) cells idle)\n",
        idle_fraction(&matrix) * 100.0
    );

    let cost = CostModel::new(NodeSpec::a800_node(4), ModelShape::llama13b());
    let dz = |n| {
        DeltaZipEngine::new(
            cost,
            DeltaZipConfig {
                max_concurrent_deltas: n,
                ..DeltaZipConfig::default()
            },
        )
    };
    let lora = EngineBuilder::new(cost)
        .catalog(VariantCatalog::from_specs(vec![VariantSpec::lora(16); 32]))
        .build();
    // The adapter row is the DeltaZip engine over an all-LoRA catalog, so
    // rows carry their own names rather than the engine labels.
    let mut engines: Vec<(&str, Box<dyn Engine>)> = vec![
        (
            "vLLM+SCB",
            Box::new(VllmScbEngine::new(cost, VllmScbConfig::default())),
        ),
        ("DeltaZip(N=8)", Box::new(dz(8))),
        ("DeltaZip(N=12)", Box::new(dz(12))),
        ("LoRA(r=16)", Box::new(lora)),
    ];
    println!(
        "{:<18} {:>10} {:>10} {:>12} {:>14}",
        "engine", "E2E (s)", "TTFT (s)", "req/s", "SLO@60s E2E"
    );
    for (name, engine) in engines.iter_mut() {
        let m = engine.run(&trace);
        println!(
            "{:<18} {:>10.1} {:>10.2} {:>12.2} {:>13.0}%",
            name,
            m.mean_e2e(),
            m.mean_ttft(),
            m.throughput_rps(),
            m.slo_attainment_e2e(60.0) * 100.0
        );
    }
    println!("\n(LoRA row is the adapter-serving upper bound; DeltaZip brings");
    println!(" full-model-tuned variants within reach of it.)");
}
