//! The delta artifact store end to end: ΔCompress two variants, publish
//! them as content-addressed `.dza` artifacts, verify and reload them,
//! fetch them back through the tiered disk→host cache (a disk miss that
//! decodes, then a decode-free host hit), and price a simulated replay by
//! each artifact's real compressed bytes (§5.4 hierarchical delta
//! management).
//!
//! ```text
//! cargo run --release --example delta_zoo_store
//! ```

use deltazip::DeltaZip;
use dz_compress::pipeline::DeltaCompressConfig;
use dz_gpusim::shapes::ModelShape;
use dz_gpusim::spec::NodeSpec;
use dz_model::tasks::{Corpus, NliTask, SentimentTask};
use dz_model::train::{finetune_fmt, pretrain, TrainConfig};
use dz_model::transformer::{test_config, Params};
use dz_serve::{CostModel, Engine, EngineBuilder};
use dz_store::{Registry, TieredDeltaStore};
use dz_tensor::Rng;
use dz_workload::{PopularityDist, Trace, TraceSpec};

fn main() {
    // Train a tiny base and two full-model-tuned variants.
    let cfg = test_config();
    let mut rng = Rng::seeded(7);
    let mut base = Params::init(cfg, &mut rng);
    let corpus = Corpus::new(cfg.max_seq);
    pretrain(&mut base, &corpus, TrainConfig::pretrain(40));
    let mut sent = base.clone();
    finetune_fmt(&mut sent, &SentimentTask, TrainConfig::finetune(25));
    let mut nli = base.clone();
    finetune_fmt(&mut nli, &NliTask, TrainConfig::finetune(25));

    let mut dz = DeltaZip::new();
    let b = dz
        .register_base("tiny-base", base.clone())
        .expect("register base");
    let v4 = dz
        .register_fmt_variant("sentiment-4bit", b, &sent, DeltaCompressConfig::starred(4))
        .expect("register 4-bit variant");
    let v2 = dz
        .register_fmt_variant("nli-2bit", b, &nli, DeltaCompressConfig::starred(2))
        .expect("register 2-bit variant");

    // Publish both into a content-addressed zoo directory and audit them.
    let zoo_dir = std::env::temp_dir().join(format!("dz-zoo-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&zoo_dir);
    let registry = Registry::open(&zoo_dir).expect("open registry");
    let id4 = dz.persist_variant(v4, &registry).expect("persist 4-bit");
    let id2 = dz.persist_variant(v2, &registry).expect("persist 2-bit");

    println!("zoo at {}", zoo_dir.display());
    for (name, id) in registry.refs().expect("refs") {
        let size = registry.size_of(&id).expect("size");
        println!("  {name:<16} -> {}.dza  ({size} bytes)", &id.hex()[..12]);
        registry
            .verify(&id)
            .expect("content hash matches file name");
    }

    // A fresh process reloads a variant, lineage-checked against its base,
    // and serves it exactly like the in-memory original.
    let mut fresh = DeltaZip::new();
    let fb = fresh.register_base("tiny-base", base).expect("base");
    let reloaded = fresh
        .register_variant_from_artifact(fb, &registry, &id4)
        .expect("reload 4-bit");
    let prompt = [1usize, 20, 21, 2];
    let tokens = fresh.generate(reloaded, &prompt, 4).expect("generate");
    assert_eq!(tokens, dz.generate(v4, &prompt, 4).expect("generate"));
    println!("\nreloaded sentiment-4bit generates {tokens:?}, as before persisting");

    // Fetch through the tiered disk→host cache: a disk miss reads and
    // decodes the artifact, a repeat is a decode-free host hit.
    let sizes = [
        registry.size_of(&id4).expect("size"),
        registry.size_of(&id2).expect("size"),
    ];
    let mut store = TieredDeltaStore::new(registry, 1 << 30);
    for (label, id) in [("miss", id4), ("hit", id4), ("miss", id2)] {
        let fetch = store.fetch_decoded(&id).expect("fetch");
        let decode = match fetch.decode {
            Some(stats) => format!("decoded in {:.3} ms", stats.wall_s * 1e3),
            None => "decode-free".to_string(),
        };
        println!(
            "  {label:<4} {}: {:?}, {} bytes, {decode}",
            &id.hex()[..12],
            fetch.tier,
            fetch.bytes
        );
    }
    let stats = store.total_stats();
    println!(
        "store: {} disk loads ({} bytes), {} host hits ({} bytes)",
        stats.disk_loads, stats.disk_bytes, stats.host_hits, stats.host_bytes
    );

    // Price a simulated replay by each artifact's real size: the one way
    // artifact bytes reach the serving cost model.
    let cost = CostModel::new(NodeSpec::a800_node(4), ModelShape::llama13b());
    let trace = Trace::generate(TraceSpec {
        n_models: 2,
        arrival_rate: 1.0,
        duration_s: 60.0,
        popularity: PopularityDist::Zipf { alpha: 1.5 },
        seed: 3,
    });
    println!();
    for (label, bytes) in [("sentiment-4bit", sizes[0]), ("nli-2bit", sizes[1])] {
        let priced = cost.with_delta_bytes(bytes as f64);
        let metrics = EngineBuilder::new(priced).build().run(&trace);
        let total_load: f64 = metrics.records.iter().map(|r| r.load_s).sum();
        println!(
            "  every delta at {label}'s {bytes} bytes: {} requests, mean e2e {:.3}s, total load wait {:.3}ms",
            metrics.len(),
            metrics.mean_e2e(),
            total_load * 1e3
        );
    }

    let _ = std::fs::remove_dir_all(&zoo_dir);
}
