//! Acceptance integration: a compressed delta round-trips through
//! `ArtifactWriter → registry → ModelManager`, a `TieredDeltaStore`
//! accounts the real `.dza` bytes of each miss and decode-free hit, and a
//! simulated engine priced with `CostModel::with_delta_bytes` charges a
//! cold request exactly the load time of its artifact's size.

use deltazip::{DeltaZip, DzError};
use dz_compress::pipeline::DeltaCompressConfig;
use dz_gpusim::shapes::ModelShape;
use dz_gpusim::spec::NodeSpec;
use dz_model::tasks::{Corpus, NliTask, SentimentTask};
use dz_model::train::{finetune_fmt, pretrain, TrainConfig};
use dz_model::transformer::{test_config, Params};
use dz_serve::{CostModel, Engine, EngineBuilder};
use dz_store::{FetchTier, Registry, TieredDeltaStore};
use dz_tensor::Rng;
use dz_workload::{PopularityDist, Request, Trace, TraceSpec};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("deltazip-roundtrip-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn one_request_trace(model: usize, n_models: usize) -> Trace {
    Trace {
        spec: TraceSpec {
            n_models,
            arrival_rate: 1.0,
            duration_s: 1.0,
            popularity: PopularityDist::Uniform,
            seed: 0,
        },
        requests: vec![Request {
            id: 0,
            model,
            arrival: 0.0,
            prompt_tokens: 16,
            output_tokens: 4,
        }],
    }
}

#[test]
fn full_pipeline_roundtrip_and_byte_accurate_load_waits() {
    // 1. Train a tiny base and two fine-tuned variants; ΔCompress them.
    let cfg = test_config();
    let mut rng = Rng::seeded(1);
    let mut base = Params::init(cfg, &mut rng);
    let corpus = Corpus::new(cfg.max_seq);
    pretrain(&mut base, &corpus, TrainConfig::pretrain(40));
    let mut sent = base.clone();
    finetune_fmt(&mut sent, &SentimentTask, TrainConfig::finetune(25));
    let mut nli = base.clone();
    finetune_fmt(&mut nli, &NliTask, TrainConfig::finetune(25));

    let mut dz = DeltaZip::new();
    let b = dz.register_base("tiny-base", base.clone()).unwrap();
    let v_sent = dz
        .register_fmt_variant("sent", b, &sent, DeltaCompressConfig::starred(4))
        .unwrap();
    let v_nli = dz
        .register_fmt_variant("nli", b, &nli, DeltaCompressConfig::starred(2))
        .unwrap();

    // 2. Persist both variants: ArtifactWriter → content-addressed registry.
    let dir = temp_dir("pipeline");
    let registry = Registry::open(&dir).expect("open registry");
    let id_sent = dz.persist_variant(v_sent, &registry).unwrap();
    let id_nli = dz.persist_variant(v_nli, &registry).unwrap();
    assert_ne!(id_sent, id_nli);
    registry.verify(&id_sent).expect("sent integrity");
    registry.verify(&id_nli).expect("nli integrity");

    // 3. A fresh ModelManager loads the variants back from the registry and
    // serves byte-identically to the in-memory originals.
    let mut dz2 = DeltaZip::new();
    let b2 = dz2.register_base("tiny-base", base).unwrap();
    let v2_sent = dz2
        .register_variant_from_artifact(b2, &registry, &id_sent)
        .unwrap();
    let v2_nli = dz2
        .register_variant_from_artifact(b2, &registry, &id_nli)
        .unwrap();
    let prompt = [1usize, 20, 21, 2];
    assert_eq!(
        dz2.generate(v2_sent, &prompt, 4).unwrap(),
        dz.generate(v_sent, &prompt, 4).unwrap()
    );
    assert_eq!(
        dz2.generate(v2_nli, &prompt, 4).unwrap(),
        dz.generate(v_nli, &prompt, 4).unwrap()
    );
    // Loading against an unknown artifact id fails with a typed error.
    let bogus = dz_store::ArtifactId(dz_store::sha256(b"no such artifact"));
    assert!(matches!(
        dz2.register_variant_from_artifact(b2, &registry, &bogus),
        Err(DzError::Storage(_))
    ));

    // 4. Loading: a TieredDeltaStore fetches the artifacts by their real
    // .dza sizes — a disk miss runs and measures the decode, a repeat is a
    // decode-free host hit — and accounts every byte it moved.
    let size_sent = registry.size_of(&id_sent).expect("size");
    let size_nli = registry.size_of(&id_nli).expect("size");
    // 2-bit deltas pack tighter than 4-bit ones on disk too.
    assert!(size_nli < size_sent, "{size_nli} vs {size_sent}");
    let mut store = TieredDeltaStore::new(registry, 1 << 30);
    let cold = store.fetch_decoded(&id_sent).expect("cold fetch");
    assert_eq!(cold.tier, FetchTier::DiskMiss);
    assert_eq!(cold.bytes, size_sent);
    assert!(cold.decode.is_some(), "a disk miss runs the decode");
    let warm = store.fetch_decoded(&id_sent).expect("warm fetch");
    assert_eq!(warm.tier, FetchTier::HostHit);
    assert!(warm.decode.is_none(), "the decoded copy stays resident");
    assert_eq!(warm.raw_bytes, cold.raw_bytes);
    assert_eq!(*warm.delta, *cold.delta);
    let nli_cold = store.fetch_decoded(&id_nli).expect("nli fetch");
    assert_eq!(nli_cold.tier, FetchTier::DiskMiss);
    assert_eq!(nli_cold.bytes, size_nli);
    assert_eq!(store.decode_throughput().loads, 2);
    let total = store.total_stats();
    assert_eq!(total.disk_loads, 2);
    assert_eq!(total.disk_bytes, size_sent + size_nli);
    assert_eq!(total.host_hits, 1);
    assert_eq!(total.host_bytes, size_sent);

    // 5. Serving: an artifact's real size prices the simulated swap-in.
    // A lone cold request waits exactly the cold charge for its bytes,
    // and the smaller 2-bit artifact waits less.
    let cost = CostModel::new(NodeSpec::a800_node(4), ModelShape::llama13b());
    let wait = |bytes: u64, model: usize| {
        let priced = cost.with_delta_bytes(bytes as f64);
        let m = EngineBuilder::new(priced)
            .build()
            .run(&one_request_trace(model, 2));
        assert_eq!(m.len(), 1);
        let want = priced.delta_cold_load_time();
        let got = m.records[0].load_s;
        assert!(
            (got - want).abs() < 1e-9,
            "cold wait {got} must equal the artifact-sized charge {want}"
        );
        got
    };
    assert!(wait(size_nli, 1) < wait(size_sent, 0));

    std::fs::remove_dir_all(&dir).ok();
}
