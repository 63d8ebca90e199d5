//! Acceptance integration: a compressed delta round-trips through
//! `ArtifactWriter → registry → TieredDeltaStore → ModelManager`, and the
//! serving engine's per-request `load_wait_s` reflects the artifact's real
//! compressed byte size under the measured pipeline model — charges are
//! max(physical transfer, measured decode), host hits never dearer than
//! disk misses.

use deltazip::{DeltaZip, DzError};
use dz_compress::pipeline::DeltaCompressConfig;
use dz_gpusim::shapes::ModelShape;
use dz_gpusim::spec::NodeSpec;
use dz_model::tasks::{Corpus, NliTask, SentimentTask};
use dz_model::train::{finetune_fmt, pretrain, TrainConfig};
use dz_model::transformer::{test_config, Params};
use dz_serve::{CostModel, DeltaStoreBinding, DeltaZipConfig};
use dz_store::{Registry, TieredDeltaStore};
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

    // 4. Serving: the engine bound to a TieredDeltaStore charges loads by
    // the artifacts' real .dza sizes.
    let size_sent = registry.size_of(&id_sent).expect("size");
    let size_nli = registry.size_of(&id_nli).expect("size");
    // 2-bit deltas pack tighter than 4-bit ones on disk too.
    assert!(size_nli < size_sent, "{size_nli} vs {size_sent}");

    let cost = CostModel::new(NodeSpec::a800_node(4), ModelShape::llama13b());
    let store = TieredDeltaStore::new(registry, 1 << 30);
    let binding = DeltaStoreBinding::new(store, vec![id_sent, id_nli]);
    let config = DeltaZipConfig::default();

    // Cold request: the single request waits exactly the pipelined charge
    // for its artifact's real byte size — max(disk + PCIe, decode) at the
    // decode throughput the store measured while serving this very fetch.
    let trace_sent = one_request_trace(0, 2);
    let (m_cold, binding) = dz2.simulate_with_store(&trace_sent, cost, config, binding);
    assert_eq!(m_cold.len(), 1);
    let cold_wait = m_cold.records[0].load_s;
    let gbps_cold = binding.measured_decode_gbps();
    assert!(
        gbps_cold.is_some(),
        "a cold load must leave a measured decode throughput behind"
    );
    let want_cold = cost
        .delta_cold_load_profile_measured(size_sent as f64, gbps_cold)
        .solo_s();
    assert!(
        (cold_wait - want_cold).abs() < 1e-9,
        "cold wait {cold_wait} must equal the artifact-sized charge {want_cold}"
    );

    // Warm request for the same variant: the artifact (and its decoded
    // form) is host-resident — no new decode runs, the measurement is
    // unchanged, and the charge is the decode-free swap-in: the *raw*
    // bytes stream over PCIe with no decompression stage, never more
    // than the cold charge.
    let (m_warm, mut binding) = dz2.simulate_with_store(&trace_sent, cost, config, binding);
    let warm_wait = m_warm.records[0].load_s;
    let gbps_warm = binding.measured_decode_gbps();
    assert_eq!(
        gbps_warm, gbps_cold,
        "a host hit must not re-run the decode pipeline"
    );
    let refetch = binding
        .store_mut()
        .fetch_decoded(&id_sent)
        .expect("decode-free refetch");
    assert!(
        refetch.decode.is_none(),
        "the decoded copy must still be resident"
    );
    let want_warm = cost
        .decoded_load_profile_bytes(refetch.raw_bytes as f64)
        .solo_s();
    assert!(
        (warm_wait - want_warm).abs() < 1e-9,
        "warm wait {warm_wait} must equal the decode-free charge {want_warm}"
    );
    assert!(
        warm_wait <= cold_wait,
        "host hit {warm_wait} cannot exceed disk miss {cold_wait}"
    );

    // The smaller 2-bit artifact's cold charge is again byte-exact under
    // the measurement taken after its own decode, and at equal throughput
    // fewer bytes always cost less.
    let trace_nli = one_request_trace(1, 2);
    let (m_nli, binding) = dz2.simulate_with_store(&trace_nli, cost, config, binding);
    let nli_cold_wait = m_nli.records[0].load_s;
    let gbps_nli = binding.measured_decode_gbps();
    let want_nli = cost
        .delta_cold_load_profile_measured(size_nli as f64, gbps_nli)
        .solo_s();
    assert!(
        (nli_cold_wait - want_nli).abs() < 1e-9,
        "nli cold wait {nli_cold_wait} must equal {want_nli}"
    );
    assert!(
        cost.delta_cold_load_profile_measured(size_nli as f64, gbps_nli)
            .solo_s()
            < cost
                .delta_cold_load_profile_measured(size_sent as f64, gbps_nli)
                .solo_s(),
        "fewer bytes must cost less at equal measured throughput"
    );

    // The store accounted every byte that crossed the disk link.
    let total = binding.store().total_stats();
    assert_eq!(total.disk_loads, 2);
    assert_eq!(total.disk_bytes, size_sent + size_nli);
    // Two host hits: the engine's warm load plus the test's own
    // decode-free refetch above.
    assert_eq!(total.host_hits, 2);
    assert_eq!(total.host_bytes, 2 * size_sent);

    std::fs::remove_dir_all(&dir).ok();
}
