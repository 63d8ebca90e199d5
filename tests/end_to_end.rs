//! End-to-end integration: train -> register -> ΔCompress -> serve, across
//! crates, checking the paper's qualitative claims at miniature scale.

use deltazip::DeltaZip;
use dz_compress::pipeline::DeltaCompressConfig;
use dz_model::eval::task_accuracy;
use dz_model::tasks::{Corpus, NliTask, SentimentTask, Task};
use dz_model::train::{finetune_fmt, pretrain, TrainConfig};
use dz_model::transformer::{ModelConfig, Params};
use dz_model::vocab;
use dz_tensor::Rng;

fn train_base(cfg: ModelConfig, seed: u64, steps: usize) -> Params {
    let mut rng = Rng::seeded(seed);
    let mut base = Params::init(cfg, &mut rng);
    let corpus = Corpus::new(cfg.max_seq);
    pretrain(&mut base, &corpus, TrainConfig::pretrain(steps));
    base
}

fn tiny_cfg() -> ModelConfig {
    ModelConfig {
        vocab: vocab::MIN_VOCAB,
        d_model: 32,
        n_layers: 2,
        n_heads: 4,
        d_ff: 64,
        max_seq: 24,
    }
}

#[test]
fn register_compress_serve_quality_loop() {
    let cfg = tiny_cfg();
    let base = train_base(cfg, 1, 250);
    let mut tuned = base.clone();
    finetune_fmt(
        &mut tuned,
        &SentimentTask,
        TrainConfig {
            steps: 500,
            batch: 8,
            lr: 2e-3,
            clip: 1.0,
            seed: 2,
        },
    );
    let fmt_acc = task_accuracy(&tuned, &SentimentTask, 300, &mut Rng::seeded(3));
    assert!(fmt_acc > 0.85, "FMT training failed: {fmt_acc}");

    let mut dz = DeltaZip::new();
    let b = dz.register_base("base", base).unwrap();
    let v = dz
        .register_fmt_variant("sentiment", b, &tuned, DeltaCompressConfig::starred(4))
        .unwrap();

    // Claim 1: the artifact is several times smaller than FP16.
    let report = dz.size_report(v).unwrap();
    assert!(
        report.model_ratio() > 1.8,
        "model ratio too low: {}",
        report.model_ratio()
    );
    assert!(
        report.delta_ratio() > 3.0,
        "delta ratio {}",
        report.delta_ratio()
    );

    // Claim 2: compression keeps accuracy close to FMT.
    let rec = dz.reconstruct(v).unwrap();
    let rec_acc = task_accuracy(&rec, &SentimentTask, 300, &mut Rng::seeded(3));
    assert!(
        rec_acc > fmt_acc - 0.1,
        "ΔCompress lost too much: {rec_acc} vs {fmt_acc}"
    );

    // Claim 3: the decoupled serving path computes the same function as the
    // reconstructed dense model.
    let mut task_rng = Rng::seeded(9);
    for _ in 0..10 {
        let ex = SentimentTask.sample(&mut task_rng);
        let served = dz.generate(v, ex.prompt(), 1).unwrap();
        let dense = dz_model::eval::greedy_generate(&rec, ex.prompt(), 1);
        assert_eq!(served, dense);
    }
}

#[test]
fn multi_variant_zoo_round_trip() {
    let cfg = tiny_cfg();
    let base = train_base(cfg, 5, 200);
    let mut sentiment = base.clone();
    finetune_fmt(&mut sentiment, &SentimentTask, TrainConfig::finetune(200));
    let mut nli = base.clone();
    finetune_fmt(&mut nli, &NliTask, TrainConfig::finetune(200));

    let mut dz = DeltaZip::new();
    let b = dz.register_base("shared-base", base).unwrap();
    let v1 = dz
        .register_fmt_variant("sentiment", b, &sentiment, DeltaCompressConfig::starred(4))
        .unwrap();
    let v2 = dz
        .register_fmt_variant("nli", b, &nli, DeltaCompressConfig::starred(2))
        .unwrap();
    for v in [v1, v2] {
        assert_eq!(dz.manager().variant(v).unwrap().base, b);
    }

    // 2-bit packs tighter than 4-bit.
    let r1 = dz.size_report(v1).unwrap();
    let r2 = dz.size_report(v2).unwrap();
    assert!(r2.compressed_linear_bytes < r1.compressed_linear_bytes);

    // Batched generation across both variants matches per-variant serving.
    let p1 = vec![vocab::BOS, vocab::word(1), vocab::word(2), vocab::SEP];
    let p2 = vec![
        vocab::BOS,
        vocab::word(3),
        vocab::SEP,
        vocab::word(9),
        vocab::QUERY,
    ];
    let batch = dz
        .generate_batch(&[(v1, p1.clone()), (v2, p2.clone())], 4)
        .unwrap();
    assert_eq!(batch[0], dz.generate(v1, &p1, 4).unwrap());
    assert_eq!(batch[1], dz.generate(v2, &p2, 4).unwrap());
}

#[test]
fn lossless_stage_round_trips_packed_deltas() {
    let cfg = tiny_cfg();
    let base = train_base(cfg, 7, 150);
    let mut tuned = base.clone();
    finetune_fmt(&mut tuned, &SentimentTask, TrainConfig::finetune(150));
    let corpus = Corpus::new(cfg.max_seq);
    let calib = dz_compress::calib::calibration_set(&corpus, 8, 1);
    let (cd, _) = dz_compress::pipeline::delta_compress(
        &base,
        &tuned,
        &calib,
        DeltaCompressConfig::starred(2),
    );
    let payload = cd.to_bytes();
    let compressed = dz_lossless::compress(&payload);
    let restored = dz_lossless::decompress(&compressed).unwrap();
    assert_eq!(restored, payload);
    // Packed 2-bit deltas have plenty of zero runs; lossless should bite.
    assert!(
        compressed.len() < payload.len(),
        "{} -> {}",
        payload.len(),
        compressed.len()
    );
}
