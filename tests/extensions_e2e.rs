//! End-to-end integration of the §8 extensions: RoSA and GaLore variants
//! through the DeltaZip facade, and the policy knobs (SLO classes, length
//! prediction, resume, dynamic N) through the serving simulator.

use deltazip::{DeltaZip, DzError, VariantArtifact};
use dz_compress::pipeline::DeltaCompressConfig;
use dz_gpusim::shapes::ModelShape;
use dz_gpusim::spec::NodeSpec;
use dz_model::eval::task_accuracy;
use dz_model::galore::{finetune_galore, low_rank_residual, GaloreConfig};
use dz_model::rosa::{finetune_rosa, RosaAdapter, RosaConfig};
use dz_model::tasks::{Corpus, SentimentTask};
use dz_model::train::{pretrain, TrainConfig};
use dz_model::transformer::{ModelConfig, Params};
use dz_model::vocab;
use dz_serve::predictor::LengthEstimator;
use dz_serve::slo::SloPolicy;
use dz_serve::tuning::{DynamicN, DynamicNConfig};
use dz_serve::{
    CostModel, DeltaZipConfig, DeltaZipEngine, Engine, EngineBuilder, PreemptionPolicy,
    ResumePolicy,
};
use dz_tensor::Rng;
use dz_workload::{PopularityDist, Trace, TraceSpec};

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

fn train_base(seed: u64, steps: usize) -> Params {
    let cfg = tiny_cfg();
    let mut rng = Rng::seeded(seed);
    let mut base = Params::init(cfg, &mut rng);
    pretrain(
        &mut base,
        &Corpus::new(cfg.max_seq),
        TrainConfig::pretrain(steps),
    );
    base
}

#[test]
fn rosa_and_galore_through_the_facade() {
    let base = train_base(21, 250);
    let train = TrainConfig {
        steps: 300,
        batch: 8,
        lr: 1e-2,
        clip: 1.0,
        seed: 22,
    };

    let mut rosa = RosaAdapter::init(&base, RosaConfig::new(4, 0.05), &mut Rng::seeded(23));
    finetune_rosa(&base, &mut rosa, &SentimentTask, train);

    let mut galore_model = base.clone();
    finetune_galore(
        &mut galore_model,
        &SentimentTask,
        TrainConfig { lr: 3e-3, ..train },
        GaloreConfig::rank(4),
    );

    let mut dz = DeltaZip::new();
    let b = dz.register_base("base", base.clone()).unwrap();
    let v_rosa = dz.register_rosa("rosa", b, rosa).unwrap();
    let v_galore = dz
        .register_fmt_variant("galore", b, &galore_model, DeltaCompressConfig::starred(4))
        .unwrap();

    // Both variants improved over the (already decent) base model.
    let mut eval_rng = Rng::seeded(24);
    let base_acc = task_accuracy(&base, &SentimentTask, 300, &mut eval_rng);
    for vid in [v_rosa, v_galore] {
        let served = dz.reconstruct(vid).unwrap();
        let acc = task_accuracy(&served, &SentimentTask, 300, &mut eval_rng);
        assert!(
            acc > (base_acc + 0.05).max(0.85),
            "variant {vid:?} failed to learn: {acc} vs base {base_acc}"
        );
    }

    // GaLore's update is full-rank: only the delta path can host it, and
    // ΔCompress still packs it several times smaller than FP16.
    let delta = galore_model
        .get("layer0.wq")
        .unwrap()
        .sub(base.get("layer0.wq").unwrap());
    assert!(low_rank_residual(&delta, 4, &mut eval_rng) > 0.05);
    let report = dz.size_report(v_galore).unwrap();
    assert!(
        report.delta_ratio() > 3.0,
        "delta ratio {}",
        report.delta_ratio()
    );

    // RoSA rides the adapter path; its artifact undercuts both the full
    // model and a dense FP16 delta of the adapted projections (at real
    // scale the gap is d/r-fold; at d=32 it is modest but must exist).
    let info = dz.manager().variant(v_rosa).unwrap();
    let VariantArtifact::Rosa(adapter) = &info.artifact else {
        panic!("rosa variant stored under the wrong artifact kind");
    };
    let dense_delta_bytes: usize = adapter
        .pairs
        .iter()
        .map(|p| base.get(&p.name).unwrap().len() * 2)
        .sum();
    assert!(info.artifact.swap_bytes() < dense_delta_bytes);
    assert!(info.artifact.swap_bytes() < base.fp16_bytes());
    assert_eq!(dz.size_report(v_rosa), Err(DzError::NotADelta));
}

#[test]
fn full_policy_stack_serves_a_bursty_zoo() {
    // All the §8 knobs at once on a bursty multi-variant workload: SLO
    // tiers + length-aware preemption + cost-based resume + dynamic N +
    // bounded host cache. Everything must still be served exactly once,
    // and interactive TTFT must not lose to plain FCFS.
    let cost = CostModel::new(NodeSpec::a800_node(4), ModelShape::llama13b());
    let trace = Trace::generate(TraceSpec {
        n_models: 24,
        arrival_rate: 2.5,
        duration_s: 90.0,
        popularity: PopularityDist::AzureLike,
        seed: 31,
    });
    let policy = SloPolicy::tiered(24, 4);
    let config = DeltaZipConfig {
        max_concurrent_deltas: 4,
        max_batch: 24,
        preemption: PreemptionPolicy::LengthAware { spare_tokens: 12 },
        resume: ResumePolicy::CostBased,
        host_capacity_deltas: Some(12),
        ..DeltaZipConfig::default()
    };
    let plain = DeltaZipEngine::new(cost, DeltaZipConfig::default()).run(&trace);
    let full = EngineBuilder::new(cost)
        .scheduler(config)
        .slo(policy.clone())
        .estimator(LengthEstimator::quantile(0.75))
        .dynamic_n(DynamicN::new(DynamicNConfig::default(), 4))
        .build()
        .run(&trace);

    assert_eq!(full.len(), trace.len());
    let mut ids: Vec<usize> = full.records.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..trace.len()).collect::<Vec<_>>());
    for r in &full.records {
        assert!(r.e2e_s > 0.0 && r.ttft_s > 0.0 && r.ttft_s <= r.e2e_s + 1e-9);
    }

    let interactive_ttft = |m: &dz_serve::Metrics| {
        policy
            .split_metrics(m)
            .into_iter()
            .find(|(c, _)| *c == dz_serve::SloClass::Interactive)
            .map(|(_, s)| s.mean_ttft())
            .unwrap_or(0.0)
    };
    // Margin note: overlapped swapping (the default) already removes
    // cold-load stalls from interactive requests in the *plain* baseline,
    // so the policy stack's relative headroom is thinner than it was
    // under serialized loading.
    assert!(
        interactive_ttft(&full) <= interactive_ttft(&plain) * 1.15,
        "policy stack hurt interactive TTFT: {} vs {}",
        interactive_ttft(&full),
        interactive_ttft(&plain)
    );
}
