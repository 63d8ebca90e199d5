//! Criterion benches for the §8 policy extensions: replay cost of the
//! scheduler policies and decode throughput of the CPU SGMV adapter path
//! versus the decoupled delta path, the latter for a SparseGPT★, a
//! BitDelta and a Delta-CoMe delta.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dz_compress::calib::calibration_set;
use dz_compress::codec::{BitDeltaCodec, DeltaCodec, DeltaComeCodec};
use dz_compress::pipeline::{delta_compress, DeltaCompressConfig};
use dz_gpusim::shapes::ModelShape;
use dz_gpusim::spec::NodeSpec;
use dz_kernels::decoupled::DecoupledBatch;
use dz_kernels::{AdapterView, BatchRunner, Variant};
use dz_model::lora::{LoraAdapter, LoraConfig};
use dz_model::rosa::{RosaAdapter, RosaConfig};
use dz_model::tasks::Corpus;
use dz_model::transformer::{test_config, Params};
use dz_serve::predictor::LengthEstimator;
use dz_serve::slo::SloPolicy;
use dz_serve::tuning::{DynamicN, DynamicNConfig};
use dz_serve::{
    CostModel, DeltaZipConfig, DeltaZipEngine, Engine, EngineBuilder, PreemptionPolicy,
};
use dz_tensor::Rng;
use dz_workload::{PopularityDist, Trace, TraceSpec};

fn trace() -> Trace {
    Trace::generate(TraceSpec {
        n_models: 24,
        arrival_rate: 2.0,
        duration_s: 60.0,
        popularity: PopularityDist::Zipf { alpha: 1.5 },
        seed: 42,
    })
}

fn bench_policy_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("policy_replay");
    group.sample_size(10);
    let cost = CostModel::new(NodeSpec::a800_node(4), ModelShape::llama13b());
    let tr = trace();
    group.bench_function("baseline", |b| {
        b.iter(|| DeltaZipEngine::new(cost, DeltaZipConfig::default()).run(&tr))
    });
    group.bench_function("length_aware", |b| {
        b.iter(|| {
            EngineBuilder::new(cost)
                .scheduler(DeltaZipConfig {
                    preemption: PreemptionPolicy::LengthAware { spare_tokens: 16 },
                    ..DeltaZipConfig::default()
                })
                .estimator(LengthEstimator::quantile(0.75))
                .build()
                .run(&tr)
        })
    });
    group.bench_function("slo_priority", |b| {
        b.iter(|| {
            EngineBuilder::new(cost)
                .slo(SloPolicy::tiered(24, 4))
                .build()
                .run(&tr)
        })
    });
    group.bench_function("dynamic_n", |b| {
        b.iter(|| {
            EngineBuilder::new(cost)
                .dynamic_n(DynamicN::new(DynamicNConfig::default(), 4))
                .build()
                .run(&tr)
        })
    });
    group.finish();
}

fn bench_cpu_decode_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("cpu_decode");
    group.sample_size(10);
    let cfg = test_config();
    let mut rng = Rng::seeded(1);
    let base = Params::init(cfg, &mut rng);

    // Delta path: an untrained-but-packed variant, plus a seeded
    // perturbation of the base in BitDelta and Delta-CoMe form (a noisy
    // delta keeps every low-rank band).
    let corpus = Corpus::new(cfg.max_seq);
    let calib = calibration_set(&corpus, 4, 2);
    let mut tuned = base.clone();
    tuned.for_each_mut(|_, m| m.map_assign(|v| v + 0.01));
    let (cd, _) = delta_compress(&base, &tuned, &calib, DeltaCompressConfig::starred(4));
    let (mut noisy, mut noise) = (base.clone(), Rng::seeded(2));
    noisy.for_each_mut(|_, m| {
        for v in m.data_mut() {
            *v += 0.01 * noise.normal();
        }
    });
    let (bit, _) = BitDeltaCodec::per_row().compress(&base, &noisy, &calib);
    let (come, _) = DeltaComeCodec::low_budget().compress(&base, &noisy, &calib);

    // Adapter path: one LoRA and one RoSA adapter.
    let lora = LoraAdapter::init(&base, LoraConfig::rank(8), &mut rng);
    let mut rosa = RosaAdapter::init(&base, RosaConfig::new(8, 0.05), &mut rng);
    for s in &mut rosa.sparse {
        // Synthetic support so the sparse term has work to do.
        for i in 0..s.mask.len() / 20 {
            s.mask.data_mut()[i * 20] = 1.0;
            s.values.data_mut()[i * 20] = 0.01;
        }
    }

    for batch_size in [2usize, 8] {
        let prompt = vec![1usize, 5, 9, 3];
        for (name, delta) in [
            ("delta_sbmm", &cd),
            ("delta_bitdelta", &bit),
            ("delta_deltacome", &come),
        ] {
            group.bench_with_input(BenchmarkId::new(name, batch_size), &batch_size, |b, &n| {
                b.iter(|| {
                    let mut batch = DecoupledBatch::new(&base, vec![delta]);
                    for _ in 0..n {
                        batch.admit(0, &prompt);
                    }
                    for _ in 0..4 {
                        batch.decode_step();
                    }
                })
            });
        }
        group.bench_with_input(
            BenchmarkId::new("adapter_sgmv", batch_size),
            &batch_size,
            |b, &n| {
                b.iter(|| {
                    let views = [AdapterView::from_lora(&lora), AdapterView::from_rosa(&rosa)];
                    let mut batch = BatchRunner::new(&base, views.map(Variant::adapter).into());
                    for i in 0..n {
                        batch.admit(i % 2, &prompt);
                    }
                    for _ in 0..4 {
                        batch.decode_step();
                    }
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_policy_replay, bench_cpu_decode_paths);
criterion_main!(benches);
