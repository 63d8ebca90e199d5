//! Golden pins over the token streams the batched decode runners produce.
//!
//! Each pin is an FNV-1a checksum over every slot's generated tokens for
//! one `(scenario, batch size)` cell. The base is an untrained
//! `Params::init` model; each fine-tuned variant is that base plus a seeded
//! perturbation of every tensor (so the per-variant `rest` tensors differ
//! too). Delta scenarios compress the variants with SparseGPT 4-bit and
//! 2-bit 2:4, BitDelta, Delta-CoMe and a mix of all four codecs; adapter
//! scenarios serve seeded LoRA and RoSA adapters (one attention-only, so
//! some projections carry no adapter) and a LoRA+RoSA mix. A last scenario
//! batches two deltas with an attention-only LoRA adapter. Every cell runs
//! batch sizes 1, 3 and 8 with uneven prompt lengths, admits half of the
//! requests after decoding has started, and decodes at least 4 steps.
//!
//! If a change alters runner numerics *on purpose*, re-pin deliberately:
//! run with
//! `DZ_PRINT_PINS=1 cargo test -p dz-kernels --test runner_pins -- --nocapture`
//! and paste the printed hashes.

use dz_compress::calib::calibration_set;
use dz_compress::codec::{BitDeltaCodec, DeltaCodec, DeltaComeCodec, SparseGptCodec};
use dz_compress::pipeline::CompressedDelta;
use dz_kernels::decoupled::DecoupledBatch;
use dz_kernels::{AdapterView, BatchRunner, Variant};
use dz_model::lora::{LoraAdapter, LoraConfig, LoraTargets};
use dz_model::rosa::{RosaAdapter, RosaConfig};
use dz_model::tasks::Corpus;
use dz_model::transformer::{test_config, Params};
use dz_tensor::{Matrix, Rng};

const BATCHES: [usize; 3] = [1, 3, 8];
/// Decode steps before the late requests are admitted, and after.
const EARLY_STEPS: usize = 2;
const LATE_STEPS: usize = 4;

/// FNV-1a over u32 words.
struct Pin(u64);

impl Pin {
    fn new() -> Self {
        Pin(0xcbf2_9ce4_8422_2325)
    }
    fn word(&mut self, w: u32) {
        for i in 0..4 {
            self.0 ^= u64::from((w >> (i * 8)) & 0xff);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Requests of one cell: request `i` targets variant `i % n_variants` with
/// a seeded prompt of 1 to 7 tokens.
fn requests(batch: usize, n_variants: usize) -> Vec<(usize, Vec<usize>)> {
    let vocab = test_config().vocab;
    let mut rng = Rng::seeded(0x5eed + batch as u64);
    (0..batch)
        .map(|i| {
            let len = 1 + (i * 3 + batch) % 7;
            let prompt = (0..len).map(|_| rng.below(vocab)).collect();
            (i % n_variants, prompt)
        })
        .collect()
}

/// Runs one cell on any batch runner: the first half of the requests
/// decode `EARLY_STEPS` alone, then the rest join and everyone decodes
/// `LATE_STEPS` more. Returns the pin over every slot's tokens.
macro_rules! run_cell {
    ($runner:expr, $batch:expr, $n_variants:expr) => {{
        let runner = &mut $runner;
        let reqs = requests($batch, $n_variants);
        let early = $batch.div_ceil(2);
        let mut slots = Vec::with_capacity($batch);
        for (variant, prompt) in &reqs[..early] {
            slots.push(runner.admit(*variant, prompt));
        }
        for _ in 0..EARLY_STEPS {
            runner.decode_step();
        }
        for (variant, prompt) in &reqs[early..] {
            slots.push(runner.admit(*variant, prompt));
        }
        for _ in 0..LATE_STEPS {
            runner.decode_step();
        }
        let mut pin = Pin::new();
        for slot in slots {
            let tokens = runner.generated(slot);
            pin.word(tokens.len() as u32);
            for &t in tokens {
                pin.word(t as u32);
            }
        }
        pin.0
    }};
}

fn base() -> Params {
    Params::init(test_config(), &mut Rng::seeded(0xba5e))
}

/// `base` with every tensor perturbed by seeded Gaussian noise.
fn perturbed(base: &Params, seed: u64) -> Params {
    let mut rng = Rng::seeded(seed);
    let mut tuned = base.clone();
    tuned.for_each_mut(|_, m| {
        for v in m.data_mut() {
            *v += 0.05 * rng.normal();
        }
    });
    tuned
}

/// The four codecs of the mixed scenario.
fn codecs() -> [Box<dyn DeltaCodec>; 4] {
    [
        Box::new(SparseGptCodec::starred(4)),
        Box::new(SparseGptCodec::starred(2)),
        Box::new(BitDeltaCodec::per_row()),
        Box::new(DeltaComeCodec::low_budget()),
    ]
}

/// Two perturbed variants compressed with `codec`.
fn deltas(base: &Params, codec: &dyn DeltaCodec, seed: u64) -> Vec<CompressedDelta> {
    let calib = calibration_set(&Corpus::new(base.config.max_seq), 4, 3);
    (0..2)
        .map(|i| codec.compress(base, &perturbed(base, seed + i), &calib).0)
        .collect()
}

/// A LoRA adapter with seeded non-zero `B`.
fn lora(base: &Params, targets: LoraTargets, seed: u64) -> LoraAdapter {
    let mut rng = Rng::seeded(seed);
    let config = LoraConfig {
        targets,
        ..LoraConfig::rank(2)
    };
    let mut adapter = LoraAdapter::init(base, config, &mut rng);
    for p in &mut adapter.pairs {
        p.b = Matrix::randn(p.b.rows(), p.b.cols(), 0.05, &mut rng);
    }
    adapter
}

/// A RoSA adapter with seeded non-zero `B` and a ~10%-dense sparse term.
fn rosa(base: &Params, seed: u64) -> RosaAdapter {
    let mut rng = Rng::seeded(seed);
    let mut adapter = RosaAdapter::init(base, RosaConfig::new(2, 0.1), &mut rng);
    for p in &mut adapter.pairs {
        p.b = Matrix::randn(p.b.rows(), p.b.cols(), 0.05, &mut rng);
    }
    for s in &mut adapter.sparse {
        for (v, m) in s.values.data_mut().iter_mut().zip(s.mask.data_mut()) {
            if rng.below(10) == 0 {
                *m = 1.0;
                *v = 0.1 * rng.normal();
            }
        }
    }
    adapter
}

/// Checks (or, with `DZ_PRINT_PINS` set, prints) one pin per batch size.
fn check(label: &str, want: [u64; 3], mut cell: impl FnMut(usize) -> u64) {
    let got: Vec<u64> = BATCHES.iter().map(|&b| cell(b)).collect();
    if std::env::var_os("DZ_PRINT_PINS").is_some() {
        let hex: Vec<String> = got.iter().map(|h| format!("0x{h:016x}")).collect();
        println!("{label}: [{}]", hex.join(", "));
        return;
    }
    assert_eq!(got, want, "{label} token streams changed");
}

fn check_deltas(label: &str, want: [u64; 3], variants: &[CompressedDelta]) {
    let base = base();
    check(label, want, |batch| {
        let mut runner = DecoupledBatch::new(&base, variants.iter().collect());
        run_cell!(runner, batch, variants.len())
    });
}

fn check_adapters<'a>(
    label: &str,
    want: [u64; 3],
    base: &'a Params,
    views: impl Fn() -> Vec<AdapterView<'a>>,
) {
    check(label, want, |batch| {
        let views = views();
        let n = views.len();
        let mut runner = BatchRunner::new(base, views.into_iter().map(Variant::adapter).collect());
        run_cell!(runner, batch, n)
    });
}

#[test]
fn sparsegpt_4bit_streams_are_pinned() {
    let variants = deltas(&base(), &SparseGptCodec::starred(4), 10);
    check_deltas(
        "sparsegpt-4bit",
        [0xe69a0855f591e45f, 0xb118354ca22506d6, 0x872001bab348418e],
        &variants,
    );
}

#[test]
fn sparsegpt_2bit_streams_are_pinned() {
    let variants = deltas(&base(), &SparseGptCodec::starred(2), 20);
    check_deltas(
        "sparsegpt-2bit",
        [0xa3955984d696f0d9, 0xa3de54aaa1e49fbe, 0x1145f4047fc3ec9c],
        &variants,
    );
}

#[test]
fn bitdelta_streams_are_pinned() {
    let variants = deltas(&base(), &BitDeltaCodec::per_row(), 30);
    check_deltas(
        "bitdelta",
        [0x02496976c4277b57, 0xb3c85b274cdbe3ed, 0x40d165ae88b5067f],
        &variants,
    );
}

#[test]
fn deltacome_streams_are_pinned() {
    let variants = deltas(&base(), &DeltaComeCodec::low_budget(), 40);
    check_deltas(
        "deltacome",
        [0x07ac47c7c9478460, 0xe47406ecdc14bea9, 0xbe3207602eee59d3],
        &variants,
    );
}

#[test]
fn codec_mix_streams_are_pinned() {
    let base = base();
    let calib = calibration_set(&Corpus::new(base.config.max_seq), 4, 3);
    let variants: Vec<CompressedDelta> = codecs()
        .iter()
        .enumerate()
        .map(|(i, codec)| {
            let tuned = perturbed(&base, 50 + i as u64);
            codec.compress(&base, &tuned, &calib).0
        })
        .collect();
    check_deltas(
        "codec-mix",
        [0x4dae899ab4527e62, 0xbf615875281247aa, 0x9c83a6b6514842eb],
        &variants,
    );
}

#[test]
fn lora_streams_are_pinned() {
    let base = base();
    let a = lora(&base, LoraTargets::AllLinear, 60);
    let b = lora(&base, LoraTargets::AttentionQv, 61);
    check_adapters(
        "lora",
        [0x5256b6f458f3a5e5, 0xaeaf826da85b5541, 0xc7ae6602cc1ac713],
        &base,
        || vec![AdapterView::from_lora(&a), AdapterView::from_lora(&b)],
    );
}

#[test]
fn rosa_streams_are_pinned() {
    let base = base();
    let a = rosa(&base, 70);
    let b = rosa(&base, 71);
    check_adapters(
        "rosa",
        [0x2451546c1b641739, 0x69d5a35118316aa6, 0xa8b74f1ff011145e],
        &base,
        || vec![AdapterView::from_rosa(&a), AdapterView::from_rosa(&b)],
    );
}

#[test]
fn lora_rosa_mix_streams_are_pinned() {
    let base = base();
    let l = lora(&base, LoraTargets::AttentionQv, 80);
    let r = rosa(&base, 81);
    check_adapters(
        "lora-rosa-mix",
        [0xa076aa293ff885f1, 0xfcb71e9fbcbacb34, 0xcb4bb17bc4b0d970],
        &base,
        || vec![AdapterView::from_lora(&l), AdapterView::from_rosa(&r)],
    );
}

#[test]
fn delta_lora_mix_streams_are_pinned() {
    let base = base();
    let variants = deltas(&base, &SparseGptCodec::starred(4), 90);
    let l = lora(&base, LoraTargets::AttentionQv, 92);
    check(
        "delta-lora-mix",
        [0x15f1d98a7b9d446d, 0x4cbbf28c99088390, 0x45a2ac3cd3992738],
        |batch| {
            let mut runner = BatchRunner::new(
                &base,
                vec![
                    Variant::delta(&variants[0]),
                    Variant::adapter(AdapterView::from_lora(&l)),
                    Variant::delta(&variants[1]),
                ],
            );
            run_cell!(runner, batch, 3)
        },
    );
}
