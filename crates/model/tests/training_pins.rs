//! Golden pins over the parameters each training loop produces.
//!
//! Each pin is an FNV-1a checksum over the f32 bits of every trained
//! tensor after a few optimizer steps at `test_config()`: full-model
//! pre-training and fine-tuning, LoRA, RoSA and GaLore. The loops share
//! the tape forward and the Adam update, so a change to either that is
//! not bit-for-bit neutral moves these pins.
//!
//! If a change alters training numerics *on purpose*, re-pin deliberately
//! from the `got` value the failing assertion prints.

use dz_model::galore::{finetune_galore, GaloreConfig};
use dz_model::lora::{finetune_lora, LoraAdapter, LoraConfig, LoraTargets};
use dz_model::rosa::{finetune_rosa, RosaAdapter, RosaConfig};
use dz_model::tasks::{Corpus, RecallTask, SentimentTask};
use dz_model::train::{finetune_fmt, pretrain, TrainConfig};
use dz_model::transformer::{test_config, Params};
use dz_tensor::{Matrix, Rng};

/// FNV-1a over the f32 bits of a list of tensors, in order.
fn pin<'a>(tensors: impl IntoIterator<Item = &'a Matrix>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for m in tensors {
        for v in m.data() {
            for b in v.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

fn check(label: &str, got: u64, want: u64) {
    assert_eq!(got, want, "{label} parameters changed: got {got:#018x}");
}

fn steps(n: usize, lr: f32, seed: u64) -> TrainConfig {
    TrainConfig {
        steps: n,
        batch: 2,
        lr,
        clip: 1.0,
        seed,
    }
}

/// A briefly pre-trained base shared by the fine-tuning pins.
fn base() -> Params {
    let cfg = test_config();
    let mut p = Params::init(cfg, &mut Rng::seeded(11));
    pretrain(&mut p, &Corpus::new(cfg.max_seq), steps(3, 3e-3, 12));
    p
}

#[test]
fn pretrain_is_pinned() {
    check("pretrain", pin(base().tensors()), 0xaa42_7a40_2c7b_a531);
}

#[test]
fn finetune_fmt_is_pinned() {
    let mut p = base();
    finetune_fmt(&mut p, &SentimentTask, steps(4, 4e-4, 13));
    check("finetune_fmt", pin(p.tensors()), 0x6260_d36b_27e0_086d);
}

#[test]
fn finetune_lora_is_pinned() {
    let p = base();
    let mut rng = Rng::seeded(14);
    let config = LoraConfig {
        targets: LoraTargets::AttentionQv,
        ..LoraConfig::rank(2)
    };
    let mut adapter = LoraAdapter::init(&p, config, &mut rng);
    finetune_lora(&p, &mut adapter, &RecallTask, steps(4, 1e-2, 15));
    let tensors = adapter.pairs.iter().flat_map(|pr| [&pr.a, &pr.b]);
    check("finetune_lora", pin(tensors), 0x1de2_34db_c30f_2405);
}

#[test]
fn finetune_rosa_is_pinned() {
    let p = base();
    let mut rng = Rng::seeded(16);
    let mut config = RosaConfig::new(2, 0.05);
    config.mask_warmup_steps = 2;
    config.sparse_lr_scale = 0.5;
    let mut adapter = RosaAdapter::init(&p, config, &mut rng);
    finetune_rosa(&p, &mut adapter, &RecallTask, steps(4, 1e-2, 17));
    let tensors = adapter
        .pairs
        .iter()
        .zip(&adapter.sparse)
        .flat_map(|(pr, s)| [&pr.a, &pr.b, &s.values, &s.mask]);
    check("finetune_rosa", pin(tensors), 0x3b12_4c96_e528_1b93);
}

#[test]
fn finetune_galore_is_pinned() {
    let mut p = base();
    let gcfg = GaloreConfig {
        rank: 2,
        refresh_every: 2,
    };
    finetune_galore(&mut p, &RecallTask, steps(4, 3e-3, 18), gcfg);
    check("finetune_galore", pin(p.tensors()), 0x13b9_a263_4a25_0913);
}
