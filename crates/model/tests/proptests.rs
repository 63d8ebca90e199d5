//! Property-based tests for the transformer substrate.

use dz_model::transformer::{forward_full, forward_infer, test_config, KvCache, Params};
use dz_tensor::Rng;
use proptest::prelude::*;

fn arb_tokens(max_len: usize, vocab: usize) -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0..vocab, 1..=max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn forward_is_finite_on_any_tokens(seed in any::<u64>(), ids in arb_tokens(20, 60)) {
        let cfg = test_config();
        let params = Params::init(cfg, &mut Rng::seeded(seed));
        let logits = forward_full(&params, &ids);
        prop_assert_eq!(logits.shape(), (ids.len(), cfg.vocab));
        prop_assert!(logits.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn kv_cache_matches_full_forward_any_split(seed in any::<u64>(), ids in arb_tokens(16, 60), split in 1usize..15) {
        let cfg = test_config();
        let params = Params::init(cfg, &mut Rng::seeded(seed));
        let split = split.min(ids.len());
        let full = forward_full(&params, &ids);
        let mut cache = KvCache::new(cfg.n_layers);
        let mut logits = forward_infer(&params, &ids[..split], &mut cache);
        for t in split..ids.len() {
            logits = forward_infer(&params, &ids[t..t + 1], &mut cache);
        }
        let last = logits.submatrix(logits.rows() - 1, 0, 1, cfg.vocab);
        let reference = full.submatrix(ids.len() - 1, 0, 1, cfg.vocab);
        prop_assert!(last.max_abs_diff(&reference) < 1e-2,
            "cache diverged: {}", last.max_abs_diff(&reference));
    }

    #[test]
    fn delta_add_back_is_exact(seed in any::<u64>()) {
        let cfg = test_config();
        let base = Params::init(cfg, &mut Rng::seeded(seed));
        let tuned = Params::init(cfg, &mut Rng::seeded(seed ^ 0xFF));
        let delta = tuned.delta_from(&base);
        let mut rebuilt = base.clone();
        let dts = delta.tensors();
        for (r, d) in rebuilt.tensors_mut().into_iter().zip(dts) {
            r.add_assign(d);
        }
        let tts = tuned.tensors();
        for (a, b) in rebuilt.tensors().into_iter().zip(tts) {
            prop_assert!(a.max_abs_diff(b) < 1e-5);
        }
    }

    #[test]
    fn task_examples_always_evaluable(seed in any::<u64>()) {
        // Any sampled example fits the context and has in-vocab tokens, so
        // eval never panics.
        let cfg = test_config();
        let params = Params::init(cfg, &mut Rng::seeded(seed));
        let mut rng = Rng::seeded(seed ^ 1);
        for task in dz_model::tasks::all_tasks() {
            let ex = task.sample(&mut rng);
            let _ = dz_model::eval::example_correct(&params, &ex.tokens, ex.answer_len);
        }
    }
}
