//! Model quality evaluation: task accuracy, perplexity, greedy generation.

use crate::tasks::Task;
use crate::transformer::{argmax, forward_infer, KvCache, Params};
use dz_tensor::Rng;

/// Teacher-forced accuracy on `n` fresh samples of a task.
///
/// An example counts as correct only if *every* answer token is the argmax
/// at its position (matching exact-match scoring of short answers).
pub fn task_accuracy(params: &Params, task: &dyn Task, n: usize, rng: &mut Rng) -> f64 {
    let mut correct = 0usize;
    for _ in 0..n {
        let ex = task.sample(rng);
        if example_correct(params, &ex.tokens, ex.answer_len) {
            correct += 1;
        }
    }
    correct as f64 / n as f64
}

/// Checks a single example under teacher forcing.
pub fn example_correct(params: &Params, tokens: &[usize], answer_len: usize) -> bool {
    let t = tokens.len();
    debug_assert!(answer_len >= 1 && answer_len < t);
    let logits = teacher_forced_logits(params, &tokens[..t - 1]);
    for k in 0..answer_len {
        let pos = t - 1 - answer_len + k; // Logit row predicting tokens[pos + 1].
        if argmax(logits.row(pos)) != tokens[pos + 1] {
            return false;
        }
    }
    true
}

/// Mean negative log-likelihood per token over the given sequences (nats).
pub fn mean_nll(params: &Params, seqs: &[Vec<usize>]) -> f64 {
    let mut total = 0.0f64;
    let mut count = 0usize;
    for seq in seqs {
        if seq.len() < 2 {
            continue;
        }
        let logits = teacher_forced_logits(params, &seq[..seq.len() - 1]);
        for (row, &target) in (0..logits.rows()).zip(seq[1..].iter()) {
            let r = logits.row(row);
            let max = r.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let lse = max + r.iter().map(|&v| (v - max).exp()).sum::<f32>().ln();
            total += (lse - r[target]) as f64;
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// Logits of every position of `ids` (`T x vocab`) from one inference
/// pass over a fresh cache: no autograd tape, and bit-equal to
/// [`forward_full`](crate::transformer::forward_full).
fn teacher_forced_logits(params: &Params, ids: &[usize]) -> dz_tensor::Matrix {
    forward_infer(params, ids, &mut KvCache::new(params.config.n_layers))
}

/// Perplexity (`exp` of [`mean_nll`]).
pub fn perplexity(params: &Params, seqs: &[Vec<usize>]) -> f64 {
    mean_nll(params, seqs).exp()
}

/// Greedy generation with the KV cache; returns the generated ids.
///
/// Stops after `max_new` tokens (there is no EOS in the synthetic vocab; in
/// the serving simulator output lengths come from the workload model).
// dz-lint: allow(dead-pub, "reference single-sequence decoder the batched decode tests compare against")
pub fn greedy_generate(params: &Params, prompt: &[usize], max_new: usize) -> Vec<usize> {
    assert!(!prompt.is_empty(), "prompt must be non-empty");
    let mut cache = KvCache::new(params.config.n_layers);
    let mut logits = forward_infer(params, prompt, &mut cache);
    let mut out = Vec::with_capacity(max_new);
    for _ in 0..max_new {
        if cache.len() >= params.config.max_seq {
            break;
        }
        let next = argmax(logits.row(logits.rows() - 1));
        out.push(next);
        if cache.len() == params.config.max_seq {
            break;
        }
        logits = forward_infer(params, &[next], &mut cache);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::{Corpus, SentimentTask, Task};
    use crate::transformer::{test_config, Params};

    #[test]
    fn untrained_model_is_near_chance() {
        let cfg = test_config();
        let mut rng = Rng::seeded(1);
        let p = Params::init(cfg, &mut rng);
        let acc = task_accuracy(&p, &SentimentTask, 300, &mut Rng::seeded(2));
        // Random logits over a 60-token vocab: near zero.
        assert!(acc < 0.25, "untrained accuracy suspiciously high: {acc}");
    }

    #[test]
    fn perplexity_of_untrained_model_near_vocab_size() {
        let cfg = test_config();
        let mut rng = Rng::seeded(3);
        let p = Params::init(cfg, &mut rng);
        let corpus = Corpus::new(cfg.max_seq);
        let seqs: Vec<Vec<usize>> = (0..20).map(|_| corpus.sample(&mut rng)).collect();
        let ppl = perplexity(&p, &seqs);
        assert!(
            ppl > cfg.vocab as f64 * 0.3 && ppl < cfg.vocab as f64 * 3.0,
            "ppl {ppl}"
        );
    }

    #[test]
    fn greedy_generate_produces_tokens() {
        let cfg = test_config();
        let mut rng = Rng::seeded(4);
        let p = Params::init(cfg, &mut rng);
        let out = greedy_generate(&p, &[1, 10, 11], 5);
        assert_eq!(out.len(), 5);
        assert!(out.iter().all(|&t| t < cfg.vocab));
    }

    #[test]
    fn greedy_generate_respects_context_limit() {
        let cfg = test_config();
        let mut rng = Rng::seeded(5);
        let p = Params::init(cfg, &mut rng);
        let prompt: Vec<usize> = (0..cfg.max_seq - 2).map(|i| 1 + i % 10).collect();
        let out = greedy_generate(&p, &prompt, 100);
        assert!(
            out.len() <= 2,
            "generated {} tokens past the limit",
            out.len()
        );
    }

    #[test]
    fn example_correct_checks_all_answer_positions() {
        let cfg = test_config();
        let mut rng = Rng::seeded(6);
        let p = Params::init(cfg, &mut rng);
        // Build a sequence; whatever the model predicts for the final two
        // positions, flipping one answer token must not *increase* accuracy.
        let mut rng2 = Rng::seeded(7);
        let ex = crate::tasks::MathTask.sample(&mut rng2);
        let ok = example_correct(&p, &ex.tokens, ex.answer_len);
        // On an untrained model correctness is almost surely false.
        let _ = ok;
        let acc = task_accuracy(&p, &crate::tasks::MathTask, 50, &mut Rng::seeded(8));
        assert!(acc < 0.3);
    }
}
