//! Synthetic downstream tasks of graded difficulty.
//!
//! These stand in for the paper's evaluation suites (Amazon Review
//! classification, Synthetic Palindrome Numbers, BoolQ-style Yes/No,
//! GSM8K-style math, NLI classification, SQL generation). Each task emits
//! token sequences whose final `answer_len` tokens are the label the model
//! must produce; accuracy is teacher-forced argmax over those positions.
//!
//! Difficulty is graded deliberately: the recall task is learnable by a
//! low-rank update (so LoRA ties FMT, like SQL generation in Figure 2 of
//! the paper), while carry arithmetic needs full-rank updates (so FMT beats
//! LoRA, like GSM8K/HumanEval).

use crate::vocab::{self, digit, word, BOS, EQUALS, NEG, NO, PLUS, POS, QUERY, SEP, YES};
use dz_tensor::Rng;

/// One training or evaluation example.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Example {
    /// The full token sequence, answer included at the end.
    pub tokens: Vec<usize>,
    /// How many trailing tokens form the answer.
    pub answer_len: usize,
}

impl Example {
    /// The answer tokens.
    pub fn answer(&self) -> &[usize] {
        &self.tokens[self.tokens.len() - self.answer_len..]
    }

    /// The prompt (everything before the answer).
    pub fn prompt(&self) -> &[usize] {
        &self.tokens[..self.tokens.len() - self.answer_len]
    }
}

/// Rough difficulty class, used to mirror the paper's task grading.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Difficulty {
    /// Learnable by low-rank adapters (LoRA ties FMT).
    Easy,
    /// In between.
    Medium,
    /// Needs full-rank updates (FMT beats LoRA).
    Hard,
}

/// A synthetic downstream task.
pub trait Task: Send + Sync {
    /// Short stable identifier (used in experiment tables).
    fn name(&self) -> &'static str;
    /// Difficulty class.
    fn difficulty(&self) -> Difficulty;
    /// Samples one example.
    fn sample(&self, rng: &mut Rng) -> Example;
}

/// Sentiment-style classification (stands in for Amazon Review).
///
/// Words `0..NUM_WORDS/2` carry positive sentiment, the rest negative; the
/// label is the majority sentiment of the six drawn words.
#[derive(Debug, Default, Clone, Copy)]
pub struct SentimentTask;

impl Task for SentimentTask {
    fn name(&self) -> &'static str {
        "sentiment"
    }

    fn difficulty(&self) -> Difficulty {
        Difficulty::Easy
    }

    fn sample(&self, rng: &mut Rng) -> Example {
        let half = vocab::NUM_WORDS / 2;
        let positive_label = rng.bernoulli(0.5);
        let mut tokens = vec![BOS];
        let mut pos_count = 0usize;
        // Draw 7 words (odd, so no ties) biased toward the label.
        for _ in 0..7 {
            let from_label = rng.bernoulli(0.75);
            let is_pos = if from_label {
                positive_label
            } else {
                !positive_label
            };
            let w = if is_pos {
                word(rng.below(half))
            } else {
                word(half + rng.below(vocab::NUM_WORDS - half))
            };
            if is_pos {
                pos_count += 1;
            }
            tokens.push(w);
        }
        tokens.push(SEP);
        tokens.push(if pos_count > 3 { POS } else { NEG });
        Example {
            tokens,
            answer_len: 1,
        }
    }
}

/// Palindrome detection over digit strings (the paper's own synthetic task
/// for Pythia).
#[derive(Debug, Default, Clone, Copy)]
pub struct PalindromeTask;

impl Task for PalindromeTask {
    fn name(&self) -> &'static str {
        "palindrome"
    }

    fn difficulty(&self) -> Difficulty {
        Difficulty::Medium
    }

    fn sample(&self, rng: &mut Rng) -> Example {
        let n = 4 + rng.below(3); // 4..=6 digits
        let make_palindrome = rng.bernoulli(0.5);
        let mut digits: Vec<usize> = (0..n).map(|_| rng.below(10)).collect();
        if make_palindrome {
            for i in 0..n / 2 {
                digits[n - 1 - i] = digits[i];
            }
        } else {
            // Ensure it is NOT a palindrome by breaking one mirrored pair.
            let i = rng.below(n / 2);
            let mirrored = digits[i];
            let mut other = rng.below(10);
            while other == mirrored {
                other = rng.below(10);
            }
            digits[n - 1 - i] = other;
        }
        let is_pal = digits.iter().eq(digits.iter().rev());
        let mut tokens = vec![BOS];
        tokens.extend(digits.iter().map(|&d| digit(d)));
        tokens.push(SEP);
        tokens.push(if is_pal { YES } else { NO });
        Example {
            tokens,
            answer_len: 1,
        }
    }
}

/// Membership query (stands in for BoolQ-style yes/no questions): is the
/// queried digit present in the list?
#[derive(Debug, Default, Clone, Copy)]
pub struct BoolQTask;

impl Task for BoolQTask {
    fn name(&self) -> &'static str {
        "boolq"
    }

    fn difficulty(&self) -> Difficulty {
        Difficulty::Easy
    }

    fn sample(&self, rng: &mut Rng) -> Example {
        let n = 6;
        let digits: Vec<usize> = (0..n).map(|_| rng.below(10)).collect();
        // Choose present/absent query with equal probability.
        let want_present = rng.bernoulli(0.5);
        let q = if want_present {
            digits[rng.below(n)]
        } else {
            // Find a digit not in the list (exists since n < 10).
            loop {
                let c = rng.below(10);
                if !digits.contains(&c) {
                    break c;
                }
            }
        };
        let present = digits.contains(&q);
        let mut tokens = vec![BOS];
        tokens.extend(digits.iter().map(|&d| digit(d)));
        tokens.push(QUERY);
        tokens.push(digit(q));
        tokens.push(SEP);
        tokens.push(if present { YES } else { NO });
        Example {
            tokens,
            answer_len: 1,
        }
    }
}

/// Addition with carries (stands in for GSM8K-style math).
///
/// `BOS a + b = c1 c0` where the two-token answer is the decimal rendering
/// of `a + b` (tens digit then units digit). Both answer tokens must be
/// right, and the carry structure makes this the hardest task in the suite —
/// the one where low-rank adaptation falls short.
#[derive(Debug, Default, Clone, Copy)]
pub struct MathTask;

impl Task for MathTask {
    fn name(&self) -> &'static str {
        "math"
    }

    fn difficulty(&self) -> Difficulty {
        Difficulty::Hard
    }

    fn sample(&self, rng: &mut Rng) -> Example {
        let a = rng.below(10);
        let b = rng.below(10);
        let c = a + b;
        let tokens = vec![
            BOS,
            digit(a),
            PLUS,
            digit(b),
            EQUALS,
            digit(c / 10),
            digit(c % 10),
        ];
        Example {
            tokens,
            answer_len: 2,
        }
    }
}

/// Latent-order comparison (stands in for NLI classification): given two
/// distinct words, does the first precede the second in a fixed hidden
/// order? The model must internalize the global order of all word tokens.
#[derive(Debug, Default, Clone, Copy)]
pub struct NliTask;

impl Task for NliTask {
    fn name(&self) -> &'static str {
        "nli"
    }

    fn difficulty(&self) -> Difficulty {
        Difficulty::Medium
    }

    fn sample(&self, rng: &mut Rng) -> Example {
        let a = rng.below(vocab::NUM_WORDS);
        let mut b = rng.below(vocab::NUM_WORDS);
        while b == a {
            b = rng.below(vocab::NUM_WORDS);
        }
        let tokens = vec![
            BOS,
            word(a),
            SEP,
            word(b),
            QUERY,
            if a < b { YES } else { NO },
        ];
        Example {
            tokens,
            answer_len: 1,
        }
    }
}

/// Structured field lookup (stands in for SQL generation / structured
/// tasks): `BOS column-word QUERY value` where the value is a fixed
/// deterministic function of the column token. The model memorizes the
/// schema — a pure token-association skill that low-rank updates handle
/// well, keeping this the suite's LoRA-friendly representative.
#[derive(Debug, Default, Clone, Copy)]
pub struct RecallTask;

/// The hidden schema function for [`RecallTask`].
fn schema_value(column: usize) -> usize {
    (7 * column + 3) % 10
}

impl Task for RecallTask {
    fn name(&self) -> &'static str {
        "recall"
    }

    fn difficulty(&self) -> Difficulty {
        Difficulty::Easy
    }

    fn sample(&self, rng: &mut Rng) -> Example {
        let column = rng.below(vocab::NUM_WORDS);
        let tokens = vec![BOS, word(column), QUERY, digit(schema_value(column))];
        Example {
            tokens,
            answer_len: 1,
        }
    }
}

/// Returns the full task suite in a stable order.
pub fn all_tasks() -> Vec<Box<dyn Task>> {
    vec![
        Box::new(SentimentTask),
        Box::new(PalindromeTask),
        Box::new(BoolQTask),
        Box::new(MathTask),
        Box::new(NliTask),
        Box::new(RecallTask),
    ]
}

/// The pre-training corpus sampler.
///
/// A mixture of (a) Markov-ish word sentences, (b) digit strings, and
/// (c) task-shaped sequences with *uniform random* answers. The base model
/// therefore learns token statistics and formats but not the answer
/// mappings, so base accuracy on each task sits near chance — matching the
/// "Base" rows in the paper's quality figures.
#[derive(Debug, Clone, Copy)]
pub struct Corpus {
    /// Maximum sequence length to emit.
    pub max_len: usize,
}

impl Corpus {
    /// Creates a corpus bounded by the model's context length.
    pub fn new(max_len: usize) -> Self {
        assert!(max_len >= 12, "corpus needs room for task formats");
        Corpus { max_len }
    }

    /// Samples one pre-training sequence.
    pub fn sample(&self, rng: &mut Rng) -> Vec<usize> {
        match rng.below(4) {
            0 => self.word_sentence(rng),
            1 => self.digit_string(rng),
            _ => self.format_like(rng),
        }
    }

    fn word_sentence(&self, rng: &mut Rng) -> Vec<usize> {
        // First-order chain: each word prefers its successors; gives the
        // model non-trivial statistics to learn.
        let len = 6 + rng.below(self.max_len - 7);
        let mut toks = vec![BOS];
        let mut cur = rng.below(vocab::NUM_WORDS);
        for _ in 0..len {
            toks.push(word(cur));
            cur = if rng.bernoulli(0.7) {
                (cur + 1 + rng.below(3)) % vocab::NUM_WORDS
            } else {
                rng.below(vocab::NUM_WORDS)
            };
        }
        toks
    }

    fn digit_string(&self, rng: &mut Rng) -> Vec<usize> {
        let len = 4 + rng.below(self.max_len - 5);
        let mut toks = vec![BOS];
        for _ in 0..len {
            toks.push(digit(rng.below(10)));
        }
        toks
    }

    fn format_like(&self, rng: &mut Rng) -> Vec<usize> {
        // A task-format sequence whose answer is replaced by a random label,
        // teaching format but not mapping.
        let tasks = all_tasks();
        let t = &tasks[rng.below(tasks.len())];
        let mut ex = t.sample(rng);
        let n = ex.tokens.len();
        for i in (n - ex.answer_len)..n {
            ex.tokens[i] = match ex.tokens[i] {
                YES | NO => {
                    if rng.bernoulli(0.5) {
                        YES
                    } else {
                        NO
                    }
                }
                POS | NEG => {
                    if rng.bernoulli(0.5) {
                        POS
                    } else {
                        NEG
                    }
                }
                _ => digit(rng.below(10)),
            };
        }
        ex.tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_task(task: &dyn Task, max_len: usize) {
        let mut rng = Rng::seeded(99);
        for _ in 0..200 {
            let ex = task.sample(&mut rng);
            assert!(ex.tokens.len() <= max_len, "{} too long", task.name());
            assert!(ex.answer_len >= 1 && ex.answer_len < ex.tokens.len());
            assert_eq!(ex.tokens[0], BOS);
            assert!(ex.tokens.iter().all(|&t| t < vocab::MIN_VOCAB));
        }
    }

    #[test]
    fn all_tasks_emit_wellformed_examples() {
        for t in all_tasks() {
            check_task(t.as_ref(), 24);
        }
    }

    #[test]
    fn labels_are_balanced() {
        let mut rng = Rng::seeded(7);
        for t in all_tasks() {
            if t.answer_is_binary() {
                let mut firsts = std::collections::HashMap::new();
                for _ in 0..2000 {
                    let ex = t.sample(&mut rng);
                    *firsts.entry(ex.answer()[0]).or_insert(0usize) += 1;
                }
                for (&label, &count) in &firsts {
                    let frac = count as f64 / 2000.0;
                    assert!(
                        frac > 0.35 && frac < 0.65,
                        "{}: label {} has frac {}",
                        t.name(),
                        label,
                        frac
                    );
                }
            }
        }
    }

    #[test]
    fn palindrome_labels_are_correct() {
        let mut rng = Rng::seeded(1);
        for _ in 0..500 {
            let ex = PalindromeTask.sample(&mut rng);
            let digits: Vec<usize> = ex.tokens[1..ex.tokens.len() - 2].to_vec();
            let is_pal = digits.iter().eq(digits.iter().rev());
            let label = *ex.answer().first().unwrap();
            assert_eq!(label, if is_pal { YES } else { NO });
        }
    }

    #[test]
    fn math_answers_are_correct_sums() {
        let mut rng = Rng::seeded(2);
        for _ in 0..500 {
            let ex = MathTask.sample(&mut rng);
            let d = |i: usize| ex.tokens[i] - vocab::DIGIT0;
            assert_eq!(d(5) * 10 + d(6), d(1) + d(3));
            assert_eq!(ex.answer_len, 2);
        }
    }

    #[test]
    fn recall_answers_follow_schema() {
        let mut rng = Rng::seeded(3);
        for _ in 0..500 {
            let ex = RecallTask.sample(&mut rng);
            let column = ex.tokens[1] - vocab::WORD0;
            assert_eq!(ex.tokens[3] - vocab::DIGIT0, schema_value(column));
        }
    }

    #[test]
    fn recall_is_deterministic_per_input() {
        // The same column must always map to the same value, and the map
        // must not be constant.
        assert_eq!(schema_value(4), schema_value(4));
        assert_ne!(schema_value(0), schema_value(1));
    }

    #[test]
    fn corpus_sequences_fit_context() {
        let corpus = Corpus::new(24);
        let mut rng = Rng::seeded(4);
        for _ in 0..500 {
            let s = corpus.sample(&mut rng);
            assert!(s.len() <= 24, "len {}", s.len());
            assert!(s.len() >= 2);
            assert!(s.iter().all(|&t| t < vocab::MIN_VOCAB));
        }
    }

    impl dyn Task {
        fn answer_is_binary(&self) -> bool {
            matches!(self.name(), "sentiment" | "palindrome" | "boolq" | "nli")
        }
    }
}
