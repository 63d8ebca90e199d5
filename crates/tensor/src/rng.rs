//! Deterministic random number generation.
//!
//! All stochastic components in the reproduction (weight init, workload
//! generation, task synthesis) draw from this seeded generator so that every
//! experiment is exactly reproducible from its seed. The core is
//! `xoshiro256**`, a small, fast, well-tested PRNG; normal variates come from
//! the Box-Muller transform (no caching; simplicity over the last ~2x).

/// A small deterministic PRNG (xoshiro256**) with convenience samplers.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed using SplitMix64 expansion.
    pub fn seeded(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        let s = [next(), next(), next(), next()];
        Self { s }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f32` in `[0, 1)`.
    pub fn uniform(&mut self) -> f32 {
        // Use the top 24 bits for a uniformly spaced float.
        (self.next_u64() >> 40) as f32 / (1u32 << 24) as f32
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn uniform_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is meaningless");
        // Rejection-free multiply-shift; bias is negligible for n << 2^64.
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Standard normal variate via Box-Muller.
    pub fn normal(&mut self) -> f32 {
        let mut u1 = self.uniform_f64();
        if u1 <= f64::MIN_POSITIVE {
            u1 = f64::MIN_POSITIVE;
        }
        let u2 = self.uniform_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        (r * (2.0 * std::f64::consts::PI * u2).cos()) as f32
    }

    /// Exponential variate with the given rate (mean `1/rate`).
    ///
    /// # Panics
    ///
    /// Panics if `rate <= 0`.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential rate must be positive");
        let mut u = self.uniform_f64();
        if u <= f64::MIN_POSITIVE {
            u = f64::MIN_POSITIVE;
        }
        -u.ln() / rate
    }

    /// Log-normal variate: `exp(mu + sigma * N(0,1))`.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.normal() as f64).exp()
    }

    /// Returns `true` with probability `p`.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.uniform_f64() < p
    }

    /// Samples an index from unnormalized non-negative weights.
    ///
    /// # Panics
    ///
    /// Panics if the weights are empty or sum to zero.
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must have positive sum");
        let mut target = self.uniform_f64() * total;
        for (i, w) in weights.iter().enumerate() {
            target -= w;
            if target < 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_sequences() {
        let mut a = Rng::seeded(1);
        let mut b = Rng::seeded(1);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn uniform_in_range() {
        let mut rng = Rng::seeded(2);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn below_in_range_and_covers() {
        let mut rng = Rng::seeded(3);
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            let v = rng.below(7);
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn normal_moments_are_sane() {
        let mut rng = Rng::seeded(4);
        let n = 100_000;
        let (mut sum, mut sq) = (0.0f64, 0.0f64);
        for _ in 0..n {
            let v = rng.normal() as f64;
            sum += v;
            sq += v * v;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut rng = Rng::seeded(5);
        let n = 100_000;
        let rate = 2.5;
        let mean: f64 = (0..n).map(|_| rng.exponential(rate)).sum::<f64>() / n as f64;
        assert!((mean - 1.0 / rate).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn weighted_respects_weights() {
        let mut rng = Rng::seeded(6);
        let weights = [1.0, 3.0];
        let n = 50_000;
        let ones = (0..n).filter(|_| rng.weighted(&weights) == 1).count();
        let frac = ones as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.02, "frac {frac}");
    }

    #[test]
    fn bernoulli_frequency() {
        let mut rng = Rng::seeded(9);
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.bernoulli(0.3)).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.01, "frac {frac}");
    }
}
