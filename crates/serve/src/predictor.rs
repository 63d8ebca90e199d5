//! Online output-length prediction (§8 of the paper, future work).
//!
//! The paper's starvation handling preempts every line-skipping request
//! when its parent finishes, and §8 notes that "the preemption of requests
//! that are about to finish leads to unnecessary starvation and performance
//! degradation. We plan to explore more sophisticated mechanisms, such as
//! output length prediction". This module provides those predictors; the
//! [`crate::deltazip::DeltaZipEngine`] consumes them through
//! [`crate::policy::PreemptionPolicy::LengthAware`].
//!
//! Two online estimators are provided, both learning per-model from
//! finished requests with a shared global fallback for cold models:
//!
//! * [`MeanPredictor`] — per-model running mean,
//! * [`QuantilePredictor`] — per-model streaming quantile built on the
//!   five-marker P² algorithm ([`P2Quantile`], Jain & Chlamtac 1985), so a
//!   conservative upper quantile can be tracked without storing samples.
//!
//! [`LengthEstimator`] additionally offers an `Oracle` variant that reads
//! the true output length from the request itself; it bounds what any
//! predictor could achieve and is used by the ablation experiments.

use std::collections::BTreeMap;

/// Per-model running mean with a global fallback.
///
/// Cold models (fewer than [`MeanPredictor::MIN_SAMPLES`] observations)
/// fall back to the global mean over all models, which itself needs at
/// least one observation.
#[derive(Debug, Clone, Default)]
pub struct MeanPredictor {
    per_model: BTreeMap<usize, (f64, usize)>,
    global_sum: f64,
    global_n: usize,
}

impl MeanPredictor {
    /// Observations a model needs before its own mean is trusted.
    pub const MIN_SAMPLES: usize = 3;

    /// Creates an empty predictor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the output length of a finished request of `model`.
    pub fn observe(&mut self, model: usize, output_tokens: usize) {
        let entry = self.per_model.entry(model).or_insert((0.0, 0));
        entry.0 += output_tokens as f64;
        entry.1 += 1;
        self.global_sum += output_tokens as f64;
        self.global_n += 1;
    }

    /// Predicted output length (tokens) for a new request of `model`, or
    /// `None` before any observation relevant to the model exists.
    pub fn predict(&self, model: usize) -> Option<f64> {
        match self.per_model.get(&model) {
            Some(&(sum, n)) if n >= Self::MIN_SAMPLES => Some(sum / n as f64),
            _ if self.global_n > 0 => Some(self.global_sum / self.global_n as f64),
            _ => None,
        }
    }
}

/// Five-marker P² streaming quantile estimator (Jain & Chlamtac, 1985).
///
/// Tracks quantile `q` of a stream in O(1) space: five markers hold the
/// minimum, the q/2, q and (1+q)/2 quantile estimates, and the maximum.
/// Marker heights are adjusted towards their desired positions with a
/// piecewise-parabolic interpolation, falling back to linear when the
/// parabolic prediction would violate marker ordering.
#[derive(Debug, Clone)]
pub struct P2Quantile {
    q: f64,
    /// Marker heights (sorted ascending once initialized).
    heights: [f64; 5],
    /// Actual marker positions (1-based counts).
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Desired-position increments per observation.
    increments: [f64; 5],
    /// Observations seen so far (first five are buffered in `heights`).
    count: usize,
}

impl P2Quantile {
    /// Creates an estimator for quantile `q`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < q < 1`.
    pub fn new(q: f64) -> Self {
        assert!(q > 0.0 && q < 1.0, "quantile must be in (0, 1), got {q}");
        P2Quantile {
            q,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            count: 0,
        }
    }

    /// The quantile being tracked.
    pub fn quantile(&self) -> f64 {
        self.q
    }

    /// Observations consumed.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Feeds one observation.
    pub fn observe(&mut self, x: f64) {
        if self.count < 5 {
            self.heights[self.count] = x;
            self.count += 1;
            if self.count == 5 {
                self.heights
                    .sort_by(|a, b| a.partial_cmp(b).expect("finite observations"));
            }
            return;
        }
        self.count += 1;

        // Find the cell k such that heights[k] <= x < heights[k+1], clamping
        // x into the observed range (and k into 0..=3).
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            // One of the three middle cells.
            let mut cell = 0;
            for i in 1..4 {
                if x >= self.heights[i] {
                    cell = i;
                }
            }
            cell
        };

        for p in self.positions.iter_mut().skip(k + 1) {
            *p += 1.0;
        }
        for (d, inc) in self.desired.iter_mut().zip(self.increments) {
            *d += inc;
        }

        // Adjust the three interior markers towards their desired positions.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let right_gap = self.positions[i + 1] - self.positions[i];
            let left_gap = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && right_gap > 1.0) || (d <= -1.0 && left_gap < -1.0) {
                let d = d.signum();
                let candidate = self.parabolic(i, d);
                self.heights[i] =
                    if self.heights[i - 1] < candidate && candidate < self.heights[i + 1] {
                        candidate
                    } else {
                        self.linear(i, d)
                    };
                self.positions[i] += d;
            }
        }
    }

    /// Current quantile estimate.
    ///
    /// Before five observations, returns the exact sample quantile of the
    /// buffered values (or `None` with no data at all).
    pub fn estimate(&self) -> Option<f64> {
        match self.count {
            0 => None,
            n @ 1..=4 => {
                let mut buf: Vec<f64> = self.heights[..n].to_vec();
                buf.sort_by(|a, b| a.partial_cmp(b).expect("finite observations"));
                let pos = (self.q * (n - 1) as f64).round() as usize;
                Some(buf[pos])
            }
            _ => Some(self.heights[2]),
        }
    }

    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let p = &self.positions;
        let h = &self.heights;
        h[i] + d / (p[i + 1] - p[i - 1])
            * ((p[i] - p[i - 1] + d) * (h[i + 1] - h[i]) / (p[i + 1] - p[i])
                + (p[i + 1] - p[i] - d) * (h[i] - h[i - 1]) / (p[i] - p[i - 1]))
    }

    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        self.heights[i]
            + d * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }
}

/// Per-model streaming quantile with a global fallback.
///
/// Predicting an upper quantile (e.g. 0.75) instead of the mean makes the
/// engine *conservative*: a request is only spared from preemption when
/// even a pessimistic length estimate says it is about to finish.
#[derive(Debug, Clone)]
pub struct QuantilePredictor {
    q: f64,
    per_model: BTreeMap<usize, P2Quantile>,
    global: P2Quantile,
}

impl QuantilePredictor {
    /// Observations a model needs before its own estimate is trusted.
    pub const MIN_SAMPLES: usize = 8;

    /// Creates a predictor tracking quantile `q` per model.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < q < 1`.
    pub fn new(q: f64) -> Self {
        QuantilePredictor {
            q,
            per_model: BTreeMap::new(),
            global: P2Quantile::new(q),
        }
    }

    /// Records the output length of a finished request of `model`.
    pub fn observe(&mut self, model: usize, output_tokens: usize) {
        self.per_model
            .entry(model)
            .or_insert_with(|| P2Quantile::new(self.q))
            .observe(output_tokens as f64);
        self.global.observe(output_tokens as f64);
    }

    /// Predicted output length (tokens) for a new request of `model`, or
    /// `None` before any observation relevant to the model exists.
    pub fn predict(&self, model: usize) -> Option<f64> {
        match self.per_model.get(&model) {
            Some(est) if est.count() >= Self::MIN_SAMPLES => est.estimate(),
            _ => self.global.estimate(),
        }
    }
}

/// The estimator a [`crate::deltazip::DeltaZipEngine`] consults when its
/// preemption policy is length-aware.
#[derive(Debug, Clone)]
pub enum LengthEstimator {
    /// Per-model running mean learned online from finished requests.
    OnlineMean(MeanPredictor),
    /// Per-model streaming quantile learned online.
    OnlineQuantile(QuantilePredictor),
    /// Ground truth from the trace — the upper bound any predictor could
    /// reach; only meaningful inside the simulator.
    Oracle,
}

impl Default for LengthEstimator {
    fn default() -> Self {
        LengthEstimator::OnlineMean(MeanPredictor::new())
    }
}

impl LengthEstimator {
    /// A quantile estimator at the engine's default conservativeness.
    pub fn quantile(q: f64) -> Self {
        LengthEstimator::OnlineQuantile(QuantilePredictor::new(q))
    }

    /// Records a finished request.
    pub fn observe(&mut self, model: usize, output_tokens: usize) {
        match self {
            LengthEstimator::OnlineMean(p) => p.observe(model, output_tokens),
            LengthEstimator::OnlineQuantile(p) => p.observe(model, output_tokens),
            LengthEstimator::Oracle => {}
        }
    }

    /// Estimated *remaining* tokens for a request of `model` that has
    /// already produced `tokens_done` of its `true_output` tokens.
    ///
    /// Returns `None` when no estimate is available yet (the engine then
    /// treats the request as not-about-to-finish).
    pub fn remaining(&self, model: usize, tokens_done: usize, true_output: usize) -> Option<f64> {
        match self {
            LengthEstimator::Oracle => Some((true_output - tokens_done.min(true_output)) as f64),
            LengthEstimator::OnlineMean(p) => p
                .predict(model)
                .map(|est| (est - tokens_done as f64).max(0.0)),
            LengthEstimator::OnlineQuantile(p) => p
                .predict(model)
                .map(|est| (est - tokens_done as f64).max(0.0)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_predictor_learns_per_model() {
        let mut p = MeanPredictor::new();
        assert_eq!(p.predict(0), None);
        for _ in 0..4 {
            p.observe(0, 100);
        }
        for _ in 0..4 {
            p.observe(1, 10);
        }
        assert_eq!(p.predict(0), Some(100.0));
        assert_eq!(p.predict(1), Some(10.0));
        // Cold model falls back to the global mean.
        let global = p.predict(42).expect("global fallback");
        assert!((global - 55.0).abs() < 1e-9);
    }

    #[test]
    fn mean_predictor_needs_min_samples_per_model() {
        let mut p = MeanPredictor::new();
        p.observe(0, 100);
        p.observe(1, 10);
        // Model 0 has 1 < MIN_SAMPLES observations: global mean is used.
        assert_eq!(p.predict(0), Some(55.0));
    }

    #[test]
    fn p2_exact_for_tiny_streams() {
        let mut est = P2Quantile::new(0.5);
        assert_eq!(est.estimate(), None);
        est.observe(10.0);
        assert_eq!(est.estimate(), Some(10.0));
        est.observe(20.0);
        est.observe(0.0);
        // Exact median of {0, 10, 20}.
        assert_eq!(est.estimate(), Some(10.0));
    }

    #[test]
    fn p2_median_of_uniform_stream() {
        let mut est = P2Quantile::new(0.5);
        // Deterministic LCG uniform in [0, 1000).
        let mut x = 12345u64;
        for _ in 0..10_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = (x >> 33) as f64 % 1000.0;
            est.observe(v);
        }
        let got = est.estimate().expect("estimate after stream");
        assert!((got - 500.0).abs() < 30.0, "median estimate {got}");
    }

    #[test]
    fn p2_upper_quantile_of_skewed_stream() {
        // Exponential-ish stream via inverse transform; p90 of Exp(1) is
        // ln(10) ~ 2.3026.
        let mut est = P2Quantile::new(0.9);
        let mut x = 99991u64;
        for _ in 0..20_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = ((x >> 33) as f64 + 0.5) / (u64::MAX >> 33) as f64;
            est.observe(-(1.0 - u.clamp(1e-12, 1.0 - 1e-12)).ln());
        }
        let got = est.estimate().expect("estimate after stream");
        assert!(
            (got - std::f64::consts::LN_10).abs() < 0.25,
            "p90 estimate {got}"
        );
    }

    #[test]
    fn p2_is_monotone_in_quantile() {
        let observations: Vec<f64> = (0..500).map(|i| ((i * 37) % 500) as f64).collect();
        let mut p25 = P2Quantile::new(0.25);
        let mut p50 = P2Quantile::new(0.5);
        let mut p75 = P2Quantile::new(0.75);
        for &v in &observations {
            p25.observe(v);
            p50.observe(v);
            p75.observe(v);
        }
        let (a, b, c) = (
            p25.estimate().expect("p25 estimate"),
            p50.estimate().expect("p50 estimate"),
            p75.estimate().expect("p75 estimate"),
        );
        assert!(a < b && b < c, "{a} < {b} < {c} violated");
    }

    #[test]
    #[should_panic(expected = "quantile must be in (0, 1)")]
    fn p2_rejects_degenerate_quantile() {
        let _ = P2Quantile::new(1.0);
    }

    #[test]
    fn quantile_predictor_upper_bounds_mean() {
        let mut qp = QuantilePredictor::new(0.75);
        let mut mp = MeanPredictor::new();
        // Two-point distribution 10 / 100: p75 must exceed the mean.
        for i in 0..100 {
            let v = if i % 2 == 0 { 10 } else { 100 };
            qp.observe(0, v);
            mp.observe(0, v);
        }
        let q = qp.predict(0).expect("quantile prediction");
        let m = mp.predict(0).expect("mean prediction");
        assert!(q > m, "p75 {q} should exceed mean {m}");
    }

    #[test]
    fn oracle_remaining_is_exact() {
        let est = LengthEstimator::Oracle;
        assert_eq!(est.remaining(3, 10, 25), Some(15.0));
        assert_eq!(est.remaining(3, 30, 25), Some(0.0));
    }

    #[test]
    fn online_remaining_clamps_at_zero() {
        let mut est = LengthEstimator::default();
        for _ in 0..4 {
            est.observe(0, 20);
        }
        assert_eq!(est.remaining(0, 5, 999), Some(15.0));
        assert_eq!(est.remaining(0, 50, 999), Some(0.0));
    }
}
