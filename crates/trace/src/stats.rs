//! Shared descriptive-statistics helpers.
//!
//! Single source of truth for the percentile / mean / ratio math that
//! previously lived (twice, with subtly different edge cases) in
//! `dz_serve::metrics::Metrics` and `ClusterReport`.

/// Linear-interpolation percentile (the `numpy` default), `q` in `0..=1`.
///
/// Nearest-rank with `.round()` collapsed small-sample p99 to the max and
/// biased the two-sample p50 high; interpolating between the bracketing
/// order statistics fixes both. Returns `None` on an empty sample: empty
/// per-window metrics are routine during outages, and a silent `0.0`
/// there reads as a perfect latency rather than "no data".
///
/// This is the **exact** path: it materializes and sorts the full sample,
/// so cost is O(n log n) time and O(n) resident memory. That is fine up
/// to a few million samples (a 1M-sample call sorts 8 MB and completes in
/// tens of milliseconds) but it holds every sample alive; fleet-scale
/// simulations that stream tens of millions of latencies use
/// [`StreamingQuantiles`] instead and accept ≲1% relative quantile error.
pub fn percentile(mut values: Vec<f64>, q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(values[lo] + (values[hi] - values[lo]) * (pos - lo as f64))
}

/// Arithmetic mean; `None` on an empty sample (see [`percentile`]).
pub fn mean(values: impl Iterator<Item = f64>) -> Option<f64> {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        None
    } else {
        Some(sum / n as f64)
    }
}

/// Fraction of samples `<= limit`; `0.0` on an empty sample.
pub fn fraction_within(values: impl Iterator<Item = f64>, limit: f64) -> f64 {
    let mut ok = 0usize;
    let mut n = 0usize;
    for v in values {
        if v <= limit {
            ok += 1;
        }
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        ok as f64 / n as f64
    }
}

/// `numerator / denominator`, or `when_empty` when the denominator is not
/// positive. The goodput-style ratio: an *offered load of zero* should
/// read as perfect goodput (`when_empty = 1.0`), while an *overlap
/// fraction with no loads* should read as zero (`when_empty = 0.0`).
pub fn ratio_or(numerator: f64, denominator: f64, when_empty: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        when_empty
    }
}

/// A bounded-memory quantile sketch (merging t-digest).
///
/// Samples are buffered and periodically compressed into centroids whose
/// weight is capped by the scale function `4·n·q·(1−q)/δ` (δ = the
/// `compression` parameter), so the sketch is finest at the tails —
/// exactly where p99/p999 live. Memory is O(δ) regardless of how many
/// samples stream through; quantile error is relative to rank and in
/// practice ≲1% at the tails for δ = 200.
///
/// Determinism: insertion order determines centroid boundaries, so two
/// identical sample streams produce bit-identical sketches (no RNG, no
/// hashing) — the fleet simulator's same-seed replay test relies on this.
#[derive(Debug, Clone)]
pub struct StreamingQuantiles {
    compression: f64,
    /// Sorted (mean, weight) centroids.
    centroids: Vec<(f64, f64)>,
    buffer: Vec<f64>,
    count: u64,
    min: f64,
    max: f64,
    sum: f64,
}

impl StreamingQuantiles {
    /// A sketch with the default compression (δ = 200, ~1 KB resident).
    pub fn new() -> Self {
        Self::with_compression(200.0)
    }

    /// A sketch with an explicit compression δ (higher = more centroids,
    /// lower error). Values below 20 are clamped up.
    pub fn with_compression(compression: f64) -> Self {
        let compression = compression.max(20.0);
        StreamingQuantiles {
            compression,
            centroids: Vec::new(),
            // Buffer several multiples of δ between compressions: the
            // amortized cost per sample stays O(log δ).
            buffer: Vec::with_capacity(8 * compression as usize),
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Streams one sample into the sketch. Non-finite samples panic.
    pub fn add(&mut self, x: f64) {
        assert!(x.is_finite(), "quantile samples must be finite: {x}");
        self.count += 1;
        self.sum += x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        self.buffer.push(x);
        if self.buffer.len() == self.buffer.capacity() {
            self.compress();
        }
    }

    /// Number of samples streamed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of all samples; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Smallest sample; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Estimated `q`-quantile (`q` in `0..=1`); `None` when empty.
    ///
    /// Exact for the extremes (`q = 0` / `q = 1` return the true min/max)
    /// and interpolated between centroid means elsewhere.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        self.compress();
        let q = q.clamp(0.0, 1.0);
        // dz-lint: allow(float-eq, "exact endpoint after clamp(0.0, 1.0)")
        if q == 0.0 {
            return Some(self.min);
        }
        // dz-lint: allow(float-eq, "exact endpoint after clamp(0.0, 1.0)")
        if q == 1.0 {
            return Some(self.max);
        }
        let total: f64 = self.centroids.iter().map(|&(_, w)| w).sum();
        let target = q * total;
        // Walk centroids, interpolating between adjacent centroid means
        // at the target cumulative rank.
        let mut cum = 0.0;
        for (i, &(mean, weight)) in self.centroids.iter().enumerate() {
            let mid = cum + weight / 2.0;
            if target <= mid {
                if i == 0 {
                    // Below the first centroid's midpoint: interpolate
                    // from the true minimum.
                    let frac = if mid > 0.0 { target / mid } else { 1.0 };
                    return Some(self.min + (mean - self.min) * frac);
                }
                let (prev_mean, prev_weight) = self.centroids[i - 1];
                let prev_mid = cum - prev_weight / 2.0;
                let span = mid - prev_mid;
                let frac = if span > 0.0 {
                    (target - prev_mid) / span
                } else {
                    1.0
                };
                return Some(prev_mean + (mean - prev_mean) * frac);
            }
            cum += weight;
        }
        Some(self.max)
    }

    /// Folds the buffered samples into the centroid list, re-clustering
    /// under the tail-biased weight bound.
    fn compress(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        let mut merged: Vec<(f64, f64)> =
            Vec::with_capacity(self.centroids.len() + self.buffer.len());
        merged.append(&mut self.centroids);
        merged.extend(self.buffer.drain(..).map(|x| (x, 1.0)));
        merged.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite samples"));
        let total: f64 = merged.iter().map(|&(_, w)| w).sum();
        let mut out: Vec<(f64, f64)> = Vec::new();
        let mut cum = 0.0;
        for (mean, weight) in merged {
            match out.last_mut() {
                Some((last_mean, last_weight)) => {
                    let proposed = *last_weight + weight;
                    // Midpoint rank of the would-be merged centroid.
                    let q = (cum + proposed / 2.0) / total;
                    let bound = (4.0 * total * q * (1.0 - q) / self.compression).max(1.0);
                    if proposed <= bound {
                        // Weighted-mean merge keeps the centroid exact.
                        *last_mean = (*last_mean * *last_weight + mean * weight) / proposed;
                        *last_weight = proposed;
                    } else {
                        cum += *last_weight;
                        out.push((mean, weight));
                    }
                }
                None => out.push((mean, weight)),
            }
        }
        self.centroids = out;
    }
}

impl Default for StreamingQuantiles {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_single_sample_is_constant() {
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(percentile(vec![3.0], q), Some(3.0));
        }
    }

    #[test]
    fn percentile_two_samples_interpolates() {
        // Nearest-rank-with-round reported p50 of {1, 3} as 3 (biased
        // high); linear interpolation gives the midpoint.
        assert!((percentile(vec![1.0, 3.0], 0.5).unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(percentile(vec![1.0, 3.0], 0.0), Some(1.0));
        assert_eq!(percentile(vec![1.0, 3.0], 1.0), Some(3.0));
        let p99 = percentile(vec![1.0, 3.0], 0.99).unwrap();
        assert!(p99 < 3.0 && p99 > 2.9, "{p99}");
    }

    #[test]
    fn percentile_four_samples_interpolates() {
        let v = vec![10.0, 20.0, 30.0, 40.0];
        // pos = 0.5 * 3 = 1.5 -> midpoint of 20 and 30.
        assert!((percentile(v.clone(), 0.5).unwrap() - 25.0).abs() < 1e-12);
        // pos = 0.99 * 3 = 2.97 -> 30 + 0.97 * 10, strictly below max.
        assert!((percentile(v.clone(), 0.99).unwrap() - 39.7).abs() < 1e-9);
        assert!(percentile(v.clone(), 0.99).unwrap() < 40.0);
        // pos = 0.25 * 3 = 0.75 -> 10 + 0.75 * 10.
        assert!((percentile(v, 0.25).unwrap() - 17.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_ignores_input_order() {
        assert_eq!(
            percentile(vec![40.0, 10.0, 30.0, 20.0], 0.5),
            percentile(vec![10.0, 20.0, 30.0, 40.0], 0.5)
        );
    }

    #[test]
    fn percentile_empty_is_none() {
        // Empty windows happen during outages; `None` (not a fake 0.0,
        // not a panic, not NaN) is the only honest answer.
        assert_eq!(percentile(vec![], 0.99), None);
    }

    proptest::proptest! {
        #[test]
        fn percentile_is_monotone_in_q(
            vals in proptest::collection::vec(-1e6f64..1e6, 1..64),
            q1 in 0.0f64..=1.0,
            q2 in 0.0f64..=1.0,
        ) {
            let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
            let a = percentile(vals.clone(), lo).unwrap();
            let b = percentile(vals, hi).unwrap();
            proptest::prop_assert!(a <= b + 1e-9);
        }
    }

    #[test]
    fn mean_and_fraction_edges() {
        assert_eq!(mean(std::iter::empty()), None);
        assert!((mean([2.0, 4.0].into_iter()).unwrap() - 3.0).abs() < 1e-12);
        assert_eq!(fraction_within(std::iter::empty(), 1.0), 0.0);
        assert!((fraction_within([1.0, 2.0, 3.0].into_iter(), 2.0) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn streaming_quantiles_empty_and_single() {
        let mut sq = StreamingQuantiles::new();
        assert_eq!(sq.quantile(0.5), None);
        assert_eq!(sq.mean(), None);
        sq.add(7.0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(sq.quantile(q), Some(7.0));
        }
        assert_eq!(sq.count(), 1);
        assert_eq!(sq.mean(), Some(7.0));
    }

    #[test]
    fn streaming_quantiles_exact_extremes() {
        let mut sq = StreamingQuantiles::new();
        for i in 0..10_000 {
            sq.add((i as f64 * 7919.0) % 1000.0);
        }
        assert_eq!(sq.quantile(0.0), sq.min());
        assert_eq!(sq.quantile(1.0), sq.max());
    }

    #[test]
    fn streaming_quantiles_monotone_in_q() {
        let mut sq = StreamingQuantiles::new();
        for i in 0..50_000u64 {
            // Deterministic pseudo-random stream (xorshift).
            let mut x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            x ^= x >> 33;
            sq.add((x % 1_000_000) as f64 / 1000.0);
        }
        let mut last = f64::NEG_INFINITY;
        for i in 0..=100 {
            let q = i as f64 / 100.0;
            let v = sq.quantile(q).unwrap();
            assert!(v >= last, "quantiles must be monotone: q={q} {v} < {last}");
            last = v;
        }
    }

    #[test]
    fn streaming_quantiles_match_exact_on_million_samples() {
        // The fleet-scale path: one million samples from a heavy-tailed
        // deterministic stream. The sketch must land within 1% relative
        // error of the exact sorted percentile at the quantiles the
        // benchmarks report, while holding only O(compression) memory.
        let n = 1_000_000u64;
        let mut sq = StreamingQuantiles::new();
        let mut exact = Vec::with_capacity(n as usize);
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..n {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
            // Pareto-ish tail: most mass near 0.1s, rare multi-second outliers.
            let x = 0.1 / (1.0 - u).powf(0.35);
            sq.add(x);
            exact.push(x);
        }
        assert_eq!(sq.count(), n);
        for q in [0.5, 0.9, 0.99, 0.999] {
            let approx = sq.quantile(q).unwrap();
            let truth = percentile(exact.clone(), q).unwrap();
            let rel = (approx - truth).abs() / truth;
            assert!(
                rel < 0.01,
                "q={q}: approx {approx} vs exact {truth} ({rel:.4} rel)"
            );
        }
        // Bounded memory: centroid count stays O(compression), nowhere
        // near the million samples streamed through.
        assert!(sq.centroids.len() < 2_000, "{}", sq.centroids.len());
    }

    #[test]
    fn streaming_quantiles_deterministic_replay() {
        let feed = |sq: &mut StreamingQuantiles| {
            for i in 0..25_000u64 {
                sq.add(((i.wrapping_mul(2654435761)) % 100_000) as f64);
            }
        };
        let mut a = StreamingQuantiles::new();
        let mut b = StreamingQuantiles::new();
        feed(&mut a);
        feed(&mut b);
        for i in 0..=1000 {
            let q = i as f64 / 1000.0;
            assert_eq!(a.quantile(q), b.quantile(q), "q={q}");
        }
    }

    #[test]
    fn ratio_or_uses_fallback_only_when_empty() {
        assert!((ratio_or(3.0, 4.0, 1.0) - 0.75).abs() < 1e-12);
        assert_eq!(ratio_or(0.0, 0.0, 1.0), 1.0);
        assert_eq!(ratio_or(0.0, 0.0, 0.0), 0.0);
        assert_eq!(ratio_or(5.0, -1.0, 0.5), 0.5);
    }
}
