//! Summary statistics and histograms used by the experiment harness.
//!
//! Figure 3 of the paper plots the magnitude distribution of a base weight
//! matrix, its fine-tuned counterpart, and their delta. This module hosts
//! the summary and histogram behind those plots; serving percentiles live
//! in `dz_trace::stats`.

/// Basic distribution summary of a slice of values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
}

impl Summary {
    /// Computes the summary of the given values.
    ///
    /// Returns an all-zero summary for an empty slice.
    pub fn of(values: &[f32]) -> Summary {
        if values.is_empty() {
            return Summary {
                count: 0,
                mean: 0.0,
                std: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        let n = values.len() as f64;
        let mut sum = 0.0f64;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &v in values {
            let v = v as f64;
            sum += v;
            min = min.min(v);
            max = max.max(v);
        }
        let mean = sum / n;
        let var = values
            .iter()
            .map(|&v| {
                let d = v as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n;
        Summary {
            count: values.len(),
            mean,
            std: var.sqrt(),
            min,
            max,
        }
    }
}

/// A fixed-range histogram with uniform bins.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    /// Samples below `lo` or above `hi`.
    outliers: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `bins` uniform buckets.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        Self {
            lo,
            hi,
            counts: vec![0; bins],
            outliers: 0,
        }
    }

    /// Adds a sample.
    pub fn add(&mut self, v: f64) {
        if v < self.lo || v >= self.hi || !v.is_finite() {
            self.outliers += 1;
            return;
        }
        let frac = (v - self.lo) / (self.hi - self.lo);
        let idx = ((frac * self.counts.len() as f64) as usize).min(self.counts.len() - 1);
        self.counts[idx] += 1;
    }

    /// Adds every element of a slice.
    pub fn add_all(&mut self, vs: &[f32]) {
        for &v in vs {
            self.add(v as f64);
        }
    }

    /// Bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of out-of-range samples.
    pub fn outliers(&self) -> u64 {
        self.outliers
    }

    /// Renders a compact ASCII sparkline of the distribution.
    pub fn sparkline(&self) -> String {
        const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        let max = self.counts.iter().copied().max().unwrap_or(0).max(1);
        self.counts
            .iter()
            .map(|&c| GLYPHS[(c as usize * (GLYPHS.len() - 1)) / max as usize])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_values() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count, 4);
        assert!((s.mean - 2.5).abs() < 1e-9);
        assert!((s.std - (1.25f64).sqrt()).abs() < 1e-6);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
    }

    #[test]
    fn summary_empty() {
        let s = Summary::of(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn histogram_bins_and_outliers() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.add(0.5);
        h.add(9.99);
        h.add(-1.0);
        h.add(10.0); // Boundary is exclusive on the right.
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[9], 1);
        assert_eq!(h.outliers(), 2);
    }

    #[test]
    fn histogram_sparkline_length() {
        let mut h = Histogram::new(0.0, 1.0, 16);
        h.add_all(&[0.1, 0.1, 0.9]);
        let s = h.sparkline();
        assert_eq!(s.chars().count(), 16);
    }
}
