//! Symmetric group quantization.
//!
//! Weights are quantized in groups of `group_size` consecutive elements
//! along the input dimension, each group sharing one FP16 scale. The grid is
//! symmetric around zero with `2^(bits-1) - 1` positive levels (so 2-bit
//! uses `{-1, 0, +1}` — exactly the regime the paper pushes deltas to).
//!
//! The key empirical point the paper makes (Figure 3) is that *deltas* have
//! a much tighter value distribution than weights, so the same bit budget
//! yields a denser grid and a smaller error. The tests quantify that here.

/// Quantization grid parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuantSpec {
    /// Bits per value (2..=8).
    pub bits: u32,
    /// Elements sharing one scale.
    pub group_size: usize,
}

impl QuantSpec {
    /// Creates a spec.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `2..=8` or `group_size == 0`.
    pub fn new(bits: u32, group_size: usize) -> Self {
        assert!((2..=8).contains(&bits), "bits must be in 2..=8");
        assert!(group_size > 0, "group_size must be positive");
        QuantSpec { bits, group_size }
    }

    /// Largest positive level of the symmetric grid.
    pub fn qmax(&self) -> i32 {
        (1 << (self.bits - 1)) - 1
    }
}

/// Scale for one group: `max|w| / qmax`, with a floor to avoid div-by-zero.
pub fn group_scale(values: &[f32], qmax: i32) -> f32 {
    let max_abs = values.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    if max_abs == 0.0 {
        1.0
    } else {
        max_abs / qmax as f32
    }
}

/// Quantizes one value to the integer grid.
#[inline]
pub fn quantize_value(v: f32, scale: f32, qmax: i32) -> i32 {
    let q = (v / scale).round() as i32;
    q.clamp(-qmax, qmax)
}

/// Dequantizes an integer level.
#[inline]
pub fn dequantize_value(q: i32, scale: f32) -> f32 {
    q as f32 * scale
}

/// Round-to-nearest quantization of a whole slice with per-group scales.
///
/// Returns `(levels, scales)`; `levels[i]` belongs to group `i / group_size`.
pub fn quantize_slice(values: &[f32], spec: QuantSpec) -> (Vec<i32>, Vec<f32>) {
    let qmax = spec.qmax();
    let n_groups = values.len().div_ceil(spec.group_size);
    let mut scales = Vec::with_capacity(n_groups);
    let mut levels = Vec::with_capacity(values.len());
    for g in 0..n_groups {
        let start = g * spec.group_size;
        let end = (start + spec.group_size).min(values.len());
        let scale = group_scale(&values[start..end], qmax);
        scales.push(scale);
        for &v in &values[start..end] {
            levels.push(quantize_value(v, scale, qmax));
        }
    }
    (levels, scales)
}

/// Reconstructs a slice from levels and scales.
pub fn dequantize_slice(levels: &[i32], scales: &[f32], group_size: usize) -> Vec<f32> {
    levels
        .iter()
        .enumerate()
        .map(|(i, &q)| dequantize_value(q, scales[i / group_size]))
        .collect()
}

/// Mean squared quantization error of round-to-nearest on a slice.
// dz-lint: allow(dead-pub, "reference round-to-nearest error the quantizer tests compare against")
pub fn rtn_mse(values: &[f32], spec: QuantSpec) -> f64 {
    let (levels, scales) = quantize_slice(values, spec);
    let rec = dequantize_slice(&levels, &scales, spec.group_size);
    values
        .iter()
        .zip(rec.iter())
        .map(|(a, b)| {
            let d = (a - b) as f64;
            d * d
        })
        .sum::<f64>()
        / values.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dz_tensor::Rng;

    #[test]
    fn qmax_per_bits() {
        assert_eq!(QuantSpec::new(2, 8).qmax(), 1);
        assert_eq!(QuantSpec::new(3, 8).qmax(), 3);
        assert_eq!(QuantSpec::new(4, 8).qmax(), 7);
        assert_eq!(QuantSpec::new(8, 8).qmax(), 127);
    }

    #[test]
    fn round_trip_error_bounded_by_half_step() {
        let mut rng = Rng::seeded(1);
        let values: Vec<f32> = (0..256).map(|_| rng.normal() * 0.1).collect();
        let spec = QuantSpec::new(4, 16);
        let (levels, scales) = quantize_slice(&values, spec);
        let rec = dequantize_slice(&levels, &scales, spec.group_size);
        for (g, chunk) in values.chunks(16).enumerate() {
            let scale = scales[g];
            for (i, v) in chunk.iter().enumerate() {
                let err = (v - rec[g * 16 + i]).abs();
                assert!(err <= scale * 0.5 + 1e-6, "err {err} > half-step {scale}");
            }
        }
    }

    #[test]
    fn zero_group_round_trips_exactly() {
        let values = vec![0.0f32; 32];
        let spec = QuantSpec::new(2, 8);
        let (levels, scales) = quantize_slice(&values, spec);
        assert!(levels.iter().all(|&q| q == 0));
        let rec = dequantize_slice(&levels, &scales, 8);
        assert_eq!(rec, values);
    }

    #[test]
    fn max_element_survives_exactly_at_grid_edge() {
        // The scale is chosen so the max-magnitude element maps to +-qmax.
        let values = vec![0.01, -0.5, 0.25, 0.1];
        let spec = QuantSpec::new(4, 4);
        let (levels, scales) = quantize_slice(&values, spec);
        assert_eq!(levels[1], -7);
        assert!((dequantize_value(levels[1], scales[0]) - (-0.5)).abs() < 1e-6);
    }

    #[test]
    fn narrow_distributions_quantize_better() {
        // The paper's Figure 3 insight: deltas (tight range) lose less than
        // weights (wide range, outliers) at the same bit width.
        let mut rng = Rng::seeded(2);
        let weights: Vec<f32> = (0..4096)
            .map(|i| {
                let v = rng.normal() * 0.05;
                // Inject strong outliers like real weight matrices have;
                // they blow up the group scale and wash out small weights.
                if i % 61 == 0 {
                    v + rng.normal().signum() * 1.5
                } else {
                    v
                }
            })
            .collect();
        let deltas: Vec<f32> = (0..4096).map(|_| rng.normal() * 0.01).collect();
        let spec = QuantSpec::new(4, 64);
        let w_rel = rtn_mse(&weights, spec)
            / weights.iter().map(|v| (*v as f64).powi(2)).sum::<f64>()
            * weights.len() as f64;
        let d_rel = rtn_mse(&deltas, spec)
            / deltas.iter().map(|v| (*v as f64).powi(2)).sum::<f64>()
            * deltas.len() as f64;
        assert!(
            d_rel < w_rel,
            "delta rel-MSE {d_rel} should beat weight rel-MSE {w_rel}"
        );
    }

    #[test]
    fn ragged_final_group_handled() {
        let values: Vec<f32> = (0..10).map(|i| i as f32 / 10.0).collect();
        let spec = QuantSpec::new(4, 4);
        let (levels, scales) = quantize_slice(&values, spec);
        assert_eq!(levels.len(), 10);
        assert_eq!(scales.len(), 3);
        let rec = dequantize_slice(&levels, &scales, 4);
        assert_eq!(rec.len(), 10);
    }

    #[test]
    #[should_panic(expected = "bits must be in 2..=8")]
    fn rejects_1_bit() {
        let _ = QuantSpec::new(1, 8);
    }
}
