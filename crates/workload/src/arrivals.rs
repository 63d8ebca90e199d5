//! Arrival-process generation.

use dz_tensor::Rng;

/// Generates Poisson arrival timestamps at `rate` req/s over `duration_s`.
///
/// Returns an increasing sequence in `[0, duration_s]`.
///
/// # Panics
///
/// Panics if `rate <= 0` or `duration_s < 0`.
pub fn poisson_arrivals(rate: f64, duration_s: f64, rng: &mut Rng) -> Vec<f64> {
    assert!(rate > 0.0, "arrival rate must be positive");
    assert!(duration_s >= 0.0, "duration must be non-negative");
    let mut out = Vec::with_capacity((rate * duration_s * 1.2) as usize + 4);
    let mut t = 0.0;
    loop {
        t += rng.exponential(rate);
        if t > duration_s {
            break;
        }
        out.push(t);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_mean_rate_is_right() {
        let mut rng = Rng::seeded(1);
        let mut total = 0usize;
        let trials = 30;
        for _ in 0..trials {
            total += poisson_arrivals(5.0, 100.0, &mut rng).len();
        }
        let mean = total as f64 / trials as f64;
        assert!((mean - 500.0).abs() < 25.0, "mean {mean}");
    }

    #[test]
    fn poisson_gaps_look_exponential() {
        let mut rng = Rng::seeded(2);
        let arr = poisson_arrivals(10.0, 1000.0, &mut rng);
        let gaps: Vec<f64> = arr.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        // Exponential: std ~= mean.
        let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((cv - 1.0).abs() < 0.1, "cv {cv}");
    }

    #[test]
    fn arrivals_are_sorted_and_bounded() {
        let mut rng = Rng::seeded(3);
        let arr = poisson_arrivals(3.0, 50.0, &mut rng);
        for w in arr.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert!(arr.iter().all(|&t| t > 0.0 && t <= 50.0));
    }

    #[test]
    fn zero_duration_is_empty() {
        let mut rng = Rng::seeded(4);
        assert!(poisson_arrivals(5.0, 0.0, &mut rng).is_empty());
    }
}
