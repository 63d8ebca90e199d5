//! Nonstationary workload shapes: diurnal load, flash crowds, drift.
//!
//! [`crate::trace::Trace::generate`] produces stationary traffic: a constant
//! Poisson rate and a popularity distribution that never moves. Real fleets
//! are not so polite — load follows the sun, a cold variant goes viral, and
//! the popular head slowly migrates across the catalog. This module layers a
//! [`Nonstationarity`] shape on top of an ordinary [`TraceSpec`]:
//!
//! * arrivals become a nonhomogeneous Poisson process, sampled exactly by
//!   thinning against the peak rate,
//! * per-arrival model choice re-weights the distribution's static weights
//!   as a closed-form function of time (no hidden schedule state), so a
//!   shaped trace is exactly reproducible from `(spec, shape)`.
//!
//! The shape is `Copy + Serialize`, like `TraceSpec` itself, so experiment
//! configs can embed it and provenance stamps can record it.

use crate::trace::{Trace, TraceSpec};
use dz_tensor::Rng;
use serde::{Deserialize, Serialize};

/// A time-varying structure layered on top of a stationary [`TraceSpec`].
///
/// The spec's `arrival_rate` is the *baseline* rate and its `popularity`
/// supplies the *base* per-model weights; the shape modulates both as
/// closed-form functions of time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Nonstationarity {
    /// Sinusoidal load: `rate(t) = base * (1 + amplitude * sin(2πt/period))`.
    ///
    /// Popularity is unchanged; only the arrival intensity breathes. The
    /// first half of each period is the peak, the second half the trough.
    Diurnal {
        /// Full peak-to-peak cycle length in seconds.
        period_s: f64,
        /// Relative swing in `[0, 1]`; clamped. 0 is stationary, 1 makes
        /// the trough fully dark.
        amplitude: f64,
    },
    /// A cold delta goes viral at `at_s`: the target model's weight is
    /// multiplied by `1 + boost * env(t)` and the fleet-wide arrival rate
    /// surges by `1 + rate_surge * env(t)`, where
    /// `env(t) = exp(-(t - at_s) / decay_s)` for `t >= at_s` and 0 before.
    FlashCrowd {
        /// Model index that goes viral (pick a tail rank so it starts cold).
        model: usize,
        /// Shock onset in seconds.
        at_s: f64,
        /// Peak multiplicative popularity boost for the viral model.
        boost: f64,
        /// Exponential decay constant of the shock, seconds.
        decay_s: f64,
        /// Peak relative surge of the global arrival rate (0 = popularity
        /// shift only, 1 = rate doubles at onset).
        rate_surge: f64,
    },
    /// Popularity drift: the weight vector rotates across the catalog at
    /// `models_per_s` ranks per second, so the head model at time `t` is
    /// rank 0 shifted by `floor(t * models_per_s)` positions.
    Drift {
        /// Rotation speed in model ranks per second.
        models_per_s: f64,
    },
}

impl Nonstationarity {
    /// Instantaneous arrival-rate multiplier at time `t` (relative to the
    /// spec's baseline rate). Always in `(0, peak_rate_factor()]`.
    pub fn rate_factor(&self, t: f64) -> f64 {
        match *self {
            Nonstationarity::Diurnal {
                period_s,
                amplitude,
            } => {
                let a = amplitude.clamp(0.0, 1.0);
                let p = period_s.max(1e-9);
                1.0 + a * (2.0 * std::f64::consts::PI * t / p).sin()
            }
            Nonstationarity::FlashCrowd {
                at_s,
                decay_s,
                rate_surge,
                ..
            } => 1.0 + rate_surge.max(0.0) * envelope(t, at_s, decay_s),
            Nonstationarity::Drift { .. } => 1.0,
        }
    }

    /// Supremum of [`Nonstationarity::rate_factor`] over all `t`; the
    /// thinning bound for exact nonhomogeneous-Poisson sampling.
    pub fn peak_rate_factor(&self) -> f64 {
        match *self {
            Nonstationarity::Diurnal { amplitude, .. } => 1.0 + amplitude.clamp(0.0, 1.0),
            Nonstationarity::FlashCrowd { rate_surge, .. } => 1.0 + rate_surge.max(0.0),
            Nonstationarity::Drift { .. } => 1.0,
        }
    }

    /// Per-model weights at time `t`, derived from the distribution's
    /// static `base` weights.
    pub fn weights_at(&self, base: &[f64], t: f64) -> Vec<f64> {
        match *self {
            Nonstationarity::Diurnal { .. } => base.to_vec(),
            Nonstationarity::FlashCrowd {
                model,
                at_s,
                boost,
                decay_s,
                ..
            } => {
                let mut w = base.to_vec();
                if model < w.len() {
                    w[model] *= 1.0 + boost.max(0.0) * envelope(t, at_s, decay_s);
                }
                w
            }
            Nonstationarity::Drift { models_per_s } => {
                let n = base.len();
                if n == 0 {
                    return Vec::new();
                }
                let shift = (t.max(0.0) * models_per_s.max(0.0)) as usize % n;
                // Model (rank + shift) % n gets the weight of `rank`: the
                // head walks forward through the catalog.
                let mut w = vec![0.0; n];
                for (rank, &b) in base.iter().enumerate() {
                    w[(rank + shift) % n] = b;
                }
                w
            }
        }
    }
}

/// `exp(-(t - at) / decay)` after onset, 0 before; a `decay <= 0` shock is
/// an instantaneous spike (0 everywhere except exactly at onset).
fn envelope(t: f64, at_s: f64, decay_s: f64) -> f64 {
    if t < at_s {
        0.0
    } else if decay_s <= 0.0 {
        if t == at_s {
            1.0
        } else {
            0.0
        }
    } else {
        (-(t - at_s) / decay_s).exp()
    }
}

/// Samples a nonhomogeneous Poisson process with intensity
/// `rate * shape.rate_factor(t)` over `[0, duration_s]` by thinning.
pub fn shaped_arrivals(
    rate: f64,
    duration_s: f64,
    shape: Nonstationarity,
    rng: &mut Rng,
) -> Vec<f64> {
    assert!(rate > 0.0, "arrival rate must be positive");
    assert!(duration_s >= 0.0, "duration must be non-negative");
    let peak = rate * shape.peak_rate_factor();
    let mut out = Vec::with_capacity((rate * duration_s * 1.2) as usize + 4);
    let mut t = 0.0;
    loop {
        t += rng.exponential(peak);
        if t > duration_s {
            break;
        }
        // Accept with probability rate(t) / peak.
        let accept = rate * shape.rate_factor(t) / peak;
        if rng.bernoulli(accept.clamp(0.0, 1.0)) {
            out.push(t);
        }
    }
    out
}

impl Trace {
    /// Generates a trace whose arrivals and popularity follow `shape` on
    /// top of the stationary baseline in `spec`.
    ///
    /// Deterministic in `(spec, shape)`. The shape modulates the
    /// distribution's *static* weights ([`crate::PopularityDist::weights`]);
    /// the Azure-like ON/OFF burst schedule is a stationary mechanism and
    /// is not replayed here — combine bursts with shapes via
    /// [`Trace::then`] if both are needed.
    pub fn generate_shaped(spec: TraceSpec, shape: Nonstationarity) -> Trace {
        assert!(spec.n_models > 0, "need at least one model");
        let mut rng = Rng::seeded(spec.seed);
        let arrivals = shaped_arrivals(spec.arrival_rate, spec.duration_s, shape, &mut rng);
        let base = spec.popularity.weights(spec.n_models);
        Trace::assemble(spec, arrivals, &mut rng, |arrival, rng| {
            rng.weighted(&shape.weights_at(&base, arrival))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::popularity::PopularityDist;
    use crate::trace::Request;

    fn spec(rate: f64, duration_s: f64, pop: PopularityDist) -> TraceSpec {
        TraceSpec {
            n_models: 16,
            arrival_rate: rate,
            duration_s,
            popularity: pop,
            seed: 11,
        }
    }

    #[test]
    fn diurnal_peak_outdraws_the_trough() {
        let shape = Nonstationarity::Diurnal {
            period_s: 200.0,
            amplitude: 0.9,
        };
        let t = Trace::generate_shaped(spec(8.0, 200.0, PopularityDist::Uniform), shape);
        // sin > 0 on the first half-period, < 0 on the second.
        let peak = t.requests.iter().filter(|r| r.arrival < 100.0).count();
        let trough = t.len() - peak;
        assert!(
            peak as f64 > 2.0 * trough as f64,
            "peak {peak} vs trough {trough}"
        );
    }

    #[test]
    fn diurnal_mean_rate_stays_near_baseline() {
        // The sinusoid integrates to zero over whole periods, so total
        // volume matches the stationary baseline.
        let shape = Nonstationarity::Diurnal {
            period_s: 50.0,
            amplitude: 1.0,
        };
        let mut total = 0usize;
        for seed in 0..6 {
            let mut s = spec(5.0, 200.0, PopularityDist::Uniform);
            s.seed = seed;
            total += Trace::generate_shaped(s, shape).len();
        }
        let mean = total as f64 / 6.0;
        assert!((mean - 1000.0).abs() < 120.0, "mean {mean}");
    }

    #[test]
    fn flash_crowd_makes_a_cold_model_viral() {
        let shape = Nonstationarity::FlashCrowd {
            model: 13, // deep in the Zipf tail: cold before the shock
            at_s: 100.0,
            boost: 400.0,
            decay_s: 40.0,
            rate_surge: 1.0,
        };
        let t =
            Trace::generate_shaped(spec(6.0, 200.0, PopularityDist::Zipf { alpha: 1.3 }), shape);
        let before: Vec<_> = t.requests.iter().filter(|r| r.arrival < 100.0).collect();
        let shock: Vec<_> = t
            .requests
            .iter()
            .filter(|r| (100.0..140.0).contains(&r.arrival))
            .collect();
        let share = |rs: &[&Request]| {
            rs.iter().filter(|r| r.model == 13).count() as f64 / rs.len().max(1) as f64
        };
        assert!(share(&before) < 0.05, "viral model hot too early");
        assert!(
            share(&shock) > 0.5,
            "viral model share during shock: {}",
            share(&shock)
        );
        // The rate surge adds traffic right after onset.
        let pre_window = before.iter().filter(|r| r.arrival >= 60.0).count();
        assert!(
            shock.len() > pre_window,
            "no surge: {} vs {}",
            shock.len(),
            pre_window
        );
    }

    #[test]
    fn drift_walks_the_head_across_the_catalog() {
        let shape = Nonstationarity::Drift {
            models_per_s: 0.05, // 10 ranks over a 200 s trace
        };
        let t = Trace::generate_shaped(
            spec(10.0, 200.0, PopularityDist::Zipf { alpha: 2.0 }),
            shape,
        );
        let head_in = |lo: f64, hi: f64| {
            let mut counts = [0usize; 16];
            for r in t.requests.iter().filter(|r| (lo..hi).contains(&r.arrival)) {
                counts[r.model] += 1;
            }
            counts.iter().enumerate().max_by_key(|(_, &c)| c).unwrap().0
        };
        let early = head_in(0.0, 20.0);
        let late = head_in(160.0, 180.0);
        assert_ne!(early, late, "head never moved");
        assert_eq!(early, 0, "drift starts at the base head");
        assert_eq!(late, 8, "after 160-180 s the head sits 8 ranks over");
    }

    #[test]
    fn shaped_generation_is_deterministic() {
        let shape = Nonstationarity::FlashCrowd {
            model: 5,
            at_s: 30.0,
            boost: 50.0,
            decay_s: 20.0,
            rate_surge: 0.5,
        };
        let s = spec(4.0, 100.0, PopularityDist::Zipf { alpha: 1.5 });
        assert_eq!(
            Trace::generate_shaped(s, shape),
            Trace::generate_shaped(s, shape)
        );
        let mut s2 = s;
        s2.seed = 12;
        assert_ne!(
            Trace::generate_shaped(s, shape),
            Trace::generate_shaped(s2, shape)
        );
    }

    #[test]
    fn rate_factor_never_exceeds_the_peak() {
        let shapes = [
            Nonstationarity::Diurnal {
                period_s: 60.0,
                amplitude: 0.8,
            },
            Nonstationarity::FlashCrowd {
                model: 0,
                at_s: 10.0,
                boost: 9.0,
                decay_s: 5.0,
                rate_surge: 2.0,
            },
            Nonstationarity::Drift { models_per_s: 0.1 },
        ];
        for shape in shapes {
            let peak = shape.peak_rate_factor();
            for i in 0..500 {
                let t = i as f64 * 0.37;
                let f = shape.rate_factor(t);
                assert!(
                    f > 0.0 && f <= peak + 1e-12,
                    "{shape:?} at {t}: {f} > {peak}"
                );
            }
        }
    }

    #[test]
    fn drift_weights_rotate_and_preserve_mass() {
        let base = PopularityDist::Zipf { alpha: 1.5 }.weights(8);
        let shape = Nonstationarity::Drift { models_per_s: 1.0 };
        let w = shape.weights_at(&base, 3.0);
        assert_eq!(w.len(), 8);
        let sum_b: f64 = base.iter().sum();
        let sum_w: f64 = w.iter().sum();
        assert!((sum_b - sum_w).abs() < 1e-12);
        // Head weight moved to rank 3.
        assert_eq!(w[3], base[0]);
        assert_eq!(w[4], base[1]);
    }

    #[test]
    fn sorted_arrivals_and_valid_requests() {
        let shape = Nonstationarity::Diurnal {
            period_s: 40.0,
            amplitude: 0.5,
        };
        let t = Trace::generate_shaped(spec(3.0, 80.0, PopularityDist::Uniform), shape);
        let mut prev = 0.0;
        for (i, r) in t.requests.iter().enumerate() {
            assert_eq!(r.id, i);
            assert!(r.arrival >= prev && r.arrival <= 80.0);
            assert!(r.model < 16);
            assert!(r.prompt_tokens >= 1 && r.output_tokens >= 1);
            prev = r.arrival;
        }
    }
}
