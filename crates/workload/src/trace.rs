//! Trace types and generation.

use crate::arrivals::poisson_arrivals;
use crate::lengths::LengthModel;
use crate::popularity::PopularityDist;
use dz_tensor::Rng;
use serde::{Deserialize, Serialize};

/// One inference request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Unique, dense id (index into the trace).
    pub id: usize,
    /// Which model variant the request targets.
    pub model: usize,
    /// Arrival time in seconds from trace start.
    pub arrival: f64,
    /// Prompt length in tokens.
    pub prompt_tokens: usize,
    /// Output length in tokens.
    pub output_tokens: usize,
}

/// Parameters of a synthetic trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceSpec {
    /// Number of model variants.
    pub n_models: usize,
    /// Global Poisson arrival rate, requests/second.
    pub arrival_rate: f64,
    /// Trace duration in seconds.
    pub duration_s: f64,
    /// Popularity distribution across variants.
    pub popularity: PopularityDist,
    /// RNG seed.
    pub seed: u64,
}

/// A generated trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// The generating spec.
    pub spec: TraceSpec,
    /// Requests sorted by arrival time.
    pub requests: Vec<Request>,
}

impl Trace {
    /// Generates a trace from a spec.
    pub fn generate(spec: TraceSpec) -> Trace {
        let mut rng = Rng::seeded(spec.seed);
        let arrivals = poisson_arrivals(spec.arrival_rate, spec.duration_s, &mut rng);
        let model_picker = spec
            .popularity
            .sampler(spec.n_models, spec.duration_s, &mut rng);
        Trace::assemble(spec, arrivals, &mut rng, |arrival, rng| {
            model_picker.pick(arrival, rng)
        })
    }

    /// Generates a trace through the O(log n)-per-pick
    /// [`crate::popularity::CumulativeSampler`] instead of the linear
    /// weighted walk — the fleet-scale path for million-request traces
    /// over hundreds of models.
    ///
    /// Same distribution family and still fully seed-deterministic, but
    /// **not** draw-for-draw identical to [`Trace::generate`] (the model
    /// pick consumes the uniform stream differently), so existing pinned
    /// seeds keep their traces. Bursty [`PopularityDist::AzureLike`]
    /// schedules have no static weight table; those fall back to the
    /// exact generator.
    pub fn generate_fast(spec: TraceSpec) -> Trace {
        if matches!(spec.popularity, PopularityDist::AzureLike) {
            return Trace::generate(spec);
        }
        let mut rng = Rng::seeded(spec.seed);
        let arrivals = poisson_arrivals(spec.arrival_rate, spec.duration_s, &mut rng);
        let sampler =
            crate::popularity::CumulativeSampler::new(&spec.popularity.weights(spec.n_models));
        Trace::assemble(spec, arrivals, &mut rng, |_, rng| sampler.sample(rng))
    }

    /// Builds the requests over sorted `arrivals`: each takes its model
    /// from `pick(arrival, rng)`, then its lengths from `rng`. Every
    /// generator shares this draw order, so a seed keeps its trace.
    pub(crate) fn assemble(
        spec: TraceSpec,
        arrivals: Vec<f64>,
        rng: &mut Rng,
        mut pick: impl FnMut(f64, &mut Rng) -> usize,
    ) -> Trace {
        let lengths = LengthModel::lmsys_like();
        let requests = arrivals
            .into_iter()
            .enumerate()
            .map(|(id, arrival)| {
                let model = pick(arrival, rng);
                let (prompt_tokens, output_tokens) = lengths.sample(rng);
                Request {
                    id,
                    model,
                    arrival,
                    prompt_tokens,
                    output_tokens,
                }
            })
            .collect();
        Trace { spec, requests }
    }

    /// Total requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True if the trace has no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Requests per model, length `n_models`.
    // dz-lint: allow(dead-pub, "per-model request tally the trace-generation tests check popularity skew with")
    pub fn per_model_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.spec.n_models];
        for r in &self.requests {
            counts[r.model] += 1;
        }
        counts
    }

    /// Concatenates `other` after this trace in time: its requests are
    /// shifted by this trace's duration and all ids are re-assigned
    /// densely. Used to build regime-shift workloads (e.g. a skew change
    /// half-way) for controller experiments.
    ///
    /// The combined spec keeps this trace's popularity and seed (they no
    /// longer describe the whole trace), sums the durations, and
    /// duration-weights the arrival rate.
    pub fn then(&self, other: &Trace) -> Trace {
        let offset = self.spec.duration_s;
        let mut requests = self.requests.clone();
        requests.extend(other.requests.iter().map(|r| Request {
            id: 0, // Re-assigned below.
            model: r.model,
            arrival: r.arrival + offset,
            prompt_tokens: r.prompt_tokens,
            output_tokens: r.output_tokens,
        }));
        for (id, r) in requests.iter_mut().enumerate() {
            r.id = id;
        }
        let total_s = self.spec.duration_s + other.spec.duration_s;
        let rate = if total_s > 0.0 {
            (self.spec.arrival_rate * self.spec.duration_s
                + other.spec.arrival_rate * other.spec.duration_s)
                / total_s
        } else {
            self.spec.arrival_rate
        };
        Trace {
            spec: TraceSpec {
                n_models: self.spec.n_models.max(other.spec.n_models),
                arrival_rate: rate,
                duration_s: total_s,
                ..self.spec
            },
            requests,
        }
    }

    /// Serializes to JSONL (one request per line).
    // dz-lint: allow(dead-pub, "the ROADMAP trace mutation corpus reads and writes JSONL traces")
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.requests {
            out.push_str(&serde_json::to_string(r).expect("request serializes"));
            out.push('\n');
        }
        out
    }

    /// Parses a JSONL trace produced by [`Trace::to_jsonl`].
    ///
    /// The spec is not stored in the JSONL; the caller supplies it.
    // dz-lint: allow(dead-pub, "the ROADMAP trace mutation corpus reads and writes JSONL traces")
    pub fn from_jsonl(spec: TraceSpec, text: &str) -> Result<Trace, serde_json::Error> {
        let mut requests = Vec::new();
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            requests.push(serde_json::from_str(line)?);
        }
        Ok(Trace { spec, requests })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(pop: PopularityDist) -> TraceSpec {
        TraceSpec {
            n_models: 8,
            arrival_rate: 2.0,
            duration_s: 100.0,
            popularity: pop,
            seed: 7,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Trace::generate(spec(PopularityDist::Uniform));
        let b = Trace::generate(spec(PopularityDist::Uniform));
        assert_eq!(a, b);
    }

    #[test]
    fn arrivals_sorted_and_in_range() {
        let t = Trace::generate(spec(PopularityDist::Zipf { alpha: 1.5 }));
        let mut prev = 0.0;
        for r in &t.requests {
            assert!(r.arrival >= prev);
            assert!(r.arrival <= 100.0);
            assert!(r.model < 8);
            assert!(r.prompt_tokens >= 1 && r.output_tokens >= 1);
            prev = r.arrival;
        }
        // About rate * duration requests.
        let n = t.len() as f64;
        assert!((120.0..280.0).contains(&n), "n = {n}");
    }

    #[test]
    fn request_count_matches_rate() {
        let mut total = 0usize;
        for seed in 0..5 {
            let mut s = spec(PopularityDist::Uniform);
            s.seed = seed;
            total += Trace::generate(s).len();
        }
        let mean = total as f64 / 5.0;
        assert!((mean - 200.0).abs() < 30.0, "mean {mean}");
    }

    #[test]
    fn generate_fast_is_deterministic_and_skewed() {
        let s = TraceSpec {
            n_models: 128,
            arrival_rate: 50.0,
            duration_s: 200.0,
            popularity: PopularityDist::Zipf { alpha: 1.2 },
            seed: 42,
        };
        let a = Trace::generate_fast(s);
        let b = Trace::generate_fast(s);
        assert_eq!(a, b);
        // Same arrival process as the exact generator (arrivals are drawn
        // before any model pick, so the streams agree up to that point).
        let exact = Trace::generate(s);
        assert_eq!(a.len(), exact.len());
        for (fast, slow) in a.requests.iter().zip(exact.requests.iter()) {
            assert_eq!(fast.arrival.to_bits(), slow.arrival.to_bits());
        }
        // Head model dominates under Zipf-1.2.
        let counts = a.per_model_counts();
        assert!(counts[0] > counts[10], "{:?}", &counts[..12]);
        let max_share = *counts.iter().max().unwrap() as f64 / a.len() as f64;
        assert!(max_share > 0.15, "{max_share}");
    }

    #[test]
    fn generate_fast_azure_falls_back_to_exact() {
        let s = spec(PopularityDist::AzureLike);
        assert_eq!(Trace::generate_fast(s), Trace::generate(s));
    }

    #[test]
    fn jsonl_round_trip() {
        let t = Trace::generate(spec(PopularityDist::Uniform));
        let text = t.to_jsonl();
        let back = Trace::from_jsonl(t.spec, &text).unwrap();
        // Float formatting may drop the last ulp; everything else is exact.
        assert_eq!(t.len(), back.len());
        for (a, b) in t.requests.iter().zip(back.requests.iter()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.model, b.model);
            assert_eq!(a.prompt_tokens, b.prompt_tokens);
            assert_eq!(a.output_tokens, b.output_tokens);
            assert!((a.arrival - b.arrival).abs() < 1e-9);
        }
    }

    #[test]
    fn zipf_skews_popularity() {
        let u = Trace::generate(spec(PopularityDist::Uniform));
        let z = Trace::generate(spec(PopularityDist::Zipf { alpha: 1.5 }));
        let max_u = *u.per_model_counts().iter().max().unwrap() as f64 / u.len() as f64;
        let max_z = *z.per_model_counts().iter().max().unwrap() as f64 / z.len() as f64;
        assert!(max_z > max_u, "zipf top share {max_z} vs uniform {max_u}");
        assert!(max_z > 0.4, "zipf-1.5 head should dominate: {max_z}");
    }

    #[test]
    fn then_concatenates_in_time() {
        let a = Trace::generate(spec(PopularityDist::Uniform));
        let b = Trace::generate(TraceSpec {
            n_models: 12,
            arrival_rate: 4.0,
            duration_s: 50.0,
            popularity: PopularityDist::Zipf { alpha: 2.0 },
            seed: 9,
        });
        let joined = a.then(&b);
        assert_eq!(joined.len(), a.len() + b.len());
        assert_eq!(joined.spec.n_models, 12);
        assert!((joined.spec.duration_s - 150.0).abs() < 1e-9);
        // Weighted rate: (2*100 + 4*50) / 150.
        assert!((joined.spec.arrival_rate - 8.0 / 3.0).abs() < 1e-9);
        // Sorted arrivals, dense ids.
        let mut prev = 0.0;
        for (i, r) in joined.requests.iter().enumerate() {
            assert_eq!(r.id, i);
            assert!(r.arrival >= prev);
            prev = r.arrival;
        }
        // Second half starts after the first trace's duration.
        assert!(joined.requests[a.len()].arrival >= 100.0);
    }

    #[test]
    fn azure_like_is_bursty() {
        let t = Trace::generate(spec(PopularityDist::AzureLike));
        // Compute coefficient of variation of inter-arrival times per model;
        // bursty ON/OFF traffic has CV > 1 for at least some models.
        let mut cvs = Vec::new();
        for m in 0..8 {
            let times: Vec<f64> = t
                .requests
                .iter()
                .filter(|r| r.model == m)
                .map(|r| r.arrival)
                .collect();
            if times.len() < 10 {
                continue;
            }
            let gaps: Vec<f64> = times.windows(2).map(|w| w[1] - w[0]).collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
            cvs.push(var.sqrt() / mean);
        }
        assert!(
            cvs.iter().any(|&cv| cv > 1.2),
            "no bursty model found: {cvs:?}"
        );
    }
}
