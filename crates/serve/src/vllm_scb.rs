//! The vLLM+SCB baseline (§6.1 of the paper).
//!
//! The paper's comparison system: vLLM extended with **S**wapping of whole
//! FP16 models, **C**ontinuous batching, and **B**atching of same-model
//! requests. Key differences from DeltaZip, all of which this model
//! captures:
//!
//! * swaps move the *full* FP16 model (tens of GB), on the critical path,
//! * only a handful of models fit residently (`vllm_resident_capacity`),
//! * requests batch only with requests for the *same* model; each resident
//!   model with work pays its own weight traffic every iteration.

use crate::cost::CostModel;
use crate::metrics::Metrics;
use crate::request::{Phase, ReqState};
use crate::Engine;
use dz_workload::Trace;
use std::collections::{BTreeSet, HashSet};

/// Tunables of the baseline.
#[derive(Debug, Clone, Copy)]
pub struct VllmScbConfig {
    /// Maximum requests in one batch (across models).
    pub max_batch: usize,
}

impl Default for VllmScbConfig {
    fn default() -> Self {
        VllmScbConfig { max_batch: 48 }
    }
}

/// The baseline engine.
pub struct VllmScbEngine {
    /// Cost model.
    pub cost: CostModel,
    /// Configuration.
    pub config: VllmScbConfig,
}

impl VllmScbEngine {
    /// Creates the baseline engine.
    pub fn new(cost: CostModel, config: VllmScbConfig) -> Self {
        VllmScbEngine { cost, config }
    }
}

impl Engine for VllmScbEngine {
    fn label(&self) -> String {
        "vLLM+SCB".to_string()
    }

    fn run(&mut self, trace: &Trace) -> Metrics {
        let cost = self.cost;
        let capacity = cost.vllm_resident_capacity().max(1);
        let mut states: Vec<ReqState> = trace.requests.iter().cloned().map(ReqState::new).collect();
        let mut queue: BTreeSet<usize> = BTreeSet::new();
        let mut running: Vec<usize> = Vec::new();
        let mut next_arrival = 0usize;
        let mut t = 0.0f64;
        // Resident models with an LRU timestamp; warm = cached in host DRAM.
        let mut resident: Vec<(usize, f64)> = Vec::new();
        let mut warm: HashSet<usize> = HashSet::new();

        loop {
            while next_arrival < states.len() && states[next_arrival].req.arrival <= t {
                queue.insert(next_arrival);
                next_arrival += 1;
            }
            if running.is_empty() && queue.is_empty() {
                if next_arrival >= states.len() {
                    break;
                }
                t = states[next_arrival].req.arrival;
                continue;
            }

            // Schedule FCFS; same-model requests batch with resident models;
            // the head may trigger a swap if an idle slot (or free space)
            // exists.
            let mut batch_size = running.len();
            let mut admitted = Vec::new();
            let busy: HashSet<usize> = running.iter().map(|&r| states[r].req.model).collect();
            let mut load_s = 0.0;
            let mut swap_scheduled = false;
            for &qid in queue.iter() {
                if batch_size >= self.config.max_batch {
                    break;
                }
                let model = states[qid].req.model;
                let is_resident = resident.iter().any(|&(m, _)| m == model);
                if is_resident {
                    admitted.push(qid);
                    batch_size += 1;
                } else if !swap_scheduled {
                    // At most one swap per scheduling round, and only by
                    // evicting an idle model (or using free capacity).
                    if resident.len() >= capacity {
                        // Find the least-recently-used idle model. Stamps
                        // are simulation times >= +0.0, so `total_cmp`
                        // orders them as `partial_cmp` would.
                        let victim = resident
                            .iter()
                            .filter(|(m, _)| !busy.contains(m))
                            .min_by(|a, b| a.1.total_cmp(&b.1))
                            .map(|&(m, _)| m);
                        match victim {
                            Some(v) => resident.retain(|&(m, _)| m != v),
                            None => continue, // Everyone busy; wait for drain.
                        }
                    }
                    swap_scheduled = true;
                    let model_load = cost.delta_load_profile_bytes(cost.model_bytes()).solo_s();
                    load_s = if warm.contains(&model) {
                        model_load
                    } else {
                        // First touch streams from disk.
                        model_load * 2.0
                    };
                    warm.insert(model);
                    resident.push((model, t));
                    admitted.push(qid);
                    batch_size += 1;
                }
            }
            for &qid in &admitted {
                queue.remove(&qid);
                states[qid].admit(t);
                running.push(qid);
            }
            if load_s > 0.0 {
                t += load_s;
                for &rid in &running {
                    states[rid].load_wait_s += load_s;
                }
            }
            if running.is_empty() {
                // Nothing schedulable right now (e.g. all resident models
                // busy is impossible without running, so this means the swap
                // path stalled); advance to the next arrival.
                if next_arrival < states.len() {
                    t = t.max(states[next_arrival].req.arrival);
                    continue;
                }
                break;
            }
            // Touch LRU stamps for used models.
            for r in resident.iter_mut() {
                if running.iter().any(|&rid| states[rid].req.model == r.0) {
                    r.1 = t;
                }
            }

            // Batched prefill.
            let prompt_tokens: usize = running
                .iter()
                .filter(|&&rid| states[rid].phase == Phase::Admitted)
                .map(|&rid| states[rid].req.prompt_tokens)
                .sum();
            if prompt_tokens > 0 {
                t += cost.prefill_time(prompt_tokens);
            }
            for &rid in &running {
                if states[rid].phase == Phase::Admitted {
                    states[rid].phase = Phase::Running;
                }
            }

            // One decode iteration: each model pays its own weight pass.
            let models: Vec<usize> = resident.iter().map(|&(m, _)| m).collect();
            let mut reqs_per_model = vec![0usize; models.len()];
            for &rid in &running {
                let mi = models
                    .iter()
                    .position(|&m| m == states[rid].req.model)
                    .expect("running request's model resident");
                reqs_per_model[mi] += 1;
            }
            t += cost.vllm_decode_iter(&reqs_per_model);
            for &rid in &running {
                states[rid].tokens_done += 1;
                states[rid].record_first_token(t);
            }
            running.retain(|&rid| {
                if states[rid].done() {
                    states[rid].finish(t);
                    false
                } else {
                    true
                }
            });
        }

        Metrics::from_states(self.label(), &states, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deltazip::{DeltaZipConfig, DeltaZipEngine};
    use dz_gpusim::shapes::ModelShape;
    use dz_gpusim::spec::NodeSpec;
    use dz_workload::{PopularityDist, Trace, TraceSpec};

    fn trace(rate: f64, n_models: usize, seed: u64) -> Trace {
        Trace::generate(TraceSpec {
            n_models,
            arrival_rate: rate,
            duration_s: 60.0,
            popularity: PopularityDist::Zipf { alpha: 1.5 },
            seed,
        })
    }

    fn cost() -> CostModel {
        CostModel::new(NodeSpec::a800_node(4), ModelShape::llama13b())
    }

    #[test]
    fn serves_every_request() {
        let tr = trace(0.5, 16, 1);
        let m = VllmScbEngine::new(cost(), VllmScbConfig::default()).run(&tr);
        assert_eq!(m.len(), tr.len());
        for r in &m.records {
            assert!(r.e2e_s > 0.0 && r.ttft_s > 0.0);
        }
    }

    #[test]
    fn deltazip_outperforms_baseline_on_many_variants() {
        // The paper's headline: 2x-12x throughput, large E2E/TTFT wins when
        // many variants contend.
        let tr = trace(1.0, 32, 2);
        let baseline = VllmScbEngine::new(cost(), VllmScbConfig::default()).run(&tr);
        let dz = DeltaZipEngine::new(
            cost(),
            DeltaZipConfig {
                max_concurrent_deltas: 8,
                ..DeltaZipConfig::default()
            },
        )
        .run(&tr);
        assert!(
            dz.mean_e2e() < baseline.mean_e2e() / 1.5,
            "dz {} vs vllm {}",
            dz.mean_e2e(),
            baseline.mean_e2e()
        );
        assert!(
            dz.mean_ttft() < baseline.mean_ttft(),
            "dz ttft {} vs vllm ttft {}",
            dz.mean_ttft(),
            baseline.mean_ttft()
        );
    }

    #[test]
    fn few_models_fit_resident_and_swaps_are_rare() {
        // With fewer variants than resident capacity each model loads once
        // (expensive, deserialization bound) and never again; late requests
        // therefore wait far less than early ones.
        let tr = trace(0.3, 4, 3);
        let m = VllmScbEngine::new(cost(), VllmScbConfig::default()).run(&tr);
        let half = m.records.len() / 2;
        let early: f64 = m.records[..half].iter().map(|r| r.load_s).sum::<f64>() / half as f64;
        let late: f64 = m.records[half..].iter().map(|r| r.load_s).sum::<f64>()
            / (m.records.len() - half) as f64;
        assert!(
            late < early,
            "loads should amortize: early {early} late {late}"
        );
        // And in total, loading stays bounded by one first-touch load per
        // model (4 models).
        let max_load = m.records.iter().map(|r| r.load_s).fold(0.0f64, f64::max);
        let cm = cost();
        let one_cold = cm.delta_load_profile_bytes(cm.model_bytes()).solo_s() * 2.5;
        assert!(max_load < 4.0 * one_cold, "max load wait {max_load}");
    }
}
