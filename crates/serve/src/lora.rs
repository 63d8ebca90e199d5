//! Punica/S-LoRA-style adapter serving (the PEFT side of Figure 14/15).
//!
//! Adapters are orders of magnitude smaller than deltas, so they all live
//! in GPU memory; every request batches into the shared base pass plus an
//! SGMV adapter product. The engine is therefore DeltaZip's scheduler minus
//! swapping and the delta-capacity cap.
//!
//! Setting [`LoraServingConfig::sparse_density`] above zero serves
//! RoSA-style adapters (§8: low-rank pairs plus an unstructured sparse
//! component), which LoRA-only systems cannot host; the sparse part adds
//! per-adapter weight traffic and a gather-SpMM to every iteration.

use crate::cost::CostModel;
use crate::metrics::{Metrics, ToppingsStats};
use crate::request::{Phase, ReqState};
use crate::variant::VariantKind;
use crate::Engine;
use dz_workload::Trace;
use std::collections::BTreeSet;

/// LoRA serving parameters.
#[derive(Debug, Clone, Copy)]
pub struct LoraServingConfig {
    /// Adapter rank.
    pub rank: usize,
    /// Maximum requests per batch.
    pub max_batch: usize,
    /// Density of the RoSA sparse component (fraction of non-zeros per
    /// adapted projection); `0.0` serves plain LoRA adapters.
    pub sparse_density: f64,
}

impl Default for LoraServingConfig {
    fn default() -> Self {
        LoraServingConfig {
            rank: 16,
            max_batch: 48,
            sparse_density: 0.0,
        }
    }
}

impl LoraServingConfig {
    /// A RoSA configuration: rank plus a sparse component density.
    pub fn rosa(rank: usize, sparse_density: f64) -> Self {
        LoraServingConfig {
            rank,
            sparse_density,
            ..LoraServingConfig::default()
        }
    }
}

/// The adapter-serving engine; build one with
/// [`EngineBuilder::build_adapter_only`](crate::EngineBuilder::build_adapter_only).
pub struct LoraEngine {
    /// Cost model.
    pub cost: CostModel,
    /// Configuration.
    pub config: LoraServingConfig,
}

impl Engine for LoraEngine {
    fn label(&self) -> String {
        if self.config.sparse_density > 0.0 {
            format!(
                "RoSA(r={},d={})",
                self.config.rank, self.config.sparse_density
            )
        } else {
            format!("LoRA(r={})", self.config.rank)
        }
    }

    fn run(&mut self, trace: &Trace) -> Metrics {
        let cost = self.cost;
        let mut states: Vec<ReqState> = trace.requests.iter().cloned().map(ReqState::new).collect();
        // Every model on this engine is an adapter variant.
        for s in &mut states {
            s.kind = VariantKind::Lora {
                rank: self.config.rank,
            };
        }
        let mut toppings = ToppingsStats::default();
        let mut queue: BTreeSet<usize> = BTreeSet::new();
        let mut running: Vec<usize> = Vec::new();
        let mut next_arrival = 0usize;
        let mut t = 0.0f64;
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
            // Admit FCFS up to the batch cap; all adapters are resident.
            while running.len() < self.config.max_batch {
                let Some(&qid) = queue.iter().next() else {
                    break;
                };
                queue.remove(&qid);
                // Attribute the wait ending here (adapter serving never
                // preempts, so this is always initial queueing).
                states[qid].accrue(t, |c, dt| c.queue_s += dt);
                states[qid].admit(t);
                running.push(qid);
            }
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
            // One decode iteration.
            let mut reqs_per_adapter = vec![0usize; trace.spec.n_models];
            for &rid in &running {
                reqs_per_adapter[states[rid].req.model] += 1;
            }
            t += cost.rosa_decode_iter(
                &reqs_per_adapter,
                self.config.rank,
                self.config.sparse_density,
            );
            toppings.batches += 1;
            let distinct = reqs_per_adapter.iter().filter(|&&n| n > 0).count();
            toppings.max_toppings_in_batch = toppings.max_toppings_in_batch.max(distinct);
            for &rid in &running {
                states[rid].tokens_done += 1;
                states[rid].record_first_token(t);
                // Everything since the accounting boundary was this
                // iteration's prefill + decode.
                states[rid].accrue(t, |c, dt| c.decode_s += dt);
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
        toppings.lora_reqs = states.len();
        Metrics::from_states(self.label(), &states, t).with_toppings(toppings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deltazip::{DeltaZipConfig, DeltaZipEngine};
    use crate::vllm_scb::{VllmScbConfig, VllmScbEngine};
    use dz_gpusim::shapes::ModelShape;
    use dz_gpusim::spec::NodeSpec;
    use dz_workload::{PopularityDist, Trace, TraceSpec};

    fn trace(rate: f64, seed: u64) -> Trace {
        Trace::generate(TraceSpec {
            n_models: 16,
            arrival_rate: rate,
            duration_s: 60.0,
            popularity: PopularityDist::Uniform,
            seed,
        })
    }

    fn cost() -> CostModel {
        CostModel::new(NodeSpec::a800_node(4), ModelShape::llama13b())
    }

    fn lora(config: LoraServingConfig) -> LoraEngine {
        crate::builder::EngineBuilder::new(cost())
            .adapters(config)
            .build_adapter_only()
    }

    #[test]
    fn serves_everything_with_no_load_waits() {
        let tr = trace(1.0, 1);
        let m = lora(LoraServingConfig::default()).run(&tr);
        assert_eq!(m.len(), tr.len());
        assert!(m.records.iter().all(|r| r.load_s == 0.0));
    }

    #[test]
    fn figure15_ordering_lora_fastest_fullmodel_slowest() {
        let tr = trace(1.5, 2);
        let lora = lora(LoraServingConfig::default()).run(&tr);
        let dz = DeltaZipEngine::new(cost(), DeltaZipConfig::default()).run(&tr);
        let vllm = VllmScbEngine::new(cost(), VllmScbConfig::default()).run(&tr);
        assert!(
            lora.mean_e2e() <= dz.mean_e2e() * 1.05,
            "lora {} vs dz {}",
            lora.mean_e2e(),
            dz.mean_e2e()
        );
        assert!(
            dz.mean_e2e() < vllm.mean_e2e(),
            "dz {} vs vllm {}",
            dz.mean_e2e(),
            vllm.mean_e2e()
        );
    }

    #[test]
    fn higher_rank_is_slightly_slower() {
        let tr = trace(2.0, 3);
        let r16 = lora(LoraServingConfig {
            rank: 16,
            ..LoraServingConfig::default()
        })
        .run(&tr);
        let r64 = lora(LoraServingConfig {
            rank: 64,
            ..LoraServingConfig::default()
        })
        .run(&tr);
        assert!(
            r16.mean_e2e() <= r64.mean_e2e() * 1.01,
            "r16 {} vs r64 {}",
            r16.mean_e2e(),
            r64.mean_e2e()
        );
    }

    #[test]
    fn rosa_serving_sits_between_lora_and_delta() {
        // §8's point: RoSA adapters are servable on the adapter path and
        // cost more than plain LoRA, yet stay well under compressed-delta
        // FMT serving.
        let tr = trace(1.5, 4);
        let rosa = lora(LoraServingConfig::rosa(16, 0.01)).run(&tr);
        let lora = lora(LoraServingConfig::default()).run(&tr);
        let dz = DeltaZipEngine::new(cost(), DeltaZipConfig::default()).run(&tr);
        assert_eq!(rosa.len(), tr.len());
        assert!(
            rosa.mean_e2e() >= lora.mean_e2e(),
            "rosa {} should not undercut lora {}",
            rosa.mean_e2e(),
            lora.mean_e2e()
        );
        assert!(
            rosa.mean_e2e() < dz.mean_e2e() * 1.5,
            "rosa {} should stay near adapter-serving costs, dz {}",
            rosa.mean_e2e(),
            dz.mean_e2e()
        );
    }

    #[test]
    fn rosa_label_reflects_density() {
        let e = lora(LoraServingConfig::rosa(8, 0.02));
        assert_eq!(e.label(), "RoSA(r=8,d=0.02)");
        let plain = lora(LoraServingConfig::default());
        assert_eq!(plain.label(), "LoRA(r=16)");
    }
}
