//! The DeltaZip serving engine (§5 of the paper).
//!
//! One simulation step = one continuous-batching iteration:
//!
//! 1. admit arrivals into the FCFS queue,
//! 2. (re)schedule: running requests keep their slots; the queue is scanned
//!    in order (or in SLO-priority order when a [`SloPolicy`] is set),
//!    selecting up to `N` distinct deltas; any queued request whose delta is
//!    already selected may **skip the line** (it becomes a *child* of the
//!    request that caused the delta's selection),
//! 3. start loads for missing deltas on the shared
//!    [`swap::TransferTimeline`](crate::swap::TransferTimeline): decode
//!    continues for the resident sub-batch while loads progress in the
//!    background, and each admitted request stalls only until *its own*
//!    delta lands (§5's overlap of swap-in with ongoing computation).
//!    With [`DeltaZipConfig::overlap_swaps`] disabled, the legacy
//!    serialized behavior is retained: every load is charged up front and
//!    the whole batch stalls on the sum. A [`Prefetcher`] may additionally
//!    prewarm deltas disk→host ahead of demand under a bandwidth budget,
//! 4. batch-prefill newly admitted prompts and restore preempted requests
//!    per the [`ResumePolicy`],
//! 5. run one decode iteration: shared base GEMM over the whole batch plus
//!    SBMM over the resident deltas,
//! 6. finish requests that produced all tokens; when a *parent* finishes,
//!    its children are preempted back to their original queue positions
//!    (the starvation-avoidance rule of §5.4), unless the
//!    [`PreemptionPolicy`] spares them.
//!
//! `N` itself may be adjusted online by a [`DynamicN`] controller (§5.4's
//! "dynamic tuning").
//!
//! [`Engine::run`] drives the loop and prices it (steps 4 and 5). It
//! decides nothing itself: the crate-private `planner::Planner` makes the
//! scheduling decisions of steps 2 and 6 (queue scan order, `N` and the
//! toppings cap, skip-the-line, starvation preemption) from the request
//! states alone, and `run` applies them. Steps 3 and 3b, and every
//! timeline advance with the wake-ups it brings, belong to the
//! crate-private `swap::Residency`, which owns GPU and host residency (one
//! LRU per tier), the in-flight loads, the prefetch budget and the
//! [`SwapStats`](crate::metrics::SwapStats).
//!
//! A run reads nothing but its cost model, config and trace: no real I/O
//! and no wall clock. Artifact sizes enter through
//! [`CostModel::with_delta_bytes`].

use crate::cost::CostModel;
use crate::metrics::{Metrics, ToppingsStats};
use crate::planner::Planner;
use crate::policy::{PreemptionPolicy, ResumePolicy};
use crate::predictor::LengthEstimator;
use crate::request::{Phase, ReqState};
use crate::slo::SloPolicy;
use crate::swap::{PrefetchContext, Prefetcher, Residency, Window};
use crate::tuning::DynamicN;
use crate::variant::{VariantCatalog, VariantKind};
use crate::Engine;
use dz_gpusim::kernel::BatchedImpl;
use dz_trace::{TraceEvent, Tracer};
use dz_workload::Trace;
use std::collections::BTreeSet;

/// Tunables of the DeltaZip engine.
#[derive(Debug, Clone, Copy)]
pub struct DeltaZipConfig {
    /// `N`: maximum distinct deltas processed concurrently.
    pub max_concurrent_deltas: usize,
    /// `K`: maximum requests in one batch.
    pub max_batch: usize,
    /// Delta-matmul execution strategy.
    pub strategy: BatchedImpl,
    /// Starvation-avoidance rule (Figure 19 ablation; §8 length-aware fix).
    pub preemption: PreemptionPolicy,
    /// How preempted requests are restored on re-admission.
    pub resume: ResumePolicy,
    /// Enable skip-the-line batching (disabling degenerates to plain FCFS).
    pub skip_the_line: bool,
    /// Host-DRAM delta cache capacity (deltas evicted from it fall back to
    /// disk, §5.4's hierarchical management). `None` = unbounded host cache.
    ///
    /// Deltas selected for the current batch are exempt from eviction, so
    /// a cap below `max_concurrent_deltas` could never bind; the engine
    /// therefore **clamps the cap up to `max_concurrent_deltas`** (at both
    /// construction and run time) instead of silently carrying an
    /// unenforceable value.
    pub host_capacity_deltas: Option<usize>,
    /// Overlap delta swap-in with decode (the §5 behavior): loads progress
    /// on a bandwidth-shared transfer timeline while the resident
    /// sub-batch keeps decoding, and each request stalls only until its
    /// own delta lands. `false` restores the legacy serialized model —
    /// every missing delta is charged up front and the *whole batch*
    /// stalls on the sum (the baseline `exp bench-swap` compares against).
    pub overlap_swaps: bool,
    /// Cap on **distinct toppings** (non-base variants: LoRA adapters,
    /// deltas, stacked) co-batched in one iteration. Deltas additionally
    /// stay under `max_concurrent_deltas`; pure-LoRA variants count only
    /// against this cap. `None` = unbounded (the legacy delta-only
    /// behavior, where `N` alone governs).
    pub max_toppings_per_batch: Option<usize>,
    /// Refuse to mix delta-backed variants (Delta/Stacked) with pure-LoRA
    /// variants in the same batch — the segregated-pool baseline that
    /// `exp bench-toppings` compares the mixed pool against. Base-model
    /// requests join either side. Default `false` (mixed batches).
    pub segregate_kinds: bool,
}

impl Default for DeltaZipConfig {
    fn default() -> Self {
        DeltaZipConfig {
            max_concurrent_deltas: 8,
            max_batch: 48,
            strategy: BatchedImpl::SbmmPlus,
            preemption: PreemptionPolicy::ParentFinish,
            resume: ResumePolicy::SwapToHost,
            skip_the_line: true,
            host_capacity_deltas: None,
            overlap_swaps: true,
            max_toppings_per_batch: None,
            segregate_kinds: false,
        }
    }
}

impl DeltaZipConfig {
    /// Normalizes the config: clamps `host_capacity_deltas` up to the
    /// concurrency floor it could otherwise never enforce (see the field
    /// docs). Applied by [`DeltaZipEngine::new`] and again at run time
    /// (the fields are public and may be mutated in between).
    pub fn validated(mut self) -> Self {
        let floor = self.max_concurrent_deltas.max(1);
        if let Some(cap) = self.host_capacity_deltas {
            self.host_capacity_deltas = Some(cap.max(floor));
        }
        if let Some(cap) = self.max_toppings_per_batch {
            self.max_toppings_per_batch = Some(cap.max(1));
        }
        self
    }
}

/// The engine.
pub struct DeltaZipEngine {
    /// Cost model (hardware + model shape + delta format).
    pub cost: CostModel,
    /// Scheduler configuration.
    pub config: DeltaZipConfig,
    /// Output-length estimator backing
    /// [`PreemptionPolicy::LengthAware`]; learned online unless replaced.
    pub estimator: LengthEstimator,
    /// Optional SLO priority policy; `None` scans the queue FCFS.
    pub slo_policy: Option<SloPolicy>,
    /// Optional online `N` controller; overrides `max_concurrent_deltas`
    /// while set.
    pub dynamic_n: Option<DynamicN>,
    /// Optional variant catalog. When set, each request is served per its
    /// model's registered [`VariantKind`] — base requests ride the shared
    /// GEMM for free, LoRA adapters dispatch through SGMV, deltas through
    /// SBMM, stacked variants through both. `None` = every model is a
    /// delta (the legacy behavior, bit-identical to pre-catalog runs).
    pub catalog: Option<VariantCatalog>,
    /// Optional predictive prefetcher: prewarms deltas disk→host ahead of
    /// demand (only active with [`DeltaZipConfig::overlap_swaps`]).
    pub prefetcher: Option<Box<dyn Prefetcher>>,
    /// Structured tracing handle. Disabled by default: emission sites
    /// only read simulation state, so tracing-off runs are identical to
    /// untraced builds. Enable via
    /// [`EngineBuilder::tracing`](crate::EngineBuilder::tracing)
    /// and harvest the log with `tracer.take_log()` after a run.
    pub tracer: Tracer,
}

impl DeltaZipEngine {
    /// Creates an engine with the paper's defaults (FCFS scan, static `N`,
    /// online-mean length estimates). The config is
    /// [validated](DeltaZipConfig::validated) — in particular an
    /// unenforceable `host_capacity_deltas` is clamped up to
    /// `max_concurrent_deltas`.
    pub fn new(cost: CostModel, config: DeltaZipConfig) -> Self {
        DeltaZipEngine {
            cost,
            config: config.validated(),
            estimator: LengthEstimator::default(),
            slo_policy: None,
            dynamic_n: None,
            catalog: None,
            prefetcher: None,
            tracer: Tracer::disabled(),
        }
    }
}

impl Engine for DeltaZipEngine {
    fn label(&self) -> String {
        format!("DeltaZip(N={})", self.config.max_concurrent_deltas)
    }

    fn run(&mut self, trace: &Trace) -> Metrics {
        // Re-validate: the config fields are public and may have been
        // mutated after construction.
        let cfg = self.config.validated();
        let cost = self.cost;
        let mut states: Vec<ReqState> = trace.requests.iter().cloned().map(ReqState::new).collect();
        // Variant kinds: stamped once from the catalog (every state
        // defaults to Delta, so catalog-free runs take the legacy paths).
        if let Some(cat) = &self.catalog {
            for s in &mut states {
                s.kind = cat.kind_of(s.req.model);
            }
        }
        let sgmv_rank = self.catalog.as_ref().map_or(0, |c| c.max_adapter_rank());
        let rosa_density = self
            .catalog
            .as_ref()
            .map_or(0.0, |c| c.max_sparse_density());
        let mut toppings = ToppingsStats::default();
        // Queue of request ids, FCFS == id order (trace is arrival-sorted).
        let mut queue: BTreeSet<usize> = BTreeSet::new();
        let mut running: Vec<usize> = Vec::new();
        let mut next_arrival = 0usize;
        let mut t = 0.0f64;
        let mut planner = Planner::detach(self, cfg);
        let mut res = Residency::new(cost, &cfg);
        // Detach the tracer so emission closures can borrow engine state.
        let mut tracer = std::mem::take(&mut self.tracer);

        loop {
            // Step 1: admit arrivals up to the current time.
            while next_arrival < states.len() && states[next_arrival].req.arrival <= t {
                tracer.emit(|| TraceEvent::RequestQueued {
                    id: states[next_arrival].req.id,
                    model: states[next_arrival].req.model,
                    kind: states[next_arrival].kind.topping_kind(),
                    at: states[next_arrival].req.arrival,
                });
                queue.insert(next_arrival);
                next_arrival += 1;
            }
            if running.is_empty() && queue.is_empty() && res.waiting().len() == 0 {
                if next_arrival >= states.len() {
                    break;
                }
                // Idle gap: only prefetches can be in flight; let them
                // progress to the next arrival.
                t = states[next_arrival].req.arrival;
                res.advance_to(t, Window::Idle, &mut states, &mut running, &mut tracer);
                continue;
            }

            // Step 2: scheduling. Running and waiting requests keep their
            // delta claims.
            let claims: Vec<usize> = running.iter().copied().chain(res.waiting()).collect();
            let admission = planner.admit(&queue, &states, &claims, t);
            for &(qid, parent) in &admission.admitted {
                queue.remove(&qid);
                states[qid].parent = parent;
                // Attribute the wait that ends here: initial queueing for
                // a first admission, exile after a preempt for a re-admission.
                let first_admit = states[qid].first_admitted_at.is_none();
                states[qid].accrue(t, |c, dt| {
                    if first_admit {
                        c.queue_s += dt;
                    } else {
                        c.preempt_s += dt;
                    }
                });
                states[qid].admit(t);
                tracer.emit(|| TraceEvent::RequestAdmitted {
                    id: states[qid].req.id,
                    model: states[qid].req.model,
                    kind: states[qid].kind.topping_kind(),
                    at: t,
                });
                if cfg.overlap_swaps
                    && states[qid].kind.needs_delta()
                    && !res.on_gpu(states[qid].req.model)
                {
                    // Overlapped mode: hold a batch slot but wait for this
                    // delta's own load; the resident sub-batch decodes on.
                    res.block(qid, t);
                } else {
                    running.push(qid);
                }
            }

            // Step 3: bring the selected deltas in (the serialized model
            // stalls the whole batch on the sum), then prefetch under the
            // bandwidth budget.
            let selected = &admission.selected;
            t += res.swap_in(selected, t, &running, &mut states, &mut tracer);
            if cfg.overlap_swaps && self.prefetcher.is_some() {
                let queued_models: Vec<usize> = planner
                    .scan_order(&queue, &states, t)
                    .into_iter()
                    // Only delta-backed variants are placement-critical
                    // enough to prewarm; adapters are ~MB and load inline.
                    .filter(|&qid| states[qid].kind.needs_delta())
                    .map(|qid| states[qid].req.model)
                    .collect();
                let ctx = PrefetchContext {
                    queued_models: &queued_models,
                    selected,
                };
                if let Some(pf) = self.prefetcher.as_mut() {
                    res.prefetch(pf.candidates(&ctx), t, &mut tracer);
                }
            }

            if running.is_empty() {
                // Everything admitted is stalled on its own load: jump to
                // the earliest in-flight completion (or the next arrival,
                // whichever lets the engine make progress first).
                let mut target = res
                    .next_completion_at()
                    .expect("waiting requests imply in-flight loads");
                if next_arrival < states.len() {
                    target = target.min(states[next_arrival].req.arrival);
                }
                t = target.max(t);
                res.advance_to(t, Window::Blocked, &mut states, &mut running, &mut tracer);
                continue;
            }

            // Step 4: batched prefill for newly admitted requests, plus
            // state restoration for resumed (previously preempted) ones.
            let t_before = t;
            let mut prompt_tokens = 0usize;
            let mut restore_s = 0.0;
            for &rid in &running {
                if states[rid].phase != Phase::Admitted {
                    continue;
                }
                if states[rid].tokens_done > 0 {
                    let ctx = states[rid].req.prompt_tokens + states[rid].tokens_done;
                    restore_s += cost.resume_time(cfg.resume, ctx);
                } else {
                    prompt_tokens += states[rid].req.prompt_tokens;
                }
            }
            if prompt_tokens > 0 {
                t += cost.prefill_time(prompt_tokens);
            }
            if restore_s > 0.0 {
                t += restore_s;
                for &rid in &running {
                    states[rid].load_wait_s += restore_s;
                }
            }
            for &rid in &running {
                if states[rid].phase == Phase::Admitted {
                    states[rid].phase = Phase::Running;
                }
            }

            // Step 5: one decode iteration over the resident sub-batch —
            // shared base GEMM for everyone, SBMM over the resident deltas,
            // SGMV over the co-batched adapters (stacked variants hit both).
            let delta_ids: Vec<usize> = selected
                .iter()
                .copied()
                .filter(|&d| res.on_gpu(d))
                .collect();
            let mut reqs_per_delta = vec![0usize; delta_ids.len()];
            let mut adapter_ids: Vec<usize> = Vec::new();
            let mut reqs_per_adapter: Vec<usize> = Vec::new();
            let mut batch_has_delta = false;
            let mut batch_has_pure_lora = false;
            for &rid in &running {
                batch_has_delta |= states[rid].kind.needs_delta();
                batch_has_pure_lora |= matches!(states[rid].kind, VariantKind::Lora { .. });
                if states[rid].kind.needs_delta() {
                    let di = delta_ids
                        .iter()
                        .position(|&d| d == states[rid].req.model)
                        .expect("running request's delta is resident");
                    reqs_per_delta[di] += 1;
                }
                if states[rid].kind.adapter_rank().is_some() {
                    let m = states[rid].req.model;
                    match adapter_ids.iter().position(|&a| a == m) {
                        Some(ai) => reqs_per_adapter[ai] += 1,
                        None => {
                            adapter_ids.push(m);
                            reqs_per_adapter.push(1);
                        }
                    }
                }
            }
            // RoSA adapters also pay the sparse term.
            let reqs_per_rosa: Vec<usize> = adapter_ids
                .iter()
                .zip(&reqs_per_adapter)
                .filter(|&(&m, _)| {
                    self.catalog
                        .as_ref()
                        .is_some_and(|c| c.sparse_density_of(m) > 0.0)
                })
                .map(|(_, &n)| n)
                .collect();
            let iter_cost = cost.toppings_decode_iter(
                running.len(),
                &reqs_per_delta,
                &reqs_per_adapter,
                sgmv_rank,
                (&reqs_per_rosa, rosa_density),
                cfg.strategy,
            );
            t += iter_cost.total_s;
            toppings.batches += 1;
            toppings.base_gemm_s += iter_cost.base_s;
            toppings.sbmm_s += iter_cost.sbmm_s;
            toppings.sgmv_s += iter_cost.sgmv_s;
            toppings.max_toppings_in_batch = toppings
                .max_toppings_in_batch
                .max(admission.toppings_in_batch.len());
            // "Mixed" means pools actually mixed: a delta-backed request
            // (Delta/Stacked) co-batched with a pure-LoRA one. A lone
            // stacked variant drives both kernels but is one pool.
            if batch_has_delta && batch_has_pure_lora {
                toppings.mixed_batches += 1;
            }
            tracer.emit(|| TraceEvent::BatchStep {
                at: t_before,
                dur_s: t - t_before,
                batch: running.len(),
                deltas: delta_ids.len(),
                loras: adapter_ids.len(),
            });
            let mut finished: Vec<usize> = Vec::new();
            for &rid in &running {
                states[rid].tokens_done += 1;
                if states[rid].first_token_at.is_none() {
                    tracer.emit(|| TraceEvent::FirstToken {
                        id: states[rid].req.id,
                        at: t,
                    });
                }
                states[rid].record_first_token(t);
                // Everything since the last accounting boundary was spent
                // inside this iteration (prefill, restore, decode, and any
                // batch-alignment slack after a mid-iteration load land).
                states[rid].accrue(t, |c, dt| c.decode_s += dt);
            }
            running.retain(|&rid| {
                if states[rid].done() {
                    states[rid].finish(t);
                    let id = states[rid].req.id;
                    tracer.emit(|| TraceEvent::RequestFinished { id, at: t });
                    finished.push(rid);
                    false
                } else {
                    true
                }
            });

            // The iteration consumed wall time: in-flight loads progressed
            // underneath it (the overlap), and any that landed wake their
            // own requests — charged only their own stall.
            res.advance_to(t, Window::Decode, &mut states, &mut running, &mut tracer);
            tracer.gauge(|| res.gauge(t, trace.spec.n_models, queue.len(), running.len()));

            // Step 6: starvation avoidance — preempt children of finished
            // parents back to their original queue slots.
            let preempted = planner.preempt(&finished, &queue, &running, &states, &admission);
            running.retain(|rid| !preempted.contains(rid));
            for rid in preempted {
                states[rid].preemptions += 1;
                states[rid].parent = None;
                states[rid].phase = Phase::Queued;
                tracer.emit(|| TraceEvent::RequestPreempted {
                    id: states[rid].req.id,
                    at: t,
                });
                queue.insert(rid);
            }
        }

        // Per-kind served-request tallies (every state is finished here).
        for s in &states {
            match s.kind {
                VariantKind::Base => toppings.base_reqs += 1,
                VariantKind::Lora { .. } => toppings.lora_reqs += 1,
                VariantKind::Delta => toppings.delta_reqs += 1,
                VariantKind::Stacked { .. } => toppings.stacked_reqs += 1,
            }
        }

        // Re-attach the tracer and the scheduling policies so the caller
        // can harvest them.
        self.tracer = tracer;
        planner.reattach(self);
        Metrics::from_states(self.label(), &states, t)
            .with_swap(res.finish())
            .with_toppings(toppings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::{SloClass, SloPolicy};
    use crate::swap::{PopularityPrefetch, QueueLookahead};
    use crate::tuning::{DynamicN, DynamicNConfig};
    use crate::EngineBuilder;
    use dz_gpusim::shapes::ModelShape;
    use dz_gpusim::spec::NodeSpec;
    use dz_workload::{PopularityDist, Request, Trace, TraceSpec};

    fn small_trace(rate: f64, pop: PopularityDist, seed: u64) -> Trace {
        Trace::generate(TraceSpec {
            n_models: 8,
            arrival_rate: rate,
            duration_s: 60.0,
            popularity: pop,
            seed,
        })
    }

    fn builder(n: usize) -> EngineBuilder {
        let cost = CostModel::new(NodeSpec::a800_node(4), ModelShape::llama13b());
        EngineBuilder::new(cost).scheduler(DeltaZipConfig {
            max_concurrent_deltas: n,
            ..DeltaZipConfig::default()
        })
    }

    fn engine(n: usize) -> DeltaZipEngine {
        builder(n).build()
    }

    #[test]
    fn serves_every_request_exactly_once() {
        let trace = small_trace(1.0, PopularityDist::Zipf { alpha: 1.5 }, 1);
        let m = engine(4).run(&trace);
        assert_eq!(m.len(), trace.len());
        // Conservation: record ids are exactly the trace ids.
        let mut ids: Vec<usize> = m.records.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..trace.len()).collect::<Vec<_>>());
    }

    #[test]
    fn latencies_are_physical() {
        let trace = small_trace(0.5, PopularityDist::Uniform, 2);
        let m = engine(4).run(&trace);
        for r in &m.records {
            assert!(r.e2e_s > 0.0, "req {} has non-positive latency", r.id);
            assert!(r.ttft_s > 0.0 && r.ttft_s <= r.e2e_s + 1e-9);
            assert!(r.queue_s >= 0.0);
        }
        assert!(m.makespan_s >= 60.0 * 0.5);
    }

    #[test]
    fn idle_system_has_low_latency() {
        // A trickle of requests: latency should be decode-dominated (well
        // under a second per token budget at 13B on 4 GPUs).
        let trace = small_trace(0.05, PopularityDist::Uniform, 3);
        let m = engine(8).run(&trace);
        assert!(m.mean_time_per_token() < 0.2, "{}", m.mean_time_per_token());
    }

    #[test]
    fn more_deltas_help_under_skew_until_memory_pressure() {
        let trace = small_trace(2.0, PopularityDist::Zipf { alpha: 1.5 }, 4);
        let m1 = engine(1).run(&trace);
        let m8 = engine(8).run(&trace);
        assert!(
            m8.mean_e2e() < m1.mean_e2e(),
            "N=8 {} should beat N=1 {}",
            m8.mean_e2e(),
            m1.mean_e2e()
        );
    }

    #[test]
    fn preemption_reduces_tail_ttft_under_skew() {
        let trace = small_trace(2.5, PopularityDist::Zipf { alpha: 2.0 }, 5);
        let mut with = engine(3);
        with.config.max_batch = 24;
        let mut without = engine(3);
        without.config.max_batch = 24;
        without.config.preemption = PreemptionPolicy::Never;
        let mw = with.run(&trace);
        let mo = without.run(&trace);
        let p90_with = mw.ttft_percentile(0.9);
        let p90_without = mo.ttft_percentile(0.9);
        assert!(
            p90_with <= p90_without * 1.05,
            "preemption should not hurt the tail: {p90_with} vs {p90_without}"
        );
    }

    #[test]
    fn empty_trace_is_fine() {
        let trace = Trace {
            spec: TraceSpec {
                n_models: 2,
                arrival_rate: 1.0,
                duration_s: 0.0,
                popularity: PopularityDist::Uniform,
                seed: 0,
            },
            requests: vec![],
        };
        let m = engine(2).run(&trace);
        assert!(m.is_empty());
    }

    #[test]
    fn skip_the_line_improves_mean_latency() {
        let trace = small_trace(2.0, PopularityDist::Zipf { alpha: 1.5 }, 6);
        let with = engine(4).run(&trace);
        let mut engine_no_skip = engine(4);
        engine_no_skip.config.skip_the_line = false;
        let without = engine_no_skip.run(&trace);
        assert!(
            with.mean_e2e() <= without.mean_e2e() * 1.05,
            "skip-the-line should help: {} vs {}",
            with.mean_e2e(),
            without.mean_e2e()
        );
    }

    #[test]
    fn length_aware_preemption_preempts_no_more_than_parent_finish() {
        let trace = small_trace(2.5, PopularityDist::Zipf { alpha: 2.0 }, 7);
        let mut strict = engine(3);
        strict.config.max_batch = 24;
        let mut aware = builder(3).estimator(LengthEstimator::Oracle).build();
        aware.config.max_batch = 24;
        aware.config.preemption = PreemptionPolicy::LengthAware { spare_tokens: 16 };
        let ms = strict.run(&trace);
        let ma = aware.run(&trace);
        let total_strict: usize = ms.records.iter().map(|r| r.preemptions).sum();
        let total_aware: usize = ma.records.iter().map(|r| r.preemptions).sum();
        assert!(
            total_aware <= total_strict,
            "length-aware {total_aware} should not preempt more than strict {total_strict}"
        );
        assert_eq!(ma.len(), trace.len());
    }

    #[test]
    fn huge_spare_budget_never_preempts() {
        let trace = small_trace(2.5, PopularityDist::Zipf { alpha: 2.0 }, 8);
        let mut aware = builder(3).estimator(LengthEstimator::Oracle).build();
        aware.config.preemption = PreemptionPolicy::LengthAware {
            spare_tokens: usize::MAX,
        };
        let m = aware.run(&trace);
        assert!(m.records.iter().all(|r| r.preemptions == 0));
    }

    #[test]
    fn resume_policies_all_conserve_requests() {
        let trace = small_trace(2.5, PopularityDist::Zipf { alpha: 2.0 }, 9);
        for resume in [
            ResumePolicy::SwapToHost,
            ResumePolicy::Recompute,
            ResumePolicy::CostBased,
        ] {
            let mut e = engine(3);
            e.config.max_batch = 16;
            e.config.resume = resume;
            let m = e.run(&trace);
            assert_eq!(m.len(), trace.len(), "{resume:?} lost requests");
        }
    }

    #[test]
    fn cost_based_resume_is_no_worse_than_either_fixed_policy() {
        let trace = small_trace(3.0, PopularityDist::Zipf { alpha: 2.0 }, 10);
        let run = |resume: ResumePolicy| {
            let mut e = engine(3);
            e.config.max_batch = 16;
            e.config.resume = resume;
            e.run(&trace).mean_e2e()
        };
        let swap = run(ResumePolicy::SwapToHost);
        let recompute = run(ResumePolicy::Recompute);
        let best = run(ResumePolicy::CostBased);
        assert!(
            best <= swap.min(recompute) * 1.05,
            "cost-based {best} vs swap {swap} / recompute {recompute}"
        );
    }

    #[test]
    fn bounded_host_cache_degrades_gracefully() {
        // §5.4 scalability: with a tiny host cache, cold (disk) loads recur
        // and latency rises, but every request is still served.
        let trace = small_trace(1.0, PopularityDist::Uniform, 11);
        let unbounded = engine(4).run(&trace);
        let mut tight = engine(4);
        tight.config.host_capacity_deltas = Some(2);
        let bounded = tight.run(&trace);
        assert_eq!(bounded.len(), trace.len());
        let load_unbounded: f64 = unbounded.records.iter().map(|r| r.load_s).sum();
        let load_bounded: f64 = bounded.records.iter().map(|r| r.load_s).sum();
        assert!(
            load_bounded >= load_unbounded,
            "bounded cache {load_bounded} must re-load at least as much as unbounded {load_unbounded}"
        );
    }

    #[test]
    fn slo_priority_lowers_interactive_ttft() {
        // Two interactive variants in a 8-model Zipf mix: with the policy
        // their TTFT must not regress versus plain FCFS.
        let trace = small_trace(2.5, PopularityDist::Zipf { alpha: 1.2 }, 12);
        let policy = SloPolicy::tiered(8, 2);
        let plain = engine(3).run(&trace);
        let prioritized = builder(3).slo(policy.clone()).build().run(&trace);
        let inter = |m: &Metrics| {
            m.subset("i".into(), |r| {
                policy.class_of(r.model) == SloClass::Interactive
            })
            .mean_ttft()
        };
        assert_eq!(prioritized.len(), trace.len());
        assert!(
            inter(&prioritized) <= inter(&plain) * 1.05,
            "interactive TTFT {} should not exceed FCFS {}",
            inter(&prioritized),
            inter(&plain)
        );
    }

    fn manual_trace(n_models: usize, requests: Vec<Request>) -> Trace {
        Trace {
            spec: TraceSpec {
                n_models,
                arrival_rate: 1.0,
                duration_s: 10.0,
                popularity: PopularityDist::Uniform,
                seed: 0,
            },
            requests,
        }
    }

    fn req(id: usize, model: usize, arrival: f64) -> Request {
        Request {
            id,
            model,
            arrival,
            prompt_tokens: 16,
            output_tokens: 8,
        }
    }

    #[test]
    fn warm_request_ttft_unaffected_by_cold_cobatched_delta() {
        // The batch-stall regression test: request 1 targets a delta that
        // is already GPU-resident; a cold delta entering the batch at the
        // same instant must not inflate request 1's TTFT (it used to be
        // charged the other model's whole swap-in wait).
        let warm_only = manual_trace(2, vec![req(0, 0, 0.0), req(1, 0, 5.0)]);
        let with_cold = manual_trace(2, vec![req(0, 0, 0.0), req(1, 0, 5.0), req(2, 1, 5.0)]);
        let run = |overlap: bool, trace: &Trace| {
            let mut e = engine(4);
            e.config.overlap_swaps = overlap;
            e.run(trace)
        };
        let ttft1 = |m: &Metrics| m.records.iter().find(|r| r.id == 1).unwrap().ttft_s;
        let solo = ttft1(&run(true, &warm_only));
        let overlapped_m = run(true, &with_cold);
        let overlapped = ttft1(&overlapped_m);
        let serialized = ttft1(&run(false, &with_cold));
        assert!(
            (overlapped - solo).abs() < 1e-9,
            "warm TTFT must be unaffected by the cold co-batched delta: {overlapped} vs {solo}"
        );
        assert!(
            serialized > overlapped + 0.1,
            "the legacy serialized mode must show the whole-batch stall: \
             {serialized} vs {overlapped}"
        );
        // Stall accounting is per-request: the warm request carries no
        // load wait, the cold one carries (only) its own.
        let rec = |m: &Metrics, id: usize| m.records.iter().find(|r| r.id == id).cloned().unwrap();
        assert_eq!(rec(&overlapped_m, 1).load_s, 0.0);
        assert!(rec(&overlapped_m, 2).load_s > 0.1);
        assert!(overlapped_m.swap.demand_loads >= 2);
        assert!(overlapped_m.swap.overlap_fraction() > 0.0);
    }

    #[test]
    fn overlapped_mode_matches_serialized_results_and_conserves() {
        // Same trace through both modes: both drain, and overlapping never
        // makes the mean worse.
        let trace = small_trace(2.0, PopularityDist::Zipf { alpha: 1.5 }, 21);
        let mut over = engine(4);
        let mut serial = engine(4);
        serial.config.overlap_swaps = false;
        let mo = over.run(&trace);
        let ms = serial.run(&trace);
        assert_eq!(mo.len(), trace.len());
        assert_eq!(ms.len(), trace.len());
        assert!(
            mo.mean_ttft() <= ms.mean_ttft() * 1.01,
            "overlap must not hurt mean TTFT: {} vs {}",
            mo.mean_ttft(),
            ms.mean_ttft()
        );
        assert!(
            mo.swap.stall_s <= ms.swap.stall_s + 1e-9,
            "per-request stalls {} must not exceed the whole-batch stalls {}",
            mo.swap.stall_s,
            ms.swap.stall_s
        );
        // Serialized mode hides nothing; overlapped mode reports the
        // fraction it hid behind decode.
        assert_eq!(ms.swap.overlapped_s, 0.0);
    }

    #[test]
    fn host_cap_below_n_is_clamped() {
        let cost = CostModel::new(NodeSpec::a800_node(4), ModelShape::llama13b());
        let e = DeltaZipEngine::new(
            cost,
            DeltaZipConfig {
                max_concurrent_deltas: 4,
                host_capacity_deltas: Some(1),
                ..DeltaZipConfig::default()
            },
        );
        assert_eq!(e.config.host_capacity_deltas, Some(4));
        // Above-floor caps pass through untouched; None stays None.
        let cfg = DeltaZipConfig {
            max_concurrent_deltas: 4,
            host_capacity_deltas: Some(9),
            ..DeltaZipConfig::default()
        }
        .validated();
        assert_eq!(cfg.host_capacity_deltas, Some(9));
        assert_eq!(
            DeltaZipConfig::default().validated().host_capacity_deltas,
            None
        );
    }

    #[test]
    fn host_cap_actually_binds_once_clamped() {
        // A small node whose GPU tier churns (rtx3090 + 7B): the host
        // cache decides warm vs cold re-loads. A tight cap — clamped up to
        // N — must force strictly more load time than an unbounded cache
        // (the old eviction rule exempted GPU-resident deltas, so the cap
        // silently never bound).
        let cost = CostModel::new(NodeSpec::rtx3090_node(1), ModelShape::llama7b());
        let trace = Trace::generate(TraceSpec {
            n_models: 12,
            arrival_rate: 1.5,
            duration_s: 60.0,
            popularity: PopularityDist::Uniform,
            seed: 31,
        });
        let run = |host_cap: Option<usize>| {
            let mut e = DeltaZipEngine::new(
                cost,
                DeltaZipConfig {
                    max_concurrent_deltas: 2,
                    host_capacity_deltas: host_cap,
                    ..DeltaZipConfig::default()
                },
            );
            let m = e.run(&trace);
            assert_eq!(m.len(), trace.len());
            m.records.iter().map(|r| r.load_s).sum::<f64>()
        };
        let unbounded = run(None);
        let tight = run(Some(1)); // clamps to 2
        assert!(
            tight > unbounded,
            "clamped host cap must bind: tight {tight} vs unbounded {unbounded}"
        );
    }

    #[test]
    fn queue_lookahead_prefetch_cuts_stalls_under_churn() {
        // Many models on a bounded host cache: looking ahead in the queue
        // prewarms upcoming deltas, so demand loads hit host instead of
        // disk. Prefetch must score hits and not lose on mean TTFT.
        let cost = CostModel::new(NodeSpec::rtx3090_node(1), ModelShape::llama7b());
        let trace = Trace::generate(TraceSpec {
            n_models: 16,
            arrival_rate: 1.2,
            duration_s: 80.0,
            popularity: PopularityDist::Zipf { alpha: 1.2 },
            seed: 41,
        });
        let config = DeltaZipConfig {
            max_concurrent_deltas: 2,
            host_capacity_deltas: Some(6),
            ..DeltaZipConfig::default()
        };
        let base = DeltaZipEngine::new(cost, config).run(&trace);
        let mut pf = EngineBuilder::new(cost)
            .scheduler(config)
            .prefetcher(Box::new(QueueLookahead::new(4)))
            .build();
        let mp = pf.run(&trace);
        assert_eq!(mp.len(), trace.len());
        assert!(mp.swap.prefetch_issued > 0, "lookahead must issue prewarms");
        assert!(
            mp.swap.prefetch_hits > 0,
            "some prewarmed deltas must be demanded while warm"
        );
        assert!(
            mp.swap.stall_s <= base.swap.stall_s,
            "prefetch must not increase total stalls: {} vs {}",
            mp.swap.stall_s,
            base.swap.stall_s
        );
    }

    #[test]
    fn popularity_prefetch_serves_everything_and_scores_hits() {
        let cost = CostModel::new(NodeSpec::rtx3090_node(1), ModelShape::llama7b());
        let trace = Trace::generate(TraceSpec {
            n_models: 16,
            arrival_rate: 1.0,
            duration_s: 60.0,
            popularity: PopularityDist::Zipf { alpha: 1.5 },
            seed: 43,
        });
        let config = DeltaZipConfig {
            max_concurrent_deltas: 2,
            host_capacity_deltas: Some(6),
            ..DeltaZipConfig::default()
        };
        let mut e = EngineBuilder::new(cost)
            .scheduler(config)
            .prefetcher(Box::new(PopularityPrefetch::new(
                trace.spec.popularity,
                16,
                4,
            )))
            .build();
        let m = e.run(&trace);
        assert_eq!(m.len(), trace.len());
        assert!(m.swap.prefetch_issued > 0);
        assert!(m.swap.prefetch_hit_rate() > 0.0);
    }

    #[test]
    fn dynamic_n_serves_everything_and_stays_in_bounds() {
        let trace = small_trace(2.0, PopularityDist::Zipf { alpha: 1.5 }, 13);
        let ctl = DynamicN::new(
            DynamicNConfig {
                min_n: 2,
                max_n: 6,
                ..DynamicNConfig::default()
            },
            4,
        );
        let mut e = builder(4).dynamic_n(ctl).build();
        let m = e.run(&trace);
        assert_eq!(m.len(), trace.len());
        let n = e.dynamic_n.as_ref().expect("controller present").current();
        assert!((2..=6).contains(&n), "controller left bounds: {n}");
    }
}
