//! The DeltaZip scheduler: steps 2 and 6 of the engine loop described in
//! [`crate::deltazip`]. [`Planner::admit`] picks the queued requests that
//! join an iteration (skip-the-line, the `N`-delta and toppings caps,
//! segregated pools); [`Planner::preempt`] makes §5.4's parent-finish
//! decision after it, with [`PreemptionPolicy`] sparing.
//!
//! The planner sees requests only through `&[ReqState]`, the queue and
//! the ids that already hold batch slots. It prices nothing and moves no
//! bytes; the engine applies each decision (queue moves, `parent` links,
//! cause accounting, trace events) and prices the iteration.
//!
//! A finished parent's entry is dropped from the delta → parent map, and
//! no child is promoted in its place. A child that outlives its parent's
//! finishing iteration (nobody was starving, or `LengthAware` spared it)
//! keeps a `parent` link to a request that never finishes again, so it
//! can no longer be preempted; later admissions on that delta get no
//! parent at all.
//!
//! [`VllmScbEngine`](crate::vllm_scb::VllmScbEngine) keeps its own loop:
//! the baseline's policy is one whole-model swap per round with idle-LRU
//! eviction and no preemption, which shares nothing with this one.

use crate::deltazip::{DeltaZipConfig, DeltaZipEngine};
use crate::policy::PreemptionPolicy;
use crate::predictor::LengthEstimator;
use crate::request::ReqState;
use crate::slo::SloPolicy;
use crate::tuning::DynamicN;
use crate::variant::VariantKind;
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// The scheduling policies of one engine run, plus the skip-the-line
/// bookkeeping they carry from one iteration to the next.
pub(crate) struct Planner {
    config: DeltaZipConfig,
    slo_policy: Option<SloPolicy>,
    dynamic_n: Option<DynamicN>,
    estimator: LengthEstimator,
    /// The parent request per selected delta.
    parent_of_delta: BTreeMap<usize, usize>,
}

/// One iteration's admission decision.
pub(crate) struct Admission {
    /// Queue ids that join the batch, in scan order, each with the parent
    /// it skips the line behind (`None` for a parent or a non-delta kind).
    pub admitted: Vec<(usize, Option<usize>)>,
    /// Deltas holding GPU slots this iteration (Delta/Stacked kinds only).
    pub selected: BTreeSet<usize>,
    /// Distinct non-base toppings in the batch, adapters included.
    pub toppings_in_batch: BTreeSet<usize>,
}

impl Planner {
    /// Moves the engine's scheduling policies into a planner for one run;
    /// [`reattach`](Self::reattach) hands them back.
    pub(crate) fn detach(engine: &mut DeltaZipEngine, config: DeltaZipConfig) -> Self {
        Planner {
            config,
            slo_policy: engine.slo_policy.take(),
            dynamic_n: engine.dynamic_n.take(),
            estimator: std::mem::take(&mut engine.estimator),
            parent_of_delta: BTreeMap::new(),
        }
    }

    /// Returns the policies to the engine with what the run taught them
    /// (the estimator's observations, the controller's current `N`).
    pub(crate) fn reattach(self, engine: &mut DeltaZipEngine) {
        engine.slo_policy = self.slo_policy;
        engine.dynamic_n = self.dynamic_n;
        engine.estimator = self.estimator;
    }

    /// Queue ids in scheduling order: FCFS, or priority-with-aging when an
    /// SLO policy is set.
    pub(crate) fn scan_order(
        &self,
        queue: &BTreeSet<usize>,
        states: &[ReqState],
        now: f64,
    ) -> Vec<usize> {
        let mut ids: Vec<usize> = queue.iter().copied().collect();
        if let Some(policy) = &self.slo_policy {
            let mut keyed: Vec<(f64, usize)> = ids
                .into_iter()
                .map(|qid| {
                    let wait = (now - states[qid].req.arrival).max(0.0);
                    (policy.score(states[qid].req.model, wait), qid)
                })
                .collect();
            // Scores are a class rank minus a non-negative finite age:
            // never NaN nor -0.0, so `total_cmp` orders as `partial_cmp`.
            keyed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            ids = keyed.into_iter().map(|(_, qid)| qid).collect();
        }
        ids
    }

    fn toppings_cap(&self) -> usize {
        self.config.max_toppings_per_batch.unwrap_or(usize::MAX)
    }

    /// Step 2: picks the queued requests that join this iteration.
    /// `claims` are the requests already holding batch slots (running, or
    /// admitted and stalled on a load); they keep their delta claims.
    pub(crate) fn admit(
        &mut self,
        queue: &BTreeSet<usize>,
        states: &[ReqState],
        claims: &[usize],
        t: f64,
    ) -> Admission {
        let cfg = self.config;
        let toppings_cap = self.toppings_cap();
        let n_cap = match self.dynamic_n.as_mut() {
            Some(ctl) => {
                let distinct: HashSet<usize> =
                    queue.iter().map(|&qid| states[qid].req.model).collect();
                ctl.update(t, queue.len(), distinct.len())
            }
            None => cfg.max_concurrent_deltas,
        };
        // `selected` claims GPU delta slots — only delta-backed kinds
        // (Delta/Stacked) occupy them. `toppings_in_batch` counts every
        // distinct non-base topping (adapters included) against
        // `max_toppings_per_batch`.
        let mut selected: BTreeSet<usize> = claims
            .iter()
            .filter(|&&i| states[i].kind.needs_delta())
            .map(|&i| states[i].req.model)
            .collect();
        let mut toppings_in_batch: BTreeSet<usize> = claims
            .iter()
            .filter(|&&i| states[i].kind.is_topping())
            .map(|&i| states[i].req.model)
            .collect();
        let mut has_delta_side = !selected.is_empty();
        let mut has_adapter_side = claims
            .iter()
            .any(|&i| matches!(states[i].kind, VariantKind::Lora { .. }));
        self.parent_of_delta.retain(|d, _| selected.contains(d));
        let mut batch_size = claims.len();
        let mut admitted: Vec<usize> = Vec::new();
        for qid in self.scan_order(queue, states, t) {
            if batch_size >= cfg.max_batch {
                break;
            }
            let delta = states[qid].req.model;
            let kind = states[qid].kind;
            if cfg.segregate_kinds {
                // Segregated-pool baseline: delta-backed and pure-LoRA
                // toppings never share a batch (base rides anywhere).
                let joins_adapter = matches!(kind, VariantKind::Lora { .. });
                if (kind.needs_delta() && has_adapter_side) || (joins_adapter && has_delta_side) {
                    continue;
                }
            }
            let admit_now = if kind.needs_delta() {
                if selected.contains(&delta) {
                    if !cfg.skip_the_line && self.parent_of_delta.get(&delta) != Some(&qid) {
                        // Pure FCFS ablation: only the queue head enters.
                        continue;
                    }
                    true
                } else if selected.len() < n_cap
                    && (toppings_in_batch.contains(&delta)
                        || toppings_in_batch.len() < toppings_cap)
                {
                    selected.insert(delta);
                    self.parent_of_delta.insert(delta, qid);
                    true
                } else {
                    false
                }
            } else if kind.is_topping() {
                // Pure LoRA: adapters are GPU-cheap (no delta slot,
                // no swap-in) — only the toppings cap binds.
                toppings_in_batch.contains(&delta) || toppings_in_batch.len() < toppings_cap
            } else {
                // Base model: shares the batch GEMM, no topping state.
                true
            };
            if admit_now {
                if kind.is_topping() {
                    toppings_in_batch.insert(delta);
                }
                has_delta_side |= kind.needs_delta();
                has_adapter_side |= matches!(kind, VariantKind::Lora { .. });
                admitted.push(qid);
                batch_size += 1;
            }
        }
        let admitted = admitted
            .into_iter()
            .map(|qid| {
                let parent = self
                    .parent_of_delta
                    .get(&states[qid].req.model)
                    .copied()
                    .filter(|&p| p != qid);
                (qid, parent)
            })
            .collect();
        Admission {
            admitted,
            selected,
            toppings_in_batch,
        }
    }

    /// Step 6: feeds this iteration's `finished` requests to the length
    /// estimator, then returns, in running order, the children of finished
    /// parents to preempt back to the queue — only when someone is
    /// actually starving: a queued request shut out by `admission`'s delta
    /// or toppings choice. A `LengthAware` policy spares a child whose
    /// estimated remaining output is within its budget.
    pub(crate) fn preempt(
        &mut self,
        finished: &[usize],
        queue: &BTreeSet<usize>,
        running: &[usize],
        states: &[ReqState],
        admission: &Admission,
    ) -> Vec<usize> {
        for &rid in finished {
            self.estimator
                .observe(states[rid].req.model, states[rid].req.output_tokens);
        }
        let toppings_cap = self.toppings_cap();
        let (selected, toppings_in_batch) = (&admission.selected, &admission.toppings_in_batch);
        // Base requests never starve on a topping slot; adapters starve
        // only when the toppings cap shuts them out; delta-backed kinds
        // starve when their delta is not selected (the legacy rule).
        let someone_starving = queue.iter().any(|&qid| {
            let m = states[qid].req.model;
            match states[qid].kind {
                VariantKind::Base => false,
                VariantKind::Lora { .. } => {
                    !toppings_in_batch.contains(&m) && toppings_in_batch.len() >= toppings_cap
                }
                VariantKind::Delta | VariantKind::Stacked { .. } => !selected.contains(&m),
            }
        });
        let policy = self.config.preemption;
        let preempted = if !(policy.enabled() && someone_starving) {
            Vec::new()
        } else {
            running
                .iter()
                .copied()
                .filter(|&rid| states[rid].parent.is_some_and(|p| finished.contains(&p)))
                .filter(|&rid| match policy {
                    PreemptionPolicy::LengthAware { spare_tokens } => !self
                        .estimator
                        .remaining(
                            states[rid].req.model,
                            states[rid].tokens_done,
                            states[rid].req.output_tokens,
                        )
                        .is_some_and(|r| r <= spare_tokens as f64),
                    PreemptionPolicy::Never | PreemptionPolicy::ParentFinish => true,
                })
                .collect()
        };
        // A finished parent's delta keeps no parent (see the module doc).
        for fp in finished {
            self.parent_of_delta.retain(|_, p| p != fp);
        }
        preempted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dz_tensor::Rng;
    use dz_workload::Request;

    fn planner(config: DeltaZipConfig) -> Planner {
        Planner {
            config,
            slo_policy: None,
            dynamic_n: None,
            estimator: LengthEstimator::Oracle,
            parent_of_delta: BTreeMap::new(),
        }
    }

    fn n_cap(n: usize) -> DeltaZipConfig {
        DeltaZipConfig {
            max_concurrent_deltas: n,
            ..DeltaZipConfig::default()
        }
    }

    /// One request per `(model, kind)`, ids in order, all arrived at 0.
    fn states(models: &[(usize, VariantKind)]) -> Vec<ReqState> {
        models
            .iter()
            .enumerate()
            .map(|(id, &(model, kind))| {
                let mut s = ReqState::new(Request {
                    id,
                    model,
                    arrival: 0.0,
                    prompt_tokens: 16,
                    output_tokens: 8,
                });
                s.kind = kind;
                s
            })
            .collect()
    }

    fn deltas(models: &[usize]) -> Vec<ReqState> {
        let kinds: Vec<_> = models.iter().map(|&m| (m, VariantKind::Delta)).collect();
        states(&kinds)
    }

    fn queue(ids: &[usize]) -> BTreeSet<usize> {
        ids.iter().copied().collect()
    }

    /// Admits `ids` and links each child to its parent, as the engine does.
    fn admit_linked(p: &mut Planner, states: &mut [ReqState], ids: &[usize]) -> Admission {
        let admission = p.admit(&queue(ids), states, &[], 0.0);
        for &(qid, parent) in &admission.admitted {
            states[qid].parent = parent;
        }
        admission
    }

    #[test]
    fn skip_the_line_joins_a_selected_delta() {
        let st = deltas(&[0, 1, 0]);
        let a = planner(n_cap(1)).admit(&queue(&[0, 1, 2]), &st, &[], 0.0);
        // Request 2 skips request 1, whose delta does not fit under N = 1.
        assert_eq!(a.admitted, vec![(0, None), (2, Some(0))]);
        assert_eq!(a.selected, queue(&[0]));
    }

    #[test]
    fn n_cap_refuses_a_new_delta() {
        // Requests 0 and 1 already hold both slots; 2 needs a third delta,
        // 3 rides a held one (which has no parent: its claim predates it).
        let st = deltas(&[0, 1, 2, 0]);
        let a = planner(n_cap(2)).admit(&queue(&[2, 3]), &st, &[0, 1], 0.0);
        assert_eq!(a.admitted, vec![(3, None)]);
        assert_eq!(a.selected, queue(&[0, 1]));
    }

    #[test]
    fn toppings_cap_and_segregation_refuse_admission() {
        let lora = VariantKind::Lora { rank: 8 };
        let st = states(&[(1, lora), (2, lora), (0, VariantKind::Base)]);
        let capped = DeltaZipConfig {
            max_toppings_per_batch: Some(1),
            ..DeltaZipConfig::default()
        };
        let a = planner(capped).admit(&queue(&[0, 1, 2]), &st, &[], 0.0);
        // The second adapter is over the cap; the base request rides free.
        assert_eq!(a.admitted, vec![(0, None), (2, None)]);
        assert_eq!(a.toppings_in_batch, queue(&[1]));

        let st = states(&[(1, VariantKind::Delta), (2, lora), (0, VariantKind::Base)]);
        let segregated = DeltaZipConfig {
            segregate_kinds: true,
            ..DeltaZipConfig::default()
        };
        let a = planner(segregated).admit(&queue(&[1, 2]), &st, &[0], 0.0);
        // A running delta keeps the adapter out; base joins either pool.
        assert_eq!(a.admitted, vec![(2, None)]);
    }

    #[test]
    fn plain_fcfs_admits_only_the_parent() {
        let st = deltas(&[0, 0]);
        let fcfs = DeltaZipConfig {
            skip_the_line: false,
            ..DeltaZipConfig::default()
        };
        let a = planner(fcfs).admit(&queue(&[0, 1]), &st, &[], 0.0);
        assert_eq!(a.admitted, vec![(0, None)]);
    }

    #[test]
    fn nothing_is_preempted_unless_someone_starves() {
        let mut st = deltas(&[0, 0, 1]);
        let mut p = planner(n_cap(1));
        let a = admit_linked(&mut p, &mut st, &[0, 1]);
        assert!(p.preempt(&[0], &queue(&[]), &[1], &st, &a).is_empty());

        // The same finish with request 2 shut out of the only slot.
        let mut p = planner(n_cap(1));
        let a = admit_linked(&mut p, &mut st, &[0, 1]);
        assert_eq!(p.preempt(&[0], &queue(&[2]), &[1], &st, &a), vec![1]);
    }

    #[test]
    fn length_aware_spares_a_near_done_child() {
        let mut st = deltas(&[0, 0, 0, 1]);
        st[1].tokens_done = 6; // 2 of 8 tokens left
        let aware = DeltaZipConfig {
            max_concurrent_deltas: 1,
            preemption: PreemptionPolicy::LengthAware { spare_tokens: 4 },
            ..DeltaZipConfig::default()
        };
        let mut p = planner(aware);
        let a = admit_linked(&mut p, &mut st, &[0, 1, 2]);
        // Child 1 has 2 tokens left and rides on; child 2 goes back.
        assert_eq!(p.preempt(&[0], &queue(&[3]), &[1, 2], &st, &a), vec![2]);
    }

    #[test]
    fn a_child_outliving_its_parent_keeps_a_dead_link() {
        // Today's rule, pinned: the finished parent's map entry is dropped
        // and no child is promoted in its place.
        let mut st = deltas(&[0, 0, 0, 1]);
        let mut p = planner(n_cap(1));
        let a = admit_linked(&mut p, &mut st, &[0, 1]);
        // Parent 0 finishes while nobody starves: child 1 rides on.
        assert!(p.preempt(&[0], &queue(&[]), &[1], &st, &a).is_empty());
        assert_eq!(st[1].parent, Some(0));

        // A later request on the same delta joins with no parent at all,
        let a = p.admit(&queue(&[2, 3]), &st, &[1], 0.0);
        assert_eq!(a.admitted, vec![(2, None)]);
        // and with request 3 starving, the dead link still never matches.
        assert!(p.preempt(&[2], &queue(&[3]), &[1], &st, &a).is_empty());
    }

    /// A planner and a request pool drawn from `rng`: up to eight models,
    /// each served as one kind, up to 24 requests with short outputs, and
    /// random caps and policies.
    fn random_case(rng: &mut Rng) -> (Planner, Vec<ReqState>) {
        let n_models = 1 + rng.below(8);
        let kinds: Vec<VariantKind> = (0..n_models)
            .map(|_| match rng.below(4) {
                0 => VariantKind::Base,
                1 => VariantKind::Lora { rank: 8 },
                2 => VariantKind::Delta,
                _ => VariantKind::Stacked { rank: 8 },
            })
            .collect();
        let pool: Vec<(usize, VariantKind)> = (0..1 + rng.below(24))
            .map(|_| {
                let model = rng.below(n_models);
                (model, kinds[model])
            })
            .collect();
        let mut st = states(&pool);
        for s in &mut st {
            s.req.output_tokens = 1 + rng.below(8);
        }
        let config = DeltaZipConfig {
            max_concurrent_deltas: 1 + rng.below(4),
            max_batch: 1 + rng.below(12),
            max_toppings_per_batch: (rng.below(2) == 0).then(|| 1 + rng.below(4)),
            segregate_kinds: rng.below(2) == 0,
            skip_the_line: rng.below(4) != 0,
            preemption: match rng.below(3) {
                0 => PreemptionPolicy::Never,
                1 => PreemptionPolicy::ParentFinish,
                _ => PreemptionPolicy::LengthAware {
                    spare_tokens: rng.below(4),
                },
            },
            ..DeltaZipConfig::default()
        };
        (planner(config), st)
    }

    /// Drives one seeded case the way the engine drives the planner: a few
    /// arrivals, admit, one decode token for every running request,
    /// finish, preempt. Every admission and preemption is checked against
    /// the planner's rules, restated here from the batch itself.
    fn check_case(seed: u64) {
        let mut rng = Rng::seeded(seed);
        let (mut p, mut st) = random_case(&mut rng);
        let cfg = p.config;
        let toppings_cap = cfg.max_toppings_per_batch.unwrap_or(usize::MAX);
        let mut queue = BTreeSet::new();
        let mut running: Vec<usize> = Vec::new();
        let mut arrived = 0;
        for t in 0..64 {
            let next = (arrived + rng.below(4)).min(st.len());
            queue.extend(arrived..next);
            arrived = next;

            let a = p.admit(&queue, &st, &running, t as f64);
            let batch: Vec<usize> = running
                .iter()
                .copied()
                .chain(a.admitted.iter().map(|&(qid, _)| qid))
                .collect();
            let models_where = |keep: fn(VariantKind) -> bool| -> BTreeSet<usize> {
                batch
                    .iter()
                    .filter(|&&i| keep(st[i].kind))
                    .map(|&i| st[i].req.model)
                    .collect()
            };
            // At most `N` deltas, and they are exactly the batch's.
            let deltas = models_where(VariantKind::needs_delta);
            assert_eq!(a.selected, deltas, "seed {seed}, t {t}");
            assert!(
                deltas.len() <= cfg.max_concurrent_deltas,
                "seed {seed}, t {t}: {} deltas under N = {}",
                deltas.len(),
                cfg.max_concurrent_deltas
            );
            // The toppings and batch caps, and segregated pools.
            let toppings = models_where(VariantKind::is_topping);
            assert_eq!(a.toppings_in_batch, toppings, "seed {seed}, t {t}");
            assert!(toppings.len() <= toppings_cap, "seed {seed}, t {t}");
            assert!(batch.len() <= cfg.max_batch, "seed {seed}, t {t}");
            if cfg.segregate_kinds {
                let adapters = models_where(|k| matches!(k, VariantKind::Lora { .. }));
                assert!(
                    deltas.is_empty() || adapters.is_empty(),
                    "seed {seed}, t {t}: deltas {deltas:?} share a batch with adapters {adapters:?}"
                );
            }

            for &(qid, parent) in &a.admitted {
                queue.remove(&qid);
                st[qid].parent = parent;
                running.push(qid);
            }
            for &i in &running {
                st[i].tokens_done += 1;
            }
            let finished: Vec<usize> = running
                .iter()
                .copied()
                .filter(|&i| st[i].tokens_done >= st[i].req.output_tokens)
                .collect();
            running.retain(|i| !finished.contains(i));

            let preempted = p.preempt(&finished, &queue, &running, &st, &a);
            // Preemption only when a queued request was shut out of this
            // iteration: its delta is not selected, or its adapter is not
            // in a batch already at the toppings cap.
            let starving = queue.iter().any(|&q| {
                let m = st[q].req.model;
                match st[q].kind {
                    VariantKind::Base => false,
                    VariantKind::Lora { .. } => {
                        !toppings.contains(&m) && toppings.len() >= toppings_cap
                    }
                    VariantKind::Delta | VariantKind::Stacked { .. } => !deltas.contains(&m),
                }
            });
            assert!(
                preempted.is_empty() || (starving && cfg.preemption.enabled()),
                "seed {seed}, t {t}: {preempted:?} preempted while nobody starves"
            );
            // And only a running child whose own parent just finished.
            for &rid in &preempted {
                assert!(running.contains(&rid), "seed {seed}, t {t}: {rid}");
                let parent = st[rid].parent;
                assert!(
                    parent.is_some_and(|p| finished.contains(&p)),
                    "seed {seed}, t {t}: {rid} preempted under parent {parent:?}, finished {finished:?}"
                );
            }

            running.retain(|i| !preempted.contains(i));
            for rid in preempted {
                st[rid].parent = None;
                queue.insert(rid);
            }
            if arrived == st.len() && queue.is_empty() && running.is_empty() {
                break;
            }
        }
    }

    #[test]
    fn planner_rules_hold_over_seeded_queues() {
        for seed in 0..1024 {
            check_case(seed);
        }
    }
}
