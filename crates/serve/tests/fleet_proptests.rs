//! Property-based invariants for the fleet event core: the global event
//! heap never observes time going backwards, the `(time, class, seq)`
//! tie-break is deterministic, and a same-seed [`FleetSim`] replay
//! produces an identical event log.

use dz_gpusim::EventQueue;
use dz_serve::cluster::PlacementPlan;
use dz_serve::{
    ConsistentHashRouter, FleetConfig, FleetSim, LeastCostRouter, PowerOfTwoRouter,
    RoundRobinRouter, Router,
};
use dz_workload::{PopularityDist, Trace, TraceSpec};
use proptest::prelude::*;

/// An arbitrary schedule: absolute times (finite, non-negative) with
/// priority classes, pushed in the generated order.
fn arb_schedule() -> impl Strategy<Value = Vec<(f64, u8)>> {
    proptest::collection::vec((0.0f64..1e6, 0u8..5), 1..64)
}

/// A router choice: `(kind, vnodes)`, built fresh for every replay by
/// [`router`] because a boxed router cannot be cloned.
fn arb_router() -> impl Strategy<Value = (u8, usize)> {
    (0u8..4, 1usize..64)
}

fn router((kind, vnodes): (u8, usize), seed: u64) -> Box<dyn Router> {
    match kind {
        0 => Box::new(RoundRobinRouter::new()),
        1 => Box::new(ConsistentHashRouter::new(vnodes)),
        2 => Box::new(PowerOfTwoRouter::new(seed)),
        _ => Box::new(LeastCostRouter::default()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Popping any arbitrary schedule never moves the clock backwards,
    /// and the pop order is the lexicographic `(time, class, seq)` order.
    #[test]
    fn heap_time_is_monotone_and_tiebreak_is_lexicographic(schedule in arb_schedule()) {
        let mut q = EventQueue::new();
        for (i, &(at, class)) in schedule.iter().enumerate() {
            q.push_class(at, class, i);
        }
        let mut popped = Vec::new();
        let mut last_now = q.now();
        while let Some((t, class, i)) = q.pop_classed() {
            prop_assert!(t >= last_now, "clock went backwards: {t} < {last_now}");
            prop_assert!((q.now() - t).abs() < 1e-12);
            last_now = t;
            popped.push((schedule[i].0, class, i));
        }
        prop_assert_eq!(popped.len(), schedule.len());
        // The observed order must equal the explicit sort by
        // (time, class, insertion seq) — the tie-break contract.
        let mut expect: Vec<(f64, u8, usize)> = schedule
            .iter()
            .enumerate()
            .map(|(i, &(at, class))| (at, class, i))
            .collect();
        expect.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("finite times")
                .then(a.1.cmp(&b.1))
                .then(a.2.cmp(&b.2))
        });
        prop_assert_eq!(popped, expect);
    }

    /// Two pushes at the same `(time, class)` always pop in insertion
    /// order, regardless of what else is in the heap.
    #[test]
    fn equal_time_equal_class_pops_in_insertion_order(
        noise in arb_schedule(),
        at in 0.0f64..1e6,
        class in 0u8..5,
    ) {
        let mut q = EventQueue::new();
        for &(t, c) in &noise {
            q.push_class(t, c, usize::MAX);
        }
        q.push_class(at, class, 0usize);
        q.push_class(at, class, 1usize);
        let mut marked = Vec::new();
        while let Some((_, _, p)) = q.pop_classed() {
            if p != usize::MAX {
                marked.push(p);
            }
        }
        prop_assert_eq!(marked, vec![0, 1]);
    }

    /// Replaying a [`FleetSim`] with the same seed, trace and router
    /// yields a bit-identical event log and tail.
    #[test]
    fn same_seed_fleet_replay_is_bit_identical(
        seed in any::<u64>(),
        n_replicas in 2usize..8,
        rate in 1.0f64..8.0,
        choice in arb_router(),
    ) {
        let trace = Trace::generate_fast(TraceSpec {
            n_models: 32,
            arrival_rate: rate,
            duration_s: 30.0,
            popularity: PopularityDist::Zipf { alpha: 1.2 },
            seed,
        });
        let weights = PopularityDist::Zipf { alpha: 1.2 }.weights(32);
        let run = || {
            let mut cfg = FleetConfig::new(n_replicas);
            cfg.record_events = true;
            let plan = PlacementPlan::from_weights(&weights, n_replicas);
            FleetSim::new(cfg, plan, router(choice, seed)).run(&trace)
        };
        let a = run();
        let b = run();
        let log_a = a.event_log.as_deref().expect("recording enabled");
        let log_b = b.event_log.as_deref().expect("recording enabled");
        prop_assert_eq!(log_a.len(), log_b.len());
        for (ea, eb) in log_a.iter().zip(log_b) {
            prop_assert_eq!(ea.at.to_bits(), eb.at.to_bits());
            prop_assert_eq!(ea.class, eb.class);
            prop_assert_eq!(ea.key, eb.key);
        }
        prop_assert_eq!(a.served, b.served);
        prop_assert_eq!(a.p99_e2e_s.to_bits(), b.p99_e2e_s.to_bits());
        // And the log itself is time-monotone: the heap's clock contract
        // holds end-to-end through every handler.
        for w in log_a.windows(2) {
            prop_assert!(w[1].at >= w[0].at, "log time went backwards");
        }
    }
}
