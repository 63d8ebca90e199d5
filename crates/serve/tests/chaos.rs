//! Chaos & elasticity: replica crashes, zero-capacity degradation,
//! autoscaling, and rolling rollouts against the cluster simulator —
//! plus the liveness contracts the routers must honor.

use dz_gpusim::shapes::ModelShape;
use dz_gpusim::spec::NodeSpec;
use dz_serve::cluster::{
    AdmissionConfig, ClusterConfig, ClusterSim, ConsistentHashRouter, LeastCostRouter,
    LeastLoadedRouter, PlacementAwareRouter, PlacementPlan, PowerOfTwoRouter, ReplicaView,
    ReplicaViews, RoundRobinRouter, Router, ViewSlice,
};
use dz_serve::{
    Autoscaler, ChaosConfig, CostModel, DeltaZipConfig, FaultEvent, FaultKind, FaultPlan, Rollout,
    SloClass, SloPolicy, TraceConfig,
};
use dz_workload::{PopularityDist, Request, Trace, TraceSpec};

fn cost() -> CostModel {
    CostModel::new(NodeSpec::rtx3090_node(1), ModelShape::llama7b())
}

fn trace(seed: u64, rate: f64, duration_s: f64) -> Trace {
    Trace::generate(TraceSpec {
        n_models: 16,
        arrival_rate: rate,
        duration_s,
        popularity: PopularityDist::Zipf { alpha: 1.3 },
        seed,
    })
}

fn config(n: usize) -> ClusterConfig {
    ClusterConfig {
        n_replicas: n,
        engine: DeltaZipConfig {
            host_capacity_deltas: Some(6),
            ..DeltaZipConfig::default()
        },
        ..ClusterConfig::default()
    }
}

fn crash(at: f64, replica: usize, restart_after_s: Option<f64>) -> FaultEvent {
    FaultEvent {
        at,
        kind: FaultKind::Crash {
            replica,
            restart_after_s,
        },
    }
}

// -- crash / restart ------------------------------------------------------

#[test]
fn crash_requeues_in_flight_and_serves_everything_after_restart() {
    let tr = trace(11, 3.0, 60.0);
    let plan = FaultPlan::scripted(vec![crash(20.0, 0, Some(15.0))]);
    let mut sim = ClusterSim::new(
        vec![cost(); 2],
        config(2),
        Box::new(LeastLoadedRouter::new()),
    )
    .with_chaos(ChaosConfig::faults(plan, 42));
    let report = sim.run(&tr);
    let chaos = report.chaos.expect("chaos stats must be reported");
    assert_eq!(chaos.crashes, 1);
    assert_eq!(chaos.restarts, 1);
    assert!(
        chaos.lost_in_flight > 0,
        "a loaded replica has in-flight work"
    );
    assert_eq!(chaos.min_live, 1);
    assert_eq!(chaos.max_live, 2);
    // Nothing is lost for good: every request is served exactly once.
    let mut ids: Vec<usize> = report.merged.records.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..tr.len()).collect::<Vec<_>>());
    assert!(report.shed.is_empty());
    // Requeued requests pay the wasted wait as queue time and the
    // ledger still telescopes to e2e.
    for r in &report.merged.records {
        assert!(r.causes.total() <= r.e2e_s + 1e-6, "ledger overflows e2e");
        assert!(r.queue_s <= r.e2e_s + 1e-9);
    }
}

#[test]
fn crash_without_restart_leaves_the_survivors_serving() {
    let tr = trace(13, 2.0, 50.0);
    let plan = FaultPlan::scripted(vec![crash(10.0, 1, None)]);
    let mut sim = ClusterSim::new(
        vec![cost(); 3],
        config(3),
        Box::new(LeastLoadedRouter::new()),
    )
    .with_chaos(ChaosConfig::faults(plan, 7));
    let report = sim.run(&tr);
    let chaos = report.chaos.expect("chaos stats");
    assert_eq!(chaos.crashes, 1);
    assert_eq!(chaos.restarts, 0);
    assert_eq!(chaos.min_live, 2);
    assert_eq!(report.merged.len(), tr.len());
    // After the crash instant, replica 1 receives nothing new: its share
    // of routed requests must be strictly below a fair third.
    let share = report.routing.per_replica_requests[1] as f64 / tr.len() as f64;
    assert!(
        share < 1.0 / 3.0,
        "dead replica kept receiving traffic: {share}"
    );
}

/// Delegates to the wrapped router and fails the run on any pick of a
/// dead replica.
struct LiveOnly(Box<dyn Router>);

impl Router for LiveOnly {
    fn name(&self) -> String {
        self.0.name()
    }
    fn route(&mut self, req: &Request, views: &dyn ReplicaViews) -> usize {
        let r = self.0.route(req, views);
        assert!(
            views.view(r).alive,
            "{} routed to dead replica {r}",
            self.name()
        );
        r
    }
}

#[test]
fn fleet_routers_route_around_a_crash_in_the_cluster() {
    // The fleet-scale routers on the full-engine cluster: a crash that
    // restarts and one that does not move the membership epoch, so p2c
    // resamples and the hash ring rebuilds around the dead replicas.
    let tr = trace(19, 3.0, 50.0);
    let routers: [Box<dyn Router>; 2] = [
        Box::new(PowerOfTwoRouter::new(5)),
        Box::new(ConsistentHashRouter::new(8)),
    ];
    for router in routers {
        let plan = FaultPlan::scripted(vec![crash(10.0, 0, Some(12.0)), crash(18.0, 2, None)]);
        let mut sim = ClusterSim::new(vec![cost(); 3], config(3), Box::new(LiveOnly(router)))
            .with_chaos(ChaosConfig::faults(plan, 5));
        let report = sim.run(&tr);
        let chaos = report.chaos.expect("chaos stats");
        assert_eq!((chaos.crashes, chaos.restarts), (2, 1));
        assert_eq!(
            report.merged.len() + report.shed.len(),
            tr.len(),
            "every request is served or shed"
        );
    }
}

#[test]
fn all_replicas_down_parks_requests_until_the_restart() {
    let tr = trace(17, 1.5, 40.0);
    // Both replicas die at 10 s; one comes back at 25 s.
    let plan = FaultPlan::scripted(vec![crash(10.0, 0, Some(15.0)), crash(10.0, 1, None)]);
    let mut sim = ClusterSim::new(
        vec![cost(); 2],
        config(2),
        Box::new(RoundRobinRouter::new()),
    )
    .with_chaos(ChaosConfig::faults(plan, 3));
    let report = sim.run(&tr);
    // Nothing sheds: requests arriving in the dark window wait for the
    // restart and their wait shows up as queue time.
    assert!(
        report.shed.is_empty(),
        "a scheduled restart means no shedding"
    );
    assert_eq!(report.merged.len(), tr.len());
    let waited = report
        .merged
        .records
        .iter()
        .filter(|r| r.arrival > 10.0 && r.arrival < 25.0)
        .map(|r| r.queue_s)
        .fold(0.0f64, f64::max);
    assert!(
        waited >= 5.0,
        "outage waits must appear as queue time: {waited}"
    );
    let chaos = report.chaos.expect("chaos stats");
    assert_eq!(chaos.min_live, 0);
}

#[test]
fn zero_capacity_forever_sheds_gracefully_instead_of_hanging() {
    let tr = trace(19, 1.0, 30.0);
    // Every replica dies at 5 s and nothing ever comes back.
    let plan = FaultPlan::scripted(vec![crash(5.0, 0, None), crash(5.0, 1, None)]);
    let slo = SloPolicy::tiered(16, 4);
    let mut sim = ClusterSim::new(
        vec![cost(); 2],
        ClusterConfig {
            admission: Some(AdmissionConfig::new(slo.clone())),
            ..config(2)
        },
        Box::new(LeastLoadedRouter::new()),
    )
    .with_chaos(ChaosConfig::faults(plan, 5));
    let report = sim.run(&tr);
    let chaos = report.chaos.expect("chaos stats");
    // Everything offered after the blackout is refused, not hung:
    // Batch through defer→shed (zero live capacity counts as saturated
    // depth), the rest through the no-capacity last resort.
    assert_eq!(report.merged.len() + report.shed.len(), tr.len());
    assert!(chaos.shed_no_capacity > 0, "non-batch must shed eventually");
    let batch_shed = report
        .shed
        .iter()
        .filter(|s| slo.class_of(s.model) == SloClass::Batch)
        .count();
    assert!(batch_shed > 0, "batch must shed through defer budget");
    assert!(
        report.routing.defer_events > 0,
        "batch must defer before shedding at zero capacity"
    );
    // Served requests (pre-crash) still telescope.
    for r in &report.merged.records {
        assert!((r.causes.total() - r.e2e_s).abs() < 1e-6 || r.causes.total() <= r.e2e_s);
    }
}

#[test]
#[should_panic(expected = "names replica 2 of 2")]
fn chaos_rejects_a_fault_beyond_the_fleet() {
    let plan = FaultPlan::scripted(vec![crash(1.0, 2, None)]);
    let sim = ClusterSim::new(
        vec![cost(); 2],
        config(2),
        Box::new(RoundRobinRouter::new()),
    );
    let _ = sim.with_chaos(ChaosConfig::faults(plan, 0));
}

#[test]
#[should_panic(expected = "initial_replicas must be in 1..=2")]
fn chaos_rejects_initial_replicas_outside_the_fleet() {
    let sim = ClusterSim::new(
        vec![cost(); 2],
        config(2),
        Box::new(RoundRobinRouter::new()),
    );
    let _ = sim.with_chaos(ChaosConfig {
        initial_replicas: Some(0),
        ..ChaosConfig::default()
    });
}

// -- router liveness (satellite) ------------------------------------------

fn live_view(id: usize, alive: bool, warm: bool) -> ReplicaView {
    ReplicaView {
        id,
        queue_depth: if alive { 3 } else { 0 },
        backlog_s: if alive { 5.0 } else { 0.0 },
        warm,
        decoded: false,
        cold_load_s: 2.0,
        warm_load_s: 0.5,
        alive,
    }
}

#[test]
fn no_router_ever_selects_a_dead_replica() {
    // The dead replica looks maximally attractive (empty queue, zero
    // backlog, delta warm) — routers must still refuse it.
    let views = vec![
        live_view(0, true, false),
        live_view(1, false, true),
        live_view(2, true, false),
        live_view(3, false, true),
    ];
    let slice = ViewSlice {
        views: &views,
        epoch: 0,
    };
    let plan = PlacementPlan::from_weights(&[1.0; 16], 4);
    let mut routers: Vec<Box<dyn Router>> = vec![
        Box::new(RoundRobinRouter::new()),
        Box::new(LeastLoadedRouter::new()),
        Box::new(PlacementAwareRouter::new(plan)),
        Box::new(PowerOfTwoRouter::new(3)),
        Box::new(ConsistentHashRouter::new(8)),
        Box::new(LeastCostRouter::default()),
    ];
    for router in &mut routers {
        for m in 0..64 {
            let req = Request {
                id: m,
                model: m % 16,
                arrival: m as f64,
                prompt_tokens: 16,
                output_tokens: 16,
            };
            let r = router.route(&req, &slice);
            assert!(
                views[r].alive,
                "{} routed to dead replica {r}",
                router.name()
            );
        }
    }
}

#[test]
fn hash_ring_is_rebuilt_only_when_the_epoch_moves() {
    let mut router = ConsistentHashRouter::new(4);
    let mut views: Vec<ReplicaView> = (0..4).map(|id| live_view(id, true, false)).collect();
    let route = |router: &mut ConsistentHashRouter, model, views: &[ReplicaView], epoch| {
        let req = Request {
            id: 0,
            model,
            arrival: 0.0,
            prompt_tokens: 16,
            output_tokens: 16,
        };
        router.route(&req, &ViewSlice { views, epoch })
    };
    let homes: Vec<usize> = (0..32).map(|m| route(&mut router, m, &views, 0)).collect();
    // A replica drops out but the epoch stands still: the cached ring
    // keeps routing to it.
    let lost = homes[0];
    views[lost].alive = false;
    assert_eq!(route(&mut router, 0, &views, 0), lost);
    // The epoch moves: the ring drops the replica, and only its models
    // move.
    for (m, &home) in homes.iter().enumerate() {
        let now = route(&mut router, m, &views, 1);
        assert!(now != lost && (home == lost || now == home), "model {m}");
    }
}

#[test]
fn placement_hints_never_target_dead_replicas() {
    // The hot model is replicated everywhere; two of its homes are dead
    // and cold — prime hint targets, were they alive.
    let plan = PlacementPlan::from_weights(&[4.0, 1.0, 1.0, 1.0], 4);
    let mut router = PlacementAwareRouter::new(plan).pinned();
    let views = vec![
        live_view(0, true, true),
        live_view(1, false, false),
        live_view(2, true, false),
        live_view(3, false, false),
    ];
    let req = Request {
        id: 0,
        model: 0,
        arrival: 0.0,
        prompt_tokens: 16,
        output_tokens: 16,
    };
    let slice = ViewSlice {
        views: &views,
        epoch: 0,
    };
    let routed = router.route(&req, &slice);
    let hints = router.prefetch_hints(&req, &slice, routed);
    for h in &hints {
        assert!(
            views[h.replica].alive,
            "hint leaked to dead replica {}",
            h.replica
        );
    }
}

#[test]
fn cluster_counts_dropped_hints_to_dead_replicas() {
    // Force a custom router to hint at a dead replica: the front end
    // must drop (and count) the hint rather than prewarm a corpse.
    struct BadHinter;
    impl Router for BadHinter {
        fn name(&self) -> String {
            "bad-hinter".into()
        }
        fn route(&mut self, _req: &Request, views: &dyn ReplicaViews) -> usize {
            views.iter().find(|v| v.alive).expect("live replica").id
        }
        fn prefetch_hints(
            &mut self,
            req: &Request,
            views: &dyn ReplicaViews,
            routed: usize,
        ) -> Vec<dz_serve::cluster::PrefetchHint> {
            // Hint every replica except the routed one, dead or not.
            views
                .iter()
                .filter(|v| v.id != routed)
                .map(|v| dz_serve::cluster::PrefetchHint {
                    replica: v.id,
                    model: req.model,
                })
                .collect()
        }
    }
    let tr = trace(23, 2.0, 40.0);
    let plan = FaultPlan::scripted(vec![crash(5.0, 1, None)]);
    let mut sim = ClusterSim::new(
        vec![cost(); 2],
        ClusterConfig {
            prefetch: true,
            ..config(2)
        },
        Box::new(BadHinter),
    )
    .with_chaos(ChaosConfig::faults(plan, 1));
    let report = sim.run(&tr);
    let chaos = report.chaos.expect("chaos stats");
    assert!(
        chaos.dropped_hints > 0,
        "hints to the dead replica must be dropped"
    );
    assert_eq!(report.merged.len(), tr.len());
}

// -- autoscaling ----------------------------------------------------------

#[test]
fn autoscaler_activates_cold_spares_under_pressure() {
    // One live replica against a four-replica fleet and a heavy trace:
    // the backlog climbs, the autoscaler must bring spares in, and the
    // fleet must still serve everything.
    let tr = trace(29, 6.0, 60.0);
    let chaos = ChaosConfig {
        autoscaler: Some(Autoscaler {
            up_backlog_s: 10.0,
            down_backlog_s: 0.5,
            interval_s: 2.0,
            cooldown_s: 4.0,
            ..Autoscaler::new(1, 4)
        }),
        initial_replicas: Some(1),
        seed: 9,
        ..ChaosConfig::default()
    };
    let mut sim = ClusterSim::new(
        vec![cost(); 4],
        config(4),
        Box::new(LeastLoadedRouter::new()),
    )
    .with_chaos(chaos);
    let report = sim.run(&tr);
    let stats = report.chaos.expect("chaos stats");
    assert!(stats.scale_ups > 0, "pressure must scale the fleet up");
    assert!(stats.max_live > 1, "spares must actually come live");
    assert_eq!(report.merged.len(), tr.len());
    // Scaled-up replicas actually absorbed traffic.
    let used = report
        .routing
        .per_replica_requests
        .iter()
        .filter(|&&c| c > 0)
        .count();
    assert!(used > 1, "traffic must spread onto activated spares");
}

#[test]
fn autoscaler_drains_idle_replicas() {
    // A light trace on a fully-live fleet: mean backlog sits near zero,
    // so the scaler must drain down to its floor — and draining must
    // not lose any in-flight work.
    let tr = trace(31, 0.5, 60.0);
    let chaos = ChaosConfig {
        autoscaler: Some(Autoscaler {
            up_backlog_s: 1e9,
            down_backlog_s: 1.0,
            interval_s: 2.0,
            cooldown_s: 2.0,
            ..Autoscaler::new(1, 3)
        }),
        seed: 2,
        ..ChaosConfig::default()
    };
    let mut sim = ClusterSim::new(
        vec![cost(); 3],
        config(3),
        Box::new(LeastLoadedRouter::new()),
    )
    .with_chaos(chaos);
    let report = sim.run(&tr);
    let stats = report.chaos.expect("chaos stats");
    assert!(stats.scale_downs >= 2, "idle fleet must drain: {stats:?}");
    assert_eq!(stats.min_live, 1, "drains stop at the floor");
    assert_eq!(report.merged.len(), tr.len(), "draining loses nothing");
}

// -- rollouts -------------------------------------------------------------

#[test]
fn rollout_ramps_traffic_onto_v2() {
    let tr = trace(37, 3.0, 80.0);
    // Model 0 is the Zipf head; roll it to model 15 over 20 s.
    let chaos = ChaosConfig {
        rollouts: vec![Rollout {
            model: 0,
            v2: 15,
            start_s: 20.0,
            duration_s: 20.0,
        }],
        seed: 99,
        ..ChaosConfig::default()
    };
    let mut sim = ClusterSim::new(
        vec![cost(); 2],
        config(2),
        Box::new(LeastLoadedRouter::new()),
    )
    .with_chaos(chaos);
    let report = sim.run(&tr);
    let stats = report.chaos.expect("chaos stats");
    assert!(stats.rollout_remapped > 0, "the ramp must remap traffic");
    // After the window every request for model 0 serves as v2.
    let late_v1 = report
        .merged
        .records
        .iter()
        .filter(|r| r.arrival > 40.0 && r.model == 0)
        .count();
    assert_eq!(late_v1, 0, "post-window v1 traffic must be fully remapped");
    let v2_served = report
        .merged
        .records
        .iter()
        .filter(|r| r.model == 15)
        .count();
    assert!(
        v2_served >= stats.rollout_remapped,
        "remapped requests serve as v2"
    );
}

#[test]
fn rollout_is_reproducible_from_the_seed() {
    let tr = trace(41, 2.0, 60.0);
    let run = |seed: u64| {
        let chaos = ChaosConfig {
            rollouts: vec![Rollout {
                model: 0,
                v2: 15,
                start_s: 10.0,
                duration_s: 30.0,
            }],
            seed,
            ..ChaosConfig::default()
        };
        let mut sim = ClusterSim::new(
            vec![cost(); 2],
            config(2),
            Box::new(LeastLoadedRouter::new()),
        )
        .with_chaos(chaos);
        sim.run(&tr)
    };
    let a = run(123);
    let b = run(123);
    assert_eq!(
        a.chaos.as_ref().unwrap().rollout_remapped,
        b.chaos.as_ref().unwrap().rollout_remapped
    );
    for (x, y) in a.merged.records.iter().zip(&b.merged.records) {
        assert_eq!(x.id, y.id);
        assert_eq!(x.model, y.model);
        assert_eq!(
            x.e2e_s.to_bits(),
            y.e2e_s.to_bits(),
            "runs must be bit-identical"
        );
    }
    let c = run(124);
    assert!(
        c.chaos.as_ref().unwrap().rollout_remapped != a.chaos.as_ref().unwrap().rollout_remapped
            || c.merged
                .records
                .iter()
                .zip(&a.merged.records)
                .any(|(x, y)| x.model != y.model),
        "a different seed should flip at least one coin differently"
    );
}

// -- tracing equivalence --------------------------------------------------

#[test]
fn traced_chaos_run_is_bit_identical_to_untraced() {
    let tr = trace(47, 3.0, 60.0);
    let build = || {
        let plan = FaultPlan::scripted(vec![crash(15.0, 0, Some(10.0))]);
        let chaos = ChaosConfig {
            plan,
            autoscaler: Some(Autoscaler::new(1, 2)),
            rollouts: vec![Rollout {
                model: 1,
                v2: 14,
                start_s: 20.0,
                duration_s: 15.0,
            }],
            seed: 77,
            initial_replicas: None,
        };
        ClusterSim::new(
            vec![cost(); 2],
            config(2),
            Box::new(PlacementAwareRouter::new(PlacementPlan::from_popularity(
                tr.spec.popularity,
                16,
                2,
            ))),
        )
        .with_chaos(chaos)
    };
    let untraced = build().run(&tr);
    let mut traced_sim = build().with_tracing(TraceConfig::default());
    let traced = traced_sim.run(&tr);
    let tracks = traced_sim.take_trace();
    assert!(!tracks.is_empty(), "traced run must capture tracks");
    assert!(
        tracks[0]
            .log
            .events()
            .any(|e| matches!(e, dz_serve::TraceEvent::ReplicaDown { .. })),
        "front-end lane must record the crash"
    );
    assert_eq!(untraced.merged.len(), traced.merged.len());
    for (a, b) in untraced.merged.records.iter().zip(&traced.merged.records) {
        assert_eq!(a.id, b.id);
        assert_eq!(
            a.e2e_s.to_bits(),
            b.e2e_s.to_bits(),
            "tracing must not perturb the simulation"
        );
        assert_eq!(a.causes, b.causes);
    }
    assert_eq!(untraced.chaos, traced.chaos);
}
