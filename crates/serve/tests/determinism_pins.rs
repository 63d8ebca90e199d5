//! Golden determinism pins across the HashMap -> BTreeMap container
//! swap: each scenario below ran on the pre-swap tree and its
//! per-request floats were folded (via `to_bits`) into one FNV-1a
//! checksum. The constants pin that the deterministic-container
//! conversion in `fleet.rs` / `cluster.rs` / `deltazip.rs` /
//! `predictor.rs` / `tiered.rs` changed **no** simulation result, and
//! that future refactors keep every run replayable bit-for-bit.
//!
//! The `PIN_LOCKSTEP_*` constants are golden outputs of the retired
//! lockstep cluster front end (the two-queue loop that preceded the
//! event heap) on four of the small-fleet fixtures it was differentially
//! tested against: plain, admission + prefetch, and chaos with and
//! without tracing. Each folds every
//! field of the [`ClusterReport`] that the old differential suite
//! compared, so the event-driven `ClusterSim::run` is held to exactly
//! the oracle's output on those inputs.
//!
//! If a PR changes one of these values *on purpose* (a scheduling or
//! cost-model change), re-pin deliberately: run with
//! `DZ_PRINT_PINS=1 cargo test -p dz-serve --test determinism_pins -- --nocapture`
//! and paste the printed hashes.

use dz_gpusim::shapes::ModelShape;
use dz_gpusim::spec::NodeSpec;
use dz_serve::cluster::{
    AdmissionConfig, ClusterConfig, ClusterReport, ClusterSim, ConsistentHashRouter,
    LeastCostRouter, PlacementAwareRouter, PlacementPlan, PowerOfTwoRouter, RoundRobinRouter,
    Router,
};
use dz_serve::fleet::{FleetConfig, FleetSim};
use dz_serve::tuning::{DynamicN, DynamicNConfig};
use dz_serve::{
    Autoscaler, ChaosConfig, CostModel, DeltaZipConfig, DeltaZipEngine, Engine, EngineBuilder,
    FaultEvent, FaultKind, FaultPlan, LengthEstimator, Metrics, PopularityPrefetch,
    PreemptionPolicy, QueueLookahead, ResumePolicy, SloPolicy, TraceConfig, TraceEvent,
    VariantCatalog, VariantSpec,
};
use dz_workload::{PopularityDist, Trace, TraceSpec};

const N_MODELS: usize = 16;

/// FNV-1a over a stream of u64 words — stable, dependency-free way to
/// pin a whole run's worth of floats in one constant.
struct Pin(u64);

impl Pin {
    fn new() -> Self {
        Pin(0xcbf2_9ce4_8422_2325)
    }
    fn word(&mut self, w: u64) {
        let mut h = self.0;
        for i in 0..8 {
            h ^= (w >> (i * 8)) & 0xff;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }
    fn f64(&mut self, v: f64) {
        self.word(v.to_bits());
    }
    fn metrics(&mut self, m: &Metrics) {
        self.word(m.len() as u64);
        self.f64(m.makespan_s);
        for r in &m.records {
            self.word(r.id as u64);
            self.word(r.model as u64);
            self.f64(r.e2e_s);
            self.f64(r.ttft_s);
            self.f64(r.queue_s);
            self.f64(r.load_s);
        }
    }
    fn e2e_sum(&mut self, m: &Metrics) {
        self.f64(m.records.iter().map(|r| r.e2e_s).sum::<f64>());
    }
    /// Folds every report field the retired lockstep differential suite
    /// compared: per-record id, model, arrival, e2e, ttft, queue, load,
    /// tokens and preemptions; per-replica lengths and e2e sums; shed
    /// records; the routing counters; and chaos stats.
    fn cluster_report(&mut self, rep: &ClusterReport) {
        self.word(rep.merged.len() as u64);
        self.e2e_sum(&rep.merged);
        for r in &rep.merged.records {
            self.word(r.id as u64);
            self.word(r.model as u64);
            self.f64(r.arrival);
            self.f64(r.e2e_s);
            self.f64(r.ttft_s);
            self.f64(r.queue_s);
            self.f64(r.load_s);
            self.word(r.output_tokens as u64);
            self.word(r.preemptions as u64);
        }
        self.word(rep.per_replica.len() as u64);
        for m in &rep.per_replica {
            self.word(m.len() as u64);
            self.e2e_sum(m);
        }
        self.word(rep.shed.len() as u64);
        for s in &rep.shed {
            self.word(s.id as u64);
            self.word(s.model as u64);
            self.word(s.class as u64);
            self.f64(s.arrival);
        }
        let routing = &rep.routing;
        self.word(routing.per_replica_requests.len() as u64);
        for &n in &routing.per_replica_requests {
            self.word(n as u64);
        }
        for n in [
            routing.warm_routed,
            routing.cold_routed,
            routing.placement_misses,
            routing.defer_events,
            routing.shed,
            routing.prefetch_hints,
            routing.prefetch_issued,
            routing.prefetch_hits,
        ] {
            self.word(n as u64);
        }
        // The fold of a report without store stats: keeping the word
        // keeps every pinned hash.
        self.word(0);
        match &rep.chaos {
            None => self.word(0),
            Some(c) => {
                self.word(1);
                for n in [
                    c.crashes,
                    c.restarts,
                    // Brownout windows: none can be scripted, and the
                    // word keeps every pinned hash.
                    0,
                    c.lost_in_flight,
                    c.shed_no_capacity,
                    c.scale_ups,
                    c.scale_downs,
                    c.rollout_remapped,
                    c.dropped_hints,
                    c.min_live,
                    c.max_live,
                ] {
                    self.word(n as u64);
                }
            }
        }
    }
}

fn check(tag: &str, got: u64, pinned: u64) {
    if std::env::var("DZ_PRINT_PINS").is_ok() {
        println!("const PIN_{}: u64 = 0x{got:016x};", tag.to_uppercase());
        return;
    }
    assert_eq!(
        got, pinned,
        "{tag}: run checksum 0x{got:016x} != pinned 0x{pinned:016x} — \
         a container/ordering change altered simulation results"
    );
}

fn cost() -> CostModel {
    CostModel::new(NodeSpec::rtx3090_node(1), ModelShape::llama7b())
}

fn trace(seed: u64, rate: f64, duration_s: f64) -> Trace {
    Trace::generate(TraceSpec {
        n_models: N_MODELS,
        arrival_rate: rate,
        duration_s,
        popularity: PopularityDist::Zipf { alpha: 1.3 },
        seed,
    })
}

const PIN_FLEET: u64 = 0x12c99df2cbd0593c;
const PIN_TOPPINGS: u64 = 0x01e21a5090efc51a;
const PIN_CLUSTER: u64 = 0xafbf0b924db84839;

/// The p2c seed the fleet pin ran with: `FleetConfig`'s old default
/// routing seed, in effect before the router owned its seed.
const FLEET_P2C_SEED: u64 = 0x0F1E_E7F1;

/// Fleet-scale event core: p2c routing over 24 replicas exercises the
/// per-replica warm-set LRU (`FleetReplica::warm`) on every request.
#[test]
fn fleet_run_is_pinned() {
    let tr = trace(7, 40.0, 60.0);
    let weights = PopularityDist::Zipf { alpha: 1.3 }.weights(N_MODELS);
    let plan = PlacementPlan::from_weights(&weights, 24);
    let mut cfg = FleetConfig::new(24);
    cfg.warm_capacity = 3; // small cap => constant LRU eviction churn
    let router = Box::new(PowerOfTwoRouter::new(FLEET_P2C_SEED));
    let report = FleetSim::new(cfg, plan, router).run(&tr);
    let mut pin = Pin::new();
    pin.word(report.served as u64);
    pin.word(report.warm_hits);
    pin.word(report.fetches.local_disk);
    pin.word(report.fetches.object_store);
    pin.f64(report.mean_e2e_s);
    pin.f64(report.p99_e2e_s);
    pin.f64(report.makespan_s);
    check("fleet", pin.0, PIN_FLEET);
}

/// Toppings engine: interleaved base/LoRA/delta/stacked catalog with a
/// tight host cap exercises `evict_gpu_lru` / `enforce_host_cap` (the
/// LRU scans that used to iterate HashMaps).
#[test]
fn toppings_run_is_pinned() {
    let mut pin = Pin::new();
    pin.metrics(&toppings_run());
    check("toppings", pin.0, PIN_TOPPINGS);
}

fn toppings_run() -> Metrics {
    let tr = trace(11, 1.2, 90.0);
    let cfg = DeltaZipConfig {
        max_concurrent_deltas: 3,
        host_capacity_deltas: Some(4),
        max_toppings_per_batch: Some(5),
        ..DeltaZipConfig::default()
    };
    EngineBuilder::new(cost())
        .scheduler(cfg)
        .catalog(VariantCatalog::interleaved(N_MODELS, 16))
        .build()
        .run(&tr)
}

const PIN_ADAPTERS: u64 = 0x812d51545f402841;

/// Adapter serving: plain LoRA r=16 and RoSA(16, 0.01) catalogs on one
/// trace, so the SGMV price and the sparse term of every decode iteration
/// are held.
#[test]
fn lora_and_rosa_runs_are_pinned() {
    let tr = trace(17, 2.0, 60.0);
    let mut pin = Pin::new();
    for spec in [VariantSpec::lora(16), VariantSpec::rosa(16, 0.01)] {
        let m = EngineBuilder::new(cost())
            .catalog(VariantCatalog::from_specs(vec![spec; N_MODELS]))
            .build()
            .run(&tr);
        assert_eq!(m.len(), tr.len());
        pin.metrics(&m);
    }
    check("adapters", pin.0, PIN_ADAPTERS);
}

/// Cluster front end: placement-aware routing exercises the predicted
/// warm-set LRU (`ReplicaFrontendState::warm`) on every decision.
#[test]
fn cluster_run_is_pinned() {
    let tr = trace(13, 2.0, 80.0);
    let weights = PopularityDist::Zipf { alpha: 1.3 }.weights(N_MODELS);
    let plan = PlacementPlan::from_weights(&weights, 4);
    let costs = vec![cost(); 4];
    let router = PlacementAwareRouter::new(plan);
    let config = ClusterConfig {
        n_replicas: 4,
        ..ClusterConfig::default()
    };
    let report = ClusterSim::new(costs, config, Box::new(router)).run(&tr);
    let mut pin = Pin::new();
    pin.metrics(&report.merged);
    pin.word(report.routing.per_replica_requests.iter().sum::<usize>() as u64);
    check("cluster", pin.0, PIN_CLUSTER);
}

// -- Golden outputs of the retired lockstep front end ---------------------

const PIN_LOCKSTEP_RR: u64 = 0xcf3435bc69860017;
const PIN_LOCKSTEP_ADMISSION: u64 = 0xe0110c869f6a93a7;
const PIN_LOCKSTEP_CHAOS: u64 = 0xda4c5cd31868b3bb;
const PIN_LOCKSTEP_CHAOS_TRACED: u64 = 0x2d0ea6ddf266cf71;

/// Runs `sim` on `tr` and checks the report against a lockstep pin.
fn check_cluster(tag: &str, mut sim: ClusterSim, tr: &Trace, pinned: u64) {
    let report = sim.run(tr);
    let mut pin = Pin::new();
    pin.cluster_report(&report);
    check(tag, pin.0, pinned);
}

#[test]
fn plain_round_robin_is_pinned() {
    let tr = trace(31, 3.0, 40.0);
    let sim = ClusterSim::new(
        vec![cost(); 2],
        ClusterConfig {
            n_replicas: 2,
            ..ClusterConfig::default()
        },
        Box::new(RoundRobinRouter::new()),
    );
    check_cluster("lockstep_rr", sim, &tr, PIN_LOCKSTEP_RR);
}

/// The busiest healthy path: placement-aware routing with migrations,
/// routing-time prefetch, and admission control (defer re-pushes ride
/// the same heap as arrivals).
#[test]
fn placement_prefetch_admission_is_pinned() {
    let tr = trace(37, 6.0, 50.0);
    let sim = ClusterSim::new(
        vec![cost(); 3],
        ClusterConfig {
            n_replicas: 3,
            engine: DeltaZipConfig {
                host_capacity_deltas: Some(5),
                ..DeltaZipConfig::default()
            },
            admission: Some(AdmissionConfig {
                defer_depth: 4,
                defer_s: 2.0,
                max_defers: 3,
                shed_depth: 12,
                ..AdmissionConfig::new(SloPolicy::tiered(N_MODELS, 4))
            }),
            prefetch: true,
        },
        Box::new(PlacementAwareRouter::new(PlacementPlan::from_popularity(
            PopularityDist::Zipf { alpha: 1.3 },
            N_MODELS,
            3,
        ))),
    );
    check_cluster("lockstep_admission", sim, &tr, PIN_LOCKSTEP_ADMISSION);
}

/// Replica 0 crashes at 10 s and restarts 8 s later; replica 2 crashes
/// at 25 s for good. A fleet of `n_replicas` keeps only the faults that
/// name one of its replicas: the two-replica pin was taken when an
/// out-of-range crash was silently ignored, and such a plan is now
/// rejected.
fn chaos_config(n_replicas: usize) -> ChaosConfig {
    let crashes = [crash(10.0, 0, Some(8.0)), crash(25.0, 2, None)];
    ChaosConfig::faults(
        FaultPlan::scripted(
            crashes
                .into_iter()
                .filter(
                    |e| matches!(e.kind, FaultKind::Crash { replica, .. } if replica < n_replicas),
                )
                .collect(),
        ),
        0xD1FF,
    )
}

/// Crashes requeue in-flight work and schedule restarts: the
/// chaos-before-arrival tie rule and the re-push ordering are pinned.
#[test]
fn chaos_is_pinned() {
    let tr = trace(41, 4.0, 60.0);
    let sim = ClusterSim::new(
        vec![cost(); 3],
        ClusterConfig {
            n_replicas: 3,
            ..ClusterConfig::default()
        },
        Box::new(RoundRobinRouter::new()),
    )
    .with_chaos(chaos_config(3));
    check_cluster("lockstep_chaos", sim, &tr, PIN_LOCKSTEP_CHAOS);
}

/// Tracing rides the front end (gauges at every arrival) but must not
/// perturb the simulation.
#[test]
fn chaos_with_tracing_is_pinned() {
    let tr = trace(43, 4.0, 60.0);
    let sim = ClusterSim::new(
        vec![cost(); 2],
        ClusterConfig {
            n_replicas: 2,
            ..ClusterConfig::default()
        },
        Box::new(PlacementAwareRouter::new(PlacementPlan::from_popularity(
            PopularityDist::Zipf { alpha: 1.3 },
            N_MODELS,
            2,
        ))),
    )
    .with_chaos(chaos_config(2))
    .with_tracing(TraceConfig::default());
    check_cluster("lockstep_chaos_traced", sim, &tr, PIN_LOCKSTEP_CHAOS_TRACED);
}

// -- Elastic membership: crashes, restarts and autoscaling together -------

const PIN_CLUSTER_ELASTIC: u64 = 0x0b56d6f634ab623f;

fn crash(at: f64, replica: usize, restart_after_s: Option<f64>) -> FaultEvent {
    FaultEvent {
        at,
        kind: FaultKind::Crash {
            replica,
            restart_after_s,
        },
    }
}

/// One cold spare activated at a time and drained again once idle,
/// around a crash that restarts and a crash that does not: every
/// membership rule of the cluster front end at once.
#[test]
fn cluster_elastic_run_is_pinned() {
    let tr = trace(59, 3.0, 60.0);
    let plan = FaultPlan::scripted(vec![crash(12.0, 0, Some(6.0)), crash(30.0, 1, None)]);
    let chaos = ChaosConfig {
        autoscaler: Some(Autoscaler {
            up_backlog_s: 4.0,
            down_backlog_s: 1.0,
            interval_s: 2.0,
            cooldown_s: 4.0,
            ..Autoscaler::new(1, 4)
        }),
        initial_replicas: Some(1),
        ..ChaosConfig::faults(plan, 0xE1A5)
    };
    let mut sim = ClusterSim::new(
        vec![cost(); 4],
        ClusterConfig {
            n_replicas: 4,
            ..ClusterConfig::default()
        },
        Box::new(PlacementAwareRouter::new(PlacementPlan::from_popularity(
            PopularityDist::Zipf { alpha: 1.3 },
            N_MODELS,
            4,
        ))),
    )
    .with_chaos(chaos)
    .with_tracing(TraceConfig::default());
    let report = sim.run(&tr);
    let stats = report.chaos.clone().expect("chaos stats");
    assert_eq!(stats.crashes, 2, "{stats:?}");
    assert!(stats.restarts >= 1, "{stats:?}");
    assert!(stats.scale_ups > 0 && stats.scale_downs > 0, "{stats:?}");
    let mut pin = Pin::new();
    pin.cluster_report(&report);
    let tracks = sim.take_trace();
    assert_eq!(tracks[0].name, "frontend");
    for ev in tracks[0].log.events() {
        let (kind, replica) = match *ev {
            TraceEvent::ReplicaDown { replica, .. } => (1, replica),
            TraceEvent::ReplicaUp { replica, .. } => (2, replica),
            TraceEvent::ScaleUp { replica, .. } => (3, replica),
            TraceEvent::ScaleDown { replica, .. } => (4, replica),
            TraceEvent::Migrate { count, .. } => (5, count),
            TraceEvent::Defer { id, .. } => (6, id),
            TraceEvent::Shed { id, .. } => (7, id),
            TraceEvent::Rollout { model, .. } => (8, model),
            _ => (0, 0),
        };
        pin.word(kind);
        pin.word(replica as u64);
        pin.f64(ev.at());
    }
    check("cluster_elastic", pin.0, PIN_CLUSTER_ELASTIC);
}

/// Six replicas with a four-delta warm cache, recording the event log.
fn recorded_fleet() -> FleetConfig {
    let mut cfg = FleetConfig::new(6);
    cfg.warm_capacity = 4;
    cfg.record_events = true;
    cfg
}

const PIN_FLEET_ROUTERS: u64 = 0xc68d6a258e2e41c2;

/// Round-robin, the hash ring and the global scan on a small fleet,
/// with the whole event log folded.
#[test]
fn fleet_routers_are_pinned() {
    let tr = trace(61, 30.0, 40.0);
    let weights = PopularityDist::Zipf { alpha: 1.3 }.weights(N_MODELS);
    let mut pin = Pin::new();
    let routers: [Box<dyn Router>; 3] = [
        Box::new(RoundRobinRouter::new()),
        Box::new(ConsistentHashRouter::new(16)),
        Box::new(LeastCostRouter::default()),
    ];
    for router in routers {
        let plan = PlacementPlan::from_weights(&weights, 6);
        let report = FleetSim::new(recorded_fleet(), plan, router).run(&tr);
        assert_eq!(report.served, tr.len(), "{}", report.router);
        for e in report.event_log.as_deref().expect("recording enabled") {
            pin.f64(e.at);
            pin.word(e.class as u64);
            pin.word(e.key);
        }
        let f = report.fetches;
        for n in [
            report.served as u64,
            report.warm_hits,
            f.local_disk,
            f.peer_rack,
            f.peer_region,
            f.cross_region,
            f.object_store,
        ] {
            pin.word(n);
        }
        for q in [
            report.mean_e2e_s,
            report.p50_e2e_s,
            report.p99_e2e_s,
            report.max_e2e_s,
        ] {
            pin.f64(q);
        }
    }
    check("fleet_routers", pin.0, PIN_FLEET_ROUTERS);
}

// -- Lone-engine scheduler and swap policies --------------------------------

const PIN_ENGINE_POLICIES: u64 = 0x0c5bdb4e99c83484;

/// Folds a lone engine's per-request floats plus every swap counter, so
/// both the scheduler's choices and the residency bookkeeping are held.
fn engine_fold(pin: &mut Pin, m: &Metrics) {
    pin.metrics(m);
    let s = &m.swap;
    for n in [
        s.demand_loads,
        s.prefetch_issued,
        s.prefetch_completed,
        s.prefetch_hits,
    ] {
        pin.word(n as u64);
    }
    for v in [
        s.load_busy_s,
        s.overlapped_s,
        s.blocked_s,
        s.stall_s,
        s.serialized_stall_s,
    ] {
        pin.f64(v);
    }
    for r in &m.records {
        pin.word(r.preemptions as u64);
    }
}

fn engine_run(runs: &mut Vec<Metrics>, mut engine: DeltaZipEngine, tr: &Trace) -> Metrics {
    let m = engine.run(tr);
    assert_eq!(m.len(), tr.len());
    runs.push(m.clone());
    m
}

fn preemptions(m: &Metrics) -> usize {
    m.records.iter().map(|r| r.preemptions).sum()
}

/// Single `DeltaZipEngine` runs on the synthetic (store-free) path, one per
/// scheduler or swap policy that no cluster or toppings pin reaches on a
/// lone engine: the serialized swap model under a host cap, overlapped
/// runs with each prefetcher, dynamic `N`, SLO
/// priority, length-aware preemption with the oracle and an online
/// quantile, recompute-on-resume, plain FCFS and segregated pools.
#[test]
fn engine_policies_are_pinned() {
    let mut pin = Pin::new();
    for m in &policy_runs() {
        engine_fold(&mut pin, m);
    }
    check("engine_policies", pin.0, PIN_ENGINE_POLICIES);
}

/// The twelve runs both [`engine_policies_are_pinned`] and
/// [`engine_causes_are_pinned`] fold.
fn policy_runs() -> Vec<Metrics> {
    let tr = trace(23, 2.5, 60.0);
    let tight = DeltaZipConfig {
        max_concurrent_deltas: 3,
        max_batch: 16,
        host_capacity_deltas: Some(5),
        ..DeltaZipConfig::default()
    };
    let builder = || EngineBuilder::new(cost()).scheduler(tight);
    let mut runs = Vec::new();

    let serialized = engine_run(
        &mut runs,
        builder()
            .scheduler(DeltaZipConfig {
                overlap_swaps: false,
                ..tight
            })
            .build(),
        &tr,
    );
    assert_eq!(serialized.swap.overlapped_s, 0.0);

    let lookahead = engine_run(
        &mut runs,
        builder()
            .prefetcher(Box::new(QueueLookahead::new(4)))
            .build(),
        &tr,
    );
    assert!(lookahead.swap.prefetch_hits > 0);
    let popularity = engine_run(
        &mut runs,
        builder()
            .prefetcher(Box::new(PopularityPrefetch::new(
                tr.spec.popularity,
                N_MODELS,
                4,
            )))
            .build(),
        &tr,
    );
    assert!(popularity.swap.prefetch_issued > 0);
    engine_run(
        &mut runs,
        builder()
            .prefetcher(Box::new(QueueLookahead::new(2)))
            .build(),
        &tr,
    );

    let controller = DynamicN::new(
        DynamicNConfig {
            min_n: 2,
            max_n: 6,
            ..DynamicNConfig::default()
        },
        3,
    );
    engine_run(&mut runs, builder().dynamic_n(controller).build(), &tr);
    engine_run(
        &mut runs,
        builder().slo(SloPolicy::tiered(N_MODELS, 3)).build(),
        &tr,
    );

    let parent_finish = engine_run(&mut runs, builder().build(), &tr);
    assert!(preemptions(&parent_finish) > 0);
    let length_aware = DeltaZipConfig {
        preemption: PreemptionPolicy::LengthAware { spare_tokens: 16 },
        ..tight
    };
    for estimator in [LengthEstimator::Oracle, LengthEstimator::quantile(0.9)] {
        let m = engine_run(
            &mut runs,
            builder()
                .scheduler(length_aware)
                .estimator(estimator)
                .build(),
            &tr,
        );
        assert!(preemptions(&m) <= preemptions(&parent_finish));
    }

    engine_run(
        &mut runs,
        builder()
            .scheduler(DeltaZipConfig {
                resume: ResumePolicy::Recompute,
                ..tight
            })
            .build(),
        &tr,
    );
    engine_run(
        &mut runs,
        builder()
            .scheduler(DeltaZipConfig {
                skip_the_line: false,
                ..tight
            })
            .build(),
        &tr,
    );
    let segregated = engine_run(
        &mut runs,
        builder()
            .scheduler(DeltaZipConfig {
                segregate_kinds: true,
                ..tight
            })
            .catalog(VariantCatalog::interleaved(N_MODELS, 16))
            .build(),
        &tr,
    );
    assert_eq!(segregated.toppings.mixed_batches, 0);
    runs
}

const PIN_ENGINE_CAUSES: u64 = 0x3071433f88f8ce9c;

/// Every per-request cause ledger of the twelve policy runs plus the
/// toppings run. The scheduler splits a request's waiting time between
/// first admission (`queue_s`) and re-admission after a preemption
/// (`preempt_s`); the other pins fold only the totals, so only this one
/// holds that split.
#[test]
fn engine_causes_are_pinned() {
    let mut pin = Pin::new();
    let toppings = toppings_run();
    for m in policy_runs().iter().chain([&toppings]) {
        pin.word(m.len() as u64);
        for r in &m.records {
            pin.word(r.id as u64);
            for v in r.causes.as_array() {
                pin.f64(v);
            }
        }
    }
    check("engine_causes", pin.0, PIN_ENGINE_CAUSES);
}
