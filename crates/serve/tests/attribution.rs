//! Attribution and tracing invariants of the DeltaZip engine.
//!
//! * Every finished request's cause ledger (queue / own-delta stall /
//!   contention / decode / preempt) telescopes to its end-to-end latency
//!   to within 1e-9, across arbitrary engine configurations.
//! * Enabling tracing is a metrics no-op: a traced run produces
//!   bit-identical metrics to an untraced one.
//! * Cluster-level swap aggregation is a field-wise sum of the replica
//!   stats, with rate fields recomputed from the pooled numerators.

use dz_gpusim::shapes::ModelShape;
use dz_gpusim::spec::NodeSpec;
use dz_serve::cluster::{ClusterConfig, ClusterSim, LeastLoadedRouter};
use dz_serve::swap::{PopularityPrefetch, QueueLookahead};
use dz_serve::{CostModel, DeltaZipConfig, Engine, EngineBuilder, Metrics, TraceConfig};
use dz_workload::{PopularityDist, Trace, TraceSpec};
use proptest::prelude::*;
use serde::Serialize;

const N_MODELS: usize = 12;

fn trace(rate: f64, alpha: f64, seed: u64) -> Trace {
    Trace::generate(TraceSpec {
        n_models: N_MODELS,
        arrival_rate: rate,
        duration_s: 30.0,
        popularity: PopularityDist::Zipf { alpha },
        seed,
    })
}

/// Builds the engine for one sampled configuration. `prefetcher`: 0 =
/// none, 1 = queue-lookahead, 2 = popularity.
fn builder(overlap: bool, host_cap: Option<usize>, prefetcher: u8, alpha: f64) -> EngineBuilder {
    let cost = CostModel::new(NodeSpec::rtx3090_node(1), ModelShape::llama7b());
    let config = DeltaZipConfig {
        max_concurrent_deltas: 2,
        max_batch: 16,
        host_capacity_deltas: host_cap,
        overlap_swaps: overlap,
        ..DeltaZipConfig::default()
    };
    let b = EngineBuilder::new(cost).scheduler(config);
    match prefetcher {
        1 => b.prefetcher(Box::new(QueueLookahead::new(4))),
        2 => b.prefetcher(Box::new(PopularityPrefetch::new(
            PopularityDist::Zipf { alpha },
            N_MODELS,
            4,
        ))),
        _ => b,
    }
}

fn assert_causes_telescope(m: &Metrics) {
    assert!(!m.is_empty(), "engine must finish requests");
    for r in &m.records {
        let sum = r.causes.total();
        assert!(
            (sum - r.e2e_s).abs() < 1e-9,
            "request {}: causes sum {} != e2e {} (ledger {:?})",
            r.id,
            sum,
            r.e2e_s,
            r.causes
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole invariant: attributed causes partition e2e exactly
    /// (to within accumulated float noise) for arbitrary engine runs.
    #[test]
    fn causes_sum_to_e2e(
        rate in 0.3f64..2.0,
        alpha in 0.5f64..1.8,
        seed in any::<u32>(),
        overlap in any::<bool>(),
        host_cap in 0usize..8,
        prefetcher in 0u8..3,
    ) {
        // host_cap 0 samples the unbounded host cache.
        let host_cap = (host_cap > 0).then_some(host_cap);
        let t = trace(rate, alpha, seed as u64);
        let m = builder(overlap, host_cap, prefetcher, alpha).build().run(&t);
        assert_causes_telescope(&m);
    }
}

#[test]
fn tracing_off_and_on_produce_identical_metrics() {
    // Overlapped and serialized paths instrument different code; both
    // must be unperturbed by tracing (asserted bit-for-bit through the
    // serialized metrics tree).
    for overlap in [true, false] {
        let t = trace(1.2, 1.2, 0x7ACE);
        let plain = builder(overlap, Some(4), 1, 1.2).build().run(&t);
        let mut traced_engine = builder(overlap, Some(4), 1, 1.2)
            .tracing(TraceConfig::default())
            .build();
        let traced = traced_engine.run(&t);
        assert!(
            traced_engine
                .tracer
                .take_log()
                .is_some_and(|l| !l.is_empty()),
            "traced run must record events"
        );
        assert_eq!(
            plain.to_value().to_json(),
            traced.to_value().to_json(),
            "tracing must not perturb metrics (overlap={overlap})"
        );
    }
}

#[test]
fn cluster_swap_stats_are_fieldwise_sums_of_replicas() {
    let cost = CostModel::new(NodeSpec::rtx3090_node(1), ModelShape::llama7b());
    let config = ClusterConfig {
        n_replicas: 3,
        engine: DeltaZipConfig {
            max_concurrent_deltas: 2,
            max_batch: 16,
            host_capacity_deltas: Some(4),
            ..DeltaZipConfig::default()
        },
        ..ClusterConfig::default()
    };
    let mut sim = ClusterSim::new(vec![cost; 3], config, Box::new(LeastLoadedRouter::new()));
    let report = sim.run(&trace(1.8, 1.2, 0xC1A5));

    let merged = &report.merged.swap;
    let sum_usize = |f: fn(&dz_serve::SwapStats) -> usize| -> usize {
        report.per_replica.iter().map(|m| f(&m.swap)).sum()
    };
    let sum_f64 = |f: fn(&dz_serve::SwapStats) -> f64| -> f64 {
        report.per_replica.iter().map(|m| f(&m.swap)).sum()
    };
    assert!(merged.demand_loads > 0, "run must swap");
    assert_eq!(merged.demand_loads, sum_usize(|s| s.demand_loads));
    assert_eq!(merged.prefetch_issued, sum_usize(|s| s.prefetch_issued));
    assert_eq!(
        merged.prefetch_completed,
        sum_usize(|s| s.prefetch_completed)
    );
    assert_eq!(merged.prefetch_hits, sum_usize(|s| s.prefetch_hits));
    for (got, want) in [
        (merged.load_busy_s, sum_f64(|s| s.load_busy_s)),
        (merged.overlapped_s, sum_f64(|s| s.overlapped_s)),
        (merged.blocked_s, sum_f64(|s| s.blocked_s)),
        (merged.stall_s, sum_f64(|s| s.stall_s)),
        (merged.serialized_stall_s, sum_f64(|s| s.serialized_stall_s)),
    ] {
        assert!((got - want).abs() < 1e-9, "{got} != {want}");
    }
    // The rate field is recomputed from the pooled numerators — NOT an
    // average of per-replica fractions.
    let pooled = dz_trace::stats::ratio_or(merged.overlapped_s, merged.load_busy_s, 0.0);
    assert!((merged.overlap_fraction() - pooled).abs() < 1e-12);

    // Cluster-merged records keep the telescoping invariant (deferral
    // delay is folded into both e2e and the queue cause).
    assert_causes_telescope(&report.merged);
}
