//! Serving engines over the GPU performance model.
//!
//! Two engines reproduce the paper's comparison points:
//!
//! * [`deltazip::DeltaZipEngine`] — the paper's system: base model resident,
//!   compressed deltas swapped on demand, requests across variants batched
//!   into shared base GEMMs plus SBMM delta products, iteration-level
//!   (continuous) batching, FCFS with skip-the-line plus parent-finish
//!   preemption, and a cap of `N` concurrent deltas. Over an all-adapter
//!   [`variant::VariantCatalog`] it is Punica/S-LoRA-style adapter
//!   serving: adapters are tiny, all resident, everything batches,
//! * [`vllm_scb::VllmScbEngine`] — the baseline the paper builds (vLLM +
//!   Swapping, Continuous batching, same-model Batching): full FP16 models
//!   swapped whole, batching only within one model.
//!
//! Both engines consume the same [`dz_workload::Trace`]s and emit the same
//! [`metrics::Metrics`], so every figure is an apples-to-apples sweep.
//!
//! Above the single-node engines, [`cluster`] scales the system out:
//! [`cluster::ClusterSim`] replays a trace across many replicas behind a
//! pluggable [`cluster::Router`] (round-robin, least-loaded, or
//! placement-aware routing over each replica's delta warm set), with
//! popularity-driven delta replication and SLO-aware admission control.
//!
//! The unified entry point is [`builder::EngineBuilder`]: register each
//! model's [`variant::VariantKind`] (base, LoRA or RoSA, delta, or stacked) in a
//! [`variant::VariantCatalog`] and one [`deltazip::DeltaZipEngine`] serves
//! the heterogeneous mix in shared "toppings" batches.

#![warn(missing_docs)]

pub mod builder;
pub mod chaos;
pub mod cluster;
pub mod cost;
pub mod deltazip;
pub mod fleet;
pub mod metrics;
mod planner;
pub mod policy;
pub mod predictor;
pub mod request;
pub mod slo;
pub mod swap;
pub mod tuning;
pub mod variant;
pub mod vllm_scb;

pub use builder::EngineBuilder;
pub use chaos::{Autoscaler, ChaosConfig, ChaosStats, FaultEvent, FaultKind, FaultPlan, Rollout};
pub use cluster::{
    AdmissionConfig, ClusterConfig, ClusterReport, ClusterSim, ConsistentHashRouter,
    LeastCostRouter, LeastLoadedRouter, PlacementAwareRouter, PlacementPlan, PowerOfTwoRouter,
    PrefetchHint, ReplicaView, ReplicaViews, RoundRobinRouter, Router, RoutingStats, ShedRecord,
    ViewSlice,
};
pub use cost::{CostModel, ToppingsIterCost};
pub use deltazip::{DeltaZipConfig, DeltaZipEngine};
pub use fleet::{FetchCounts, FetchTier, FleetConfig, FleetLogEntry, FleetReport, FleetSim};
pub use metrics::{Metrics, SloWindow, SwapStats, ToppingsStats};
pub use policy::{PreemptionPolicy, ResumePolicy};
pub use predictor::LengthEstimator;
pub use slo::{SloClass, SloPolicy};
pub use swap::{LoadProfile, PopularityPrefetch, Prefetcher, QueueLookahead, TransferTimeline};
pub use variant::{VariantCatalog, VariantKind, VariantSpec};
pub use vllm_scb::{VllmScbConfig, VllmScbEngine};
// Tracing surface: re-exported so engine users configure/consume traces
// without naming `dz_trace` directly.
pub use dz_trace::{
    chrome_trace_json, write_chrome_trace, AttributedRequest, CauseBreakdown, Causes, ToppingKind,
    TraceConfig, TraceEvent, TraceLog, TraceTrack, Tracer, CAUSE_NAMES,
};

/// A serving engine that can replay a trace.
pub trait Engine {
    /// Human-readable engine label for tables.
    fn label(&self) -> String;
    /// Replays the trace to completion and returns per-request metrics.
    fn run(&mut self, trace: &dz_workload::Trace) -> Metrics;
}
