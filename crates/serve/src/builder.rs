//! One typed construction surface for the DeltaZip engine.
//!
//! [`EngineBuilder`] replaces per-engine `with_*` construction chains:
//! declare the cost model, the scheduler knobs, the variant catalog, and the
//! optional tracing/prefetch/policy attachments in one place, then
//! [`build`](EngineBuilder::build) the unified toppings engine. An
//! all-adapter catalog makes it the Punica-style adapter baseline.

use crate::cost::CostModel;
use crate::deltazip::{DeltaZipConfig, DeltaZipEngine};
use crate::predictor::LengthEstimator;
use crate::slo::SloPolicy;
use crate::swap::Prefetcher;
use crate::tuning::DynamicN;
use crate::variant::VariantCatalog;
use dz_trace::{TraceConfig, Tracer};

/// Builder for serving engines over one [`CostModel`].
///
/// A catalog of base, LoRA, delta and stacked models served by one
/// continuous batch: delta requests dispatch through SBMM, adapters
/// through SGMV.
///
/// ```
/// use dz_gpusim::shapes::ModelShape;
/// use dz_gpusim::spec::NodeSpec;
/// use dz_serve::{CostModel, DeltaZipConfig, Engine, EngineBuilder, VariantCatalog};
/// use dz_workload::{PopularityDist, Trace, TraceSpec};
///
/// let cost = CostModel::new(NodeSpec::a800_node(4), ModelShape::llama13b());
/// let mut engine = EngineBuilder::new(cost)
///     .scheduler(DeltaZipConfig {
///         max_toppings_per_batch: Some(4),
///         ..DeltaZipConfig::default()
///     })
///     .catalog(VariantCatalog::interleaved(6, 16))
///     .build();
/// assert!(engine.catalog.is_some());
/// let trace = Trace::generate(TraceSpec {
///     n_models: 6,
///     arrival_rate: 1.0,
///     duration_s: 10.0,
///     popularity: PopularityDist::Zipf { alpha: 1.5 },
///     seed: 7,
/// });
/// let metrics = engine.run(&trace);
/// assert_eq!(metrics.len(), trace.len());
/// assert_eq!(metrics.toppings.total_reqs(), trace.len());
/// ```
pub struct EngineBuilder {
    cost: CostModel,
    scheduler: DeltaZipConfig,
    catalog: Option<VariantCatalog>,
    tracing: Option<TraceConfig>,
    prefetcher: Option<Box<dyn Prefetcher>>,
    slo: Option<SloPolicy>,
    estimator: Option<LengthEstimator>,
    dynamic_n: Option<DynamicN>,
}

impl EngineBuilder {
    /// Starts a builder with the default scheduler settings.
    pub fn new(cost: CostModel) -> Self {
        EngineBuilder {
            cost,
            scheduler: DeltaZipConfig::default(),
            catalog: None,
            tracing: None,
            prefetcher: None,
            slo: None,
            estimator: None,
            dynamic_n: None,
        }
    }

    /// Sets the DeltaZip scheduler configuration (batch caps, strategy,
    /// preemption/resume policies, swap overlap, toppings caps).
    pub fn scheduler(mut self, config: DeltaZipConfig) -> Self {
        self.scheduler = config;
        self
    }

    /// Installs the variant catalog: model id `i` is served as the
    /// catalog's `i`-th spec.
    pub fn catalog(mut self, catalog: VariantCatalog) -> Self {
        self.catalog = Some(catalog);
        self
    }

    /// Enables structured simulation-clock tracing.
    pub fn tracing(mut self, config: TraceConfig) -> Self {
        self.tracing = Some(config);
        self
    }

    /// Enables predictive disk→host delta prefetch.
    pub fn prefetcher(mut self, prefetcher: Box<dyn Prefetcher>) -> Self {
        self.prefetcher = Some(prefetcher);
        self
    }

    /// Enables SLO-priority queue scanning.
    pub fn slo(mut self, policy: SloPolicy) -> Self {
        self.slo = Some(policy);
        self
    }

    /// Replaces the output-length estimator.
    pub fn estimator(mut self, estimator: LengthEstimator) -> Self {
        self.estimator = Some(estimator);
        self
    }

    /// Enables online `N` tuning.
    pub fn dynamic_n(mut self, controller: DynamicN) -> Self {
        self.dynamic_n = Some(controller);
        self
    }

    /// Builds the unified toppings engine: one [`DeltaZipEngine`] serving
    /// base, LoRA, delta, and stacked variants per the catalog (no catalog
    /// means every model is a delta — the legacy behavior).
    pub fn build(self) -> DeltaZipEngine {
        let mut engine = DeltaZipEngine::new(self.cost, self.scheduler);
        engine.catalog = self.catalog;
        engine.prefetcher = self.prefetcher;
        engine.slo_policy = self.slo;
        engine.dynamic_n = self.dynamic_n;
        if let Some(estimator) = self.estimator {
            engine.estimator = estimator;
        }
        if let Some(config) = self.tracing {
            engine.tracer = Tracer::enabled(config);
        }
        engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variant::{VariantKind, VariantSpec};
    use dz_gpusim::shapes::ModelShape;
    use dz_gpusim::spec::NodeSpec;

    fn cost() -> CostModel {
        CostModel::new(NodeSpec::a800_node(4), ModelShape::llama13b())
    }

    #[test]
    fn build_defaults_match_legacy_constructor() {
        let built = EngineBuilder::new(cost()).build();
        let legacy = DeltaZipEngine::new(cost(), DeltaZipConfig::default());
        assert_eq!(built.config.max_batch, legacy.config.max_batch);
        assert!(built.catalog.is_none());
    }

    #[test]
    fn rosa_variant_carries_its_density() {
        let e = EngineBuilder::new(cost())
            .catalog(VariantCatalog::from_specs(vec![
                VariantSpec::lora(16),
                VariantSpec::rosa(8, 0.01),
            ]))
            .build();
        let cat = e.catalog.expect("catalog registered");
        assert_eq!(cat.kind_of(1), VariantKind::Lora { rank: 8 });
        assert_eq!(cat.sparse_density_of(0), 0.0);
        assert_eq!(cat.sparse_density_of(1), 0.01);
        assert_eq!(cat.max_sparse_density(), 0.01);
    }

    #[test]
    fn toppings_cap_lands_in_scheduler_config() {
        let e = EngineBuilder::new(cost())
            .scheduler(DeltaZipConfig {
                max_toppings_per_batch: Some(3),
                segregate_kinds: true,
                ..DeltaZipConfig::default()
            })
            .build();
        assert_eq!(e.config.max_toppings_per_batch, Some(3));
        assert!(e.config.segregate_kinds);
    }
}
