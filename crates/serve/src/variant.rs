//! The variant abstraction: one taxonomy for everything the engine can
//! serve.
//!
//! DeltaZip's delta path and the Punica/S-LoRA adapter path historically
//! lived behind two disjoint engines. [`VariantKind`] names the four ways
//! a request can differ from the shared base model, [`VariantSpec`] /
//! [`VariantCatalog`] register which kind each model id is, and the
//! unified [`DeltaZipEngine`](crate::deltazip::DeltaZipEngine) packs any
//! mix of them into one "toppings" batch (the Scratchpad exemplar's
//! `--enable-toppings`): delta requests dispatch through SBMM, LoRA
//! through SGMV, stacked through both.
//!
//! The warmth asymmetry is the whole point of unifying them: adapters are
//! megabytes and effectively always resident, deltas are gigabytes and
//! placement-critical. A catalog lets every residency consumer (swap
//! timeline, prefetchers, placement-aware routing) see both through one
//! interface — [`VariantKind::needs_delta`] gates the expensive machinery.

use dz_trace::ToppingKind;
use serde::Serialize;

/// How a served variant differs from the shared base model.
///
/// ```
/// use dz_serve::VariantKind;
/// let stacked = VariantKind::Stacked { rank: 16 };
/// assert!(stacked.needs_delta() && stacked.adapter_rank() == Some(16));
/// assert!(!VariantKind::Base.is_topping());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum VariantKind {
    /// The base model itself: no extra kernel work, no residency cost.
    Base,
    /// A low-rank adapter of the given rank, served through SGMV (LoRA,
    /// or RoSA when its [`VariantSpec`] carries a sparse density).
    Lora {
        /// Adapter rank (e.g. 16).
        rank: usize,
    },
    /// A compressed full-model delta, served through SBMM.
    Delta,
    /// A delta with a rank-`rank` adapter stacked on top: the request
    /// pays both the SBMM and the SGMV product each iteration and needs
    /// the delta resident.
    Stacked {
        /// Rank of the stacked adapter.
        rank: usize,
    },
}

impl Default for VariantKind {
    /// Delta: what every legacy (catalog-free) trace model is.
    fn default() -> Self {
        VariantKind::Delta
    }
}

impl VariantKind {
    /// Whether this kind requires its compressed delta GPU-resident —
    /// i.e. participates in the swap/prefetch/placement machinery.
    pub fn needs_delta(self) -> bool {
        matches!(self, VariantKind::Delta | VariantKind::Stacked { .. })
    }

    /// Adapter rank, for kinds that carry one.
    pub fn adapter_rank(self) -> Option<usize> {
        match self {
            VariantKind::Lora { rank } | VariantKind::Stacked { rank } => Some(rank),
            VariantKind::Base | VariantKind::Delta => None,
        }
    }

    /// Whether the kind is a topping at all (anything but `Base`) and so
    /// counts against `max_toppings_per_batch`.
    pub fn is_topping(self) -> bool {
        !matches!(self, VariantKind::Base)
    }

    /// The trace-level tag for this kind (dz-trace cannot depend on
    /// dz-serve, so trace events carry this reduced enum).
    pub fn topping_kind(self) -> ToppingKind {
        match self {
            VariantKind::Base => ToppingKind::Base,
            VariantKind::Lora { .. } => ToppingKind::Lora,
            VariantKind::Delta => ToppingKind::Delta,
            VariantKind::Stacked { .. } => ToppingKind::Stacked,
        }
    }

    /// Stable lowercase label for tables and JSON.
    pub fn label(self) -> &'static str {
        self.topping_kind().label()
    }
}

/// Registration record for one servable variant.
///
/// ```
/// use dz_serve::{VariantKind, VariantSpec};
/// assert_eq!(VariantSpec::lora(8).kind, VariantKind::Lora { rank: 8 });
/// assert_eq!(VariantSpec::rosa(8, 0.01).kind, VariantKind::Lora { rank: 8 });
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct VariantSpec {
    /// What kind of variant this is.
    pub kind: VariantKind,
    /// Density of a RoSA adapter's unstructured sparse component
    /// (fraction of non-zeros per adapted projection); `0.0` for every
    /// other variant. Private so that only [`rosa`](Self::rosa), which
    /// checks it, can set it.
    sparse_density: f64,
}

impl VariantSpec {
    fn of(kind: VariantKind) -> Self {
        VariantSpec {
            kind,
            sparse_density: 0.0,
        }
    }

    /// The base model itself.
    pub fn base() -> Self {
        Self::of(VariantKind::Base)
    }

    /// A rank-`rank` LoRA adapter.
    pub fn lora(rank: usize) -> Self {
        Self::of(VariantKind::Lora { rank })
    }

    /// A rank-`rank` RoSA adapter (§8): a LoRA pair plus an unstructured
    /// sparse component of the given density, which LoRA-only systems
    /// cannot host. It serves through SGMV like LoRA, and the sparse part
    /// adds weight traffic and a gather-SpMM to every iteration. Density 0
    /// is plain LoRA.
    ///
    /// # Panics
    ///
    /// Panics if `sparse_density` is not in `[0, 1]`.
    pub fn rosa(rank: usize, sparse_density: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&sparse_density),
            "RoSA density {sparse_density} must lie in [0, 1]"
        );
        VariantSpec {
            kind: VariantKind::Lora { rank },
            sparse_density,
        }
    }

    /// A compressed full-model delta.
    pub fn delta() -> Self {
        Self::of(VariantKind::Delta)
    }

    /// A delta with a rank-`rank` adapter stacked on it.
    pub fn stacked(rank: usize) -> Self {
        Self::of(VariantKind::Stacked { rank })
    }
}

/// Maps trace model ids to variant kinds.
///
/// Model id `i` in a [`dz_workload::Trace`] is served as `specs[i]`; ids
/// beyond the catalog default to [`VariantKind::Delta`], so a legacy
/// delta-only trace runs unchanged against any engine.
///
/// ```
/// use dz_serve::{VariantCatalog, VariantKind, VariantSpec};
/// let cat = VariantCatalog::from_specs(vec![VariantSpec::base(), VariantSpec::lora(16)]);
/// assert_eq!(cat.kind_of(1), VariantKind::Lora { rank: 16 });
/// assert_eq!(cat.kind_of(99), VariantKind::Delta); // unknown ids stay delta
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct VariantCatalog {
    specs: Vec<VariantSpec>,
}

impl VariantCatalog {
    /// Builds a catalog from per-model specs (index = trace model id).
    pub fn from_specs(specs: Vec<VariantSpec>) -> Self {
        VariantCatalog { specs }
    }

    /// A heterogeneous mix cycling lora/delta/stacked across `n` models
    /// (model 0 is the base) — the bench-toppings variant pool.
    pub fn interleaved(n: usize, rank: usize) -> Self {
        let specs = (0..n)
            .map(|i| {
                if i == 0 {
                    VariantSpec::base()
                } else {
                    match i % 3 {
                        1 => VariantSpec::lora(rank),
                        2 => VariantSpec::delta(),
                        _ => VariantSpec::stacked(rank),
                    }
                }
            })
            .collect();
        VariantCatalog { specs }
    }

    /// Kind of trace model `model`; ids beyond the catalog are deltas.
    pub fn kind_of(&self, model: usize) -> VariantKind {
        self.specs.get(model).map_or(VariantKind::Delta, |s| s.kind)
    }

    /// Largest adapter rank in the catalog (0 when no variant carries
    /// one) — the rank the SGMV cost term prices mixed batches at.
    pub fn max_adapter_rank(&self) -> usize {
        self.specs
            .iter()
            .filter_map(|s| s.kind.adapter_rank())
            .max()
            .unwrap_or(0)
    }

    /// Sparse density of trace model `model` (0 for all but RoSA).
    pub fn sparse_density_of(&self, model: usize) -> f64 {
        self.specs.get(model).map_or(0.0, |s| s.sparse_density)
    }

    /// Largest RoSA sparse density in the catalog (0 when no variant
    /// carries one) — the density the sparse cost term prices mixed
    /// batches at, as SGMV prices them at
    /// [`max_adapter_rank`](Self::max_adapter_rank).
    pub fn max_sparse_density(&self) -> f64 {
        self.specs
            .iter()
            .map(|s| s.sparse_density)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_predicates() {
        assert!(VariantKind::Delta.needs_delta());
        assert!(VariantKind::Stacked { rank: 4 }.needs_delta());
        assert!(!VariantKind::Lora { rank: 4 }.needs_delta());
        assert!(!VariantKind::Base.needs_delta());
        assert_eq!(VariantKind::Lora { rank: 4 }.adapter_rank(), Some(4));
        assert_eq!(VariantKind::Delta.adapter_rank(), None);
        assert!(!VariantKind::Base.is_topping());
        assert!(VariantKind::Lora { rank: 4 }.is_topping());
        assert_eq!(VariantKind::Stacked { rank: 4 }.label(), "stacked");
    }

    #[test]
    fn catalog_defaults_unknown_ids_to_delta() {
        let cat = VariantCatalog::from_specs(vec![VariantSpec::base(), VariantSpec::lora(8)]);
        assert_eq!(cat.kind_of(0), VariantKind::Base);
        assert_eq!(cat.kind_of(1), VariantKind::Lora { rank: 8 });
        assert_eq!(cat.kind_of(2), VariantKind::Delta);
        assert_eq!(VariantCatalog::default().kind_of(0), VariantKind::Delta);
    }

    #[test]
    fn interleaved_cycles_kinds_with_base_first() {
        let cat = VariantCatalog::interleaved(7, 16);
        assert_eq!(cat.kind_of(0), VariantKind::Base);
        assert_eq!(cat.kind_of(1), VariantKind::Lora { rank: 16 });
        assert_eq!(cat.kind_of(2), VariantKind::Delta);
        assert_eq!(cat.kind_of(3), VariantKind::Stacked { rank: 16 });
        assert_eq!(cat.kind_of(4), VariantKind::Lora { rank: 16 });
        assert_eq!(cat.max_adapter_rank(), 16);
    }
}
