//! Differential oracle for the unified toppings engine: with an
//! all-`Delta` catalog the variant-aware scheduler must reproduce the
//! legacy delta-only `DeltaZipEngine` **bit-identically** on every
//! scheduling configuration — the catalog filters, the toppings cap, and
//! the mixed-kind kernel costing all have to degenerate to the exact
//! legacy code path when every model is a delta.
//!
//! Property tests then pin the mixed-kind invariants: packing never
//! exceeds `max_toppings_per_batch`, per-kind request accounting sums to
//! the trace total, and segregated pools never co-batch delta-backed and
//! pure-LoRA toppings.

use dz_gpusim::kernel::BatchedImpl;
use dz_gpusim::shapes::ModelShape;
use dz_gpusim::spec::NodeSpec;
use dz_serve::{
    CostModel, DeltaZipConfig, DeltaZipEngine, Engine, EngineBuilder, Metrics, PreemptionPolicy,
    ResumePolicy, VariantCatalog, VariantKind, VariantSpec,
};
use dz_workload::{PopularityDist, Trace, TraceSpec};
use proptest::prelude::*;

const N_MODELS: usize = 16;

fn cost() -> CostModel {
    CostModel::new(NodeSpec::a800_node(4), ModelShape::llama13b())
}

fn trace(seed: u64, rate: f64) -> Trace {
    Trace::generate(TraceSpec {
        n_models: N_MODELS,
        arrival_rate: rate,
        duration_s: 40.0,
        popularity: PopularityDist::Zipf { alpha: 1.3 },
        seed,
    })
}

/// Asserts two runs are the same simulation, down to the bit on every
/// per-request float, plus identical swap and toppings accounting.
fn assert_same_metrics(a: &Metrics, b: &Metrics, tag: &str) {
    assert_eq!(a.len(), b.len(), "{tag}: record count");
    assert_eq!(
        a.makespan_s.to_bits(),
        b.makespan_s.to_bits(),
        "{tag}: makespan {} vs {}",
        a.makespan_s,
        b.makespan_s
    );
    for (ra, rb) in a.records.iter().zip(&b.records) {
        assert_eq!(ra.id, rb.id, "{tag}: record id");
        assert_eq!(ra.model, rb.model, "{tag}: model of {}", ra.id);
        assert_eq!(
            ra.arrival.to_bits(),
            rb.arrival.to_bits(),
            "{tag}: arrival of {}",
            ra.id
        );
        assert_eq!(
            ra.e2e_s.to_bits(),
            rb.e2e_s.to_bits(),
            "{tag}: e2e of {} ({} vs {})",
            ra.id,
            ra.e2e_s,
            rb.e2e_s
        );
        assert_eq!(
            ra.ttft_s.to_bits(),
            rb.ttft_s.to_bits(),
            "{tag}: ttft of {}",
            ra.id
        );
        assert_eq!(
            ra.queue_s.to_bits(),
            rb.queue_s.to_bits(),
            "{tag}: queue of {}",
            ra.id
        );
        assert_eq!(
            ra.load_s.to_bits(),
            rb.load_s.to_bits(),
            "{tag}: load of {}",
            ra.id
        );
        assert_eq!(
            ra.output_tokens, rb.output_tokens,
            "{tag}: tokens of {}",
            ra.id
        );
        assert_eq!(
            ra.preemptions, rb.preemptions,
            "{tag}: preemptions of {}",
            ra.id
        );
    }
    assert_eq!(a.swap.demand_loads, b.swap.demand_loads, "{tag}: loads");
    assert_eq!(
        a.swap.stall_s.to_bits(),
        b.swap.stall_s.to_bits(),
        "{tag}: swap stall"
    );
    assert_eq!(a.toppings.batches, b.toppings.batches, "{tag}: batches");
    assert_eq!(
        a.toppings.sbmm_s.to_bits(),
        b.toppings.sbmm_s.to_bits(),
        "{tag}: sbmm seconds"
    );
    assert_eq!(
        a.toppings.base_gemm_s.to_bits(),
        b.toppings.base_gemm_s.to_bits(),
        "{tag}: base GEMM seconds"
    );
}

/// Runs `config` through the legacy constructor (no catalog) and through
/// the builder with an explicit all-delta catalog; the reports must match
/// bit for bit.
fn differential(tag: &str, tr: &Trace, config: DeltaZipConfig) {
    let legacy = DeltaZipEngine::new(cost(), config).run(tr);
    let unified = EngineBuilder::new(cost())
        .scheduler(config)
        .catalog(VariantCatalog::from_specs(vec![
            VariantSpec::delta();
            N_MODELS
        ]))
        .build()
        .run(tr);
    assert_same_metrics(&legacy, &unified, tag);
    // The legacy engine stamps every request `Delta` by default, so even
    // the per-kind tallies must agree.
    assert_eq!(
        legacy.toppings.delta_reqs, unified.toppings.delta_reqs,
        "{tag}: delta request tally"
    );
    assert_eq!(unified.toppings.delta_reqs, tr.len(), "{tag}: all delta");
    assert_eq!(unified.toppings.mixed_batches, 0, "{tag}: no mixed batches");
}

#[test]
fn all_delta_catalog_matches_legacy_default_config() {
    let tr = trace(71, 2.0);
    differential("default", &tr, DeltaZipConfig::default());
}

#[test]
fn all_delta_catalog_matches_legacy_across_policies() {
    let tr = trace(73, 3.0);
    for (tag, config) in [
        (
            "fcfs",
            DeltaZipConfig {
                skip_the_line: false,
                ..DeltaZipConfig::default()
            },
        ),
        (
            "never-preempt",
            DeltaZipConfig {
                preemption: PreemptionPolicy::Never,
                ..DeltaZipConfig::default()
            },
        ),
        (
            "length-aware",
            DeltaZipConfig {
                preemption: PreemptionPolicy::LengthAware { spare_tokens: 8 },
                resume: ResumePolicy::Recompute,
                ..DeltaZipConfig::default()
            },
        ),
        (
            "serialized-swaps",
            DeltaZipConfig {
                overlap_swaps: false,
                ..DeltaZipConfig::default()
            },
        ),
        (
            "tight",
            DeltaZipConfig {
                max_concurrent_deltas: 2,
                max_batch: 8,
                host_capacity_deltas: Some(4),
                ..DeltaZipConfig::default()
            },
        ),
        (
            "sbmm-base",
            DeltaZipConfig {
                strategy: BatchedImpl::Sbmm,
                ..DeltaZipConfig::default()
            },
        ),
    ] {
        differential(tag, &tr, config);
    }
}

#[test]
fn unbinding_toppings_cap_is_a_no_op_for_all_delta() {
    // A cap at least as large as the model count can never bind, so the
    // capped run must still be bit-identical to the uncapped legacy run.
    let tr = trace(79, 2.5);
    differential(
        "cap-unbound",
        &tr,
        DeltaZipConfig {
            max_toppings_per_batch: Some(N_MODELS),
            ..DeltaZipConfig::default()
        },
    );
}

// -- mixed-kind properties -------------------------------------------------

fn mixed_metrics(seed: u64, rate: f64, cap: Option<usize>, segregate: bool) -> (Trace, Metrics) {
    let tr = trace(seed, rate);
    let m = EngineBuilder::new(cost())
        .scheduler(DeltaZipConfig {
            max_toppings_per_batch: cap,
            segregate_kinds: segregate,
            ..DeltaZipConfig::default()
        })
        .catalog(VariantCatalog::interleaved(N_MODELS, 16))
        .build()
        .run(&tr);
    (tr, m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn mixed_packing_never_exceeds_toppings_cap(
        seed in any::<u64>(),
        rate in 0.5f64..3.0,
        cap in 1usize..6,
        segregate in any::<bool>(),
    ) {
        let (tr, m) = mixed_metrics(seed, rate, Some(cap), segregate);
        prop_assert_eq!(m.len(), tr.len());
        prop_assert!(
            m.toppings.max_toppings_in_batch <= cap,
            "observed {} distinct toppings under cap {}",
            m.toppings.max_toppings_in_batch,
            cap
        );
    }

    #[test]
    fn per_kind_tallies_sum_to_trace_total(
        seed in any::<u64>(),
        rate in 0.5f64..3.0,
        cap in prop_oneof![Just(None), (1usize..6).prop_map(Some)],
    ) {
        let (tr, m) = mixed_metrics(seed, rate, cap, false);
        prop_assert_eq!(m.toppings.total_reqs(), tr.len());
        // Each kind's tally equals the catalog-derived request count.
        let catalog = VariantCatalog::interleaved(N_MODELS, 16);
        let count = |pred: fn(VariantKind) -> bool| {
            tr.requests.iter().filter(|r| pred(catalog.kind_of(r.model))).count()
        };
        prop_assert_eq!(
            m.toppings.base_reqs,
            count(|k| matches!(k, VariantKind::Base))
        );
        prop_assert_eq!(
            m.toppings.lora_reqs,
            count(|k| matches!(k, VariantKind::Lora { .. }))
        );
        prop_assert_eq!(
            m.toppings.delta_reqs,
            count(|k| matches!(k, VariantKind::Delta))
        );
        prop_assert_eq!(
            m.toppings.stacked_reqs,
            count(|k| matches!(k, VariantKind::Stacked { .. }))
        );
        // Kernel charges decompose: every batch paid base GEMM, and the
        // mixed pool exercised both topping kernels somewhere.
        let t = &m.toppings;
        prop_assert!(t.base_gemm_s + t.sbmm_s + t.sgmv_s >= t.base_gemm_s);
    }

    #[test]
    fn segregated_pools_never_mix_kinds(
        seed in any::<u64>(),
        rate in 0.5f64..3.0,
        cap in prop_oneof![Just(None), (1usize..6).prop_map(Some)],
    ) {
        let (tr, m) = mixed_metrics(seed, rate, cap, true);
        prop_assert_eq!(m.len(), tr.len());
        prop_assert_eq!(
            m.toppings.mixed_batches,
            0,
            "segregated pools co-batched deltas and adapters"
        );
    }
}
