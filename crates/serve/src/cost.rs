//! Iteration-level cost model shared by all engines.
//!
//! Engines simulate at the granularity the real systems schedule at: one
//! decode iteration (one forward pass) per step, plus prompt-processing and
//! weight-loading charges. Each charge is assembled from the `dz-gpusim`
//! roofline kernels, so decode is memory-bound, prefill compute-bound, and
//! tensor parallelism adds all-reduce costs per layer.

use crate::policy::ResumePolicy;
use crate::swap::LoadProfile;
use dz_gpusim::kernel::{matmul_time, sbmm_time, BatchedImpl, MatmulDesc, WeightFormat};
use dz_gpusim::shapes::ModelShape;
use dz_gpusim::spec::NodeSpec;
use dz_gpusim::xfer;

/// Per-kind kernel-time breakdown of one heterogeneous toppings decode
/// iteration (see [`CostModel::toppings_decode_iter`]).
///
/// `total_s` is the charge the engine advances the clock by, computed in
/// the exact (addition-order-sensitive) sequence of the legacy delta-only
/// iteration; the per-kind components are separate accumulators that sum
/// to `total_s` up to float re-association.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ToppingsIterCost {
    /// Total iteration time (s) — what the simulation clock advances by.
    pub total_s: f64,
    /// Shared base-model work: batched GEMMs, LM head + KV traffic, and
    /// tensor-parallel all-reduces (s).
    pub base_s: f64,
    /// Delta SBMM work over the delta-backed sub-batch (s).
    pub sbmm_s: f64,
    /// Adapter work over the adapter-backed sub-batch: SGMV plus any
    /// RoSA sparse term (s).
    pub sgmv_s: f64,
}

/// Shared cost parameters.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Hardware of the tensor-parallel serving group.
    pub node: NodeSpec,
    /// Model family shape (base and all variants share it).
    pub shape: ModelShape,
    /// Delta storage format (e.g. 4-bit 2:4).
    pub delta_format: WeightFormat,
    /// Mean context length assumed for KV-cache traffic.
    pub avg_context_tokens: usize,
    /// Effective end-to-end model/delta load bandwidth, GB/s. Real systems
    /// are deserialization-bound well below raw PCIe (vLLM loads a 13B
    /// checkpoint in tens of seconds; cf. Figure 16's loading segments).
    /// A simulation reads no measured decode speed: this constant prices
    /// every load's deserialization stage.
    pub effective_load_gbps: f64,
    /// Optional measured artifact size overriding the shape-model delta
    /// estimate, set by [`with_delta_bytes`](Self::with_delta_bytes): the
    /// one way artifact bytes reach a simulation. `exp bench-compress`
    /// measures a codec's packed ratio at zoo scale, projects it to this
    /// node's model shape, and sets the override — every swap-in charge
    /// then scales with the codec's real bytes.
    pub delta_bytes_override: Option<f64>,
}

impl CostModel {
    /// Standard configuration: 4-bit 2:4 deltas.
    pub fn new(node: NodeSpec, shape: ModelShape) -> Self {
        CostModel {
            node,
            shape,
            delta_format: WeightFormat::Int {
                bits: 4,
                sparse24: true,
            },
            avg_context_tokens: 256,
            effective_load_gbps: 2.0,
            delta_bytes_override: None,
        }
    }

    /// Overrides the per-delta artifact size with a measured byte count
    /// (e.g. a method-zoo codec's packed size projected to this shape).
    pub fn with_delta_bytes(mut self, bytes: f64) -> Self {
        assert!(
            bytes > 0.0 && bytes.is_finite(),
            "delta bytes must be positive"
        );
        self.delta_bytes_override = Some(bytes);
        self
    }

    /// Bytes of one compressed delta: the measured override when set,
    /// otherwise the shape-model estimate for `delta_format`.
    pub fn delta_bytes(&self) -> f64 {
        if let Some(bytes) = self.delta_bytes_override {
            return bytes;
        }
        match self.delta_format {
            WeightFormat::Fp16 => self.shape.fp16_bytes(),
            WeightFormat::Int { bits, sparse24 } => self.shape.delta_bytes(bits, sparse24),
        }
    }

    /// Bytes of the full FP16 model.
    pub fn model_bytes(&self) -> f64 {
        self.shape.fp16_bytes()
    }

    /// Time for one decode iteration of the DeltaZip engine.
    ///
    /// `reqs_per_delta[d]` is the number of running requests per resident
    /// delta (zeros allowed); their sum is the shared base batch.
    pub fn deltazip_decode_iter(&self, reqs_per_delta: &[usize], strategy: BatchedImpl) -> f64 {
        let batch: usize = reqs_per_delta.iter().sum();
        self.toppings_decode_iter(batch, reqs_per_delta, &[], 0, (&[], 0.0), strategy)
            .total_s
    }

    /// Time for one heterogeneous "toppings" decode iteration: one shared
    /// base GEMM over the whole `batch`, SBMM over the delta-backed
    /// sub-batch, and SGMV over the adapter-backed sub-batch (stacked
    /// requests appear in both). With no adapters this is float-for-float
    /// the legacy delta-only iteration — the all-delta differential test
    /// pins that bit-identity. With no deltas it is the LoRA iteration
    /// (Punica-style SGMV: base GEMM plus a rank-`rank` adapter product
    /// whose weight traffic is negligible).
    ///
    /// `batch` is the total running batch (base requests contribute to
    /// the shared GEMM even though they appear in neither slice).
    ///
    /// `rosa` is `(reqs_per_rosa, density)`: the running requests per
    /// co-batched RoSA adapter (a subset of `reqs_per_adapter`) and the
    /// density of their unstructured sparse component. Each distinct RoSA
    /// adapter adds the traffic of its non-zeros (value + coordinate) and
    /// a gather-SpMM that runs far below dense peak — unstructured
    /// sparsity has no tensor-core support, which is exactly why the paper
    /// compresses *deltas* with structured 2:4 instead (§4.1). The sparse
    /// term is charged to `sgmv_s`; density 0 adds nothing.
    pub fn toppings_decode_iter(
        &self,
        batch: usize,
        reqs_per_delta: &[usize],
        reqs_per_adapter: &[usize],
        rank: usize,
        rosa: (&[usize], f64),
        strategy: BatchedImpl,
    ) -> ToppingsIterCost {
        if batch == 0 {
            return ToppingsIterCost::default();
        }
        let adapter_batch: usize = reqs_per_adapter.iter().sum();
        let tp = self.node.n_gpus.max(1);
        let mut t = 0.0;
        let (mut base_s, mut sbmm_s, mut sgmv_s) = (0.0f64, 0.0f64, 0.0f64);
        for (k, n) in self.shape.layer_linears() {
            // Base GEMM, batched over every request, sharded over TP ranks.
            let base = MatmulDesc {
                m: batch,
                k,
                n: n / tp,
                format: WeightFormat::Fp16,
            };
            let b = matmul_time(&self.node.gpu, &base);
            t += b;
            base_s += b;
            // Delta SBMM on the same activations (0 when no delta work).
            let s = sbmm_time(
                &self.node.gpu,
                reqs_per_delta,
                k,
                n / tp,
                self.delta_format,
                strategy,
            );
            t += s;
            sbmm_s += s;
            // Adapter SGMV: x A then (xA) B for each adapter; tiny k x r
            // and r x n.
            if adapter_batch > 0 {
                let distinct = reqs_per_adapter.iter().filter(|&&r| r > 0).count();
                let adapter_bytes = (k * rank + rank * n / tp) as f64 * 2.0;
                let adapter_flops = 2.0 * adapter_batch as f64 * (k * rank + rank * n / tp) as f64;
                let bw = self.node.gpu.hbm_bw_gbps * 1e9;
                let peak = self.node.gpu.fp16_tflops * 1e12 * self.node.gpu.efficiency;
                let g = (adapter_flops / peak).max(adapter_bytes * distinct as f64 / bw)
                    + 2.0 * self.node.gpu.kernel_launch_us * 1e-6;
                t += g;
                sgmv_s += g;
            }
        }
        t *= self.shape.n_layers as f64;
        base_s *= self.shape.n_layers as f64;
        sbmm_s *= self.shape.n_layers as f64;
        sgmv_s *= self.shape.n_layers as f64;
        let head = self.head_and_kv_time(batch);
        t += head;
        base_s += head;
        let ar = self.allreduce_per_iter(batch);
        t += ar;
        base_s += ar;
        let (reqs_per_rosa, density) = rosa;
        let rosa_batch: usize = reqs_per_rosa.iter().sum();
        if density > 0.0 && rosa_batch > 0 {
            let distinct = reqs_per_rosa.iter().filter(|&&r| r > 0).count();
            let bw = self.node.gpu.hbm_bw_gbps * 1e9;
            // Gather-SpMM efficiency relative to dense FP16 peak.
            let peak = self.node.gpu.fp16_tflops * 1e12 * self.node.gpu.efficiency * 0.1;
            let mut sparse = 0.0;
            for (k, n) in self.shape.layer_linears() {
                let nnz = density * (k * n / tp) as f64;
                // FP16 value + 32-bit coordinate per non-zero.
                let bytes = nnz * 6.0 * distinct as f64;
                let flops = 2.0 * rosa_batch as f64 * nnz;
                sparse += (flops / peak).max(bytes / bw) + self.node.gpu.kernel_launch_us * 1e-6;
            }
            let sparse = sparse * self.shape.n_layers as f64;
            t += sparse;
            sgmv_s += sparse;
        }
        ToppingsIterCost {
            total_s: t,
            base_s,
            sbmm_s,
            sgmv_s,
        }
    }

    /// Time for one decode iteration of the vLLM+SCB baseline.
    ///
    /// Every resident model with requests runs its own full-precision pass;
    /// weights of *each* model are streamed from HBM every iteration.
    pub fn vllm_decode_iter(&self, reqs_per_model: &[usize]) -> f64 {
        let tp = self.node.n_gpus.max(1);
        let mut t = 0.0;
        let mut batch_total = 0usize;
        for &m in reqs_per_model {
            if m == 0 {
                continue;
            }
            batch_total += m;
            for (k, n) in self.shape.layer_linears() {
                let desc = MatmulDesc {
                    m,
                    k,
                    n: n / tp,
                    format: WeightFormat::Fp16,
                };
                t += matmul_time(&self.node.gpu, &desc);
            }
        }
        if batch_total == 0 {
            return 0.0;
        }
        t *= self.shape.n_layers as f64;
        t += self.head_and_kv_time(batch_total);
        t += self.allreduce_per_iter(batch_total);
        t
    }

    /// Time to restore a preempted request's KV state from host memory:
    /// the PCIe transfer of `context_tokens` of KV cache, sharded over the
    /// tensor-parallel ranks.
    pub fn kv_swap_time(&self, context_tokens: usize) -> f64 {
        let bytes = context_tokens as f64 * self.shape.kv_bytes_per_token()
            / self.node.n_gpus.max(1) as f64;
        xfer::host_to_device_s(&self.node, bytes)
    }

    /// Resume charge for a preempted request holding `context_tokens` of
    /// KV state (prompt plus already-generated tokens) under `policy`.
    pub fn resume_time(&self, policy: ResumePolicy, context_tokens: usize) -> f64 {
        match policy {
            ResumePolicy::SwapToHost => self.kv_swap_time(context_tokens),
            ResumePolicy::Recompute => self.prefill_time(context_tokens),
            ResumePolicy::CostBased => self
                .kv_swap_time(context_tokens)
                .min(self.prefill_time(context_tokens)),
        }
    }

    fn head_and_kv_time(&self, batch: usize) -> f64 {
        let tp = self.node.n_gpus.max(1);
        let head = MatmulDesc {
            m: batch,
            k: self.shape.d_model,
            n: self.shape.vocab / tp,
            format: WeightFormat::Fp16,
        };
        let kv_bytes =
            batch as f64 * self.avg_context_tokens as f64 * self.shape.kv_bytes_per_token()
                / tp as f64;
        matmul_time(&self.node.gpu, &head) + kv_bytes / (self.node.gpu.hbm_bw_gbps * 1e9)
    }

    fn allreduce_per_iter(&self, batch: usize) -> f64 {
        // Two all-reduces per layer (attention out, MLP down) on (batch, d).
        let bytes = (batch * self.shape.d_model * 2) as f64;
        2.0 * self.shape.n_layers as f64 * self.node.allreduce_s(bytes)
    }

    /// Prompt-processing time for a set of prompts (compute-bound batch).
    pub fn prefill_time(&self, total_prompt_tokens: usize) -> f64 {
        if total_prompt_tokens == 0 {
            return 0.0;
        }
        let tp = self.node.n_gpus.max(1);
        let mut t = 0.0;
        for (k, n) in self.shape.layer_linears() {
            let desc = MatmulDesc {
                m: total_prompt_tokens,
                k,
                n: n / tp,
                format: WeightFormat::Fp16,
            };
            t += matmul_time(&self.node.gpu, &desc);
        }
        t * self.shape.n_layers as f64 + self.allreduce_per_iter(total_prompt_tokens)
    }

    /// Time to bring one compressed delta from host memory to the GPUs,
    /// sized by the shape-model estimate of a delta's bytes.
    pub fn delta_load_time(&self) -> f64 {
        self.delta_load_profile_bytes(self.delta_bytes()).solo_s()
    }

    /// Time to load a delta from cold storage (first touch), sized by the
    /// shape-model estimate of a delta's bytes.
    pub fn delta_cold_load_time(&self) -> f64 {
        self.delta_cold_load_profile_bytes(self.delta_bytes())
            .solo_s()
    }

    // ---- stage-decomposed load profiles for the swap timeline ----------
    //
    // Every load charge is one of these profiles: an uncontended load on
    // the `swap::TransferTimeline` completes in `profile.solo_s()`, and
    // only *concurrent* loads behave differently (they share channels).

    fn per_gpu_bytes(&self, bytes: f64) -> f64 {
        bytes / self.node.n_gpus.max(1) as f64
    }

    fn disk_stage_s(&self, bytes: f64) -> f64 {
        xfer::disk_channel_s(self.node.storage, self.per_gpu_bytes(bytes))
    }

    fn pcie_stage_s(&self, bytes: f64) -> f64 {
        xfer::pcie_channel_s(&self.node, self.per_gpu_bytes(bytes))
    }

    /// Profile of a host-tier load of `bytes`: the PCIe hop pipelined
    /// against the static deserialization stage, so `solo_s` is the slower
    /// of the two.
    pub fn delta_load_profile_bytes(&self, bytes: f64) -> LoadProfile {
        LoadProfile {
            head_s: 20e-6,
            disk_s: 0.0,
            pcie_s: self.pcie_stage_s(bytes),
            tail_s: 0.0,
            floor_s: bytes / (self.effective_load_gbps * 1e9),
        }
    }

    /// Profile of a cold (disk) load: disk and PCIe stages
    /// pipelined at the slower link, then the serial deserialization tail
    /// (the read cannot fully overlap deserialization).
    pub fn delta_cold_load_profile_bytes(&self, bytes: f64) -> LoadProfile {
        LoadProfile {
            head_s: self.node.storage.latency_s() + 20e-6,
            disk_s: self.disk_stage_s(bytes),
            pcie_s: self.pcie_stage_s(bytes),
            tail_s: bytes / (self.effective_load_gbps * 1e9),
            floor_s: 0.0,
        }
    }

    /// Profile of a predictive disk→host prewarm: disk channel only (the
    /// bytes stop in host DRAM; PCIe and decode are paid at swap-in).
    pub fn prefetch_profile_bytes(&self, bytes: f64) -> LoadProfile {
        LoadProfile {
            head_s: self.node.storage.latency_s(),
            disk_s: self.disk_stage_s(bytes),
            pcie_s: 0.0,
            tail_s: 0.0,
            floor_s: 0.0,
        }
    }

    /// How many full FP16 models fit in the cluster HBM next to activations.
    pub fn vllm_resident_capacity(&self) -> usize {
        // Reserve 15% of HBM for KV cache and activations.
        let usable = self.node.total_hbm_bytes() * 0.85;
        (usable / self.model_bytes()).floor() as usize
    }

    /// How many deltas fit next to the resident base model.
    pub fn delta_resident_capacity(&self) -> usize {
        let usable = self.node.total_hbm_bytes() * 0.85 - self.model_bytes();
        (usable.max(0.0) / self.delta_bytes()).floor() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host(cm: &CostModel, bytes: f64) -> f64 {
        cm.delta_load_profile_bytes(bytes).solo_s()
    }

    fn cold(cm: &CostModel, bytes: f64) -> f64 {
        cm.delta_cold_load_profile_bytes(bytes).solo_s()
    }

    fn model() -> CostModel {
        CostModel::new(NodeSpec::a800_node(4), ModelShape::llama13b())
    }

    #[test]
    fn deltazip_iter_beats_vllm_iter_at_many_models() {
        let cm = model();
        // 8 models, 2 requests each.
        let reqs = vec![2usize; 8];
        let dz = cm.deltazip_decode_iter(&reqs, BatchedImpl::SbmmPlus);
        let vllm = cm.vllm_decode_iter(&reqs);
        assert!(
            dz < vllm / 2.0,
            "deltazip {dz} should be well under vllm {vllm}"
        );
    }

    #[test]
    fn single_model_gap_is_modest() {
        // With one model the baseline reads one set of FP16 weights and
        // DeltaZip reads base + one delta: DeltaZip should be comparable
        // (slightly slower), matching the paper's unloaded-latency caveat.
        let cm = model();
        let dz = cm.deltazip_decode_iter(&[4], BatchedImpl::SbmmPlus);
        let vllm = cm.vllm_decode_iter(&[4]);
        assert!(dz > vllm * 0.9 && dz < vllm * 1.6, "dz {dz} vllm {vllm}");
    }

    /// One RoSA decode iteration: an adapter-only toppings batch whose
    /// every adapter carries a sparse part of `density`.
    fn rosa_iter(cm: &CostModel, reqs_per_adapter: &[usize], rank: usize, density: f64) -> f64 {
        let batch = reqs_per_adapter.iter().sum();
        let rosa = (reqs_per_adapter, density);
        cm.toppings_decode_iter(
            batch,
            &[],
            reqs_per_adapter,
            rank,
            rosa,
            BatchedImpl::SbmmPlus,
        )
        .total_s
    }

    /// One plain LoRA decode iteration: an adapter-only toppings batch.
    fn lora_iter(cm: &CostModel, reqs_per_adapter: &[usize], rank: usize) -> f64 {
        let batch = reqs_per_adapter.iter().sum();
        cm.toppings_decode_iter(
            batch,
            &[],
            reqs_per_adapter,
            rank,
            (&[], 0.0),
            BatchedImpl::SbmmPlus,
        )
        .total_s
    }

    #[test]
    fn lora_iter_is_cheapest() {
        let cm = model();
        let reqs = vec![1usize; 8];
        let lora = lora_iter(&cm, &reqs, 16);
        let dz = cm.deltazip_decode_iter(&reqs, BatchedImpl::SbmmPlus);
        assert!(lora < dz, "lora {lora} vs dz {dz}");
    }

    #[test]
    fn toppings_iter_with_no_adapters_is_bitwise_delta_iter() {
        // The unified-iteration contract: an adapter-free toppings batch
        // must charge the exact legacy delta-only float sequence.
        let cm = model();
        for reqs in [vec![4usize], vec![2usize; 8], vec![0, 3, 0, 1]] {
            let batch: usize = reqs.iter().sum();
            let unified =
                cm.toppings_decode_iter(batch, &reqs, &[], 0, (&[], 0.0), BatchedImpl::SbmmPlus);
            let legacy = cm.deltazip_decode_iter(&reqs, BatchedImpl::SbmmPlus);
            assert_eq!(unified.total_s.to_bits(), legacy.to_bits());
            assert_eq!(unified.sgmv_s, 0.0);
        }
    }

    #[test]
    fn toppings_components_sum_to_total() {
        let cm = model();
        let c =
            cm.toppings_decode_iter(10, &[2, 3], &[1, 4], 16, (&[], 0.0), BatchedImpl::SbmmPlus);
        let sum = c.base_s + c.sbmm_s + c.sgmv_s;
        assert!(
            (sum - c.total_s).abs() < 1e-9 * c.total_s,
            "components {sum} vs total {}",
            c.total_s
        );
        assert!(c.base_s > 0.0 && c.sbmm_s > 0.0 && c.sgmv_s > 0.0);
        // Mixing adapters in costs more than the delta work alone.
        let delta_only =
            cm.toppings_decode_iter(10, &[2, 3], &[], 0, (&[], 0.0), BatchedImpl::SbmmPlus);
        assert!(c.total_s > delta_only.total_s);
        // On a single-GPU node (full delta shards per GPU — the
        // bench-toppings 3090/7B cell) serving the adapter sub-batch via
        // SGMV is cheaper than streaming it as two more deltas; at high
        // TP the shards shrink and SGMV's launch overhead can win out.
        let single = CostModel::new(NodeSpec::rtx3090_node(1), ModelShape::llama7b());
        let mixed = single.toppings_decode_iter(
            10,
            &[2, 3],
            &[1, 4],
            16,
            (&[], 0.0),
            BatchedImpl::SbmmPlus,
        );
        let all_delta = single.toppings_decode_iter(
            10,
            &[2, 3, 1, 4],
            &[],
            0,
            (&[], 0.0),
            BatchedImpl::SbmmPlus,
        );
        assert!(
            mixed.total_s < all_delta.total_s,
            "mixed {} vs all-delta {}",
            mixed.total_s,
            all_delta.total_s
        );
    }

    #[test]
    fn loads_are_ordered_by_bytes() {
        let cm = model();
        let model_load = cm.delta_load_profile_bytes(cm.model_bytes()).solo_s();
        assert!(cm.delta_load_time() < model_load / 3.0);
        assert!(cm.delta_cold_load_time() > cm.delta_load_time());
    }

    #[test]
    fn byte_parameterized_loads_scale_and_order() {
        let cm = model();
        for bytes in [1e6, 1e8, 1e9] {
            // A host hit (PCIe only) is strictly cheaper than a disk miss
            // (disk read + PCIe) for the same artifact.
            assert!(
                host(&cm, bytes) < cold(&cm, bytes),
                "host hit must beat disk miss at {bytes} bytes"
            );
        }
        // More bytes cost more on both paths.
        assert!(host(&cm, 2e8) > host(&cm, 1e8));
        assert!(cold(&cm, 2e8) > cold(&cm, 1e8));
        // The single-size APIs are the byte APIs at the shape model's
        // delta size.
        assert_eq!(cm.delta_load_time(), host(&cm, cm.delta_bytes()));
        assert_eq!(cm.delta_cold_load_time(), cold(&cm, cm.delta_bytes()));
    }

    #[test]
    fn load_profiles_solo_times_match_the_scalar_charges() {
        // An uncontended load completes in exactly the closed-form charge
        // of its path: a host hit is the slower of PCIe and
        // deserialization, a cold load the staged disk copy plus
        // deserialization.
        for node in [NodeSpec::a800_node(4), NodeSpec::rtx3090_node(1)] {
            let cm = CostModel::new(node, ModelShape::llama7b());
            let physical = |tier, bytes: f64| {
                xfer::load_to_device_s(&cm.node, tier, bytes / cm.node.n_gpus as f64)
            };
            for bytes in [1e6, 1e8, 2e9] {
                let pipeline = bytes / (cm.effective_load_gbps * 1e9);
                assert_eq!(
                    host(&cm, bytes),
                    physical(xfer::Tier::Host, bytes).max(pipeline)
                );
                assert_eq!(
                    cold(&cm, bytes),
                    physical(xfer::Tier::Disk, bytes) + pipeline
                );
            }
        }
    }

    #[test]
    fn prefetch_profile_is_disk_only() {
        let cm = model();
        let p = cm.prefetch_profile_bytes(1e8);
        assert!(p.disk_s > 0.0);
        assert_eq!(p.pcie_s, 0.0);
        assert_eq!(p.tail_s, 0.0);
        assert_eq!(p.floor_s, 0.0);
        // Prewarming costs strictly less than the full cold demand load.
        assert!(p.solo_s() < cold(&cm, 1e8));
    }

    #[test]
    fn delta_bytes_override_scales_every_load_charge() {
        let cm = model();
        let shrunk = cm.delta_bytes() / 8.0;
        let small =
            CostModel::new(NodeSpec::a800_node(4), ModelShape::llama13b()).with_delta_bytes(shrunk);
        assert_eq!(small.delta_bytes(), shrunk);
        // An 8x smaller artifact (e.g. BitDelta vs 4-bit*) must cut both
        // the warm and cold swap-in charges.
        assert!(small.delta_load_time() < cm.delta_load_time());
        assert!(small.delta_cold_load_time() < cm.delta_cold_load_time());
        // And it enlarges residency: more deltas fit beside the base.
        assert!(small.delta_resident_capacity() > cm.delta_resident_capacity());
    }

    #[test]
    fn capacities_are_sane() {
        let cm = model();
        let vllm_cap = cm.vllm_resident_capacity();
        let delta_cap = cm.delta_resident_capacity();
        assert!(vllm_cap >= 4, "vllm cap {vllm_cap}");
        assert!(
            delta_cap > vllm_cap,
            "delta cap {delta_cap} must exceed {vllm_cap}"
        );
    }

    #[test]
    fn prefill_scales_superlinearly_vs_decode() {
        let cm = model();
        let decode = cm.deltazip_decode_iter(&[1], BatchedImpl::SbmmPlus);
        let prefill = cm.prefill_time(512);
        assert!(prefill > decode, "prefill {prefill} decode {decode}");
    }

    #[test]
    fn empty_batches_cost_nothing() {
        let cm = model();
        assert_eq!(cm.deltazip_decode_iter(&[], BatchedImpl::SbmmPlus), 0.0);
        assert_eq!(cm.vllm_decode_iter(&[0, 0]), 0.0);
        assert_eq!(cm.prefill_time(0), 0.0);
    }

    #[test]
    fn rosa_sits_between_lora_and_delta() {
        let cm = model();
        let reqs = vec![1usize; 8];
        let lora = lora_iter(&cm, &reqs, 16);
        let rosa = rosa_iter(&cm, &reqs, 16, 0.01);
        let dz = cm.deltazip_decode_iter(&reqs, BatchedImpl::SbmmPlus);
        assert!(
            rosa > lora,
            "rosa {rosa} must pay for the sparse part over {lora}"
        );
        assert!(
            rosa < dz,
            "rosa {rosa} should stay under full delta serving {dz}"
        );
    }

    #[test]
    fn rosa_with_zero_density_is_lora() {
        let cm = model();
        for reqs in [vec![2usize; 4], vec![0, 3, 0, 1], vec![]] {
            assert_eq!(
                rosa_iter(&cm, &reqs, 16, 0.0).to_bits(),
                lora_iter(&cm, &reqs, 16).to_bits()
            );
        }
        assert_eq!(rosa_iter(&cm, &[], 16, 0.01), 0.0);
        // The sparse term is adapter work: it lands in `sgmv_s`.
        let mixed = |density| {
            cm.toppings_decode_iter(6, &[2], &[1, 3], 16, (&[3], density), BatchedImpl::SbmmPlus)
        };
        let (lora, rosa) = (mixed(0.0), mixed(0.01));
        assert!(rosa.sgmv_s > lora.sgmv_s);
        assert_eq!((rosa.base_s, rosa.sbmm_s), (lora.base_s, lora.sbmm_s));
    }

    #[test]
    fn resume_swap_beats_recompute_for_long_contexts() {
        // Swapping KV back over PCIe is linear in context; recomputing the
        // prefill is compute-bound and grows faster for this model size, so
        // CostBased picks swap at long contexts.
        let cm = model();
        let long = 2048;
        assert!(cm.kv_swap_time(long) < cm.prefill_time(long));
        assert_eq!(
            cm.resume_time(ResumePolicy::CostBased, long),
            cm.kv_swap_time(long)
        );
    }

    #[test]
    fn resume_policies_are_consistent() {
        let cm = model();
        for ctx in [16usize, 256, 1024] {
            let swap = cm.resume_time(ResumePolicy::SwapToHost, ctx);
            let rec = cm.resume_time(ResumePolicy::Recompute, ctx);
            let best = cm.resume_time(ResumePolicy::CostBased, ctx);
            assert!(best <= swap && best <= rec);
            assert!(best == swap || best == rec);
        }
    }

    #[test]
    fn tensor_parallelism_reduces_iteration_time() {
        let one = CostModel::new(NodeSpec::a800_node(1), ModelShape::llama13b());
        let four = CostModel::new(NodeSpec::a800_node(4), ModelShape::llama13b());
        let reqs = vec![2usize; 4];
        let t1 = one.deltazip_decode_iter(&reqs, BatchedImpl::SbmmPlus);
        let t4 = four.deltazip_decode_iter(&reqs, BatchedImpl::SbmmPlus);
        assert!(t4 < t1, "tp4 {t4} vs tp1 {t1}");
    }
}
