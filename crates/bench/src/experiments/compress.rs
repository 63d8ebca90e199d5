//! The delta-compression method-zoo sweep: codec × bit budget →
//! quality / ratio / serving-cost cells.
//!
//! `bench-compress` trains one model-zoo family (base + FMT mixture),
//! compresses the delta with every codec in the method zoo (SparseGPT★,
//! BitDelta and Delta-CoMe, each at two bit budgets, lossless stage on),
//! and measures per cell:
//!
//! * mean task accuracy on the family's three tasks and the drop vs the
//!   FP16 fine-tune, plus perplexity on the shared corpus,
//! * compression ratio three ways — whole-model (raw), delta-only
//!   (packed), and packed-plus-lossless,
//! * simulated serving cost on the capacity-constrained RTX-3090 / 7B
//!   node: the measured packed ratio is projected to 7B-scale artifact
//!   bytes via [`CostModel::with_delta_bytes`], and a fixed trace is
//!   replayed so per-request load-wait p99 (the cold-load tail) and TTFT
//!   p99 reflect each codec's real swap-in bytes.
//!
//! Alongside the rendered markdown it emits `BENCH_compress.json`.

use super::quality::{family_tasks, Zoo};
use super::Fmt::{Fix, Plain, Signed, Times};
use super::{BenchJson, Report, Scale, Table};
use dz_compress::calib::calibration_set;
use dz_compress::codec::{BitDeltaCodec, DeltaCodec, DeltaComeCodec, SparseGptCodec};
use dz_gpusim::shapes::ModelShape;
use dz_gpusim::spec::NodeSpec;
use dz_model::eval::{perplexity, task_accuracy};
use dz_model::tasks::Corpus;
use dz_model::transformer::Params;
use dz_model::zoo::preset;
use dz_serve::{CostModel, DeltaZipConfig, DeltaZipEngine, Engine};
use dz_tensor::Rng;
use dz_workload::{PopularityDist, Trace, TraceSpec};
use std::io;
use std::path::Path;

/// The family the sweep runs on (d_model 64: wide enough that 1-bit
/// packing clears 8x even with per-row scales).
const FAMILY: &str = "llama-tiny-m";

/// One sweep cell.
pub struct CompressCell {
    /// Codec id name (`sparsegpt-star`, `bitdelta`, `delta-come`).
    pub codec: &'static str,
    /// Budget-bearing label, e.g. `bitdelta-1bit/row`.
    pub label: String,
    /// Mean accuracy over the family's tasks.
    pub acc_mean: f64,
    /// Accuracy drop vs the FP16 fine-tune (positive = worse).
    pub acc_drop: f64,
    /// Perplexity on the shared corpus.
    pub ppl: f64,
    /// Whole-model compression ratio (packed linears + FP16 rest).
    pub raw_ratio: f64,
    /// Delta-only packed ratio (what swap bytes scale with).
    pub packed_ratio: f64,
    /// Packed ratio after the lossless stage.
    pub lossless_ratio: f64,
    /// Projected artifact bytes at 7B scale.
    pub bytes_7b: f64,
    /// p99 of per-request load waits on the 3090/7B replay (cold-load
    /// tail).
    pub load_p99_s: f64,
    /// p99 TTFT on the same replay.
    pub ttft_p99_s: f64,
}

/// The codec zoo with the lossless stage enabled (so the sweep reports
/// post-lossless ratios): every codec at two bit budgets.
fn lossless_zoo() -> Vec<Box<dyn DeltaCodec>> {
    let mut sg4 = SparseGptCodec::starred(4);
    sg4.config.lossless = true;
    let mut sg2 = SparseGptCodec::starred(2);
    sg2.config.lossless = true;
    let mut bd_matrix = BitDeltaCodec::per_matrix();
    bd_matrix.lossless = true;
    let mut bd_row = BitDeltaCodec::per_row();
    bd_row.lossless = true;
    let mut dc_low = DeltaComeCodec::low_budget();
    dc_low.lossless = true;
    let mut dc_high = DeltaComeCodec::high_budget();
    dc_high.lossless = true;
    vec![
        Box::new(sg4),
        Box::new(sg2),
        Box::new(bd_matrix),
        Box::new(bd_row),
        Box::new(dc_low),
        Box::new(dc_high),
    ]
}

/// Replays a fixed trace on the RTX-3090 / 7B node with the given
/// per-delta artifact bytes; host capacity is tight so the tail of the
/// load waits is dominated by disk (cold) swap-ins.
fn simulate_swaps(bytes_7b: f64, scale: Scale) -> (f64, f64) {
    let duration_s = match scale {
        Scale::Full => 120.0,
        Scale::Quick => 60.0,
    };
    let trace = Trace::generate(TraceSpec {
        n_models: 12,
        arrival_rate: 0.5,
        duration_s,
        popularity: PopularityDist::Zipf { alpha: 1.2 },
        seed: 0xC0DEC,
    });
    let cost =
        CostModel::new(NodeSpec::rtx3090_node(1), ModelShape::llama7b()).with_delta_bytes(bytes_7b);
    let config = DeltaZipConfig {
        max_concurrent_deltas: 4,
        max_batch: 32,
        host_capacity_deltas: Some(4),
        ..DeltaZipConfig::default()
    };
    let metrics = DeltaZipEngine::new(cost, config).run(&trace);
    (metrics.load_percentile(0.99), metrics.ttft_percentile(0.99))
}

/// Runs the sweep and returns its cells (shared by the experiment and the
/// acceptance tests).
pub fn sweep_cells(zoo: &mut Zoo, scale: Scale) -> (Vec<CompressCell>, f64, f64) {
    let p = preset(FAMILY).expect("preset exists");
    let base = zoo.base(&p);
    let tuned = zoo.fmt_mixture(&p);
    let task_list = family_tasks(FAMILY);
    let corpus = Corpus::new(p.config.max_seq);
    let calib = calibration_set(&corpus, 12, 0xCA11B);
    let n_eval = 200;
    let mut eval_rng = Rng::seeded(0xE7A1);
    let ppl_seqs: Vec<Vec<usize>> = (0..20).map(|_| corpus.sample(&mut eval_rng)).collect();
    let acc_of = |m: &Params| -> f64 {
        task_list
            .iter()
            .map(|t| task_accuracy(m, t.as_ref(), n_eval, &mut Rng::seeded(0xE7A1)))
            .sum::<f64>()
            / task_list.len() as f64
    };
    let fp16_acc = acc_of(&tuned);
    let fp16_ppl = perplexity(&tuned, &ppl_seqs);

    let linear_bytes_7b = ModelShape::llama7b().fp16_bytes();
    let mut cells = Vec::new();
    for codec in lossless_zoo() {
        let (cd, rec) = codec.compress(&base, &tuned, &calib);
        let acc = acc_of(&rec);
        let packed_ratio = cd.report.delta_ratio();
        let lossless_ratio = cd.report.lossless_delta_ratio().unwrap_or(packed_ratio);
        // Projection to 7B: at scale nearly all bytes are linear-layer
        // deltas, so the artifact shrinks by the measured packed ratio.
        let bytes_7b = linear_bytes_7b / packed_ratio;
        let (load_p99_s, ttft_p99_s) = simulate_swaps(bytes_7b, scale);
        cells.push(CompressCell {
            codec: cd.codec.name(),
            label: codec.label(),
            acc_mean: acc,
            acc_drop: fp16_acc - acc,
            ppl: perplexity(&rec, &ppl_seqs),
            raw_ratio: cd.report.model_ratio(),
            packed_ratio,
            lossless_ratio,
            bytes_7b,
            load_p99_s,
            ttft_p99_s,
        });
    }
    (cells, fp16_acc, fp16_ppl)
}

/// The `bench-compress` experiment.
pub fn bench_compress(zoo: &mut Zoo, scale: Scale, out_dir: &Path) -> io::Result<Report> {
    let (cells, fp16_acc, fp16_ppl) = sweep_cells(zoo, scale);
    let table = Table::new(&cells)
        .json("codec", Plain, |c| c.codec)
        .col("codec@budget", Plain, "budget", Plain, |c| c.label.clone())
        .md("acc %", Fix(1), |c| c.acc_mean * 100.0)
        .json("acc", Fix(4), |c| c.acc_mean)
        .md("Δacc pts", Signed(1), |c| -c.acc_drop * 100.0)
        .json("acc_drop", Fix(4), |c| c.acc_drop)
        .col("ppl", Fix(2), "ppl", Fix(4), |c| c.ppl)
        .col("raw", Times(1), "raw_ratio", Fix(3), |c| c.raw_ratio)
        .col("packed", Times(1), "packed_ratio", Fix(3), |c| {
            c.packed_ratio
        })
        .col("+lossless", Times(1), "lossless_ratio", Fix(3), |c| {
            c.lossless_ratio
        })
        .json("bytes_7b", Fix(0), |c| c.bytes_7b)
        .col("load p99 (s)", Fix(1), "cold_load_p99_s", Fix(4), |c| {
            c.load_p99_s
        })
        .col("TTFT p99 (s)", Fix(1), "ttft_p99_s", Fix(4), |c| {
            c.ttft_p99_s
        });
    let mut body = format!(
        "Family {FAMILY}; FP16 fine-tune: accuracy {:.1}%, ppl {:.2}. \
         Cold-load figures: fixed 12-model Zipf-1.2 replay on one RTX-3090 \
         serving 7B, artifact bytes projected from each codec's packed \
         ratio.\n\n",
        fp16_acc * 100.0,
        fp16_ppl
    );
    body.push_str(&table.markdown());
    let json = BenchJson::new("compress", &[("family", format!("\"{FAMILY}\""))])
        .scalar("family", Plain, FAMILY)
        .scalar("fp16_acc", Fix(4), fp16_acc)
        .scalar("fp16_ppl", Fix(4), fp16_ppl)
        .rows("cells", &table)
        .write(out_dir)?;
    body.push_str(&format!("\njson: {json}\n"));
    Ok(Report {
        id: "bench-compress",
        title: "Delta-compression method zoo: quality x ratio x swap latency",
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_meets_the_acceptance_gate() {
        // ≥3 codecs x ≥2 budgets, BitDelta ≥8x packed with bounded drop
        // vs the 4-bit starred pipeline, and smaller artifacts must load
        // no slower.
        let mut zoo = Zoo::new(Scale::Quick);
        let (cells, fp16_acc, _) = sweep_cells(&mut zoo, Scale::Quick);
        assert!(fp16_acc > 0.5, "fine-tune must learn: {fp16_acc}");
        let codecs: std::collections::BTreeSet<&str> = cells.iter().map(|c| c.codec).collect();
        assert!(codecs.len() >= 3, "{codecs:?}");
        for codec in &codecs {
            let budgets = cells.iter().filter(|c| &c.codec == codec).count();
            assert!(budgets >= 2, "{codec} swept at {budgets} budget(s)");
        }
        let sgpt4 = cells
            .iter()
            .find(|c| c.label == "sparsegpt-4bit*")
            .expect("4-bit starred cell");
        for bit in cells.iter().filter(|c| c.codec == "bitdelta") {
            assert!(
                bit.packed_ratio >= 8.0,
                "{}: {}",
                bit.label,
                bit.packed_ratio
            );
            assert!(
                bit.acc_mean >= sgpt4.acc_mean - 0.25,
                "{}: acc {} vs 4bit* {}",
                bit.label,
                bit.acc_mean,
                sgpt4.acc_mean
            );
            // ~8x fewer bytes must not load slower on the same replay.
            assert!(
                bit.load_p99_s <= sgpt4.load_p99_s,
                "{}: load p99 {} vs 4bit* {}",
                bit.label,
                bit.load_p99_s,
                sgpt4.load_p99_s
            );
        }
    }

    #[test]
    fn simulated_swap_tail_grows_with_artifact_bytes() {
        let (small_load, small_ttft) = simulate_swaps(1e8, Scale::Quick);
        let (big_load, big_ttft) = simulate_swaps(2e9, Scale::Quick);
        assert!(small_load < big_load, "{small_load} vs {big_load}");
        assert!(small_ttft <= big_ttft, "{small_ttft} vs {big_ttft}");
    }
}
