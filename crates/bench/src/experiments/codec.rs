//! Codec throughput experiment: the decode fast path measured end to end.
//!
//! `bench-lossless` times the two decode paths (tree-walk reference and
//! LUT fast path) on a packed-delta-like corpus and an incompressible one, then drives a real `.dza` artifact
//! through [`dz_store::TieredDeltaStore::fetch_decoded`] so the measured
//! store-level decode throughput appears in the same report. Alongside the rendered markdown
//! it emits a machine-readable `BENCH_lossless.json` next to the other
//! experiment artifacts.

use super::Fmt::{Fix, Plain, Times};
use super::{BenchJson, Report, Scale, Table};
use dz_store::{sha256, Registry, TieredDeltaStore};
use dz_tensor::Rng;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Zero-run corpus: 60% of positions start a run of zero bytes, so it
/// entropy-codes and exercises the Huffman decoder and match copies. Served
/// deltas are not like this: a sparsegpt★ record's LZ77 tokens are about
/// 99% literals, Huffman saves about 5% of its bytes, and its pages are
/// stored. Shared with the criterion `lossless-decode` bench so the
/// acceptance gate and the experiment measure the same corpus.
pub fn packed_delta_like(n: usize, seed: u64) -> Vec<u8> {
    let mut rng = Rng::seeded(seed);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        if rng.bernoulli(0.6) {
            let run = 1 + rng.below(24);
            out.extend(std::iter::repeat_n(0u8, run.min(n - out.len())));
        } else {
            out.push(rng.below(256) as u8);
        }
    }
    out
}

/// Incompressible corpus (uniform random bytes): exercises the stored-page
/// and CRC path rather than the Huffman decoder.
pub fn incompressible(n: usize, seed: u64) -> Vec<u8> {
    let mut rng = Rng::seeded(seed);
    (0..n).map(|_| rng.below(256) as u8).collect()
}

/// Best-of-`iters` wall time of `f`, in seconds.
fn best_of<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..iters {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// The `bench-lossless` experiment.
pub fn bench_lossless(scale: Scale, out_dir: &Path) -> io::Result<Report> {
    let n = match scale {
        Scale::Full => 8usize << 20,
        Scale::Quick => 2usize << 20,
    };
    let iters = match scale {
        Scale::Full => 5,
        Scale::Quick => 3,
    };
    let corpora = [
        ("packed-delta", packed_delta_like(n, 7)),
        ("incompressible", incompressible(n, 11)),
    ];
    type DecodeFn<'a> = Box<dyn Fn() + 'a>;
    // (corpus, decode path, MB/s, speedup over the reference path)
    let mut measurements: Vec<(&str, &str, f64, f64)> = Vec::new();
    for (corpus, data) in &corpora {
        let compressed = dz_lossless::compress(data);
        let paths: [(&'static str, DecodeFn<'_>); 2] = [
            (
                "reference",
                Box::new(|| {
                    dz_lossless::decompress_reference(&compressed).expect("reference");
                }),
            ),
            (
                "lut",
                Box::new(|| {
                    dz_lossless::decompress(&compressed).expect("lut");
                }),
            ),
        ];
        let mut reference_mb_s = 0.0;
        for (path, f) in paths {
            let best = best_of(iters, f);
            let mb_s = data.len() as f64 / best / 1e6;
            if path == "reference" {
                reference_mb_s = mb_s;
            }
            measurements.push((corpus, path, mb_s, mb_s / reference_mb_s));
        }
    }

    // Store-level: one artifact through the decoded fetch.
    let store_gbps = measure_store_decode();

    let table = Table::new(&measurements)
        .col("corpus", Plain, "corpus", Plain, |(corpus, ..)| *corpus)
        .col("decode path", Plain, "path", Plain, |(_, path, ..)| *path)
        .col("MB/s", Fix(1), "mb_per_s", Fix(1), |(.., mb_s, _)| *mb_s)
        .col(
            "vs reference",
            Times(2),
            "speedup_vs_reference",
            Fix(3),
            |(.., speedup)| *speedup,
        );
    let mut body = table.markdown();
    match store_gbps {
        Some(gbps) => body.push_str(&format!(
            "\nstore fetch_decoded measured throughput: {:.3} GB/s (compressed)\n",
            gbps
        )),
        None => body.push_str("\nstore fetch_decoded measurement unavailable\n"),
    }
    let json = BenchJson::new("lossless", &[("corpus_bytes", n.to_string())])
        .scalar("corpus_bytes", Plain, n)
        .rows("decode", &table)
        .scalar("store_fetch_decoded_gbps", Fix(4), store_gbps)
        .write(out_dir)?;
    body.push_str(&format!("json: {json}\n"));
    Ok(Report {
        id: "bench-lossless",
        title: "Decode pipeline throughput (LUT fast path + store reads in runs)",
        body,
    })
}

/// Publishes a synthetic multi-tensor delta into a temp registry and times
/// a decoded fetch; returns the store's measured compressed GB/s.
fn measure_store_decode() -> Option<f64> {
    use dz_compress::codec::{CodecId, PackedLayer};
    use dz_compress::pack::CompressedMatrix;
    use dz_compress::pipeline::{CompressedDelta, DeltaCompressConfig, SizeReport};
    use dz_compress::quant::{quantize_slice, QuantSpec};
    use dz_tensor::Matrix;
    use std::collections::BTreeMap;

    let dir = std::env::temp_dir().join(format!("dz-bench-codec-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = Registry::open(&dir).ok()?;
    let mut rng = Rng::seeded(42);
    let spec = QuantSpec::new(4, 8);
    let mut layers = BTreeMap::new();
    for i in 0..8 {
        let d = 96;
        let wt = Matrix::randn(d, d, 0.05, &mut rng);
        let mut levels = Vec::new();
        let mut scales = Vec::new();
        for r in 0..d {
            let (l, s) = quantize_slice(wt.row(r), spec);
            levels.extend(l);
            scales.extend(s);
        }
        layers.insert(
            format!("layers.{i}.w"),
            PackedLayer::Quant(CompressedMatrix::from_dense(d, d, &levels, scales, spec)),
        );
    }
    let delta = CompressedDelta {
        layers,
        rest: BTreeMap::new(),
        codec: CodecId::SparseGptStar,
        config: DeltaCompressConfig::starred(4),
        report: SizeReport {
            compressed_linear_bytes: 1,
            uncompressed_rest_bytes: 0,
            full_fp16_bytes: 1,
            lossless_linear_bytes: None,
        },
    };
    let id = registry
        .publish_delta("bench-delta", sha256(b"base"), &delta)
        .ok()?;
    let mut store = TieredDeltaStore::new(registry, 1 << 30);
    store.fetch_decoded(&id).ok()?;
    let gbps = store.decode_throughput().effective_gbps();
    std::fs::remove_dir_all(&dir).ok();
    gbps
}
