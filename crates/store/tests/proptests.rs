//! Property-based store invariants: `write → read` is the identity for
//! dense and 2:4-sparse payloads, and corrupted or truncated containers
//! produce typed errors — never a panic, never silently wrong data.
//!
//! The mutation corpus at the end goes past what a checksum alone
//! catches. It splices one tensor's page over another's extent, and it
//! inflates every length field a reader trusts: a manifest entry's
//! `comp_len` and `raw_len`, the footer's `manifest_len`, the manifest's
//! tensor count, a page header's lengths and page table, and the element
//! counts inside a wire record. Where a mutation sits under a checksum, the
//! test reseals the container, so the field reaches the parser that must
//! refuse it.

use dz_compress::codec::{CodecId, LowRankMatrix, PackedLayer, SignMatrix, SignScope};
use dz_compress::pack::CompressedMatrix;
use dz_compress::pipeline::{CompressedDelta, DeltaCompressConfig, SizeReport};
use dz_compress::quant::{quantize_slice, QuantSpec};
use dz_store::dza::{write_delta, ArtifactReader};
use dz_store::{sha256, TensorKind};
use dz_tensor::{Matrix, Rng};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::io::Cursor;

fn dense_matrix(d_out: usize, d_in: usize, bits: u32, seed: u64) -> CompressedMatrix {
    let mut rng = Rng::seeded(seed);
    let spec = QuantSpec::new(bits, 8);
    let wt = Matrix::randn(d_out, d_in, 0.05, &mut rng);
    let mut levels = Vec::new();
    let mut scales = Vec::new();
    for r in 0..d_out {
        let (l, s) = quantize_slice(wt.row(r), spec);
        levels.extend(l);
        scales.extend(s);
    }
    CompressedMatrix::from_dense(d_out, d_in, &levels, scales, spec)
}

fn sparse_matrix(d_out: usize, d_in: usize, bits: u32, seed: u64) -> CompressedMatrix {
    let mut rng = Rng::seeded(seed);
    let spec = QuantSpec::new(bits, 8);
    let qmax = spec.qmax();
    let mut levels = vec![0i32; d_out * d_in];
    let mut mask = vec![false; d_out * d_in];
    for r in 0..d_out {
        for g in 0..d_in / 4 {
            let first = rng.below(4);
            let mut second = rng.below(4);
            while second == first {
                second = rng.below(4);
            }
            for k in [first, second] {
                let i = r * d_in + g * 4 + k;
                mask[i] = true;
                levels[i] = rng.below((2 * qmax + 1) as usize) as i32 - qmax;
            }
        }
    }
    let scales = vec![0.05f32; d_out * d_in.div_ceil(8)];
    CompressedMatrix::from_sparse24(d_out, d_in, &levels, &mask, scales, spec)
}

fn arb_delta(
    seed: u64,
    blocks: usize,
    d_out: usize,
    bits: u32,
    rest_dim: usize,
) -> CompressedDelta {
    let d_in = blocks * 8;
    let mut layers = BTreeMap::new();
    layers.insert(
        "dense".to_string(),
        PackedLayer::Quant(dense_matrix(d_out, d_in, bits, seed)),
    );
    layers.insert(
        "sparse".to_string(),
        PackedLayer::Quant(sparse_matrix(d_out, d_in, bits, seed ^ 0xABC)),
    );
    // Method-zoo layers ride in the same container: a BitDelta sign/scale
    // layer and a Delta-CoMe mixed-precision low-rank layer.
    let mut rng = Rng::seeded(seed ^ 0xDEF);
    let raw = Matrix::randn(d_in, d_out, 0.01, &mut rng);
    layers.insert(
        "sign".to_string(),
        PackedLayer::Sign(SignMatrix::from_delta(&raw, SignScope::PerRow)),
    );
    layers.insert(
        "lowrank".to_string(),
        PackedLayer::LowRank(LowRankMatrix::from_delta(&raw, &[(8, 1), (2, 2)])),
    );
    let mut rest = BTreeMap::new();
    rest.insert(
        "emb".to_string(),
        Matrix::randn(rest_dim, d_out, 1.0, &mut rng),
    );
    // Quantized records barely shrink and are stored raw; an all-zero
    // matrix keeps an entropy-coded page in every container.
    rest.insert("zeros".to_string(), Matrix::zeros(16, 16));
    let compressed: usize = layers.values().map(|c| c.packed_bytes()).sum();
    // Sweep the manifest codec id too: `.dza` round-trips must preserve it.
    let codec = match seed % 3 {
        0 => CodecId::SparseGptStar,
        1 => CodecId::BitDelta,
        _ => CodecId::DeltaCome,
    };
    CompressedDelta {
        layers,
        rest,
        codec,
        config: DeltaCompressConfig::starred(bits),
        report: SizeReport {
            compressed_linear_bytes: compressed,
            uncompressed_rest_bytes: rest_dim * d_out * 2,
            full_fp16_bytes: 4 * d_in * d_out,
            lossless_linear_bytes: None,
        },
    }
}

fn container(delta: &CompressedDelta) -> Vec<u8> {
    write_delta(Cursor::new(Vec::new()), "prop", sha256(b"base"), delta)
        .expect("write")
        .into_inner()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn write_read_is_identity(
        seed in any::<u64>(),
        blocks in 1usize..5,
        d_out in 1usize..12,
        bits in 2u32..5,
        rest_dim in 1usize..8,
    ) {
        let delta = arb_delta(seed, blocks, d_out, bits, rest_dim);
        let bytes = container(&delta);
        let mut reader = ArtifactReader::open(Cursor::new(&bytes)).expect("open");
        let zeros = reader.manifest().entry("zeros").expect("zeros").clone();
        prop_assert!(zeros.comp_len < zeros.raw_len, "zero page stored");
        let back = reader.read_delta().expect("read");
        prop_assert_eq!(back, delta);
    }

    #[test]
    fn truncation_is_a_typed_error_never_a_panic(
        seed in any::<u64>(),
        cut_frac in 0.0f64..1.0,
    ) {
        let delta = arb_delta(seed, 2, 6, 4, 4);
        let bytes = container(&delta);
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        // Either opening fails, or reading any tensor fails; both must be
        // typed errors. A truncated container can never round-trip.
        if let Ok(mut reader) = ArtifactReader::open(Cursor::new(&bytes[..cut])) { prop_assert!(reader.read_delta().is_err()) }
    }

    #[test]
    fn byte_flips_never_yield_silent_corruption(
        seed in any::<u64>(),
        pos in any::<proptest::sample::Index>(),
        flip in 1u8..=255,
    ) {
        let delta = arb_delta(seed, 2, 6, 4, 4);
        let bytes = container(&delta);
        let mut corrupted = bytes.clone();
        let i = pos.index(corrupted.len());
        corrupted[i] ^= flip;
        // The decoder must either reject the container or still produce
        // exactly the original delta (e.g. a flip in dead padding).
        if let Ok(mut reader) = ArtifactReader::open(Cursor::new(&corrupted)) { if let Ok(back) = reader.read_delta() { prop_assert_eq!(back, delta) } }
    }
}

/// The checksum the page container and the `.dza` manifest share, as
/// little-endian bytes. It is read back from the header of a page built
/// over `data`, so the reseal below always uses the format's own function
/// and width.
fn checksum_le(data: &[u8]) -> Vec<u8> {
    let page = dz_lossless::compress(data);
    let (_, sum) = dz_lossless::declared_len_and_checksum(&page).expect("fresh page parses");
    sum.to_le_bytes().to_vec()
}

/// One tensor of a container taken apart.
struct Part {
    name: String,
    kind: TensorKind,
    page: Vec<u8>,
    /// Where the entry's `offset | comp_len | raw_len | checksum` sit in
    /// the manifest.
    at: usize,
    /// A `comp_len` to record instead of the page's length.
    comp_len: Option<u64>,
    raw_len: u64,
    sum: Vec<u8>,
}

/// A `.dza` container taken apart into pages and manifest, to be mutated
/// and put back together with every offset and checksum recomputed.
struct Parts {
    head: Vec<u8>,
    manifest: Vec<u8>,
    tensors: Vec<Part>,
}

impl Parts {
    fn of(bytes: &[u8]) -> Parts {
        let width = checksum_le(b"").len();
        let footer = 8 + 8 + width + 4;
        let at_footer = bytes.len() - footer;
        let manifest_offset = u64::from_le_bytes(bytes[at_footer..][..8].try_into().unwrap());
        let manifest = bytes[manifest_offset as usize..at_footer].to_vec();
        let reader = ArtifactReader::open(Cursor::new(bytes)).expect("open");
        let tensors = reader
            .manifest()
            .tensors
            .iter()
            .map(|t| {
                let fields = [t.offset, t.comp_len, t.raw_len]
                    .map(u64::to_le_bytes)
                    .concat();
                let at = manifest
                    .windows(fields.len())
                    .position(|w| w == fields.as_slice())
                    .expect("entry fields in the manifest");
                let extent = t.offset as usize..(t.offset + t.comp_len) as usize;
                Part {
                    name: t.name.clone(),
                    kind: t.kind,
                    page: bytes[extent].to_vec(),
                    at,
                    comp_len: None,
                    raw_len: t.raw_len,
                    sum: manifest[at + 24..][..width].to_vec(),
                }
            })
            .collect();
        Parts {
            head: bytes[..6].to_vec(),
            manifest,
            tensors,
        }
    }

    /// Pages back to back, entries and footer rewritten to match them, and
    /// a fresh manifest checksum.
    fn assemble(&self) -> Vec<u8> {
        let mut manifest = self.manifest.clone();
        let mut out = self.head.clone();
        for t in &self.tensors {
            let offset = out.len() as u64;
            out.extend_from_slice(&t.page);
            let comp_len = t.comp_len.unwrap_or(t.page.len() as u64);
            let mut fields = [offset, comp_len, t.raw_len].map(u64::to_le_bytes).concat();
            fields.extend_from_slice(&t.sum);
            manifest[t.at..][..fields.len()].copy_from_slice(&fields);
        }
        let manifest_offset = out.len() as u64;
        out.extend_from_slice(&manifest);
        out.extend_from_slice(&manifest_offset.to_le_bytes());
        out.extend_from_slice(&(manifest.len() as u64).to_le_bytes());
        out.extend_from_slice(&checksum_le(&manifest));
        out.extend_from_slice(b"DZAE");
        out
    }

    /// Replaces a tensor's wire record, as a fresh page whose header
    /// checksum the manifest entry copies.
    fn reseal_record(&mut self, i: usize, raw: &[u8]) {
        let t = &mut self.tensors[i];
        t.page = dz_lossless::compress(raw);
        t.raw_len = raw.len() as u64;
        t.sum = checksum_le(raw);
    }
}

/// Per-tensor wire records of a container, by name.
fn records(bytes: &[u8]) -> BTreeMap<String, Vec<u8>> {
    let mut reader = ArtifactReader::open(Cursor::new(bytes)).expect("open");
    let names: Vec<String> = reader
        .manifest()
        .tensors
        .iter()
        .map(|t| t.name.clone())
        .collect();
    names
        .into_iter()
        .map(|n| {
            let raw = reader.read_tensor_bytes(&n).expect("record");
            (n, raw)
        })
        .collect()
}

/// Whether a mutated container reads as the original. A reader may refuse
/// it at open, at the whole-delta read or at any single tensor, with a
/// typed error; whatever it does decode must be the original data.
fn reads_as_original(bytes: &[u8], delta: &CompressedDelta) -> Result<bool, TestCaseError> {
    let Ok(mut reader) = ArtifactReader::open(Cursor::new(bytes)) else {
        return Ok(false);
    };
    let mut original = match reader.read_delta() {
        Ok(back) => {
            prop_assert_eq!(&back, delta);
            true
        }
        Err(_) => false,
    };
    for (name, want) in &delta.layers {
        match reader.read_packed(name) {
            Ok(got) => prop_assert_eq!(&got, want, "tensor `{}`", name),
            Err(_) => original = false,
        }
    }
    for (name, want) in &delta.rest {
        match reader.read_dense(name) {
            Ok(got) => prop_assert_eq!(&got, want, "tensor `{}`", name),
            Err(_) => original = false,
        }
    }
    Ok(original)
}

/// Offsets of the `u64` (or, for a low-rank band count, `u16`) element
/// counts in one tensor's wire record, with their widths. `n_scales` is
/// anchored at the record's end, where the scales are.
fn count_fields(
    kind: TensorKind,
    raw: &[u8],
    delta: &CompressedDelta,
    name: &str,
) -> Vec<(usize, usize)> {
    let end_anchored = |n_scales: usize| raw.len() - 4 * n_scales - 8;
    match (kind, delta.layers.get(name)) {
        (TensorKind::DenseRest, _) => vec![(0, 8), (8, 8)],
        (TensorKind::PackedLinear, Some(PackedLayer::Quant(cm))) => {
            // n_level_words, then n_scales.
            vec![(29, 8), (end_anchored(cm.scales.len()), 8)]
        }
        (TensorKind::PackedLinear, Some(PackedLayer::Sign(sm))) => {
            // n_words, then n_scales.
            vec![(18, 8), (end_anchored(sm.scales.len()), 8)]
        }
        // n_bands, then the first factor's n_level_words.
        (TensorKind::PackedLinear, Some(PackedLayer::LowRank(_))) => vec![(17, 2), (19 + 29, 8)],
        (TensorKind::PackedLinear, None) => unreachable!("every packed tensor is a layer"),
    }
}

/// An inflated value for a length field of `width` bytes holding `v`: one
/// past it, or a value no reader could allocate for (2^47 bytes or
/// elements, or the field's maximum). A reader that reserved memory for
/// one of the large values before refusing it would abort this test
/// binary, so a passing run shows each one is refused first.
fn inflate(v: u64, width: usize, pick: u8) -> u64 {
    let max = if width == 8 {
        u64::MAX
    } else {
        (1u64 << (8 * width)) - 1
    };
    match pick % 3 {
        0 => v.saturating_add(1).min(max),
        1 if width == 8 => 1 << 47,
        _ => max,
    }
}

fn read_le(bytes: &[u8], at: usize, width: usize) -> u64 {
    let mut b = [0u8; 8];
    b[..width].copy_from_slice(&bytes[at..at + width]);
    u64::from_le_bytes(b)
}

fn write_le(bytes: &mut [u8], at: usize, width: usize, v: u64) {
    bytes[at..at + width].copy_from_slice(&v.to_le_bytes()[..width]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn reassembly_is_the_identity(seed in any::<u64>()) {
        let bytes = container(&arb_delta(seed, 2, 6, 4, 4));
        prop_assert!(Parts::of(&bytes).assemble() == bytes);
    }

    #[test]
    fn spliced_pages_are_refused_or_harmless(
        seed in any::<u64>(),
        from in any::<proptest::sample::Index>(),
        onto in any::<proptest::sample::Index>(),
        reseal in any::<bool>(),
    ) {
        let delta = arb_delta(seed, 2, 6, 4, 4);
        let bytes = container(&delta);
        let raw = records(&bytes);
        let mut parts = Parts::of(&bytes);
        let n = parts.tensors.len();
        let (a, b) = (from.index(n), onto.index(n));
        let page = parts.tensors[a].page.clone();
        let spliced = if reseal {
            // Tensor a's page in b's slot, the extents rewritten to fit;
            // b's entry keeps its own raw length and checksum.
            parts.tensors[b].page = page;
            parts.assemble()
        } else {
            // Tensor a's page copied over b's extent in place, as far as
            // that extent reaches.
            let mut out = bytes.clone();
            let reader = ArtifactReader::open(Cursor::new(&bytes)).expect("open");
            let t = &reader.manifest().tensors[b];
            let len = page.len().min(t.comp_len as usize);
            out[t.offset as usize..][..len].copy_from_slice(&page[..len]);
            out
        };
        let same = a == b || raw[&parts.tensors[a].name] == raw[&parts.tensors[b].name];
        let original = reads_as_original(&spliced, &delta)?;
        prop_assert!(same || !original, "page {} spliced onto {} was accepted", a, b);
    }

    #[test]
    fn inflated_lengths_are_refused_before_allocating(
        seed in any::<u64>(),
        field in 0usize..9,
        which in any::<proptest::sample::Index>(),
        pick in any::<u8>(),
    ) {
        let delta = arb_delta(seed, 2, 6, 4, 4);
        let bytes = container(&delta);
        let raw = records(&bytes);
        let mut parts = Parts::of(&bytes);
        let i = which.index(parts.tensors.len());
        let width = checksum_le(b"").len();
        // Page header: magic 4 | version 1 | page_size u32 | raw_len u64 |
        // checksum, then one page-table entry { comp_len u32, mode u8 } per
        // page.
        let table_at = 17 + width;
        let mutated = match field {
            0 => {
                let t = &mut parts.tensors[i];
                t.comp_len = Some(inflate(t.page.len() as u64, 8, pick));
                parts.assemble()
            }
            1 => {
                let t = &mut parts.tensors[i];
                t.raw_len = inflate(t.raw_len, 8, pick);
                parts.assemble()
            }
            2 => {
                // The footer's manifest_len, which no checksum covers.
                let mut out = bytes.clone();
                let at = out.len() - (4 + width + 8);
                let v = read_le(&out, at, 8);
                write_le(&mut out, at, 8, inflate(v, 8, pick));
                out
            }
            3 => {
                // The manifest's tensor count sits just before the first
                // entry: count u32 | name u16-prefixed | kind u8 | codec u8.
                let first = &parts.tensors[0];
                let at = first.at - 2 - first.name.len() - 2 - 4;
                let v = read_le(&parts.manifest, at, 4);
                write_le(&mut parts.manifest, at, 4, inflate(v, 4, pick));
                parts.assemble()
            }
            4 => {
                // A page's raw length, in its header and in the manifest
                // alike, so the codec's own bound is what refuses it.
                let t = &mut parts.tensors[i];
                let v = inflate(read_le(&t.page, 9, 8), 8, pick);
                write_le(&mut t.page, 9, 8, v);
                t.raw_len = v;
                parts.assemble()
            }
            5 => {
                // The page count, which raw_len and page_size determine:
                // page_size shrunk so the count grows by one, or to one byte
                // so the count is raw_len.
                let t = &mut parts.tensors[i];
                let raw_len = read_le(&t.page, 9, 8);
                let page_size = if pick.is_multiple_of(3) { raw_len - 1 } else { 1 };
                write_le(&mut t.page, 5, 4, page_size);
                parts.assemble()
            }
            6 => {
                // The first page-table length.
                let t = &mut parts.tensors[i];
                let at = table_at;
                let v = read_le(&t.page, at, 4);
                write_le(&mut t.page, at, 4, inflate(v, 4, pick));
                parts.assemble()
            }
            _ => {
                // An element count inside the wire record, resealed under
                // fresh page and manifest checksums.
                let t = &parts.tensors[i];
                let mut record = raw[&t.name].clone();
                let fields = count_fields(t.kind, &record, &delta, &t.name);
                let (at, w) = fields[(field - 7) % fields.len()];
                let v = read_le(&record, at, w);
                write_le(&mut record, at, w, inflate(v, w, pick));
                parts.reseal_record(i, &record);
                parts.assemble()
            }
        };
        prop_assert!(mutated != bytes, "field {} left the container unchanged", field);
        let original = reads_as_original(&mutated, &delta)?;
        prop_assert!(!original, "inflated field {} of tensor {} was accepted", field, i);
    }
}
