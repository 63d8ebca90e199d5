//! Deterministic tests of the `.dza` container, the content-addressed
//! registry, and the tiered store.

use dz_compress::codec::{CodecId, PackedLayer, SignMatrix, SignScope};
use dz_compress::pack::CompressedMatrix;
use dz_compress::pipeline::{CompressedDelta, DeltaCompressConfig, SizeReport};
use dz_compress::quant::{quantize_slice, QuantSpec};
use dz_store::{
    sha256, ArtifactReader, ArtifactWriter, FetchTier, Registry, StoreError, TensorKind,
    TieredDeltaStore,
};
use dz_tensor::{Matrix, Rng};
use std::collections::BTreeMap;
use std::io::Cursor;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("dz-store-test-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn packed_matrix(d_out: usize, d_in: usize, bits: u32, seed: u64) -> CompressedMatrix {
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

fn fixture_delta(seed: u64) -> CompressedDelta {
    let mut layers = BTreeMap::new();
    layers.insert(
        "layers.0.wq".to_string(),
        PackedLayer::Quant(packed_matrix(8, 16, 4, seed)),
    );
    layers.insert(
        "layers.0.wk".to_string(),
        PackedLayer::Quant(packed_matrix(8, 16, 2, seed ^ 1)),
    );
    let mut rest = BTreeMap::new();
    let mut rng = Rng::seeded(seed ^ 2);
    rest.insert("tok_emb".to_string(), Matrix::randn(12, 8, 1.0, &mut rng));
    rest.insert("ln.g".to_string(), Matrix::randn(1, 8, 0.1, &mut rng));
    let compressed: usize = layers.values().map(|c| c.packed_bytes()).sum();
    CompressedDelta {
        layers,
        rest,
        codec: CodecId::SparseGptStar,
        config: DeltaCompressConfig::starred(4),
        report: SizeReport {
            compressed_linear_bytes: compressed,
            uncompressed_rest_bytes: (12 * 8 + 8) * 2,
            full_fp16_bytes: 4096,
            lossless_linear_bytes: None,
        },
    }
}

fn container_bytes(delta: &CompressedDelta, name: &str) -> Vec<u8> {
    let sink = Cursor::new(Vec::new());
    let out = dz_store::dza::write_delta(sink, name, sha256(b"base"), delta).expect("write");
    out.into_inner()
}

#[test]
fn container_round_trips_a_delta() {
    let delta = fixture_delta(1);
    let bytes = container_bytes(&delta, "vicuna-tiny");
    let mut reader = ArtifactReader::open(Cursor::new(&bytes)).expect("open");
    assert_eq!(reader.manifest().name, "vicuna-tiny");
    assert_eq!(reader.manifest().base_hash, sha256(b"base"));
    assert_eq!(reader.manifest().tensors.len(), 4);
    let back = reader.read_delta().expect("read delta");
    assert_eq!(back, delta);
}

#[test]
fn single_tensors_are_randomly_accessible() {
    let delta = fixture_delta(2);
    let bytes = container_bytes(&delta, "v");
    let mut reader = ArtifactReader::open(Cursor::new(&bytes)).expect("open");
    // Read in an order unrelated to file order.
    let emb = reader.read_dense("tok_emb").expect("dense");
    assert_eq!(&emb, &delta.rest["tok_emb"]);
    let wk = reader.read_packed("layers.0.wk").expect("packed");
    assert_eq!(&wk, &delta.layers["layers.0.wk"]);
    // Kind confusion is rejected.
    assert!(matches!(
        reader.read_packed("tok_emb"),
        Err(StoreError::Corrupt(_))
    ));
    // A page that checks out against its own header CRC but not against
    // the manifest's is refused, naming the tensor; the others still read.
    let entry = reader.manifest().entry("tok_emb").expect("entry").clone();
    let mut raw = reader.read_tensor_bytes("tok_emb").expect("raw");
    let last = raw.len() - 4;
    raw[last] ^= 0x01; // a mantissa bit of the last value
    let page = dz_lossless::compress(&raw);
    assert_eq!(page.len() as u64, entry.comp_len);
    let mut tampered = bytes.clone();
    tampered[entry.offset as usize..][..page.len()].copy_from_slice(&page);
    let mut reader = ArtifactReader::open(Cursor::new(&tampered)).expect("open");
    match reader.read_dense("tok_emb") {
        Err(StoreError::ChecksumMismatch { tensor: Some(name) }) => assert_eq!(name, "tok_emb"),
        other => panic!("expected a checksum mismatch, got {other:?}"),
    }
    assert_eq!(
        &reader.read_packed("layers.0.wk").expect("packed"),
        &delta.layers["layers.0.wk"]
    );
    assert!(matches!(
        reader.read_dense("nope"),
        Err(StoreError::UnknownTensor(_))
    ));
}

#[test]
fn streaming_writer_matches_write_delta() {
    let delta = fixture_delta(3);
    let mut w = ArtifactWriter::new(
        Cursor::new(Vec::new()),
        "v",
        sha256(b"base"),
        delta.codec,
        delta.config,
        delta.report,
    )
    .expect("writer");
    for (name, cm) in &delta.layers {
        w.add_packed(name, cm).expect("add packed");
    }
    for (name, m) in &delta.rest {
        w.add_dense(name, m).expect("add dense");
    }
    let streamed = w.finish().expect("finish").into_inner();
    assert_eq!(streamed, container_bytes(&delta, "v"));
}

#[test]
fn duplicate_tensor_names_rejected() {
    let delta = fixture_delta(4);
    let mut w = ArtifactWriter::new(
        Cursor::new(Vec::new()),
        "v",
        sha256(b"base"),
        delta.codec,
        delta.config,
        delta.report,
    )
    .expect("writer");
    w.add_packed("wq", &delta.layers["layers.0.wq"])
        .expect("first");
    assert!(matches!(
        w.add_packed("wq", &delta.layers["layers.0.wq"]),
        Err(StoreError::InvalidName(_))
    ));
}

#[test]
fn bad_magic_and_version_are_typed_errors() {
    let bytes = container_bytes(&fixture_delta(5), "v");
    let mut garbled = bytes.clone();
    garbled[0] = b'X';
    assert!(matches!(
        ArtifactReader::open(Cursor::new(&garbled)),
        Err(StoreError::BadMagic)
    ));
    let mut versioned = bytes.clone();
    versioned[4] = 0xFF;
    assert!(matches!(
        ArtifactReader::open(Cursor::new(&versioned)),
        Err(StoreError::BadVersion(_))
    ));
    assert!(ArtifactReader::open(Cursor::new(b"".as_slice())).is_err());
}

#[test]
fn manifest_knows_payload_bytes() {
    let delta = fixture_delta(6);
    let bytes = container_bytes(&delta, "v");
    let reader = ArtifactReader::open(Cursor::new(&bytes)).expect("open");
    let payload: u64 = reader.manifest().tensors.iter().map(|t| t.comp_len).sum();
    assert!(payload > 0 && payload < bytes.len() as u64);
    for t in &reader.manifest().tensors {
        assert!(matches!(
            t.kind,
            TensorKind::PackedLinear | TensorKind::DenseRest
        ));
    }
}

#[test]
fn registry_publishes_content_addressed_and_deduplicates() {
    let dir = temp_dir("registry");
    let registry = Registry::open(&dir).expect("open");
    let delta = fixture_delta(7);
    let id1 = registry
        .publish_delta("variant-a", sha256(b"base"), &delta)
        .expect("publish");
    // Re-publishing identical content under the same name is idempotent:
    // the bytes hash to the same address and deduplicate on disk.
    let id2 = registry
        .publish_delta("variant-a", sha256(b"base"), &delta)
        .expect("republish");
    assert_eq!(id1, id2);
    assert_eq!(registry.list().expect("list"), vec![id1]);
    // A different name is a different artifact (the name is part of the
    // manifest) with its own ref.
    let id3 = registry
        .publish_delta("variant-b", sha256(b"base"), &delta)
        .expect("publish b");
    assert_ne!(id1, id3);
    let mut want = vec![id1, id3];
    want.sort();
    assert_eq!(registry.list().expect("list"), want);
    assert_eq!(registry.resolve("variant-a").expect("ref a"), id1);
    assert_eq!(registry.resolve("variant-b").expect("ref b"), id3);
    assert!(registry.resolve("missing").is_err());
    // The file name is the hash of the bytes.
    registry.verify(&id1).expect("verify");
    let loaded = registry
        .open_artifact(&id1)
        .and_then(|mut reader| reader.read_delta())
        .expect("load");
    assert_eq!(loaded, delta);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_publishes_do_not_collide() {
    let dir = temp_dir("concurrent");
    let registry = Registry::open(&dir).expect("open");
    let ids: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let registry = registry.clone();
                scope.spawn(move || {
                    registry
                        .publish_delta(
                            &format!("thread-variant-{i}"),
                            sha256(b"base"),
                            &fixture_delta(40 + i),
                        )
                        .expect("publish")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });
    // Every artifact landed intact and every ref resolves.
    for (i, id) in ids.iter().enumerate() {
        registry.verify(id).expect("artifact integrity");
        assert_eq!(
            registry
                .resolve(&format!("thread-variant-{i}"))
                .expect("ref"),
            *id
        );
    }
    assert_eq!(registry.list().expect("list").len(), 4);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn registry_verify_detects_tampering() {
    let dir = temp_dir("tamper");
    let registry = Registry::open(&dir).expect("open");
    let id = registry
        .publish_delta("v", sha256(b"base"), &fixture_delta(8))
        .expect("publish");
    let path = registry.path_of(&id);
    let mut bytes = std::fs::read(&path).expect("read");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).expect("write");
    assert!(matches!(
        registry.verify(&id),
        Err(StoreError::ChecksumMismatch { .. })
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn invalid_ref_names_rejected() {
    let dir = temp_dir("names");
    let registry = Registry::open(&dir).expect("open");
    let delta = fixture_delta(9);
    for bad in ["", "a\tb", "a/b", ".hidden", "a\nb"] {
        assert!(
            matches!(
                registry.publish_delta(bad, sha256(b"base"), &delta),
                Err(StoreError::InvalidName(_))
            ),
            "name {bad:?} must be rejected"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tiered_store_tracks_hits_misses_and_bytes() {
    let dir = temp_dir("tiered");
    let registry = Registry::open(&dir).expect("open");
    let id = registry
        .publish_delta("v", sha256(b"base"), &fixture_delta(10))
        .expect("publish");
    let size = registry.size_of(&id).expect("size");
    let mut store = TieredDeltaStore::new(registry, 10 * size);
    let first = store.fetch(&id).expect("first fetch");
    assert_eq!(first.tier, FetchTier::DiskMiss);
    assert_eq!(first.bytes, size);
    let second = store.fetch(&id).expect("second fetch");
    assert_eq!(second.tier, FetchTier::HostHit);
    assert_eq!(second.bytes, size);
    let stats = store.stats(&id);
    assert_eq!(stats.disk_loads, 1);
    assert_eq!(stats.host_hits, 1);
    assert_eq!(stats.disk_bytes, size);
    assert_eq!(stats.host_bytes, size);
    assert_eq!(store.total_stats(), stats);
    std::fs::remove_dir_all(store.registry().root()).ok();
}

#[test]
fn tiered_store_evicts_lru_under_byte_budget() {
    let dir = temp_dir("lru");
    let registry = Registry::open(&dir).expect("open");
    let ids: Vec<_> = (0..3)
        .map(|i| {
            registry
                .publish_delta(&format!("v{i}"), sha256(b"base"), &fixture_delta(20 + i))
                .expect("publish")
        })
        .collect();
    let max_size = ids
        .iter()
        .map(|id| registry.size_of(id).expect("size"))
        .max()
        .expect("nonempty");
    // Room for roughly two artifacts, never three.
    let mut store = TieredDeltaStore::new(registry, 2 * max_size);
    assert_eq!(store.fetch(&ids[0]).expect("a").tier, FetchTier::DiskMiss);
    assert_eq!(store.fetch(&ids[1]).expect("b").tier, FetchTier::DiskMiss);
    // Touch 0 so 1 becomes the LRU victim.
    assert_eq!(store.fetch(&ids[0]).expect("c").tier, FetchTier::HostHit);
    assert_eq!(store.fetch(&ids[2]).expect("d").tier, FetchTier::DiskMiss);
    assert!(store.resident_bytes() <= store.budget_bytes());
    assert!(store.is_resident(&ids[0]) || store.is_resident(&ids[2]));
    assert!(!store.is_resident(&ids[1]), "LRU victim must be evicted");
    // Re-fetching the victim is a miss again.
    assert_eq!(store.fetch(&ids[1]).expect("e").tier, FetchTier::DiskMiss);
    std::fs::remove_dir_all(store.registry().root()).ok();
}

/// A wide delta: many packed tensors and one dense rest tensor.
fn wide_delta() -> CompressedDelta {
    let mut layers = BTreeMap::new();
    for i in 0..12 {
        layers.insert(
            format!("layers.{i:02}.w"),
            PackedLayer::Quant(packed_matrix(48, 64, 4, 60 + i)),
        );
    }
    let mut rng = Rng::seeded(77);
    let mut rest = BTreeMap::new();
    rest.insert("tok_emb".to_string(), Matrix::randn(64, 48, 1.0, &mut rng));
    CompressedDelta {
        layers,
        rest,
        codec: CodecId::SparseGptStar,
        config: DeltaCompressConfig::starred(4),
        report: SizeReport {
            compressed_linear_bytes: 1,
            uncompressed_rest_bytes: 1,
            full_fp16_bytes: 1,
            lossless_linear_bytes: None,
        },
    }
}

#[test]
fn pipelined_read_matches_serial_and_reports_stats() {
    // A whole-delta read must match single-tensor reads tensor for tensor.
    let delta = wide_delta();
    let bytes = container_bytes(&delta, "wide");
    let mut reader = ArtifactReader::open(Cursor::new(&bytes)).expect("open");
    let comp: u64 = reader.manifest().tensors.iter().map(|t| t.comp_len).sum();
    let (fast, stats) = reader.read_delta_with_stats().expect("whole read");
    assert_eq!(fast, delta);
    assert_eq!(stats.tensors, 13);
    assert_eq!(
        stats.compressed_bytes, comp,
        "stats must account every compressed byte"
    );
    let raw: u64 = reader.manifest().tensors.iter().map(|t| t.raw_len).sum();
    assert_eq!(stats.raw_bytes, raw);
    assert!(stats.wall_s > 0.0);
    for (name, layer) in &fast.layers {
        assert_eq!(&reader.read_packed(name).expect("packed"), layer);
    }
    for (name, m) in &fast.rest {
        assert_eq!(&reader.read_dense(name).expect("dense"), m);
    }
}

#[test]
fn whole_read_reports_the_first_corrupt_tensor_in_file_order() {
    // Corrupt one tensor near each end of the file; the error must name
    // the earlier one.
    let delta = wide_delta();
    let mut bytes = container_bytes(&delta, "wide");
    let tensors = ArtifactReader::open(Cursor::new(&bytes))
        .expect("open")
        .manifest()
        .tensors
        .clone();
    let (first, second) = (&tensors[1], &tensors[tensors.len() - 2]);
    for t in [second, first] {
        // Random 4-bit levels do not shrink, so the page is stored and its
        // last byte is record data that only the page CRC guards.
        assert!(t.comp_len > t.raw_len, "`{}` is entropy-coded", t.name);
        bytes[(t.offset + t.comp_len - 1) as usize] ^= 0x10;
    }
    let mut reader = ArtifactReader::open(Cursor::new(&bytes)).expect("open");
    match reader.read_delta_with_stats() {
        Err(StoreError::ChecksumMismatch { tensor: Some(name) }) => {
            assert_eq!(name, first.name)
        }
        other => panic!(
            "expected a checksum mismatch, got {:?}",
            other.map(|(_, s)| s)
        ),
    }
}

#[test]
fn fetch_decoded_measures_then_reuses_resident_delta() {
    let dir = temp_dir("decoded");
    let registry = Registry::open(&dir).expect("open");
    let delta = fixture_delta(55);
    let id = registry
        .publish_delta("v", sha256(b"base"), &delta)
        .expect("publish");
    let size = registry.size_of(&id).expect("size");
    let mut store = TieredDeltaStore::new(registry, 10 * size);
    // Miss: decode runs and is measured.
    let first = store.fetch_decoded(&id).expect("miss");
    assert_eq!(first.tier, FetchTier::DiskMiss);
    assert_eq!(first.bytes, size);
    assert_eq!(*first.delta, delta);
    let stats = first.decode.expect("decode measured on miss");
    assert!(stats.wall_s > 0.0 && stats.compressed_bytes > 0);
    assert_eq!(store.decode_throughput().loads, 1);
    assert!(store.decode_throughput().effective_gbps().is_some());
    // Hit: the decoded delta is resident, no decode runs.
    let second = store.fetch_decoded(&id).expect("hit");
    assert_eq!(second.tier, FetchTier::HostHit);
    assert!(second.decode.is_none(), "host hit must not re-decode");
    assert_eq!(*second.delta, delta);
    assert_eq!(store.decode_throughput().loads, 1);
    // Eviction drops the decoded copy; a re-fetch re-measures.
    store.evict(&id);
    let third = store.fetch_decoded(&id).expect("recold");
    assert_eq!(third.tier, FetchTier::DiskMiss);
    assert!(third.decode.is_some());
    assert_eq!(store.decode_throughput().loads, 2);
    std::fs::remove_dir_all(store.registry().root()).ok();
}

#[test]
fn decoded_copies_count_against_the_byte_budget() {
    let dir = temp_dir("decoded-budget");
    let registry = Registry::open(&dir).expect("open");
    let ids: Vec<_> = (0..3)
        .map(|i| {
            registry
                .publish_delta(&format!("v{i}"), sha256(b"base"), &fixture_delta(80 + i))
                .expect("publish")
        })
        .collect();
    let comp_max = ids
        .iter()
        .map(|id| registry.size_of(id).expect("size"))
        .max()
        .expect("nonempty");
    // Generous for compressed bytes alone, tight once raw decoded copies
    // ride along: the budget must still hold.
    let budget = 4 * comp_max;
    let mut store = TieredDeltaStore::new(registry, budget);
    for id in &ids {
        store.fetch_decoded(id).expect("decoded fetch");
        assert!(
            store.resident_bytes() <= store.budget_bytes(),
            "resident {} exceeds budget {} after decoded fetch",
            store.resident_bytes(),
            store.budget_bytes()
        );
    }
    // A budget smaller than one artifact's compressed+decoded footprint
    // serves decodes uncached instead of pinning an over-budget entry.
    let registry2 = Registry::open(&dir).expect("reopen");
    let mut tiny = TieredDeltaStore::new(registry2, comp_max + comp_max / 4);
    tiny.fetch_decoded(&ids[0]).expect("oversize decode");
    assert!(tiny.resident_bytes() <= tiny.budget_bytes());
    std::fs::remove_dir_all(store.registry().root()).ok();
}

#[test]
fn oversized_artifacts_are_served_uncached() {
    let dir = temp_dir("oversize");
    let registry = Registry::open(&dir).expect("open");
    let id = registry
        .publish_delta("v", sha256(b"base"), &fixture_delta(30))
        .expect("publish");
    let size = registry.size_of(&id).expect("size");
    let mut store = TieredDeltaStore::new(registry, size / 2);
    assert_eq!(store.fetch(&id).expect("a").tier, FetchTier::DiskMiss);
    assert_eq!(store.fetch(&id).expect("b").tier, FetchTier::DiskMiss);
    assert_eq!(store.resident_bytes(), 0);
    std::fs::remove_dir_all(store.registry().root()).ok();
}

#[test]
fn manifest_records_codec_ids_per_tensor() {
    let mut delta = fixture_delta(90);
    // A BitDelta-style artifact: sign/scale layers, BitDelta codec id.
    let mut rng = Rng::seeded(91);
    let sign = SignMatrix::from_delta(&Matrix::randn(16, 8, 0.01, &mut rng), SignScope::PerRow);
    delta
        .layers
        .insert("layers.0.wv".to_string(), PackedLayer::Sign(sign));
    delta.codec = CodecId::BitDelta;
    let bytes = container_bytes(&delta, "bitdelta-variant");
    let mut reader = ArtifactReader::open(Cursor::new(&bytes)).expect("open");
    assert_eq!(reader.manifest().codec, CodecId::BitDelta);
    // Tensor headers record each layer's own format family, so the mixed
    // artifact is inspectable per tensor without decoding pages.
    for t in &reader.manifest().tensors {
        let want = match (t.kind, t.name.as_str()) {
            (TensorKind::DenseRest, _) => None,
            (TensorKind::PackedLinear, "layers.0.wv") => Some(CodecId::BitDelta),
            (TensorKind::PackedLinear, _) => Some(CodecId::SparseGptStar),
        };
        assert_eq!(t.codec, want, "tensor {}", t.name);
    }
    // The whole delta (mixed quant + sign layers) round-trips.
    let back = reader.read_delta().expect("read");
    assert_eq!(back, delta);
    // And the sign layer is randomly accessible on its own.
    let wv = reader.read_packed("layers.0.wv").expect("packed");
    assert_eq!(&wv, &delta.layers["layers.0.wv"]);
}

#[test]
fn version_2_containers_are_refused() {
    // Version 2 stored quantized layers bit-packed; no reader for it is
    // kept, and its pages would not parse as version-3 records.
    let mut bytes = container_bytes(&fixture_delta(95), "legacy");
    bytes[4..6].copy_from_slice(&2u16.to_le_bytes());
    assert!(matches!(
        ArtifactReader::open(Cursor::new(&bytes)),
        Err(StoreError::BadVersion(2))
    ));
}
