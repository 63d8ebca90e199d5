//! The `.dza` (DeltaZip Artifact) container format.
//!
//! A `.dza` file holds one compressed model delta: its lineage (the hash of
//! the base model it patches), the quantization configuration that produced
//! it, and every tensor as an independently readable, losslessly compressed
//! page. All integers are little-endian.
//!
//! This is version 4 ([`DZA_VERSION`]), the only version written or read;
//! no reader for older containers is kept. A quantized tensor's wire
//! record holds the byte-lane words the kernels read (see
//! `dz_compress::pack`), so a decoded layer is served as it is, with no
//! re-layout step. Every checksum is `dz_lossless::checksum::hash64`, a
//! 64-bit four-lane hash that detects any change confined to one 8-byte
//! word of its input.
//!
//! ```text
//! +--------------------------------------------------------------+
//! | head:    magic "DZA1" | version u16                          |
//! +--------------------------------------------------------------+
//! | tensor pages, back to back                                   |
//! |   each page = dz_lossless::compress(wire bytes of tensor)    |
//! +--------------------------------------------------------------+
//! | manifest: name | base_hash[32] | config | size report        |
//! |           n_tensors u32                                      |
//! |           { name | kind u8 | offset u64 | comp_len u64       |
//! |             raw_len u64 | checksum u64 } x n_tensors         |
//! +--------------------------------------------------------------+
//! | footer:  manifest_offset u64 | manifest_len u64              |
//! |          manifest_checksum u64 | magic "DZAE"                |
//! +--------------------------------------------------------------+
//! ```
//!
//! The manifest sits *after* the payload (zip-style central directory) so
//! [`ArtifactWriter`] can stream to any `io::Write` without seeking, while
//! [`ArtifactReader`] seeks to the fixed-size footer and then random-reads
//! individual tensors. The pages lie back to back in manifest order and
//! fill the bytes between head and manifest exactly. Every tensor page
//! carries the paged codec's own checksum of the raw bytes in its header,
//! and the manifest records the same checksum and raw length. The writer
//! copies the entry's value from the page header it just built, and a
//! read checks that the two records agree before decoding, then lets the
//! codec check its output against them, so each tensor is hashed once on
//! either side. Corruption anywhere — header, page, or
//! directory — surfaces as a typed [`StoreError`], never as silently wrong
//! weights.
//!
//! A whole-delta read ([`ArtifactReader::read_delta_with_stats`]) reads
//! every page with one read, then decodes one tensor at a time in file
//! order. Most pages of a served delta are stored (see
//! `dz_lossless::page`), so decoding one is a checksum pass over the read
//! buffer, and the wire decode reads the page in place.

use crate::error::StoreError;
use crate::hash::Digest;
use dz_compress::codec::{CodecId, PackedLayer};
use dz_compress::pipeline::{CompressedDelta, DeltaCompressConfig, SizeReport};
use dz_compress::wire::{self, put_name, Reader as WireReader};
use dz_lossless::checksum::hash64;
use dz_lossless::CodecError;
use dz_tensor::Matrix;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io::{Read, Seek, SeekFrom, Write};
use std::time::Instant;

/// Leading container magic.
pub const DZA_MAGIC: &[u8; 4] = b"DZA1";
/// Container format version, the only one [`ArtifactWriter`] writes and
/// [`ArtifactReader`] opens. Version 4 checksums every tensor and the
/// manifest with the 64-bit `hash64` (version 3 used CRC32) and stores
/// quantized layers in the byte-lane layout the kernels read (see
/// `dz_compress::wire`); an older container is refused with
/// [`StoreError::BadVersion`].
pub const DZA_VERSION: u16 = 4;
/// Tensor-header codec byte meaning "no codec" (dense rest tensors).
const CODEC_NONE: u8 = 0xFF;
/// Trailing footer magic.
const FOOTER_MAGIC: &[u8; 4] = b"DZAE";
/// Head size: magic + version.
const HEAD_LEN: u64 = 6;
/// Footer size: manifest offset + length + checksum + magic.
const FOOTER_LEN: u64 = 28;

/// What a tensor page decodes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TensorKind {
    /// A compressed linear-layer delta ([`PackedLayer`] wire record —
    /// any method-zoo format).
    PackedLinear,
    /// An uncompressed FP32 rest tensor (dense wire record).
    DenseRest,
}

/// One tensor's location and integrity data.
#[derive(Debug, Clone, PartialEq)]
pub struct TensorEntry {
    /// Stable parameter name.
    pub name: String,
    /// Page payload type.
    pub kind: TensorKind,
    /// Method-zoo codec that produced the page payload (`None` for dense
    /// rest tensors).
    pub codec: Option<CodecId>,
    /// Byte offset of the page within the file.
    pub offset: u64,
    /// Compressed page length in bytes.
    pub comp_len: u64,
    /// Decompressed (wire record) length in bytes.
    pub raw_len: u64,
    /// `hash64` of the decompressed wire record, the value its page
    /// header holds.
    pub checksum: u64,
}

/// The artifact directory: lineage, quantization recipe, tensor index.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Variant name the artifact was published under.
    pub name: String,
    /// Content hash of the base model this delta patches.
    pub base_hash: Digest,
    /// The method-zoo codec that produced the delta.
    pub codec: CodecId,
    /// The ΔCompress configuration that produced the delta.
    pub config: DeltaCompressConfig,
    /// Byte accounting of the compressed delta.
    pub report: SizeReport,
    /// Per-tensor index in file order.
    pub tensors: Vec<TensorEntry>,
}

impl Manifest {
    /// Looks a tensor up by name.
    pub fn entry(&self, name: &str) -> Option<&TensorEntry> {
        self.tensors.iter().find(|t| t.name == name)
    }

    /// Checks the recorded lineage against the base model the caller
    /// intends to patch.
    pub fn verify_base(&self, expected: &Digest) -> Result<(), StoreError> {
        if self.base_hash != *expected {
            return Err(StoreError::BaseMismatch {
                expected: expected.hex(),
                found: self.base_hash.hex(),
            });
        }
        Ok(())
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_name(&mut out, &self.name);
        out.extend_from_slice(&self.base_hash.0);
        out.push(self.codec.as_u8());
        wire::encode_config(&self.config, &mut out);
        wire::encode_report(&self.report, &mut out);
        out.extend_from_slice(&(self.tensors.len() as u32).to_le_bytes());
        for t in &self.tensors {
            put_name(&mut out, &t.name);
            out.push(match t.kind {
                TensorKind::PackedLinear => 0,
                TensorKind::DenseRest => 1,
            });
            out.push(t.codec.map_or(CODEC_NONE, CodecId::as_u8));
            out.extend_from_slice(&t.offset.to_le_bytes());
            out.extend_from_slice(&t.comp_len.to_le_bytes());
            out.extend_from_slice(&t.raw_len.to_le_bytes());
            out.extend_from_slice(&t.checksum.to_le_bytes());
        }
        out
    }

    fn decode(bytes: &[u8]) -> Result<Manifest, StoreError> {
        let mut r = WireReader::new(bytes);
        let name = r.name()?;
        let mut hash = [0u8; 32];
        for b in hash.iter_mut() {
            *b = r.u8()?;
        }
        let codec =
            CodecId::from_u8(r.u8()?).ok_or(StoreError::Corrupt("unknown manifest codec id"))?;
        let config = wire::decode_config(&mut r)?;
        let report = wire::decode_report(&mut r)?;
        let n = r.u32()? as usize;
        let mut tensors = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let tname = r.name()?;
            let kind = match r.u8()? {
                0 => TensorKind::PackedLinear,
                1 => TensorKind::DenseRest,
                _ => return Err(StoreError::Corrupt("unknown tensor kind")),
            };
            let tensor_codec = match r.u8()? {
                CODEC_NONE => None,
                v => Some(
                    CodecId::from_u8(v).ok_or(StoreError::Corrupt("unknown tensor codec id"))?,
                ),
            };
            tensors.push(TensorEntry {
                name: tname,
                kind,
                codec: tensor_codec,
                offset: r.u64()?,
                comp_len: r.u64()?,
                raw_len: r.u64()?,
                checksum: r.u64()?,
            });
        }
        if !r.is_done() {
            return Err(StoreError::Corrupt("trailing bytes in manifest"));
        }
        Ok(Manifest {
            name,
            base_hash: Digest(hash),
            codec,
            config,
            report,
            tensors,
        })
    }
}

/// Streaming `.dza` writer over any `io::Write` sink (no seeking needed).
pub struct ArtifactWriter<W: Write> {
    sink: W,
    offset: u64,
    manifest: Manifest,
}

impl<W: Write> ArtifactWriter<W> {
    /// Starts a container: writes the head and records lineage + recipe
    /// (including which method-zoo codec produced the delta).
    pub fn new(
        mut sink: W,
        name: &str,
        base_hash: Digest,
        codec: CodecId,
        config: DeltaCompressConfig,
        report: SizeReport,
    ) -> Result<Self, StoreError> {
        if name.len() > u16::MAX as usize {
            return Err(StoreError::InvalidName(name.to_string()));
        }
        sink.write_all(DZA_MAGIC)?;
        sink.write_all(&DZA_VERSION.to_le_bytes())?;
        Ok(ArtifactWriter {
            sink,
            offset: HEAD_LEN,
            manifest: Manifest {
                name: name.to_string(),
                base_hash,
                codec,
                config,
                report,
                tensors: Vec::new(),
            },
        })
    }

    fn add_page(
        &mut self,
        name: &str,
        kind: TensorKind,
        codec: Option<CodecId>,
        raw: &[u8],
    ) -> Result<(), StoreError> {
        if name.len() > u16::MAX as usize {
            return Err(StoreError::InvalidName(name.to_string()));
        }
        if self.manifest.entry(name).is_some() {
            return Err(StoreError::InvalidName(format!(
                "duplicate tensor `{name}`"
            )));
        }
        let page = dz_lossless::compress(raw);
        // The page header already holds the raw bytes' checksum; the entry
        // records that value rather than hashing `raw` again.
        let (raw_len, checksum) = dz_lossless::declared_len_and_checksum(&page)?;
        self.sink.write_all(&page)?;
        self.manifest.tensors.push(TensorEntry {
            name: name.to_string(),
            kind,
            codec,
            offset: self.offset,
            comp_len: page.len() as u64,
            raw_len,
            checksum,
        });
        self.offset += page.len() as u64;
        Ok(())
    }

    /// Appends one packed linear-layer delta (any method-zoo format). The
    /// tensor header records the codec family of the layer's own format,
    /// so mixed-format artifacts stay inspectable per tensor.
    pub fn add_packed(&mut self, name: &str, layer: &PackedLayer) -> Result<(), StoreError> {
        self.add_page(
            name,
            TensorKind::PackedLinear,
            Some(layer.codec_id()),
            &wire::layer_to_bytes(layer),
        )
    }

    /// Appends one uncompressed FP32 rest tensor.
    pub fn add_dense(&mut self, name: &str, m: &Matrix) -> Result<(), StoreError> {
        let mut raw = Vec::new();
        wire::encode_dense(m, &mut raw);
        self.add_page(name, TensorKind::DenseRest, None, &raw)
    }

    /// Writes the manifest and footer, returning the sink.
    pub fn finish(mut self) -> Result<W, StoreError> {
        let manifest_bytes = self.manifest.encode();
        self.sink.write_all(&manifest_bytes)?;
        self.sink.write_all(&self.offset.to_le_bytes())?;
        self.sink
            .write_all(&(manifest_bytes.len() as u64).to_le_bytes())?;
        self.sink
            .write_all(&hash64(&manifest_bytes).to_le_bytes())?;
        self.sink.write_all(FOOTER_MAGIC)?;
        self.sink.flush()?;
        Ok(self.sink)
    }
}

/// Writes a whole [`CompressedDelta`] as one `.dza` container.
pub fn write_delta<W: Write>(
    sink: W,
    name: &str,
    base_hash: Digest,
    delta: &CompressedDelta,
) -> Result<W, StoreError> {
    let mut w = ArtifactWriter::new(
        sink,
        name,
        base_hash,
        delta.codec,
        delta.config,
        delta.report,
    )?;
    for (tensor, cm) in &delta.layers {
        w.add_packed(tensor, cm)?;
    }
    for (tensor, m) in &delta.rest {
        w.add_dense(tensor, m)?;
    }
    w.finish()
}

/// Measured statistics of one whole-delta load.
///
/// `wall_s` spans the whole read and decode, so
/// [`effective_gbps`](Self::effective_gbps) is the end-to-end rate at
/// which compressed artifact bytes became usable tensors. dzbench and
/// `exp bench-lossless` report it; no simulation reads it (the serving
/// cost model prices deserialization with its own static constant).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DecodeStats {
    /// Tensors decoded.
    pub tensors: usize,
    /// Compressed page bytes read from the source.
    pub compressed_bytes: u64,
    /// Decompressed wire bytes produced.
    pub raw_bytes: u64,
    /// Wall time spent reading pages from the source.
    pub read_s: f64,
    /// Time spent decoding pages and wire records.
    pub decode_s: f64,
    /// Wall time of the whole load.
    pub wall_s: f64,
}

impl DecodeStats {
    /// End-to-end compressed-bytes-per-second of the load, in GB/s.
    /// `None` when the load was too fast to time meaningfully.
    pub fn effective_gbps(&self) -> Option<f64> {
        (self.wall_s > 0.0 && self.compressed_bytes > 0)
            .then(|| self.compressed_bytes as f64 / 1e9 / self.wall_s)
    }

    /// Folds another load's stats into cumulative totals.
    pub fn accumulate(&mut self, other: &DecodeStats) {
        self.tensors += other.tensors;
        self.compressed_bytes += other.compressed_bytes;
        self.raw_bytes += other.raw_bytes;
        self.read_s += other.read_s;
        self.decode_s += other.decode_s;
        self.wall_s += other.wall_s;
    }
}

/// One decoded tensor payload.
enum DecodedTensor {
    Packed(PackedLayer),
    Dense(Matrix),
}

/// Decodes one tensor page and checks it against its manifest entry.
///
/// The page header must declare the entry's raw length and checksum before
/// any page decodes, and the codec checks its output against that checksum:
/// both stored checksums are verified, and the output is hashed once. A
/// page whose pages are all stored decodes to a slice of `page` itself.
fn decompress_page<'a>(entry: &TensorEntry, page: &'a [u8]) -> Result<Cow<'a, [u8]>, StoreError> {
    let mismatch = || StoreError::ChecksumMismatch {
        tensor: Some(entry.name.clone()),
    };
    if dz_lossless::declared_len_and_checksum(page)? != (entry.raw_len, entry.checksum) {
        return Err(mismatch());
    }
    dz_lossless::decode(page).map_err(|e| match e {
        CodecError::ChecksumMismatch => mismatch(),
        e => e.into(),
    })
}

/// Decompresses, checks, and wire-decodes one tensor page.
fn decode_tensor(entry: &TensorEntry, page: &[u8]) -> Result<DecodedTensor, StoreError> {
    let raw = decompress_page(entry, page)?;
    match entry.kind {
        TensorKind::PackedLinear => Ok(DecodedTensor::Packed(wire::layer_from_bytes(&raw)?)),
        TensorKind::DenseRest => {
            let mut r = WireReader::new(&raw);
            let m = wire::decode_dense(&mut r)?;
            if !r.is_done() {
                return Err(StoreError::Corrupt("trailing bytes in dense tensor"));
            }
            Ok(DecodedTensor::Dense(m))
        }
    }
}

/// Random-access `.dza` reader over any `Read + Seek` source.
pub struct ArtifactReader<R: Read + Seek> {
    source: R,
    manifest: Manifest,
    /// Where the tensor pages end and the manifest begins.
    manifest_offset: u64,
}

impl<R: Read + Seek> ArtifactReader<R> {
    /// Opens a container: validates head and footer, loads the manifest.
    pub fn open(mut source: R) -> Result<Self, StoreError> {
        let file_len = source.seek(SeekFrom::End(0))?;
        if file_len < HEAD_LEN + FOOTER_LEN {
            return Err(StoreError::Truncated);
        }
        source.seek(SeekFrom::Start(0))?;
        let mut head = [0u8; HEAD_LEN as usize];
        source.read_exact(&mut head)?;
        if &head[..4] != DZA_MAGIC {
            return Err(StoreError::BadMagic);
        }
        let version = u16::from_le_bytes([head[4], head[5]]);
        if version != DZA_VERSION {
            return Err(StoreError::BadVersion(version));
        }
        source.seek(SeekFrom::End(-(FOOTER_LEN as i64)))?;
        let mut footer = [0u8; FOOTER_LEN as usize];
        source.read_exact(&mut footer)?;
        let (fields, magic) = footer.as_chunks::<8>();
        let &[manifest_offset, manifest_len, manifest_checksum] = fields else {
            return Err(StoreError::Truncated);
        };
        if magic != FOOTER_MAGIC {
            return Err(StoreError::Truncated);
        }
        let manifest_offset = u64::from_le_bytes(manifest_offset);
        let manifest_len = u64::from_le_bytes(manifest_len);
        let manifest_checksum = u64::from_le_bytes(manifest_checksum);
        let manifest_end = manifest_offset
            .checked_add(manifest_len)
            .ok_or(StoreError::Corrupt("manifest extent overflows"))?;
        if manifest_offset < HEAD_LEN || manifest_end != file_len - FOOTER_LEN {
            return Err(StoreError::Corrupt("manifest extent out of bounds"));
        }
        source.seek(SeekFrom::Start(manifest_offset))?;
        let mut manifest_bytes = vec![0u8; manifest_len as usize];
        source.read_exact(&mut manifest_bytes)?;
        if hash64(&manifest_bytes) != manifest_checksum {
            return Err(StoreError::ChecksumMismatch { tensor: None });
        }
        let manifest = Manifest::decode(&manifest_bytes)?;
        // The writer puts the pages back to back in manifest order, so
        // their extents tile the bytes between head and manifest exactly.
        let mut end = HEAD_LEN;
        for t in &manifest.tensors {
            if t.offset != end {
                return Err(StoreError::Corrupt("tensor pages do not tile the payload"));
            }
            end = t
                .offset
                .checked_add(t.comp_len)
                .ok_or(StoreError::Corrupt("tensor extent overflows"))?;
        }
        if end != manifest_offset {
            return Err(StoreError::Corrupt("tensor pages do not tile the payload"));
        }
        Ok(ArtifactReader {
            source,
            manifest,
            manifest_offset,
        })
    }

    /// The parsed directory.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Reads and verifies one tensor's raw wire bytes.
    pub fn read_tensor_bytes(&mut self, name: &str) -> Result<Vec<u8>, StoreError> {
        let entry = self
            .manifest
            .entry(name)
            .ok_or_else(|| StoreError::UnknownTensor(name.to_string()))?
            .clone();
        self.source.seek(SeekFrom::Start(entry.offset))?;
        let mut page = vec![0u8; entry.comp_len as usize];
        self.source.read_exact(&mut page)?;
        decompress_page(&entry, &page).map(Cow::into_owned)
    }

    /// Reads one packed linear-layer delta (any method-zoo format).
    // dz-lint: allow(dead-pub, "single-tensor random access into a .dza container, checked by the store tests")
    pub fn read_packed(&mut self, name: &str) -> Result<PackedLayer, StoreError> {
        let entry = self
            .manifest
            .entry(name)
            .ok_or_else(|| StoreError::UnknownTensor(name.to_string()))?;
        if entry.kind != TensorKind::PackedLinear {
            return Err(StoreError::Corrupt("tensor is not a packed linear"));
        }
        let raw = self.read_tensor_bytes(name)?;
        Ok(wire::layer_from_bytes(&raw)?)
    }

    /// Reads one dense FP32 rest tensor.
    // dz-lint: allow(dead-pub, "single-tensor random access into a .dza container, checked by the store tests")
    pub fn read_dense(&mut self, name: &str) -> Result<Matrix, StoreError> {
        let entry = self
            .manifest
            .entry(name)
            .ok_or_else(|| StoreError::UnknownTensor(name.to_string()))?;
        if entry.kind != TensorKind::DenseRest {
            return Err(StoreError::Corrupt("tensor is not a dense rest tensor"));
        }
        let raw = self.read_tensor_bytes(name)?;
        let mut r = WireReader::new(&raw);
        let m = wire::decode_dense(&mut r)?;
        if !r.is_done() {
            return Err(StoreError::Corrupt("trailing bytes in dense tensor"));
        }
        Ok(m)
    }

    /// Reassembles the whole [`CompressedDelta`].
    pub fn read_delta(&mut self) -> Result<CompressedDelta, StoreError> {
        self.read_delta_with_stats().map(|(delta, _)| delta)
    }

    /// Reassembles the whole [`CompressedDelta`], reporting measured decode
    /// throughput.
    ///
    /// One read brings in every tensor page, then the tensors decode one
    /// at a time in file order on the calling thread. A tensor whose pages
    /// are all stored is wire-decoded straight from that read buffer, after
    /// its checksum matches. The first corrupt tensor in file order fails
    /// the read, and the output is byte-identical to the per-tensor reads.
    pub fn read_delta_with_stats(&mut self) -> Result<(CompressedDelta, DecodeStats), StoreError> {
        // dz-lint: allow(wall-clock, "decode wall time IS the measured quantity, reported as DecodeStats")
        let t_start = Instant::now();
        let entries: &[TensorEntry] = &self.manifest.tensors;
        self.source.seek(SeekFrom::Start(HEAD_LEN))?;
        let mut payload = vec![0u8; (self.manifest_offset - HEAD_LEN) as usize];
        self.source.read_exact(&mut payload)?;
        let read_s = t_start.elapsed().as_secs_f64();
        let mut decode_s = 0.0;
        let mut layers = BTreeMap::new();
        let mut rest = BTreeMap::new();
        // `open` checked that the pages tile the payload in this order.
        let mut pages = payload.as_slice();
        for entry in entries {
            let (page, tail) = pages
                .split_at_checked(entry.comp_len as usize)
                .ok_or(StoreError::Truncated)?;
            pages = tail;
            // dz-lint: allow(wall-clock, "measures real decode time for DecodeStats")
            let t1 = Instant::now();
            let tensor = decode_tensor(entry, page)?;
            decode_s += t1.elapsed().as_secs_f64();
            match tensor {
                DecodedTensor::Packed(cm) => {
                    layers.insert(entry.name.clone(), cm);
                }
                DecodedTensor::Dense(m) => {
                    rest.insert(entry.name.clone(), m);
                }
            }
        }
        let raw_bytes: u64 = entries.iter().map(|t| t.raw_len).sum();
        let stats = DecodeStats {
            tensors: entries.len(),
            compressed_bytes: entries.iter().map(|t| t.comp_len).sum(),
            raw_bytes,
            read_s,
            decode_s,
            wall_s: t_start.elapsed().as_secs_f64(),
        };
        Ok((
            CompressedDelta {
                layers,
                rest,
                codec: self.manifest.codec,
                config: self.manifest.config,
                report: self.manifest.report,
            },
            stats,
        ))
    }
}
