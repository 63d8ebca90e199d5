//! Content-addressed on-disk artifact registry (the "delta zoo").
//!
//! Every published artifact is stored once under
//! `<root>/<sha256-of-bytes>.dza`, so identical deltas deduplicate and any
//! file can be integrity-audited by rehashing. Human-readable variant names
//! are kept separately in `<root>/refs.tsv` (git-style refs), rewritten
//! atomically on every change.
//!
//! Concurrency: artifact publishes are safe from any number of threads
//! (unique temp names, atomic rename into a content-addressed home). Ref
//! updates are serialized among clones of one [`Registry`] via a shared
//! lock; across *processes* the refs file is last-writer-wins.

use crate::dza::{self, ArtifactReader};
use crate::error::StoreError;
use crate::hash::{Digest, Sha256};
use dz_compress::pipeline::CompressedDelta;
use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Handle to one stored artifact: the hash of its bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArtifactId(pub Digest);

impl ArtifactId {
    /// Hex rendering (the on-disk file stem).
    pub fn hex(&self) -> String {
        self.0.hex()
    }
}

impl std::fmt::Display for ArtifactId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A content-addressed `.dza` registry rooted at one directory.
#[derive(Debug, Clone)]
pub struct Registry {
    root: PathBuf,
    /// Serializes read-modify-write cycles on the refs file among clones.
    refs_lock: Arc<Mutex<()>>,
}

const REFS_FILE: &str = "refs.tsv";

/// Process-wide counter making temp file names collision-free.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

impl Registry {
    /// Opens (creating if needed) a registry directory.
    pub fn open(root: impl AsRef<Path>) -> Result<Registry, StoreError> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        Ok(Registry {
            root,
            refs_lock: Arc::new(Mutex::new(())),
        })
    }

    /// The registry root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// On-disk path of an artifact (whether or not it exists).
    pub fn path_of(&self, id: &ArtifactId) -> PathBuf {
        self.root.join(format!("{}.dza", id.hex()))
    }

    /// Whether an artifact is present.
    pub fn contains(&self, id: &ArtifactId) -> bool {
        self.path_of(id).is_file()
    }

    /// Stored size of an artifact in bytes.
    pub fn size_of(&self, id: &ArtifactId) -> Result<u64, StoreError> {
        match fs::metadata(self.path_of(id)) {
            Ok(m) => Ok(m.len()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                Err(StoreError::UnknownArtifact(id.hex()))
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Publishes a compressed delta under `name`: streams a `.dza` to a
    /// temporary file, content-hashes it, moves it to its hash-named home,
    /// and points the `name` ref at it. Returns the artifact id.
    pub fn publish_delta(
        &self,
        name: &str,
        base_hash: Digest,
        delta: &CompressedDelta,
    ) -> Result<ArtifactId, StoreError> {
        validate_ref_name(name)?;
        let tmp = self.root.join(format!(
            ".tmp-{}-{}.dza",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let result = (|| {
            // Hash the bytes as they stream through, so publishing never
            // re-reads the artifact from disk.
            let sink = HashingWriter::new(BufWriter::new(File::create(&tmp)?));
            let (digest, writer) = dza::write_delta(sink, name, base_hash, delta)?.finish();
            writer
                .into_inner()
                .map_err(|e| StoreError::Io(e.into_error()))?
                .sync_all()?;
            let id = ArtifactId(digest);
            let home = self.path_of(&id);
            if home.is_file() {
                // Content-addressed: the artifact already exists; the temp
                // copy is redundant.
                fs::remove_file(&tmp)?;
            } else {
                fs::rename(&tmp, &home)?;
            }
            self.tag(name, &id)?;
            Ok(id)
        })();
        if result.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        result
    }

    /// Opens an artifact for random-access reads.
    pub fn open_artifact(
        &self,
        id: &ArtifactId,
    ) -> Result<ArtifactReader<BufReader<File>>, StoreError> {
        let path = self.path_of(id);
        let file = File::open(&path).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                StoreError::UnknownArtifact(id.hex())
            } else {
                StoreError::Io(e)
            }
        })?;
        ArtifactReader::open(BufReader::new(file))
    }

    /// Reads an artifact's raw file bytes (what crosses the disk link).
    pub fn read_bytes(&self, id: &ArtifactId) -> Result<Vec<u8>, StoreError> {
        match fs::read(self.path_of(id)) {
            Ok(b) => Ok(b),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                Err(StoreError::UnknownArtifact(id.hex()))
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Re-hashes an artifact's bytes and compares with its name; detects
    /// on-disk rot or tampering.
    pub fn verify(&self, id: &ArtifactId) -> Result<(), StoreError> {
        let path = self.path_of(id);
        if !path.is_file() {
            return Err(StoreError::UnknownArtifact(id.hex()));
        }
        if hash_file(&path)? != id.0 {
            return Err(StoreError::ChecksumMismatch { tensor: None });
        }
        Ok(())
    }

    /// Every artifact currently stored, sorted by id.
    // dz-lint: allow(dead-pub, "registry inventory the store tests audit publishes and deduplication with")
    pub fn list(&self) -> Result<Vec<ArtifactId>, StoreError> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let path = entry?.path();
            let (Some(stem), Some(ext)) = (
                path.file_stem().and_then(|s| s.to_str()),
                path.extension().and_then(|s| s.to_str()),
            ) else {
                continue;
            };
            if ext != "dza" {
                continue;
            }
            if let Some(d) = Digest::from_hex(stem) {
                out.push(ArtifactId(d));
            }
        }
        out.sort();
        Ok(out)
    }

    /// Points a human-readable ref at an artifact.
    pub fn tag(&self, name: &str, id: &ArtifactId) -> Result<(), StoreError> {
        validate_ref_name(name)?;
        let _guard = self.refs_lock.lock().expect("refs lock poisoned");
        let mut refs = self.read_refs()?;
        refs.retain(|(n, _)| n != name);
        refs.push((name.to_string(), *id));
        refs.sort();
        let tmp = self.root.join(format!(
            ".refs-{}-{}.tmp",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        {
            let mut f = BufWriter::new(File::create(&tmp)?);
            for (n, i) in &refs {
                writeln!(f, "{n}\t{}", i.hex())?;
            }
            f.into_inner()
                .map_err(|e| StoreError::Io(e.into_error()))?
                .sync_all()?;
        }
        fs::rename(&tmp, self.root.join(REFS_FILE))?;
        Ok(())
    }

    /// Resolves a ref name to an artifact id.
    // dz-lint: allow(dead-pub, "ref-name lookup the TieredDeltaStore doc example and the store tests resolve variants with")
    pub fn resolve(&self, name: &str) -> Result<ArtifactId, StoreError> {
        self.read_refs()?
            .into_iter()
            .find(|(n, _)| n == name)
            .map(|(_, id)| id)
            .ok_or_else(|| StoreError::UnknownArtifact(name.to_string()))
    }

    /// All refs, sorted by name.
    pub fn refs(&self) -> Result<Vec<(String, ArtifactId)>, StoreError> {
        self.read_refs()
    }

    fn read_refs(&self) -> Result<Vec<(String, ArtifactId)>, StoreError> {
        let path = self.root.join(REFS_FILE);
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e.into()),
        };
        let mut out = Vec::new();
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            let Some((name, hex)) = line.split_once('\t') else {
                return Err(StoreError::Corrupt("malformed refs line"));
            };
            let Some(d) = Digest::from_hex(hex) else {
                return Err(StoreError::Corrupt("malformed ref hash"));
            };
            out.push((name.to_string(), ArtifactId(d)));
        }
        Ok(out)
    }
}

fn validate_ref_name(name: &str) -> Result<(), StoreError> {
    if name.is_empty()
        || name.len() > 512
        || name.contains(['\t', '\n', '\r', '/', '\\'])
        || name.starts_with('.')
    {
        return Err(StoreError::InvalidName(name.to_string()));
    }
    Ok(())
}

/// An `io::Write` adapter hashing everything written through it.
struct HashingWriter<W: Write> {
    inner: W,
    hasher: Sha256,
}

impl<W: Write> HashingWriter<W> {
    fn new(inner: W) -> Self {
        HashingWriter {
            inner,
            hasher: Sha256::new(),
        }
    }

    fn finish(self) -> (Digest, W) {
        (self.hasher.finalize(), self.inner)
    }
}

impl<W: Write> Write for HashingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.hasher.update(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Streaming SHA-256 of a file's bytes.
fn hash_file(path: &Path) -> Result<Digest, StoreError> {
    let mut f = BufReader::new(File::open(path)?);
    let mut hasher = Sha256::new();
    let mut buf = [0u8; 64 * 1024];
    loop {
        let n = f.read(&mut buf)?;
        if n == 0 {
            break;
        }
        hasher.update(&buf[..n]);
    }
    Ok(hasher.finalize())
}
