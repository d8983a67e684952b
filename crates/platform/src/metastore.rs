//! Revisioned JSON document store (the paper's CouchDB substitute).
//!
//! Xanadu "uses Apache CouchDB to store metrics and function
//! branch-related metadata", chosen for "native JSON data support" (§4).
//! This in-memory store preserves that usage pattern: JSON documents keyed
//! by id, optimistic concurrency via revision numbers, and prefix queries
//! for scanning related documents (function profiles, branch trees, run
//! results).

use serde::{Deserialize, JsonWriter, Serialize, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use xanadu_simcore::{fnv1a64_digest, Fnv1a64};

/// Error from a conflicting or missing-document operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The supplied revision does not match the stored one.
    Conflict {
        /// The revision currently stored.
        current: u64,
    },
    /// No document with the given id exists.
    NotFound,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Conflict { current } => {
                write!(f, "revision conflict, current revision is {current}")
            }
            StoreError::NotFound => write!(f, "document not found"),
        }
    }
}

impl std::error::Error for StoreError {}

/// An in-memory revisioned JSON document store.
///
/// # Example
///
/// ```
/// use xanadu_platform::metastore::MetaStore;
/// use serde_json::json;
///
/// let mut store = MetaStore::new();
/// let rev = store.put("profile/pay", json!({"warm_ms": 2500}));
/// assert_eq!(rev, 1);
/// let (doc, rev) = store.get("profile/pay").unwrap();
/// assert_eq!(doc["warm_ms"], 2500);
/// assert_eq!(rev, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetaStore {
    docs: BTreeMap<String, (u64, Value)>,
}

impl MetaStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        MetaStore::default()
    }

    /// Inserts or unconditionally overwrites a document, returning the new
    /// revision (1 for fresh documents).
    pub fn put(&mut self, id: &str, doc: Value) -> u64 {
        let rev = self.docs.get(id).map_or(0, |(r, _)| *r) + 1;
        self.docs.insert(id.to_string(), (rev, doc));
        rev
    }

    /// Updates a document only if `expected_rev` matches the stored
    /// revision (optimistic concurrency, CouchDB-style).
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] if the document does not exist,
    /// [`StoreError::Conflict`] if the revision does not match.
    pub fn put_rev(&mut self, id: &str, doc: Value, expected_rev: u64) -> Result<u64, StoreError> {
        match self.docs.get_mut(id) {
            None => Err(StoreError::NotFound),
            Some((rev, stored)) => {
                if *rev != expected_rev {
                    return Err(StoreError::Conflict { current: *rev });
                }
                *rev += 1;
                *stored = doc;
                Ok(*rev)
            }
        }
    }

    /// Fetches a document and its revision.
    pub fn get(&self, id: &str) -> Option<(&Value, u64)> {
        self.docs.get(id).map(|(rev, doc)| (doc, *rev))
    }

    /// Deletes a document; returns whether it existed.
    pub fn delete(&mut self, id: &str) -> bool {
        self.docs.remove(id).is_some()
    }

    /// All documents whose id starts with `prefix`, in id order.
    pub fn query_prefix(&self, prefix: &str) -> Vec<(&str, &Value)> {
        self.docs
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, (_, v))| (k.as_str(), v))
            .collect()
    }

    /// Number of stored documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }
}

// ---------------------------------------------------------------------
// SegmentLog — durable, append-only checkpoint storage
// ---------------------------------------------------------------------

/// Error from the on-disk checkpoint log.
#[derive(Debug)]
pub enum LogError {
    /// A filesystem operation failed.
    Io(std::io::Error),
    /// The on-disk state is unparseable or fails integrity checks.
    Corrupt(String),
    /// An append named this document id twice. A segment is one JSON
    /// object, so it could hold only one of them; nothing was written.
    DuplicateId(String),
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogError::Io(e) => write!(f, "checkpoint log I/O error: {e}"),
            LogError::Corrupt(msg) => write!(f, "checkpoint log corrupt: {msg}"),
            LogError::DuplicateId(id) => {
                write!(f, "checkpoint append names document `{id}` twice")
            }
        }
    }
}

impl std::error::Error for LogError {}

impl From<std::io::Error> for LogError {
    fn from(e: std::io::Error) -> Self {
        LogError::Io(e)
    }
}

/// One committed segment, as recorded in the manifest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SegmentRef {
    /// Segment file name, relative to the log directory.
    pub file: String,
    /// Documents captured in the segment.
    pub docs: u64,
    /// FNV-1a digest of the segment file's bytes (`fnv1a64:<hex>`).
    pub digest: String,
}

/// The atomically-replaced index of committed segments
/// (`MANIFEST.json`, schema `docs/schemas/checkpoint.schema.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Log format version (currently 1).
    pub version: u32,
    /// Committed segments, oldest first.
    pub segments: Vec<SegmentRef>,
}

/// A [`fmt::Write`] sink over a buffered file that digests every byte
/// as it is written. `fmt::Error` carries no cause, so the first I/O
/// error is kept here.
struct DigestingFile {
    file: BufWriter<File>,
    digest: Fnv1a64,
    error: Option<std::io::Error>,
}

impl fmt::Write for DigestingFile {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.digest.update(s.as_bytes());
        self.file.write_all(s.as_bytes()).map_err(|e| {
            self.error = Some(e);
            fmt::Error
        })
    }
}

/// Writes a pretty JSON document to `path` atomically and returns the
/// FNV-1a digest of its bytes. `write` streams the document into a
/// `.tmp` sibling, which is fsynced and then renamed over the target;
/// the text is never held whole in memory.
fn write_atomic(
    path: &Path,
    write: impl FnOnce(&mut JsonWriter<'_>) -> fmt::Result,
) -> Result<String, LogError> {
    let tmp = path.with_extension("tmp");
    let mut sink = DigestingFile {
        file: BufWriter::new(File::create(&tmp)?),
        digest: Fnv1a64::default(),
        error: None,
    };
    let written = write(&mut JsonWriter::new(&mut sink, true));
    if let Some(e) = sink.error {
        return Err(LogError::Io(e));
    }
    written.map_err(|_| std::io::Error::other("a document failed to serialize"))?;
    sink.file
        .into_inner()
        .map_err(|e| e.into_error())?
        .sync_all()?;
    std::fs::rename(&tmp, path)?;
    Ok(sink.digest.digest())
}

/// Append-only segment log with an atomic manifest — the durable tier
/// under the in-memory [`MetaStore`].
///
/// The service tier appends one segment per checkpoint epoch; each
/// segment is a JSON object of document id → body. Recovery replays the
/// manifest's segments oldest-first into a fresh store (later segments
/// overwrite earlier revisions of the same id), verifying each
/// segment's digest. Because the manifest is replaced via
/// write-to-temp + rename, a crash mid-checkpoint leaves the previous
/// manifest intact and the half-written segment unreferenced.
#[derive(Debug, Clone)]
pub struct SegmentLog {
    dir: PathBuf,
}

impl SegmentLog {
    /// Opens (creating if needed) the log directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<SegmentLog, LogError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(SegmentLog { dir })
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the manifest file.
    pub fn manifest_path(&self) -> PathBuf {
        self.dir.join("MANIFEST.json")
    }

    /// Reads the manifest; an absent manifest is an empty log.
    pub fn manifest(&self) -> Result<Manifest, LogError> {
        let path = self.manifest_path();
        if !path.exists() {
            return Ok(Manifest {
                version: 1,
                segments: Vec::new(),
            });
        }
        let text = std::fs::read_to_string(&path)?;
        let manifest: Manifest = serde_json::from_str(&text)
            .map_err(|e| LogError::Corrupt(format!("manifest: {e:?}")))?;
        if manifest.version != 1 {
            return Err(LogError::Corrupt(format!(
                "unsupported manifest version {}",
                manifest.version
            )));
        }
        Ok(manifest)
    }

    /// Commits `docs` as the next segment: the segment file is written
    /// atomically, then the manifest is atomically replaced to reference
    /// it, and the directory is fsynced. Returns the new segment's
    /// manifest entry.
    ///
    /// The segment is one pretty JSON object of id → document, ids in
    /// byte order. Each document writes itself straight into the file
    /// and its digest ([`Serialize::write_json`]), so a typed document
    /// and its `to_value` tree produce the same bytes.
    ///
    /// # Errors
    ///
    /// [`LogError::DuplicateId`] if two entries share an id (checked
    /// before anything is written); I/O and encoding failures otherwise.
    pub fn append<D: Serialize>(&self, docs: &[(String, D)]) -> Result<SegmentRef, LogError> {
        let mut sorted: Vec<&(String, D)> = docs.iter().collect();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        if let Some(pair) = sorted.windows(2).find(|pair| pair[0].0 == pair[1].0) {
            return Err(LogError::DuplicateId(pair[0].0.clone()));
        }
        let mut manifest = self.manifest()?;
        let seq = manifest.segments.len() as u64;
        let file = format!("segment-{seq:06}.json");
        let digest = write_atomic(&self.dir.join(&file), |out| {
            out.open('{')?;
            for (id, doc) in sorted {
                out.key(id)?;
                doc.write_json(out)?;
            }
            out.close('}')
        })?;
        let entry = SegmentRef {
            file,
            docs: docs.len() as u64,
            digest,
        };
        manifest.segments.push(entry.clone());
        write_atomic(&self.manifest_path(), |out| manifest.write_json(out))?;
        // Makes both renames durable.
        File::open(&self.dir)?.sync_all()?;
        Ok(entry)
    }

    /// Replays every manifest-referenced segment, oldest first, into a
    /// fresh [`MetaStore`], verifying each segment's digest.
    pub fn replay(&self) -> Result<MetaStore, LogError> {
        let manifest = self.manifest()?;
        let mut store = MetaStore::new();
        for seg in &manifest.segments {
            let text = std::fs::read_to_string(self.dir.join(&seg.file))?;
            let digest = fnv1a64_digest(text.as_bytes());
            if digest != seg.digest {
                return Err(LogError::Corrupt(format!(
                    "{}: digest {} does not match manifest {}",
                    seg.file, digest, seg.digest
                )));
            }
            let body: Value = serde_json::from_str(&text)
                .map_err(|e| LogError::Corrupt(format!("{}: {e:?}", seg.file)))?;
            let Value::Object(docs) = body else {
                return Err(LogError::Corrupt(format!("{}: not an object", seg.file)));
            };
            if docs.len() as u64 != seg.docs {
                return Err(LogError::Corrupt(format!(
                    "{}: holds {} docs, manifest says {}",
                    seg.file,
                    docs.len(),
                    seg.docs
                )));
            }
            for (id, doc) in docs {
                store.put(&id, doc);
            }
        }
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn put_get_roundtrip_with_revisions() {
        let mut s = MetaStore::new();
        assert_eq!(s.put("a", json!(1)), 1);
        assert_eq!(s.put("a", json!(2)), 2);
        let (doc, rev) = s.get("a").unwrap();
        assert_eq!(doc, &json!(2));
        assert_eq!(rev, 2);
    }

    #[test]
    fn optimistic_concurrency() {
        let mut s = MetaStore::new();
        let rev = s.put("a", json!({"v": 1}));
        assert_eq!(s.put_rev("a", json!({"v": 2}), rev), Ok(2));
        assert_eq!(
            s.put_rev("a", json!({"v": 3}), rev),
            Err(StoreError::Conflict { current: 2 })
        );
        assert_eq!(
            s.put_rev("missing", json!(null), 1),
            Err(StoreError::NotFound)
        );
    }

    #[test]
    fn delete_and_emptiness() {
        let mut s = MetaStore::new();
        assert!(s.is_empty());
        s.put("a", json!(1));
        assert!(s.delete("a"));
        assert!(!s.delete("a"));
        assert!(s.is_empty());
    }

    #[test]
    fn prefix_queries_scan_in_order() {
        let mut s = MetaStore::new();
        s.put("profile/b", json!(2));
        s.put("profile/a", json!(1));
        s.put("runs/0", json!(0));
        let profiles = s.query_prefix("profile/");
        assert_eq!(profiles.len(), 2);
        assert_eq!(profiles[0].0, "profile/a");
        assert_eq!(profiles[1].0, "profile/b");
        assert!(s.query_prefix("ghost/").is_empty());
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn deleted_doc_revision_restarts() {
        let mut s = MetaStore::new();
        s.put("a", json!(1));
        s.delete("a");
        assert_eq!(s.put("a", json!(1)), 1);
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("xanadu-segment-log-{}-{}", std::process::id(), tag));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn doc(text: &str) -> Value {
        serde_json::from_str(text).expect("test doc parses")
    }

    #[test]
    fn segment_log_append_and_replay_roundtrip() {
        let dir = scratch_dir("roundtrip");
        let log = SegmentLog::open(&dir).unwrap();
        assert!(log.manifest().unwrap().segments.is_empty());

        log.append(&[
            ("learned/metrics".to_string(), doc(r#"{"warm_ms": 2500}"#)),
            ("serve/cursor".to_string(), doc(r#"{"events": 100}"#)),
        ])
        .unwrap();
        log.append(&[("serve/cursor".to_string(), doc(r#"{"events": 200}"#))])
            .unwrap();

        let manifest = log.manifest().unwrap();
        assert_eq!(manifest.segments.len(), 2);
        assert_eq!(manifest.segments[0].file, "segment-000000.json");
        assert_eq!(manifest.segments[1].docs, 1);

        let store = log.replay().unwrap();
        assert_eq!(store.len(), 2);
        let (cursor, rev) = store.get("serve/cursor").unwrap();
        assert_eq!(cursor.get("events").and_then(|v| v.as_u64()), Some(200));
        assert_eq!(rev, 2, "later segments overwrite earlier revisions");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segment_log_detects_corruption() {
        let dir = scratch_dir("corrupt");
        let log = SegmentLog::open(&dir).unwrap();
        let entry = log.append(&[("a".to_string(), doc("1"))]).unwrap();
        std::fs::write(dir.join(&entry.file), "{\"a\": 2}").unwrap();
        match log.replay() {
            Err(LogError::Corrupt(msg)) => assert!(msg.contains("digest"), "{msg}"),
            other => panic!("expected digest mismatch, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Appends `docs` as the first segment of a fresh log; returns the
    /// segment file's bytes and its manifest digest.
    fn appended<D: Serialize>(tag: &str, docs: &[(String, D)]) -> (Vec<u8>, String) {
        let dir = scratch_dir(tag);
        let entry = SegmentLog::open(&dir).unwrap().append(docs).unwrap();
        let bytes = std::fs::read(dir.join(&entry.file)).unwrap();
        assert_eq!(fnv1a64_digest(&bytes), entry.digest, "digest of the bytes");
        let _ = std::fs::remove_dir_all(&dir);
        (bytes, entry.digest)
    }

    #[test]
    fn typed_documents_write_the_bytes_of_their_trees() {
        use crate::stream::{SloAlert, SloCheckpoint, SloWindow, StreamingAudit, StreamingConfig};
        use crate::{DiffThresholds, Histogram, Platform, PlatformConfig};
        use xanadu_chain::{linear_chain, FunctionSpec};
        use xanadu_core::speculation::ExecutionMode;

        // A real audit: histograms, exemplar traces, and the flattened
        // members that write through their tree.
        let mut platform = Platform::new(PlatformConfig::for_mode(ExecutionMode::Jit, 7));
        let dag = linear_chain("chain", 3, &FunctionSpec::new("f").service_ms(300.0)).unwrap();
        platform.deploy(dag).unwrap();
        let handle = platform.attach_observer(StreamingAudit::new(StreamingConfig::default()));
        for i in 0..12 {
            let at = xanadu_simcore::SimTime::from_millis(i * 4_000);
            platform.trigger_at("chain", at).unwrap();
        }
        platform.run_until_idle();
        let audit = handle.snapshot().checkpoint();
        assert!(!audit.exemplars.is_empty());

        let windows = (0..1200u64)
            .map(|i| {
                let mut end_to_end = Histogram::latency();
                for k in 0..i % 7 {
                    end_to_end.observe((i * 37 + k * 101) as f64 / 3.0);
                }
                SloWindow {
                    index: 2 * i,
                    requests: i % 7,
                    end_to_end,
                    wasted_us: i * 13,
                    invoked: i % 11,
                    misses: i % 3,
                }
            })
            .collect();
        let slo = SloCheckpoint {
            window_us: 60_000_000,
            thresholds: DiffThresholds::default(),
            windows,
            baseline: Some(0),
            evaluated: Some(2398),
            alerts: (1..4)
                .map(|w| SloAlert {
                    window: 2 * w,
                    path: format!("$.windows[{w}].p95_ms"),
                    baseline: 1.5,
                    candidate: 1.5 + w as f64,
                    allowed: "+10% \"p95\"\n".into(),
                })
                .collect(),
        };
        let scalar = 3u64;
        // Ids out of byte order, so the segment's own ordering is tested.
        let typed: Vec<(String, &dyn Serialize)> = vec![
            ("serve/slo".into(), &slo),
            ("serve/audit".into(), &audit),
            ("Serve".into(), &scalar),
        ];
        let trees: Vec<(String, Value)> = typed
            .iter()
            .map(|(id, doc)| (id.clone(), serde_json::to_value(doc).unwrap()))
            .collect();
        let (typed_bytes, typed_digest) = appended("typed", &typed);
        let (tree_bytes, tree_digest) = appended("trees", &trees);
        assert!(typed_bytes == tree_bytes, "typed and tree segments differ");
        assert_eq!(typed_digest, tree_digest);
        // Both equal the id → document object rendered as one tree.
        let object = Value::Object(trees.into_iter().collect());
        assert!(typed_bytes == object.to_json_string_pretty().into_bytes());

        let (empty, _) = appended::<Value>("empty", &[]);
        assert_eq!(empty, b"{}");
    }

    #[test]
    fn segment_log_rejects_duplicate_ids_before_writing() {
        let dir = scratch_dir("duplicate");
        let log = SegmentLog::open(&dir).unwrap();
        log.append(&[("a".to_string(), doc("1"))]).unwrap();
        let listing = || {
            let mut names: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name())
                .collect();
            names.sort();
            names
        };
        let (files, manifest) = (listing(), std::fs::read(log.manifest_path()).unwrap());

        let docs = [
            ("b".to_string(), doc("1")),
            ("c".to_string(), doc("2")),
            ("b".to_string(), doc("3")),
        ];
        match log.append(&docs) {
            Err(LogError::DuplicateId(id)) => assert_eq!(id, "b"),
            other => panic!("expected a duplicate-id error, got {other:?}"),
        }
        assert_eq!(listing(), files, "no segment or temp file was written");
        assert_eq!(std::fs::read(log.manifest_path()).unwrap(), manifest);
        assert_eq!(log.replay().unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segment_log_reopen_appends_after_existing_segments() {
        let dir = scratch_dir("reopen");
        {
            let log = SegmentLog::open(&dir).unwrap();
            log.append(&[("a".to_string(), doc("1"))]).unwrap();
        }
        let log = SegmentLog::open(&dir).unwrap();
        let entry = log.append(&[("b".to_string(), doc("2"))]).unwrap();
        assert_eq!(entry.file, "segment-000001.json");
        assert_eq!(log.replay().unwrap().len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
