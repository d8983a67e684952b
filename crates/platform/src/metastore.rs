//! Revisioned JSON document store (the paper's CouchDB substitute).
//!
//! Xanadu "uses Apache CouchDB to store metrics and function
//! branch-related metadata", chosen for "native JSON data support" (§4).
//! This in-memory store preserves that usage pattern: JSON documents keyed
//! by id, optimistic concurrency via revision numbers, and prefix queries
//! for scanning related documents (function profiles, branch trees, run
//! results).

use serde::{Deserialize, Serialize};
use serde_json::{Map, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use xanadu_simcore::fnv1a64_digest;

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
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogError::Io(e) => write!(f, "checkpoint log I/O error: {e}"),
            LogError::Corrupt(msg) => write!(f, "checkpoint log corrupt: {msg}"),
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

/// Writes `contents` to `path` atomically: a `.tmp` sibling is written
/// in full, then renamed over the target.
fn write_atomic(path: &Path, contents: &str) -> Result<(), LogError> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)?;
    Ok(())
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
    /// it. Returns the new segment's manifest entry.
    pub fn append(&self, docs: &[(String, Value)]) -> Result<SegmentRef, LogError> {
        let mut manifest = self.manifest()?;
        let seq = manifest.segments.len() as u64;
        let file = format!("segment-{seq:06}.json");
        let mut body = Map::new();
        for (id, doc) in docs {
            body.insert(id.clone(), doc.clone());
        }
        let text = Value::Object(body).to_json_string_pretty();
        write_atomic(&self.dir.join(&file), &text)?;
        let entry = SegmentRef {
            file,
            docs: docs.len() as u64,
            digest: fnv1a64_digest(text.as_bytes()),
        };
        manifest.segments.push(entry.clone());
        let manifest_text = serde_json::to_string_pretty(&manifest)
            .map_err(|e| LogError::Corrupt(format!("{e:?}")))?;
        write_atomic(&self.manifest_path(), &manifest_text)?;
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
            let docs = body
                .as_object()
                .ok_or_else(|| LogError::Corrupt(format!("{}: not an object", seg.file)))?;
            if docs.len() as u64 != seg.docs {
                return Err(LogError::Corrupt(format!(
                    "{}: holds {} docs, manifest says {}",
                    seg.file,
                    docs.len(),
                    seg.docs
                )));
            }
            for (id, doc) in docs {
                store.put(id, doc.clone());
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
