//! Disk-backed warm-restart store for schedule artifacts.
//!
//! The schedule cache is the service's working set; this store is its
//! persistence: every artifact built by the service is **spilled** to a
//! store directory as the `spfactor-artifact v3` text — key, fingerprint
//! and permutation, four lines (atomic temp-file-and-rename writes) — and
//! a restarted service **reloads** the directory's index on startup — so
//! previously-seen patterns skip the cold-build stampede and pay only the
//! deterministic re-plan from the stored permutation
//! (`spfactor::sched::rebuild_artifact`), never the ordering phase.
//!
//! Trust model: store files are bytes on disk, exactly like the HB/MM
//! matrix files the hardened IO layer parses — they may be truncated,
//! bit-flipped, or swapped between servers. Every load therefore
//! re-verifies the file end to end: the parse must succeed, the parsed
//! [`ScheduleKey`] must equal the requested one and agree with the
//! request's pattern, and the re-planned artifact's fingerprint — over
//! the permutation, the factor, the assignment and every predecessor
//! list — must equal the recorded one. Any disagreement is a typed
//! [`StoreError`]; the file is dropped from the index and the service
//! falls back to a fresh build. Corruption can cost a rebuild — it can
//! never produce a wrong answer. A file of an earlier format version
//! does not parse, so it costs one rebuild the same way.

use crate::resilience::lock_unpoisoned;
use spfactor::matrix::{Fnv1a, SymmetricPattern};
use spfactor::sched::{read_artifact_text, rebuild_artifact, ScheduleArtifact, ScheduleKey};
use spfactor::trace;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Mutex;

/// File extension of spilled artifacts.
const EXT: &str = "spfa";

/// Extension of the hidden temp file a spill writes before its rename.
const TMP_EXT: &str = "tmp";

/// Everything the artifact store can fail with. Cloneable (like
/// [`ServeError`](crate::ServeError)) so outcomes can be shared.
#[derive(Clone, Debug)]
pub enum StoreError {
    /// Filesystem failure (directory creation, read, write, rename).
    Io {
        /// The path involved.
        path: PathBuf,
        /// The rendered `std::io::Error`.
        message: String,
    },
    /// The file exists but failed parsing or end-to-end verification
    /// (truncation, bit flips, an earlier format version, a header that
    /// disagrees with the pattern, fingerprint mismatch).
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// What the parser or verifier rejected.
        reason: String,
    },
    /// The file parses cleanly but carries a different [`ScheduleKey`]
    /// than the one it was looked up under (a swapped or renamed file).
    KeyMismatch {
        /// The offending file.
        path: PathBuf,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { path, message } => {
                write!(f, "artifact store IO on {}: {message}", path.display())
            }
            StoreError::Corrupt { path, reason } => {
                write!(f, "corrupt artifact {}: {reason}", path.display())
            }
            StoreError::KeyMismatch { path } => {
                write!(
                    f,
                    "artifact {} carries a different schedule key",
                    path.display()
                )
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Monotone behaviour counters of one [`ArtifactStore`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Files indexed at startup (parsed cleanly).
    pub loaded: u64,
    /// Artifacts spilled to disk.
    pub spilled: u64,
    /// Artifacts served from disk (verified reconstructions).
    pub hits: u64,
    /// Files rejected — at startup scan or load time — for parse,
    /// verification, or IO failures.
    pub rejected: u64,
}

/// A directory of spilled [`ScheduleArtifact`]s keyed by
/// [`ScheduleKey`], with verified reload. See the module docs for the
/// trust model; see [`ServeConfig`](crate::ServeConfig) for how the
/// service owns one.
pub struct ArtifactStore {
    dir: PathBuf,
    index: Mutex<HashMap<ScheduleKey, PathBuf>>,
    loaded: AtomicU64,
    spilled: AtomicU64,
    hits: AtomicU64,
    rejected: AtomicU64,
}

impl std::fmt::Debug for ArtifactStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactStore")
            .field("dir", &self.dir)
            .field("len", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

/// Stable spill file name for an artifact text: the FNV-1a of its key
/// line, which names every key field, so two parameterizations of one
/// pattern land in different files.
fn file_stem(text: &str) -> String {
    let key_line = text.lines().nth(1).unwrap_or_default();
    let mut h = Fnv1a::new();
    h.write_bytes(key_line.as_bytes());
    format!("{:016x}", h.finish())
}

impl ArtifactStore {
    /// Opens (creating if needed) a store directory and indexes every
    /// parseable `*.spfa` file in it by its serialized [`ScheduleKey`].
    /// Unparseable files are counted as rejected and skipped — a corrupt
    /// spill degrades to a rebuild, never an error at startup. Temp files
    /// of spills that never reached their rename are removed.
    ///
    /// Under a recorder scope, here and in [`spill`](Self::spill) and
    /// [`load`](Self::load): store traffic is mirrored as
    /// `serve.store.{loaded,spilled,hit,rejected}` counters (documented
    /// in `docs/METRICS.md`).
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| StoreError::Io {
            path: dir.clone(),
            message: e.to_string(),
        })?;
        let store = ArtifactStore {
            dir: dir.clone(),
            index: Mutex::new(HashMap::new()),
            loaded: AtomicU64::new(0),
            spilled: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        };
        let entries = std::fs::read_dir(&dir).map_err(|e| StoreError::Io {
            path: dir.clone(),
            message: e.to_string(),
        })?;
        for entry in entries.flatten() {
            let path = entry.path();
            let extension = path.extension().and_then(|e| e.to_str());
            let hidden = entry.file_name().to_string_lossy().starts_with('.');
            if hidden && extension == Some(TMP_EXT) {
                // A spill that died between its write and its rename.
                let _ = std::fs::remove_file(&path);
                continue;
            }
            if extension != Some(EXT) {
                continue;
            }
            match std::fs::read(&path) {
                Ok(bytes) => match read_artifact_text(bytes.as_slice()) {
                    Ok(dump) => {
                        lock_unpoisoned(&store.index).insert(dump.key, path);
                        store.loaded.fetch_add(1, AtomicOrdering::Relaxed);
                    }
                    Err(_) => {
                        store.rejected.fetch_add(1, AtomicOrdering::Relaxed);
                    }
                },
                Err(_) => {
                    store.rejected.fetch_add(1, AtomicOrdering::Relaxed);
                }
            }
        }
        let (rec, scanned) = (trace::current(), store.stats());
        rec.incr("serve.store.loaded", scanned.loaded);
        rec.incr("serve.store.rejected", scanned.rejected);
        Ok(store)
    }

    /// The directory backing the store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of indexed artifacts.
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.index).len()
    }

    /// Whether nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `key` is indexed (no verification — `load` decides).
    pub fn contains(&self, key: &ScheduleKey) -> bool {
        lock_unpoisoned(&self.index).contains_key(key)
    }

    /// The behaviour counters since `open`.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            loaded: self.loaded.load(AtomicOrdering::Relaxed),
            spilled: self.spilled.load(AtomicOrdering::Relaxed),
            hits: self.hits.load(AtomicOrdering::Relaxed),
            rejected: self.rejected.load(AtomicOrdering::Relaxed),
        }
    }

    /// Spills an artifact to disk (atomic temp-file-and-rename) and
    /// indexes it. An IO failure is returned but leaves the store
    /// consistent — the artifact is simply not persisted.
    pub fn spill(&self, artifact: &ScheduleArtifact) -> Result<(), StoreError> {
        let io_err = |path: &Path, e: std::io::Error| StoreError::Io {
            path: path.to_path_buf(),
            message: e.to_string(),
        };
        let text = artifact.to_text();
        let stem = file_stem(&text);
        let path = self.dir.join(format!("{stem}.{EXT}"));
        let tmp = self.dir.join(format!(".{stem}.{TMP_EXT}"));
        std::fs::write(&tmp, &text).map_err(|e| io_err(&tmp, e))?;
        std::fs::rename(&tmp, &path).map_err(|e| io_err(&path, e))?;
        lock_unpoisoned(&self.index).insert(*artifact.key(), path);
        self.spilled.fetch_add(1, AtomicOrdering::Relaxed);
        trace::current().incr("serve.store.spilled", 1);
        Ok(())
    }

    /// Loads and fully verifies the artifact stored under `key`,
    /// reconstructing it against `pattern` (the request's own pattern —
    /// its structural hash must match the key).
    ///
    /// `Ok(None)` means the key is simply not in the store. Any indexed
    /// file that fails reading, parsing, key equality, or rebuild
    /// verification is dropped from the index, counted as rejected, and
    /// returned as a typed error — the caller falls back to a build.
    pub fn load(
        &self,
        key: &ScheduleKey,
        pattern: &SymmetricPattern,
    ) -> Result<Option<ScheduleArtifact>, StoreError> {
        let path = match lock_unpoisoned(&self.index).get(key) {
            Some(p) => p.clone(),
            None => return Ok(None),
        };
        let reject = |e: StoreError| -> StoreError {
            lock_unpoisoned(&self.index).remove(key);
            self.rejected.fetch_add(1, AtomicOrdering::Relaxed);
            trace::current().incr("serve.store.rejected", 1);
            e
        };
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) => {
                return Err(reject(StoreError::Io {
                    path,
                    message: e.to_string(),
                }))
            }
        };
        let dump = match read_artifact_text(bytes.as_slice()) {
            Ok(d) => d,
            Err(reason) => return Err(reject(StoreError::Corrupt { path, reason })),
        };
        if dump.key != *key {
            return Err(reject(StoreError::KeyMismatch { path }));
        }
        match rebuild_artifact(pattern, &dump) {
            Ok(artifact) => {
                self.hits.fetch_add(1, AtomicOrdering::Relaxed);
                trace::current().incr("serve.store.hit", 1);
                Ok(Some(artifact))
            }
            Err(reason) => Err(reject(StoreError::Corrupt { path, reason })),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spfactor::Pipeline;

    #[test]
    fn open_removes_the_temp_file_of_an_interrupted_spill() {
        let dir = std::env::temp_dir().join(format!("spfactor-store-tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let plan = Pipeline::new(spfactor::matrix::gen::lap9(4, 4))
            .processors(2)
            .try_plan()
            .unwrap();
        ArtifactStore::open(&dir).unwrap().spill(&plan).unwrap();
        // What a crash between `write` and `rename` leaves behind.
        let leftover = dir.join(".0123456789abcdef.tmp");
        std::fs::write(&leftover, "spfactor-artifact v3\n").unwrap();

        let store = ArtifactStore::open(&dir).unwrap();
        assert!(!leftover.exists(), "leftover temp file survived open");
        assert!(store.contains(plan.key()), "the good spill is indexed");
        assert_eq!(store.stats().loaded, 1);
        assert_eq!(store.stats().rejected, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
