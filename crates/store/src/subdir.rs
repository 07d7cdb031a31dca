//! Storage-backend adapter for the store's sidecar subdirectories.
//!
//! The flight recorder (`telemetry/`), the audit journal (`audit/`) and the
//! secondary indexes (`index/`) persist through this adapter so every byte
//! goes through the same [`StorageBackend`] — and therefore the same
//! fault-injection harness — as partition data. Each lives in its own
//! subdirectory under the store directory; `list_dir` only reports
//! direct-children files, so the data store's sweep, quarantine, and budget
//! accounting never see them, and they never see each other. A torn or
//! garbage sidecar file can therefore never quarantine a data partition.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use mistique_obs::SegmentIo;

use crate::backend::StorageBackend;

/// Subdirectory of the store directory that holds audit segments.
pub const AUDIT_SUBDIR: &str = "audit";
/// Subdirectory of the store directory that holds telemetry segments.
pub const TELEMETRY_SUBDIR: &str = "telemetry";
/// Subdirectory of the store directory that holds index files.
pub const INDEX_SUBDIR: &str = "index";

/// Whole-file I/O over a [`StorageBackend`], rooted at
/// `<store dir>/<subdir>/`. File operations are the [`SegmentIo`] impl.
#[derive(Debug, Clone)]
pub struct StoreSubdir {
    backend: Arc<dyn StorageBackend>,
    dir: PathBuf,
}

impl StoreSubdir {
    /// Create the adapter (and the subdirectory) under `store_dir`, and
    /// sweep any `.tmp` orphans a crash mid-`write_atomic` left behind.
    pub fn create(
        backend: Arc<dyn StorageBackend>,
        store_dir: &Path,
        subdir: &str,
    ) -> io::Result<StoreSubdir> {
        let io = StoreSubdir::open_readonly(backend, store_dir, subdir);
        io.backend.create_dir_all(&io.dir)?;
        for name in io.list()? {
            if name.ends_with(".tmp") {
                io.remove(&name)?;
            }
        }
        Ok(io)
    }

    /// The adapter without creating the directory — for read-only access to
    /// a sidecar that may not exist (listing a missing directory reports no
    /// files).
    pub fn open_readonly(
        backend: Arc<dyn StorageBackend>,
        store_dir: &Path,
        subdir: &str,
    ) -> StoreSubdir {
        StoreSubdir {
            backend,
            dir: store_dir.join(subdir),
        }
    }

    /// The directory the files are stored in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Whether a file exists.
    pub fn exists(&self, name: &str) -> bool {
        self.backend.exists(&self.dir.join(name))
    }
}

impl SegmentIo for StoreSubdir {
    fn list(&self) -> io::Result<Vec<String>> {
        if !self.backend.exists(&self.dir) {
            return Ok(Vec::new());
        }
        Ok(self
            .backend
            .list_dir(&self.dir)?
            .into_iter()
            .filter_map(|p| p.file_name().map(|n| n.to_string_lossy().into_owned()))
            .collect())
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.backend.read_file(&self.dir.join(name))
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.backend.write_atomic(&self.dir.join(name), bytes)
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.backend.remove_file(&self.dir.join(name))?;
        self.backend.sync_dir(&self.dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::RealFs;

    const SUBDIRS: [&str; 3] = [AUDIT_SUBDIR, TELEMETRY_SUBDIR, INDEX_SUBDIR];

    #[test]
    fn files_round_trip_in_isolation_and_create_sweeps_tmp_orphans() {
        for subdir in SUBDIRS {
            let tmp = mistique_testkit::tempdir().unwrap();
            let backend: Arc<dyn StorageBackend> = Arc::new(RealFs);
            // Read-only access to a sidecar that does not exist yet.
            let missing = StoreSubdir::open_readonly(Arc::clone(&backend), tmp.path(), subdir);
            assert!(missing.list().unwrap().is_empty());
            assert!(!missing.exists("a.jsonl"));

            let io = StoreSubdir::create(Arc::clone(&backend), tmp.path(), subdir).unwrap();
            assert_eq!(io.dir(), tmp.path().join(subdir));
            assert!(io.list().unwrap().is_empty());
            io.write_atomic("a.jsonl", b"{}\n").unwrap();
            io.write_atomic("b.idx", b"{}").unwrap();
            assert_eq!(io.list().unwrap().len(), 2);
            assert!(io.exists("a.jsonl"));
            assert_eq!(io.read("a.jsonl").unwrap(), b"{}\n");
            io.remove("b.idx").unwrap();
            assert_eq!(io.list().unwrap(), vec!["a.jsonl".to_string()]);

            // Invisible to the other sidecars and to the store dir itself.
            for other in SUBDIRS.iter().filter(|o| **o != subdir) {
                let other = StoreSubdir::create(Arc::clone(&backend), tmp.path(), other).unwrap();
                assert!(other.list().unwrap().is_empty(), "{subdir} leaks");
                assert!(!other.exists("a.jsonl"));
            }
            assert!(backend.list_dir(tmp.path()).unwrap().is_empty());

            // A crash mid-write strands a tmp file; the next create sweeps it.
            backend
                .write_file(&io.dir().join("dead.idx.tmp"), b"to")
                .unwrap();
            let io = StoreSubdir::create(backend, tmp.path(), subdir).unwrap();
            assert_eq!(io.list().unwrap(), vec!["a.jsonl".to_string()]);
        }
    }
}
