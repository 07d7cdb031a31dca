//! A scratch directory of the benchmark's own, under the current directory
//! (the benchmark reads and writes only inside its checkout), removed when
//! dropped.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Parent of every scratch directory; named in the repository's
/// `.gitignore`.
pub const SCRATCH_ROOT: &str = ".e2e_tmp";

static NEXT: AtomicU64 = AtomicU64::new(0);

pub struct TempDir(PathBuf);

impl TempDir {
    /// Create `./.e2e_tmp/<label>-<pid>-<n>`, unique within and across
    /// processes.
    pub fn new(label: &str) -> io::Result<TempDir> {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::current_dir()?
            .join(SCRATCH_ROOT)
            .join(format!("{label}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory is harmless and git-ignored.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn created_unique_and_removed_on_drop() {
        let a = TempDir::new("tempdir-test").unwrap();
        let b = TempDir::new("tempdir-test").unwrap();
        assert_ne!(a.path(), b.path());
        let kept = a.path().to_path_buf();
        assert!(kept.is_dir());
        drop(a);
        assert!(!kept.exists());
    }
}
