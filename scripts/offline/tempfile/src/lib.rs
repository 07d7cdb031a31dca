//! Offline stand-in for `tempfile`: `tempdir()`, `TempDir::path()` and
//! removal on drop — the whole surface this workspace's tests use.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A directory removed (recursively) when the value is dropped.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Create a fresh directory under `std::env::temp_dir()`. The name joins the
/// process id and a per-process counter; `create_dir` fails on a name that
/// exists (a leftover of a killed run with a recycled pid), so the loop
/// moves on to the next counter value instead of sharing a directory.
pub fn tempdir() -> std::io::Result<TempDir> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let root = std::env::temp_dir();
    loop {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = root.join(format!(".tmp-mistique-{}-{n}", std::process::id()));
        match std::fs::create_dir(&path) {
            Ok(()) => return Ok(TempDir(path)),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(e),
        }
    }
}
