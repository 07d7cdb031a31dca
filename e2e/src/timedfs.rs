//! The device boundary, seen from outside: the two `StorageBackend`s the
//! benchmark opens the engine over.
//!
//! `TimedFs`, in `--trace 1` runs, is `RealFs` with every read, write, fsync
//! and rename counted and timed, split into the data path and the
//! instrumentation's own files.
//!
//! `NoSyncFs`, in untraced runs, is `RealFs` whose `fsync`s return at once.
//! The sandbox's disk is shared: one `fsync` took 0.2 ms at its best and
//! 2.2 ms at its median an hour later, `trad_read`'s log phase makes 1 500 of
//! them (half of its time) and a session of `adaptive_session` 700, so with
//! real `fsync`s `log_mb_per_s` and `queries_per_s` measured the neighbours'
//! disk traffic — by 40–50 % on the acceptance host. What a device would add
//! is a count times that device's latency, and the count is
//! `backend.fsync.count`.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use mistique_store::{RealFs, StorageBackend, AUDIT_SUBDIR, INDEX_SUBDIR, TELEMETRY_SUBDIR};

/// Count, bytes and nanoseconds of one kind of call. `Relaxed` everywhere:
/// these are statistics and publish no other data.
#[derive(Debug, Default)]
pub struct IoStat {
    pub count: AtomicU64,
    pub bytes: AtomicU64,
    pub ns: AtomicU64,
}

impl IoStat {
    fn add(&self, bytes: u64, started: Instant) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.count.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
            self.ns.load(Ordering::Relaxed),
        )
    }
}

#[derive(Debug, Default)]
pub struct NoSyncFs(RealFs);

impl StorageBackend for NoSyncFs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.0.create_dir_all(dir)
    }

    fn read_file(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.0.read_file(path)
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.0.write_file(path, bytes)
    }

    fn sync_file(&self, _path: &Path) -> io::Result<()> {
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.0.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.0.remove_file(path)
    }

    fn sync_dir(&self, _dir: &Path) -> io::Result<()> {
        Ok(())
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.0.list_dir(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        self.0.exists(path)
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        self.0.file_len(path)
    }
}

#[derive(Debug, Default)]
pub struct TimedFs {
    inner: RealFs,
    pub read: IoStat,
    pub write: IoStat,
    pub fsync: IoStat,
    pub rename: IoStat,
    /// Writes under `telemetry/`, `audit/` or `index/`: what the
    /// instrumentation and the indexes cost at the device.
    pub aux_write: IoStat,
    /// Paths of data files read since the last [`TimedFs::take_reads`].
    reads: Mutex<Vec<PathBuf>>,
}

/// Is `path` one of the engine's side files rather than partition data?
pub fn is_aux(path: &Path) -> bool {
    path.components().any(|c| {
        let c = c.as_os_str();
        c == TELEMETRY_SUBDIR || c == AUDIT_SUBDIR || c == INDEX_SUBDIR
    })
}

impl TimedFs {
    /// The data files read since the last call, in order.
    pub fn take_reads(&self) -> Vec<PathBuf> {
        std::mem::take(&mut *self.reads.lock().expect("reads lock never poisoned"))
    }
}

impl StorageBackend for TimedFs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }

    fn read_file(&self, path: &Path) -> io::Result<Vec<u8>> {
        let t0 = Instant::now();
        let out = self.inner.read_file(path);
        if !is_aux(path) {
            self.read
                .add(out.as_ref().map_or(0, |b| b.len() as u64), t0);
            self.reads
                .lock()
                .expect("reads lock never poisoned")
                .push(path.to_path_buf());
        }
        out
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let t0 = Instant::now();
        let out = self.inner.write_file(path, bytes);
        let stat = if is_aux(path) {
            &self.aux_write
        } else {
            &self.write
        };
        stat.add(bytes.len() as u64, t0);
        out
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        let t0 = Instant::now();
        let out = self.inner.sync_file(path);
        self.fsync.add(0, t0);
        out
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let t0 = Instant::now();
        let out = self.inner.rename(from, to);
        self.rename.add(0, t0);
        out
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        let t0 = Instant::now();
        let out = self.inner.sync_dir(dir);
        self.fsync.add(0, t0);
        out
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.list_dir(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        self.inner.file_len(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aux_paths_are_recognised_by_component() {
        assert!(is_aux(Path::new("/x/store/telemetry/seg-0001.jsonl")));
        assert!(is_aux(Path::new("store/audit/seg.jsonl")));
        assert!(is_aux(Path::new("store/index/a.idx")));
        assert!(!is_aux(Path::new("store/part_00000001.bin")));
        assert!(!is_aux(Path::new("indexes/part_00000001.bin")));
    }

    #[test]
    fn counts_split_data_from_aux() {
        let dir = crate::tempdir::TempDir::new("timedfs-test").unwrap();
        let fs = TimedFs::default();
        fs.create_dir_all(&dir.path().join("audit")).unwrap();
        let data = dir.path().join("part_00000000.bin");
        fs.write_atomic(&data, b"hello").unwrap();
        fs.write_file(&dir.path().join("audit/seg"), b"journal")
            .unwrap();
        assert_eq!(fs.read_file(&data).unwrap(), b"hello");
        assert_eq!(fs.write.snapshot().0, 1);
        assert_eq!(fs.write.snapshot().1, 5);
        assert_eq!(fs.aux_write.snapshot().1, 7);
        assert_eq!(fs.rename.snapshot().0, 1);
        assert!(fs.fsync.snapshot().0 >= 1);
        assert_eq!(fs.take_reads(), vec![data]);
        assert!(fs.take_reads().is_empty());
    }
}
