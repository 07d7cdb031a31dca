//! Pluggable filesystem backends for the store's durability-critical I/O.
//!
//! Everything the store writes to disk — partition files and (via
//! `mistique-core`) the manifest — goes through a [`StorageBackend`], so the
//! exact syscall sequence is a swappable, testable surface:
//!
//! * [`RealFs`] forwards to `std::fs` and actually fsyncs.
//! * [`FaultyFs`] is a deterministic in-memory filesystem that models what a
//!   power cut can do to unsynced state: it tracks *durable* vs *pending*
//!   (written-but-not-fsynced) content per file, holds renames un-committed
//!   until the parent directory is fsynced, counts every backend call so a
//!   crash can be injected at an exact syscall index, and can inject
//!   transient `EIO` / `ENOSPC` style faults.
//!
//! The write discipline itself lives in [`StorageBackend::write_atomic`]:
//! tmp file → fsync(file) → rename → fsync(dir). [`enumerate_crashes`] is
//! the one crash driver every crash suite runs through: it crashes a
//! workload at every backend call and hands each surviving disk, under every
//! [`TornWrite`] policy, to the suite's checks.

use std::collections::{HashMap, HashSet};
use std::ffi::OsString;
use std::fmt;
use std::fs;
use std::io;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// Filesystem operations the store performs, as one mockable surface.
///
/// Implementations must be shareable across threads (the concurrent read
/// path fans partition reads out over scoped threads).
pub trait StorageBackend: Send + Sync + std::fmt::Debug {
    /// Create a directory and any missing ancestors.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// Read a whole file.
    fn read_file(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Write a whole file (create or truncate). Not durable until
    /// [`StorageBackend::sync_file`].
    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// fsync a file's contents.
    fn sync_file(&self, path: &Path) -> io::Result<()>;
    /// Atomically rename a file. Not durable until the parent directory is
    /// synced via [`StorageBackend::sync_dir`].
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Remove a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// fsync a directory, making completed renames in it durable.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// List the files (not subdirectories) in a directory, sorted by path.
    fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;
    /// Whether a file or directory exists (metadata peek; never injected).
    fn exists(&self, path: &Path) -> bool;
    /// Size of a file in bytes.
    fn file_len(&self, path: &Path) -> io::Result<u64>;

    /// Crash-safe whole-file write: write to `<path>.tmp`, fsync it, rename
    /// over `path`, then fsync the parent directory. A crash at any point
    /// leaves either the old content (plus at most an orphaned tmp file, in
    /// the directory, which recovery removes) or the complete new content —
    /// never a torn file at `path`.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let tmp = tmp_path(path);
        self.write_file(&tmp, bytes)?;
        self.sync_file(&tmp)?;
        self.rename(&tmp, path)?;
        if let Some(parent) = path.parent() {
            self.sync_dir(parent)?;
        }
        Ok(())
    }
}

/// The tmp-file sibling used by [`StorageBackend::write_atomic`]:
/// `<path>.tmp` in the same directory, so the final rename never crosses a
/// filesystem boundary.
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut os: OsString = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// The real filesystem, with real fsyncs.
#[derive(Clone, Copy, Debug, Default)]
pub struct RealFs;

impl StorageBackend for RealFs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)
    }

    fn read_file(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        fs::write(path, bytes)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        fs::File::open(path)?.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // On unix, fsync on a read-only directory handle commits renames.
        fs::File::open(dir)?.sync_all()
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                out.push(entry.path());
            }
        }
        out.sort();
        Ok(out)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        fs::metadata(path).map(|m| m.len())
    }
}

/// What happens to written-but-unsynced file content at a power cut.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TornWrite {
    /// Unsynced writes vanish entirely (nothing hit the platter).
    DropAll,
    /// Unsynced writes survive as a prefix of half their length — the torn
    /// write case atomic rename discipline must tolerate.
    TornHalf,
    /// Unsynced writes happen to survive intact (the luckiest outcome — and
    /// the one that exposes code relying on luck instead of fsync).
    KeepAll,
}

impl TornWrite {
    /// Every policy, in the order crash enumerations apply them.
    pub const ALL: [TornWrite; 3] = [TornWrite::DropAll, TornWrite::TornHalf, TornWrite::KeepAll];
}

/// One file in the simulated filesystem: content that has been fsynced vs
/// content that is only in the (simulated) page cache.
#[derive(Clone, Debug, Default)]
struct VFile {
    durable: Option<Vec<u8>>,
    pending: Option<Vec<u8>>,
}

impl VFile {
    fn visible(&self) -> Option<&Vec<u8>> {
        self.pending.as_ref().or(self.durable.as_ref())
    }
}

/// A rename that has happened in the namespace but is not yet committed by a
/// directory fsync. `displaced` is whatever used to live at `to`.
#[derive(Clone, Debug)]
struct RenameRec {
    from: PathBuf,
    to: PathBuf,
    displaced: Option<VFile>,
}

#[derive(Clone, Debug, Default)]
struct FaultyState {
    files: HashMap<PathBuf, VFile>,
    dirs: HashSet<PathBuf>,
    pending_renames: Vec<RenameRec>,
    /// Backend calls so far (the crash-point clock).
    ops: u64,
    /// Each call the clock counted: its kind and the path it named first.
    trace: Vec<(&'static str, PathBuf)>,
    /// Crash when `ops` reaches this index (1-based).
    crash_at: Option<u64>,
    crashed: bool,
    /// One-shot transient fault at an op index.
    fail_at: Option<(u64, io::ErrorKind)>,
}

/// Deterministic fault-injecting in-memory filesystem.
///
/// Clones share state, so a test can hold a handle while the store owns
/// another. Every backend call (except [`StorageBackend::exists`]) ticks the
/// op counter; [`FaultyFs::crash_after`] arms a crash at an exact op index,
/// after which every call fails as if the process lost power mid-syscall.
/// [`FaultyFs::power_cut`] then resolves what survived — durable content
/// always, pending content per the chosen [`TornWrite`] policy, uncommitted
/// renames rolled back — and disarms, so the same backend can be reopened to
/// inspect the post-crash disk.
#[derive(Clone, Debug, Default)]
pub struct FaultyFs {
    state: Arc<Mutex<FaultyState>>,
}

fn crash_error() -> io::Error {
    io::Error::other("simulated power loss (FaultyFs crash point)")
}

impl FaultyFs {
    /// An empty simulated filesystem with no faults armed.
    pub fn new() -> FaultyFs {
        FaultyFs::default()
    }

    /// Backend calls made so far.
    pub fn op_count(&self) -> u64 {
        self.state.lock().unwrap().ops
    }

    /// Every backend call made so far, in order: the call's kind (the
    /// [`StorageBackend`] method name) and the path it named first. Once a
    /// crash fires, the crashed call stays the last entry until
    /// [`FaultyFs::power_cut`].
    pub fn op_trace(&self) -> Vec<(&'static str, PathBuf)> {
        self.state.lock().unwrap().trace.clone()
    }

    /// An independent copy of the whole filesystem: visible, durable and
    /// pending content, pending renames, the op clock and its trace, armed
    /// faults. Nothing done to the copy reaches the original, or the reverse.
    pub fn snapshot(&self) -> FaultyFs {
        let st = self.state.lock().unwrap().clone();
        FaultyFs {
            state: Arc::new(Mutex::new(st)),
        }
    }

    /// Arm a crash: the `n`-th backend call from the beginning (1-based)
    /// fails and every later call fails too, until [`FaultyFs::power_cut`].
    pub fn crash_after(&self, n: u64) {
        self.state.lock().unwrap().crash_at = Some(n);
    }

    /// Inject a one-shot transient fault (e.g. `ErrorKind::Interrupted` for
    /// EIO, `ErrorKind::StorageFull` for ENOSPC) at the given op index. The
    /// op has no effect; later calls succeed again.
    pub fn inject_error(&self, at_op: u64, kind: io::ErrorKind) {
        self.state.lock().unwrap().fail_at = Some((at_op, kind));
    }

    /// Whether an armed crash has fired.
    pub fn has_crashed(&self) -> bool {
        self.state.lock().unwrap().crashed
    }

    /// Resolve the simulated power cut: roll back renames never committed by
    /// a directory fsync, apply `policy` to written-but-unsynced content,
    /// and disarm all faults so the filesystem can be reopened.
    pub fn power_cut(&self, policy: TornWrite) {
        let mut st = self.state.lock().unwrap();
        st.crashed = false;
        st.crash_at = None;
        st.fail_at = None;
        let renames: Vec<RenameRec> = st.pending_renames.drain(..).collect();
        if policy != TornWrite::KeepAll {
            for rec in renames.into_iter().rev() {
                if let Some(moved) = st.files.remove(&rec.to) {
                    st.files.insert(rec.from.clone(), moved);
                }
                if let Some(displaced) = rec.displaced {
                    st.files.insert(rec.to.clone(), displaced);
                }
            }
        }
        for file in st.files.values_mut() {
            if let Some(pending) = file.pending.take() {
                match policy {
                    TornWrite::KeepAll => file.durable = Some(pending),
                    TornWrite::DropAll => {}
                    TornWrite::TornHalf => {
                        let keep = pending.len() / 2;
                        file.durable = Some(pending[..keep].to_vec());
                    }
                }
            }
        }
        st.files.retain(|_, f| f.durable.is_some());
    }

    /// Paths currently visible in the namespace, sorted.
    pub fn visible_files(&self) -> Vec<PathBuf> {
        let st = self.state.lock().unwrap();
        let mut out: Vec<PathBuf> = st
            .files
            .iter()
            .filter(|(_, f)| f.visible().is_some())
            .map(|(p, _)| p.clone())
            .collect();
        out.sort();
        out
    }

    /// Overwrite a file's durable content directly, bypassing fault
    /// injection — for tests that model external corruption (bitrot).
    pub fn corrupt_durable(&self, path: &Path, mutate: impl FnOnce(&mut Vec<u8>)) {
        let mut st = self.state.lock().unwrap();
        if let Some(file) = st.files.get_mut(path) {
            let mut bytes = file
                .durable
                .clone()
                .or_else(|| file.pending.clone())
                .unwrap_or_default();
            mutate(&mut bytes);
            file.durable = Some(bytes);
            file.pending = None;
        }
    }

    /// Tick the op clock, trace the call, and fire any armed fault. Returns
    /// the locked state for the op to apply its effect; an `Err` means the op
    /// had no effect.
    fn op(&self, kind: &'static str, path: &Path) -> io::Result<MutexGuard<'_, FaultyState>> {
        let mut st = self.state.lock().unwrap();
        if st.crashed {
            return Err(crash_error());
        }
        st.ops += 1;
        st.trace.push((kind, path.to_path_buf()));
        let now = st.ops;
        if let Some((at, kind)) = st.fail_at {
            if at == now {
                st.fail_at = None;
                return Err(io::Error::new(kind, "injected transient fault"));
            }
        }
        if let Some(at) = st.crash_at {
            if now >= at {
                st.crashed = true;
                return Err(crash_error());
            }
        }
        Ok(st)
    }
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::NotFound,
        format!("no such file: {}", path.display()),
    )
}

impl StorageBackend for FaultyFs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        let mut st = self.op("create_dir_all", dir)?;
        let mut cur = dir.to_path_buf();
        loop {
            st.dirs.insert(cur.clone());
            match cur.parent() {
                Some(p) if !p.as_os_str().is_empty() => cur = p.to_path_buf(),
                _ => break,
            }
        }
        Ok(())
    }

    fn read_file(&self, path: &Path) -> io::Result<Vec<u8>> {
        let st = self.op("read_file", path)?;
        st.files
            .get(path)
            .and_then(|f| f.visible().cloned())
            .ok_or_else(|| not_found(path))
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut st = self.op("write_file", path)?;
        st.files.entry(path.to_path_buf()).or_default().pending = Some(bytes.to_vec());
        Ok(())
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        let mut st = self.op("sync_file", path)?;
        let file = st.files.get_mut(path).ok_or_else(|| not_found(path))?;
        if let Some(pending) = file.pending.take() {
            file.durable = Some(pending);
        }
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut st = self.op("rename", from)?;
        let moved = st.files.remove(from).ok_or_else(|| not_found(from))?;
        let displaced = st.files.remove(to);
        st.files.insert(to.to_path_buf(), moved);
        st.pending_renames.push(RenameRec {
            from: from.to_path_buf(),
            to: to.to_path_buf(),
            displaced,
        });
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        // Removal is modeled as immediately durable: recovery (the only
        // caller) runs after the crash window the harness enumerates.
        let mut st = self.op("remove_file", path)?;
        st.files.remove(path).ok_or_else(|| not_found(path))?;
        Ok(())
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        let mut st = self.op("sync_dir", dir)?;
        st.pending_renames
            .retain(|rec| rec.to.parent() != Some(dir));
        st.dirs.insert(dir.to_path_buf());
        Ok(())
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let st = self.op("list_dir", dir)?;
        let mut out: Vec<PathBuf> = st
            .files
            .iter()
            .filter(|(p, f)| p.parent() == Some(dir) && f.visible().is_some())
            .map(|(p, _)| p.clone())
            .collect();
        out.sort();
        Ok(out)
    }

    fn exists(&self, path: &Path) -> bool {
        let st = self.state.lock().unwrap();
        st.files.get(path).is_some_and(|f| f.visible().is_some()) || st.dirs.contains(path)
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        let st = self.op("file_len", path)?;
        st.files
            .get(path)
            .and_then(|f| f.visible())
            .map(|b| b.len() as u64)
            .ok_or_else(|| not_found(path))
    }
}

/// One checked outcome of a crash enumeration: where the workload stopped
/// and what the power cut did to its unsynced writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashPoint {
    /// The backend call the crash fired at (1-based, counted from a fresh
    /// disk), or `None` for the run that completed.
    pub op: Option<u64>,
    /// What the power cut did to written-but-unsynced content.
    pub policy: TornWrite,
}

impl fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.op {
            Some(k) => write!(f, "crash at op {k} ({:?})", self.policy),
            None => write!(f, "completed run ({:?})", self.policy),
        }
    }
}

/// The crash driver: crash `workload` at every backend call it makes and
/// hand every surviving disk to `check`.
///
/// `open` builds the suite's state over a fresh [`FaultyFs`]; the calls it
/// makes are setup, not crash points. A golden run (`open`, then `workload`
/// to completion) fixes the crash points and the op trace. Then, for each
/// call `k` of the workload, one live run over a fresh disk crashes at `k`
/// and must return `Err` without panicking, having made exactly the golden
/// run's first `k` calls; its state is dropped, and `check` gets a power-cut
/// copy of the crashed disk ([`FaultyFs::snapshot`]) under each
/// [`TornWrite`] policy. Last, the golden run's own disk gets the same three
/// copies as the completed run, with `check` also given the golden
/// workload's output. Returns the number of crash points checked.
pub fn enumerate_crashes<S, T, E: fmt::Debug>(
    open: impl Fn(&FaultyFs) -> S,
    workload: impl Fn(&mut S) -> Result<T, E>,
    mut check: impl FnMut(&FaultyFs, CrashPoint, &T),
) -> u64 {
    let golden_fs = FaultyFs::new();
    let mut state = open(&golden_fs);
    let open_ops = golden_fs.op_count();
    let golden = workload(&mut state).unwrap_or_else(|e| panic!("golden workload failed: {e:?}"));
    let total = golden_fs.op_count();
    drop(state);
    let golden_trace = golden_fs.op_trace();

    let mut check_copies = |disk: &FaultyFs, op: Option<u64>| {
        for policy in TornWrite::ALL {
            let copy = disk.snapshot();
            copy.power_cut(policy);
            check(&copy, CrashPoint { op, policy }, &golden);
        }
    };
    for k in (open_ops + 1)..=total {
        let fs = FaultyFs::new();
        let mut state = open(&fs);
        fs.crash_after(k);
        let failed = panic::catch_unwind(AssertUnwindSafe(|| {
            let failed = workload(&mut state).is_err();
            drop(state); // the crashed process is gone
            failed
        }))
        .unwrap_or_else(|_| panic!("crash at op {k}: the workload panicked"));
        let trace = fs.op_trace();
        if let Some(i) = (0..k as usize).find(|&i| trace.get(i) != golden_trace.get(i)) {
            panic!(
                "crash at op {k}: call {} was {:?} but {:?} in the golden run; \
                 the workload's backend calls are not deterministic",
                i + 1,
                trace.get(i),
                golden_trace.get(i)
            );
        }
        assert!(failed, "crash at op {k} must surface as an error");
        assert!(fs.has_crashed(), "crash at op {k} never fired");
        check_copies(&fs, Some(k));
    }
    check_copies(&golden_fs, None);
    total - open_ops
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn unsynced_write_is_lost_on_drop_all() {
        let fs = FaultyFs::new();
        fs.write_file(&p("/d/a"), b"hello").unwrap();
        assert_eq!(fs.read_file(&p("/d/a")).unwrap(), b"hello");
        fs.power_cut(TornWrite::DropAll);
        assert!(fs.read_file(&p("/d/a")).is_err());
    }

    #[test]
    fn unsynced_write_is_torn_on_torn_half() {
        let fs = FaultyFs::new();
        fs.write_file(&p("/d/a"), b"hello world!").unwrap();
        fs.power_cut(TornWrite::TornHalf);
        assert_eq!(fs.read_file(&p("/d/a")).unwrap(), b"hello ");
    }

    #[test]
    fn synced_write_survives_any_policy() {
        for policy in TornWrite::ALL {
            let fs = FaultyFs::new();
            fs.write_file(&p("/d/a"), b"durable").unwrap();
            fs.sync_file(&p("/d/a")).unwrap();
            fs.power_cut(policy);
            assert_eq!(fs.read_file(&p("/d/a")).unwrap(), b"durable", "{policy:?}");
        }
    }

    #[test]
    fn rename_without_dir_sync_rolls_back() {
        let fs = FaultyFs::new();
        // Old manifest, durable.
        fs.write_file(&p("/d/m"), b"v1").unwrap();
        fs.sync_file(&p("/d/m")).unwrap();
        // New manifest written + synced + renamed, but directory never
        // synced: the rename must roll back, restoring v1.
        fs.write_file(&p("/d/m.tmp"), b"v2").unwrap();
        fs.sync_file(&p("/d/m.tmp")).unwrap();
        fs.rename(&p("/d/m.tmp"), &p("/d/m")).unwrap();
        assert_eq!(fs.read_file(&p("/d/m")).unwrap(), b"v2", "visible pre-cut");
        fs.power_cut(TornWrite::DropAll);
        assert_eq!(fs.read_file(&p("/d/m")).unwrap(), b"v1");
        // The new content survived at the tmp name (it was fsynced there).
        assert_eq!(fs.read_file(&p("/d/m.tmp")).unwrap(), b"v2");
    }

    #[test]
    fn rename_with_dir_sync_is_durable() {
        let fs = FaultyFs::new();
        fs.write_file(&p("/d/m"), b"v1").unwrap();
        fs.sync_file(&p("/d/m")).unwrap();
        fs.write_atomic(&p("/d/m"), b"v2").unwrap();
        fs.power_cut(TornWrite::DropAll);
        assert_eq!(fs.read_file(&p("/d/m")).unwrap(), b"v2");
        assert!(fs.read_file(&tmp_path(&p("/d/m"))).is_err(), "no tmp left");
    }

    #[test]
    fn crash_point_fires_once_and_sticks() {
        let fs = FaultyFs::new();
        fs.crash_after(2);
        fs.write_file(&p("/d/a"), b"1").unwrap();
        let err = fs.write_file(&p("/d/b"), b"2").unwrap_err();
        assert!(err.to_string().contains("simulated power loss"));
        assert!(fs.has_crashed());
        // Everything fails until the power cut is resolved, and only the
        // calls up to the crashed one are traced.
        assert!(fs.read_file(&p("/d/a")).is_err());
        let want = vec![("write_file", p("/d/a")), ("write_file", p("/d/b"))];
        assert_eq!(fs.op_trace(), want);
        fs.power_cut(TornWrite::KeepAll);
        assert_eq!(fs.read_file(&p("/d/a")).unwrap(), b"1");
        assert!(
            fs.read_file(&p("/d/b")).is_err(),
            "crashed op had no effect"
        );
    }

    /// A disk mid-`write_atomic`: `/d/m` durable at v1, v2 written and
    /// renamed over it without the directory fsync, and an unsynced `/d/p`.
    fn disk_mid_write() -> FaultyFs {
        let fs = FaultyFs::new();
        fs.write_file(&p("/d/m"), b"v1").unwrap();
        fs.sync_file(&p("/d/m")).unwrap();
        fs.write_file(&p("/d/m.tmp"), b"v2").unwrap();
        fs.sync_file(&p("/d/m.tmp")).unwrap();
        fs.rename(&p("/d/m.tmp"), &p("/d/m")).unwrap();
        fs.write_file(&p("/d/p"), b"pending!").unwrap();
        fs
    }

    /// Every visible file with its content.
    fn contents(fs: &FaultyFs) -> Vec<(PathBuf, Vec<u8>)> {
        fs.visible_files()
            .into_iter()
            .map(|f| {
                let bytes = fs.state.lock().unwrap().files[&f]
                    .visible()
                    .unwrap()
                    .clone();
                (f, bytes)
            })
            .collect()
    }

    #[test]
    fn snapshot_carries_content_renames_and_op_clock() {
        let fs = disk_mid_write();
        let copy = fs.snapshot();
        assert_eq!(copy.op_count(), fs.op_count());
        assert_eq!(copy.op_trace(), fs.op_trace());
        assert_eq!(contents(&copy), contents(&fs), "visible content");
        // Durable content and the pending rename came along: the cut rolls
        // the rename back to v1 and tears the unsynced file on the copy,
        // exactly as on the original.
        for policy in TornWrite::ALL {
            let (a, b) = (fs.snapshot(), copy.snapshot());
            a.power_cut(policy);
            b.power_cut(policy);
            assert_eq!(contents(&a), contents(&b), "{policy:?}");
        }
        copy.power_cut(TornWrite::TornHalf);
        assert_eq!(copy.read_file(&p("/d/m")).unwrap(), b"v1");
        assert_eq!(copy.read_file(&p("/d/m.tmp")).unwrap(), b"v2");
        assert_eq!(copy.read_file(&p("/d/p")).unwrap(), b"pend");
    }

    #[test]
    fn snapshot_and_original_are_independent() {
        let fs = disk_mid_write();
        let before = contents(&fs);
        let ops = fs.op_count();

        // Cutting power on and writing to the copy leaves the original alone.
        let copy = fs.snapshot();
        copy.power_cut(TornWrite::DropAll);
        copy.write_file(&p("/d/new"), b"copy only").unwrap();
        assert_eq!(contents(&fs), before);
        assert_eq!(fs.op_count(), ops);
        fs.power_cut(TornWrite::KeepAll);
        assert_eq!(fs.read_file(&p("/d/m")).unwrap(), b"v2", "rename kept");
        assert_eq!(fs.read_file(&p("/d/p")).unwrap(), b"pending!");

        // And the reverse: the original's cut and writes miss the copy.
        let fs = disk_mid_write();
        let copy = fs.snapshot();
        let copied = contents(&copy);
        fs.power_cut(TornWrite::DropAll);
        fs.write_file(&p("/d/new"), b"original only").unwrap();
        assert_eq!(contents(&copy), copied);
        assert_eq!(copy.op_count(), ops);
        copy.power_cut(TornWrite::KeepAll);
        assert_eq!(copy.read_file(&p("/d/m")).unwrap(), b"v2");
        assert!(copy.read_file(&p("/d/new")).is_err());
    }

    #[test]
    #[should_panic(expected = "must surface as an error")]
    fn enumeration_rejects_a_workload_that_swallows_the_crash() {
        enumerate_crashes(
            |fs| fs.clone(),
            |fs: &mut FaultyFs| {
                let _ = fs.write_file(&p("/d/a"), b"1");
                Ok::<(), io::Error>(())
            },
            |_, _, _| {},
        );
    }

    #[test]
    fn transient_fault_fires_once() {
        let fs = FaultyFs::new();
        fs.write_file(&p("/d/a"), b"x").unwrap();
        fs.inject_error(2, io::ErrorKind::StorageFull);
        let err = fs.write_file(&p("/d/a"), b"y").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        // The failed op had no effect; the next attempt succeeds.
        assert_eq!(fs.read_file(&p("/d/a")).unwrap(), b"x");
        fs.write_file(&p("/d/a"), b"y").unwrap();
        assert_eq!(fs.read_file(&p("/d/a")).unwrap(), b"y");
    }

    #[test]
    fn list_dir_sees_only_direct_children() {
        let fs = FaultyFs::new();
        fs.create_dir_all(&p("/d/sub")).unwrap();
        fs.write_file(&p("/d/a"), b"1").unwrap();
        fs.write_file(&p("/d/b"), b"2").unwrap();
        fs.write_file(&p("/d/sub/c"), b"3").unwrap();
        assert_eq!(fs.list_dir(&p("/d")).unwrap(), vec![p("/d/a"), p("/d/b")]);
        assert!(fs.exists(&p("/d/sub")));
    }

    #[test]
    fn real_fs_write_atomic_replaces_content() {
        let dir = mistique_testkit::tempdir().unwrap();
        let target = dir.path().join("file.bin");
        RealFs.write_atomic(&target, b"first").unwrap();
        assert_eq!(RealFs.read_file(&target).unwrap(), b"first");
        RealFs.write_atomic(&target, b"second").unwrap();
        assert_eq!(RealFs.read_file(&target).unwrap(), b"second");
        assert!(!RealFs.exists(&tmp_path(&target)), "tmp cleaned by rename");
        assert_eq!(RealFs.file_len(&target).unwrap(), 6);
        assert_eq!(RealFs.list_dir(dir.path()).unwrap(), vec![target]);
    }
}
