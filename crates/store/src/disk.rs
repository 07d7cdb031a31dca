//! On-disk partition storage: one file per sealed Partition.
//!
//! All mutations go through the [`StorageBackend`] with the atomic
//! tmp+fsync+rename+dirsync discipline, so a partition file is either absent
//! or complete — a crash can orphan a `*.tmp` file but never tear a
//! `part_*.bin`. The [`DiskStore::sweep`] recovery pass removes orphans and
//! quarantines any partition with a byte that fails its checksum (bitrot,
//! or torn writes from a pre-atomic store).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::backend::{RealFs, StorageBackend};
use crate::partition::{Partition, PartitionId};
use crate::StoreError;

/// Suffix appended to a quarantined partition file.
const QUARANTINE_SUFFIX: &str = ".quarantined";

/// Persistent store writing sealed partitions to a directory.
///
/// Reads take `&self` so concurrent partition fetches can run from scoped
/// threads without locking the whole store.
#[derive(Debug)]
pub struct DiskStore {
    dir: PathBuf,
    backend: Arc<dyn StorageBackend>,
    bytes_written: u64,
}

/// What a [`DiskStore::sweep`] recovery pass found in the directory.
#[derive(Clone, Debug, Default)]
pub struct SweepOutcome {
    /// Partitions whose every byte verified.
    pub ok: Vec<PartitionId>,
    /// Partitions that failed verification, with the reason; their files
    /// were renamed aside with a `.quarantined` suffix.
    pub quarantined: Vec<(PartitionId, String)>,
    /// Orphaned `*.tmp` files removed.
    pub orphans_removed: u64,
}

impl DiskStore {
    /// Open (creating if needed) a disk store rooted at `dir` on the real
    /// filesystem.
    pub fn open(dir: impl AsRef<Path>) -> Result<DiskStore, StoreError> {
        Self::open_with_backend(dir, Arc::new(RealFs))
    }

    /// Open a disk store over an explicit [`StorageBackend`].
    pub fn open_with_backend(
        dir: impl AsRef<Path>,
        backend: Arc<dyn StorageBackend>,
    ) -> Result<DiskStore, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        backend.create_dir_all(&dir)?;
        Ok(DiskStore {
            dir,
            backend,
            bytes_written: 0,
        })
    }

    /// The backend this store writes through.
    pub fn backend(&self) -> &Arc<dyn StorageBackend> {
        &self.backend
    }

    fn path_of(&self, id: PartitionId) -> PathBuf {
        self.dir.join(format!("part_{id:08x}.bin"))
    }

    /// Parse a partition id out of a `part_XXXXXXXX.bin` file name.
    fn partition_id_of(name: &str) -> Option<PartitionId> {
        let hex = name.strip_prefix("part_")?.strip_suffix(".bin")?;
        PartitionId::from_str_radix(hex, 16).ok()
    }

    /// Write a sealed partition (overwrites any previous version). The write
    /// is atomic and durable: tmp file + fsync + rename + directory fsync.
    pub fn write(&mut self, id: PartitionId, sealed: &[u8]) -> Result<(), StoreError> {
        self.backend.write_atomic(&self.path_of(id), sealed)?;
        self.bytes_written += sealed.len() as u64;
        Ok(())
    }

    /// Read a sealed partition's bytes. Safe to call from several threads at
    /// once (partition files are immutable once sealed, modulo overwrite).
    pub fn read(&self, id: PartitionId) -> Result<Vec<u8>, StoreError> {
        self.backend.read_file(&self.path_of(id)).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                StoreError::NotFound
            } else {
                StoreError::Io(e)
            }
        })
    }

    /// Whether a partition file exists.
    pub fn contains(&self, id: PartitionId) -> bool {
        self.backend.exists(&self.path_of(id))
    }

    /// Remove a partition file (compaction of a fully-dead partition). The
    /// removal is made durable with a directory fsync; removing a partition
    /// that does not exist is not an error (idempotent, like the sweep).
    pub fn remove(&mut self, id: PartitionId) -> Result<(), StoreError> {
        let path = self.path_of(id);
        if !self.backend.exists(&path) {
            return Ok(());
        }
        self.backend.remove_file(&path)?;
        self.backend.sync_dir(&self.dir)?;
        Ok(())
    }

    /// Recovery sweep over the directory: remove orphaned `*.tmp` files left
    /// by a crash mid-write, verify every byte of every `part_*.bin` (its
    /// head and each member, [`Partition::verify`]), and rename failing
    /// partitions aside (`.quarantined`) so one bad file cannot poison the
    /// rest of the store. Other files (e.g. the manifest)
    /// are ignored.
    pub fn sweep(&mut self) -> Result<SweepOutcome, StoreError> {
        let mut out = SweepOutcome::default();
        for path in self.backend.list_dir(&self.dir)? {
            let name = match path.file_name().and_then(|n| n.to_str()) {
                Some(n) => n.to_string(),
                None => continue,
            };
            if name.ends_with(".tmp") {
                self.backend.remove_file(&path)?;
                out.orphans_removed += 1;
            } else if let Some(id) = Self::partition_id_of(&name) {
                let bytes = self.backend.read_file(&path)?;
                match Partition::verify(&bytes) {
                    Ok(()) => out.ok.push(id),
                    Err(e) => {
                        let mut quarantine = path.as_os_str().to_os_string();
                        quarantine.push(QUARANTINE_SUFFIX);
                        self.backend.rename(&path, &PathBuf::from(quarantine))?;
                        self.backend.sync_dir(&self.dir)?;
                        out.quarantined.push((id, e.to_string()));
                    }
                }
            }
        }
        Ok(out)
    }

    /// Total compressed bytes of the partition files currently on disk.
    /// The directory's other tenants — the manifest, sidecar directories,
    /// `*.tmp` orphans, quarantined files — are not stored data.
    pub fn disk_bytes(&self) -> Result<u64, StoreError> {
        let mut total = 0;
        for path in self.backend.list_dir(&self.dir)? {
            let name = path.file_name().and_then(|n| n.to_str());
            if name.and_then(Self::partition_id_of).is_some() {
                total += self.backend.file_len(&path)?;
            }
        }
        Ok(total)
    }

    /// Cumulative bytes written (I/O volume, for the logging-overhead
    /// experiment of Fig 11).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{enumerate_crashes, FaultyFs};

    #[test]
    fn write_read_roundtrip() {
        let dir = mistique_testkit::tempdir().unwrap();
        let mut store = DiskStore::open(dir.path()).unwrap();
        store.write(3, b"sealed bytes").unwrap();
        assert!(store.contains(3));
        assert_eq!(store.read(3).unwrap(), b"sealed bytes");
        assert_eq!(store.bytes_written(), 12);
        // Overwriting replaces the bytes a read returns.
        store.write(3, b"resealed").unwrap();
        assert_eq!(store.read(3).unwrap(), b"resealed");
        assert_eq!(store.bytes_written(), 20);
    }

    #[test]
    fn missing_partition_is_not_found() {
        let dir = mistique_testkit::tempdir().unwrap();
        let store = DiskStore::open(dir.path()).unwrap();
        assert!(!store.contains(9));
        assert!(matches!(store.read(9), Err(StoreError::NotFound)));
    }

    #[test]
    fn disk_bytes_sums_files() {
        let dir = mistique_testkit::tempdir().unwrap();
        let mut store = DiskStore::open(dir.path()).unwrap();
        store.write(1, &[0u8; 100]).unwrap();
        store.write(2, &[0u8; 50]).unwrap();
        assert_eq!(store.disk_bytes().unwrap(), 150);
        // Overwrite shrinks the file.
        store.write(1, &[0u8; 10]).unwrap();
        assert_eq!(store.disk_bytes().unwrap(), 60);
        // Only partition files are stored data: not the manifest, a sidecar
        // directory, an orphan of a crashed write or a quarantined file.
        for other in [
            "mistique_manifest.json",
            "part_00000001.bin.tmp",
            "part_00000007.bin.quarantined",
        ] {
            std::fs::write(dir.path().join(other), [0u8; 1000]).unwrap();
        }
        std::fs::create_dir(dir.path().join("telemetry")).unwrap();
        assert_eq!(store.disk_bytes().unwrap(), 60);
    }

    #[test]
    fn remove_deletes_file_and_is_idempotent() {
        let dir = mistique_testkit::tempdir().unwrap();
        let mut store = DiskStore::open(dir.path()).unwrap();
        store.write(4, &[1u8; 32]).unwrap();
        assert!(store.contains(4));
        store.remove(4).unwrap();
        assert!(!store.contains(4));
        assert!(matches!(store.read(4), Err(StoreError::NotFound)));
        store.remove(4).unwrap(); // second removal is a no-op
        assert_eq!(store.disk_bytes().unwrap(), 0);
    }

    #[test]
    fn crash_mid_write_never_tears_a_partition() {
        // A crash at every call of a two-partition write run: afterwards
        // each partition file is either absent or byte-complete.
        let mut checked = 0;
        let points = enumerate_crashes(
            |fs| DiskStore::open_with_backend("/vfs", Arc::new(fs.clone())).unwrap(),
            |store| {
                store
                    .write(1, &[0xa5; 64])
                    .and_then(|_| store.write(2, &[0x5a; 48]))
            },
            |fs, point, _| {
                let store = DiskStore::open_with_backend("/vfs", Arc::new(fs.clone())).unwrap();
                for (id, byte, len) in [(1u64, 0xa5u8, 64usize), (2, 0x5a, 48)] {
                    match store.read(id) {
                        Ok(bytes) => assert_eq!(bytes, vec![byte; len], "{point}"),
                        Err(StoreError::NotFound) if point.op.is_some() => {}
                        Err(e) => panic!("{point}: unexpected {e}"),
                    }
                }
                checked += 1;
            },
        );
        assert_eq!(points, 8, "two atomic writes of four calls each");
        assert_eq!(
            checked,
            9 * 3,
            "each crash point and the completed run, per policy"
        );
    }

    #[test]
    fn sweep_removes_orphans_and_quarantines_torn_partitions() {
        let fs = FaultyFs::new();
        let backend: Arc<dyn StorageBackend> = Arc::new(fs.clone());
        let mut store = DiskStore::open_with_backend("/vfs", Arc::clone(&backend)).unwrap();
        // A good partition: sealed bytes carry a valid trailer.
        let mut part = Partition::new(7);
        let frame = mistique_compress::compress_auto(b"x");
        part.add(mistique_dedup::content_digest(b"x"), frame);
        store.write(7, &part.seal()).unwrap();
        // A torn partition written behind the store's back, and an orphan.
        backend
            .write_file(&PathBuf::from("/vfs/part_00000009.bin"), b"torn")
            .unwrap();
        backend
            .write_file(&PathBuf::from("/vfs/part_00000003.bin.tmp"), b"junk")
            .unwrap();

        let outcome = store.sweep().unwrap();
        assert_eq!(outcome.ok, vec![7]);
        assert_eq!(outcome.orphans_removed, 1);
        assert_eq!(outcome.quarantined.len(), 1);
        assert_eq!(outcome.quarantined[0].0, 9);
        // The torn file was set aside, not deleted; the good one still reads.
        assert!(!store.contains(9));
        assert!(backend.exists(&PathBuf::from("/vfs/part_00000009.bin.quarantined")));
        assert!(store.read(7).is_ok());
        // A second sweep finds a clean directory.
        let again = store.sweep().unwrap();
        assert_eq!(again.ok, vec![7]);
        assert_eq!(again.orphans_removed, 0);
        assert!(again.quarantined.is_empty());
    }
}
