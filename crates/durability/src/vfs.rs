//! The filesystem seam: everything the WAL and snapshotter touch goes
//! through a [`Vfs`], so the crash-matrix tests can interpose
//! [`CrashyVfs`] — deterministic, seeded fault injection in the style of
//! the wrapper layer's `SimulatedEndpoint` — while production runs on
//! [`StdVfs`].

use std::io::{self, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};

/// A writable file handle: sequential writes plus an explicit durability
/// barrier. Reads never go through a handle — recovery reads whole files
/// via [`Vfs::read`].
pub trait VfsFile: Write + Send {
    /// Flushes the handle's data (and metadata) to stable storage —
    /// `fsync`. Acknowledged mutations must not return before this.
    fn sync(&mut self) -> io::Result<()>;
}

/// The minimal filesystem surface durability needs. All paths are
/// absolute or caller-relative; implementations add no resolution of
/// their own.
pub trait Vfs: Send + Sync {
    /// Opens `path` for appending, creating it empty if absent.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Creates (or truncates) `path` for writing.
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Reads the whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Whether `path` exists.
    fn exists(&self, path: &Path) -> bool;
    /// Atomically replaces `to` with `from` (the snapshot commit point).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Truncates `path` to `len` bytes (torn-tail amputation).
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()>;
    /// Creates `path` and its ancestors as directories.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Fsyncs the directory at `path` itself, making freshly created (or
    /// renamed-in) entries durable — a file's own fsync does not cover
    /// its directory entry.
    fn sync_dir(&self, path: &Path) -> io::Result<()>;
}

// ---------------------------------------------------------------------------
// Real filesystem
// ---------------------------------------------------------------------------

/// [`Vfs`] over `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdVfs;

struct StdFile(std::fs::File);

impl Write for StdFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

impl VfsFile for StdFile {
    fn sync(&mut self) -> io::Result<()> {
        self.0.sync_all()
    }
}

impl Vfs for StdVfs {
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(Box::new(StdFile(file)))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(StdFile(std::fs::File::create(path)?)))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)?;
        // Make the rename itself durable: fsync the parent directory.
        self.sync_dir(to.parent().unwrap_or(Path::new(".")))
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let file = std::fs::OpenOptions::new().write(true).open(path)?;
        file.set_len(len)?;
        file.sync_all()
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        // Best-effort — some platforms cannot sync a directory handle,
        // and a failure here must not undo an already-visible rename or
        // create.
        if let Ok(dir) = std::fs::File::open(path) {
            let _ = dir.sync_all();
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Crash-fault injection
// ---------------------------------------------------------------------------

/// What to inject, derived deterministically from `BDI_CRASH_SEED` by the
/// crash-matrix suites. All triggers are one-shot: once any fires, the
/// VFS is *crashed* — every subsequent write, sync, rename or truncate
/// fails, emulating the process dying at that instant. Reads keep
/// working (recovery reopens with a fresh [`StdVfs`] anyway).
#[derive(Debug, Default, Clone, Copy)]
pub struct CrashPlan {
    /// Die after exactly this many payload bytes have been written: the
    /// write crossing the boundary is *short* (its leading bytes reach
    /// the file — a torn record) and then errors.
    pub kill_after_bytes: Option<u64>,
    /// The Nth (1-based) `sync` call fails and crashes the VFS. The data
    /// written before it stays in the file — "made it to the OS, never
    /// made it to the platter".
    pub fail_fsync_at: Option<u64>,
    /// The Nth (1-based) `rename` call fails and crashes the VFS — a
    /// crash between writing `snap.tmp` and committing it.
    pub fail_rename_at: Option<u64>,
}

struct CrashState {
    plan: CrashPlan,
    written: u64,
    syncs: u64,
    renames: u64,
    crashed: bool,
}

/// A [`Vfs`] decorator injecting the [`CrashPlan`]'s fault. Cloning
/// shares the crash state, so the handles it vends observe (and advance)
/// the same byte budget.
#[derive(Clone)]
pub struct CrashyVfs {
    inner: Arc<dyn Vfs>,
    state: Arc<Mutex<CrashState>>,
}

fn crash_err() -> io::Error {
    io::Error::other(crate::SIMULATED_CRASH)
}

impl CrashyVfs {
    /// Wraps `inner` with the given plan.
    pub fn new(inner: Arc<dyn Vfs>, plan: CrashPlan) -> Self {
        Self {
            inner,
            state: Arc::new(Mutex::new(CrashState {
                plan,
                written: 0,
                syncs: 0,
                renames: 0,
                crashed: false,
            })),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CrashState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether a fault has fired ("the process died").
    pub fn crashed(&self) -> bool {
        self.lock().crashed
    }

    /// Total payload bytes written through this VFS so far — a fault-free
    /// pass over a workload measures this to learn the byte range crash
    /// points can be drawn from.
    pub fn bytes_written(&self) -> u64 {
        self.lock().written
    }
}

struct CrashyFile {
    inner: Box<dyn VfsFile>,
    state: Arc<Mutex<CrashState>>,
}

impl CrashyFile {
    fn lock(&self) -> std::sync::MutexGuard<'_, CrashState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Write for CrashyFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut state = self.lock();
        if state.crashed {
            return Err(crash_err());
        }
        if let Some(limit) = state.plan.kill_after_bytes {
            let remaining = limit.saturating_sub(state.written);
            if (buf.len() as u64) > remaining {
                // Torn write: the prefix reaches the file, then death.
                state.crashed = true;
                state.written = limit;
                drop(state);
                let torn = buf.get(..remaining as usize).unwrap_or_default();
                if !torn.is_empty() {
                    self.inner.write_all(torn)?;
                }
                return Err(crash_err());
            }
        }
        state.written += buf.len() as u64;
        drop(state);
        self.inner.write_all(buf)?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.lock().crashed {
            return Err(crash_err());
        }
        self.inner.flush()
    }
}

impl VfsFile for CrashyFile {
    fn sync(&mut self) -> io::Result<()> {
        let mut state = self.lock();
        if state.crashed {
            return Err(crash_err());
        }
        state.syncs += 1;
        if state.plan.fail_fsync_at == Some(state.syncs) {
            state.crashed = true;
            return Err(crash_err());
        }
        drop(state);
        self.inner.sync()
    }
}

impl Vfs for CrashyVfs {
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        if self.lock().crashed {
            return Err(crash_err());
        }
        Ok(Box::new(CrashyFile {
            inner: self.inner.open_append(path)?,
            state: self.state.clone(),
        }))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        if self.lock().crashed {
            return Err(crash_err());
        }
        Ok(Box::new(CrashyFile {
            inner: self.inner.create(path)?,
            state: self.state.clone(),
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut state = self.lock();
        if state.crashed {
            return Err(crash_err());
        }
        state.renames += 1;
        if state.plan.fail_rename_at == Some(state.renames) {
            state.crashed = true;
            return Err(crash_err());
        }
        drop(state);
        self.inner.rename(from, to)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        if self.lock().crashed {
            return Err(crash_err());
        }
        self.inner.truncate(path, len)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        if self.lock().crashed {
            return Err(crash_err());
        }
        self.inner.create_dir_all(path)
    }

    /// Not counted against [`CrashPlan::fail_fsync_at`]: that budget is
    /// "one fsync per acknowledged mutation", and directory syncs happen
    /// only at file creation and snapshot rename.
    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        if self.lock().crashed {
            return Err(crash_err());
        }
        self.inner.sync_dir(path)
    }
}

#[cfg(test)]
#[allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "bdi-vfs-{}-{name}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn std_vfs_round_trips() {
        let dir = tmp("std");
        let path = dir.join("f");
        let vfs = StdVfs;
        let mut f = vfs.create(&path).unwrap();
        f.write_all(b"hello").unwrap();
        f.sync().unwrap();
        drop(f);
        assert_eq!(vfs.read(&path).unwrap(), b"hello");
        let mut f = vfs.open_append(&path).unwrap();
        f.write_all(b" world").unwrap();
        f.sync().unwrap();
        drop(f);
        assert_eq!(vfs.read(&path).unwrap(), b"hello world");
        vfs.truncate(&path, 5).unwrap();
        assert_eq!(vfs.read(&path).unwrap(), b"hello");
        let to = dir.join("g");
        vfs.rename(&path, &to).unwrap();
        assert!(vfs.exists(&to) && !vfs.exists(&path));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn kill_after_bytes_tears_the_crossing_write() {
        let dir = tmp("kill");
        let path = dir.join("f");
        let vfs = CrashyVfs::new(
            Arc::new(StdVfs),
            CrashPlan {
                kill_after_bytes: Some(7),
                ..CrashPlan::default()
            },
        );
        let mut f = vfs.create(&path).unwrap();
        f.write_all(b"abcde").unwrap(); // 5 ≤ 7: fine
        let err = f.write_all(b"fghij").unwrap_err(); // crosses at 7
        assert!(err.to_string().contains(crate::SIMULATED_CRASH));
        assert!(vfs.crashed());
        // The torn prefix reached the file; later ops all fail.
        assert_eq!(StdVfs.read(&path).unwrap(), b"abcdefg");
        assert!(f.write_all(b"x").is_err());
        assert!(vfs.create(&dir.join("g")).is_err());
        assert!(vfs.rename(&path, &dir.join("g")).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failing_fsync_keeps_written_data_but_crashes() {
        let dir = tmp("fsync");
        let path = dir.join("f");
        let vfs = CrashyVfs::new(
            Arc::new(StdVfs),
            CrashPlan {
                fail_fsync_at: Some(1),
                ..CrashPlan::default()
            },
        );
        let mut f = vfs.create(&path).unwrap();
        f.write_all(b"data").unwrap();
        assert!(f.sync().is_err());
        assert!(vfs.crashed());
        assert_eq!(StdVfs.read(&path).unwrap(), b"data");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failing_rename_leaves_target_untouched() {
        let dir = tmp("rename");
        let old = dir.join("snapshot.json");
        std::fs::write(&old, b"old").unwrap();
        let tmp_file = dir.join("snap.tmp");
        std::fs::write(&tmp_file, b"new").unwrap();
        let vfs = CrashyVfs::new(
            Arc::new(StdVfs),
            CrashPlan {
                fail_rename_at: Some(1),
                ..CrashPlan::default()
            },
        );
        assert!(vfs.rename(&tmp_file, &old).is_err());
        assert_eq!(StdVfs.read(&old).unwrap(), b"old");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
