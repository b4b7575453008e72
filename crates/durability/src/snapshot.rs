//! Atomic store-image snapshots.
//!
//! A snapshot is an opaque byte image (the consumer serialises its
//! stores; see `bdi_core::durable`'s `DurableImage`). [`Snapshotter`]
//! only guarantees atomicity: the image is written to a temporary file,
//! fsynced, then renamed over [`SNAPSHOT_FILE`] — a crash at any point
//! leaves either the previous image or the new one, never a torn mix.
//! After a successful rename the caller truncates the WAL (records up to
//! the image's seq are covered); recovery filters replay by seq, so even
//! a crash landing between the rename and the truncate is harmless.

use crate::vfs::Vfs;
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::Arc;

/// The snapshot image's on-disk file name inside a data directory.
pub const SNAPSHOT_FILE: &str = "snapshot.json";

/// The temporary file a new image is staged in before the atomic rename.
pub(crate) const SNAPSHOT_TMP_FILE: &str = "snap.tmp";

/// Writes and reads atomic snapshot images inside one data directory.
pub struct Snapshotter {
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
}

impl Snapshotter {
    /// A snapshotter rooted at `dir` (which must already exist).
    pub fn new(vfs: Arc<dyn Vfs>, dir: PathBuf) -> Self {
        Snapshotter { vfs, dir }
    }

    /// The path the current image lives at, if any.
    pub fn image_path(&self) -> PathBuf {
        self.dir.join(SNAPSHOT_FILE)
    }

    /// Atomically replaces the image: stage to `snap.tmp`, fsync, rename.
    /// On any error the previous image (if one existed) is still intact.
    pub fn save(&self, image: &[u8]) -> io::Result<()> {
        let tmp = self.dir.join(SNAPSHOT_TMP_FILE);
        let mut file = self.vfs.create(&tmp)?;
        file.write_all(image)?;
        file.sync()?;
        drop(file);
        self.vfs.rename(&tmp, &self.image_path())
    }

    /// The current image's bytes, or `None` when no snapshot was ever
    /// completed (a leftover `snap.tmp` from a crashed save is ignored).
    pub fn load(&self) -> io::Result<Option<Vec<u8>>> {
        let path = self.image_path();
        if !self.vfs.exists(&path) {
            return Ok(None);
        }
        self.vfs.read(&path).map(Some)
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
    use crate::vfs::{CrashPlan, CrashyVfs, StdVfs};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "bdi-snap-{}-{name}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn save_then_load_round_trips() {
        let dir = tmp("round");
        let snap = Snapshotter::new(Arc::new(StdVfs), dir.clone());
        assert_eq!(snap.load().unwrap(), None);
        snap.save(b"image one").unwrap();
        assert_eq!(snap.load().unwrap().as_deref(), Some(&b"image one"[..]));
        snap.save(b"image two, longer").unwrap();
        assert_eq!(
            snap.load().unwrap().as_deref(),
            Some(&b"image two, longer"[..])
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_before_rename_preserves_previous_image() {
        let dir = tmp("crashy");
        let real = Snapshotter::new(Arc::new(StdVfs), dir.clone());
        real.save(b"old image").unwrap();

        let crashy = CrashyVfs::new(
            Arc::new(StdVfs),
            CrashPlan {
                fail_rename_at: Some(1),
                ..CrashPlan::default()
            },
        );
        let snap = Snapshotter::new(Arc::new(crashy), dir.clone());
        assert!(snap.save(b"new image").is_err());

        // The staged tmp never replaced the image; load ignores it.
        assert_eq!(real.load().unwrap().as_deref(), Some(&b"old image"[..]));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
