//! The write-ahead log: an append-only file of length-prefixed,
//! CRC-framed records.
//!
//! # File format
//!
//! ```text
//! magic  := "BDIWAL01"                              (8 bytes)
//! record := len:u32le  crc:u32le  payload[len]
//! payload:= seq:u64le  store_id:u32le  op[len-12]
//! ```
//!
//! `crc` covers the payload (CRC-32/IEEE). On open the records are
//! scanned in order; the first frame whose length runs past EOF, whose
//! CRC mismatches, or whose payload is shorter than its fixed header
//! marks a *torn tail* — everything from that offset on is truncated
//! away, never panicked over. A file whose magic itself is damaged is
//! reset to an empty log (its records were covered by a snapshot or were
//! never acknowledged — an append is only acknowledged after
//! [`Wal::commit`] fsyncs it, and fsync ordering means a torn magic
//! implies nothing after it was acknowledged either).
//!
//! # Fsync batching
//!
//! [`Wal::append`] only buffers into the OS file; [`Wal::commit`] is the
//! durability barrier. A mutation batch (e.g. a bulk `extend`) appends
//! all its records and commits once — one fsync per acknowledged
//! mutation, not per record.

use crate::vfs::{Vfs, VfsFile};
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::Arc;

/// The WAL's on-disk file name inside a data directory.
pub const WAL_FILE: &str = "wal.log";

/// The 8-byte magic that starts every WAL file.
pub(crate) const WAL_MAGIC: &[u8; 8] = b"BDIWAL01";

/// Fixed payload header: seq (8) + store_id (4).
const PAYLOAD_HEADER: usize = 12;
/// Frame header: len (4) + crc (4).
const FRAME_HEADER: usize = 8;

/// One journaled mutation: a monotonically increasing sequence number,
/// the store it targets, and the store-specific op encoding (opaque to
/// this crate).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// Position in the global mutation order; never reused, even across
    /// snapshot truncations.
    pub seq: u64,
    /// Which store's op this is (`bdi_core::durable` defines the ids).
    pub store_id: u32,
    /// The store-specific op encoding.
    pub op: Vec<u8>,
}

/// Write-path counters, surfaced through the system's durability stats.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended over this handle's lifetime.
    pub records_appended: u64,
    /// Frame bytes appended (headers included).
    pub bytes_appended: u64,
    /// Durability barriers ([`Wal::commit`] calls that reached fsync).
    pub fsyncs: u64,
}

/// An open WAL plus what [`Wal::open`] found on disk.
pub struct WalOpen {
    /// The log, positioned to append after the last intact record.
    pub wal: Wal,
    /// Every intact record, in seq order, for replay.
    pub records: Vec<LogRecord>,
    /// Byte offset a torn tail was truncated at, if one was found.
    pub truncated_at: Option<u64>,
}

/// The append handle over the log file.
pub struct Wal {
    vfs: Arc<dyn Vfs>,
    path: PathBuf,
    file: Box<dyn VfsFile>,
    next_seq: u64,
    dirty: bool,
    stats: WalStats,
}

/// CRC-32 (IEEE 802.3, reflected). Bitwise — the op payloads here are
/// small enough that a lookup table buys nothing worth the code.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

impl Wal {
    /// Opens (or creates) the log at `path`, scanning and returning every
    /// intact record and amputating any torn tail. Never panics on
    /// damaged input: damage truncates, it does not abort recovery.
    ///
    /// `covered_seq` is the last seq already covered by a snapshot image
    /// (0 without one). Appends continue above **both** it and the last
    /// on-disk record — a checkpoint truncates the log, so after a
    /// restart the file alone under-reports how far seqs have gone, and
    /// seeding from records only would hand out seqs the replay filter
    /// (`seq > image.seq`) silently discards.
    pub fn open(vfs: Arc<dyn Vfs>, path: PathBuf, covered_seq: u64) -> io::Result<WalOpen> {
        let mut records = Vec::new();
        let mut truncated_at = None;

        if vfs.exists(&path) {
            let bytes = vfs.read(&path)?;
            if !bytes.starts_with(WAL_MAGIC) {
                // Damaged/torn header: reset to an empty log.
                truncated_at = Some(0);
                let mut file = vfs.create(&path)?;
                file.write_all(WAL_MAGIC)?;
                file.sync()?;
            } else {
                let mut off = WAL_MAGIC.len();
                loop {
                    match read_frame(&bytes, off) {
                        FrameResult::Record(record, next) => {
                            records.push(record);
                            off = next;
                        }
                        FrameResult::End => break,
                        FrameResult::Torn => {
                            truncated_at = Some(off as u64);
                            vfs.truncate(&path, off as u64)?;
                            break;
                        }
                    }
                }
            }
        } else {
            let mut file = vfs.create(&path)?;
            file.write_all(WAL_MAGIC)?;
            file.sync()?;
            drop(file);
            // The file's bytes are durable, but its directory entry is
            // not until the directory itself is fsynced — without this a
            // power loss on a never-checkpointed data dir could drop
            // wal.log entirely, acknowledged records and all.
            if let Some(parent) = path.parent() {
                vfs.sync_dir(parent)?;
            }
        }

        let next_seq = records
            .last()
            .map(|r| r.seq + 1)
            .unwrap_or(1)
            .max(covered_seq + 1);
        let file = vfs.open_append(&path)?;
        Ok(WalOpen {
            wal: Wal {
                vfs,
                path,
                file,
                next_seq,
                dirty: false,
                stats: WalStats::default(),
            },
            records,
            truncated_at,
        })
    }

    /// Appends one record, assigning and returning its `seq`. Buffered:
    /// not durable (and so not acknowledgeable) until [`Wal::commit`].
    /// On error the file may hold a torn frame; the caller must stop
    /// using this log (the next open amputates the tear).
    pub fn append(&mut self, store_id: u32, op: &[u8]) -> io::Result<u64> {
        let seq = self.next_seq;
        let mut payload = Vec::with_capacity(PAYLOAD_HEADER + op.len());
        payload.extend_from_slice(&seq.to_le_bytes());
        payload.extend_from_slice(&store_id.to_le_bytes());
        payload.extend_from_slice(op);
        let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        self.file.write_all(&frame)?;
        self.next_seq += 1;
        self.dirty = true;
        self.stats.records_appended += 1;
        self.stats.bytes_appended += frame.len() as u64;
        Ok(seq)
    }

    /// The durability barrier: fsyncs everything appended since the last
    /// commit. A no-op when nothing is pending.
    pub fn commit(&mut self) -> io::Result<()> {
        if !self.dirty {
            return Ok(());
        }
        self.file.sync()?;
        self.dirty = false;
        self.stats.fsyncs += 1;
        Ok(())
    }

    /// Truncates the log to empty after a snapshot covered its records.
    /// `seq` keeps counting from where it was — recovery filters replay
    /// by `seq > snapshot.seq`, so even a crash landing between the
    /// snapshot rename and this reset only leaves records that replay
    /// will skip.
    pub fn reset(&mut self) -> io::Result<()> {
        let mut file = self.vfs.create(&self.path)?;
        file.write_all(WAL_MAGIC)?;
        file.sync()?;
        drop(file);
        self.file = self.vfs.open_append(&self.path)?;
        self.dirty = false;
        Ok(())
    }

    /// The seq the next append will be assigned.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The seq of the last appended record (0 when none ever was).
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Write-path counters for this handle's lifetime.
    pub fn stats(&self) -> WalStats {
        self.stats
    }
}

enum FrameResult {
    Record(LogRecord, usize),
    End,
    Torn,
}

/// Decodes the frame at `off`, distinguishing a clean end of log from a
/// torn/corrupt tail.
fn read_frame(bytes: &[u8], off: usize) -> FrameResult {
    let frame = bytes.get(off..).unwrap_or_default();
    if frame.is_empty() {
        return FrameResult::End;
    }
    let Some((&[l0, l1, l2, l3, c0, c1, c2, c3], rest)) = frame.split_first_chunk::<FRAME_HEADER>()
    else {
        return FrameResult::Torn; // partial frame header
    };
    let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
    let Some(payload) = rest.get(..len) else {
        return FrameResult::Torn; // length runs past EOF
    };
    if crc32(payload) != u32::from_le_bytes([c0, c1, c2, c3]) {
        return FrameResult::Torn;
    }
    let Some((seq, body)) = payload.split_first_chunk::<8>() else {
        return FrameResult::Torn; // impossible length: corrupt
    };
    let Some((store_id, op)) = body.split_first_chunk::<4>() else {
        return FrameResult::Torn;
    };
    FrameResult::Record(
        LogRecord {
            seq: u64::from_le_bytes(*seq),
            store_id: u32::from_le_bytes(*store_id),
            op: op.to_vec(),
        },
        off + FRAME_HEADER + len,
    )
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
    use crate::vfs::StdVfs;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "bdi-wal-{}-{name}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn vfs() -> Arc<dyn Vfs> {
        Arc::new(StdVfs)
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_commit_reopen_round_trips() {
        let dir = tmp("round");
        let path = dir.join(WAL_FILE);
        let mut open = Wal::open(vfs(), path.clone(), 0).unwrap();
        assert!(open.records.is_empty());
        assert_eq!(open.wal.append(1, b"alpha").unwrap(), 1);
        assert_eq!(open.wal.append(2, b"").unwrap(), 2);
        assert_eq!(open.wal.append(1, &[0xFF; 300]).unwrap(), 3);
        open.wal.commit().unwrap();
        assert_eq!(open.wal.stats().records_appended, 3);
        assert_eq!(open.wal.stats().fsyncs, 1);
        drop(open);

        let reopened = Wal::open(vfs(), path, 0).unwrap();
        assert_eq!(reopened.truncated_at, None);
        let records = &reopened.records;
        assert_eq!(records.len(), 3);
        assert_eq!(
            records[0],
            LogRecord {
                seq: 1,
                store_id: 1,
                op: b"alpha".to_vec()
            }
        );
        assert_eq!(records[1].op, Vec::<u8>::new());
        assert_eq!(records[2].op.len(), 300);
        assert_eq!(reopened.wal.next_seq(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_not_panicked() {
        let dir = tmp("torn");
        let path = dir.join(WAL_FILE);
        let mut open = Wal::open(vfs(), path.clone(), 0).unwrap();
        open.wal.append(1, b"keep me").unwrap();
        open.wal.commit().unwrap();
        drop(open);
        let intact_len = std::fs::metadata(&path).unwrap().len();

        // A partial frame at the tail: header promising more than exists.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&100u32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(b"short");
        std::fs::write(&path, &bytes).unwrap();

        let reopened = Wal::open(vfs(), path.clone(), 0).unwrap();
        assert_eq!(reopened.records.len(), 1);
        assert_eq!(reopened.truncated_at, Some(intact_len));
        assert_eq!(std::fs::metadata(&path).unwrap().len(), intact_len);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_crc_truncates_from_the_bad_record() {
        let dir = tmp("crc");
        let path = dir.join(WAL_FILE);
        let mut open = Wal::open(vfs(), path.clone(), 0).unwrap();
        open.wal.append(1, b"first").unwrap();
        open.wal.append(1, b"second").unwrap();
        open.wal.commit().unwrap();
        drop(open);

        // Flip a payload byte of the second record.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let reopened = Wal::open(vfs(), path, 0).unwrap();
        assert_eq!(reopened.records.len(), 1);
        assert_eq!(reopened.records[0].op, b"first".to_vec());
        assert!(reopened.truncated_at.is_some());
        // Appends continue after the amputated record's seq.
        assert_eq!(reopened.wal.next_seq(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_magic_resets_to_empty() {
        let dir = tmp("magic");
        let path = dir.join(WAL_FILE);
        std::fs::write(&path, b"NOTAWAL!rest").unwrap();
        let open = Wal::open(vfs(), path.clone(), 0).unwrap();
        assert!(open.records.is_empty());
        assert_eq!(open.truncated_at, Some(0));
        drop(open);
        assert_eq!(std::fs::read(&path).unwrap(), WAL_MAGIC);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn covered_seq_floors_next_seq_over_a_truncated_log() {
        let dir = tmp("floor");
        let path = dir.join(WAL_FILE);
        // An empty (checkpoint-truncated) log with image.seq = 5 must not
        // hand out seqs 1..=5 again — replay would filter them away.
        let mut open = Wal::open(vfs(), path.clone(), 5).unwrap();
        assert_eq!(open.wal.next_seq(), 6);
        assert_eq!(open.wal.append(1, b"post-checkpoint").unwrap(), 6);
        open.wal.commit().unwrap();
        drop(open);
        // On-disk records beyond the floor win over it.
        let reopened = Wal::open(vfs(), path.clone(), 5).unwrap();
        assert_eq!(reopened.wal.next_seq(), 7);
        drop(reopened);
        // A stale floor never rewinds below the records.
        let reopened = Wal::open(vfs(), path, 2).unwrap();
        assert_eq!(reopened.wal.next_seq(), 7);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reset_empties_but_seq_keeps_counting() {
        let dir = tmp("reset");
        let path = dir.join(WAL_FILE);
        let mut open = Wal::open(vfs(), path.clone(), 0).unwrap();
        open.wal.append(1, b"a").unwrap();
        open.wal.append(1, b"b").unwrap();
        open.wal.commit().unwrap();
        open.wal.reset().unwrap();
        assert_eq!(open.wal.append(1, b"c").unwrap(), 3);
        open.wal.commit().unwrap();
        drop(open);
        let reopened = Wal::open(vfs(), path, 0).unwrap();
        assert_eq!(reopened.records.len(), 1);
        assert_eq!(reopened.records[0].seq, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
