//! # bdi-durability — the WAL + snapshot substrate under the mutable stores
//!
//! Everything above this crate is volatile; this crate is what survives
//! `kill -9`. Three pieces, deliberately free of any dependency (std only):
//!
//! * [`vfs`] — a minimal filesystem abstraction ([`Vfs`]) with a real
//!   implementation ([`StdVfs`]) and a seeded crash-fault-injecting one
//!   ([`CrashyVfs`]: short writes, failed fsyncs, kill-after-N-bytes),
//!   mirroring the wrapper layer's `SimulatedEndpoint` style of
//!   deterministic chaos;
//! * [`wal`] — a length-prefixed, CRC-framed, fsync-batched write-ahead
//!   log of [`LogRecord`]s with torn-tail detection on open (a record
//!   whose length or CRC does not check out truncates the log there
//!   instead of panicking);
//! * [`snapshot`] — a [`Snapshotter`] that writes store images via
//!   `snap.tmp` → fsync → atomic rename, so a crash mid-snapshot leaves
//!   the previous image intact.
//!
//! The crate stores and recovers opaque byte payloads; the op encodings
//! and the replay logic live with the stores (see `bdi_core::durable`).
//! Recovery correctness rests on two invariants the consumers uphold:
//! *log-then-apply* (a mutation is written and fsynced before it touches
//! any in-memory store) and *seq-filtered replay* (only records with
//! `seq` greater than the loaded snapshot's are re-applied, exactly once,
//! in order).

pub mod snapshot;
pub mod vfs;
pub mod wal;

pub use snapshot::{Snapshotter, SNAPSHOT_FILE};
pub use vfs::{CrashPlan, CrashyVfs, StdVfs, Vfs, VfsFile};
pub use wal::{LogRecord, Wal, WalOpen, WalStats, WAL_FILE};

/// The `BDI_CRASH_SEED` environment variable when set and parseable,
/// `default` otherwise — the seed the crash-matrix suites derive their
/// injected crash points from, swept across several values by CI.
pub fn env_crash_seed(default: u64) -> u64 {
    std::env::var("BDI_CRASH_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(default)
}

/// The sentinel message carried by every error the fault-injection layer
/// raises, so tests can tell an injected crash from a real IO failure.
pub const SIMULATED_CRASH: &str = "simulated crash";
