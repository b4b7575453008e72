//! The durable storage tier: WAL + snapshot recovery over a [`BdiSystem`].
//!
//! [`DurableSystem`] wraps a system and its backing [`DocStore`] with the
//! `bdi_durability` substrate. Every mutation to the three mutable stores
//! — the ontology's quad store, the document collections and the
//! table-wrapper rows — goes through one `log_then_apply` funnel:
//! the op is encoded, appended to the WAL and **fsynced before** it
//! touches any in-memory state, so a mutation is acknowledged if and only
//! if it is on stable storage. [`DurableSystem::checkpoint`] writes a
//! `DurableImage` (the deployment snapshot *plus* every cache-validity
//! counter) via tmp-file → fsync → atomic rename, then truncates the log;
//! [`DurableSystem::open`] loads the image, restores the counters
//! bit-exact, and replays only the log records with `seq` greater than
//! the image's — exactly-once replay even when a crash landed between the
//! snapshot rename and the log truncation.
//!
//! # Counter restoration
//!
//! The plan/scan-cache validity scheme hangs off monotonic counters
//! (`QuadStore::mutation_count`, `DocStore::collection_version`,
//! `TableWrapper::data_version`). A reboot that restarted them at 0 would
//! let a stamp taken before the crash collide with a *different*
//! post-restart state. Recovery therefore restores the persisted values
//! first and then replays through the normal bump paths; since replayed
//! ops bump exactly as the originals did, the recovered counters equal
//! the pre-crash ones — and "equal counter ⇒ equal contents" survives the
//! process boundary.
//!
//! # Poisoning
//!
//! Any journal or checkpoint failure leaves memory and disk potentially
//! divergent, so it *poisons* the handle: every further mutation fails
//! with [`DurableError::Poisoned`] until the directory is reopened (which
//! recovers from what actually reached the disk). Reads keep working.
//!
//! # One codec
//!
//! Quads reach the log as TriG through [`bdi_rdf::trig`]'s one writer and
//! reader, as the image's ontology does, so the image holds every quad
//! the log accepted. Documents and rows go as the JSON `WrapperSpec` uses.

// Recovery reads bytes from disk: a bad byte is an `Err`, never a panic.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::release::{Release, ReleaseStats};
use crate::snapshot::{SnapshotError, SystemSnapshot};
use crate::system::{Answer, AnswerRequest, BdiSystem, SystemError};
use bdi_docstore::{DocStore, StoreError};
use bdi_durability::{Snapshotter, StdVfs, Vfs, Wal, WalStats};
pub use bdi_durability::{SNAPSHOT_FILE, WAL_FILE};
use bdi_rdf::model::{GraphName, Iri, Quad, Term};
use bdi_rdf::trig::{parse_trig, write_trig};
use bdi_rdf::turtle::PrefixMap;
use bdi_wrappers::spec::{json_to_value, row_to_json};
use bdi_wrappers::{Wrapper, WrapperError};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Store id journaled with every quad-store op.
pub(crate) const STORE_QUAD: u32 = 1;
/// Store id journaled with every document-store op.
pub const STORE_DOC: u32 = 2;
/// Store id journaled with every table-wrapper op.
pub const STORE_TABLE: u32 = 3;

/// Errors raised by the durable tier.
#[derive(Debug, thiserror::Error)]
pub enum DurableError {
    /// An I/O failure from the WAL, snapshot or directory handling.
    #[error("durability io error: {0}")]
    Io(#[from] std::io::Error),
    /// A previous journal/checkpoint failure left memory and disk
    /// potentially divergent; reopen the directory to recover.
    #[error("durable system poisoned by an earlier failure: {0}")]
    Poisoned(String),
    /// Snapshot capture or restore failed.
    #[error("snapshot error: {0}")]
    Snapshot(#[from] SnapshotError),
    /// A document-store rejection (surfaced before journaling).
    #[error("document store error: {0}")]
    Store(#[from] StoreError),
    /// A wrapper rejection (surfaced before journaling).
    #[error("wrapper error: {0}")]
    Wrapper(#[from] WrapperError),
    /// A release registration failure (surfaced before checkpointing).
    #[error("system error: {0}")]
    System(#[from] SystemError),
    /// A WAL record (or, at seq 0, the snapshot image) that decoded to
    /// nonsense — disk corruption beyond what the CRC framing already
    /// amputates.
    #[error("corrupt log record at seq {seq}: {reason}")]
    Corrupt {
        /// The corrupt record's sequence number.
        seq: u64,
        /// What failed to decode.
        reason: String,
    },
    /// [`DurableSystem::create`] refused to clobber an existing image.
    #[error("data directory already initialised: {0}")]
    AlreadyInitialised(String),
    /// A journaled table push names a wrapper the registry does not have
    /// (or has as a non-table kind).
    #[error("unknown table wrapper: {0}")]
    UnknownWrapper(String),
    /// The snapshot image declares a format (`found`) other than the one
    /// this build writes and reads (`expected`, [`IMAGE_FORMAT`]).
    #[error("snapshot image format {found} is not supported; this build reads format {expected}")]
    UnsupportedFormat { found: u32, expected: u32 },
    /// A quad with a literal subject: the model can build one, RDF data
    /// cannot hold it, so it is refused before journaling.
    #[error("a literal cannot be a quad's subject: {0}")]
    LiteralSubject(String),
}

/// The image format [`DurableSystem::checkpoint`] writes and
/// [`DurableSystem::open`] reads. Format 2 journals quads as TriG.
pub const IMAGE_FORMAT: u32 = 2;

/// The persisted image: the deployment snapshot plus everything the
/// cache-validity scheme needs restored bit-exact.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct DurableImage {
    /// Image format version ([`IMAGE_FORMAT`]).
    pub format: u32,
    /// The last WAL seq reflected in this image; recovery replays only
    /// records with a greater seq.
    pub seq: u64,
    /// The deployment itself (ontology TriG, wrapper specs, collections,
    /// release log).
    pub snapshot: SystemSnapshot,
    /// `QuadStore::mutation_count` at capture time.
    pub quad_mutations: u64,
    /// `DocStore::data_version` at capture time.
    pub doc_data_version: u64,
    /// Every collection's `DocStore::collection_version` at capture time.
    pub collection_versions: BTreeMap<String, u64>,
    /// Every table wrapper's `data_version` at capture time.
    pub table_versions: BTreeMap<String, u64>,
}

/// What [`DurableSystem::open`] found and did while recovering.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// Whether a snapshot image was loaded (`false` = cold, empty start
    /// or replay-only recovery of a never-checkpointed directory).
    pub snapshot_loaded: bool,
    /// The image's covered seq (0 without an image).
    pub snapshot_seq: u64,
    /// WAL records replayed on top of the image.
    pub replayed: u64,
    /// Byte offset the WAL's torn tail was amputated at, if one existed.
    pub wal_truncated_at: Option<u64>,
}

/// Counters surfaced by [`DurableSystem::durability_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// The last seq appended (0 when nothing ever was).
    pub last_seq: u64,
    /// WAL write-path counters for this handle's lifetime.
    pub wal: WalStats,
    /// Checkpoints completed by this handle.
    pub checkpoints: u64,
    /// Whether the handle is poisoned (see [`DurableError::Poisoned`]).
    pub poisoned: bool,
}

/// The journaled mutation ops. Quads are carried as TriG text (see the
/// module docs); documents and rows through the JSON value mapping
/// `WrapperSpec` uses, so each encoding has one source of truth.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum Op {
    InsertQuad {
        q: String,
    },
    RemoveQuad {
        q: String,
    },
    ExtendQuads {
        qs: String,
    },
    ClearGraph {
        g: Option<String>,
    },
    InsertDoc {
        c: String,
        d: serde_json::Value,
    },
    InsertDocs {
        c: String,
        ds: Vec<serde_json::Value>,
    },
    ClearCollection {
        c: String,
    },
    PushRow {
        w: String,
        r: Vec<serde_json::Value>,
    },
}

impl Op {
    fn store_id(&self) -> u32 {
        match self {
            Op::InsertQuad { .. }
            | Op::RemoveQuad { .. }
            | Op::ExtendQuads { .. }
            | Op::ClearGraph { .. } => STORE_QUAD,
            Op::InsertDoc { .. } | Op::InsertDocs { .. } | Op::ClearCollection { .. } => STORE_DOC,
            Op::PushRow { .. } => STORE_TABLE,
        }
    }
}

struct Journal {
    wal: Wal,
    poisoned: Option<String>,
    checkpoints: u64,
    /// Test hook: fail (and poison) after the Nth successful append+fsync,
    /// *before* the apply — the "crash between log and apply" matrix cell.
    crash_before_apply: Option<u64>,
}

/// A [`BdiSystem`] + [`DocStore`] pair whose mutations survive `kill -9`.
pub struct DurableSystem {
    system: BdiSystem,
    store: DocStore,
    dir: PathBuf,
    snapshotter: Snapshotter,
    journal: Mutex<Journal>,
    recovery: RecoveryInfo,
}

impl DurableSystem {
    /// Opens (or cold-starts) the durable deployment at `dir` on the real
    /// filesystem: loads the snapshot image if one exists, restores every
    /// cache-validity counter, replays the WAL's uncovered suffix, and
    /// amputates any torn log tail.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, DurableError> {
        Self::open_with(dir, Arc::new(StdVfs))
    }

    /// [`DurableSystem::open`] over an explicit [`Vfs`] (the crash-matrix
    /// tests recover through `CrashyVfs`-damaged directories with a clean
    /// `StdVfs`, and crash *during* recovery with another `CrashyVfs`).
    pub fn open_with(dir: impl AsRef<Path>, vfs: Arc<dyn Vfs>) -> Result<Self, DurableError> {
        let dir = dir.as_ref().to_path_buf();
        vfs.create_dir_all(&dir)?;
        let snapshotter = Snapshotter::new(Arc::clone(&vfs), dir.clone());

        let mut recovery = RecoveryInfo::default();
        let (system, store) = match snapshotter.load()? {
            Some(bytes) => {
                let image: DurableImage =
                    serde_json::from_str(utf8(&bytes).map_err(image_corrupt)?)
                        .map_err(image_corrupt)?;
                if image.format != IMAGE_FORMAT {
                    return Err(DurableError::UnsupportedFormat {
                        found: image.format,
                        expected: IMAGE_FORMAT,
                    });
                }
                let (system, store) =
                    crate::snapshot::restore(&image.snapshot).map_err(image_corrupt)?;
                // Counters first, replay second: the bumps replay performs
                // on top of these exact values reproduce the pre-crash
                // stamps (see the module docs).
                system
                    .ontology()
                    .store()
                    .restore_mutation_count(image.quad_mutations);
                for (name, version) in &image.collection_versions {
                    store.restore_collection_version(name, *version);
                }
                store.restore_data_version(image.doc_data_version);
                for (name, version) in &image.table_versions {
                    if let Some(table) = system.registry().get(name).and_then(|w| w.as_table()) {
                        table.restore_data_version(*version);
                    }
                }
                recovery.snapshot_loaded = true;
                recovery.snapshot_seq = image.seq;
                (system, store)
            }
            None => (BdiSystem::new(), DocStore::new()),
        };

        // The image's seq floors the WAL's next seq: after a checkpoint
        // truncated the log, the records alone would restart seqs below
        // the covered point and the replay filter below would silently
        // drop those acknowledged writes on the *next* open.
        let opened = Wal::open(Arc::clone(&vfs), dir.join(WAL_FILE), recovery.snapshot_seq)?;
        recovery.wal_truncated_at = opened.truncated_at;

        let mut durable = Self::assemble(system, store, dir, snapshotter, opened.wal, recovery);
        let covered = durable.recovery.snapshot_seq;
        for record in opened.records.iter().filter(|r| r.seq > covered) {
            let at_seq = |reason| DurableError::Corrupt {
                seq: record.seq,
                reason,
            };
            let op: Op = serde_json::from_str(utf8(&record.op).map_err(at_seq)?)
                .map_err(|e| at_seq(e.to_string()))?;
            // Ops are validated before journaling, so a record that does
            // not apply is a corrupt log, whatever the apply said.
            durable.apply_op(&op).map_err(|e| {
                at_seq(match e {
                    DurableError::Corrupt { reason, .. } => reason,
                    other => other.to_string(),
                })
            })?;
            durable.recovery.replayed += 1;
        }
        Ok(durable)
    }

    /// A handle over a recovered (or adopted) deployment and its open log.
    fn assemble(
        system: BdiSystem,
        store: DocStore,
        dir: PathBuf,
        snapshotter: Snapshotter,
        wal: Wal,
        recovery: RecoveryInfo,
    ) -> Self {
        DurableSystem {
            system,
            store,
            dir,
            snapshotter,
            journal: Mutex::new(Journal {
                wal,
                poisoned: None,
                checkpoints: 0,
                crash_before_apply: None,
            }),
            recovery,
        }
    }

    /// Adopts an already-built in-memory deployment as the initial state
    /// of a fresh data directory, writing its first snapshot image.
    /// Refuses to clobber a directory that already holds an image — or a
    /// WAL with journaled records (a never-checkpointed deployment that
    /// [`DurableSystem::open`] would recover).
    pub fn create(
        dir: impl AsRef<Path>,
        system: BdiSystem,
        store: DocStore,
    ) -> Result<Self, DurableError> {
        Self::create_with(dir, Arc::new(StdVfs), system, store)
    }

    /// [`DurableSystem::create`] over an explicit [`Vfs`].
    pub(crate) fn create_with(
        dir: impl AsRef<Path>,
        vfs: Arc<dyn Vfs>,
        system: BdiSystem,
        store: DocStore,
    ) -> Result<Self, DurableError> {
        let dir = dir.as_ref().to_path_buf();
        vfs.create_dir_all(&dir)?;
        let snapshotter = Snapshotter::new(Arc::clone(&vfs), dir.clone());
        if vfs.exists(&snapshotter.image_path()) {
            return Err(DurableError::AlreadyInitialised(dir.display().to_string()));
        }
        let opened = Wal::open(Arc::clone(&vfs), dir.join(WAL_FILE), 0)?;
        if !opened.records.is_empty() {
            // A WAL with journaled records but no snapshot image is a
            // recoverable directory (cold start + replay), not a fresh
            // one: adopting it would checkpoint an image whose seq covers
            // records that were never applied, permanently discarding
            // them.
            return Err(DurableError::AlreadyInitialised(format!(
                "{} ({} holds {} journaled record(s); open the directory instead)",
                dir.display(),
                WAL_FILE,
                opened.records.len()
            )));
        }
        let durable = Self::assemble(
            system,
            store,
            dir,
            snapshotter,
            opened.wal,
            RecoveryInfo::default(),
        );
        durable.checkpoint()?;
        Ok(durable)
    }

    /// The wrapped (read-only from here) system.
    pub fn system(&self) -> &BdiSystem {
        &self.system
    }

    /// The backing document store. Mutate it only through
    /// [`DurableSystem::insert_doc`]-family methods, or the writes will
    /// not survive a crash.
    pub fn store(&self) -> &DocStore {
        &self.store
    }

    /// The data directory this deployment persists under.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// What recovery found when this handle was opened.
    pub fn recovery(&self) -> &RecoveryInfo {
        &self.recovery
    }

    /// Answers a request — a passthrough to [`BdiSystem::serve`].
    pub fn serve(&self, request: AnswerRequest) -> Result<Answer, SystemError> {
        self.system.serve(request)
    }

    fn lock_journal(&self) -> MutexGuard<'_, Journal> {
        self.journal.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The one write path: encode, append, fsync, *then* apply — all under
    /// the journal lock, so log order equals apply order. Any failure
    /// poisons the handle. Returns the op's numeric outcome (see
    /// [`DurableSystem::apply_op`]).
    fn log_then_apply(&self, op: Op) -> Result<u64, DurableError> {
        let mut journal = self.lock_journal();
        if let Some(reason) = &journal.poisoned {
            return Err(DurableError::Poisoned(reason.clone()));
        }
        let encoded = serde_json::to_string(&op)
            .map(String::into_bytes)
            .map_err(|e| DurableError::Corrupt {
                seq: journal.wal.next_seq(),
                reason: format!("encode: {e}"),
            })?;
        let append = journal
            .wal
            .append(op.store_id(), &encoded)
            .and_then(|_| journal.wal.commit());
        if let Err(e) = append {
            journal.poisoned = Some(format!("journal append failed: {e}"));
            return Err(DurableError::Io(e));
        }
        if let Some(countdown) = journal.crash_before_apply {
            if countdown <= 1 {
                journal.crash_before_apply = None;
                journal.poisoned = Some("injected crash between log and apply".to_owned());
                return Err(DurableError::Io(std::io::Error::other(
                    bdi_durability::SIMULATED_CRASH,
                )));
            }
            journal.crash_before_apply = Some(countdown - 1);
        }
        match self.apply_op(&op) {
            Ok(outcome) => Ok(outcome),
            Err(e) => {
                // Journaled but not (fully) applied: memory may diverge
                // from what replay will reconstruct. Only reopen recovers.
                journal.poisoned = Some(format!("apply failed after journaling: {e}"));
                Err(e)
            }
        }
    }

    /// Applies a decoded op to the in-memory stores — shared by the live
    /// write path and recovery replay, so both bump the same counters the
    /// same way. Ops are validated *before* journaling, so apply errors
    /// here mean a corrupt log or a registry that no longer matches it.
    fn apply_op(&self, op: &Op) -> Result<u64, DurableError> {
        match op {
            Op::InsertQuad { q } => {
                let quad = one_quad(q)?;
                Ok(u64::from(self.system.ontology().store().insert(&quad)))
            }
            Op::RemoveQuad { q } => {
                let quad = one_quad(q)?;
                Ok(u64::from(self.system.ontology().store().remove(&quad)))
            }
            Op::ExtendQuads { qs } => {
                let quads = parse_trig(qs).map_err(corrupt)?;
                Ok(self.system.ontology().store().extend(quads) as u64)
            }
            Op::ClearGraph { g } => {
                let graph = match g {
                    None => GraphName::Default,
                    Some(iri) => GraphName::Named(Iri::try_new(iri).map_err(corrupt)?),
                };
                Ok(self.system.ontology().store().clear_graph(&graph) as u64)
            }
            Op::InsertDoc { c, d } => {
                self.store.insert(c, d.clone())?;
                Ok(1)
            }
            Op::InsertDocs { c, ds } => Ok(self.store.insert_many(c, ds.clone())? as u64),
            Op::ClearCollection { c } => Ok(self.store.clear(c) as u64),
            Op::PushRow { w, r } => {
                let table = self
                    .system
                    .registry()
                    .get(w)
                    .and_then(|wrapper| wrapper.as_table())
                    .ok_or_else(|| DurableError::UnknownWrapper(w.clone()))?;
                table.push(r.iter().map(json_to_value).collect())?;
                Ok(1)
            }
        }
    }

    /// Durably inserts a quad into the ontology's store. Returns whether
    /// it was new (duplicates are journaled and replay as the same no-op).
    pub fn insert_quad(&self, quad: &Quad) -> Result<bool, DurableError> {
        let op = Op::InsertQuad {
            q: encode_quads(std::slice::from_ref(quad))?,
        };
        Ok(self.log_then_apply(op)? != 0)
    }

    /// Durably removes a quad. Returns whether it was present.
    pub fn remove_quad(&self, quad: &Quad) -> Result<bool, DurableError> {
        let op = Op::RemoveQuad {
            q: encode_quads(std::slice::from_ref(quad))?,
        };
        Ok(self.log_then_apply(op)? != 0)
    }

    /// Durably inserts a batch of quads under **one** fsync, returning how
    /// many were new.
    pub fn extend_quads(&self, quads: &[Quad]) -> Result<usize, DurableError> {
        let op = Op::ExtendQuads {
            qs: encode_quads(quads)?,
        };
        Ok(self.log_then_apply(op)? as usize)
    }

    /// Durably clears a graph, returning how many quads it held.
    pub fn clear_graph(&self, graph: &GraphName) -> Result<usize, DurableError> {
        let op = Op::ClearGraph {
            g: graph.as_iri().map(|iri| iri.as_str().to_owned()),
        };
        Ok(self.log_then_apply(op)? as usize)
    }

    /// Durably inserts one document. Unlike the raw [`DocStore::insert`],
    /// a rejected document (non-object) fails *before* journaling and
    /// mutates nothing — the journal only ever holds applicable ops.
    pub fn insert_doc(&self, collection: &str, doc: serde_json::Value) -> Result<(), DurableError> {
        if !doc.is_object() {
            return Err(StoreError::NotAnObject(doc.to_string()).into());
        }
        let op = Op::InsertDoc {
            c: collection.to_owned(),
            d: doc,
        };
        self.log_then_apply(op).map(|_| ())
    }

    /// Durably inserts a batch of documents under one fsync. The batch is
    /// validated up front and rejected whole if any document is not an
    /// object (stricter than the raw store's partial append, for the same
    /// reason as [`DurableSystem::insert_doc`]).
    pub fn insert_docs(
        &self,
        collection: &str,
        docs: Vec<serde_json::Value>,
    ) -> Result<usize, DurableError> {
        if let Some(bad) = docs.iter().find(|d| !d.is_object()) {
            return Err(StoreError::NotAnObject(bad.to_string()).into());
        }
        let op = Op::InsertDocs {
            c: collection.to_owned(),
            ds: docs,
        };
        Ok(self.log_then_apply(op)? as usize)
    }

    /// Durably clears a collection, returning how many documents it held.
    pub fn clear_collection(&self, collection: &str) -> Result<usize, DurableError> {
        let op = Op::ClearCollection {
            c: collection.to_owned(),
        };
        Ok(self.log_then_apply(op)? as usize)
    }

    /// Durably appends a row to a registered table wrapper. The wrapper
    /// must exist, be a table, the row must match its arity and hold no
    /// NaN or infinite float (the journal's JSON has no such number) — all
    /// checked *before* journaling.
    pub fn push_row(
        &self,
        wrapper: &str,
        row: Vec<bdi_relational::Value>,
    ) -> Result<(), DurableError> {
        let table = self
            .system
            .registry()
            .get(wrapper)
            .and_then(|w| w.as_table())
            .ok_or_else(|| DurableError::UnknownWrapper(wrapper.to_owned()))?;
        if row.len() != table.schema().len() {
            return Err(
                WrapperError::Relation(bdi_relational::RelationError::Arity {
                    expected: table.schema().len(),
                    found: row.len(),
                })
                .into(),
            );
        }
        let op = Op::PushRow {
            w: wrapper.to_owned(),
            r: row_to_json(wrapper, table.schema(), &row)?,
        };
        self.log_then_apply(op).map(|_| ())
    }

    /// Durably registers a release. Schema evolution is rare and reshapes
    /// the wrapper registry, so instead of journaling it the release is
    /// applied in memory and then made durable by a synchronous
    /// [`DurableSystem::checkpoint`] — the call only returns Ok once the
    /// new deployment image is on disk. A checkpoint failure poisons the
    /// handle (memory has the release, disk does not).
    // analyze: allow(durability, releases are apply-then-checkpoint: the synchronous checkpoint below is the durability barrier, and a failure before it returns poisons the handle instead of acknowledging)
    pub fn register_release(&mut self, release: Release) -> Result<ReleaseStats, DurableError> {
        {
            let journal = self.lock_journal();
            if let Some(reason) = &journal.poisoned {
                return Err(DurableError::Poisoned(reason.clone()));
            }
        }
        let stats = self.system.register_release(release)?;
        if let Err(e) = self.checkpoint() {
            let mut journal = self.lock_journal();
            journal.poisoned = Some(format!("release checkpoint failed: {e}"));
            return Err(e);
        }
        Ok(stats)
    }

    /// Captures and atomically installs a new snapshot image, then
    /// truncates the WAL it covers. Returns the covered seq. Held under
    /// the journal lock, so no mutation can slip between the image
    /// capture and the log truncation.
    pub fn checkpoint(&self) -> Result<u64, DurableError> {
        let mut journal = self.lock_journal();
        if let Some(reason) = &journal.poisoned {
            return Err(DurableError::Poisoned(reason.clone()));
        }
        let seq = journal.wal.last_seq();
        let image = DurableImage {
            format: IMAGE_FORMAT,
            seq,
            snapshot: crate::snapshot::snapshot(&self.system, &self.store)?,
            quad_mutations: self.system.ontology().store().mutation_count(),
            doc_data_version: self.store.data_version(),
            collection_versions: self.store.collection_versions(),
            table_versions: self
                .system
                .registry()
                .iter()
                .filter_map(|w| {
                    w.as_table()
                        .map(|t| (t.name().to_owned(), t.data_version()))
                })
                .collect(),
        };
        let bytes = serde_json::to_string_pretty(&image)
            .map(String::into_bytes)
            .map_err(|e| DurableError::Corrupt {
                seq,
                reason: format!("encode image: {e}"),
            })?;
        let result = self
            .snapshotter
            .save(&bytes)
            .and_then(|()| journal.wal.reset());
        if let Err(e) = result {
            journal.poisoned = Some(format!("checkpoint failed: {e}"));
            return Err(DurableError::Io(e));
        }
        journal.checkpoints += 1;
        Ok(seq)
    }

    /// Write-path and checkpoint counters.
    pub fn durability_stats(&self) -> DurabilityStats {
        let journal = self.lock_journal();
        DurabilityStats {
            last_seq: journal.wal.last_seq(),
            wal: journal.wal.stats(),
            checkpoints: journal.checkpoints,
            poisoned: journal.poisoned.is_some(),
        }
    }

    /// Test hook for the crash matrix: the `nth` (1-based) subsequent
    /// mutation is journaled and fsynced, then fails — and poisons the
    /// handle — *before* applying, emulating a crash between log and
    /// apply. The recovered system must include that mutation (it was on
    /// disk) even though the crashed process never saw it applied.
    #[doc(hidden)]
    pub fn inject_crash_before_apply(&self, nth: u64) {
        self.lock_journal().crash_before_apply = Some(nth.max(1));
    }
}

/// A decode failure; replay puts the failing record's seq on it.
fn corrupt(reason: impl std::fmt::Display) -> DurableError {
    DurableError::Corrupt {
        seq: 0,
        reason: reason.to_string(),
    }
}

/// A snapshot image that does not decode or restore.
fn image_corrupt(reason: impl std::fmt::Display) -> DurableError {
    corrupt(format_args!("snapshot image: {reason}"))
}

/// Bytes read back from disk as text: invalid UTF-8 says so, rather than
/// surfacing as a JSON syntax error.
fn utf8(bytes: &[u8]) -> Result<&str, String> {
    std::str::from_utf8(bytes).map_err(|e| format!("not UTF-8: {e}"))
}

/// A batch of quads as the TriG the log carries. A literal subject, the
/// one quad the model builds that TriG cannot hold, never reaches the log.
fn encode_quads(quads: &[Quad]) -> Result<String, DurableError> {
    if let Some(quad) = quads.iter().find(|q| matches!(q.subject, Term::Literal(_))) {
        return Err(DurableError::LiteralSubject(quad.to_string()));
    }
    Ok(write_trig(quads, &PrefixMap::new()))
}

/// The single quad an insert or remove record carries.
fn one_quad(text: &str) -> Result<Quad, DurableError> {
    let quads = parse_trig(text).map_err(corrupt)?;
    <[Quad; 1]>::try_from(quads)
        .map(|[quad]| quad)
        .map_err(|quads| corrupt(format!("expected one quad, found {}", quads.len())))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::supersede;
    use bdi_rdf::model::Literal;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "bdi-durable-{}-{name}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn probe_quad(n: i64) -> Quad {
        Quad::new(
            Iri::new(format!("http://example.org/data/e{n}")),
            Iri::new("http://example.org/data/value"),
            Term::Literal(Literal::typed(
                n.to_string(),
                Iri::new("http://www.w3.org/2001/XMLSchema#integer"),
            )),
            GraphName::Named(Iri::new("http://example.org/data/graph")),
        )
    }

    #[test]
    fn create_then_reopen_preserves_answers_and_recovers_writes() {
        let dir = tmp("reopen");
        let (system, store) = supersede::build_running_example_with_store();
        let expected = system
            .serve(AnswerRequest::sparql(supersede::exemplary_query()))
            .unwrap();

        let durable = DurableSystem::create(&dir, system, store).unwrap();
        durable.insert_quad(&probe_quad(1)).unwrap();
        durable
            .insert_doc("extra", serde_json::json!({"k": 1}))
            .unwrap();
        drop(durable);

        let reopened = DurableSystem::open(&dir).unwrap();
        assert!(reopened.recovery().snapshot_loaded);
        assert_eq!(reopened.recovery().replayed, 2);
        assert_eq!(
            reopened
                .serve(AnswerRequest::sparql(supersede::exemplary_query()))
                .unwrap()
                .relation,
            expected.relation
        );
        assert!(reopened
            .system()
            .ontology()
            .store()
            .contains(&probe_quad(1)));
        assert_eq!(reopened.store().count("extra"), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_truncates_and_counters_survive_bit_exact() {
        let dir = tmp("counters");
        let (system, store) = supersede::build_running_example_with_store();
        let durable = DurableSystem::create(&dir, system, store).unwrap();
        durable
            .insert_doc("c", serde_json::json!({"n": 1}))
            .unwrap();
        durable.insert_quad(&probe_quad(1)).unwrap();
        durable.checkpoint().unwrap();
        durable
            .insert_doc("c", serde_json::json!({"n": 2}))
            .unwrap();

        let quad_muts = durable.system().ontology().store().mutation_count();
        let doc_version = durable.store().data_version();
        let coll_version = durable.store().collection_version("c");
        let validity_sensitive = (quad_muts, doc_version, coll_version);
        drop(durable);

        let reopened = DurableSystem::open(&dir).unwrap();
        assert_eq!(reopened.recovery().replayed, 1); // only the post-checkpoint insert
        assert_eq!(
            (
                reopened.system().ontology().store().mutation_count(),
                reopened.store().data_version(),
                reopened.store().collection_version("c"),
            ),
            validity_sensitive
        );
        assert_eq!(reopened.store().count("c"), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn writes_after_checkpoint_and_reopen_survive_the_next_reopen() {
        let dir = tmp("post-ckpt");
        let (system, store) = supersede::build_running_example_with_store();
        let durable = DurableSystem::create(&dir, system, store).unwrap();
        durable.insert_quad(&probe_quad(1)).unwrap(); // seq 1
        durable.checkpoint().unwrap(); // image.seq = 1, WAL truncated
        drop(durable);

        // The reopened handle must seed its seqs above the image's, or
        // this acknowledged write lands at seq 1 <= image.seq and the
        // next open's replay filter silently discards it.
        let reopened = DurableSystem::open(&dir).unwrap();
        reopened.insert_quad(&probe_quad(2)).unwrap();
        drop(reopened);

        let again = DurableSystem::open(&dir).unwrap();
        assert_eq!(again.recovery().replayed, 1);
        assert!(again.system().ontology().store().contains(&probe_quad(1)));
        assert!(again.system().ontology().store().contains(&probe_quad(2)));

        // And a checkpoint over the recovered handle must cover that
        // write, never regress below the image's seq.
        assert!(again.checkpoint().unwrap() >= 2);
        drop(again);
        let final_open = DurableSystem::open(&dir).unwrap();
        assert!(final_open
            .system()
            .ontology()
            .store()
            .contains(&probe_quad(2)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_local_name_ending_in_a_dot_survives_checkpoint_and_reopen() {
        // Compacted, `sup:lagRatio.` would read back as `sup:lagRatio` and
        // a `.`, and the checkpoint image would not restore.
        let dir = tmp("dotted");
        let (system, store) = supersede::build_running_example_with_store();
        let durable = DurableSystem::create(&dir, system, store).unwrap();
        let dotted = Iri::new(format!("{}lagRatio.", supersede::SUP_NS));
        let quad = Quad::new(
            dotted.clone(),
            Iri::new(format!("{}hasMonitor", supersede::SUP_NS)),
            dotted,
            GraphName::Default,
        );
        durable.insert_quad(&quad).unwrap();
        durable.checkpoint().unwrap();
        drop(durable);

        let reopened = DurableSystem::open(&dir).unwrap();
        assert_eq!(reopened.recovery().replayed, 0);
        assert!(reopened.system().ontology().store().contains(&quad));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_refuses_a_directory_with_journaled_records() {
        let dir = tmp("refuse-wal");
        // A never-checkpointed deployment: cold open + journaled writes,
        // so the directory holds a WAL with records but no snapshot.
        let cold = DurableSystem::open(&dir).unwrap();
        cold.insert_quad(&probe_quad(1)).unwrap();
        drop(cold);

        let (system, store) = supersede::build_running_example_with_store();
        assert!(matches!(
            DurableSystem::create(&dir, system, store),
            Err(DurableError::AlreadyInitialised(_))
        ));
        // The refused create must not have eaten the records.
        let recovered = DurableSystem::open(&dir).unwrap();
        assert!(recovered
            .system()
            .ontology()
            .store()
            .contains(&probe_quad(1)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_refuses_an_initialised_directory() {
        let dir = tmp("refuse");
        let (system, store) = supersede::build_running_example_with_store();
        let durable = DurableSystem::create(&dir, system, store).unwrap();
        drop(durable);
        let (system, store) = supersede::build_running_example_with_store();
        assert!(matches!(
            DurableSystem::create(&dir, system, store),
            Err(DurableError::AlreadyInitialised(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejected_mutations_do_not_journal_or_mutate() {
        let dir = tmp("reject");
        let (system, store) = supersede::build_running_example_with_store();
        let durable = DurableSystem::create(&dir, system, store).unwrap();
        let before = durable.durability_stats();
        assert!(durable.insert_doc("c", serde_json::json!([1])).is_err());
        assert!(durable
            .insert_docs(
                "c",
                vec![serde_json::json!({"ok": 1}), serde_json::json!(2)]
            )
            .is_err());
        assert!(durable.push_row("no-such-wrapper", vec![]).is_err());
        let after = durable.durability_stats();
        assert_eq!(before.wal.records_appended, after.wal.records_appended);
        assert!(!after.poisoned);
        assert_eq!(durable.store().count("c"), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_between_log_and_apply_poisons_then_recovery_applies() {
        let dir = tmp("between");
        let (system, store) = supersede::build_running_example_with_store();
        let durable = DurableSystem::create(&dir, system, store).unwrap();
        durable.inject_crash_before_apply(1);
        let err = durable.insert_quad(&probe_quad(9)).unwrap_err();
        assert!(matches!(err, DurableError::Io(_)));
        // The crashed process never saw the apply…
        assert!(!durable.system().ontology().store().contains(&probe_quad(9)));
        // …and is poisoned for further writes.
        assert!(matches!(
            durable.insert_quad(&probe_quad(10)),
            Err(DurableError::Poisoned(_))
        ));
        assert!(durable.checkpoint().is_err());
        drop(durable);
        // But the op was on disk, so recovery must surface it.
        let reopened = DurableSystem::open(&dir).unwrap();
        assert!(reopened
            .system()
            .ontology()
            .store()
            .contains(&probe_quad(9)));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
