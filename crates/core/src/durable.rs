//! The write path and the journal that makes it durable.
//!
//! Every data write to a [`BdiSystem`] — quads, documents, table rows and
//! clears — is one [`Write`] passed to [`BdiSystem::apply`], which
//! validates it once, so a volatile system refuses what a journaled one
//! does. A journaled system ([`BdiSystem::open`], [`BdiSystem::create`])
//! then encodes the write, appends it to the WAL and **fsyncs before**
//! applying it, all under the journal lock: a write is acknowledged if
//! and only if it is on stable storage, and log order is apply order.
//! [`BdiSystem::checkpoint`] writes a `DurableImage` (the deployment
//! snapshot *plus* every cache-validity counter) via tmp-file → fsync →
//! atomic rename, then truncates the log. [`BdiSystem::open`] loads the
//! image and replays only the records with a greater `seq`, through
//! `apply`'s own apply step: exactly-once replay even when a crash landed
//! between the rename and the truncation.
//!
//! # Counter restoration
//!
//! The plan/scan-cache validity scheme hangs off monotonic counters
//! (`QuadStore::mutation_count`, `DocStore::collection_version`,
//! `TableWrapper::data_version`). Recovery restores the persisted values
//! first and then replays through the normal bump paths, so the recovered
//! counters equal the pre-crash ones and "equal counter ⇒ equal contents"
//! survives the process boundary.
//!
//! # Poisoning
//!
//! A journal or checkpoint failure may leave memory and disk divergent, so
//! it *poisons* the journal: writes fail with [`DurableError::Poisoned`]
//! until the directory is reopened. Reads keep working.
//!
//! # One codec
//!
//! Quads reach the log as TriG through [`bdi_rdf::trig`]'s one writer and
//! reader, as the image's ontology does. Documents and rows go as the JSON
//! `WrapperSpec` uses.

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
use crate::system::{BdiSystem, SystemError};
use bdi_docstore::{DocStore, StoreError};
use bdi_durability::{Snapshotter, StdVfs, Vfs, Wal, WalStats};
pub use bdi_durability::{SNAPSHOT_FILE, WAL_FILE};
use bdi_rdf::model::{GraphName, Iri, Quad};
use bdi_rdf::trig::{parse_trig, write_trig};
use bdi_rdf::turtle::PrefixMap;
use bdi_wrappers::spec::{json_to_value, row_to_json};
use bdi_wrappers::{TableWrapper, Wrapper, WrapperError};
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

/// Errors raised by the write path and its journal.
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
    /// [`BdiSystem::create`] refused to clobber an existing image.
    #[error("data directory already initialised: {0}")]
    AlreadyInitialised(String),
    /// A row names a wrapper the registry does not have (or has as a
    /// non-table kind).
    #[error("unknown table wrapper: {0}")]
    UnknownWrapper(String),
    /// The snapshot image declares a format (`found`) other than the one
    /// this build writes and reads (`expected`, [`IMAGE_FORMAT`]).
    #[error("snapshot image format {found} is not supported; this build reads format {expected}")]
    UnsupportedFormat { found: u32, expected: u32 },
    /// A checkpoint of a volatile system.
    #[error("the system has no journal; open it over a data directory")]
    NoJournal,
    /// A release registered through a [`DurableSystem`] already shared.
    #[error("a shared system cannot register a release")]
    Shared,
}

/// The image format [`BdiSystem::checkpoint`] writes and
/// [`BdiSystem::open`] reads. Format 2 journals quads as TriG.
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

/// What [`BdiSystem::open`] found and did while recovering.
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

/// Counters surfaced by [`BdiSystem::durability_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// The last seq appended (0 when nothing ever was).
    pub last_seq: u64,
    /// WAL write-path counters for this journal's lifetime.
    pub wal: WalStats,
    /// Checkpoints completed through this journal.
    pub checkpoints: u64,
    /// Whether the journal is poisoned (see [`DurableError::Poisoned`]).
    pub poisoned: bool,
}

/// One data write: what [`BdiSystem::apply`] validates, journals and
/// applies. Each returns how many quads, documents or rows it added or
/// removed.
#[derive(Debug, Clone, PartialEq)]
pub enum Write {
    /// Inserts a quad into the ontology's store (1 if it was new).
    InsertQuad(Quad),
    /// Removes a quad (1 if it was present).
    RemoveQuad(Quad),
    /// Inserts a batch of quads under one fsync.
    ExtendQuads(Vec<Quad>),
    /// Clears a graph.
    ClearGraph(GraphName),
    /// Inserts one document into a collection; it must be a JSON object.
    InsertDoc(String, serde_json::Value),
    /// Inserts a batch of documents under one fsync, refused whole if any
    /// is not an object (the raw store would append a prefix).
    InsertDocs(String, Vec<serde_json::Value>),
    /// Clears a collection.
    ClearCollection(String),
    /// Appends a row to the named table wrapper. The row must match its
    /// arity and hold no NaN or infinite float, which JSON cannot carry.
    PushRow(String, Vec<bdi_relational::Value>),
}

/// A write as the journal carries it. Quads are TriG text (see the module
/// docs); documents and rows go through the JSON value mapping
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
    /// The record of a validated write on `system`.
    fn encode(write: Write, system: &BdiSystem) -> Result<Op, DurableError> {
        let trig = |quads: &[Quad]| write_trig(quads, &PrefixMap::new());
        Ok(match write {
            Write::InsertQuad(quad) => Op::InsertQuad { q: trig(&[quad]) },
            Write::RemoveQuad(quad) => Op::RemoveQuad { q: trig(&[quad]) },
            Write::ExtendQuads(quads) => Op::ExtendQuads { qs: trig(&quads) },
            Write::ClearGraph(graph) => Op::ClearGraph {
                g: graph.as_iri().map(|iri| iri.as_str().to_owned()),
            },
            Write::InsertDoc(c, d) => Op::InsertDoc { c, d },
            Write::InsertDocs(c, ds) => Op::InsertDocs { c, ds },
            Write::ClearCollection(c) => Op::ClearCollection { c },
            Write::PushRow(w, row) => {
                let r = row_to_json(&w, system.table(&w)?.schema(), &row)?;
                Op::PushRow { w, r }
            }
        })
    }

    /// The write a record carries, as recovery and the live path apply it.
    fn decode(self) -> Result<Write, DurableError> {
        Ok(match self {
            Op::InsertQuad { q } => Write::InsertQuad(one_quad(&q)?),
            Op::RemoveQuad { q } => Write::RemoveQuad(one_quad(&q)?),
            Op::ExtendQuads { qs } => Write::ExtendQuads(parse_trig(&qs).map_err(corrupt)?),
            Op::ClearGraph { g: None } => Write::ClearGraph(GraphName::Default),
            Op::ClearGraph { g: Some(iri) } => {
                Write::ClearGraph(GraphName::Named(Iri::try_new(&iri).map_err(corrupt)?))
            }
            Op::InsertDoc { c, d } => Write::InsertDoc(c, d),
            Op::InsertDocs { c, ds } => Write::InsertDocs(c, ds),
            Op::ClearCollection { c } => Write::ClearCollection(c),
            Op::PushRow { w, r } => Write::PushRow(w, r.iter().map(json_to_value).collect()),
        })
    }

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

/// The WAL and image directory a journaled [`BdiSystem`] persists to.
pub(crate) struct Journal {
    dir: PathBuf,
    snapshotter: Snapshotter,
    recovery: RecoveryInfo,
    log: Mutex<Log>,
}

pub(crate) struct Log {
    wal: Wal,
    poisoned: Option<String>,
    checkpoints: u64,
    /// Test hook: fail (and poison) after the Nth successful append+fsync,
    /// *before* the apply — the "crash between log and apply" matrix cell.
    crash_before_apply: Option<u64>,
}

impl Journal {
    fn new(dir: PathBuf, snapshotter: Snapshotter, wal: Wal, recovery: RecoveryInfo) -> Self {
        let log = Log {
            wal,
            poisoned: None,
            checkpoints: 0,
            crash_before_apply: None,
        };
        Journal {
            dir,
            snapshotter,
            recovery,
            log: Mutex::new(log),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Log> {
        self.log.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The log, unless an earlier failure poisoned it.
    pub(crate) fn ready(&self) -> Result<MutexGuard<'_, Log>, DurableError> {
        let log = self.lock();
        match &log.poisoned {
            Some(reason) => Err(DurableError::Poisoned(reason.clone())),
            None => Ok(log),
        }
    }

    /// Poisons the log for `error`, which it hands back.
    pub(crate) fn poison(&self, context: &str, error: DurableError) -> DurableError {
        self.lock().poisoned = Some(format!("{context}: {error}"));
        error
    }
}

impl BdiSystem {
    /// Opens (or cold-starts) the journaled deployment at `dir` on the
    /// real filesystem: loads the snapshot image if one exists, restores
    /// every cache-validity counter, replays the WAL's uncovered suffix,
    /// and amputates any torn log tail.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, DurableError> {
        Self::open_with(dir, Arc::new(StdVfs))
    }

    /// [`BdiSystem::open`] over an explicit [`Vfs`] (the crash-matrix
    /// tests recover through `CrashyVfs`-damaged directories with a clean
    /// `StdVfs`, and crash *during* recovery with another `CrashyVfs`).
    pub fn open_with(dir: impl AsRef<Path>, vfs: Arc<dyn Vfs>) -> Result<Self, DurableError> {
        let dir = dir.as_ref().to_path_buf();
        vfs.create_dir_all(&dir)?;
        let snapshotter = Snapshotter::new(Arc::clone(&vfs), dir.clone());

        let mut recovery = RecoveryInfo::default();
        let mut system = match snapshotter.load()? {
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
                let system = crate::snapshot::restore(&image.snapshot).map_err(image_corrupt)?;
                // Counters first, replay second: the bumps replay performs
                // on top of these exact values reproduce the pre-crash
                // stamps (see the module docs).
                system
                    .ontology()
                    .store()
                    .restore_mutation_count(image.quad_mutations);
                for (name, version) in &image.collection_versions {
                    system.store().restore_collection_version(name, *version);
                }
                system.store().restore_data_version(image.doc_data_version);
                for (name, version) in &image.table_versions {
                    if let Ok(table) = system.table(name) {
                        table.restore_data_version(*version);
                    }
                }
                recovery.snapshot_loaded = true;
                recovery.snapshot_seq = image.seq;
                system
            }
            None => BdiSystem::new(),
        };

        // The image's seq floors the WAL's next seq: after a checkpoint
        // truncated the log, the records alone would restart seqs below
        // the covered point and the replay filter below would silently
        // drop those acknowledged writes on the *next* open.
        let opened = Wal::open(Arc::clone(&vfs), dir.join(WAL_FILE), recovery.snapshot_seq)?;
        recovery.wal_truncated_at = opened.truncated_at;
        let covered = recovery.snapshot_seq;
        for record in opened.records.iter().filter(|r| r.seq > covered) {
            let at_seq = |reason| DurableError::Corrupt {
                seq: record.seq,
                reason,
            };
            let op: Op = serde_json::from_str(utf8(&record.op).map_err(at_seq)?)
                .map_err(|e| at_seq(e.to_string()))?;
            // Writes are validated before journaling, so a record that
            // does not apply is a corrupt log, whatever the apply said.
            op.decode()
                .and_then(|write| system.apply_write(write))
                .map_err(|e| {
                    at_seq(match e {
                        DurableError::Corrupt { reason, .. } => reason,
                        other => other.to_string(),
                    })
                })?;
            recovery.replayed += 1;
        }
        system.journal = Some(Journal::new(dir, snapshotter, opened.wal, recovery));
        Ok(system)
    }

    /// Journals an already-built deployment in a fresh data directory,
    /// writing its first snapshot image. Refuses to clobber a directory
    /// that already holds an image — or a WAL with journaled records (a
    /// never-checkpointed deployment that [`BdiSystem::open`] would
    /// recover).
    pub fn create(dir: impl AsRef<Path>, mut system: BdiSystem) -> Result<Self, DurableError> {
        let vfs: Arc<dyn Vfs> = Arc::new(StdVfs);
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
        system.journal = Some(Journal::new(
            dir,
            snapshotter,
            opened.wal,
            RecoveryInfo::default(),
        ));
        system.checkpoint()?;
        Ok(system)
    }

    /// The one write path. Validates `write`; a journaled system then
    /// encodes it, appends it and fsyncs **before** applying it, all under
    /// the journal lock, so log order is apply order. A failure once the
    /// write is in the log poisons the journal. Returns the write's count
    /// (see [`Write`]).
    pub fn apply(&self, write: Write) -> Result<usize, DurableError> {
        self.validate(&write)?;
        let mut log = self.journal.as_ref().map(Journal::ready).transpose()?;
        let write = match log.as_deref_mut() {
            None => Ok(write),
            Some(log) => {
                let op = Op::encode(write, self)?;
                let record = serde_json::to_string(&op).map_err(|e| DurableError::Corrupt {
                    seq: log.wal.next_seq(),
                    reason: format!("encode: {e}"),
                })?;
                let logged = log
                    .wal
                    .append(op.store_id(), record.as_bytes())
                    .and_then(|_| log.wal.commit());
                if let Err(e) = logged {
                    log.poisoned = Some(format!("journal append failed: {e}"));
                    return Err(DurableError::Io(e));
                }
                if let Some(countdown) = log.crash_before_apply {
                    if countdown <= 1 {
                        log.crash_before_apply = None;
                        log.poisoned = Some("injected crash between log and apply".to_owned());
                        return Err(DurableError::Io(std::io::Error::other(
                            bdi_durability::SIMULATED_CRASH,
                        )));
                    }
                    log.crash_before_apply = Some(countdown - 1);
                }
                // The live path applies what replay will: the decoded record.
                op.decode()
            }
        };
        let applied = write.and_then(|write| self.apply_write(write));
        if let (Some(log), Err(e)) = (log.as_deref_mut(), &applied) {
            // Journaled but not (fully) applied: memory may diverge from
            // what replay will reconstruct. Only reopen recovers.
            log.poisoned = Some(format!("apply failed after journaling: {e}"));
        }
        applied
    }

    /// Refuses a write the stores would refuse, or the journal could not
    /// carry, before anything is journaled or applied.
    fn validate(&self, write: &Write) -> Result<(), DurableError> {
        let object = |doc: &serde_json::Value| match doc.is_object() {
            true => Ok(()),
            false => Err(StoreError::NotAnObject(doc.to_string())),
        };
        match write {
            Write::InsertDoc(_, doc) => object(doc)?,
            Write::InsertDocs(_, docs) => docs.iter().try_for_each(object)?,
            Write::PushRow(wrapper, row) => {
                let table = self.table(wrapper)?;
                table.check_arity(row)?;
                row_to_json(wrapper, table.schema(), row)?;
            }
            _ => {}
        }
        Ok(())
    }

    /// Applies a write to the in-memory stores — the step the live path
    /// and recovery replay share, so both bump the same counters the same
    /// way.
    fn apply_write(&self, write: Write) -> Result<usize, DurableError> {
        let quads = self.ontology().store();
        Ok(match write {
            Write::InsertQuad(quad) => usize::from(quads.insert(&quad)),
            Write::RemoveQuad(quad) => usize::from(quads.remove(&quad)),
            Write::ExtendQuads(batch) => quads.extend(batch),
            Write::ClearGraph(graph) => quads.clear_graph(&graph),
            Write::InsertDoc(collection, doc) => {
                self.store().insert(&collection, doc)?;
                1
            }
            Write::InsertDocs(collection, docs) => self.store().insert_many(&collection, docs)?,
            Write::ClearCollection(collection) => self.store().clear(&collection),
            Write::PushRow(wrapper, row) => {
                self.table(&wrapper)?.push(row)?;
                1
            }
        })
    }

    /// The registered table wrapper named `name`.
    fn table(&self, name: &str) -> Result<&TableWrapper, DurableError> {
        self.registry()
            .get(name)
            .and_then(|w| w.as_table())
            .ok_or_else(|| DurableError::UnknownWrapper(name.to_owned()))
    }

    /// Captures and atomically installs a new snapshot image, then
    /// truncates the WAL it covers. Returns the covered seq. Held under
    /// the journal lock, so no write can slip between the image capture
    /// and the log truncation. [`DurableError::NoJournal`] on a volatile
    /// system.
    pub fn checkpoint(&self) -> Result<u64, DurableError> {
        let journal = self.journal.as_ref().ok_or(DurableError::NoJournal)?;
        let mut log = journal.ready()?;
        let seq = log.wal.last_seq();
        let image = DurableImage {
            format: IMAGE_FORMAT,
            seq,
            snapshot: crate::snapshot::snapshot(self, self.store())?,
            quad_mutations: self.ontology().store().mutation_count(),
            doc_data_version: self.store().data_version(),
            collection_versions: self.store().collection_versions(),
            table_versions: self
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
        let result = journal
            .snapshotter
            .save(&bytes)
            .and_then(|()| log.wal.reset());
        if let Err(e) = result {
            log.poisoned = Some(format!("checkpoint failed: {e}"));
            return Err(DurableError::Io(e));
        }
        log.checkpoints += 1;
        Ok(seq)
    }

    /// Write-path and checkpoint counters; `None` without a journal.
    pub fn durability_stats(&self) -> Option<DurabilityStats> {
        let log = self.journal.as_ref()?.lock();
        Some(DurabilityStats {
            last_seq: log.wal.last_seq(),
            wal: log.wal.stats(),
            checkpoints: log.checkpoints,
            poisoned: log.poisoned.is_some(),
        })
    }

    /// What recovery found when the journal was opened; `None` without one.
    pub fn recovery(&self) -> Option<&RecoveryInfo> {
        self.journal.as_ref().map(|journal| &journal.recovery)
    }

    /// Test hook for the crash matrix: the `nth` (1-based) subsequent
    /// write is journaled and fsynced, then fails — and poisons the
    /// journal — *before* applying, emulating a crash between log and
    /// apply. The recovered system must include that write (it was on
    /// disk) even though the crashed process never saw it applied.
    #[doc(hidden)]
    pub fn inject_crash_before_apply(&self, nth: u64) {
        if let Some(journal) = &self.journal {
            journal.lock().crash_before_apply = Some(nth.max(1));
        }
    }
}

/// The handle the serve benchmark was written against: a shared journaled
/// [`BdiSystem`] under its earlier name. Each method delegates.
pub struct DurableSystem(pub Arc<BdiSystem>);

impl std::ops::Deref for DurableSystem {
    type Target = BdiSystem;

    fn deref(&self) -> &BdiSystem {
        &self.0
    }
}

impl DurableSystem {
    /// [`BdiSystem::create`] over `system` backed by `store`.
    pub fn create(
        dir: impl AsRef<Path>,
        system: BdiSystem,
        store: DocStore,
    ) -> Result<Self, DurableError> {
        BdiSystem::create(dir, system.with_store(store)).map(|s| Self(Arc::new(s)))
    }

    /// [`BdiSystem::open`].
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, DurableError> {
        BdiSystem::open(dir).map(|s| Self(Arc::new(s)))
    }

    /// The system itself.
    pub fn system(&self) -> &BdiSystem {
        &self.0
    }

    /// The data directory.
    pub fn dir(&self) -> &Path {
        self.0.journal.as_ref().map_or(Path::new(""), |j| &j.dir)
    }

    /// [`BdiSystem::durability_stats`].
    pub fn durability_stats(&self) -> DurabilityStats {
        self.0.durability_stats().unwrap_or_default()
    }

    /// [`Write::InsertDoc`].
    pub fn insert_doc(&self, collection: &str, doc: serde_json::Value) -> Result<(), DurableError> {
        self.0
            .apply(Write::InsertDoc(collection.into(), doc))
            .map(drop)
    }

    /// [`Write::InsertDocs`].
    pub fn insert_docs(
        &self,
        collection: &str,
        docs: Vec<serde_json::Value>,
    ) -> Result<usize, DurableError> {
        self.0.apply(Write::InsertDocs(collection.into(), docs))
    }

    /// [`Write::PushRow`].
    pub fn push_row(
        &self,
        wrapper: &str,
        row: Vec<bdi_relational::Value>,
    ) -> Result<(), DurableError> {
        self.0.apply(Write::PushRow(wrapper.into(), row)).map(drop)
    }

    /// [`BdiSystem::register_release`], before the handle is shared.
    pub fn register_release(&mut self, release: Release) -> Result<ReleaseStats, DurableError> {
        Arc::get_mut(&mut self.0)
            .ok_or(DurableError::Shared)?
            .register_release(release)
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
    use crate::system::AnswerRequest;
    use bdi_rdf::model::{Literal, Term};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "bdi-durable-{}-{name}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn doc(collection: &str, doc: serde_json::Value) -> Write {
        Write::InsertDoc(collection.into(), doc)
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
        let system = supersede::build_running_example();
        let expected = system
            .serve(AnswerRequest::sparql(supersede::exemplary_query()))
            .unwrap();

        let durable = BdiSystem::create(&dir, system).unwrap();
        durable
            .apply(Write::InsertQuad(probe_quad(1).clone()))
            .unwrap();
        durable
            .apply(doc("extra", serde_json::json!({"k": 1})))
            .unwrap();
        drop(durable);

        let reopened = BdiSystem::open(&dir).unwrap();
        assert!(reopened.recovery().unwrap().snapshot_loaded);
        assert_eq!(reopened.recovery().unwrap().replayed, 2);
        assert_eq!(
            reopened
                .serve(AnswerRequest::sparql(supersede::exemplary_query()))
                .unwrap()
                .relation,
            expected.relation
        );
        assert!(reopened.ontology().store().contains(&probe_quad(1)));
        assert_eq!(reopened.store().count("extra"), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_truncates_and_counters_survive_bit_exact() {
        let dir = tmp("counters");
        let system = supersede::build_running_example();
        let durable = BdiSystem::create(&dir, system).unwrap();
        durable
            .apply(doc("c", serde_json::json!({"n": 1})))
            .unwrap();
        durable
            .apply(Write::InsertQuad(probe_quad(1).clone()))
            .unwrap();
        durable.checkpoint().unwrap();
        durable
            .apply(doc("c", serde_json::json!({"n": 2})))
            .unwrap();

        let quad_muts = durable.ontology().store().mutation_count();
        let doc_version = durable.store().data_version();
        let coll_version = durable.store().collection_version("c");
        let validity_sensitive = (quad_muts, doc_version, coll_version);
        drop(durable);

        let reopened = BdiSystem::open(&dir).unwrap();
        assert_eq!(reopened.recovery().unwrap().replayed, 1); // only the post-checkpoint insert
        assert_eq!(
            (
                reopened.ontology().store().mutation_count(),
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
        let system = supersede::build_running_example();
        let durable = BdiSystem::create(&dir, system).unwrap();
        durable
            .apply(Write::InsertQuad(probe_quad(1).clone()))
            .unwrap(); // seq 1
        durable.checkpoint().unwrap(); // image.seq = 1, WAL truncated
        drop(durable);

        // The reopened handle must seed its seqs above the image's, or
        // this acknowledged write lands at seq 1 <= image.seq and the
        // next open's replay filter silently discards it.
        let reopened = BdiSystem::open(&dir).unwrap();
        reopened
            .apply(Write::InsertQuad(probe_quad(2).clone()))
            .unwrap();
        drop(reopened);

        let again = BdiSystem::open(&dir).unwrap();
        assert_eq!(again.recovery().unwrap().replayed, 1);
        assert!(again.ontology().store().contains(&probe_quad(1)));
        assert!(again.ontology().store().contains(&probe_quad(2)));

        // And a checkpoint over the recovered handle must cover that
        // write, never regress below the image's seq.
        assert!(again.checkpoint().unwrap() >= 2);
        drop(again);
        let final_open = BdiSystem::open(&dir).unwrap();
        assert!(final_open.ontology().store().contains(&probe_quad(2)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_local_name_ending_in_a_dot_survives_checkpoint_and_reopen() {
        // Compacted, `sup:lagRatio.` would read back as `sup:lagRatio` and
        // a `.`, and the checkpoint image would not restore.
        let dir = tmp("dotted");
        let system = supersede::build_running_example();
        let durable = BdiSystem::create(&dir, system).unwrap();
        let dotted = Iri::new(format!("{}lagRatio.", supersede::SUP_NS));
        let quad = Quad::new(
            dotted.clone(),
            Iri::new(format!("{}hasMonitor", supersede::SUP_NS)),
            dotted,
            GraphName::Default,
        );
        durable.apply(Write::InsertQuad(quad.clone())).unwrap();
        durable.checkpoint().unwrap();
        drop(durable);

        let reopened = BdiSystem::open(&dir).unwrap();
        assert_eq!(reopened.recovery().unwrap().replayed, 0);
        assert!(reopened.ontology().store().contains(&quad));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_refuses_a_directory_with_journaled_records() {
        let dir = tmp("refuse-wal");
        // A never-checkpointed deployment: cold open + journaled writes,
        // so the directory holds a WAL with records but no snapshot.
        let cold = BdiSystem::open(&dir).unwrap();
        cold.apply(Write::InsertQuad(probe_quad(1).clone()))
            .unwrap();
        drop(cold);

        let system = supersede::build_running_example();
        assert!(matches!(
            BdiSystem::create(&dir, system),
            Err(DurableError::AlreadyInitialised(_))
        ));
        // The refused create must not have eaten the records.
        let recovered = BdiSystem::open(&dir).unwrap();
        assert!(recovered.ontology().store().contains(&probe_quad(1)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_refuses_an_initialised_directory() {
        let dir = tmp("refuse");
        let system = supersede::build_running_example();
        let durable = BdiSystem::create(&dir, system).unwrap();
        drop(durable);
        let system = supersede::build_running_example();
        assert!(matches!(
            BdiSystem::create(&dir, system),
            Err(DurableError::AlreadyInitialised(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejected_mutations_do_not_journal_or_mutate() {
        let dir = tmp("reject");
        let system = supersede::build_running_example();
        let durable = BdiSystem::create(&dir, system).unwrap();
        let before = durable.durability_stats().unwrap();
        assert!(durable.apply(doc("c", serde_json::json!([1]))).is_err());
        let docs = vec![serde_json::json!({"ok": 1}), serde_json::json!(2)];
        assert!(durable.apply(Write::InsertDocs("c".into(), docs)).is_err());
        let row = Write::PushRow("no-such-wrapper".into(), vec![]);
        assert!(durable.apply(row).is_err());
        let after = durable.durability_stats().unwrap();
        assert_eq!(before.wal.records_appended, after.wal.records_appended);
        assert!(!after.poisoned);
        assert_eq!(durable.store().count("c"), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_between_log_and_apply_poisons_then_recovery_applies() {
        let dir = tmp("between");
        let system = supersede::build_running_example();
        let durable = BdiSystem::create(&dir, system).unwrap();
        durable.inject_crash_before_apply(1);
        let err = durable
            .apply(Write::InsertQuad(probe_quad(9).clone()))
            .unwrap_err();
        assert!(matches!(err, DurableError::Io(_)));
        // The crashed process never saw the apply…
        assert!(!durable.ontology().store().contains(&probe_quad(9)));
        // …and is poisoned for further writes.
        assert!(matches!(
            durable.apply(Write::InsertQuad(probe_quad(10).clone())),
            Err(DurableError::Poisoned(_))
        ));
        assert!(durable.checkpoint().is_err());
        drop(durable);
        // But the op was on disk, so recovery must surface it.
        let reopened = BdiSystem::open(&dir).unwrap();
        assert!(reopened.ontology().store().contains(&probe_quad(9)));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
