//! The assembled BDI system: ontology + wrapper registry + query answering.
//!
//! This corresponds to the paper's Metadata Management System (MDM, §6.1):
//! the data steward registers releases; analysts pose OMQs which are
//! rewritten (Algorithms 2–5) and executed over the wrappers.
//!
//! Query answering is **shared-read**: [`BdiSystem::serve`] takes `&self`,
//! and concurrent callers do not convoy behind a single lock held across a
//! request. The compiled-plan cache is one mutex over *(validity stamp, LRU
//! map)*, held for one lookup or one insert and never across rewriting,
//! compilation or execution; a compiled plan is an immutable `Arc` a reader
//! keeps once it holds it, stamped with the validity it was compiled under,
//! so the only thing that has to be atomic is installing stamp and map
//! together — which one lock over both gives directly (the
//! publish-a-consistent-version discipline of the NVRAM tree literature;
//! see PAPERS.md). The same discipline holds the system's one
//! persistent [`ExecContext`]: each query that reuses scans pins the current
//! `Arc`, and a replacement swaps it in without touching queries in flight.

use crate::durable::{DurableError, Journal};
use crate::exec::{
    self, CompiledQuery, ExecError, ExecOptions, PlanNote, PlanShape, SourceFailure,
};
use crate::omq::{Omq, OmqError};
use crate::ontology::BdiOntology;
use crate::release::{self, Release, ReleaseError, ReleaseStats};
use crate::rewrite::{self, RewriteError, Rewriting};
use crate::vocab;
use bdi_docstore::DocStore;
use bdi_relational::{ContextCounters, ExecContext};
use bdi_wrappers::WrapperRegistry;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Errors surfaced by the system facade.
#[derive(Debug, Clone, PartialEq, Eq, thiserror::Error)]
pub enum SystemError {
    #[error(transparent)]
    Omq(#[from] OmqError),
    #[error(transparent)]
    Rewrite(#[from] RewriteError),
    #[error(transparent)]
    Exec(#[from] ExecError),
    #[error(transparent)]
    Release(#[from] ReleaseError),
}

/// One entry of the system's release log (serialized as is into a
/// [`crate::snapshot::SystemSnapshot`]).
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ReleaseLogEntry {
    /// Monotonic sequence number (0-based registration order).
    pub seq: usize,
    pub wrapper: String,
    pub source: String,
}

/// Which schema versions a query should range over.
///
/// The scope resolves to the wrappers it admits
/// ([`BdiSystem::wrappers_in_scope`]), and the rewriting sees only those:
/// a historical query is rewritten over the system as it stood at that
/// release — this is how the paper's "correctness in historical queries"
/// (§1) and most-recent-version queries coexist.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub enum VersionScope {
    /// All registered versions (the paper's default union semantics).
    #[default]
    All,
    /// Only each source's most recently registered wrapper.
    Latest,
    /// Only wrappers registered with `seq <= n` — the system as it existed
    /// after the `n`-th release (historical point-in-time queries).
    UpToRelease(usize),
    /// An explicit wrapper allow-list (by wrapper name).
    Only(BTreeSet<String>),
}

/// Upper bound on cached compiled queries; beyond it an insert evicts the
/// least-recently-hit entry.
const PLAN_CACHE_ENTRIES: usize = 64;

/// What the compiled-plan cache is valid against, three stamps: the release
/// log length (bumped by every [`BdiSystem::register_release`]), the
/// ontology store's monotonic mutation stamp (catching edits through
/// [`BdiSystem::ontology`]'s `&self` mutators, including count-neutral
/// remove+insert pairs), and the registry's **stats epoch**
/// ([`bdi_wrappers::WrapperRegistry::stats_epoch`], a digest of every
/// wrapper's `data_version`): since cost-based join ordering compiles
/// sketch-derived estimates *into* the plan shape, a wrapper-data mutation
/// must recompile plans even though their answers would still be correct
/// (only possibly slower). Wrapper capabilities are not stamped: a compiled
/// plan carries no filters, and the semi-join pass asks a wrapper's
/// [`claims_filter`](bdi_wrappers::Wrapper::claims_filter) at run time, so
/// a claim that flips between two requests changes what the second
/// injects, never the plan it runs.
///
/// The stamps split along the same seam as a [`CompiledQuery`]. The first
/// two are **ontology-side**: the rewriting, target schema, rendered walks
/// and column alignment read the ontology and the release log alone
/// (Algorithms 2–5 never see wrapper data). The stats epoch is
/// **data-side**: only the plans read it. The cache keeps its current tuple beside the
/// map ([`PlanCache`]) and every entry keeps the tuple it was compiled
/// under, all compared under the map's lock — no digest of either is
/// published anywhere. An ontology-side change flushes the plans and
/// nothing else; a data-side-only change keeps the entries, and each is
/// re-planned over its own rewriting when next asked for
/// ([`ExecCache::revalidate`], [`ExecCache::lookup`]). The persistent
/// context's cached scans need no flush: each is keyed by its wrapper's
/// name, columns, filters and live
/// [`data_version`](bdi_wrappers::Wrapper::data_version) at scan time. A
/// release adds a wrapper under a name never registered before (Algorithm 1
/// refuses a registered one), and an ontology edit alters only which scans
/// a plan asks for, so no key can come to denote
/// different rows. A data mutation makes the stale entry unreachable, and the
/// next query brings just the mutated wrapper's scans up to date — by the
/// appended rows when the wrapper can resume, by a re-scan otherwise. The
/// superseded entry is retired by the fill that replaces it, and the
/// value-cap watermark replaces a context whose pool has outgrown its bound
/// ([`BdiSystem::set_context_value_cap`]). This is what lets
/// [`ExecOptions::reuse_scans`] default on without a release or one
/// wrapper's appends flushing every other wrapper's interned scans.
///
/// The release log only changes through `&mut self` methods, which call
/// [`ExecCache::invalidate`] and cannot race a `&self` query; ontology
/// writes and wrapper-data mutations go through shared
/// handles and *can*. What the one lock guarantees then: stamp and map
/// only ever change together, so a plan is served as a hit only under the
/// validity its compiler read before compiling, a rewriting is reused only
/// under the ontology-side stamps it was compiled under, and a plan whose
/// validity moved while it compiled is dropped at insert. A request that
/// read its validity just before such a write may still run the pre-write
/// plan — the two were concurrent — and the next request replaces it; a
/// stats-epoch race is performance-only either way, answers staying
/// correct through the `data_version` keying one level down.
type CacheValidity = (usize, u64, u64);

/// The ontology-side stamps of a validity — release seq and ontology
/// mutations — which a rewriting depends on.
fn ontology_side(validity: &CacheValidity) -> (usize, u64) {
    (validity.0, validity.1)
}

/// Default watermark on the persistent context's interned-value pool; past
/// it the context is replaced after the query that crossed it (see
/// [`BdiSystem::set_context_value_cap`]).
const DEFAULT_CTX_VALUE_CAP: usize = 1 << 20;

/// Cache key: the full query identity — OMQ fingerprint, version scope and
/// the plan-shaping share of the execution options.
type PlanKey = (Omq, VersionScope, PlanShape);

const POISONED: &str = "plan cache poisoned";

/// The compiled-plan map and the validity it reflects, under one lock
/// ([`ExecCache::plans`]) so the two can only change together. Every entry
/// shares the map's ontology-side stamps; its data-side ones may lag.
struct PlanCache {
    validity: CacheValidity,
    /// LRU clock: bumped by every lookup and insert.
    tick: u64,
    plans: HashMap<PlanKey, CacheEntry>,
}

/// One cached compiled query, the validity it was compiled under, and the
/// LRU tick of its last use.
struct CacheEntry {
    compiled: Arc<CompiledQuery>,
    validity: CacheValidity,
    last_used: u64,
}

/// What a plan-cache lookup found.
enum Cached {
    /// An entry compiled under the current validity: execute it.
    Hit(Arc<CompiledQuery>),
    /// An entry compiled under the current ontology-side stamps only: its
    /// rewriting still holds, its plans must be rebuilt
    /// ([`CompiledQuery::replan`]).
    Stale(Arc<CompiledQuery>),
    Miss,
}

/// The system's one persistent execution context, and the lifetime counters
/// of the contexts it replaced.
struct SharedContext {
    current: Arc<ExecContext>,
    /// Counters and high-water marks folded out of replaced contexts, so
    /// [`BdiSystem::context_stats`] and [`BdiSystem::planner_stats`] report
    /// lifetime figures after the watermark replaced the context they
    /// occurred in.
    retired: ContextCounters,
}

impl SharedContext {
    fn fresh(value_cap: usize) -> Arc<ExecContext> {
        Arc::new(ExecContext::new().with_value_cap(value_cap))
    }

    fn new(value_cap: usize) -> Self {
        Self {
            current: Self::fresh(value_cap),
            retired: ContextCounters::default(),
        }
    }

    /// Installs a fresh context under `value_cap`. Queries that pinned the
    /// old one finish on it.
    fn replace(&mut self, value_cap: usize) {
        let old = std::mem::replace(&mut self.current, Self::fresh(value_cap));
        self.fold(old);
    }

    /// Drops one handle to a context, folding its counters into the
    /// lifetime totals when that was the last handle — which happens exactly
    /// once per context, and never for the current one.
    fn fold(&mut self, ctx: Arc<ExecContext>) {
        if let Some(ctx) = Arc::into_inner(ctx) {
            self.retired += ctx.counters();
        }
    }
}

/// Cross-query compiled-plan cache + the persistent execution context.
///
/// Concurrency shape: one mutex over the plan map and its validity stamp
/// ([`PlanCache`]), held for one lookup or one insert and never during
/// rewriting, compilation or execution; counters are atomics. Another mutex
/// guards the context handle ([`SharedContext`]), held only to pin, swap or
/// fold. Concurrent queries share the pinned context, whose scan fills are
/// single-flight, so a scan two of them need is read once. Neither lock is
/// taken under the other.
struct ExecCache {
    hits: AtomicU64,
    /// Lookups that found no entry compiled under the current validity —
    /// stale entries included.
    misses: AtomicU64,
    /// The misses that found a stale entry and reused its rewriting.
    rewrite_hits: AtomicU64,
    /// Fresh compiles by planning kind (cache hits don't recount).
    cost_based_plans: AtomicU64,
    syntactic_plans: AtomicU64,
    plans: Mutex<PlanCache>,
    context: Mutex<SharedContext>,
}

impl Default for ExecCache {
    fn default() -> Self {
        Self {
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            rewrite_hits: AtomicU64::new(0),
            cost_based_plans: AtomicU64::new(0),
            syntactic_plans: AtomicU64::new(0),
            plans: Mutex::new(PlanCache {
                // Never matches a real validity → first use flushes.
                validity: (usize::MAX, u64::MAX, u64::MAX),
                tick: 0,
                plans: HashMap::new(),
            }),
            context: Mutex::new(SharedContext::new(DEFAULT_CTX_VALUE_CAP)),
        }
    }
}

impl ExecCache {
    /// Locks the plan cache and brings it up to `validity`. Every lookup
    /// does this. An ontology-side change flushes the plans: their
    /// rewritings may no longer hold. A data-side-only change keeps them:
    /// each entry still carries the validity it was compiled under, so
    /// [`ExecCache::lookup`] finds it stale rather than a hit.
    fn revalidate(&self, validity: CacheValidity) -> MutexGuard<'_, PlanCache> {
        let mut cache = self.plans.lock().expect(POISONED);
        if ontology_side(&cache.validity) != ontology_side(&validity) {
            cache.plans.clear();
        }
        cache.validity = validity;
        cache
    }

    /// Unconditionally flushes plans — for `&mut self` mutations
    /// ([`BdiSystem::register_release`], [`BdiSystem::set_release_log`])
    /// whose effect may not register in the validity tuple (e.g. a restored
    /// release log of the same length).
    fn invalidate(&mut self, validity: CacheValidity) {
        let cache = self.plans.get_mut().expect(POISONED);
        cache.validity = validity;
        cache.plans.clear();
    }

    /// What the cache holds for `key` under `validity` (revalidating first,
    /// so a plan is a hit only under the validity its compiler read). A
    /// stale entry counts as a miss and as a rewrite hit.
    fn lookup(&self, validity: CacheValidity, key: &PlanKey) -> Cached {
        let found = {
            let mut cache = self.revalidate(validity);
            cache.tick += 1;
            let tick = cache.tick;
            match cache.plans.get_mut(key) {
                Some(entry) if entry.validity == validity => {
                    entry.last_used = tick;
                    Cached::Hit(entry.compiled.clone())
                }
                // `revalidate` left only entries under the current
                // ontology-side stamps: this one's rewriting holds.
                Some(entry) => Cached::Stale(entry.compiled.clone()),
                None => Cached::Miss,
            }
        };
        match found {
            Cached::Hit(_) => &self.hits,
            Cached::Stale(_) => {
                self.rewrite_hits.fetch_add(1, Ordering::Relaxed);
                &self.misses
            }
            Cached::Miss => &self.misses,
        }
        .fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Inserts a freshly compiled query, evicting the least-recently-hit
    /// entry at capacity; a re-planned stale entry is replaced in place.
    /// Racing compilers of the same key both insert; the loser's entry
    /// simply replaces an identical one. `validity` is what the compiler's
    /// [`ExecCache::lookup`] ran under: if the cache has moved on since, the
    /// plan was compiled against a superseded system state and is dropped
    /// instead.
    fn insert(&self, validity: CacheValidity, key: PlanKey, compiled: Arc<CompiledQuery>) {
        let mut cache = self.plans.lock().expect(POISONED);
        if cache.validity != validity {
            return;
        }
        if cache.plans.len() >= PLAN_CACHE_ENTRIES && !cache.plans.contains_key(&key) {
            if let Some(oldest) = cache
                .plans
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(k, _)| k.clone())
            {
                cache.plans.remove(&oldest);
            }
        }
        cache.tick += 1;
        let tick = cache.tick;
        cache.plans.insert(
            key,
            CacheEntry {
                compiled,
                validity,
                last_used: tick,
            },
        );
    }

    fn entries(&self) -> usize {
        self.plans.lock().expect(POISONED).plans.len()
    }

    /// Pins the persistent context for one query.
    fn pin(&self) -> Arc<ExecContext> {
        self.context.lock().expect(POISONED).current.clone()
    }

    /// Ends a query's pin. A query that left the current context past its
    /// value cap replaces it, so the next query starts fresh.
    fn unpin(&self, ctx: Arc<ExecContext>) {
        let mut shared = self.context.lock().expect(POISONED);
        if ctx.over_value_cap() && Arc::ptr_eq(&ctx, &shared.current) {
            let cap = ctx.value_cap().unwrap_or(DEFAULT_CTX_VALUE_CAP);
            shared.replace(cap);
        }
        shared.fold(ctx);
    }

    /// Tallies a fresh compile's planning kinds (one count per walk) for
    /// [`BdiSystem::planner_stats`].
    fn record_compile(&self, notes: &[PlanNote]) {
        for note in notes {
            if note.cost_based {
                self.cost_based_plans.fetch_add(1, Ordering::Relaxed);
            } else {
                self.syntactic_plans.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The current context, and the lifetime counters: the replaced
    /// contexts' share with the current one's folded in.
    fn context_counters(&self) -> (Arc<ExecContext>, ContextCounters) {
        let (ctx, mut counters) = {
            let shared = self.context.lock().expect(POISONED);
            (shared.current.clone(), shared.retired)
        };
        counters += ctx.counters();
        (ctx, counters)
    }
}

/// Plan-cache observability (tests, benches, ops dashboards).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheStats {
    pub entries: usize,
    /// Lookups served a plan compiled under the current validity.
    pub hits: u64,
    /// Lookups that had to compile, stale entries included.
    pub misses: u64,
    /// The misses that found an entry compiled under the current
    /// ontology-side stamps, and re-planned it over its rewriting instead of
    /// rewriting again.
    pub rewrite_hits: u64,
}

/// Planner observability (see [`BdiSystem::planner_stats`]): how walks were
/// planned and how often the semi-join pass fired, lifetime totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlannerStats {
    /// Walks whose join order was chosen by estimated cardinality
    /// (fresh compiles only — plan-cache hits don't recount).
    pub cost_based_plans: u64,
    /// Walks planned in syntactic join order (knob off, a walk without
    /// joins, or a wrapper without estimates).
    pub syntactic_plans: u64,
    /// Semi-join reductions shipped as exact IN-set filters, through the
    /// persistent context (queries run with
    /// [`ExecOptions::reuse_scans`]` = false` execute against a private
    /// context and don't register).
    pub semijoin_insets: u64,
    /// Semi-join reductions shipped as Bloom filters (build side too large
    /// for an IN-set), same caveat.
    pub semijoin_blooms: u64,
}

/// Persistent-context size observability (see [`BdiSystem::context_stats`]).
/// Current figures describe the current context; peaks and lifetime counts
/// fold in the contexts the value cap replaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContextStats {
    /// Distinct values interned in the current context.
    pub pooled_values: usize,
    /// Rough resident bytes of the current context: pool + cached interned
    /// scans + cached join build sides.
    pub approx_bytes: usize,
    /// Cached interned-scan entries currently held, one per distinct
    /// `(wrapper, columns, filters)` at its newest data version — a fill
    /// retires the older versions it supersedes. Semi-join-reduced probe
    /// scans and cursor-only scans never appear here.
    pub cached_scans: usize,
    /// Batch-granular high-water mark of a single context's resident
    /// estimate, across retired contexts too — cursor-only streaming peaks
    /// register here even though nothing of them remains cached after the
    /// query.
    pub peak_bytes: usize,
    /// High-water mark of a single context's `pooled_values`, across
    /// retired contexts too.
    pub peak_pooled_values: usize,
    /// Scan-cache fills that resumed from an older data version's entry and
    /// read only what its wrapper appended since — lifetime, retired
    /// contexts included (like the three below).
    pub resumed_scans: u64,
    /// Rows those resumed fills read.
    pub resumed_rows: u64,
    /// Scan-cache fills that read their wrapper from the first record.
    pub full_scans: u64,
}

/// A complete, queryable BDI deployment, and its journal when it persists.
/// Every data write goes through [`BdiSystem::apply`].
#[derive(Default)]
pub struct BdiSystem {
    ontology: BdiOntology,
    registry: WrapperRegistry,
    store: DocStore,
    release_log: Vec<ReleaseLogEntry>,
    cache: ExecCache,
    /// The WAL and image this system persists to (see [`crate::durable`]).
    pub(crate) journal: Option<Journal>,
}

/// The answer to an OMQ, together with the rewriting that produced it.
#[derive(Debug, Clone)]
pub struct Answer {
    /// The result relation: columns are the requested features, in π order,
    /// named by their local names; rows are the walks' union as a set, in
    /// canonical sorted order.
    pub relation: bdi_relational::Relation,
    /// The rewriting artefacts (walks, expansion, candidates). Shared with
    /// the plan cache, so repeated queries don't deep-clone the walks.
    pub rewriting: Arc<Rewriting>,
    /// Rendered relational algebra per executed walk.
    pub walk_exprs: Vec<String>,
    /// Sources degraded around under
    /// [`crate::exec::SourceFailurePolicy::Degrade`], one report per failed
    /// wrapper. Non-empty means [`Answer::relation`] is a partial answer —
    /// exactly the surviving walks' rows.
    pub source_failures: Vec<SourceFailure>,
    /// One planner note per walk (streaming engine only; empty under
    /// [`crate::exec::Engine::Eager`]): the join order chosen, whether it
    /// was cost-based, and the estimated vs. actual row counts.
    pub plan_notes: Vec<PlanNote>,
    /// Whether [`Answer::relation`] was cut down to the request's
    /// [`ExecOptions::max_rows`] row limit. `false` means the relation is
    /// the complete answer (of the surviving walks, under a degraded
    /// answer).
    pub truncated: bool,
}

/// One query, fully described: what to ask (SPARQL text or a built
/// [`Omq`]), which schema versions to range over, and how to execute it.
/// Built fluently and executed by [`BdiSystem::serve`]:
///
/// ```ignore
/// let answer = system.serve(
///     AnswerRequest::sparql("SELECT ?lagRatio WHERE { ... }")
///         .scope(VersionScope::Latest)
///         .deadline(Duration::from_millis(250))
///         .max_rows(1_000),
/// )?;
/// ```
///
/// This is the one way in — the HTTP front end builds the same request.
#[derive(Debug, Clone)]
pub struct AnswerRequest {
    query: QueryText,
    scope: VersionScope,
    options: ExecOptions,
}

#[derive(Debug, Clone)]
enum QueryText {
    /// SPARQL in the paper's Code 3 template, parsed against the system's
    /// registered prefixes at serve time.
    Sparql(String),
    Omq(Omq),
}

impl AnswerRequest {
    /// A request from SPARQL text (the paper's Code 3 template); parsing
    /// happens in [`BdiSystem::serve`], against the system's prefixes.
    pub fn sparql(query: impl Into<String>) -> Self {
        Self {
            query: QueryText::Sparql(query.into()),
            scope: VersionScope::All,
            options: ExecOptions::default(),
        }
    }

    /// A request from an already-built OMQ.
    pub fn omq(query: Omq) -> Self {
        Self {
            query: QueryText::Omq(query),
            scope: VersionScope::All,
            options: ExecOptions::default(),
        }
    }

    /// Restricts the answer to walks whose wrappers all fall inside
    /// `scope` (default: [`VersionScope::All`]).
    pub fn scope(mut self, scope: VersionScope) -> Self {
        self.scope = scope;
        self
    }

    /// Replaces the execution options wholesale (engine, join ordering, …).
    /// Compose with the shortcuts below by calling this first.
    pub fn options(mut self, options: ExecOptions) -> Self {
        self.options = options;
        self
    }

    /// Per-query wall-clock budget, measured from when
    /// [`BdiSystem::serve`] is entered (sets [`ExecOptions::deadline`]).
    pub fn deadline(mut self, budget: Duration) -> Self {
        self.options.deadline = Some(budget);
        self
    }

    /// Per-query row limit (sets [`ExecOptions::max_rows`]): answers larger
    /// than this come back truncated, flagged [`Answer::truncated`].
    pub fn max_rows(mut self, limit: usize) -> Self {
        self.options.max_rows = Some(limit);
        self
    }
}

impl BdiSystem {
    /// An empty system (metamodel preloaded, no sources).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds from an existing ontology and registry. Wrappers already in
    /// the registry are entered into the release log in name order.
    pub fn from_parts(ontology: BdiOntology, registry: WrapperRegistry) -> Self {
        let release_log = registry
            .iter()
            .enumerate()
            .map(|(seq, w)| ReleaseLogEntry {
                seq,
                wrapper: w.name().to_owned(),
                source: w.source().to_owned(),
            })
            .collect();
        Self {
            ontology,
            registry,
            store: DocStore::new(),
            release_log,
            cache: ExecCache::default(),
            journal: None,
        }
    }

    /// Backs this system with the document store its JSON wrappers read.
    pub fn with_store(self, store: DocStore) -> Self {
        Self { store, ..self }
    }

    /// The cache validity stamp for the system's current state: release
    /// seq, ontology mutation stamp and the registry's stats epoch (see
    /// [`CacheValidity`] for how the halves invalidate differently).
    fn cache_validity(&self) -> CacheValidity {
        (
            self.release_log.len(),
            self.ontology.store().mutation_count(),
            self.registry.stats_epoch(),
        )
    }

    pub fn ontology(&self) -> &BdiOntology {
        &self.ontology
    }

    pub fn registry(&self) -> &WrapperRegistry {
        &self.registry
    }

    /// The document store behind the JSON wrappers.
    pub fn store(&self) -> &DocStore {
        &self.store
    }

    /// Applies Algorithm 1 for a new release and registers its wrapper.
    /// A release under a wrapper name already registered is refused before
    /// anything is written ([`ReleaseError::WrapperExists`]). Every
    /// registration flushes the cross-query plan cache, since the new
    /// wrapper changes what queries rewrite to. The persistent context
    /// keeps its cached scans: none of them can read the new wrapper. A
    /// journaled system does not log a release: it checkpoints after it,
    /// and a failed checkpoint poisons the journal.
    pub fn register_release(&mut self, release: Release) -> Result<ReleaseStats, DurableError> {
        if let Some(journal) = &self.journal {
            drop(journal.ready()?);
        }
        let stats = release::apply_release(&self.ontology, &mut self.registry, release)
            .map_err(SystemError::from)?;
        self.release_log.push(ReleaseLogEntry {
            seq: self.release_log.len(),
            wrapper: stats.wrapper.clone(),
            source: stats.source.clone(),
        });
        self.cache.invalidate(self.cache_validity());
        if let Some(journal) = &self.journal {
            self.checkpoint()
                .map_err(|e| journal.poison("release checkpoint failed", e))?;
        }
        Ok(stats)
    }

    /// The registration-ordered release log.
    pub fn release_log(&self) -> &[ReleaseLogEntry] {
        &self.release_log
    }

    /// Replaces the release log — used when restoring a persisted
    /// deployment whose log must survive verbatim.
    pub(crate) fn set_release_log(&mut self, log: Vec<ReleaseLogEntry>) {
        self.release_log = log;
        self.cache.invalidate(self.cache_validity());
    }

    /// Plan-cache counters (entries reflect the current ontology-side
    /// validity window; hits, misses and rewrite hits accumulate over the
    /// system's lifetime).
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            entries: self.cache.entries(),
            hits: self.cache.hits.load(Ordering::Relaxed),
            misses: self.cache.misses.load(Ordering::Relaxed),
            rewrite_hits: self.cache.rewrite_hits.load(Ordering::Relaxed),
        }
    }

    /// Sets the watermark on the persistent execution context's
    /// interned-value pool (default 2²⁰ distinct values). When a query
    /// leaves the pool above the watermark the context is replaced and the
    /// next query starts against a fresh one, so a long-lived system's
    /// memory stays bounded however much distinct data flows through it. A
    /// new cap takes effect immediately: the context is replaced now
    /// (cached scans flush; compiled plans survive), and queries in flight
    /// finish on the old one.
    pub fn set_context_value_cap(&self, cap: usize) {
        let cap = cap.max(1);
        let mut shared = self.cache.context.lock().expect(POISONED);
        if shared.current.value_cap() != Some(cap) {
            shared.replace(cap);
        }
    }

    /// Size diagnostics of the persistent execution context (pool +
    /// scan/build caches) — what [`BdiSystem::set_context_value_cap`]
    /// bounds — plus lifetime counts and high-water marks that survive the
    /// context's replacement, so streaming (cursor-only) peaks are
    /// observable after the fact.
    pub fn context_stats(&self) -> ContextStats {
        let (ctx, counters) = self.cache.context_counters();
        ContextStats {
            pooled_values: ctx.pooled_values(),
            approx_bytes: ctx.memory_estimate(),
            cached_scans: ctx.cached_scans(),
            peak_bytes: counters.peak_bytes,
            peak_pooled_values: counters.peak_pooled_values,
            resumed_scans: counters.resumed_scans,
            resumed_rows: counters.resumed_rows,
            full_scans: counters.full_scans,
        }
    }

    /// The wrapper names admitted by a scope.
    pub fn wrappers_in_scope(&self, scope: &VersionScope) -> BTreeSet<String> {
        match scope {
            VersionScope::All => self.release_log.iter().map(|e| e.wrapper.clone()).collect(),
            VersionScope::UpToRelease(n) => self
                .release_log
                .iter()
                .filter(|e| e.seq <= *n)
                .map(|e| e.wrapper.clone())
                .collect(),
            VersionScope::Latest => {
                let mut latest: std::collections::BTreeMap<&str, &str> =
                    std::collections::BTreeMap::new();
                for entry in &self.release_log {
                    latest.insert(&entry.source, &entry.wrapper); // later wins
                }
                latest.values().map(|w| (*w).to_owned()).collect()
            }
            VersionScope::Only(names) => names.clone(),
        }
    }

    /// Rewrites an OMQ over every registered wrapper, without executing it.
    pub fn rewrite(&self, query: Omq) -> Result<Rewriting, SystemError> {
        Ok(rewrite::rewrite(&self.ontology, query, None)?)
    }

    /// Executes one [`AnswerRequest`] — the single entry point every query
    /// takes (the HTTP front end builds a request and calls this too).
    /// Takes `&self` and is safe to call from many threads at once:
    /// concurrent callers share compiled plans through the cache but never
    /// an execution lock.
    ///
    /// Repeated queries skip the rewriting-to-plan pipeline entirely: the
    /// compiled form is cached under `(OMQ, scope, `[`PlanShape`]`)` and
    /// stays valid until the next [`BdiSystem::register_release`] (or other
    /// visible metadata change). After a wrapper-data change the entry's
    /// rewriting is reused and only its plans are rebuilt. With
    /// [`ExecOptions::reuse_scans`] the query also pins the system's
    /// persistent [`ExecContext`], which carries interned wrapper scans and
    /// join build sides across queries and is shared by the queries running
    /// at the same time.
    pub fn serve(&self, request: AnswerRequest) -> Result<Answer, SystemError> {
        let AnswerRequest {
            query,
            scope,
            options,
        } = request;
        // First thing, so the request's deadline is armed before parsing,
        // rewriting and compiling spend any of it. The shape is the
        // options' share of the cache key; the run-time values are this
        // caller's, whoever compiled the plan that ends up executing.
        let (shape, runtime) = options.split();
        let omq = match query {
            QueryText::Sparql(text) => Omq::parse(&text, self.ontology.prefixes())?,
            QueryText::Omq(omq) => omq,
        };
        let validity = self.cache_validity();
        let key = (omq, scope, shape);
        let cached = if options.cache_plans {
            self.cache.lookup(validity, &key)
        } else {
            Cached::Miss
        };
        let compiled = match cached {
            Cached::Hit(compiled) => compiled,
            cached => {
                let compiled = Arc::new(match cached {
                    Cached::Stale(stale) => stale.replan(&self.ontology, &self.registry)?,
                    _ => self.compile(&key, &options)?,
                });
                self.cache.record_compile(compiled.plan_notes());
                if options.cache_plans {
                    self.cache.insert(validity, key, compiled.clone());
                }
                compiled
            }
        };
        // The persistent context, or none: `reuse_scans: false` executes
        // against a fresh private context inside the executor.
        let pinned = options.reuse_scans.then(|| self.cache.pin());
        let result = exec::execute_compiled_with(
            &self.ontology,
            &self.registry,
            &compiled,
            pinned.as_deref(),
            runtime,
        );
        if let Some(ctx) = pinned {
            self.cache.unpin(ctx);
        }
        Ok(result?)
    }

    /// Rewrites `(omq, scope)` over the wrappers the scope admits and
    /// compiles it under `options`' plan shape.
    fn compile(
        &self,
        (omq, scope, _): &PlanKey,
        options: &ExecOptions,
    ) -> Result<CompiledQuery, SystemError> {
        let admitted = match scope {
            VersionScope::All => None,
            scope => Some(
                self.wrappers_in_scope(scope)
                    .iter()
                    .map(|name| vocab::wrapper_uri(name))
                    .collect(),
            ),
        };
        let rewriting = rewrite::rewrite(&self.ontology, omq.clone(), admitted.as_ref())?;
        Ok(exec::compile_query(
            &self.ontology,
            &self.registry,
            rewriting,
            options,
        )?)
    }

    /// Planner observability: walks compiled cost-based vs. syntactically
    /// (lifetime, fresh compiles only) and semi-join reductions shipped as
    /// IN-sets vs. Bloom filters through the persistent context (replaced
    /// contexts' counts are folded in; `reuse_scans: false` queries run on
    /// private contexts and don't register). Per-query
    /// detail — the chosen join order and estimated-vs-actual rows — rides
    /// on each answer as [`Answer::plan_notes`].
    pub fn planner_stats(&self) -> PlannerStats {
        let (_, counters) = self.cache.context_counters();
        PlannerStats {
            cost_based_plans: self.cache.cost_based_plans.load(Ordering::Relaxed),
            syntactic_plans: self.cache.syntactic_plans.load(Ordering::Relaxed),
            semijoin_insets: counters.semijoin_insets,
            semijoin_blooms: counters.semijoin_blooms,
        }
    }

    /// Aggregated retry/fault counters across every registered wrapper that
    /// reports them (today the fault-tolerant
    /// [`bdi_wrappers::RemoteWrapper`]; wrappers without a retry loop
    /// contribute nothing) — the system-level observability for the
    /// fault-tolerance layer, alongside [`BdiSystem::context_stats`].
    pub fn retry_stats(&self) -> bdi_wrappers::RetryStats {
        self.registry.retry_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supersede;

    /// A plan is only ever cached under the validity its compiler read: one
    /// whose validity the cache has moved past while it compiled is dropped.
    #[test]
    fn insert_under_a_superseded_validity_is_dropped() {
        let system = supersede::build_running_example();
        let omq = supersede::exemplary_omq();
        let options = ExecOptions::default();
        let key = (omq.clone(), VersionScope::All, options.split().0);
        let read = system.cache_validity();
        assert!(matches!(system.cache.lookup(read, &key), Cached::Miss));
        let rewriting = system.rewrite(omq).unwrap();
        let compiled = Arc::new(
            exec::compile_query(system.ontology(), system.registry(), rewriting, &options).unwrap(),
        );
        // Meanwhile a wrapper push moved the stats epoch and another request
        // brought the cache up to it.
        let moved = (read.0, read.1, read.2.wrapping_add(1));
        drop(system.cache.revalidate(moved));
        system.cache.insert(read, key.clone(), compiled.clone());
        assert_eq!(system.plan_cache_stats().entries, 0);
        system.cache.insert(moved, key, compiled);
        assert_eq!(system.plan_cache_stats().entries, 1);
    }

    /// A data-side move keeps an entry but never serves it as a hit: each
    /// lookup finds it stale until a re-planned entry replaces it, and an
    /// ontology-side move drops it.
    #[test]
    fn a_data_side_move_leaves_the_entry_stale_never_a_hit() {
        let system = supersede::build_running_example();
        let omq = supersede::exemplary_omq();
        let options = ExecOptions::default();
        let key = (omq.clone(), VersionScope::All, options.split().0);
        let read = system.cache_validity();
        assert!(matches!(system.cache.lookup(read, &key), Cached::Miss));
        let rewriting = system.rewrite(omq).unwrap();
        let compiled = Arc::new(
            exec::compile_query(system.ontology(), system.registry(), rewriting, &options).unwrap(),
        );
        system.cache.insert(read, key.clone(), compiled);
        assert!(matches!(system.cache.lookup(read, &key), Cached::Hit(_)));

        let stats_moved = (read.0, read.1, read.2.wrapping_add(1));
        for _ in 0..2 {
            assert!(matches!(
                system.cache.lookup(stats_moved, &key),
                Cached::Stale(_)
            ));
        }
        let ontology_moved = (read.0, read.1 + 1, read.2);
        assert!(matches!(
            system.cache.lookup(ontology_moved, &key),
            Cached::Miss
        ));
        let stats = system.plan_cache_stats();
        assert_eq!(
            (stats.entries, stats.hits, stats.misses, stats.rewrite_hits),
            (0, 1, 4, 2)
        );
    }
}
