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
//! keeps once it holds it, so the only thing that has to be atomic is
//! installing stamp and map together — which one lock over both gives
//! directly (the publish-a-consistent-version discipline of the NVRAM tree
//! literature; see PAPERS.md). Each query that reuses scans checks a
//! persistent [`ExecContext`] out of a pool instead of sharing one context.

use crate::exec::{
    self, CompiledQuery, ExecError, ExecOptions, PlanNote, PlanShape, QueryAnswer, SourceFailure,
};
use crate::omq::{Omq, OmqError};
use crate::ontology::BdiOntology;
use crate::release::{self, Release, ReleaseError, ReleaseStats};
use crate::rewrite::{self, RewriteError, Rewriting};
use crate::vocab;
use bdi_relational::{ContextCounters, ExecContext};
use bdi_wrappers::WrapperRegistry;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Weak};
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

/// Idle contexts the pool keeps warm; a context returning to a full pool is
/// retired instead (its peaks fold into the lifetime counters).
const CTX_POOL_IDLE: usize = 16;

/// What the compiled-plan cache (and the persistent contexts) are valid
/// against: the release log length (bumped by every
/// [`BdiSystem::register_release`]), the ontology store's monotonic
/// mutation stamp (catching edits through [`BdiSystem::ontology`]'s `&self`
/// mutators, including count-neutral remove+insert pairs), and the registry's
/// **capability fingerprint** — a hash of every wrapper's
/// [`claims_filter`](bdi_wrappers::Wrapper::claims_filter) answers
/// ([`bdi_wrappers::WrapperRegistry::capabilities_fingerprint`]). Plans
/// depend on the ontology and wrapper *capabilities* (claims decide the
/// pushed-vs-residual filter split compiled into each plan) — never on
/// wrapper data — plus, fourth, the registry's **stats epoch**
/// ([`bdi_wrappers::WrapperRegistry::stats_epoch`], a digest of every
/// wrapper's `data_version`): since cost-based join ordering compiles
/// sketch-derived estimates *into* the plan shape, a wrapper-data mutation
/// must recompile plans even though their answers would still be correct
/// (only possibly slower).
///
/// The tuple is stored whole beside the map it stamps ([`PlanCache`]) and
/// compared whole under the map's lock — no digest of it is published
/// anywhere. The two halves invalidate differently
/// ([`ExecCache::revalidate`]): a change in the leading triple flushes the
/// plans **and** retires the pooled contexts, while a stats-epoch-only
/// change flushes just the plans — every cached scan is keyed by its
/// wrapper's live [`data_version`](bdi_wrappers::Wrapper::data_version) at
/// scan time, so a mutation makes the stale entry unreachable and the next
/// query brings just the mutated wrapper's scans up to date — by the
/// appended rows when the wrapper can resume, by a re-scan otherwise;
/// sibling wrappers' (and sibling docstore collections') cached scans
/// survive. The superseded entry is retired by the fill that replaces it,
/// and the value-cap watermark retires a context whose pool has outgrown
/// its bound ([`BdiSystem::set_context_value_cap`] — the
/// context-retirement tier). This is what lets
/// [`ExecOptions::reuse_scans`] default on without one wrapper's appends
/// flushing every other wrapper's interned scans.
///
/// The release log only changes through `&mut self` methods, which call
/// [`ExecCache::invalidate`] and cannot race a `&self` query; ontology
/// writes, capability flips and wrapper-data mutations go through shared
/// handles and *can*. What the one lock guarantees then: stamp and map
/// only ever change together, so a plan is found only under the validity
/// its compiler read before compiling, and a plan whose validity moved
/// while it compiled is dropped at insert. A request that read its validity
/// just before such a write may still run the pre-write plan — the two
/// were concurrent — and the next request flushes it; a stats-epoch race
/// is performance-only either way, answers staying correct through the
/// `data_version` keying one level down.
type CacheValidity = (usize, u64, u64, u64);

/// Default watermark on each pooled context's interned-value pool; past it
/// the context is retired when checked back in (see
/// [`BdiSystem::set_context_value_cap`]).
const DEFAULT_CTX_VALUE_CAP: usize = 1 << 20;

/// Cache key: the full query identity — OMQ fingerprint, version scope and
/// the plan-shaping share of the execution options.
type PlanKey = (Omq, VersionScope, PlanShape);

const POISONED: &str = "plan cache poisoned";

/// The compiled-plan map and the validity it reflects, under one lock
/// ([`ExecCache::plans`]) so the two can only change together.
struct PlanCache {
    validity: CacheValidity,
    /// LRU clock: bumped by every lookup and insert.
    tick: u64,
    plans: HashMap<PlanKey, (Arc<CompiledQuery>, u64)>,
}

/// The pool of persistent execution contexts. A query that reuses scans
/// checks a context out ([`ExecCache::checkout`]) and its guard checks it
/// back in on drop; sequential queries therefore keep hitting the same
/// warm context (interned scans, join build sides), while concurrent
/// queries each get their own and none serializes behind another's
/// execution.
struct CtxPool {
    /// Pool watermark handed to every fresh context (see
    /// [`BdiSystem::set_context_value_cap`]).
    value_cap: usize,
    /// Bumped by [`CtxPool::retire_all`]; a context checked out under an
    /// older generation is retired when it returns instead of rejoining the
    /// idle list.
    generation: u64,
    idle: Vec<Arc<ExecContext>>,
    /// Every non-retired context (idle or checked out), for stats
    /// aggregation. Dead weaks are pruned opportunistically.
    live: Vec<Weak<ExecContext>>,
    /// Counters and high-water marks folded out of retired contexts, so
    /// [`BdiSystem::context_stats`] and [`BdiSystem::planner_stats`] report
    /// lifetime figures even after the watermark (or a release) retired the
    /// context they occurred in.
    retired: ContextCounters,
}

impl CtxPool {
    fn new(value_cap: usize) -> Self {
        Self {
            value_cap,
            generation: 0,
            idle: Vec::new(),
            live: Vec::new(),
            retired: ContextCounters::default(),
        }
    }

    /// Folds a retiring context's peaks and counters into the lifetime
    /// totals and forgets it.
    fn retire(&mut self, ctx: &Arc<ExecContext>) {
        self.retired += ctx.counters();
        let ptr = Arc::as_ptr(ctx);
        self.live.retain(|weak| weak.as_ptr() != ptr);
    }

    /// Retires every idle context now and marks checked-out ones (if any)
    /// for retirement on return, by bumping the pool generation.
    fn retire_all(&mut self) {
        self.generation += 1;
        let idle = std::mem::take(&mut self.idle);
        for ctx in &idle {
            self.retire(ctx);
        }
    }

    fn checkout(&mut self) -> (Arc<ExecContext>, u64) {
        let ctx = self.idle.pop().unwrap_or_else(|| {
            let ctx = Arc::new(ExecContext::new().with_value_cap(self.value_cap));
            self.live.push(Arc::downgrade(&ctx));
            ctx
        });
        (ctx, self.generation)
    }

    /// Returns a context to the idle list — unless the pool moved on
    /// (generation bump, watermark change) or the context outgrew its
    /// value-cap watermark, in which case it is retired: queries in flight
    /// elsewhere keep their own contexts, and the next checkout starts
    /// fresh. This is the per-handle successor of the old shared-context
    /// `recycle_if_over_cap`.
    fn check_in(&mut self, ctx: Arc<ExecContext>, generation: u64) {
        let stale = generation != self.generation
            || ctx.value_cap() != Some(self.value_cap)
            || ctx.over_value_cap()
            || self.idle.len() >= CTX_POOL_IDLE;
        if stale {
            self.retire(&ctx);
        } else {
            self.idle.push(ctx);
        }
    }

    /// Upgraded handles to every live (non-retired) context.
    fn contexts(&mut self) -> Vec<Arc<ExecContext>> {
        self.live.retain(|weak| weak.strong_count() > 0);
        self.live.iter().filter_map(Weak::upgrade).collect()
    }
}

/// A checked-out pooled context; checks itself back in on drop.
struct PooledCtx<'a> {
    pool: &'a Mutex<CtxPool>,
    generation: u64,
    ctx: Option<Arc<ExecContext>>,
}

impl PooledCtx<'_> {
    fn get(&self) -> &ExecContext {
        self.ctx
            .as_deref()
            .expect("pooled context already returned")
    }
}

impl Drop for PooledCtx<'_> {
    fn drop(&mut self) {
        if let Some(ctx) = self.ctx.take() {
            if let Ok(mut pool) = self.pool.lock() {
                pool.check_in(ctx, self.generation);
            }
        }
    }
}

/// Cross-query compiled-plan cache + pooled persistent execution contexts.
///
/// Concurrency shape: one mutex over the plan map and its validity stamp
/// ([`PlanCache`]), held for one lookup or one insert and never during
/// rewriting, compilation or execution; counters are atomics; contexts come
/// from a pool ([`CtxPool`]) so no two in-flight queries share mutable
/// state. Lock order: the pool lock may be taken under the plan lock
/// ([`ExecCache::revalidate`]), never the plan lock under the pool lock.
struct ExecCache {
    hits: AtomicU64,
    misses: AtomicU64,
    /// Fresh compiles by planning kind (cache hits don't recount).
    cost_based_plans: AtomicU64,
    syntactic_plans: AtomicU64,
    plans: Mutex<PlanCache>,
    pool: Mutex<CtxPool>,
}

impl Default for ExecCache {
    fn default() -> Self {
        Self {
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            cost_based_plans: AtomicU64::new(0),
            syntactic_plans: AtomicU64::new(0),
            plans: Mutex::new(PlanCache {
                // Never matches a real validity → first use flushes.
                validity: (usize::MAX, u64::MAX, u64::MAX, u64::MAX),
                tick: 0,
                plans: HashMap::new(),
            }),
            pool: Mutex::new(CtxPool::new(DEFAULT_CTX_VALUE_CAP)),
        }
    }
}

impl std::fmt::Debug for ExecCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecCache")
            .field("entries", &self.entries())
            .field("hits", &self.hits.load(Ordering::Relaxed))
            .field("misses", &self.misses.load(Ordering::Relaxed))
            .finish()
    }
}

impl ExecCache {
    /// Locks the plan cache and brings it up to `validity` — every request
    /// does this, whether or not it goes on to use a cached plan. A change
    /// in the leading triple (release registered, ontology edited, wrapper
    /// capabilities moved) flushes the plans and retires the pooled
    /// contexts; a **stats-epoch-only** change — wrapper data mutated —
    /// flushes just the plans: cost-based join orders compiled from the old
    /// sketches may no longer be the cheapest, but each context's cached
    /// scans are keyed by live `data_version` one level down and stay valid
    /// for every unmutated sibling wrapper.
    fn revalidate(&self, validity: CacheValidity) -> MutexGuard<'_, PlanCache> {
        let mut cache = self.plans.lock().expect(POISONED);
        if cache.validity != validity {
            let (old, new) = (cache.validity, validity);
            cache.validity = validity;
            cache.plans.clear();
            if (old.0, old.1, old.2) != (new.0, new.1, new.2) {
                self.pool.lock().expect(POISONED).retire_all();
            }
        }
        cache
    }

    /// Unconditionally flushes plans and retires contexts — for `&mut self`
    /// mutations ([`BdiSystem::register_release`],
    /// [`BdiSystem::set_release_log`]) whose effect may not register in the
    /// validity tuple (e.g. a restored release log of the same length).
    fn invalidate(&mut self, validity: CacheValidity) {
        let cache = self.plans.get_mut().expect(POISONED);
        cache.validity = validity;
        cache.plans.clear();
        self.pool.get_mut().expect(POISONED).retire_all();
    }

    /// The compiled query cached for `key` under `validity`, if any
    /// (revalidating first, so a plan is never found under a validity other
    /// than the one its compiler read).
    fn lookup(&self, validity: CacheValidity, key: &PlanKey) -> Option<Arc<CompiledQuery>> {
        let hit = {
            let mut cache = self.revalidate(validity);
            cache.tick += 1;
            let tick = cache.tick;
            cache.plans.get_mut(key).map(|(compiled, last_used)| {
                *last_used = tick;
                compiled.clone()
            })
        };
        let counter = if hit.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        hit
    }

    /// Inserts a freshly compiled query, evicting the least-recently-hit
    /// entry at capacity. Racing compilers of the same key both insert; the
    /// loser's entry simply replaces an identical one. `validity` is what
    /// the compiler's [`ExecCache::lookup`] ran under: if the cache has
    /// moved on since, the plan was compiled against a superseded system
    /// state and is dropped instead.
    fn insert(&self, validity: CacheValidity, key: PlanKey, compiled: Arc<CompiledQuery>) {
        let mut cache = self.plans.lock().expect(POISONED);
        if cache.validity != validity {
            return;
        }
        if cache.plans.len() >= PLAN_CACHE_ENTRIES && !cache.plans.contains_key(&key) {
            if let Some(oldest) = cache
                .plans
                .iter()
                .min_by_key(|(_, (_, last_used))| *last_used)
                .map(|(k, _)| k.clone())
            {
                cache.plans.remove(&oldest);
            }
        }
        cache.tick += 1;
        let tick = cache.tick;
        cache.plans.insert(key, (compiled, tick));
    }

    fn entries(&self) -> usize {
        self.plans.lock().expect(POISONED).plans.len()
    }

    /// Checks a persistent context out of the pool; the guard returns it on
    /// drop.
    fn checkout(&self) -> PooledCtx<'_> {
        let (ctx, generation) = self.pool.lock().expect(POISONED).checkout();
        PooledCtx {
            pool: &self.pool,
            generation,
            ctx: Some(ctx),
        }
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

    /// Every live pooled context, and the lifetime counters: the retired
    /// contexts' share with each live context's folded in.
    fn pooled_counters(&self) -> (Vec<Arc<ExecContext>>, ContextCounters) {
        let (contexts, mut counters) = {
            let mut pool = self.pool.lock().expect(POISONED);
            (pool.contexts(), pool.retired)
        };
        for ctx in &contexts {
            counters += ctx.counters();
        }
        (contexts, counters)
    }
}

/// Plan-cache observability (tests, benches, ops dashboards).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheStats {
    pub entries: usize,
    pub hits: u64,
    pub misses: u64,
}

/// Planner observability (see [`BdiSystem::planner_stats`]): how walks were
/// planned and how often the semi-join pass fired, lifetime totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlannerStats {
    /// Walks whose join order was chosen by estimated cardinality
    /// (fresh compiles only — plan-cache hits don't recount).
    pub cost_based_plans: u64,
    /// Walks planned in syntactic join order (knob off, single unfiltered
    /// walk, or a wrapper without estimates).
    pub syntactic_plans: u64,
    /// Semi-join reductions shipped as exact IN-set filters, through the
    /// pooled persistent contexts (queries run with
    /// [`ExecOptions::reuse_scans`]` = false` execute against a private
    /// context and don't register).
    pub semijoin_insets: u64,
    /// Semi-join reductions shipped as Bloom filters (build side too large
    /// for an IN-set), same caveat.
    pub semijoin_blooms: u64,
}

/// Pooled-context size observability (see [`BdiSystem::context_stats`]).
/// Current figures sum over every live pooled context (idle or serving a
/// query right now); peaks fold retired contexts in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContextStats {
    /// Distinct values interned, summed across live pooled contexts.
    pub pooled_values: usize,
    /// Rough resident bytes: pools + cached interned scans + cached join
    /// build sides, summed across live pooled contexts.
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

/// A complete, queryable BDI deployment.
#[derive(Debug, Default)]
pub struct BdiSystem {
    ontology: BdiOntology,
    registry: WrapperRegistry,
    release_log: Vec<ReleaseLogEntry>,
    cache: ExecCache,
}

/// A query answer together with the rewriting that produced it.
#[derive(Debug, Clone)]
pub struct Answer {
    /// The result relation (feature-named columns, π order).
    pub relation: bdi_relational::Relation,
    /// The rewriting artefacts (walks, expansion, candidates). Shared with
    /// the plan cache, so repeated queries don't deep-clone the walks.
    pub rewriting: Arc<Rewriting>,
    /// Rendered relational algebra per executed walk.
    pub walk_exprs: Vec<String>,
    /// Sources degraded around under
    /// [`crate::exec::SourceFailurePolicy::Degrade`], one report per failed
    /// wrapper. Non-empty means [`Answer::relation`] is a partial answer —
    /// exactly the surviving walks' rows (see
    /// [`crate::exec::QueryAnswer::source_failures`]).
    pub source_failures: Vec<SourceFailure>,
    /// One planner note per walk — chosen join order, whether it was
    /// cost-based, estimated vs. actual rows (see
    /// [`crate::exec::QueryAnswer::plan_notes`]).
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

    /// Replaces the execution options wholesale (engine, filters, …).
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
            release_log,
            cache: ExecCache::default(),
        }
    }

    /// The cache validity stamp for the system's current state: release
    /// seq, ontology mutation stamp, the registry's wrapper-capability
    /// fingerprint, and the registry's stats epoch (see [`CacheValidity`]
    /// for how the halves invalidate differently).
    fn cache_validity(&self) -> CacheValidity {
        (
            self.release_log.len(),
            self.ontology.store().mutation_count(),
            self.registry.capabilities_fingerprint(),
            self.registry.stats_epoch(),
        )
    }

    pub fn ontology(&self) -> &BdiOntology {
        &self.ontology
    }

    pub fn registry(&self) -> &WrapperRegistry {
        &self.registry
    }

    /// Applies Algorithm 1 for a new release and registers its wrapper.
    /// Every registration bumps the release sequence, which invalidates the
    /// cross-query plan cache and retires the pooled execution contexts —
    /// the new wrapper changes what queries rewrite to, and its data was
    /// never scanned.
    pub fn register_release(&mut self, release: Release) -> Result<ReleaseStats, SystemError> {
        let stats = release::apply_release(&self.ontology, &mut self.registry, release)?;
        self.release_log.push(ReleaseLogEntry {
            seq: self.release_log.len(),
            wrapper: stats.wrapper.clone(),
            source: stats.source.clone(),
        });
        self.cache.invalidate(self.cache_validity());
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

    /// Plan-cache counters (entries reflect the current validity window;
    /// hits/misses accumulate over the system's lifetime).
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            entries: self.cache.entries(),
            hits: self.cache.hits.load(Ordering::Relaxed),
            misses: self.cache.misses.load(Ordering::Relaxed),
        }
    }

    /// Sets the watermark on each pooled execution context's
    /// interned-value pool (default 2²⁰ distinct values). When a query
    /// leaves its context's pool above the watermark the context is retired
    /// at check-in and the next query starts against a fresh one, so a
    /// long-lived system's memory stays bounded however much distinct data
    /// flows through it. Takes effect immediately: idle contexts are
    /// retired now, checked-out ones when their query finishes (cached
    /// scans flush; compiled plans survive).
    pub fn set_context_value_cap(&self, cap: usize) {
        let mut pool = self.cache.pool.lock().expect(POISONED);
        pool.value_cap = cap.max(1);
        pool.retire_all();
    }

    /// Size diagnostics of the pooled execution contexts (pools +
    /// scan/build caches) — what [`BdiSystem::set_context_value_cap`]
    /// bounds — plus lifetime high-water marks that survive context
    /// retirement, so streaming (cursor-only) peaks are observable after
    /// the fact.
    pub fn context_stats(&self) -> ContextStats {
        let (contexts, counters) = self.cache.pooled_counters();
        let mut stats = ContextStats {
            pooled_values: 0,
            approx_bytes: 0,
            cached_scans: 0,
            peak_bytes: counters.peak_bytes,
            peak_pooled_values: counters.peak_pooled_values,
            resumed_scans: counters.resumed_scans,
            resumed_rows: counters.resumed_rows,
            full_scans: counters.full_scans,
        };
        for ctx in &contexts {
            stats.pooled_values += ctx.pooled_values();
            stats.approx_bytes += ctx.memory_estimate();
            stats.cached_scans += ctx.cached_scans();
        }
        stats
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
    /// visible metadata change). With [`ExecOptions::reuse_scans`] the
    /// query also checks a persistent [`ExecContext`] out of the system's
    /// pool, carrying interned wrapper scans and join build sides across
    /// queries within that validity window.
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
            // Still revalidate: a request that bypasses the plan map must
            // not run on a pooled context a release has retired.
            drop(self.cache.revalidate(validity));
            None
        };
        let compiled = match cached {
            Some(compiled) => compiled,
            None => {
                let (omq, scope, _) = &key;
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
                let compiled = Arc::new(exec::compile_query(
                    &self.ontology,
                    &self.registry,
                    rewriting,
                    &options,
                )?);
                self.cache.record_compile(compiled.plan_notes());
                if options.cache_plans {
                    self.cache.insert(validity, key, compiled.clone());
                }
                compiled
            }
        };
        // A context from the pool (checked back in when `pooled` drops,
        // including on error), or none: `reuse_scans: false` executes
        // against a fresh private context inside the executor.
        let pooled = options.reuse_scans.then(|| self.cache.checkout());
        let QueryAnswer {
            relation,
            walk_exprs,
            source_failures,
            plan_notes,
            truncated,
        } = exec::execute_compiled_with(
            &self.ontology,
            &self.registry,
            &compiled,
            pooled.as_ref().map(|p| p.get()),
            runtime,
        )?;
        drop(pooled);
        Ok(Answer {
            relation,
            rewriting: compiled.rewriting.clone(),
            walk_exprs,
            source_failures,
            plan_notes,
            truncated,
        })
    }

    /// Planner observability: walks compiled cost-based vs. syntactically
    /// (lifetime, fresh compiles only) and semi-join reductions shipped as
    /// IN-sets vs. Bloom filters through the pooled persistent contexts
    /// (retired contexts' counts are folded in; `reuse_scans: false`
    /// queries run on private contexts and don't register). Per-query
    /// detail — the chosen join order and estimated-vs-actual rows — rides
    /// on each answer as [`Answer::plan_notes`].
    pub fn planner_stats(&self) -> PlannerStats {
        let (_, counters) = self.cache.pooled_counters();
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
        assert!(system.cache.lookup(read, &key).is_none());
        let rewriting = system.rewrite(omq).unwrap();
        let compiled = Arc::new(
            exec::compile_query(system.ontology(), system.registry(), rewriting, &options).unwrap(),
        );
        // Meanwhile a wrapper push moved the stats epoch and another request
        // brought the cache up to it.
        let moved = (read.0, read.1, read.2, read.3.wrapping_add(1));
        drop(system.cache.revalidate(moved));
        system.cache.insert(read, key.clone(), compiled.clone());
        assert_eq!(system.plan_cache_stats().entries, 0);
        system.cache.insert(moved, key, compiled);
        assert_eq!(system.plan_cache_stats().entries, 1);
    }
}
