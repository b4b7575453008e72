//! Execution of rewritten queries against the wrappers.
//!
//! Each walk compiles to a plan; results are aligned to a common schema
//! named by the requested **features** (so `w1.lagRatio` and
//! `w4.bufferingRatio` both land in the `lagRatio` column), then unioned.
//! IDs that the rewriting added but the analyst did not request are
//! projected out here — "those can be easily projected out at the final
//! step" (§5.2).
//!
//! Two engines answer the same [`Rewriting`]:
//!
//! * **Streaming** (the default, [`Engine::Streaming`]): every walk compiles
//!   to a [`PhysicalPlan`] — projection pushdown computed from the walk's
//!   projection sets, renames fused into the [`bdi_relational::ScanRequest`]s,
//!   and each [`FeatureFilter`] predicate (equality, IN-set, range) pushed
//!   to the providing wrapper's scan when the wrapper claims it, or kept as
//!   a mediator-side residual filter directly above that scan when it does
//!   not. At run time, hash joins pass information sideways: a small,
//!   selective build-side key set is injected into the probe wrapper's
//!   scan as an IN-set before that scan is issued
//!   ([`ExecOptions::semijoin_max_keys`]), and a scan whose estimated size
//!   exceeds the context's value cap runs cursor-only instead of
//!   materializing in the scan cache. Wrapper rows arrive through the
//!   streaming batch-scan contract
//!   ([`bdi_relational::plan::PlanSource::scan_batches`]) — interned one
//!   bounded batch at a time, never materialized as a whole value-space
//!   relation. The per-walk plans execute in parallel on scoped
//!   threads against one shared [`ExecContext`] (so wrappers appearing in
//!   many walks are scanned and interned once, and hash-join build sides are
//!   reused per ID attribute); each walk emits a deduplicated *sorted run*
//!   and the runs are k-way merged into the canonical union. The walk pool
//!   is the engine's only parallelism: each walk's operator tree is pulled
//!   on its worker's thread, issuing each scan when the pipeline first
//!   pulls it.
//! * **Eager** ([`Engine::Eager`]): the original §2.2 operator-at-a-time
//!   evaluation through [`bdi_relational::RelExpr`] / [`ops`]. It stays as
//!   the executable reference the streaming engine is differentially tested
//!   against (`tests/props_exec.rs`): the two produce identical rows in
//!   identical order under `Value` equality (interning canonicalizes each
//!   Eq class of numerics — where `Int(2)` and `Float(2.0)` both occur, the
//!   streaming answer surfaces one representative of that equal pair; an
//!   `Int` and a `Float` compare exactly, so a class never joins `Int(2⁵³)`
//!   with `Int(2⁵³ + 1)` through `Float(2⁵³)`).
//!
//! Row-order contract (shared by both engines): every answer is the §2.2
//! union of its walks' rows under set semantics — deduplicated and in
//! canonical sorted order, whatever the number of walks or filters. So a
//! release that adds a walk never changes a row's multiplicity, and join
//! order is never visible in an answer.

use crate::ontology::BdiOntology;
use crate::rewrite::walk::{prefixed_attr_name, Attach, JoinCondition, Orientation};
use crate::rewrite::{Rewriting, Walk};
use crate::system::Answer;
use bdi_rdf::model::Iri;
use bdi_relational::plan::{
    self, ColumnFilter, ExecContext, ExecPolicy, PhysicalPlan, PlanError, Predicate, RowSet,
    DEFAULT_SEMIJOIN_MAX_KEYS,
};
use bdi_relational::{
    ops, AlgebraError, Attribute, PlanSource, Relation, RelationError, ScanRequest, Schema,
    SourceResolver, Tuple, Value,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Errors raised during execution.
#[derive(Debug, Clone, PartialEq, Eq, thiserror::Error)]
pub enum ExecError {
    #[error(transparent)]
    Algebra(#[from] AlgebraError),
    #[error(transparent)]
    Relation(#[from] RelationError),
    #[error(transparent)]
    Plan(#[from] PlanError),
    #[error("walk over {{{wrappers}}} does not provide requested feature {feature}")]
    MissingFeature { wrappers: String, feature: String },
    #[error("query projects no features")]
    EmptyProjection,
    #[error("filter feature {0} is not in the query's projection π")]
    FilterNotProjected(String),
}

/// Which execution engine answers the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// Compiled physical plans, pushdown, interned batches, parallel walks.
    #[default]
    Streaming,
    /// The §2.2 eager operator evaluation — the reference implementation.
    Eager,
}

/// A selection `predicate(feature)`, pushed down to the wrapper providing
/// the feature in each walk (when that wrapper claims it — otherwise it
/// runs as a mediator-side residual filter directly above the scan). The
/// feature must appear in the query's π; any feature qualifies, ID or not,
/// and any [`Predicate`] (equality, IN-set, range).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FeatureFilter {
    pub feature: Iri,
    pub predicate: Predicate,
}

impl FeatureFilter {
    pub fn new(feature: Iri, predicate: Predicate) -> Self {
        Self { feature, predicate }
    }

    /// Equality sugar — the PR 2 `FeatureFilter` shape.
    pub fn eq(feature: Iri, value: Value) -> Self {
        Self {
            feature,
            predicate: Predicate::Eq(value),
        }
    }
}

/// What to do when a source fails permanently mid-query (its wrapper's
/// scan raised a [`RelationError::SourceFailure`] that retries could not
/// cure).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SourceFailurePolicy {
    /// Abort the query with the source's error (the default — identical to
    /// the pre-fault-tolerance behaviour).
    #[default]
    Fail,
    /// Drop every walk that touches the failed source and answer from the
    /// surviving walks, reporting the degradation through
    /// [`Answer::source_failures`] — graceful, never silent. Only
    /// source failures degrade; plan bugs, arity violations and deadline
    /// expiry still abort.
    Degrade,
}

/// One degraded source in a partial answer: which wrapper failed, how it
/// was classified, and how many walks the answer lost to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceFailure {
    /// The failing wrapper's name.
    pub wrapper: String,
    /// Whether every failure of this wrapper was transient (retryable); a
    /// single permanent failure makes the whole report permanent.
    pub transient: bool,
    /// Human-readable cause of the first failure observed for this wrapper.
    pub cause: String,
    /// Walks dropped from the answer because they touch this wrapper.
    pub walks_dropped: usize,
}

/// How one query is executed. [`ExecOptions::default`] — the streaming
/// engine, cached plans, reused scans — is what a request runs under unless
/// it says otherwise:
///
/// | field | set by | kind |
/// |---|---|---|
/// | `engine` | the benchmark's reference path, differential suites | plan-shaping |
/// | `filters` | library callers (a capability: σ pushed to the wrappers) | plan-shaping |
/// | `cost_based_joins` | A/B bench rows, differential suites | plan-shaping |
/// | `cache_plans` | the benchmark's reference/cold path | run-time (steers `serve`) |
/// | `reuse_scans` | the benchmark's reference/cold path | run-time (steers `serve`) |
/// | `semijoin_max_keys` | A/B bench rows, differential suites | run-time |
/// | `deadline` | HTTP `deadline_ms` | run-time |
/// | `on_source_failure` | HTTP `on_source_failure` | run-time |
/// | `max_rows` | HTTP `max_rows` | run-time |
///
/// Plan-shaping fields make up the [`PlanShape`] a [`CompiledQuery`] is
/// compiled from and cached under; run-time fields steer one execution and
/// never reach a compiled plan. [`ExecOptions::split`] is where each field
/// is assigned its side, and the compiler holds it to account.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecOptions {
    pub engine: Engine,
    /// Selections pushed into the scans (conjunction; empty = unfiltered).
    pub filters: Vec<FeatureFilter>,
    /// Reuse compiled plans across queries through the system's plan cache
    /// (default on; an entry is re-planned when wrapper capabilities or
    /// statistics move and flushed when the ontology or release log does,
    /// so this is always sound).
    pub cache_plans: bool,
    /// Reuse the system's persistent [`ExecContext`] — interned scans and
    /// join build sides — across queries. On by default: cached scans are
    /// keyed by each wrapper's
    /// [`data_version`](bdi_wrappers::Wrapper::data_version), so
    /// wrapper-data mutations between releases — `TableWrapper::push`,
    /// document inserts — can never be served stale. Turn it off to force a
    /// fresh context per query, e.g. for custom wrapper kinds that mutate
    /// without implementing `data_version`.
    pub reuse_scans: bool,
    /// Semi-join sideways information passing: when a hash join's build
    /// side finishes with at most this many distinct keys, they are
    /// injected as an IN-set filter into the probe wrapper's scan request —
    /// rows the join would discard are never shipped out of the source.
    /// Past it (up to [`bdi_relational::plan::BLOOM_SEMIJOIN_MAX_KEYS`])
    /// the pass degrades to a Bloom filter over the same keys, whose false
    /// positives only ship extra probe rows the join then discards.
    /// Wrappers that claim the filter ([`bdi_wrappers::Wrapper::
    /// claims_filter`]) evaluate it natively (`TableWrapper` in-scan,
    /// `JsonWrapper` through its `$match` translation); for ones that do
    /// not, the join's own hash probe is the residual semi-join, so answers
    /// are engine-independent either way. `0` disables the pass.
    pub semijoin_max_keys: usize,
    /// Order each walk's joins by estimated output cardinality (from the
    /// wrappers' column sketches, [`bdi_wrappers::Wrapper::column_stats`])
    /// instead of their syntactic order. Engaged only when every wrapper in
    /// the walk offers a row estimate; otherwise the syntactic order is
    /// kept. Answers are sorted sets, so the order never shows in one.
    pub cost_based_joins: bool,
    /// Per-query wall-clock budget, measured from when the request is
    /// accepted: [`crate::system::BdiSystem::serve`] arms it first thing
    /// (through [`ExecOptions::split`]), so on a plan-cache miss rewriting
    /// and compilation spend it too. Every operator pull and scan fill
    /// checks it, so a stalled source aborts the query with
    /// [`bdi_relational::plan::PlanError::DeadlineExceeded`] within one
    /// page-fetch budget of the deadline instead of hanging. `None` (the
    /// default) never expires. The eager reference engine ignores it.
    pub deadline: Option<Duration>,
    /// What a permanently failed source does to the answer: abort
    /// ([`SourceFailurePolicy::Fail`], the default) or drop that source's
    /// walks and return a partial answer with a [`SourceFailure`] report
    /// ([`SourceFailurePolicy::Degrade`]). The eager reference engine
    /// ignores it.
    pub on_source_failure: SourceFailurePolicy,
    /// Per-query row limit: an answer holding more rows than this is
    /// truncated to the first `max_rows` (in canonical sorted order) and
    /// flagged [`Answer::truncated`]. `None` (the default)
    /// never truncates. Honoured by *both* engines — truncation happens
    /// after the answer relation is assembled, so it can never change which
    /// rows exist, only how many are returned.
    pub max_rows: Option<usize>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        Self {
            engine: Engine::Streaming,
            filters: Vec::new(),
            cache_plans: true,
            reuse_scans: true,
            semijoin_max_keys: DEFAULT_SEMIJOIN_MAX_KEYS,
            cost_based_joins: true,
            deadline: None,
            on_source_failure: SourceFailurePolicy::Fail,
            max_rows: None,
        }
    }
}

impl ExecOptions {
    /// Splits the options into what a compiled plan may depend on — the
    /// [`PlanShape`], also the options' share of the plan-cache key — and
    /// what steers one execution, the [`ExecRuntime`]; a relative
    /// [`ExecOptions::deadline`] becomes absolute here, counted from now.
    ///
    /// This is the only place the struct is taken apart, and it is taken
    /// apart without `..`: a new field does not compile until it is bound
    /// here (it shapes the plan) or ignored here (it steers a run), with
    /// the reason beside it.
    pub fn split(&self) -> (PlanShape, ExecRuntime) {
        let ExecOptions {
            engine,
            filters,
            cost_based_joins,
            // Whether `serve` consults the plan cache at all.
            cache_plans: _,
            // Whether `serve` executes on the persistent context or a private one.
            reuse_scans: _,
            // Sizes the sideways pass while the plan executes.
            semijoin_max_keys,
            // A budget for this request; the executor checks it as it pulls.
            deadline,
            // What a failed scan does to the answer being assembled.
            on_source_failure,
            // Truncates the assembled answer; a plan cached under it would
            // serve short answers to uncapped requests.
            max_rows,
        } = self;
        let shape = PlanShape {
            engine: *engine,
            filters: filters.clone(),
            cost_based_joins: *cost_based_joins,
        };
        let runtime = ExecRuntime {
            policy: ExecPolicy {
                semijoin_max_keys: *semijoin_max_keys,
                deadline: deadline.and_then(|d| Instant::now().checked_add(d)),
            },
            on_source_failure: *on_source_failure,
            max_rows: *max_rows,
        };
        (shape, runtime)
    }
}

/// Everything of [`ExecOptions`] a compiled plan may depend on. The
/// system's plan cache keys on `(OMQ, scope, PlanShape)`, the compiler sees
/// nothing else of the options, and a [`CompiledQuery`] stores nothing
/// else — so a run-time field cannot leak into a cached plan, and a cached
/// plan cannot supply one.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanShape {
    /// Which engine interprets the walks (the eager one compiles no plans).
    pub engine: Engine,
    /// Compiled into the scans (claimed) or into residual filters above them.
    pub filters: Vec<FeatureFilter>,
    /// Decides each walk's join order.
    pub cost_based_joins: bool,
}

/// What one execution of a [`CompiledQuery`] runs under: the
/// relational-layer [`ExecPolicy`] (semi-join sizing, absolute deadline)
/// plus the core-layer source-failure policy and row limit — always those
/// of whoever *this* call is for ([`ExecOptions::split`]).
#[derive(Debug, Clone, Copy)]
pub struct ExecRuntime {
    /// Relational-layer execution policy.
    pub policy: ExecPolicy,
    /// What a permanently failed source does to the answer.
    pub on_source_failure: SourceFailurePolicy,
    /// Per-query row limit (see [`ExecOptions::max_rows`]).
    pub max_rows: Option<usize>,
}

/// How one walk was planned and how the estimate compared to reality.
/// Compiled into the plan (`CompiledQuery::plan_notes`) with
/// `actual_rows: None`; execution clones the notes into
/// [`Answer::plan_notes`] with the actuals filled in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanNote {
    /// Index of the walk within the rewriting.
    pub walk: usize,
    /// Whether the join order was chosen by estimated cardinality
    /// ([`ExecOptions::cost_based_joins`] engaged and every wrapper
    /// offered an estimate) rather than syntactic order.
    pub cost_based: bool,
    /// Wrapper names in the order they were attached to the join tree.
    pub join_order: Vec<String>,
    /// Estimated output rows of the walk's join tree (`None` when the
    /// walk was planned syntactically without estimates).
    pub estimated_rows: Option<u64>,
    /// Rows the walk's plan emitted at run time, before any dedup — the
    /// quantity `estimated_rows` estimates. It depends on the data and the
    /// plan only, never on which walk finished first. `None` until
    /// executed, and for walks dropped by a degraded answer.
    pub actual_rows: Option<u64>,
}

/// The output schema for a feature projection: one column per feature,
/// named by local name, flagged ID when the feature is one.
fn target_schema(ontology: &BdiOntology, features: &[Iri]) -> Result<Schema, ExecError> {
    if features.is_empty() {
        return Err(ExecError::EmptyProjection);
    }
    let attrs: Vec<Attribute> = features
        .iter()
        .map(|f| {
            if ontology.is_id_feature(f) {
                Attribute::id(f.local_name())
            } else {
                Attribute::non_id(f.local_name())
            }
        })
        .collect();
    Ok(Schema::new(attrs).map_err(RelationError::Schema)?)
}

/// For one walk, the physical column (prefixed attribute name) providing
/// each requested feature.
fn walk_columns(
    ontology: &BdiOntology,
    walk: &Walk,
    features: &[Iri],
) -> Result<Vec<String>, ExecError> {
    let mut columns = Vec::with_capacity(features.len());
    for feature in features {
        match walk_feature_attr(ontology, walk, feature) {
            Some((_, attr)) => columns.push(prefixed_attr_name(attr)),
            None => {
                return Err(ExecError::MissingFeature {
                    wrappers: walk
                        .wrappers()
                        .iter()
                        .map(|w| w.local_name())
                        .collect::<Vec<_>>()
                        .join(", "),
                    feature: feature.as_str().to_owned(),
                })
            }
        }
    }
    Ok(columns)
}

/// The `(wrapper, attribute)` of a walk that provides `feature` — the same
/// choice [`walk_columns`] aligns on, so pushed-down filters land on exactly
/// the column the final answer surfaces.
fn walk_feature_attr<'w>(
    ontology: &BdiOntology,
    walk: &'w Walk,
    feature: &Iri,
) -> Option<(&'w Iri, &'w Iri)> {
    walk.all_projections()
        .find(|(_, attr)| ontology.feature_of_attribute(attr).as_ref() == Some(feature))
}

/// Validates [`FeatureFilter`]s against π, resolving each to the π position
/// it selects on.
fn resolve_filters(
    features: &[Iri],
    filters: &[FeatureFilter],
) -> Result<Vec<(usize, FeatureFilter)>, ExecError> {
    filters
        .iter()
        .map(|filter| {
            let index = features
                .iter()
                .position(|f| f == &filter.feature)
                .ok_or_else(|| ExecError::FilterNotProjected(filter.feature.as_str().to_owned()))?;
            Ok((index, filter.clone()))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The eager reference engine
// ---------------------------------------------------------------------------

/// The original eager evaluation through [`bdi_relational::RelExpr`] and the
/// §2.2 [`ops`]: every operator materializes a full relation. Kept as the
/// executable reference the streaming engine is pinned against.
pub(crate) fn execute_eager(
    ontology: &BdiOntology,
    resolver: &dyn SourceResolver,
    rewriting: &Arc<Rewriting>,
    filters: &[FeatureFilter],
) -> Result<Answer, ExecError> {
    let features = &rewriting.well_formed.omq.pi;
    let schema = target_schema(ontology, features)?;
    let filters = resolve_filters(features, filters)?;

    let mut walk_exprs = Vec::with_capacity(rewriting.walks.len());
    let mut aligned_walks = Vec::with_capacity(rewriting.walks.len());
    for walk in &rewriting.walks {
        let expr = walk.to_rel_expr_full(ontology);
        walk_exprs.push(expr.to_string());
        let rel = expr.eval(resolver)?;
        let columns = walk_columns(ontology, walk, features)?;
        let column_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
        let mut aligned = ops::align_to(&rel, &column_refs, &schema)?;
        if !filters.is_empty() {
            aligned = select_where(&aligned, &filters)?;
        }
        aligned_walks.push(aligned);
    }

    Ok(Answer {
        relation: ops::union_all(&schema, &aligned_walks)?,
        rewriting: rewriting.clone(),
        walk_exprs,
        source_failures: Vec::new(),
        plan_notes: Vec::new(),
        truncated: false,
    })
}

/// Reference semantics of the pushed-down filters: σ over the answer's π
/// columns (conjunction), preserving row order.
fn select_where(
    input: &Relation,
    filters: &[(usize, FeatureFilter)],
) -> Result<Relation, RelationError> {
    let rows: Vec<Tuple> = input
        .rows()
        .iter()
        .filter(|row| {
            filters
                .iter()
                .all(|(index, f)| f.predicate.matches(&row[*index]))
        })
        .cloned()
        .collect();
    Relation::new(input.schema().clone(), rows)
}

// ---------------------------------------------------------------------------
// Walk → physical plan compilation
// ---------------------------------------------------------------------------

/// Cost facts gathered while compiling a leaf: the estimated row count of
/// its (filtered) scan and the distinct-count estimate per output column,
/// keyed by the *prefixed* attribute name the walk's join conditions use.
/// `rows: None` means the source offered neither sketches nor a hint —
/// cost-based ordering stands down for the walk.
struct LeafCost {
    rows: Option<u64>,
    distinct: BTreeMap<String, u64>,
}

/// Compiles one wrapper of a walk to its (pushdown-aware) scan leaf —
/// possibly topped by a residual [`PhysicalPlan::Filter`] holding the
/// predicates the source did not claim — plus the [`LeafCost`] facts the
/// walk's join ordering consumes.
fn leaf_plan(
    ontology: &BdiOntology,
    source: &dyn PlanSource,
    wrapper: &Iri,
    needed: &BTreeSet<&Iri>,
    filter_targets: &[(&Iri, &Iri, &Predicate)],
) -> Result<(PhysicalPlan, LeafCost), ExecError> {
    let wrapper_name = crate::vocab::wrapper_name_of(wrapper)
        .unwrap_or_else(|| wrapper.as_str())
        .to_owned();
    // The scan surfaces only `needed`, the columns the plan consumes — the
    // attributes providing requested features plus this wrapper's join
    // keys. IDs the rewriting projected but the query never surfaces are
    // dropped here, at the source, rather than "at the final step" (§5.2).
    let mut columns = Vec::with_capacity(needed.len());
    let mut out_attrs = Vec::with_capacity(needed.len());
    // (local, prefixed) column-name pairs — sketches key on local names,
    // join conditions on prefixed ones.
    let mut col_pairs = Vec::with_capacity(needed.len());
    for attr in needed.iter().copied() {
        let (local, prefixed) = match crate::vocab::attribute_parts_of(attr) {
            Some((_, local)) => (local.to_owned(), prefixed_attr_name(attr)),
            None => (attr.as_str().to_owned(), attr.as_str().to_owned()),
        };
        let is_id = ontology
            .feature_of_attribute(attr)
            .map(|f| ontology.is_id_feature(&f))
            .unwrap_or(false);
        col_pairs.push((local.clone(), prefixed.clone()));
        columns.push(local);
        out_attrs.push(if is_id {
            Attribute::id(prefixed)
        } else {
            Attribute::non_id(prefixed)
        });
    }
    let schema = Schema::new(out_attrs).map_err(RelationError::Schema)?;
    let mut request = ScanRequest::new(columns, schema)?;
    // Filters on this wrapper: claimed ones ride inside the scan request,
    // the residue becomes a mediator-side Filter over the scan's (prefixed)
    // output columns. Either way the wrapper's answer contribution is
    // identical — only the evaluation site moves.
    let mut residue: Vec<(String, Predicate)> = Vec::new();
    // Residues again under their *local* names, for estimation only.
    let mut residue_cost: Vec<(String, Predicate)> = Vec::new();
    for (target_wrapper, target_attr, predicate) in filter_targets {
        if target_wrapper != &wrapper {
            continue;
        }
        let local = crate::vocab::attribute_parts_of(target_attr)
            .map(|(_, local)| local)
            .unwrap_or_else(|| target_attr.as_str());
        let filter = ColumnFilter::new(local, (*predicate).clone());
        if source.claims(&wrapper_name, &filter) {
            request = request.with_column_filter(filter);
        } else {
            residue_cost.push((local.to_owned(), (*predicate).clone()));
            residue.push((prefixed_attr_name(target_attr), (*predicate).clone()));
        }
    }
    // Cost facts: sketch-estimated rows (claimed filters through
    // `TableStats::estimate_rows`, residues by per-column selectivity —
    // both filter the same rows, only the evaluation site differs), or the
    // source's scan hint when it keeps no sketches.
    let stats = source.stats(&wrapper_name);
    let mut distinct = BTreeMap::new();
    let est_rows = match &stats {
        Some(stats) => {
            let mut est = stats.estimate_rows(request.filters()) as f64;
            for (local, predicate) in &residue_cost {
                if let Some(column) = stats.column(local) {
                    est *= column.selectivity(predicate);
                }
            }
            for (local, prefixed) in &col_pairs {
                if let Some(column) = stats.column(local) {
                    distinct.insert(prefixed.clone(), column.distinct);
                }
            }
            Some(est.round() as u64)
        }
        None => source.scan_hint(&wrapper_name, &request),
    };
    let mut plan = PhysicalPlan::scan(wrapper_name, request);
    if !residue.is_empty() {
        let predicates: Vec<(&str, Predicate)> = residue
            .iter()
            .map(|(column, p)| (column.as_str(), p.clone()))
            .collect();
        plan = plan.filter(predicates)?;
    }
    Ok((
        plan,
        LeafCost {
            rows: est_rows,
            distinct,
        },
    ))
}

/// Cost-based ordering of a walk's ⋈̃ conditions: the cheapest-estimate
/// pair first, then whichever condition keeps the estimated intermediate
/// result smallest — returned with the whole tree's estimated rows. The
/// join estimate is |L ⋈ R| = |L|·|R| / max(d_L(a), d_R(b)) over the
/// condition attributes' distinct-count sketches (distinct defaulting to
/// the side's row count — unique keys — when unsketched). The reordered
/// list stays connected, so [`Walk::join_tree`] consumes it verbatim; a
/// wrong estimate can therefore change only the plan's cost, never its
/// rows. `None` on a disconnected join graph — such walks fail coverage
/// upstream — and the caller keeps the syntactic order. Every wrapper of
/// the walk must carry a row estimate in `costs`.
fn order_joins<'w>(
    walk: &'w Walk,
    costs: &'w BTreeMap<&'w Iri, LeafCost>,
) -> Option<(Vec<&'w JoinCondition>, u64)> {
    let rows_of = |w: &Iri| costs[w].rows.unwrap_or(1).max(1) as f64;
    let distinct_of = |w: &Iri, attr: &Iri| {
        let rows = rows_of(w);
        costs[w]
            .distinct
            .get(&prefixed_attr_name(attr))
            .map_or(rows, |d| (*d as f64).min(rows))
            .max(1.0)
    };
    let mut remaining: Vec<&JoinCondition> = walk.joins().iter().collect();
    let mut next = remaining
        .iter()
        .enumerate()
        .map(|(i, j)| {
            let d = distinct_of(&j.left_wrapper, &j.left_attribute)
                .max(distinct_of(&j.right_wrapper, &j.right_attribute));
            (i, rows_of(&j.left_wrapper) * rows_of(&j.right_wrapper) / d)
        })
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(i, _)| i);
    // The subtree starts as the seed condition's left leaf; the seed then
    // attaches its right wrapper like every later step.
    let root = &remaining[next?].left_wrapper;
    let mut connected = BTreeSet::from([root]);
    let mut sub_rows = rows_of(root);
    let mut sub_distinct: BTreeMap<&str, f64> = BTreeMap::new();
    let absorb = |sub_distinct: &mut BTreeMap<&'w str, f64>, wrapper: &Iri| {
        for (prefixed, d) in &costs[wrapper].distinct {
            sub_distinct.entry(prefixed).or_insert(*d as f64);
        }
    };
    absorb(&mut sub_distinct, root);
    // Estimated rows of the subtree once `step` has attached its leaf.
    let attach_rows = |sub_rows: f64, sub_distinct: &BTreeMap<&str, f64>, step: &Attach| {
        let d_sub = sub_distinct
            .get(prefixed_attr_name(step.on).as_str())
            .map_or(sub_rows, |d| d.min(sub_rows))
            .max(1.0);
        let d_leaf = distinct_of(step.wrapper, step.attribute);
        sub_rows * rows_of(step.wrapper) / d_sub.max(d_leaf)
    };
    let mut ordered = Vec::with_capacity(remaining.len());
    while let Some(index) = next {
        let condition = remaining.remove(index);
        if let Orientation::Attach(step) = condition.orient(&connected) {
            sub_rows = attach_rows(sub_rows, &sub_distinct, &step);
            absorb(&mut sub_distinct, step.wrapper);
            connected.insert(step.wrapper);
        }
        ordered.push(condition);
        next = remaining
            .iter()
            .enumerate()
            .filter_map(|(i, j)| match j.orient(&connected) {
                // Redundant condition over already-joined wrappers (the
                // growth drops it): free.
                Orientation::Connected => Some((i, sub_rows)),
                Orientation::Attach(step) => Some((i, attach_rows(sub_rows, &sub_distinct, &step))),
                Orientation::Disconnected => None,
            })
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(i, _)| i);
    }
    remaining
        .is_empty()
        .then(|| (ordered, sub_rows.round() as u64))
}

/// Compiles a walk to its physical join tree: pushdown-aware scans with
/// fused renames, joined by the walk's ⋈̃ conditions as hash joins — a fold
/// over the same [`Walk::join_tree`] steps as [`Walk::to_rel_expr_full`],
/// reordered by estimated cardinality where
/// [`ExecOptions::cost_based_joins`] engages. The caller tops it with the
/// projection aligning it to the target schema. Also returns the walk's
/// [`PlanNote`] (with `actual_rows` unset).
fn compile_walk(
    ontology: &BdiOntology,
    source: &dyn PlanSource,
    walk: &Walk,
    walk_index: usize,
    features: &[Iri],
    shape: &PlanShape,
) -> Result<(PhysicalPlan, PlanNote), ExecError> {
    // Each filter lands on the (wrapper, attribute) providing its feature
    // in this walk — the same choice `walk_columns` aligns on.
    let filter_targets: Vec<(&Iri, &Iri, &Predicate)> = shape
        .filters
        .iter()
        .filter_map(|f| {
            walk_feature_attr(ontology, walk, &f.feature).map(|(w, a)| (w, a, &f.predicate))
        })
        .collect();
    // Per wrapper, the columns the plan actually consumes: the attribute
    // chosen for each requested feature (the one `walk_columns` aligns on)
    // plus both sides of every ⋈̃ condition.
    let mut needed: BTreeMap<&Iri, BTreeSet<&Iri>> = BTreeMap::new();
    for feature in features {
        if let Some((wrapper, attr)) = walk_feature_attr(ontology, walk, feature) {
            needed.entry(wrapper).or_default().insert(attr);
        }
    }
    for join in walk.joins() {
        needed
            .entry(&join.left_wrapper)
            .or_default()
            .insert(&join.left_attribute);
        needed
            .entry(&join.right_wrapper)
            .or_default()
            .insert(&join.right_attribute);
    }
    let empty = BTreeSet::new();
    let mut leaves: BTreeMap<&Iri, PhysicalPlan> = BTreeMap::new();
    let mut costs: BTreeMap<&Iri, LeafCost> = BTreeMap::new();
    for wrapper in walk.wrappers() {
        let wrapper_needed = needed.get(wrapper).unwrap_or(&empty);
        let (plan, cost) = leaf_plan(ontology, source, wrapper, wrapper_needed, &filter_targets)?;
        leaves.insert(wrapper, plan);
        costs.insert(wrapper, cost);
    }

    // Cost-based ordering engages when the knob is on and every wrapper
    // offers a row estimate; otherwise the syntactic order stands.
    let engage = shape.cost_based_joins
        && !walk.joins().is_empty()
        && costs.values().all(|c| c.rows.is_some());
    let ordered = engage.then(|| order_joins(walk, &costs)).flatten();
    let cost_based = ordered.is_some();
    let (conditions, mut estimated_rows) = match ordered {
        Some((conditions, rows)) => (conditions, Some(rows)),
        None => (walk.joins().iter().collect(), None),
    };
    if walk.joins().is_empty() {
        // Single-wrapper walk (degenerate multi-wrapper walks without joins
        // are rejected upstream by coverage/minimality filtering).
        estimated_rows = costs.values().next().and_then(|c| c.rows);
    }

    let empty_scan = |name: &str| {
        PhysicalPlan::scan(
            name,
            ScanRequest::new(Vec::new(), Schema::default()).expect("empty request is well-formed"),
        )
    };
    let mut leaf = |wrapper: &Iri| {
        leaves
            .remove(wrapper)
            .unwrap_or_else(|| empty_scan(wrapper.as_str()))
    };
    let (root, attaches) = walk.join_tree(conditions);
    // Wrapper names in the order the tree attaches them.
    let join_order = root
        .into_iter()
        .chain(attaches.iter().map(|step| step.wrapper))
        .map(|w| {
            crate::vocab::wrapper_name_of(w)
                .unwrap_or_else(|| w.as_str())
                .to_owned()
        })
        .collect();
    let mut joined = root.map_or_else(|| empty_scan("∅"), &mut leaf);
    for step in attaches {
        joined = joined.hash_join(
            leaf(step.wrapper),
            &prefixed_attr_name(step.on),
            &prefixed_attr_name(step.attribute),
        )?;
    }
    Ok((
        joined,
        PlanNote {
            walk: walk_index,
            cost_based,
            join_order,
            estimated_rows,
            actual_rows: None,
        },
    ))
}

// ---------------------------------------------------------------------------
// The streaming engine: compile once, execute many times
// ---------------------------------------------------------------------------

/// The ontology-side half of a [`CompiledQuery`]: the rewriting over the
/// wrappers its scope admits, the target schema, the rendered walk algebra
/// and each walk's column alignment. All of it reads the ontology and the
/// release log alone — Algorithms 2–5 never look at wrapper data or
/// capabilities — so a capability or statistics change recompiles the plans
/// over the same frame ([`CompiledQuery::replan`]).
#[derive(Debug)]
struct QueryFrame {
    rewriting: Arc<Rewriting>,
    schema: Schema,
    /// Rendered walk algebra, one per walk (left empty under
    /// [`Engine::Eager`], which renders its own while interpreting).
    walk_exprs: Vec<String>,
    /// Per walk, the physical column providing each π feature, in π order
    /// (empty under [`Engine::Eager`], like `walk_exprs`).
    columns: Vec<Vec<String>>,
}

impl QueryFrame {
    /// Validates π and the shape's filters against the rewriting, and — for
    /// the streaming engine — renders and aligns every walk.
    fn compile(
        ontology: &BdiOntology,
        rewriting: Rewriting,
        shape: &PlanShape,
    ) -> Result<Self, ExecError> {
        let features = &rewriting.well_formed.omq.pi;
        let schema = target_schema(ontology, features)?;
        resolve_filters(features, &shape.filters)?;
        let mut walk_exprs = Vec::new();
        let mut columns = Vec::new();
        // The eager engine renders its own walk_exprs while interpreting the
        // walks (`execute_eager`), so compiling them here would be wasted work.
        if matches!(shape.engine, Engine::Streaming) {
            walk_exprs.reserve(rewriting.walks.len());
            columns.reserve(rewriting.walks.len());
            for walk in &rewriting.walks {
                walk_exprs.push(walk.to_rel_expr_full(ontology).to_string());
                columns.push(walk_columns(ontology, walk, features)?);
            }
        }
        Ok(Self {
            rewriting: Arc::new(rewriting),
            schema,
            walk_exprs,
            columns,
        })
    }
}

/// A query compiled once and executable many times, in two halves. An
/// `Arc`'d frame holds what depends on the ontology alone: the
/// rewriting, the target schema, the rendered walk algebra and the column
/// alignment. The plans hold what also depends on the sources: for the
/// streaming engine one physical plan per walk, with the pushed-vs-residual
/// filter split their *capabilities* decide and the join order their
/// statistics price. The system's cross-query plan cache keeps an entry
/// across a data-side change and rebuilds only its plans over the same
/// frame.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    frame: Arc<QueryFrame>,
    shape: PlanShape,
    /// One plan per walk (left empty under [`Engine::Eager`], which
    /// interprets the walks directly).
    plans: Vec<PhysicalPlan>,
    /// One [`PlanNote`] per plan, `actual_rows` unset.
    plan_notes: Vec<PlanNote>,
}

impl CompiledQuery {
    /// The rewriting the plans were compiled from. Shared (`Arc`) so
    /// cache-hit answers hand it out without deep-cloning the walks.
    pub fn rewriting(&self) -> &Arc<Rewriting> {
        &self.frame.rewriting
    }

    /// Planner notes, one per walk (empty under [`Engine::Eager`]).
    /// `actual_rows` is `None` here — execution clones the notes into
    /// [`Answer::plan_notes`] with the actuals filled in.
    pub(crate) fn plan_notes(&self) -> &[PlanNote] {
        &self.plan_notes
    }

    /// Recompiles the plans against `source`'s current capabilities and
    /// statistics over this query's frame, which is shared, not rebuilt:
    /// the rewriting stays the same `Arc`.
    pub(crate) fn replan(
        &self,
        ontology: &BdiOntology,
        source: &dyn PlanSource,
    ) -> Result<CompiledQuery, ExecError> {
        compile_plans(ontology, source, self.frame.clone(), self.shape.clone())
    }
}

/// Compiles a rewriting into an executable [`CompiledQuery`]: validates π
/// and the filters, renders the walk algebra, and (streaming engine) builds
/// each walk's physical plan with claimed filters pushed into the scans and
/// unclaimed residues kept as mediator-side filters. Of `options` only the
/// [`PlanShape`] is read.
pub fn compile_query<S>(
    ontology: &BdiOntology,
    source: &S,
    rewriting: Rewriting,
    options: &ExecOptions,
) -> Result<CompiledQuery, ExecError>
where
    S: SourceResolver + PlanSource,
{
    let (shape, _) = options.split();
    let frame = Arc::new(QueryFrame::compile(ontology, rewriting, &shape)?);
    compile_plans(ontology, source, frame, shape)
}

/// The data-side half of compilation: one physical plan per walk of
/// `frame`, each topped by the projection aligning it to the target schema.
fn compile_plans(
    ontology: &BdiOntology,
    source: &dyn PlanSource,
    frame: Arc<QueryFrame>,
    shape: PlanShape,
) -> Result<CompiledQuery, ExecError> {
    let walks = &frame.rewriting.walks;
    let features = &frame.rewriting.well_formed.omq.pi;
    let mut plans = Vec::with_capacity(frame.columns.len());
    let mut plan_notes = Vec::with_capacity(frame.columns.len());
    // `columns` is empty under the eager engine, which compiles no plans.
    for (walk_index, (walk, columns)) in walks.iter().zip(&frame.columns).enumerate() {
        let column_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
        let (joined, note) = compile_walk(ontology, source, walk, walk_index, features, &shape)?;
        plans.push(joined.project_columns(&column_refs, frame.schema.clone())?);
        plan_notes.push(note);
    }
    Ok(CompiledQuery {
        frame,
        shape,
        plans,
        plan_notes,
    })
}

/// Executes a compiled query under the default run-time values (no
/// deadline, no row limit, fail on a source failure). `ctx` lets callers
/// thread a persistent [`ExecContext`] through (reusing interned scans and
/// join build sides across queries); `None` executes against a fresh
/// context, re-scanning every wrapper — the right default when source data
/// may have changed.
pub fn execute_compiled<S>(
    ontology: &BdiOntology,
    source: &S,
    compiled: &CompiledQuery,
    ctx: Option<&ExecContext>,
) -> Result<Answer, ExecError>
where
    S: SourceResolver + PlanSource,
{
    let (_, runtime) = ExecOptions::default().split();
    execute_compiled_with(ontology, source, compiled, ctx, runtime)
}

/// [`execute_compiled`] under the caller's [`ExecRuntime`] — how
/// [`crate::system::BdiSystem::serve`] runs a cached plan for whoever is
/// asking now. Row-limit truncation is applied here, after the answer
/// relation is assembled, so both engines honour it identically and keep
/// the same sorted prefix.
pub fn execute_compiled_with<S>(
    ontology: &BdiOntology,
    source: &S,
    compiled: &CompiledQuery,
    ctx: Option<&ExecContext>,
    runtime: ExecRuntime,
) -> Result<Answer, ExecError>
where
    S: SourceResolver + PlanSource,
{
    let mut answer = match compiled.shape.engine {
        Engine::Eager => execute_eager(
            ontology,
            source,
            &compiled.frame.rewriting,
            &compiled.shape.filters,
        ),
        Engine::Streaming => run_streaming(
            source,
            compiled,
            ctx,
            runtime.policy,
            runtime.on_source_failure,
        ),
    }?;
    if let Some(cap) = runtime.max_rows {
        if answer.relation.len() > cap {
            answer.relation.truncate_rows(cap);
            answer.truncated = true;
        }
    }
    Ok(answer)
}

/// The [`SourceFailure`] a plan error degrades into, when it is a
/// degradable source failure (a wrapper's scan failed) rather than a plan
/// bug, arity violation or deadline expiry.
fn source_failure_of(error: &PlanError) -> Option<SourceFailure> {
    match error {
        PlanError::Relation(RelationError::SourceFailure {
            source,
            transient,
            cause,
        }) => Some(SourceFailure {
            wrapper: source.clone(),
            transient: *transient,
            cause: cause.clone(),
            walks_dropped: 1,
        }),
        _ => None,
    }
}

/// Folds per-walk failure reports into one report per wrapper (name order):
/// `walks_dropped` accumulates, the first observed cause is kept, and the
/// wrapper counts as transient only if *every* failure was.
fn aggregate_failures(failures: Vec<SourceFailure>) -> Vec<SourceFailure> {
    let mut by_wrapper: BTreeMap<String, SourceFailure> = BTreeMap::new();
    for failure in failures {
        match by_wrapper.get_mut(&failure.wrapper) {
            Some(report) => {
                report.walks_dropped += failure.walks_dropped;
                report.transient &= failure.transient;
            }
            None => {
                by_wrapper.insert(failure.wrapper.clone(), failure);
            }
        }
    }
    by_wrapper.into_values().collect()
}

fn run_streaming<S>(
    source: &S,
    compiled: &CompiledQuery,
    external: Option<&ExecContext>,
    policy: ExecPolicy,
    on_source_failure: SourceFailurePolicy,
) -> Result<Answer, ExecError>
where
    S: PlanSource,
{
    let degrade = matches!(on_source_failure, SourceFailurePolicy::Degrade);
    let schema = compiled.frame.schema.clone();
    let plans = &compiled.plans;
    let src: &dyn PlanSource = source;

    let owned;
    let ctx: &ExecContext = match external {
        Some(shared) => shared,
        None => {
            owned = ExecContext::new();
            &owned
        }
    };

    // Each walk streams into its own id-space dedup set, claims the rows
    // no earlier-finishing walk already produced (one shared id-space set
    // — so every duplicate dies as a u32-row hash probe, never as a
    // decoded-value comparison), then decodes and sorts only its *novel*
    // rows into a sorted run. The value-disjoint runs are k-way merged
    // into the canonical sorted set form; a lone walk is a one-run union.
    // Compared to one global set plus one big final sort, the per-walk
    // sorts are smaller (cache-friendlier) and run on the worker threads,
    // so sorting overlaps with other walks' scans and joins instead of
    // serializing after them — the all-distinct worst case, where the
    // final sort used to dominate, is exactly what this buys back.
    let global_seen = std::sync::Mutex::new(RowSet::new(schema.len()));
    let mut runs: Vec<Option<WalkRun>> = Vec::with_capacity(plans.len());
    runs.resize_with(plans.len(), || None);
    let mut first_error: Option<(usize, PlanError)> = None;
    let record_error = |slot: &mut Option<(usize, PlanError)>, index: usize, e: PlanError| {
        if slot.as_ref().is_none_or(|(i, _)| index < *i) {
            *slot = Some((index, e));
        }
    };
    // Under Degrade a failed walk becomes a dropped-walk report instead of
    // a query error; anything that is not a source failure still aborts.
    let mut dropped: Vec<SourceFailure> = Vec::new();
    let settle = |runs: &mut Vec<Option<WalkRun>>,
                  first_error: &mut Option<(usize, PlanError)>,
                  dropped: &mut Vec<SourceFailure>,
                  index: usize,
                  result: Result<WalkRun, PlanError>| match result {
        Ok(run) => runs[index] = Some(run),
        Err(e) => match source_failure_of(&e) {
            Some(failure) if degrade => dropped.push(failure),
            _ => record_error(first_error, index, e),
        },
    };

    let workers = plan::worker_budget().min(plans.len());

    if workers <= 1 {
        for (index, walk_plan) in plans.iter().enumerate() {
            let result = walk_sorted_run(walk_plan, ctx, src, policy, &global_seen, degrade);
            settle(&mut runs, &mut first_error, &mut dropped, index, result);
        }
    } else {
        let next = AtomicUsize::new(0);
        // One message per walk; the channel is a completion queue, not a
        // row pipe — per-walk memory is bounded by that walk's distinct
        // output, which the merged answer holds anyway.
        let (tx, rx) = mpsc::sync_channel::<(usize, Result<WalkRun, PlanError>)>(workers);
        let ctx_ref = ctx;
        let src_ref = src;
        let plans_ref = &plans;
        let next_ref = &next;
        let seen_ref = &global_seen;
        std::thread::scope(|s| {
            for _ in 0..workers {
                let tx = tx.clone();
                s.spawn(move || loop {
                    let index = next_ref.fetch_add(1, Ordering::Relaxed);
                    if index >= plans_ref.len() {
                        break;
                    }
                    let run = walk_sorted_run(
                        &plans_ref[index],
                        ctx_ref,
                        src_ref,
                        policy,
                        seen_ref,
                        degrade,
                    );
                    if tx.send((index, run)).is_err() {
                        return;
                    }
                });
            }
            drop(tx);
            for (index, message) in rx {
                settle(&mut runs, &mut first_error, &mut dropped, index, message);
            }
        });
    }

    if let Some((_, e)) = first_error {
        return Err(e.into());
    }

    // A walk's actual is the rows its plan emitted; a dropped walk keeps an
    // unset one.
    let mut plan_notes = compiled.plan_notes.clone();
    let mut sorted_runs = Vec::with_capacity(runs.len());
    for (note, run) in plan_notes.iter_mut().zip(runs) {
        if let Some(run) = run {
            note.actual_rows = Some(run.emitted);
            sorted_runs.push(run.rows);
        }
    }

    Ok(Answer {
        relation: Relation::new(schema, merge_sorted_runs(sorted_runs))?,
        rewriting: compiled.rewriting().clone(),
        walk_exprs: compiled.frame.walk_exprs.clone(),
        source_failures: aggregate_failures(dropped),
        plan_notes,
        truncated: false,
    })
}

/// One walk's share of a streamed union: its novel rows, decoded and
/// sorted, and how many rows its plan emitted before any dedup.
struct WalkRun {
    rows: Vec<Tuple>,
    emitted: u64,
}

/// Pulls one walk's plan to exhaustion on the caller's thread, claiming
/// each batch's rows against the cross-walk `global_seen` set — every
/// duplicate, intra- or cross-walk, dies as a single `u32`-row hash probe
/// before any value is decoded — and returns the walk's *novel* rows
/// decoded and sorted (one sorted run of the streamed union) with the
/// count of rows its plan emitted, counted per batch before the claim.
/// Batches are bounded, so the set is locked in short holds. Interning canonicalizes
/// `Value`-equal rows to identical ids, so id-disjoint runs are
/// value-disjoint too.
///
/// `claim_late` (the Degrade mode): the walk dedups against a *local* set
/// while streaming and claims against the shared set only once its plan ran
/// to exhaustion. Claiming as rows stream would let a walk that later
/// *fails* (and is dropped from the answer) have already suppressed rows a
/// surviving walk also produces — those rows would silently vanish from the
/// partial answer. The price is one extra probe per row and losing the
/// streaming overlap of the claim work; it is paid only under Degrade.
fn walk_sorted_run(
    walk_plan: &PhysicalPlan,
    ctx: &ExecContext,
    src: &dyn PlanSource,
    policy: ExecPolicy,
    global_seen: &std::sync::Mutex<RowSet>,
    claim_late: bool,
) -> Result<WalkRun, PlanError> {
    let arity = walk_plan.schema().len();
    let mut op = plan::Operator::new(walk_plan, ctx, src, policy);
    let mut novel: Vec<u32> = Vec::new();
    let mut count = 0usize;
    let mut emitted = 0u64;
    if claim_late {
        let mut local_seen = RowSet::new(arity);
        let mut staged: Vec<u32> = Vec::new();
        let mut staged_count = 0usize;
        while let Some(batch) = op.next_batch()? {
            emitted += batch.len() as u64;
            // analyze: allow(deadline, walks one batch already pulled; the next pull checks)
            for row in batch.rows() {
                if local_seen.insert(row) {
                    staged.extend_from_slice(row);
                    staged_count += 1;
                }
            }
        }
        // The walk is known good past this point; only now may its rows
        // suppress other walks' duplicates.
        let mut seen = global_seen.lock().expect("union dedup set poisoned");
        // analyze: allow(deadline, walks rows already staged; no source is pulled)
        for i in 0..staged_count {
            let row = &staged[i * arity..(i + 1) * arity];
            if seen.insert(row) {
                novel.extend_from_slice(row);
                count += 1;
            }
        }
    } else {
        while let Some(batch) = op.next_batch()? {
            emitted += batch.len() as u64;
            let mut seen = global_seen.lock().expect("union dedup set poisoned");
            // analyze: allow(deadline, walks one batch already pulled; the next pull checks)
            for row in batch.rows() {
                if seen.insert(row) {
                    novel.extend_from_slice(row);
                    count += 1;
                }
            }
        }
    }
    // Release the tree's build tables and source cursors before decoding.
    drop(op);
    // Decode in bounded chunks: `decode_rows` holds every pool shard for
    // the duration of a call, so one walk decoding a huge novel set must
    // not starve the other workers' interning for the whole decode.
    const DECODE_CHUNK_ROWS: usize = 16 * 1024;
    let mut rows: Vec<Tuple> = Vec::with_capacity(count);
    let mut start = 0usize;
    // analyze: allow(deadline, decodes rows already claimed; no source is pulled)
    while start < count {
        let end = count.min(start + DECODE_CHUNK_ROWS);
        rows.extend(ctx.decode_rows((start..end).map(|i| &novel[i * arity..(i + 1) * arity])));
        start = end;
    }
    rows.sort_unstable();
    Ok(WalkRun { rows, emitted })
}

/// K-way merge of the per-walk sorted runs into the canonical sorted set
/// form. Runs are pairwise disjoint by construction (the shared id-space
/// set), so this is a pure merge; the equality check against the last
/// emitted row is a defensive no-op kept for clarity of the set contract.
fn merge_sorted_runs(runs: Vec<Vec<Tuple>>) -> Vec<Tuple> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let total: usize = runs.iter().map(Vec::len).sum();
    let mut iters: Vec<std::vec::IntoIter<Tuple>> = runs.into_iter().map(Vec::into_iter).collect();
    let mut heap: BinaryHeap<Reverse<(Tuple, usize)>> = BinaryHeap::with_capacity(iters.len());
    for (index, iter) in iters.iter_mut().enumerate() {
        if let Some(row) = iter.next() {
            heap.push(Reverse((row, index)));
        }
    }
    let mut out: Vec<Tuple> = Vec::with_capacity(total);
    while let Some(Reverse((row, index))) = heap.pop() {
        if let Some(next) = iters[index].next() {
            heap.push(Reverse((next, index)));
        }
        if out.last() != Some(&row) {
            out.push(row);
        }
    }
    out
}
