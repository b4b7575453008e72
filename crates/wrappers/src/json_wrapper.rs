//! Wrappers over JSON collections — the paper's Code 2 made executable.
//!
//! A [`JsonWrapper`] runs an aggregation pipeline against a [`DocStore`]
//! collection and flattens the resulting JSON objects into the flat 1NF
//! relation the ontology layer expects.
//!
//! It handles bytes from outside (snapshot files, the durable tier's log),
//! so it may not panic: the server crate's six clippy denies hold here.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::spec::value_to_json;
use crate::wrapper::{eager_batches, RowBatches, Wrapper, WrapperError};
use bdi_docstore::{DocPredicate, DocStore, Pipeline, Projection};
use bdi_relational::plan::{Bound, ColumnFilter, Predicate, ScanMark, ScanRequest, BATCH_ROWS};
use bdi_relational::{Relation, RelationError, Schema, StatsBuilder, TableStats, Tuple, Value};
use parking_lot::Mutex;
use std::sync::Arc;

/// Whether a filter column can be addressed by a `$match` stage appended
/// after the wrapper's `$project`: the projected output holds the column
/// name as a *literal* key, but `$match` resolves fields through dotted
/// path traversal — a dot in the name would make the stage read `Null`
/// instead of the projected value, so such columns stay residual.
fn match_addressable(column: &str) -> bool {
    !column.contains('.')
}

/// Translates a relational predicate into its docstore `$match` form, or
/// `None` when some constituent value has no JSON image. The docstore's
/// `json_cmp` mirrors the relational total order, so the
/// translation preserves [`Predicate::matches`] semantics exactly for every
/// value a JSON document can hold. A predicate holding a value without a
/// JSON image is not claimed, so it falls back to the mediator's residual
/// filter.
fn to_doc_predicate(predicate: &Predicate) -> Option<DocPredicate> {
    let to_json = value_to_json;
    let bound = |b: &Bound| to_json(&b.value).map(|v| (v, b.inclusive));
    Some(match predicate {
        // Bloom filters probe hashed Values, not JSON documents — no
        // `$match` translation exists. Claimed blooms are evaluated in the
        // wrapper's residual path instead (see `claims_filter`).
        Predicate::Bloom(_) => return None,
        Predicate::Eq(v) => DocPredicate::Eq(to_json(v)?),
        Predicate::In(vs) => DocPredicate::In(vs.iter().map(to_json).collect::<Option<_>>()?),
        Predicate::Range { min, max } => DocPredicate::Range {
            min: match min {
                Some(b) => Some(bound(b)?),
                None => None,
            },
            max: match max {
                Some(b) => Some(bound(b)?),
                None => None,
            },
        },
    })
}

/// Most documents the scan cursor pulls from the store at once. The caller's
/// `batch_rows` counts *output* rows, but a chunk's footprint is its source
/// documents — cloned whole, then re-materialized by every `$project`
/// stage — at hundreds of bytes each: an 8 192-document chunk is megabytes of
/// short-lived buffers per stage, several times a core's L2, and a scan
/// that follows lighter work pays for every one of them cold (measured on
/// the SUPERSEDE collections: 17.0 ms against 20.2 ms for a cold 2 × 10k
/// document query). A thousand documents keep the stages' buffers resident
/// and reused from chunk to chunk.
const DOC_CHUNK_MAX: usize = 1024;

/// A wrapper backed by a document-store aggregation query.
pub struct JsonWrapper {
    name: String,
    source: String,
    schema: Schema,
    store: DocStore,
    collection: String,
    pipeline: Pipeline,
    /// Capability fingerprint, computed once — this wrapper's claims
    /// depend only on its immutable schema (column presence, dotted
    /// names) and the predicate shape.
    claims_fp: u64,
    /// Column sketches: the memoized snapshot, keyed by the
    /// [`Wrapper::data_version`] it describes, and the builder it was taken
    /// from. Unlike [`crate::TableWrapper`], this wrapper does not own its
    /// write path (the [`DocStore`] does), so the builder catches up lazily
    /// on first demand after a version bump — by folding in only the
    /// documents appended since, whenever the scan can resume.
    stats: Mutex<JsonStatsState>,
}

/// Memoization state behind [`JsonWrapper::column_stats`]. The lock guards
/// only this bookkeeping — the catch-up scan runs *outside* it
/// (single-flighted by `rebuilding`), so concurrent planners consulting a
/// stale sketch fall back to raw hints instead of serializing behind it.
#[derive(Default)]
struct JsonStatsState {
    /// The last published snapshot and the data version it describes.
    cached: Option<(u64, Arc<TableStats>)>,
    /// Set while some thread is catching the sketches up; cleared when it
    /// publishes or gives up.
    rebuilding: bool,
    /// The builder and the mark it has folded up to: it has observed
    /// exactly the output rows of documents `[0, mark.consumed)` of the
    /// mark's epoch. Absent before the first build, while the
    /// single-flighted folder has it out, and for wrappers whose scans
    /// cannot be marked (dotted columns).
    folded: Option<(StatsBuilder, ScanMark)>,
}

impl JsonWrapper {
    /// Builds the wrapper. The pipeline's final `$project` field names must
    /// cover every attribute of `schema` (extra projected fields are
    /// ignored); this is checked at construction so a mis-wired wrapper
    /// fails at registration time, not at query time.
    pub fn new(
        name: impl Into<String>,
        source: impl Into<String>,
        schema: Schema,
        store: DocStore,
        collection: impl Into<String>,
        pipeline: Pipeline,
    ) -> Result<Self, WrapperError> {
        let name = name.into();
        if let Some(fields) = pipeline.output_fields() {
            for attr in schema.names() {
                if !fields.contains(&attr) {
                    return Err(WrapperError::permanent(
                        name,
                        format!("pipeline does not project attribute {attr}"),
                    ));
                }
            }
        }
        let mut wrapper = Self {
            name,
            source: source.into(),
            schema,
            store,
            collection: collection.into(),
            pipeline,
            claims_fp: 0,
            stats: Mutex::new(JsonStatsState::default()),
        };
        wrapper.claims_fp = crate::wrapper::probe_claims_fingerprint(&wrapper.schema, |f| {
            Wrapper::claims_filter(&wrapper, f)
        });
        Ok(wrapper)
    }

    /// The backing collection's name.
    pub(crate) fn collection(&self) -> &str {
        &self.collection
    }

    /// The wrapper's aggregation pipeline.
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// Brings the sketch builder up to the collection's current contents:
    /// resumes the full-schema scan from `folded`'s mark and observes only
    /// the appended rows when the scan can resume, observes every row into
    /// a fresh builder otherwise. `None` when the scan fails — a builder
    /// that stopped part-way matches no mark and is dropped.
    fn fold_stats(
        &self,
        folded: Option<(StatsBuilder, ScanMark)>,
    ) -> Option<(StatsBuilder, Option<ScanMark>)> {
        let request = ScanRequest::full(&self.schema);
        let resumed = match &folded {
            Some((_, mark)) => self.resume_batches(&request, BATCH_ROWS, mark).ok()?,
            None => None,
        };
        // An unmarkable scan (dotted columns) is one eager aggregate per
        // version: it comes back without a mark, so nothing is kept to fold.
        let (mut builder, batches, mark) = match (folded, resumed) {
            (Some((builder, _)), Some((delta, mark))) => (builder, delta, Some(mark)),
            _ => {
                let (batches, mark) = self.scan_batches(&request, BATCH_ROWS).ok()?;
                (StatsBuilder::new(self.schema.names()), batches, mark)
            }
        };
        for batch in batches {
            for row in batch.ok()? {
                builder.observe_row(&row);
            }
        }
        Some((builder, mark))
    }

    /// The narrowed pipeline for a request: the fetch list (requested
    /// columns plus ride-along filter columns), the residual predicates
    /// (indexed into the fetch list) and the wrapper pipeline with the
    /// trailing `$project` / `$match` stages appended. `None` when a dotted
    /// column forces the wholesale reference path: the narrowing `$project`
    /// (and any `$match`) resolves fields by dotted-path traversal, while
    /// this wrapper's own projection output holds column names as literal
    /// keys, so a dotted column name cannot be re-addressed through the
    /// pipeline.
    #[allow(clippy::type_complexity)]
    fn narrowed_pipeline(
        &self,
        request: &ScanRequest,
    ) -> Result<Option<(Vec<String>, Vec<(usize, Predicate)>, Pipeline)>, WrapperError> {
        if request.columns().iter().any(|c| !match_addressable(c))
            || request
                .filters()
                .iter()
                .any(|f| !match_addressable(&f.column))
        {
            return Ok(None);
        }
        for column in request.columns() {
            self.schema.require(column).map_err(RelationError::Schema)?;
        }
        // Filter columns ride along when not among the requested columns,
        // and are dropped from the output rows afterwards.
        let mut fetch: Vec<String> = request.columns().to_vec();
        // (ride-along index, residual predicate) pairs evaluated post-
        // conversion; translatable predicates go into the `$match` stage.
        let mut residual: Vec<(usize, Predicate)> = Vec::new();
        let mut matched: Vec<(&str, DocPredicate)> = Vec::new();
        for f in request.filters() {
            self.schema
                .require(&f.column)
                .map_err(RelationError::Schema)?;
            let idx = match fetch.iter().position(|c| *c == f.column) {
                Some(idx) => idx,
                None => {
                    fetch.push(f.column.clone());
                    fetch.len() - 1
                }
            };
            match to_doc_predicate(&f.predicate) {
                Some(doc_predicate) => matched.push((&f.column, doc_predicate)),
                None => residual.push((idx, f.predicate.clone())),
            }
        }
        let mut pipeline = self.pipeline.clone().project(
            fetch
                .iter()
                .map(|c| Projection::field(c.clone(), c.clone()))
                .collect(),
        );
        for (column, doc_predicate) in matched {
            pipeline = pipeline.match_pred(column, doc_predicate);
        }
        Ok(Some((fetch, residual, pipeline)))
    }

    /// The one scan loop behind [`Wrapper::scan_batches`] and
    /// [`Wrapper::resume_batches`], started at document `0` or at `after`;
    /// `None` when the request cannot be narrowed (dotted columns) or
    /// `after` cannot be resumed from.
    ///
    /// The mark is the collection's `(epoch, length)` read under one lock
    /// when the cursor starts — what the cursor bounds itself to, never
    /// something derived from [`Wrapper::data_version`] (versions also move
    /// on rejected inserts).
    fn cursor<'a>(
        &'a self,
        request: &ScanRequest,
        batch_rows: usize,
        after: Option<&ScanMark>,
    ) -> Result<Option<(RowBatches<'a>, ScanMark)>, WrapperError> {
        let Some((fetch, residual, pipeline)) = self.narrowed_pipeline(request)? else {
            return Ok(None);
        };
        let (epoch, total) = self
            .store
            .collection_extent(&self.collection)
            .map_err(|e| WrapperError::permanent(self.name.clone(), e.to_string()))?;
        let start = match after {
            None => 0,
            Some(mark)
                if mark.epoch() == epoch
                    && mark.consumed() <= total as u64
                    && pipeline.is_record_local() =>
            {
                mark.consumed() as usize
            }
            Some(_) => return Ok(None),
        };
        let arity = request.columns().len();
        let batch_rows = batch_rows.max(1);
        let mut run = pipeline.start();
        let mut cursor = start;
        let mut failed = false;
        let batches = std::iter::from_fn(move || {
            loop {
                if failed || cursor >= total || run.exhausted() {
                    return None;
                }
                // Never read past `total`, even when appends have landed
                // since: the mark promises exactly `[0, total)` was covered,
                // and a resume from it would yield the overshoot twice.
                let chunk = batch_rows.min(DOC_CHUNK_MAX).min(total - cursor);
                let docs = match self.store.docs_chunk(&self.collection, cursor, chunk) {
                    Ok(docs) => docs,
                    Err(e) => {
                        failed = true;
                        return Some(Err(WrapperError::permanent(
                            self.name.clone(),
                            e.to_string(),
                        )));
                    }
                };
                if docs.is_empty() {
                    return None; // the collection shrank mid-scan
                }
                cursor += docs.len();
                let outs = match run.push_batch(docs) {
                    Ok(outs) => outs,
                    Err(e) => {
                        failed = true;
                        return Some(Err(WrapperError::permanent(
                            self.name.clone(),
                            e.to_string(),
                        )));
                    }
                };
                let mut rows: Vec<Tuple> = Vec::with_capacity(outs.len());
                for doc in &outs {
                    match self.convert_row(&fetch, arity, &residual, doc) {
                        Ok(Some(row)) => rows.push(row),
                        Ok(None) => {}
                        Err(e) => {
                            failed = true;
                            return Some(Err(e));
                        }
                    }
                }
                if !rows.is_empty() {
                    return Some(Ok(rows));
                }
            }
        });
        Ok(Some((
            Box::new(batches),
            ScanMark::new(epoch, total as u64),
        )))
    }

    /// Converts one pipeline output document into a row of the request's
    /// arity, or `None` when a residual predicate rejects it.
    fn convert_row(
        &self,
        fetch: &[String],
        arity: usize,
        residual: &[(usize, Predicate)],
        doc: &serde_json::Value,
    ) -> Result<Option<Tuple>, WrapperError> {
        let mut row = Vec::with_capacity(fetch.len());
        for column in fetch {
            let json_value = doc.get(column).unwrap_or(&serde_json::Value::Null);
            row.push(self.convert(column, json_value)?);
        }
        // Every index points into `fetch`, so `get` always finds the cell.
        if !residual
            .iter()
            .all(|(idx, p)| row.get(*idx).is_some_and(|value| p.matches(value)))
        {
            return Ok(None);
        }
        row.truncate(arity);
        Ok(Some(row))
    }

    /// Converts a JSON scalar into a relational [`Value`].
    fn convert(&self, attribute: &str, v: &serde_json::Value) -> Result<Value, WrapperError> {
        Ok(match v {
            serde_json::Value::Null => Value::Null,
            serde_json::Value::Bool(b) => Value::Bool(*b),
            serde_json::Value::Number(n) => {
                if let Some(i) = n.as_i64() {
                    Value::Int(i)
                } else {
                    Value::Float(n.as_f64().unwrap_or(f64::NAN))
                }
            }
            serde_json::Value::String(s) => Value::Str(s.clone()),
            // Wrappers must deliver 1NF: nested structures are a wiring bug.
            serde_json::Value::Array(_) | serde_json::Value::Object(_) => {
                return Err(WrapperError::UnsupportedShape {
                    wrapper: self.name.clone(),
                    attribute: attribute.to_owned(),
                })
            }
        })
    }
}

impl Wrapper for JsonWrapper {
    fn name(&self) -> &str {
        &self.name
    }

    fn source(&self) -> &str {
        &self.source
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn to_spec(&self) -> Result<Option<crate::spec::WrapperSpec>, WrapperError> {
        Ok(Some(self.spec()))
    }

    fn scan(&self) -> Result<Relation, WrapperError> {
        let docs = self
            .store
            .aggregate(&self.collection, &self.pipeline)
            .map_err(|e| WrapperError::permanent(self.name.clone(), e.to_string()))?;
        let mut rel = Relation::empty(self.schema.clone());
        for doc in docs {
            let mut row = Vec::with_capacity(self.schema.len());
            for attr in self.schema.attributes() {
                let json_value = doc.get(attr.name()).unwrap_or(&serde_json::Value::Null);
                row.push(self.convert(attr.name(), json_value)?);
            }
            rel.push(row)?;
        }
        Ok(rel)
    }

    /// The wrapper claims every filter it can translate into the docstore
    /// pipeline: the column must exist, be addressable by a `$match` stage
    /// (no dots in the name), and each predicate value must have a faithful
    /// JSON image (NaN range bounds, for instance, do not — those filters
    /// stay in the mediator as residues). Bloom filters have no pipeline
    /// translation but are still claimed: they ride the wrapper's residual
    /// path (`JsonWrapper::convert_row`), so filtered-out documents never
    /// cross the wrapper boundary.
    fn claims_filter(&self, filter: &ColumnFilter) -> bool {
        self.schema.index_of(&filter.column).is_some()
            && match_addressable(&filter.column)
            && (matches!(filter.predicate, Predicate::Bloom(_))
                || to_doc_predicate(&filter.predicate).is_some())
    }

    /// Native streaming pushdown; a dotted-column request cannot be
    /// narrowed and takes the reference path over [`Wrapper::scan`]
    /// wholesale, unmarked.
    ///
    /// A trailing `$project` of only the requested fields is appended to
    /// the wrapper's pipeline, followed by a `$match` of every translatable
    /// predicate, so the document store never surfaces unused attributes or
    /// filtered-out documents. The docstore compares through
    /// `bdi_docstore`'s `json_cmp`, which mirrors relational [`Value`]
    /// ordering (cross-type numeric equality included) — the contract is
    /// relational. Untranslatable predicates are evaluated here after
    /// JSON→[`Value`] conversion, so the scan honours *any* request
    /// whether or not its filters were claimed.
    ///
    /// It pulls chunks of at most `batch_rows` documents (and at most
    /// `DOC_CHUNK_MAX`) from the backing collection (one short read-lock
    /// hold each, via [`DocStore::docs_chunk`]) and feeds them through a
    /// batch-aware pipeline run ([`Pipeline::start`]) whose `$limit`
    /// budgets span chunks — so neither the store's full document set nor
    /// the full result relation is ever materialized in one piece. A
    /// `$limit`-exhausted run stops pulling chunks early.
    ///
    /// Unlike the eager [`Wrapper::scan`] (one lock across the whole
    /// aggregate), this is a *cursor*, not a point snapshot: it is bounded
    /// to the documents present when it started and shrink-safe (a
    /// concurrent [`DocStore::clear`] ends it early), but a clear followed
    /// by re-inserts mid-scan can surface a mix of the two generations
    /// within one result — the same consistency any paging source gives.
    /// Every mutation bumps [`Wrapper::data_version`], so cached results of
    /// such a scan are invalidated either way.
    fn scan_batches<'a>(
        &'a self,
        request: &ScanRequest,
        batch_rows: usize,
    ) -> Result<(RowBatches<'a>, Option<ScanMark>), WrapperError> {
        match self.cursor(request, batch_rows, None)? {
            Some((batches, mark)) => Ok((batches, Some(mark))),
            None => eager_batches(self, request, batch_rows),
        }
    }

    /// Resumes iff the collection is still in the mark's epoch (nothing was
    /// cleared, so the marked prefix is still the prefix), has not shrunk
    /// below the mark, and the narrowed pipeline is
    /// [record-local](Pipeline::is_record_local): `$project` and `$match`
    /// decide each document alone, so the suffix's output is exactly what a
    /// full run would append, while a `$limit`'s budget depends on the
    /// prefix.
    fn resume_batches<'a>(
        &'a self,
        request: &ScanRequest,
        batch_rows: usize,
        mark: &ScanMark,
    ) -> Result<Option<(RowBatches<'a>, ScanMark)>, WrapperError> {
        self.cursor(request, batch_rows, Some(mark))
    }

    /// The backing *collection*'s mutation counter
    /// ([`DocStore::collection_version`]): inserts into sibling collections
    /// of the same store never move it, so this wrapper's cached scans
    /// survive them.
    fn data_version(&self) -> u64 {
        self.store.collection_version(&self.collection)
    }

    /// Exact only when the wrapper's own pipeline cannot change the
    /// document count (`$project`-only): one output row per stored
    /// document. Pipelines with `$match`/`$limit` stages return `None` —
    /// an inexact hint could flip hint-driven join scheduling away from
    /// the eager build-side choice and perturb unfiltered row order.
    fn scan_hint(&self, _request: &ScanRequest) -> Option<u64> {
        if self.pipeline.preserves_doc_count() {
            self.store
                .collection_len(&self.collection)
                .ok()
                .map(|n| n as u64)
        } else {
            None
        }
    }

    /// Construction-time probe hash (claims never change at run time).
    fn claims_fingerprint(&self) -> u64 {
        self.claims_fp
    }

    /// Per-column sketches over the pipeline's *output* rows, caught up
    /// lazily whenever the backing collection's version has moved past the
    /// memoized snapshot: the builder folds in the documents appended since
    /// it last ran (O(appended)), and rebuilds from the first document only
    /// when the scan cannot resume — after a clear, under a `$limit`
    /// pipeline. Returns `None` when the collection mutates mid-scan rather
    /// than publish a snapshot whose rows straddle two versions; the
    /// builder and its mark stay consistent with each other either way, so
    /// the next call folds from where this one stopped.
    ///
    /// The scan runs outside the memoization lock and is single-flighted:
    /// while one thread catches up, others return `None` immediately
    /// (callers fall back to raw hints) instead of queueing behind it.
    fn column_stats(&self) -> Option<Arc<TableStats>> {
        let version = self.data_version();
        let folded = {
            let mut state = self.stats.lock();
            if let Some((cached_version, snapshot)) = state.cached.as_ref() {
                if *cached_version == version {
                    return Some(Arc::clone(snapshot));
                }
            }
            if state.rebuilding {
                return None;
            }
            state.rebuilding = true;
            state.folded.take()
        };
        let caught_up = self.fold_stats(folded);
        // The snapshot must describe exactly the rows of its version: no
        // write may have landed between the version read and the scan.
        let snapshot = caught_up
            .as_ref()
            .filter(|_| self.data_version() == version)
            .map(|(builder, _)| Arc::new(builder.snapshot(version)));
        let mut state = self.stats.lock();
        state.rebuilding = false;
        state.folded = caught_up.and_then(|(builder, mark)| Some((builder, mark?)));
        let snapshot = snapshot?;
        state.cached = Some((version, Arc::clone(&snapshot)));
        Some(snapshot)
    }
}

#[cfg(test)]
#[allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]
pub mod tests {
    use super::*;
    use bdi_docstore::{AggExpr, Projection};
    use serde_json::json;

    pub(crate) fn vod_store() -> DocStore {
        let store = DocStore::new();
        store
            .insert_many(
                "vod",
                vec![
                    json!({"monitorId": 12, "timestamp": 1475010424i64, "bitrate": 6, "waitTime": 3, "watchTime": 4}),
                    json!({"monitorId": 12, "waitTime": 9, "watchTime": 10}),
                    json!({"monitorId": 18, "waitTime": 1, "watchTime": 10}),
                ],
            )
            .unwrap();
        store
    }

    pub(crate) fn code2_wrapper(store: DocStore) -> JsonWrapper {
        JsonWrapper::new(
            "w1",
            "D1",
            Schema::from_parts(&["VoDmonitorId"], &["lagRatio"]).unwrap(),
            store,
            "vod",
            Pipeline::new().project(vec![
                Projection::field("VoDmonitorId", "monitorId"),
                Projection::computed(
                    "lagRatio",
                    AggExpr::divide(AggExpr::field("waitTime"), AggExpr::field("watchTime")),
                ),
            ]),
        )
        .unwrap()
    }

    /// Everything `scan_batches` streams for `request`, as a relation.
    fn scanned(w: &JsonWrapper, request: &ScanRequest) -> Relation {
        let (batches, _) = w.scan_batches(request, 2).unwrap();
        let rows = batches.flat_map(|b| b.unwrap()).collect();
        Relation::new(request.output().clone(), rows).unwrap()
    }

    #[test]
    fn scan_flattens_json_into_relation() {
        let w = code2_wrapper(vod_store());
        let rel = w.scan().unwrap();
        assert_eq!(rel.len(), 3);
        assert_eq!(rel.value(0, "VoDmonitorId"), Some(&Value::Int(12)));
        assert_eq!(rel.value(0, "lagRatio"), Some(&Value::Float(0.75)));
        assert_eq!(rel.value(2, "lagRatio"), Some(&Value::Float(0.1)));
    }

    #[test]
    fn missing_schema_attribute_in_pipeline_is_rejected() {
        let err = JsonWrapper::new(
            "w",
            "D",
            Schema::from_parts(&["id"], &["zz"]).unwrap(),
            vod_store(),
            "vod",
            Pipeline::new().project(vec![Projection::field("id", "monitorId")]),
        );
        assert!(matches!(err, Err(WrapperError::SourceQuery { .. })));
    }

    #[test]
    fn nested_values_are_a_wiring_error() {
        let store = DocStore::new();
        store.insert("c", json!({"nested": {"a": 1}})).unwrap();
        let w = JsonWrapper::new(
            "w",
            "D",
            Schema::from_parts::<&str>(&[], &["nested"]).unwrap(),
            store,
            "c",
            Pipeline::new().project(vec![Projection::field("nested", "nested")]),
        )
        .unwrap();
        assert!(matches!(
            w.scan(),
            Err(WrapperError::UnsupportedShape { .. })
        ));
    }

    #[test]
    fn predicate_pushdown_matches_reference_and_reconciles_numerics() {
        let store = vod_store();
        // A float-typed monitor id: relational equality is cross-type, so a
        // pushed Int(12) filter must match it through the $match stage.
        store
            .insert(
                "vod",
                json!({"monitorId": 12.0, "waitTime": 1, "watchTime": 2}),
            )
            .unwrap();
        let w = code2_wrapper(store);
        let eq = ScanRequest::new(
            vec!["lagRatio".into()],
            Schema::from_parts::<&str>(&[], &["D1/lagRatio"]).unwrap(),
        )
        .unwrap()
        .with_filter("VoDmonitorId", Value::Int(12));
        let native = scanned(&w, &eq);
        assert_eq!(native, eq.apply(&w.scan().unwrap()).unwrap());
        assert_eq!(native.len(), 3); // both Int(12) docs and the Float(12.0) doc

        let range = ScanRequest::full(w.schema())
            .with_predicate("lagRatio", Predicate::between(0.1, 0.8))
            .with_predicate(
                "VoDmonitorId",
                Predicate::in_set([Value::Int(12), Value::Int(18)]),
            );
        assert!(w.claims_filter(&range.filters()[0]));
        let native = scanned(&w, &range);
        assert_eq!(native, range.apply(&w.scan().unwrap()).unwrap());
    }

    #[test]
    fn nan_bounds_are_not_claimed_but_still_honoured() {
        let w = code2_wrapper(vod_store());
        // NaN has no JSON image: the wrapper declines the claim…
        let filter = ColumnFilter::new("lagRatio", Predicate::at_most(f64::NAN));
        assert!(!w.claims_filter(&filter));
        assert!(!w.claims_filter(&ColumnFilter::new(
            "lagRatio",
            Predicate::in_set([Value::Float(f64::NAN)])
        )));
        // …and unknown columns are never claimed.
        assert!(!w.claims_filter(&ColumnFilter::new("zz", Predicate::eq(1))));
        // Dotted column names are not $match-addressable after $project (a
        // $match would traverse the path while the projected doc holds the
        // literal key): declined, evaluated residually — and the residual
        // answer equals the reference.
        let store = DocStore::new();
        store
            .insert_many(
                "c",
                vec![
                    serde_json::json!({"a": {"b": 1}}),
                    serde_json::json!({"a": {"b": 2}}),
                ],
            )
            .unwrap();
        let dotted = JsonWrapper::new(
            "wd",
            "D",
            Schema::from_parts::<&str>(&[], &["a.b"]).unwrap(),
            store,
            "c",
            Pipeline::new().project(vec![Projection::field("a.b", "a.b")]),
        )
        .unwrap();
        let dotted_filter = ColumnFilter::new("a.b", Predicate::eq(1));
        assert!(!dotted.claims_filter(&dotted_filter));
        let dotted_request = ScanRequest::full(dotted.schema()).with_column_filter(dotted_filter);
        let dotted_native = scanned(&dotted, &dotted_request);
        assert_eq!(
            dotted_native,
            dotted_request.apply(&dotted.scan().unwrap()).unwrap()
        );
        assert_eq!(dotted_native.len(), 1);
        // …but a request carrying one anyway is evaluated residually, with
        // reference semantics (everything is ≤ NaN: it sorts greatest).
        let request = ScanRequest::full(w.schema()).with_column_filter(filter);
        let native = scanned(&w, &request);
        assert_eq!(native, request.apply(&w.scan().unwrap()).unwrap());
        assert_eq!(native.len(), 3);
    }

    #[test]
    fn store_mutations_bump_data_version() {
        let store = vod_store();
        let w = code2_wrapper(store.clone());
        let v0 = w.data_version();
        store
            .insert(
                "vod",
                json!({"monitorId": 7, "waitTime": 1, "watchTime": 2}),
            )
            .unwrap();
        assert!(w.data_version() > v0);
        let v1 = w.data_version();
        store.clear("vod");
        assert!(w.data_version() > v1);
    }

    #[test]
    fn new_source_documents_appear_on_next_scan() {
        let store = vod_store();
        let w = code2_wrapper(store.clone());
        assert_eq!(w.scan().unwrap().len(), 3);
        store
            .insert(
                "vod",
                json!({"monitorId": 20, "waitTime": 5, "watchTime": 8}),
            )
            .unwrap();
        assert_eq!(w.scan().unwrap().len(), 4);
    }

    #[test]
    fn a_scan_never_reads_past_the_extent_its_mark_promises() {
        // An insert landing after the cursor bounded itself but before its
        // first chunk must not ride along in that chunk: the mark says 3
        // documents were covered, and a resume yields the 4th exactly once.
        let store = vod_store();
        let w = code2_wrapper(store.clone());
        let request = ScanRequest::full(w.schema());
        let (batches, mark) = w.scan_batches(&request, 1024).unwrap();
        let mark = mark.expect("a narrowable request is marked");
        store
            .insert(
                "vod",
                json!({"monitorId": 7, "waitTime": 1, "watchTime": 2}),
            )
            .unwrap();
        let first: Vec<Tuple> = batches.flat_map(|b| b.unwrap()).collect();
        assert_eq!((first.len(), mark.consumed()), (3, 3));
        let (delta, _) = w.resume_batches(&request, 1024, &mark).unwrap().unwrap();
        let delta: Vec<Tuple> = delta.flat_map(|b| b.unwrap()).collect();
        assert_eq!(delta, vec![vec![Value::Int(7), Value::Float(0.5)]]);
    }

    #[test]
    fn unmarkable_dotted_columns_sketch_by_one_eager_aggregate() {
        let store = DocStore::new();
        store.insert("c", json!({"a": {"b": 1}})).unwrap();
        let dotted = JsonWrapper::new(
            "wd",
            "D",
            Schema::from_parts::<&str>(&[], &["a.b"]).unwrap(),
            store,
            "c",
            Pipeline::new().project(vec![Projection::field("a.b", "a.b")]),
        )
        .unwrap();
        assert_eq!(dotted.column_stats().unwrap().rows(), 1);
    }

    #[test]
    fn sketches_fold_appended_documents_and_rebuild_after_a_clear() {
        let store = vod_store();
        let w = code2_wrapper(store.clone());
        let from_scratch = |w: &JsonWrapper| {
            let mut builder = StatsBuilder::new(w.schema.names());
            for row in w.scan().unwrap().rows() {
                builder.observe_row(row);
            }
            builder.snapshot(w.data_version())
        };
        let agree = |w: &JsonWrapper| {
            let folded = w.column_stats().expect("no concurrent writer");
            let rebuilt = from_scratch(w);
            assert_eq!(folded.data_version(), rebuilt.data_version());
            assert_eq!(format!("{folded:?}"), format!("{rebuilt:?}"));
        };
        agree(&w);
        for i in 0..5 {
            store
                .insert(
                    "vod",
                    json!({"monitorId": (20 + i), "waitTime": i, "watchTime": 8}),
                )
                .unwrap();
            agree(&w);
            let folded_to = w.stats.lock().folded.as_ref().map(|(_, m)| *m);
            assert_eq!(folded_to.map(|m| m.consumed()), Some(4 + i as u64));
        }
        store.clear("vod");
        store
            .insert(
                "vod",
                json!({"monitorId": 1, "waitTime": 1, "watchTime": 4}),
            )
            .unwrap();
        agree(&w);
        assert_eq!(w.column_stats().unwrap().rows(), 1);
    }
}
