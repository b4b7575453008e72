//! Named collections of JSON documents and the store holding them.

use crate::pipeline::{Pipeline, PipelineError};
use parking_lot::RwLock;
use serde_json::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Errors raised by store operations.
#[derive(Debug, Clone, PartialEq, Eq, thiserror::Error)]
pub enum StoreError {
    #[error("unknown collection: {0}")]
    UnknownCollection(String),
    #[error(transparent)]
    Pipeline(#[from] PipelineError),
    #[error("document must be a JSON object, got {0}")]
    NotAnObject(String),
}

/// A single collection: an append-ordered list of JSON objects, carrying
/// its own monotonic data-generation counter.
#[derive(Debug, Default, Clone)]
pub(crate) struct Collection {
    docs: Vec<Value>,
    /// Bumped by every write access to *this* collection (insert attempts,
    /// clears) — the per-collection granularity wrapper scan caches key on,
    /// so mutating one collection never invalidates siblings' cached scans.
    version: u64,
    /// Bumped only when documents are *removed* ([`DocStore::clear`], hence
    /// [`DocStore::restore`]). Within one epoch the collection is
    /// append-only: documents `[0, n)` observed at some point are still
    /// documents `[0, n)` later, which is what lets a consumer resume a
    /// scan from `n` instead of re-reading from 0.
    epoch: u64,
}

impl Collection {
    /// This collection's data-generation counter.
    pub(crate) fn version(&self) -> u64 {
        self.version
    }

    /// Inserts one document (must be a JSON object). The version bumps on
    /// every attempt, success or not — a rejected document proves a writer
    /// touched the collection, and a spurious bump only costs a cache
    /// re-scan, never correctness.
    pub(crate) fn insert(&mut self, doc: Value) -> Result<(), StoreError> {
        self.version += 1;
        if !doc.is_object() {
            return Err(StoreError::NotAnObject(doc.to_string()));
        }
        self.docs.push(doc);
        Ok(())
    }

    pub(crate) fn len(&self) -> usize {
        self.docs.len()
    }

    /// Runs an aggregation pipeline over the collection.
    pub(crate) fn aggregate(&self, pipeline: &Pipeline) -> Result<Vec<Value>, PipelineError> {
        pipeline.run(self.docs.iter())
    }
}

/// A thread-safe multi-collection document store — the data substrate that
/// stands in for the paper's REST/JSON sources plus their MongoDB-style
/// wrapper query engine.
#[derive(Debug, Default, Clone)]
pub struct DocStore {
    collections: Arc<RwLock<BTreeMap<String, Collection>>>,
    /// Bumped by every mutation ([`DocStore::insert`],
    /// [`DocStore::insert_many`], [`DocStore::clear`], [`DocStore::restore`]) —
    /// shared by clones, surfaced as [`DocStore::data_version`] so wrappers
    /// over this store can stamp their scans.
    version: Arc<AtomicU64>,
}

impl DocStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Monotonic *store-wide* data-generation counter: any value change
    /// means some collection's documents changed since the smaller value
    /// was observed. This is the summed coarse stamp for consumers that
    /// watch the whole store; wrappers over a single collection key their
    /// scan caches on the finer [`DocStore::collection_version`] instead,
    /// so one collection's inserts never invalidate siblings' cached scans.
    pub fn data_version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Monotonic data-generation counter of one collection (`0` if and
    /// only if it does not exist yet — creation always bumps, even through
    /// an empty [`DocStore::insert_many`]). Mutations to *other*
    /// collections never move it.
    pub fn collection_version(&self, collection: &str) -> u64 {
        self.collections
            .read()
            .get(collection)
            .map(Collection::version)
            .unwrap_or(0)
    }

    fn bump_version(&self) {
        self.version.fetch_add(1, Ordering::Release);
    }

    /// Every collection's data-generation counter, keyed by name — the
    /// persistence image of the fine-grained cache stamps.
    pub fn collection_versions(&self) -> BTreeMap<String, u64> {
        self.collections
            .read()
            .iter()
            .map(|(name, coll)| (name.clone(), coll.version))
            .collect()
    }

    /// Overwrites one collection's data-generation counter — recovery
    /// only. Creates the collection (empty) if absent, so a restored
    /// counter is never silently attached to nothing. Without this, a
    /// rebooted store would restart every counter near 0 and a scan cached
    /// before the restart could validate against different post-restart
    /// contents.
    pub fn restore_collection_version(&self, collection: &str, version: u64) {
        let mut guard = self.collections.write();
        guard.entry(collection.to_owned()).or_default().version = version;
    }

    /// Overwrites the store-wide data-generation counter — recovery only
    /// (see [`DocStore::restore_collection_version`]).
    pub fn restore_data_version(&self, version: u64) {
        self.version.store(version, Ordering::Release);
    }

    /// Inserts a document, creating the collection if needed.
    pub fn insert(&self, collection: &str, doc: Value) -> Result<(), StoreError> {
        let mut guard = self.collections.write();
        let result = guard.entry(collection.to_owned()).or_default().insert(doc);
        drop(guard);
        // Bump on every write access, success or not: a rejected document
        // may still have created its (empty) collection, and a spurious
        // bump only costs a cache re-scan, never correctness.
        self.bump_version();
        result
    }

    /// Inserts many documents. On a rejected document the preceding ones
    /// stay inserted (append semantics), and the version still bumps.
    pub fn insert_many<I: IntoIterator<Item = Value>>(
        &self,
        collection: &str,
        docs: I,
    ) -> Result<usize, StoreError> {
        let mut guard = self.collections.write();
        let coll = guard.entry(collection.to_owned()).or_default();
        // Bump once for the call itself, beyond the per-document bumps: an
        // *empty* insert_many still creates the collection, and its version
        // must leave 0 — the value reserved for "does not exist" — or a
        // consumer that cached a scan error at version 0 would keep serving
        // it after the collection exists.
        coll.version += 1;
        let mut n = 0;
        let mut result = Ok(());
        for doc in docs {
            if let Err(e) = coll.insert(doc) {
                result = Err(e);
                break;
            }
            n += 1;
        }
        drop(guard);
        self.bump_version();
        result.map(|()| n)
    }

    /// Runs a pipeline against a collection (`db.getCollection(name)
    /// .aggregate([...])` in the paper's Code 2).
    pub fn aggregate(
        &self,
        collection: &str,
        pipeline: &Pipeline,
    ) -> Result<Vec<Value>, StoreError> {
        let guard = self.collections.read();
        let coll = guard
            .get(collection)
            .ok_or_else(|| StoreError::UnknownCollection(collection.to_owned()))?;
        // analyze: allow(lock_hold, the pipeline borrows documents from this read guard; writers wait only for the aggregation itself)
        Ok(coll.aggregate(pipeline)?)
    }

    /// Number of documents in a collection (0 if absent).
    pub fn count(&self, collection: &str) -> usize {
        self.collections
            .read()
            .get(collection)
            .map(Collection::len)
            .unwrap_or(0)
    }

    /// Number of documents in a collection, erring when it does not exist —
    /// the existence-checking entry point chunked scans start from.
    pub fn collection_len(&self, collection: &str) -> Result<usize, StoreError> {
        self.collections
            .read()
            .get(collection)
            .map(Collection::len)
            .ok_or_else(|| StoreError::UnknownCollection(collection.to_owned()))
    }

    /// A collection's `(epoch, length)` under one read lock, erring when it
    /// does not exist — what a resumable scan bounds itself to at start and
    /// hands back as its mark: a later scan may resume from `length` iff
    /// the epoch is unchanged (no [`DocStore::clear`] in between), since
    /// within an epoch documents are only ever appended.
    pub fn collection_extent(&self, collection: &str) -> Result<(u64, usize), StoreError> {
        self.collections
            .read()
            .get(collection)
            .map(|coll| (coll.epoch, coll.docs.len()))
            .ok_or_else(|| StoreError::UnknownCollection(collection.to_owned()))
    }

    /// Clones documents `[start, start + max)` of a collection — one short
    /// read-lock hold per chunk, so batch-at-a-time consumers (wrapper
    /// streaming scans) never block writers for the duration of a full
    /// scan. Ranges past the current end are clamped; an absent collection
    /// errs.
    pub fn docs_chunk(
        &self,
        collection: &str,
        start: usize,
        max: usize,
    ) -> Result<Vec<Value>, StoreError> {
        let guard = self.collections.read();
        let coll = guard
            .get(collection)
            .ok_or_else(|| StoreError::UnknownCollection(collection.to_owned()))?;
        let end = coll.docs.len().min(start.saturating_add(max));
        Ok(coll.docs.get(start..end).unwrap_or(&[]).to_vec())
    }

    /// Dumps every collection's documents — the persistence image.
    pub fn dump(&self) -> BTreeMap<String, Vec<Value>> {
        self.collections
            .read()
            .iter()
            .map(|(name, coll)| (name.clone(), coll.docs.clone()))
            .collect()
    }

    /// Restores collections from a [`DocStore::dump`] image, replacing any
    /// same-named collections.
    pub fn restore(&self, image: BTreeMap<String, Vec<Value>>) -> Result<usize, StoreError> {
        let mut n = 0;
        for (name, docs) in image {
            self.clear(&name);
            n += self.insert_many(&name, docs)?;
        }
        Ok(n)
    }

    /// Removes all documents of a collection, returning how many there were.
    pub fn clear(&self, collection: &str) -> usize {
        let mut guard = self.collections.write();
        let n = match guard.get_mut(collection) {
            Some(coll) => {
                coll.version += 1;
                coll.epoch += 1;
                std::mem::take(&mut coll.docs).len()
            }
            None => 0,
        };
        drop(guard);
        self.bump_version();
        n
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
    use crate::pipeline::{AggExpr, Projection};
    use serde_json::json;

    #[test]
    fn insert_and_count() {
        let store = DocStore::new();
        store.insert("vod", json!({"monitorId": 12})).unwrap();
        store.insert("vod", json!({"monitorId": 18})).unwrap();
        assert_eq!(store.count("vod"), 2);
        assert_eq!(store.count("absent"), 0);
    }

    #[test]
    fn non_object_documents_are_rejected() {
        let store = DocStore::new();
        assert!(matches!(
            store.insert("vod", json!([1, 2])),
            Err(StoreError::NotAnObject(_))
        ));
    }

    #[test]
    fn aggregate_against_named_collection() {
        let store = DocStore::new();
        store
            .insert_many(
                "vod",
                vec![
                    json!({"monitorId": 12, "waitTime": 3, "watchTime": 4}),
                    json!({"monitorId": 18, "waitTime": 1, "watchTime": 10}),
                ],
            )
            .unwrap();
        let p = Pipeline::new().project(vec![
            Projection::field("VoDmonitorId", "monitorId"),
            Projection::computed(
                "lagRatio",
                AggExpr::divide(AggExpr::field("waitTime"), AggExpr::field("watchTime")),
            ),
        ]);
        let out = store.aggregate("vod", &p).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[1], json!({"VoDmonitorId": 18, "lagRatio": 0.1}));
    }

    #[test]
    fn unknown_collection_is_an_error() {
        let store = DocStore::new();
        let err = store.aggregate("zz", &Pipeline::new()).unwrap_err();
        assert!(matches!(err, StoreError::UnknownCollection(_)));
    }

    #[test]
    fn clear_empties_collection() {
        let store = DocStore::new();
        store.insert("c", json!({"a": 1})).unwrap();
        assert_eq!(store.clear("c"), 1);
        assert_eq!(store.count("c"), 0);
        assert_eq!(store.clear("absent"), 0);
    }

    #[test]
    fn dump_restore_round_trips() {
        let store = DocStore::new();
        store.insert("a", json!({"x": 1})).unwrap();
        store.insert("b", json!({"y": [1, 2]})).unwrap();
        let image = store.dump();

        let fresh = DocStore::new();
        fresh.insert("a", json!({"stale": true})).unwrap();
        let n = fresh.restore(image).unwrap();
        assert_eq!(n, 2);
        assert_eq!(fresh.count("a"), 1);
        assert_eq!(
            fresh.aggregate("b", &Pipeline::new()).unwrap()[0],
            json!({"y": [1, 2]})
        );
    }

    #[test]
    fn clone_shares_underlying_data() {
        let store = DocStore::new();
        let view = store.clone();
        store.insert("c", json!({"a": 1})).unwrap();
        assert_eq!(view.count("c"), 1);
    }

    #[test]
    fn mutations_bump_the_shared_data_version() {
        let store = DocStore::new();
        let view = store.clone();
        let v0 = store.data_version();
        store.insert("c", json!({"a": 1})).unwrap();
        let v1 = view.data_version(); // clones share the counter
        assert!(v1 > v0);
        store
            .insert_many("c", vec![json!({"a": 2}), json!({"a": 3})])
            .unwrap();
        let v2 = store.data_version();
        assert!(v2 > v1);
        store.clear("c");
        assert!(store.data_version() > v2);
        // Reads don't bump.
        let v3 = store.data_version();
        let _ = store.count("c");
        let _ = store.docs_chunk("c", 0, 10);
        assert_eq!(store.data_version(), v3);
    }

    #[test]
    fn collection_versions_are_independent() {
        let store = DocStore::new();
        assert_eq!(store.collection_version("a"), 0);
        store.insert("a", json!({"x": 1})).unwrap();
        store.insert("b", json!({"y": 1})).unwrap();
        let (a1, b1) = (store.collection_version("a"), store.collection_version("b"));
        assert!(a1 > 0 && b1 > 0);
        // Mutating `b` moves only `b`'s counter — `a`'s cached scans stay
        // keyed valid — while the store-wide stamp still observes it.
        let store_wide = store.data_version();
        store.insert("b", json!({"y": 2})).unwrap();
        assert_eq!(store.collection_version("a"), a1);
        assert!(store.collection_version("b") > b1);
        assert!(store.data_version() > store_wide);
        // Clears and rejected inserts also count as writes to their target.
        store.clear("b");
        assert!(store.collection_version("b") > b1 + 1);
        let b3 = store.collection_version("b");
        let _ = store.insert("b", json!([1]));
        assert!(store.collection_version("b") > b3);
        assert_eq!(store.collection_version("a"), a1);
    }

    #[test]
    fn empty_insert_many_still_creates_at_a_nonzero_version() {
        // Version 0 is reserved for "does not exist": a consumer that
        // cached an unknown-collection outcome at version 0 must see a new
        // version once the collection exists, even created empty.
        let store = DocStore::new();
        assert_eq!(store.collection_version("c"), 0);
        store.insert_many("c", Vec::new()).unwrap();
        assert!(store.collection_version("c") > 0);
        assert_eq!(store.count("c"), 0);
    }

    #[test]
    fn epoch_moves_only_when_documents_are_removed() {
        let store = DocStore::new();
        assert!(store.collection_extent("c").is_err());
        store.insert("c", json!({"a": 1})).unwrap();
        let (epoch, len) = store.collection_extent("c").unwrap();
        assert_eq!(len, 1);
        // Appends (accepted or rejected) keep the epoch: the prefix a
        // reader saw is still the prefix.
        store.insert("c", json!({"a": 2})).unwrap();
        let _ = store.insert("c", json!([1]));
        store.insert_many("c", vec![json!({"a": 3})]).unwrap();
        assert_eq!(store.collection_extent("c").unwrap(), (epoch, 3));
        // A clear — and therefore a restore — starts a new epoch, even when
        // the refill reaches the old length again.
        store.clear("c");
        let (cleared, len) = store.collection_extent("c").unwrap();
        assert!(cleared > epoch);
        assert_eq!(len, 0);
        let image = store.dump();
        store.restore(image).unwrap();
        assert!(store.collection_extent("c").unwrap().0 > cleared);
        // Siblings are untouched.
        store.insert("d", json!({"a": 1})).unwrap();
        let d = store.collection_extent("d").unwrap();
        store.clear("c");
        assert_eq!(store.collection_extent("d").unwrap(), d);
    }

    #[test]
    fn docs_chunk_reads_windows_and_checks_existence() {
        let store = DocStore::new();
        store
            .insert_many("c", (0..5).map(|i| json!({"a": i})).collect::<Vec<_>>())
            .unwrap();
        assert_eq!(store.collection_len("c").unwrap(), 5);
        assert!(matches!(
            store.collection_len("zz"),
            Err(StoreError::UnknownCollection(_))
        ));
        assert_eq!(
            store.docs_chunk("c", 0, 2).unwrap(),
            vec![json!({"a": 0}), json!({"a": 1})]
        );
        assert_eq!(store.docs_chunk("c", 4, 10).unwrap(), vec![json!({"a": 4})]);
        assert!(store.docs_chunk("c", 9, 2).unwrap().is_empty());
        assert!(store.docs_chunk("zz", 0, 1).is_err());
    }
}
