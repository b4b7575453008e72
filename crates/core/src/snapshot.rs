//! Deployment persistence.
//!
//! The paper's MDM persists its metadata in Jena TDB (§6.1). The equivalent
//! here: a [`SystemSnapshot`] captures a whole deployment — the ontology `T`
//! as TriG (all named graphs), every wrapper's serializable definition, the
//! backing document collections and the release log — as one JSON document
//! that restores to an equivalent, queryable [`BdiSystem`].
//!
//! There are two persisted types, on purpose. `SystemSnapshot` is the
//! *portable* one: what `mdm snapshot` / `mdm load` exchange between
//! machines, holding nothing but the deployment. A
//! `DurableImage` (in [`crate::durable`]) wraps one and adds what only makes
//! sense next to the write-ahead log it was checkpointed beside — the WAL
//! seq it covers and the cache-validity counters recovery restores
//! bit-exact — so it is private to its data directory and is never the
//! exchange format: a restored `SystemSnapshot` starts its counters afresh,
//! an image loaded without its log would claim writes it cannot replay.

use crate::ontology::BdiOntology;
use crate::system::{BdiSystem, ReleaseLogEntry};
use bdi_docstore::DocStore;
use bdi_rdf::trig;
use bdi_rdf::turtle::PrefixMap;
use bdi_wrappers::{WrapperRegistry, WrapperSpec};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Errors raised while snapshotting or restoring.
#[derive(Debug, Clone, PartialEq, Eq, thiserror::Error)]
pub enum SnapshotError {
    #[error("wrapper {0} has no serializable definition; snapshot unsupported for its kind")]
    UnsupportedWrapper(String),
    #[error("cannot capture wrapper data: {0}")]
    Capture(String),
    #[error("TriG error: {0}")]
    Trig(String),
    #[error("JSON error: {0}")]
    Json(String),
    #[error("wrapper {0} failed to instantiate: {1}")]
    Instantiate(String, String),
    #[error("document store error: {0}")]
    Store(String),
}

/// A complete, self-contained deployment image.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SystemSnapshot {
    /// The ontology `T` — all graphs — as TriG.
    pub ontology_trig: String,
    /// Registered prefixes (`prefix → namespace`).
    pub prefixes: BTreeMap<String, String>,
    /// Every wrapper's definition, in registry order.
    pub wrappers: Vec<WrapperSpec>,
    /// Document collections backing the JSON wrappers.
    pub collections: BTreeMap<String, Vec<serde_json::Value>>,
    /// The release log (registration order).
    pub release_log: Vec<ReleaseLogEntry>,
}

/// Captures a snapshot of a system. Fails when any wrapper kind is not
/// serializable (custom `Wrapper` impls without `to_spec`).
pub fn snapshot(system: &BdiSystem, store: &DocStore) -> Result<SystemSnapshot, SnapshotError> {
    let mut wrappers = Vec::new();
    for wrapper in system.registry().iter() {
        let spec = wrapper
            .to_spec()
            .map_err(|e| SnapshotError::Capture(e.to_string()))?
            .ok_or_else(|| SnapshotError::UnsupportedWrapper(wrapper.name().to_owned()))?;
        wrappers.push(spec);
    }
    Ok(SystemSnapshot {
        ontology_trig: trig::write_trig(
            &system.ontology().store().quads(),
            system.ontology().prefixes(),
        ),
        prefixes: system
            .ontology()
            .prefixes()
            .iter()
            .map(|(p, n)| (p.to_owned(), n.to_owned()))
            .collect(),
        wrappers,
        collections: store.dump(),
        release_log: system.release_log().to_vec(),
    })
}

/// Restores a deployment: rebuilds the document store, the wrappers and the
/// ontology, returning `(system, store)`.
pub fn restore(image: &SystemSnapshot) -> Result<(BdiSystem, DocStore), SnapshotError> {
    let store = DocStore::new();
    store
        .restore(image.collections.clone())
        .map_err(|e| SnapshotError::Store(e.to_string()))?;

    let mut ontology = BdiOntology::new();
    let mut prefixes = PrefixMap::new();
    for (p, n) in &image.prefixes {
        prefixes.insert(p.clone(), n.clone());
        ontology.prefixes_mut().insert(p.clone(), n.clone());
    }
    trig::load_trig(ontology.store(), &image.ontology_trig)
        .map_err(|e| SnapshotError::Trig(e.to_string()))?;

    let mut registry = WrapperRegistry::new();
    for spec in &image.wrappers {
        let wrapper = spec
            .instantiate(&store)
            .map_err(|e| SnapshotError::Instantiate(spec.name().to_owned(), e.to_string()))?;
        registry.register(wrapper);
    }

    let mut system = BdiSystem::from_parts(ontology, registry);
    system.set_release_log(image.release_log.clone());
    Ok((system, store))
}

/// Serializes a snapshot as pretty JSON.
pub fn to_json(image: &SystemSnapshot) -> Result<String, SnapshotError> {
    serde_json::to_string_pretty(image).map_err(|e| SnapshotError::Json(e.to_string()))
}

/// Parses a snapshot from JSON.
pub fn from_json(json: &str) -> Result<SystemSnapshot, SnapshotError> {
    serde_json::from_str(json).map_err(|e| SnapshotError::Json(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supersede;
    use crate::system::AnswerRequest;

    #[test]
    fn snapshot_restore_preserves_query_answers() {
        let (mut system, store) = supersede::build_running_example_with_store();
        supersede::evolve_with_w4(&mut system, &store);
        let original = system
            .serve(AnswerRequest::sparql(supersede::exemplary_query()))
            .unwrap();

        let image = snapshot(&system, &store).unwrap();
        let json = to_json(&image).unwrap();
        let parsed = from_json(&json).unwrap();
        let (restored, _) = restore(&parsed).unwrap();

        let replayed = restored
            .serve(AnswerRequest::sparql(supersede::exemplary_query()))
            .unwrap();
        assert_eq!(replayed.relation, original.relation);
        assert_eq!(
            replayed.rewriting.walks.len(),
            original.rewriting.walks.len()
        );
    }

    #[test]
    fn snapshot_preserves_the_release_log_and_scopes() {
        use crate::system::VersionScope;
        let (mut system, store) = supersede::build_running_example_with_store();
        supersede::evolve_with_w4(&mut system, &store);
        let image = snapshot(&system, &store).unwrap();
        let (restored, _) = restore(&image).unwrap();

        assert_eq!(restored.release_log().len(), 4);
        let historical = restored
            .serve(
                AnswerRequest::omq(supersede::exemplary_omq()).scope(VersionScope::UpToRelease(2)),
            )
            .unwrap();
        assert_eq!(historical.relation.len(), 3); // pre-evolution Table 2
    }

    /// An image written before `ReleaseLogEntry` was the serialized type
    /// (by `to_json` at the parent commit): it still parses, restores its
    /// log, and re-encodes byte for byte.
    #[test]
    fn a_pre_change_image_still_restores() {
        const IMAGE: &str = r#"{
  "collections": {},
  "ontology_trig": "",
  "prefixes": {},
  "release_log": [
    {
      "seq": 0,
      "source": "D1",
      "wrapper": "w1"
    },
    {
      "seq": 1,
      "source": "D1",
      "wrapper": "w4"
    }
  ],
  "wrappers": []
}"#;
        let image = from_json(IMAGE).unwrap();
        assert_eq!(to_json(&image).unwrap(), IMAGE);
        let (restored, _) = restore(&image).unwrap();
        let entry = |seq, wrapper: &str| ReleaseLogEntry {
            seq,
            wrapper: wrapper.into(),
            source: "D1".into(),
        };
        assert_eq!(restored.release_log(), [entry(0, "w1"), entry(1, "w4")]);
    }

    #[test]
    fn snapshot_preserves_ontology_size_exactly() {
        let (system, store) = supersede::build_running_example_with_store();
        let image = snapshot(&system, &store).unwrap();
        let (restored, _) = restore(&image).unwrap();
        assert_eq!(
            restored.ontology().store().len(),
            system.ontology().store().len()
        );
        assert_eq!(
            restored.ontology().source_graph_len(),
            system.ontology().source_graph_len()
        );
    }
}
