//! Deployment persistence.
//!
//! The paper's MDM persists its metadata in Jena TDB (§6.1). The equivalent
//! here: a [`SystemSnapshot`] captures a whole deployment — the ontology `T`
//! as TriG (all named graphs), every wrapper's serializable definition, the
//! backing document collections and the release log — as one JSON document
//! that restores to an equivalent, queryable [`BdiSystem`].
//!
//! One system type persists two ways. A `SystemSnapshot` is *portable*:
//! what `mdm snapshot` / `mdm load` exchange, holding only the deployment,
//! and it restores to a volatile system with fresh counters. A journaled
//! system's checkpoint wraps one in a `DurableImage` (see
//! [`crate::durable`]) with the WAL seq it covers and the counters
//! recovery restores bit-exact, so that image is private to its data
//! directory: loaded without its log, it would claim writes it cannot
//! replay.

use crate::ontology::BdiOntology;
use crate::system::{BdiSystem, ReleaseLogEntry};
use bdi_docstore::DocStore;
use bdi_rdf::trig;
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
/// ontology into a volatile system.
pub fn restore(image: &SystemSnapshot) -> Result<BdiSystem, SnapshotError> {
    let store = DocStore::new();
    store
        .restore(image.collections.clone())
        .map_err(|e| SnapshotError::Store(e.to_string()))?;

    let mut ontology = BdiOntology::new();
    for (p, n) in &image.prefixes {
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

    let mut system = BdiSystem::from_parts(ontology, registry).with_store(store);
    system.set_release_log(image.release_log.clone());
    Ok(system)
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
        let mut system = supersede::build_running_example();
        supersede::evolve_with_w4(&mut system);
        let original = system
            .serve(AnswerRequest::sparql(supersede::exemplary_query()))
            .unwrap();

        let image = snapshot(&system, system.store()).unwrap();
        let json = to_json(&image).unwrap();
        let parsed = from_json(&json).unwrap();
        let restored = restore(&parsed).unwrap();

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
        let mut system = supersede::build_running_example();
        supersede::evolve_with_w4(&mut system);
        let image = snapshot(&system, system.store()).unwrap();
        let restored = restore(&image).unwrap();

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
        let restored = restore(&image).unwrap();
        let entry = |seq, wrapper: &str| ReleaseLogEntry {
            seq,
            wrapper: wrapper.into(),
            source: "D1".into(),
        };
        assert_eq!(restored.release_log(), [entry(0, "w1"), entry(1, "w4")]);
    }

    /// A volatile system takes its writes through `apply`, validated as a
    /// journaled one's are, so an image of it restores.
    #[test]
    fn a_volatile_system_written_through_apply_snapshots_and_restores() {
        use crate::durable::Write;
        use bdi_rdf::model::{GraphName, Iri, Literal, Quad};
        let system = supersede::build_running_example();
        let quad = Quad::new(
            Iri::new(format!("{}lagRatio", supersede::SUP_NS)),
            Iri::new("http://example.org/p"),
            Literal::string("x"),
            GraphName::Default,
        );
        assert_eq!(system.apply(Write::InsertQuad(quad.clone())).unwrap(), 1);
        let doc =
            serde_json::json!({"monitorId": 12, "timestamp": 1, "waitTime": 2, "watchTime": 10});
        let vod = bdi_wrappers::supersede::VOD_COLLECTION;
        system.apply(Write::InsertDoc(vod.into(), doc)).unwrap();
        let not_an_object = Write::InsertDoc(vod.into(), serde_json::json!([1]));
        assert!(system.apply(not_an_object).is_err());
        let answer = |s: &BdiSystem| {
            s.serve(AnswerRequest::sparql(supersede::exemplary_query()))
                .unwrap()
                .relation
        };
        assert_eq!(answer(&system).len(), 4);

        let image = to_json(&snapshot(&system, system.store()).unwrap()).unwrap();
        let restored = restore(&from_json(&image).unwrap()).unwrap();
        assert!(restored.ontology().store().contains(&quad));
        assert_eq!(answer(&restored), answer(&system));
    }

    #[test]
    fn snapshot_preserves_ontology_size_exactly() {
        let system = supersede::build_running_example();
        let image = snapshot(&system, system.store()).unwrap();
        let restored = restore(&image).unwrap();
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
