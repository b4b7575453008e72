//! Releases and Algorithm 1 (`NewRelease`) — §4.
//!
//! A **release** `R = ⟨w, G, F⟩` announces a new wrapper `w` (a new schema
//! version of some source), the subgraph `G` of the Global graph the wrapper
//! contributes to (its LAV mapping), and the function `F` mapping each of the
//! wrapper's attributes to a feature. The data steward creates releases;
//! `apply_release` adapts the ontology `T` — nothing else in the system
//! (in particular no analyst query) has to change.

use crate::ontology::BdiOntology;
use crate::vocab;
use bdi_rdf::model::{GraphName, Iri, Subject, Term, Triple};
use bdi_rdf::vocab::{owl, rdf};
use bdi_wrappers::{Wrapper, WrapperRegistry};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Errors raised when validating or applying a release.
#[derive(Debug, Clone, PartialEq, Eq, thiserror::Error)]
pub enum ReleaseError {
    #[error("attribute {0} of wrapper {1} has no feature mapping in F")]
    UnmappedAttribute(String, String),
    #[error("F maps unknown attribute {0} (not in wrapper {1}'s schema)")]
    UnknownAttribute(String, String),
    #[error("feature {0} (mapped by F) is not a G:Feature in the Global graph")]
    UnknownFeature(String),
    #[error("feature {0} (mapped by F) does not appear in the release's LAV subgraph")]
    FeatureNotInLavGraph(String),
    #[error("LAV triple `{0}` is not present in the Global graph; a wrapper's mapping must be a subgraph of G")]
    LavTripleNotInG(String),
    #[error("wrapper {0} is already registered; a release must announce a new wrapper")]
    WrapperExists(String),
}

/// A release `R = ⟨w, G, F⟩`.
pub struct Release {
    /// The new wrapper (`R.w`).
    pub wrapper: Arc<dyn Wrapper>,
    /// The LAV subgraph of the Global graph (`R.G`).
    pub lav_graph: Vec<Triple>,
    /// The attribute → feature function (`R.F`), keyed by the wrapper's
    /// *local* attribute names.
    pub mappings: BTreeMap<String, Iri>,
}

impl Release {
    pub fn new(
        wrapper: Arc<dyn Wrapper>,
        lav_graph: Vec<Triple>,
        mappings: BTreeMap<String, Iri>,
    ) -> Self {
        Self {
            wrapper,
            lav_graph,
            mappings,
        }
    }
}

/// What Algorithm 1 did — the measurements Figure 11 is built from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReleaseStats {
    pub wrapper: String,
    pub source: String,
    /// Whether a new `S:DataSource` node was created.
    pub new_source: bool,
    /// Triples added to the Source graph `S`.
    pub source_triples_added: usize,
    /// Triples added to the Mapping graph `M` plus the wrapper's LAV named
    /// graph.
    pub mapping_triples_added: usize,
    /// Attributes newly created in `S`.
    pub attributes_created: usize,
    /// Attributes reused from earlier versions of the same source.
    pub attributes_reused: usize,
}

/// Validates a release against the current ontology and registry without
/// applying it.
pub(crate) fn validate_release(
    ontology: &BdiOntology,
    registry: &WrapperRegistry,
    release: &Release,
) -> Result<(), ReleaseError> {
    let wrapper_name = release.wrapper.name();
    let schema = release.wrapper.schema();

    // A wrapper name always denotes one wrapper: replacing it would change
    // what the name's walks and cached scans read at an unchanged data
    // version.
    if registry.contains(wrapper_name) || ontology.is_wrapper(&vocab::wrapper_uri(wrapper_name)) {
        return Err(ReleaseError::WrapperExists(wrapper_name.to_owned()));
    }

    // F must be total on the wrapper's attributes and only mention them.
    for attr in schema.names() {
        if !release.mappings.contains_key(attr) {
            return Err(ReleaseError::UnmappedAttribute(
                attr.to_owned(),
                wrapper_name.to_owned(),
            ));
        }
    }
    for attr in release.mappings.keys() {
        if schema.index_of(attr).is_none() {
            return Err(ReleaseError::UnknownAttribute(
                attr.clone(),
                wrapper_name.to_owned(),
            ));
        }
    }

    // Every mapped feature must be a feature of G and a vertex of R.G.
    for feature in release.mappings.values() {
        if !ontology.is_feature(feature) {
            return Err(ReleaseError::UnknownFeature(feature.as_str().to_owned()));
        }
        let in_lav = release.lav_graph.iter().any(|t| {
            t.subject == Subject::Iri(feature.clone()) || t.object == Term::Iri(feature.clone())
        });
        if !in_lav {
            return Err(ReleaseError::FeatureNotInLavGraph(
                feature.as_str().to_owned(),
            ));
        }
    }

    // The LAV graph must be a subgraph of G.
    for triple in &release.lav_graph {
        let quad = bdi_rdf::model::Quad {
            subject: triple.subject.clone(),
            predicate: triple.predicate.clone(),
            object: triple.object.clone(),
            graph: vocab::graphs::global(),
        };
        if !ontology.store().contains(&quad) {
            return Err(ReleaseError::LavTripleNotInG(triple.to_string()));
        }
    }
    Ok(())
}

/// Algorithm 1 — adapts `T` to a new release and registers the wrapper.
///
/// Follows the paper line by line: register the data source if new (l. 3–5),
/// register the wrapper and link it (l. 6–8), register each attribute —
/// reusing URIs within the same source (l. 9–15), record the LAV named graph
/// in `M` (l. 16) and serialize `F` as `owl:sameAs` links (l. 17–21).
/// Complexity is linear in `|R|`.
pub(crate) fn apply_release(
    ontology: &BdiOntology,
    registry: &mut WrapperRegistry,
    release: Release,
) -> Result<ReleaseStats, ReleaseError> {
    validate_release(ontology, registry, &release)?;

    let store = ontology.store();
    let s_graph = vocab::graphs::source();
    let m_graph = vocab::graphs::mapping();

    let source = release.wrapper.source().to_owned();
    let wrapper_name = release.wrapper.name().to_owned();
    let source_uri = vocab::data_source_uri(&source);
    let wrapper_uri = vocab::wrapper_uri(&wrapper_name);

    let mut source_triples_added = 0;
    let mut mapping_triples_added = 0;

    // Lines 2–5: register the data source if it is new.
    let new_source = !ontology.is_data_source(&source_uri);
    if new_source && store.insert_in(&s_graph, &source_uri, &*rdf::TYPE, &*vocab::s::DATA_SOURCE) {
        source_triples_added += 1;
    }

    // Lines 6–8: register the wrapper and link it to the source.
    if store.insert_in(&s_graph, &wrapper_uri, &*rdf::TYPE, &*vocab::s::WRAPPER) {
        source_triples_added += 1;
    }
    if store.insert_in(&s_graph, &source_uri, &*vocab::s::HAS_WRAPPER, &wrapper_uri) {
        source_triples_added += 1;
    }

    // Lines 9–15: register attributes, reusing within the source.
    let mut attributes_created = 0;
    let mut attributes_reused = 0;
    for attr in release.wrapper.schema().names() {
        let attr_uri = vocab::attribute_uri(&source, attr);
        let exists = store.contains(&bdi_rdf::model::Quad::new(
            attr_uri.clone(),
            (*rdf::TYPE).clone(),
            (*vocab::s::ATTRIBUTE).clone(),
            s_graph.clone(),
        ));
        if exists {
            attributes_reused += 1;
        } else {
            store.insert_in(&s_graph, &attr_uri, &*rdf::TYPE, &*vocab::s::ATTRIBUTE);
            source_triples_added += 1;
            attributes_created += 1;
        }
        if store.insert_in(&s_graph, &wrapper_uri, &*vocab::s::HAS_ATTRIBUTE, &attr_uri) {
            source_triples_added += 1;
        }
    }

    // Line 16: record the LAV mapping — the named graph (identified by the
    // wrapper URI) holding the subgraph of G, plus the M:mapping triple.
    let lav_graph_name = GraphName::Named(wrapper_uri.clone());
    for triple in &release.lav_graph {
        if store.insert_in(
            &lav_graph_name,
            triple.subject.clone(),
            triple.predicate.clone(),
            triple.object.clone(),
        ) {
            mapping_triples_added += 1;
        }
    }
    if store.insert_in(&m_graph, &wrapper_uri, &*vocab::m::MAPPING, &wrapper_uri) {
        mapping_triples_added += 1;
    }

    // Lines 17–21: serialize F as owl:sameAs links in M.
    for (attr, feature) in &release.mappings {
        let attr_uri = vocab::attribute_uri(&source, attr);
        if store.insert_in(&m_graph, &attr_uri, &*owl::SAME_AS, feature) {
            mapping_triples_added += 1;
        }
    }

    registry.register(Arc::clone(&release.wrapper));

    Ok(ReleaseStats {
        wrapper: wrapper_name,
        source,
        new_source,
        source_triples_added,
        mapping_triples_added,
        attributes_created,
        attributes_reused,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdi_relational::{Schema, Value};
    use bdi_wrappers::TableWrapper;

    fn iri(s: &str) -> Iri {
        Iri::new(format!("http://e/{s}"))
    }

    fn ontology() -> BdiOntology {
        let o = BdiOntology::new();
        o.add_concept(&iri("Monitor"));
        o.add_id_feature(&iri("monitorId"));
        o.attach_feature(&iri("Monitor"), &iri("monitorId"))
            .unwrap();
        o.add_feature(&iri("lagRatio"));
        o.add_concept(&iri("InfoMonitor"));
        o.attach_feature(&iri("InfoMonitor"), &iri("lagRatio"))
            .unwrap();
        o.add_object_property(&iri("generatesQoS"), &iri("Monitor"), &iri("InfoMonitor"))
            .unwrap();
        o
    }

    fn lav_graph() -> Vec<Triple> {
        vec![
            Triple::new(
                iri("Monitor"),
                (*vocab::g::HAS_FEATURE).clone(),
                iri("monitorId"),
            ),
            Triple::new(iri("Monitor"), iri("generatesQoS"), iri("InfoMonitor")),
            Triple::new(
                iri("InfoMonitor"),
                (*vocab::g::HAS_FEATURE).clone(),
                iri("lagRatio"),
            ),
        ]
    }

    fn wrapper(name: &str, attrs: (&str, &str)) -> Arc<dyn Wrapper> {
        Arc::new(
            TableWrapper::new(
                name,
                "D1",
                Schema::from_parts(&[attrs.0], &[attrs.1]).unwrap(),
                vec![vec![Value::Int(12), Value::Float(0.75)]],
            )
            .unwrap(),
        )
    }

    fn release(name: &str, ratio_attr: &str) -> Release {
        Release::new(
            wrapper(name, ("VoDmonitorId", ratio_attr)),
            lav_graph(),
            BTreeMap::from([
                ("VoDmonitorId".to_owned(), iri("monitorId")),
                (ratio_attr.to_owned(), iri("lagRatio")),
            ]),
        )
    }

    #[test]
    fn first_release_registers_everything() {
        let o = ontology();
        let mut reg = WrapperRegistry::new();
        let stats = apply_release(&o, &mut reg, release("w1", "lagRatio")).unwrap();
        assert!(stats.new_source);
        assert_eq!(stats.attributes_created, 2);
        assert_eq!(stats.attributes_reused, 0);
        // 1 source + 1 wrapper-type + 1 hasWrapper + 2 attr-type + 2 hasAttribute = 7
        assert_eq!(stats.source_triples_added, 7);
        // 3 LAV triples + 1 M:mapping + 2 sameAs = 6
        assert_eq!(stats.mapping_triples_added, 6);
        assert!(reg.contains("w1"));
        assert!(o.is_wrapper(&vocab::wrapper_uri("w1")));
    }

    #[test]
    fn second_version_reuses_source_and_attributes() {
        let o = ontology();
        let mut reg = WrapperRegistry::new();
        apply_release(&o, &mut reg, release("w1", "lagRatio")).unwrap();
        // w4 renames lagRatio → bufferingRatio; VoDmonitorId is reused.
        let stats = apply_release(&o, &mut reg, release("w4", "bufferingRatio")).unwrap();
        assert!(!stats.new_source);
        assert_eq!(stats.attributes_reused, 1); // VoDmonitorId
        assert_eq!(stats.attributes_created, 1); // bufferingRatio
                                                 // 1 wrapper-type + 1 hasWrapper + 1 attr-type + 2 hasAttribute = 5
        assert_eq!(stats.source_triples_added, 5);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn lav_mapping_is_queryable_after_release() {
        let o = ontology();
        let mut reg = WrapperRegistry::new();
        apply_release(&o, &mut reg, release("w1", "lagRatio")).unwrap();
        let concept = o.concept_of(&iri("lagRatio")).unwrap();
        let wrappers = o.wrappers_providing_feature(&concept, &iri("lagRatio"));
        assert_eq!(wrappers, vec![vocab::wrapper_uri("w1")]);
        let attr = o
            .attribute_for_feature(&vocab::wrapper_uri("w1"), &iri("lagRatio"))
            .unwrap();
        assert_eq!(attr, vocab::attribute_uri("D1", "lagRatio"));
    }

    #[test]
    fn unmapped_attribute_is_rejected() {
        let o = ontology();
        let mut reg = WrapperRegistry::new();
        let r = Release::new(
            wrapper("w1", ("VoDmonitorId", "lagRatio")),
            lav_graph(),
            BTreeMap::from([("VoDmonitorId".to_owned(), iri("monitorId"))]),
        );
        assert!(matches!(
            apply_release(&o, &mut reg, r),
            Err(ReleaseError::UnmappedAttribute(a, _)) if a == "lagRatio"
        ));
    }

    #[test]
    fn lav_triples_must_exist_in_g() {
        let o = ontology();
        let mut reg = WrapperRegistry::new();
        let mut bad = lav_graph();
        bad.push(Triple::new(
            iri("Monitor"),
            iri("nonexistent"),
            iri("InfoMonitor"),
        ));
        let r = Release::new(
            wrapper("w1", ("VoDmonitorId", "lagRatio")),
            bad,
            BTreeMap::from([
                ("VoDmonitorId".to_owned(), iri("monitorId")),
                ("lagRatio".to_owned(), iri("lagRatio")),
            ]),
        );
        assert!(matches!(
            apply_release(&o, &mut reg, r),
            Err(ReleaseError::LavTripleNotInG(_))
        ));
    }

    #[test]
    fn unknown_feature_is_rejected() {
        let o = ontology();
        let mut reg = WrapperRegistry::new();
        let r = Release::new(
            wrapper("w1", ("VoDmonitorId", "lagRatio")),
            lav_graph(),
            BTreeMap::from([
                ("VoDmonitorId".to_owned(), iri("monitorId")),
                ("lagRatio".to_owned(), iri("zzz")),
            ]),
        );
        assert!(matches!(
            apply_release(&o, &mut reg, r),
            Err(ReleaseError::UnknownFeature(_))
        ));
    }

    #[test]
    fn reapplying_a_release_is_refused_and_leaves_the_store_alone() {
        let o = ontology();
        let mut reg = WrapperRegistry::new();
        apply_release(&o, &mut reg, release("w1", "lagRatio")).unwrap();
        let len = o.store().len();
        assert_eq!(
            apply_release(&o, &mut reg, release("w1", "lagRatio")),
            Err(ReleaseError::WrapperExists("w1".to_owned()))
        );
        assert_eq!((o.store().len(), reg.len()), (len, 1));
    }
}
