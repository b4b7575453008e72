//! The BDI ontology `T = ⟨G, S, M⟩` (§3).
//!
//! All three graphs live in one [`QuadStore`] as RDF named graphs:
//!
//! * **`G`** (Global graph) — concepts, features, object properties, feature
//!   taxonomy and datatypes. The vocabulary analysts query with.
//! * **`S`** (Source graph) — data sources, wrappers (= schema versions) and
//!   their attributes.
//! * **`M`** (Mapping graph) — LAV mappings: per-wrapper *named graphs*
//!   holding the subgraph of `G` the wrapper provides, plus `owl:sameAs`
//!   links serializing the attribute→feature function `F`.
//!
//! The struct enforces the paper's design constraints at authoring time —
//! most importantly that a feature belongs to exactly one concept (§3.1),
//! which is what makes query rewriting unambiguous.

use crate::vocab::{self, graphs};
use bdi_rdf::model::{GraphName, Iri, Quad, Term, Triple};
use bdi_rdf::reason;
use bdi_rdf::store::{GraphPattern, QuadStore};
use bdi_rdf::turtle::PrefixMap;
use bdi_rdf::vocab::{owl, rdf, rdfs, sc};

/// Errors raised by ontology authoring.
#[derive(Debug, Clone, PartialEq, Eq, thiserror::Error)]
pub enum OntologyError {
    #[error("feature {feature} already belongs to concept {owner}; features belong to exactly one concept (§3.1)")]
    FeatureAlreadyOwned { feature: String, owner: String },
    #[error("{0} is not a concept in G")]
    NotAConcept(String),
    #[error("{0} is not a feature in G")]
    NotAFeature(String),
}

/// The BDI ontology: one quad store holding `G`, `S`, `M` and the
/// per-wrapper LAV named graphs.
#[derive(Debug)]
pub struct BdiOntology {
    store: QuadStore,
    prefixes: PrefixMap,
}

impl Default for BdiOntology {
    fn default() -> Self {
        Self::new()
    }
}

impl BdiOntology {
    /// Creates the ontology with the metamodel triples of Codes 6 and 7
    /// preloaded, and the standard prefix table (`G:`, `S:`, `M:`, `rdf:`,
    /// `rdfs:`, `owl:`, `xsd:`, `sc:`).
    pub(crate) fn new() -> Self {
        let store = QuadStore::new();
        let mut prefixes = PrefixMap::with_common_vocabularies();
        prefixes.insert("G", vocab::g::NS);
        prefixes.insert("S", vocab::s::NS);
        prefixes.insert("M", vocab::m::NS);

        let g = graphs::global();
        // Code 6 — metamodel for G.
        store.insert_in(&g, &*vocab::g::CONCEPT, &*rdf::TYPE, &*rdfs::CLASS);
        store.insert_in(&g, &*vocab::g::FEATURE, &*rdf::TYPE, &*rdfs::CLASS);
        store.insert_in(&g, &*vocab::g::HAS_FEATURE, &*rdf::TYPE, &*rdf::PROPERTY);
        store.insert_in(
            &g,
            &*vocab::g::HAS_FEATURE,
            &*rdfs::DOMAIN,
            &*vocab::g::CONCEPT,
        );
        store.insert_in(
            &g,
            &*vocab::g::HAS_FEATURE,
            &*rdfs::RANGE,
            &*vocab::g::FEATURE,
        );
        store.insert_in(&g, &*vocab::g::HAS_DATA_TYPE, &*rdf::TYPE, &*rdf::PROPERTY);
        store.insert_in(
            &g,
            &*vocab::g::HAS_DATA_TYPE,
            &*rdfs::DOMAIN,
            &*vocab::g::FEATURE,
        );
        store.insert_in(
            &g,
            &*vocab::g::HAS_DATA_TYPE,
            &*rdfs::RANGE,
            &*rdfs::DATATYPE,
        );

        let s = graphs::source();
        // Code 7 — metamodel for S.
        store.insert_in(&s, &*vocab::s::DATA_SOURCE, &*rdf::TYPE, &*rdfs::CLASS);
        store.insert_in(&s, &*vocab::s::WRAPPER, &*rdf::TYPE, &*rdfs::CLASS);
        store.insert_in(&s, &*vocab::s::ATTRIBUTE, &*rdf::TYPE, &*rdfs::CLASS);
        store.insert_in(&s, &*vocab::s::HAS_WRAPPER, &*rdf::TYPE, &*rdf::PROPERTY);
        store.insert_in(
            &s,
            &*vocab::s::HAS_WRAPPER,
            &*rdfs::DOMAIN,
            &*vocab::s::DATA_SOURCE,
        );
        store.insert_in(
            &s,
            &*vocab::s::HAS_WRAPPER,
            &*rdfs::RANGE,
            &*vocab::s::WRAPPER,
        );
        store.insert_in(&s, &*vocab::s::HAS_ATTRIBUTE, &*rdf::TYPE, &*rdf::PROPERTY);
        store.insert_in(
            &s,
            &*vocab::s::HAS_ATTRIBUTE,
            &*rdfs::DOMAIN,
            &*vocab::s::WRAPPER,
        );
        store.insert_in(
            &s,
            &*vocab::s::HAS_ATTRIBUTE,
            &*rdfs::RANGE,
            &*vocab::s::ATTRIBUTE,
        );

        Self { store, prefixes }
    }

    /// The underlying quad store.
    pub fn store(&self) -> &QuadStore {
        &self.store
    }

    /// The prefix table (extend it with domain namespaces).
    pub fn prefixes(&self) -> &PrefixMap {
        &self.prefixes
    }

    pub(crate) fn prefixes_mut(&mut self) -> &mut PrefixMap {
        &mut self.prefixes
    }

    // ------------------------------------------------------------------
    // Global graph authoring
    // ------------------------------------------------------------------

    /// Declares a concept in `G`.
    pub fn add_concept(&self, concept: &Iri) {
        self.store
            .insert_in(&graphs::global(), concept, &*rdf::TYPE, &*vocab::g::CONCEPT);
    }

    /// Declares a feature in `G`.
    pub fn add_feature(&self, feature: &Iri) {
        self.store
            .insert_in(&graphs::global(), feature, &*rdf::TYPE, &*vocab::g::FEATURE);
    }

    /// Declares a feature that carries ID semantics
    /// (`rdfs:subClassOf sc:identifier`). IDs are the default join keys of
    /// the rewriting algorithm.
    pub fn add_id_feature(&self, feature: &Iri) {
        self.add_feature(feature);
        self.store.insert_in(
            &graphs::global(),
            feature,
            &*rdfs::SUB_CLASS_OF,
            &*sc::IDENTIFIER,
        );
    }

    /// Attaches `feature` to `concept` via `G:hasFeature`, enforcing the
    /// one-concept-per-feature constraint.
    pub fn attach_feature(&self, concept: &Iri, feature: &Iri) -> Result<(), OntologyError> {
        if !self.is_concept(concept) {
            return Err(OntologyError::NotAConcept(concept.as_str().to_owned()));
        }
        if !self.is_feature(feature) {
            return Err(OntologyError::NotAFeature(feature.as_str().to_owned()));
        }
        if let Some(owner) = self.concept_of(feature) {
            if &owner != concept {
                return Err(OntologyError::FeatureAlreadyOwned {
                    feature: feature.as_str().to_owned(),
                    owner: owner.as_str().to_owned(),
                });
            }
        }
        self.store
            .insert_in(&graphs::global(), concept, &*vocab::g::HAS_FEATURE, feature);
        Ok(())
    }

    /// Declares a domain-specific object property `domain —property→ range`
    /// between two concepts (the navigation edges analysts traverse).
    pub fn add_object_property(
        &self,
        property: &Iri,
        domain: &Iri,
        range: &Iri,
    ) -> Result<(), OntologyError> {
        if !self.is_concept(domain) {
            return Err(OntologyError::NotAConcept(domain.as_str().to_owned()));
        }
        if !self.is_concept(range) {
            return Err(OntologyError::NotAConcept(range.as_str().to_owned()));
        }
        let g = graphs::global();
        self.store
            .insert_in(&g, property, &*rdf::TYPE, &*rdf::PROPERTY);
        self.store.insert_in(&g, property, &*rdfs::DOMAIN, domain);
        self.store.insert_in(&g, property, &*rdfs::RANGE, range);
        self.store.insert_in(&g, domain, property, range);
        Ok(())
    }

    /// Sets a feature's datatype (`G:hasDataType`, §3.1).
    pub(crate) fn set_feature_datatype(
        &self,
        feature: &Iri,
        datatype: &Iri,
    ) -> Result<(), OntologyError> {
        if !self.is_feature(feature) {
            return Err(OntologyError::NotAFeature(feature.as_str().to_owned()));
        }
        let g = graphs::global();
        self.store
            .insert_in(&g, datatype, &*rdf::TYPE, &*rdfs::DATATYPE);
        self.store
            .insert_in(&g, feature, &*vocab::g::HAS_DATA_TYPE, datatype);
        Ok(())
    }

    /// Adds a feature-taxonomy edge `sub rdfs:subClassOf sup` (§3.1:
    /// "a taxonomy of features ... denote related semantic domains").
    pub(crate) fn add_feature_subclass(&self, sub: &Iri, sup: &Iri) {
        self.store
            .insert_in(&graphs::global(), sub, &*rdfs::SUB_CLASS_OF, sup);
    }

    // ------------------------------------------------------------------
    // Global graph queries
    // ------------------------------------------------------------------

    /// True when `iri` is typed `G:Concept` in `G`.
    pub(crate) fn is_concept(&self, iri: &Iri) -> bool {
        self.store.contains(&Quad::new(
            iri.clone(),
            (*rdf::TYPE).clone(),
            (*vocab::g::CONCEPT).clone(),
            graphs::global(),
        ))
    }

    /// True when `iri` is typed `G:Feature` in `G`.
    pub(crate) fn is_feature(&self, iri: &Iri) -> bool {
        self.store.contains(&Quad::new(
            iri.clone(),
            (*rdf::TYPE).clone(),
            (*vocab::g::FEATURE).clone(),
            graphs::global(),
        ))
    }

    /// True when the feature reaches `sc:identifier` through
    /// `rdfs:subClassOf` (RDFS entailment, no materialization needed).
    pub(crate) fn is_id_feature(&self, feature: &Iri) -> bool {
        feature != &*sc::IDENTIFIER && reason::is_subclass_of(&self.store, feature, &sc::IDENTIFIER)
    }

    /// All concepts declared in `G`.
    pub fn concepts(&self) -> Vec<Iri> {
        self.store.iri_subjects(
            &rdf::TYPE,
            &vocab::g::CONCEPT,
            &GraphPattern::Named((*graphs::GLOBAL).clone()),
        )
    }

    /// Features attached to a concept.
    pub(crate) fn features_of(&self, concept: &Iri) -> Vec<Iri> {
        self.store.iri_objects(
            concept,
            &vocab::g::HAS_FEATURE,
            &GraphPattern::Named((*graphs::GLOBAL).clone()),
        )
    }

    /// The concept's ID features (those subsumed by `sc:identifier`).
    pub(crate) fn id_features_of(&self, concept: &Iri) -> Vec<Iri> {
        self.features_of(concept)
            .into_iter()
            .filter(|f| self.is_id_feature(f))
            .collect()
    }

    /// The unique concept owning a feature (enforced by
    /// [`BdiOntology::attach_feature`]).
    pub(crate) fn concept_of(&self, feature: &Iri) -> Option<Iri> {
        self.store
            .iri_subjects(
                &vocab::g::HAS_FEATURE,
                feature,
                &GraphPattern::Named((*graphs::GLOBAL).clone()),
            )
            .into_iter()
            .next()
    }

    // ------------------------------------------------------------------
    // Source graph queries
    // ------------------------------------------------------------------

    /// True when `iri` is a registered wrapper instance in `S`.
    pub(crate) fn is_wrapper(&self, iri: &Iri) -> bool {
        self.store.contains(&Quad::new(
            iri.clone(),
            (*rdf::TYPE).clone(),
            (*vocab::s::WRAPPER).clone(),
            graphs::source(),
        ))
    }

    /// True when `iri` is a registered data source in `S`.
    pub(crate) fn is_data_source(&self, iri: &Iri) -> bool {
        self.store.contains(&Quad::new(
            iri.clone(),
            (*rdf::TYPE).clone(),
            (*vocab::s::DATA_SOURCE).clone(),
            graphs::source(),
        ))
    }

    /// All attribute URIs a wrapper provides.
    pub fn attributes_of_wrapper(&self, wrapper_uri: &Iri) -> Vec<Iri> {
        self.store.iri_objects(
            wrapper_uri,
            &vocab::s::HAS_ATTRIBUTE,
            &GraphPattern::Named((*graphs::SOURCE).clone()),
        )
    }

    /// Number of triples currently in `S` (the growth metric of Figure 11).
    pub fn source_graph_len(&self) -> usize {
        self.store.graph_len(&graphs::source())
    }

    /// Number of triples currently in `G`.
    pub fn global_graph_len(&self) -> usize {
        self.store.graph_len(&graphs::global())
    }

    /// Number of triples currently in `M` (sameAs links + mapping triples).
    pub fn mapping_graph_len(&self) -> usize {
        self.store.graph_len(&graphs::mapping())
    }

    // ------------------------------------------------------------------
    // Mapping graph queries (LAV resolution primitives)
    // ------------------------------------------------------------------

    /// Algorithm 4, line 8: the wrappers whose LAV named graph contains
    /// `⟨concept, G:hasFeature, feature⟩`.
    pub(crate) fn wrappers_providing_feature(&self, concept: &Iri, feature: &Iri) -> Vec<Iri> {
        self.named_wrapper_graphs_with(
            Some(&Term::Iri(concept.clone())),
            Some(&vocab::g::HAS_FEATURE),
            Some(&Term::Iri(feature.clone())),
        )
    }

    /// Algorithm 5, lines 9–10: wrappers whose LAV graph contains an edge
    /// `⟨from, ?x, to⟩` between two concepts.
    pub(crate) fn wrappers_providing_edge(&self, from: &Iri, to: &Iri) -> Vec<Iri> {
        self.named_wrapper_graphs_with(
            Some(&Term::Iri(from.clone())),
            None,
            Some(&Term::Iri(to.clone())),
        )
    }

    fn named_wrapper_graphs_with(
        &self,
        s: Option<&Term>,
        p: Option<&Iri>,
        o: Option<&Term>,
    ) -> Vec<Iri> {
        let mut out: Vec<Iri> = Vec::new();
        for quad in self.store.match_quads(s, p, o, &GraphPattern::AnyNamed) {
            if let GraphName::Named(g) = &quad.graph {
                if self.is_wrapper(g) && !out.contains(g) {
                    out.push(g.clone());
                }
            }
        }
        out
    }

    /// Algorithm 4, line 10: the physical attribute of `wrapper` that maps
    /// (via `owl:sameAs` in `M`) to `feature`.
    pub(crate) fn attribute_for_feature(&self, wrapper_uri: &Iri, feature: &Iri) -> Option<Iri> {
        let candidates = self.store.subjects(
            &owl::SAME_AS,
            &Term::Iri(feature.clone()),
            &GraphPattern::Named((*graphs::MAPPING).clone()),
        );
        for candidate in candidates {
            let Term::Iri(attr) = candidate else { continue };
            if self.store.contains(&Quad::new(
                wrapper_uri.clone(),
                (*vocab::s::HAS_ATTRIBUTE).clone(),
                attr.clone(),
                graphs::source(),
            )) {
                return Some(attr);
            }
        }
        None
    }

    /// Algorithm 4, line 18: the feature a physical attribute maps to.
    pub fn feature_of_attribute(&self, attribute: &Iri) -> Option<Iri> {
        self.store
            .objects(
                &Term::Iri(attribute.clone()),
                &owl::SAME_AS,
                &GraphPattern::Named((*graphs::MAPPING).clone()),
            )
            .into_iter()
            .find_map(|t| t.as_iri().cloned())
    }

    /// The LAV subgraph of `G` registered for a wrapper (its named graph).
    pub(crate) fn lav_graph_of(&self, wrapper_uri: &Iri) -> Vec<Triple> {
        self.store
            .graph_quads(&GraphName::Named(wrapper_uri.clone()))
            .into_iter()
            .map(Quad::into_triple)
            .collect()
    }

    // ------------------------------------------------------------------
    // SPARQL & serialization
    // ------------------------------------------------------------------

    /// Serializes one graph of the ontology as Turtle.
    pub fn graph_turtle(&self, graph: &GraphName) -> String {
        let triples: Vec<Triple> = self
            .store
            .graph_quads(graph)
            .into_iter()
            .map(Quad::into_triple)
            .collect();
        bdi_rdf::turtle::write_turtle(triples.iter(), &self.prefixes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iri(s: &str) -> Iri {
        Iri::new(format!("http://e/{s}"))
    }

    fn ontology_with_monitor() -> BdiOntology {
        let o = BdiOntology::new();
        o.add_concept(&iri("Monitor"));
        o.add_id_feature(&iri("monitorId"));
        o.attach_feature(&iri("Monitor"), &iri("monitorId"))
            .unwrap();
        o.add_feature(&iri("lagRatio"));
        o
    }

    #[test]
    fn metamodel_is_preloaded() {
        let o = BdiOntology::new();
        assert!(o.global_graph_len() >= 8);
        assert!(o.source_graph_len() >= 9);
    }

    #[test]
    fn concept_and_feature_typing() {
        let o = ontology_with_monitor();
        assert!(o.is_concept(&iri("Monitor")));
        assert!(!o.is_concept(&iri("monitorId")));
        assert!(o.is_feature(&iri("monitorId")));
        assert!(o.is_id_feature(&iri("monitorId")));
        assert!(!o.is_id_feature(&iri("lagRatio")));
    }

    #[test]
    fn feature_belongs_to_one_concept() {
        let o = ontology_with_monitor();
        o.add_concept(&iri("Other"));
        let err = o
            .attach_feature(&iri("Other"), &iri("monitorId"))
            .unwrap_err();
        assert!(matches!(err, OntologyError::FeatureAlreadyOwned { .. }));
        // Re-attaching to the same concept is idempotent.
        o.attach_feature(&iri("Monitor"), &iri("monitorId"))
            .unwrap();
    }

    #[test]
    fn attach_validates_types() {
        let o = BdiOntology::new();
        o.add_concept(&iri("C"));
        assert!(matches!(
            o.attach_feature(&iri("C"), &iri("f")),
            Err(OntologyError::NotAFeature(_))
        ));
        o.add_feature(&iri("f"));
        assert!(matches!(
            o.attach_feature(&iri("Zz"), &iri("f")),
            Err(OntologyError::NotAConcept(_))
        ));
    }

    #[test]
    fn id_taxonomy_via_subclass_chain() {
        let o = BdiOntology::new();
        o.add_concept(&iri("Monitor"));
        o.add_feature(&iri("toolId"));
        o.add_feature_subclass(&iri("toolId"), &sc::IDENTIFIER);
        o.add_feature(&iri("monitorId"));
        o.add_feature_subclass(&iri("monitorId"), &iri("toolId"));
        assert!(o.is_id_feature(&iri("monitorId")));
    }

    #[test]
    fn feature_datatypes() {
        let o = ontology_with_monitor();
        o.set_feature_datatype(&iri("lagRatio"), &bdi_rdf::vocab::xsd::DOUBLE)
            .unwrap();
        assert_eq!(
            crate::typing::feature_datatype(&o, &iri("lagRatio")),
            Some((*bdi_rdf::vocab::xsd::DOUBLE).clone())
        );
    }

    #[test]
    fn turtle_dump_contains_declarations() {
        let o = ontology_with_monitor();
        let ttl = o.graph_turtle(&graphs::global());
        assert!(ttl.contains("G:Concept"));
        assert!(ttl.contains("monitorId"));
    }
}
