//! Phase #1 — query expansion (Algorithm 3).
//!
//! Identifies the query-related concepts (steps ①) in topological order and
//! expands `φ` with every concept's ID features (step ②), which later phases
//! need for joining even when the analyst did not request them.

use crate::omq::Omq;
use crate::ontology::BdiOntology;
use crate::vocab;
use bdi_rdf::model::{Iri, Term, Triple};

/// Errors raised during expansion.
#[derive(Debug, Clone, PartialEq, Eq, thiserror::Error)]
pub enum ExpandError {
    /// Expansion requires the (already well-formed) query to be a DAG; this
    /// can only fire if callers skip Algorithm 2.
    #[error("query pattern has no topological order (cycle)")]
    Cyclic,
    /// A navigation concept with neither queried features nor an ID cannot
    /// be joined through (see the module docs of [`mod@crate::rewrite`]).
    #[error("concept {0} occurs in the query but has no queried features and no ID feature")]
    UnjoinableConcept(String),
}

/// The result of Algorithm 3: the concept list and the expanded query `Q'_G`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpandedQuery {
    /// Query-related concepts, in topological order (step ①).
    pub concepts: Vec<Iri>,
    /// `Q'_G` — the query with ID features added (step ②).
    pub query: Omq,
}

/// Algorithm 3 — `QueryExpansion(Q_G, G)`.
pub fn query_expansion(ontology: &BdiOntology, query: &Omq) -> Result<ExpandedQuery, ExpandError> {
    // Lines 3–7: concepts in topological order of φ.
    let order = query.topological_sort().ok_or(ExpandError::Cyclic)?;
    let mut concepts = Vec::new();
    for vertex in order {
        if let Term::Iri(iri) = &vertex {
            if ontology.is_concept(iri) && !concepts.contains(iri) {
                concepts.push(iri.clone());
            }
        }
    }

    // Lines 8–14: expand with IDs.
    let mut expanded = query.clone();
    for concept in &concepts {
        let ids = ontology.id_features_of(concept);
        for f_id in &ids {
            expanded.extend_phi(Triple::new(
                concept.clone(),
                (*vocab::g::HAS_FEATURE).clone(),
                f_id.clone(),
            ));
        }
        if ids.is_empty() {
            // The concept must still expose at least one queried feature,
            // otherwise later phases cannot anchor any wrapper on it.
            let has_queried_feature = expanded
                .triples_from(concept)
                .any(|t| t.predicate == *vocab::g::HAS_FEATURE);
            if !has_queried_feature {
                return Err(ExpandError::UnjoinableConcept(concept.as_str().to_owned()));
            }
        }
    }

    Ok(ExpandedQuery {
        concepts,
        query: expanded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iri(s: &str) -> Iri {
        Iri::new(format!("http://e/{s}"))
    }

    fn ontology() -> BdiOntology {
        let o = BdiOntology::new();
        for c in ["SoftwareApplication", "Monitor", "InfoMonitor"] {
            o.add_concept(&iri(c));
        }
        for (c, f, id) in [
            ("SoftwareApplication", "applicationId", true),
            ("Monitor", "monitorId", true),
            ("InfoMonitor", "lagRatio", false),
        ] {
            if id {
                o.add_id_feature(&iri(f));
            } else {
                o.add_feature(&iri(f));
            }
            o.attach_feature(&iri(c), &iri(f)).unwrap();
        }
        o.add_object_property(
            &iri("hasMonitor"),
            &iri("SoftwareApplication"),
            &iri("Monitor"),
        )
        .unwrap();
        o.add_object_property(&iri("generatesQoS"), &iri("Monitor"), &iri("InfoMonitor"))
            .unwrap();
        o
    }

    /// The running example query: applicationId + lagRatio.
    fn running_query() -> Omq {
        Omq::new(
            vec![iri("applicationId"), iri("lagRatio")],
            vec![
                Triple::new(
                    iri("SoftwareApplication"),
                    (*vocab::g::HAS_FEATURE).clone(),
                    iri("applicationId"),
                ),
                Triple::new(
                    iri("SoftwareApplication"),
                    iri("hasMonitor"),
                    iri("Monitor"),
                ),
                Triple::new(iri("Monitor"), iri("generatesQoS"), iri("InfoMonitor")),
                Triple::new(
                    iri("InfoMonitor"),
                    (*vocab::g::HAS_FEATURE).clone(),
                    iri("lagRatio"),
                ),
            ],
        )
    }

    #[test]
    fn concepts_in_topological_order() {
        let expanded = query_expansion(&ontology(), &running_query()).unwrap();
        let names: Vec<&str> = expanded.concepts.iter().map(|c| c.local_name()).collect();
        assert_eq!(names, vec!["SoftwareApplication", "Monitor", "InfoMonitor"]);
    }

    #[test]
    fn ids_are_added_to_phi() {
        let expanded = query_expansion(&ontology(), &running_query()).unwrap();
        // The paper's example: sup:monitorId is added although not queried.
        assert!(expanded.query.phi.contains(&Triple::new(
            iri("Monitor"),
            (*vocab::g::HAS_FEATURE).clone(),
            iri("monitorId")
        )));
        // applicationId's hasFeature triple was already there and InfoMonitor
        // has no ID, so φ grows by exactly one (monitorId).
        assert_eq!(expanded.query.phi.len(), 5);
    }

    #[test]
    fn expansion_preserves_pi() {
        let q = running_query();
        let expanded = query_expansion(&ontology(), &q).unwrap();
        assert_eq!(expanded.query.pi, q.pi);
    }

    #[test]
    fn idless_featureless_concept_is_rejected() {
        let o = ontology();
        o.add_concept(&iri("Passthrough")); // no features at all
        o.add_object_property(
            &iri("via"),
            &iri("SoftwareApplication"),
            &iri("Passthrough"),
        )
        .unwrap();
        let q = Omq::new(
            vec![iri("applicationId")],
            vec![
                Triple::new(
                    iri("SoftwareApplication"),
                    (*vocab::g::HAS_FEATURE).clone(),
                    iri("applicationId"),
                ),
                Triple::new(iri("SoftwareApplication"), iri("via"), iri("Passthrough")),
            ],
        );
        assert!(matches!(
            query_expansion(&o, &q),
            Err(ExpandError::UnjoinableConcept(_))
        ));
    }

    #[test]
    fn expansion_is_idempotent() {
        let o = ontology();
        let once = query_expansion(&o, &running_query()).unwrap();
        let twice = query_expansion(&o, &once.query).unwrap();
        assert_eq!(once.query, twice.query);
        assert_eq!(once.concepts, twice.concepts);
    }
}
