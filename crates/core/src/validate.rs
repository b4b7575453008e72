//! Ontology consistency checking — the data steward's audit tool.
//!
//! The rewriting algorithms are only unambiguous when the §3 design
//! constraints hold. [`check_ontology`] verifies them all on demand:
//!
//! * every feature belongs to exactly one concept (C1);
//! * every wrapper hangs off a data source and has at least one attribute (C2/C3);
//! * every attribute of a wrapper maps (`owl:sameAs`) to exactly one feature (C4/C5);
//! * every wrapper's LAV named graph is a non-empty subgraph of `G` (C6/C7);
//! * every feature in a wrapper's LAV graph is reachable from one of its
//!   attributes through `F` — the mapping is *complete* for what it claims
//!   to provide (C8);
//! * ID features reach `sc:identifier` through the taxonomy (informative).

use crate::ontology::BdiOntology;
use crate::vocab;
use bdi_rdf::model::{GraphName, Iri, Quad, Term};
use bdi_rdf::store::GraphPattern;
use bdi_rdf::vocab::{owl, rdf};
use std::collections::BTreeSet;
use std::fmt;

/// One consistency violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A feature with more than one owning concept.
    FeatureWithMultipleConcepts { feature: Iri, concepts: Vec<Iri> },
    /// A feature attached to no concept at all.
    OrphanFeature { feature: Iri },
    /// A wrapper not linked from any data source.
    WrapperWithoutSource { wrapper: Iri },
    /// A wrapper providing no attributes.
    WrapperWithoutAttributes { wrapper: Iri },
    /// An attribute with no `owl:sameAs` feature mapping.
    UnmappedAttribute { attribute: Iri },
    /// An attribute mapped to several features (F must be a function).
    AmbiguousAttribute { attribute: Iri, features: Vec<Iri> },
    /// An attribute mapped to something that is not a `G:Feature`.
    MappedToNonFeature { attribute: Iri, target: Iri },
    /// A wrapper with no LAV named graph.
    MissingLavGraph { wrapper: Iri },
    /// A LAV triple absent from the Global graph.
    LavTripleNotInG { wrapper: Iri, triple: String },
    /// A feature inside a wrapper's LAV graph that none of the wrapper's
    /// attributes maps to.
    LavFeatureWithoutAttribute { wrapper: Iri, feature: Iri },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::FeatureWithMultipleConcepts { feature, concepts } => write!(
                f,
                "feature {} belongs to {} concepts (must be exactly one)",
                feature.local_name(),
                concepts.len()
            ),
            Violation::OrphanFeature { feature } => {
                write!(
                    f,
                    "feature {} is attached to no concept",
                    feature.local_name()
                )
            }
            Violation::WrapperWithoutSource { wrapper } => {
                write!(
                    f,
                    "wrapper {} has no owning data source",
                    wrapper.local_name()
                )
            }
            Violation::WrapperWithoutAttributes { wrapper } => {
                write!(f, "wrapper {} provides no attributes", wrapper.local_name())
            }
            Violation::UnmappedAttribute { attribute } => {
                write!(
                    f,
                    "attribute {} has no owl:sameAs feature",
                    attribute.local_name()
                )
            }
            Violation::AmbiguousAttribute {
                attribute,
                features,
            } => write!(
                f,
                "attribute {} maps to {} features (F must be a function)",
                attribute.local_name(),
                features.len()
            ),
            Violation::MappedToNonFeature { attribute, target } => write!(
                f,
                "attribute {} maps to {}, which is not a G:Feature",
                attribute.local_name(),
                target.local_name()
            ),
            Violation::MissingLavGraph { wrapper } => {
                write!(f, "wrapper {} has no LAV named graph", wrapper.local_name())
            }
            Violation::LavTripleNotInG { wrapper, triple } => write!(
                f,
                "wrapper {}'s LAV graph contains `{triple}` which is not in G",
                wrapper.local_name()
            ),
            Violation::LavFeatureWithoutAttribute { wrapper, feature } => write!(
                f,
                "wrapper {} claims feature {} in its LAV graph but no attribute maps to it",
                wrapper.local_name(),
                feature.local_name()
            ),
        }
    }
}

/// Runs every consistency check, returning all violations found.
pub fn check_ontology(ontology: &BdiOntology) -> Vec<Violation> {
    let mut out = Vec::new();
    check_features(ontology, &mut out);
    check_wrappers(ontology, &mut out);
    out
}

fn check_features(ontology: &BdiOntology, out: &mut Vec<Violation>) {
    let g = GraphPattern::Named((*vocab::graphs::GLOBAL).clone());
    let features = ontology
        .store()
        .subjects(&rdf::TYPE, &Term::from(&*vocab::g::FEATURE), &g);
    for feature in features {
        let Term::Iri(feature) = feature else {
            continue;
        };
        // Skip the metamodel's own class declarations.
        if feature.as_str().starts_with(vocab::g::NS) {
            continue;
        }
        let owners: Vec<Iri> = ontology
            .store()
            .iri_subjects(&vocab::g::HAS_FEATURE, &feature, &g);
        match owners.len() {
            0 => out.push(Violation::OrphanFeature { feature }),
            1 => {}
            _ => out.push(Violation::FeatureWithMultipleConcepts {
                feature,
                concepts: owners,
            }),
        }
    }
}

fn check_wrappers(ontology: &BdiOntology, out: &mut Vec<Violation>) {
    let s = GraphPattern::Named((*vocab::graphs::SOURCE).clone());
    let wrappers = ontology
        .store()
        .subjects(&rdf::TYPE, &Term::from(&*vocab::s::WRAPPER), &s);
    for wrapper in wrappers {
        let Term::Iri(wrapper) = wrapper else {
            continue;
        };
        if wrapper.as_str() == vocab::s::WRAPPER.as_str() {
            continue;
        }

        // C2: owned by a source.
        let sources =
            ontology
                .store()
                .subjects(&vocab::s::HAS_WRAPPER, &Term::Iri(wrapper.clone()), &s);
        if sources.is_empty() {
            out.push(Violation::WrapperWithoutSource {
                wrapper: wrapper.clone(),
            });
        }

        // C3–C5: attributes and their mappings.
        let attributes = ontology.attributes_of_wrapper(&wrapper);
        if attributes.is_empty() {
            out.push(Violation::WrapperWithoutAttributes {
                wrapper: wrapper.clone(),
            });
        }
        let mut mapped_features: BTreeSet<Iri> = BTreeSet::new();
        for attribute in &attributes {
            let targets: Vec<Iri> = ontology.store().iri_objects(
                attribute,
                &owl::SAME_AS,
                &GraphPattern::Named((*vocab::graphs::MAPPING).clone()),
            );
            match targets.len() {
                0 => out.push(Violation::UnmappedAttribute {
                    attribute: attribute.clone(),
                }),
                1 => {
                    let target = &targets[0];
                    if ontology.is_feature(target) {
                        mapped_features.insert(target.clone());
                    } else {
                        out.push(Violation::MappedToNonFeature {
                            attribute: attribute.clone(),
                            target: target.clone(),
                        });
                    }
                }
                _ => out.push(Violation::AmbiguousAttribute {
                    attribute: attribute.clone(),
                    features: targets,
                }),
            }
        }

        // C6–C8: the LAV named graph.
        let lav = ontology.lav_graph_of(&wrapper);
        if lav.is_empty() {
            out.push(Violation::MissingLavGraph {
                wrapper: wrapper.clone(),
            });
            continue;
        }
        for triple in &lav {
            let in_g = ontology.store().contains(&Quad {
                subject: triple.subject.clone(),
                predicate: triple.predicate.clone(),
                object: triple.object.clone(),
                graph: GraphName::Named((*vocab::graphs::GLOBAL).clone()),
            });
            if !in_g {
                out.push(Violation::LavTripleNotInG {
                    wrapper: wrapper.clone(),
                    triple: triple.to_string(),
                });
            }
            // C8: claimed features must be provided by some attribute.
            if triple.predicate == *vocab::g::HAS_FEATURE {
                if let Term::Iri(feature) = &triple.object {
                    if !mapped_features.contains(feature) {
                        out.push(Violation::LavFeatureWithoutAttribute {
                            wrapper: wrapper.clone(),
                            feature: feature.clone(),
                        });
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supersede;

    #[test]
    fn running_example_is_consistent() {
        let system = supersede::build_running_example();
        let violations = check_ontology(system.ontology());
        assert!(violations.is_empty(), "{violations:#?}");
    }

    #[test]
    fn evolved_example_stays_consistent() {
        let mut system = supersede::build_running_example();
        supersede::evolve_with_w4(&mut system);
        assert!(check_ontology(system.ontology()).is_empty());
    }

    #[test]
    fn orphan_feature_is_reported() {
        let system = supersede::build_running_example();
        let orphan = supersede::sup("danglingFeature");
        system.ontology().add_feature(&orphan);
        let violations = check_ontology(system.ontology());
        assert!(violations.contains(&Violation::OrphanFeature { feature: orphan }));
    }

    #[test]
    fn multi_concept_feature_is_reported() {
        // Bypass attach_feature's guard by inserting the triple directly.
        let system = supersede::build_running_example();
        system.ontology().store().insert_in(
            &vocab::graphs::global(),
            supersede::concepts::monitor(),
            &*vocab::g::HAS_FEATURE,
            supersede::features::application_id(),
        );
        let violations = check_ontology(system.ontology());
        assert!(violations.iter().any(
            |v| matches!(v, Violation::FeatureWithMultipleConcepts { feature, .. }
                if feature == &supersede::features::application_id())
        ));
    }

    #[test]
    fn hand_inserted_wrapper_without_links_is_reported() {
        let system = supersede::build_running_example();
        let ghost = vocab::wrapper_uri("ghost");
        system.ontology().store().insert_in(
            &vocab::graphs::source(),
            &ghost,
            &*rdf::TYPE,
            &*vocab::s::WRAPPER,
        );
        let violations = check_ontology(system.ontology());
        assert!(violations.contains(&Violation::WrapperWithoutSource {
            wrapper: ghost.clone()
        }));
        assert!(violations.contains(&Violation::WrapperWithoutAttributes {
            wrapper: ghost.clone()
        }));
        assert!(violations.contains(&Violation::MissingLavGraph { wrapper: ghost }));
    }

    #[test]
    fn lav_feature_without_attribute_is_reported() {
        let system = supersede::build_running_example();
        // Claim 'description' in w1's LAV graph although w1 maps no
        // attribute to it.
        let w1 = vocab::wrapper_uri("w1");
        system.ontology().store().insert_in(
            &GraphName::Named(w1.clone()),
            supersede::concepts::user_feedback(),
            &*vocab::g::HAS_FEATURE,
            supersede::features::description(),
        );
        let violations = check_ontology(system.ontology());
        assert!(violations.iter().any(|v| matches!(
            v,
            Violation::LavFeatureWithoutAttribute { wrapper, feature }
                if wrapper == &w1 && feature == &supersede::features::description()
        )));
    }

    #[test]
    fn violations_render_human_readable() {
        let v = Violation::OrphanFeature {
            feature: supersede::sup("x"),
        };
        assert!(v.to_string().contains("attached to no concept"));
    }
}
