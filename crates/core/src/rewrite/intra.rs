//! Phase #2 — intra-concept generation (Algorithm 4).
//!
//! For every query concept, finds the wrappers that can provide **all** of
//! the concept's queried features, producing one partial walk per surviving
//! wrapper. Steps (paper numbering): ③ identify queried features,
//! ④ unfold LAV mappings via the named graphs, ⑤ find the physical
//! attribute for each feature through `owl:sameAs`, ⑥ prune wrappers that
//! do not cover the concept's full feature set.
//!
//! Because a wrapper either provides *all* features of a concept or is
//! dropped, no combinations are generated here — this is what keeps phase 2
//! linear in the number of wrappers (§5.3); see the `pruning` ablation
//! bench.

use super::walk::Walk;
use crate::omq::Omq;
use crate::ontology::BdiOntology;
use crate::vocab;
use bdi_rdf::model::Iri;
use std::collections::{BTreeMap, BTreeSet};

/// Partial walks grouped by concept, in query order.
pub(crate) type PartialWalks = Vec<(Iri, Vec<Walk>)>;

/// Algorithm 4 — `IntraConceptGeneration(concepts, Q'_G, T)`, over the
/// `admitted` wrappers only.
pub fn intra_concept_generation(
    ontology: &BdiOntology,
    concepts: &[Iri],
    expanded: &Omq,
    admitted: Option<&BTreeSet<Iri>>,
) -> PartialWalks {
    let mut partial_walks = Vec::with_capacity(concepts.len());

    for concept in concepts {
        // Step ③ (line 6): features requested for this concept in Q'_G.φ.
        let features: BTreeSet<Iri> = expanded
            .triples_from(concept)
            .filter(|t| t.predicate == *vocab::g::HAS_FEATURE)
            .filter_map(|t| t.object.as_iri().cloned())
            .collect();

        // Steps ④–⑤ (lines 7–13): per wrapper, the projected attributes.
        let mut per_wrapper: BTreeMap<Iri, Walk> = BTreeMap::new();
        for feature in &features {
            let providers = ontology.wrappers_providing_feature(concept, feature);
            for wrapper in super::admitted_only(providers, admitted) {
                if let Some(attribute) = ontology.attribute_for_feature(&wrapper, feature) {
                    per_wrapper
                        .entry(wrapper.clone())
                        .or_insert_with(|| Walk::single(wrapper.clone(), []))
                        .project(wrapper.clone(), attribute);
                }
            }
        }

        // Step ⑥ (lines 14–23): keep only wrappers covering every queried
        // feature of the concept (walk-level MergeProjections is implicit in
        // the Walk's set-based projections).
        let mut walks = Vec::new();
        for (wrapper, walk) in per_wrapper {
            let features_in_walk: BTreeSet<Iri> = walk
                .projections_of(&wrapper)
                .into_iter()
                .flatten()
                .filter_map(|attr| ontology.feature_of_attribute(attr))
                .collect();
            if features_in_walk == features {
                walks.push(walk);
            }
        }
        partial_walks.push((concept.clone(), walks));
    }

    partial_walks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::release::{apply_release, Release};
    use bdi_rdf::model::Triple;
    use bdi_relational::{Schema, Value};
    use bdi_wrappers::{TableWrapper, Wrapper, WrapperRegistry};
    use std::sync::Arc;

    fn iri(s: &str) -> Iri {
        Iri::new(format!("http://e/{s}"))
    }

    /// Builds the ontology + two registered wrappers:
    /// * `w1(VoDmonitorId, lagRatio)` over Monitor + InfoMonitor,
    /// * `w3(TargetApp, MonitorId, FeedbackId)` over App + Monitor.
    fn setup() -> (BdiOntology, WrapperRegistry) {
        let o = BdiOntology::new();
        for c in [
            "SoftwareApplication",
            "Monitor",
            "InfoMonitor",
            "FeedbackGathering",
        ] {
            o.add_concept(&iri(c));
        }
        for (c, f, id) in [
            ("SoftwareApplication", "applicationId", true),
            ("Monitor", "monitorId", true),
            ("FeedbackGathering", "feedbackGatheringId", true),
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
        o.add_object_property(
            &iri("hasFGTool"),
            &iri("SoftwareApplication"),
            &iri("FeedbackGathering"),
        )
        .unwrap();
        o.add_object_property(&iri("generatesQoS"), &iri("Monitor"), &iri("InfoMonitor"))
            .unwrap();

        let mut registry = WrapperRegistry::new();

        let w1: Arc<dyn Wrapper> = Arc::new(
            TableWrapper::new(
                "w1",
                "D1",
                Schema::from_parts(&["VoDmonitorId"], &["lagRatio"]).unwrap(),
                vec![vec![Value::Int(12), Value::Float(0.75)]],
            )
            .unwrap(),
        );
        apply_release(
            &o,
            &mut registry,
            Release::new(
                w1,
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
                ],
                BTreeMap::from([
                    ("VoDmonitorId".to_owned(), iri("monitorId")),
                    ("lagRatio".to_owned(), iri("lagRatio")),
                ]),
            ),
        )
        .unwrap();

        let w3: Arc<dyn Wrapper> = Arc::new(
            TableWrapper::new(
                "w3",
                "D3",
                Schema::from_parts::<&str>(&["TargetApp", "MonitorId", "FeedbackId"], &[]).unwrap(),
                vec![vec![Value::Int(1), Value::Int(12), Value::Int(77)]],
            )
            .unwrap(),
        );
        apply_release(
            &o,
            &mut registry,
            Release::new(
                w3,
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
                    Triple::new(
                        iri("SoftwareApplication"),
                        iri("hasFGTool"),
                        iri("FeedbackGathering"),
                    ),
                    Triple::new(
                        iri("Monitor"),
                        (*vocab::g::HAS_FEATURE).clone(),
                        iri("monitorId"),
                    ),
                    Triple::new(
                        iri("FeedbackGathering"),
                        (*vocab::g::HAS_FEATURE).clone(),
                        iri("feedbackGatheringId"),
                    ),
                ],
                BTreeMap::from([
                    ("TargetApp".to_owned(), iri("applicationId")),
                    ("MonitorId".to_owned(), iri("monitorId")),
                    ("FeedbackId".to_owned(), iri("feedbackGatheringId")),
                ]),
            ),
        )
        .unwrap();

        (o, registry)
    }

    fn expanded_query() -> Omq {
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
                // Expansion additions:
                Triple::new(
                    iri("Monitor"),
                    (*vocab::g::HAS_FEATURE).clone(),
                    iri("monitorId"),
                ),
            ],
        )
    }

    #[test]
    fn produces_the_papers_phase2_output() {
        let (o, _) = setup();
        let concepts = vec![
            iri("SoftwareApplication"),
            iri("Monitor"),
            iri("InfoMonitor"),
        ];
        let partial = intra_concept_generation(&o, &concepts, &expanded_query(), None);

        assert_eq!(partial.len(), 3);
        // SoftwareApplication → {Π D3/TargetApp (w3)}
        let (c0, w0) = &partial[0];
        assert_eq!(c0.local_name(), "SoftwareApplication");
        assert_eq!(w0.len(), 1);
        assert!(w0[0]
            .projections_of(&vocab::wrapper_uri("w3"))
            .unwrap()
            .contains(&vocab::attribute_uri("D3", "TargetApp")));

        // Monitor → {Π D1/VoDmonitorId (w1), Π D3/MonitorId (w3)}
        let (c1, w1) = &partial[1];
        assert_eq!(c1.local_name(), "Monitor");
        assert_eq!(w1.len(), 2);

        // InfoMonitor → {Π D1/lagRatio (w1)}
        let (c2, w2) = &partial[2];
        assert_eq!(c2.local_name(), "InfoMonitor");
        assert_eq!(w2.len(), 1);
        assert!(w2[0]
            .projections_of(&vocab::wrapper_uri("w1"))
            .unwrap()
            .contains(&vocab::attribute_uri("D1", "lagRatio")));
    }

    #[test]
    fn wrappers_missing_a_feature_are_pruned() {
        let (o, mut registry) = setup();
        // w5 provides Monitor's monitorId but the query also wants lagRatio
        // for InfoMonitor — for the *Monitor* concept both w1, w3 and w5
        // qualify; but for a two-feature concept, a one-feature wrapper is
        // pruned. Attach a second feature to Monitor and query it.
        o.add_feature(&iri("monitorLabel"));
        o.attach_feature(&iri("Monitor"), &iri("monitorLabel"))
            .unwrap();
        let w5: Arc<dyn Wrapper> = Arc::new(
            TableWrapper::new(
                "w5",
                "D5",
                Schema::from_parts(&["mid"], &["label"]).unwrap(),
                vec![],
            )
            .unwrap(),
        );
        apply_release(
            &o,
            &mut registry,
            Release::new(
                w5,
                vec![
                    Triple::new(
                        iri("Monitor"),
                        (*vocab::g::HAS_FEATURE).clone(),
                        iri("monitorId"),
                    ),
                    Triple::new(
                        iri("Monitor"),
                        (*vocab::g::HAS_FEATURE).clone(),
                        iri("monitorLabel"),
                    ),
                ],
                BTreeMap::from([
                    ("mid".to_owned(), iri("monitorId")),
                    ("label".to_owned(), iri("monitorLabel")),
                ]),
            ),
        )
        .unwrap();

        let mut q = expanded_query();
        q.extend_phi(Triple::new(
            iri("Monitor"),
            (*vocab::g::HAS_FEATURE).clone(),
            iri("monitorLabel"),
        ));
        let concepts = vec![iri("Monitor")];
        let partial = intra_concept_generation(&o, &concepts, &q, None);
        // Only w5 provides BOTH monitorId and monitorLabel.
        assert_eq!(partial[0].1.len(), 1);
        assert_eq!(
            partial[0].1[0].wrappers().into_iter().next().unwrap(),
            &vocab::wrapper_uri("w5")
        );
    }

    #[test]
    fn unprovided_features_yield_empty_walk_lists() {
        let (o, _) = setup();
        o.add_feature(&iri("unmapped"));
        o.attach_feature(&iri("InfoMonitor"), &iri("unmapped"))
            .unwrap();
        let mut q = expanded_query();
        q.extend_phi(Triple::new(
            iri("InfoMonitor"),
            (*vocab::g::HAS_FEATURE).clone(),
            iri("unmapped"),
        ));
        let partial = intra_concept_generation(&o, &[iri("InfoMonitor")], &q, None);
        assert!(partial[0].1.is_empty());
    }
}
