//! LAV-subgraph suggestion — the other steward-assist of §4.1.
//!
//! "To define the graph G [of a release], the user can be presented with
//! subgraphs of G that cover all features." Given the set of features a new
//! wrapper provides, this module computes a connected subgraph of the Global
//! graph covering them: the owning concepts, the `G:hasFeature` edges, and a
//! shortest path of object properties connecting the concepts (a pairwise
//! Steiner approximation — optimal for the tree-shaped domain graphs the
//! paper works with).

use crate::ontology::BdiOntology;
use crate::vocab;
use bdi_rdf::model::{Iri, Term, Triple};
use bdi_rdf::store::GraphPattern;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Errors raised when no covering subgraph exists.
#[derive(Debug, Clone, PartialEq, Eq, thiserror::Error)]
pub enum SubgraphError {
    #[error("{0} is not a feature of G")]
    NotAFeature(String),
    #[error("feature {0} is not attached to any concept")]
    OrphanFeature(String),
    #[error("concepts {0} and {1} are not connected in G; no LAV subgraph covers the feature set")]
    Disconnected(String, String),
    #[error("empty feature set")]
    Empty,
}

/// An undirected view of `G`'s concept-to-concept edges, remembering each
/// edge's original direction and property.
fn concept_adjacency(ontology: &BdiOntology) -> BTreeMap<Iri, Vec<(Iri, Iri, bool)>> {
    // value items: (neighbor, property, forward?) where forward means the
    // G triple is ⟨this, property, neighbor⟩.
    let mut adj: BTreeMap<Iri, Vec<(Iri, Iri, bool)>> = BTreeMap::new();
    let g = GraphPattern::Named((*vocab::graphs::GLOBAL).clone());
    for concept in ontology.concepts() {
        for quad in ontology
            .store()
            .match_quads(Some(&Term::Iri(concept.clone())), None, None, &g)
        {
            if quad.predicate == *vocab::g::HAS_FEATURE
                || quad.predicate == *bdi_rdf::vocab::rdf::TYPE
            {
                continue;
            }
            let Term::Iri(object) = &quad.object else {
                continue;
            };
            if !ontology.is_concept(object) {
                continue;
            }
            adj.entry(concept.clone()).or_default().push((
                object.clone(),
                quad.predicate.clone(),
                true,
            ));
            adj.entry(object.clone()).or_default().push((
                concept.clone(),
                quad.predicate.clone(),
                false,
            ));
        }
    }
    adj
}

/// BFS shortest path between two concepts over the undirected concept graph.
/// Returns the *directed* `G` triples along the path.
fn shortest_path(
    adj: &BTreeMap<Iri, Vec<(Iri, Iri, bool)>>,
    from: &Iri,
    to: &Iri,
) -> Option<Vec<Triple>> {
    if from == to {
        return Some(Vec::new());
    }
    let mut previous: BTreeMap<&Iri, (&Iri, &Iri, bool)> = BTreeMap::new();
    let mut queue = VecDeque::from([from]);
    let mut seen: BTreeSet<&Iri> = BTreeSet::from([from]);
    while let Some(current) = queue.pop_front() {
        for (neighbor, property, forward) in adj.get(current).into_iter().flatten() {
            if !seen.insert(neighbor) {
                continue;
            }
            previous.insert(neighbor, (current, property, *forward));
            if neighbor == to {
                // Reconstruct.
                let mut path = Vec::new();
                let mut cursor = neighbor;
                while cursor != from {
                    let (prev, property, forward) = previous[cursor];
                    path.push(if forward {
                        Triple::new(prev.clone(), property.clone(), cursor.clone())
                    } else {
                        Triple::new(cursor.clone(), property.clone(), prev.clone())
                    });
                    cursor = prev;
                }
                path.reverse();
                return Some(path);
            }
            queue.push_back(neighbor);
        }
    }
    None
}

/// Suggests a connected LAV subgraph of `G` covering `features`.
///
/// The result contains one `G:hasFeature` triple per feature plus the
/// object-property triples connecting all owning concepts, and is ready to
/// use as the `R.G` component of a [`crate::release::Release`].
pub fn suggest_lav_graph(
    ontology: &BdiOntology,
    features: &[Iri],
) -> Result<Vec<Triple>, SubgraphError> {
    if features.is_empty() {
        return Err(SubgraphError::Empty);
    }

    let mut triples: Vec<Triple> = Vec::new();
    let mut concepts: Vec<Iri> = Vec::new();
    for feature in features {
        if !ontology.is_feature(feature) {
            return Err(SubgraphError::NotAFeature(feature.as_str().to_owned()));
        }
        let concept = ontology
            .concept_of(feature)
            .ok_or_else(|| SubgraphError::OrphanFeature(feature.as_str().to_owned()))?;
        triples.push(Triple::new(
            concept.clone(),
            (*vocab::g::HAS_FEATURE).clone(),
            feature.clone(),
        ));
        if !concepts.contains(&concept) {
            concepts.push(concept);
        }
    }

    // Connect the concepts pairwise along shortest paths (anchor to the
    // first concept; good enough for tree-shaped G, and always connected).
    let adj = concept_adjacency(ontology);
    let anchor = concepts[0].clone();
    for concept in &concepts[1..] {
        let path = shortest_path(&adj, &anchor, concept).ok_or_else(|| {
            SubgraphError::Disconnected(
                anchor.local_name().to_owned(),
                concept.local_name().to_owned(),
            )
        })?;
        for triple in path {
            if !triples.contains(&triple) {
                triples.push(triple);
            }
        }
    }
    Ok(triples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supersede::{self, concepts, features};

    #[test]
    fn single_concept_features_need_no_edges() {
        let system = supersede::build_running_example();
        let lav = suggest_lav_graph(system.ontology(), &[features::monitor_id()]).unwrap();
        assert_eq!(lav.len(), 1);
        assert_eq!(lav[0].subject, concepts::monitor().into());
    }

    #[test]
    fn w1_style_release_subgraph_is_reconstructed() {
        // monitorId + lagRatio → Monitor —generatesQoS→ InfoMonitor.
        let system = supersede::build_running_example();
        let lav = suggest_lav_graph(
            system.ontology(),
            &[features::monitor_id(), features::lag_ratio()],
        )
        .unwrap();
        assert_eq!(lav.len(), 3);
        assert!(lav.contains(&Triple::new(
            concepts::monitor(),
            supersede::sup("generatesQoS"),
            concepts::info_monitor()
        )));
        // The suggested subgraph is accepted by release validation (against
        // G alone: the running example has registered `w1` already).
        let store = bdi_wrappers::supersede::sample_docstore();
        let release = crate::release::Release::new(
            std::sync::Arc::new(bdi_wrappers::supersede::wrapper_w1(store)),
            lav,
            std::collections::BTreeMap::from([
                ("VoDmonitorId".to_owned(), features::monitor_id()),
                ("lagRatio".to_owned(), features::lag_ratio()),
            ]),
        );
        crate::release::validate_release(
            &supersede::build_ontology(),
            &bdi_wrappers::WrapperRegistry::new(),
            &release,
        )
        .unwrap();
    }

    #[test]
    fn multi_hop_paths_are_found() {
        // applicationId + lagRatio: App —hasMonitor→ Monitor —generatesQoS→
        // InfoMonitor (two hops).
        let system = supersede::build_running_example();
        let lav = suggest_lav_graph(
            system.ontology(),
            &[features::application_id(), features::lag_ratio()],
        )
        .unwrap();
        assert!(lav.contains(&Triple::new(
            concepts::software_application(),
            supersede::sup("hasMonitor"),
            concepts::monitor()
        )));
        assert!(lav.contains(&Triple::new(
            concepts::monitor(),
            supersede::sup("generatesQoS"),
            concepts::info_monitor()
        )));
        assert_eq!(lav.len(), 4);
    }

    #[test]
    fn reverse_direction_edges_are_usable() {
        // description (UserFeedback) + applicationId (App): the path runs
        // App →hasFGTool→ FG →generatesUF→ UserFeedback; starting from
        // description's concept the BFS must traverse edges "backwards" but
        // emit them in G's direction.
        let system = supersede::build_running_example();
        let lav = suggest_lav_graph(
            system.ontology(),
            &[features::description(), features::application_id()],
        )
        .unwrap();
        assert!(lav.contains(&Triple::new(
            concepts::feedback_gathering(),
            supersede::sup("generatesUF"),
            concepts::user_feedback()
        )));
        assert!(lav.contains(&Triple::new(
            concepts::software_application(),
            supersede::sup("hasFGTool"),
            concepts::feedback_gathering()
        )));
    }

    #[test]
    fn disconnected_concepts_error() {
        let system = supersede::build_running_example();
        let island = supersede::sup("Island");
        let island_f = supersede::sup("islandFeature");
        system.ontology().add_concept(&island);
        system.ontology().add_feature(&island_f);
        system
            .ontology()
            .attach_feature(&island, &island_f)
            .unwrap();
        let err =
            suggest_lav_graph(system.ontology(), &[features::monitor_id(), island_f]).unwrap_err();
        assert!(matches!(err, SubgraphError::Disconnected(_, _)));
    }

    #[test]
    fn error_cases() {
        let system = supersede::build_running_example();
        assert!(matches!(
            suggest_lav_graph(system.ontology(), &[]),
            Err(SubgraphError::Empty)
        ));
        assert!(matches!(
            suggest_lav_graph(system.ontology(), &[supersede::sup("nope")]),
            Err(SubgraphError::NotAFeature(_))
        ));
    }
}
