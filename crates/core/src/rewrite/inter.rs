//! Phase #3 — inter-concept generation (Algorithm 5).
//!
//! Joins the per-concept partial walks into complete walks. The phase slides
//! a two-element window over the concept list (steps ⑦–⑩): for every pair
//! in the cartesian product of the adjacent concepts' walk lists it merges
//! the two walks; if they share a wrapper the join is already materialized,
//! otherwise it discovers a join through the wrappers whose LAV graph
//! provides the edge between the two concepts, joining on the ID feature of
//! the edge's target (lines 9–17; the symmetric direction per line 20).
//!
//! One generalization over the paper's pseudocode: when the edge-providing
//! wrapper belongs to *neither* side (a pure connector), we also join it to
//! the left side on the source concept's ID, keeping the walk connected.
//! The paper's running example never exercises this case; without it such
//! pairs would produce disconnected expressions that its own
//! coverage/minimality filter then has to discard.

use super::intra::PartialWalks;
use super::walk::{JoinCondition, Walk};
use crate::ontology::BdiOntology;
use bdi_rdf::model::Iri;

/// Algorithm 5 — `InterConceptGeneration(partialWalks, S, M)`.
pub(crate) fn inter_concept_generation(
    ontology: &BdiOntology,
    partial_walks: &PartialWalks,
) -> Vec<Walk> {
    let Some((_, first_walks)) = partial_walks.first() else {
        return Vec::new();
    };
    let mut current_concept = &partial_walks[0].0;
    let mut current_walks: Vec<Walk> = first_walks.clone();

    for (next_concept, next_walks) in &partial_walks[1..] {
        let mut joined: Vec<Walk> = Vec::new();

        // Step ⑦: cartesian product of the two walk lists.
        for left in &current_walks {
            for right in next_walks {
                // Step ⑧: merge projections (and any accumulated joins).
                let mut merged = left.clone();
                merged.merge(right);

                if left.shares_wrapper_with(right) {
                    // Join materialized by the shared wrapper.
                    joined.push(merged);
                    continue;
                }

                // Steps ⑨–⑩: discover join wrappers and attributes.
                let ltr = ontology.wrappers_providing_edge(current_concept, next_concept);
                if !ltr.is_empty() {
                    join_through(
                        ontology,
                        &merged,
                        left,
                        right,
                        current_concept,
                        next_concept,
                        &ltr,
                        &mut joined,
                    );
                    continue;
                }
                let rtl = ontology.wrappers_providing_edge(next_concept, current_concept);
                if !rtl.is_empty() {
                    // Line 20: same process inverting left and right.
                    join_through(
                        ontology,
                        &merged,
                        right,
                        left,
                        next_concept,
                        current_concept,
                        &rtl,
                        &mut joined,
                    );
                }
                // No edge provider in either direction: the pair yields no
                // walk (the sources cannot be joined for this query).
            }
        }

        current_concept = next_concept;
        current_walks = joined;
    }
    current_walks
}

/// Lines 12–18 of Algorithm 5, for the edge `from → to`: joins each
/// edge-providing wrapper `w` with the wrapper holding the join-key ID.
///
/// Two strategies, tried in order:
/// 1. **target ID** (the paper's lines 12–14): join on `to`'s ID feature,
///    held by a wrapper of `to_walk`;
/// 2. **source ID** fallback: when `to` has no ID feature — the running
///    example's event-like `InfoMonitor` — join on `from`'s ID instead,
///    held by a wrapper of `from_walk`. This is exactly how the paper's own
///    example output joins `w1 ⋈ w3` on `monitorId` even though the queried
///    `InfoMonitor` concept carries no identifier.
#[allow(clippy::too_many_arguments)]
fn join_through(
    ontology: &BdiOntology,
    merged: &Walk,
    from_walk: &Walk,
    to_walk: &Walk,
    from_concept: &Iri,
    to_concept: &Iri,
    edge_wrappers: &[Iri],
    out: &mut Vec<Walk>,
) {
    let strategies: [(&Iri, &Walk, &Iri, &Walk); 2] = [
        (to_concept, to_walk, from_concept, from_walk),
        (from_concept, from_walk, to_concept, to_walk),
    ];
    for (key_concept, key_walk, anchor_concept, anchor_walk) in strategies {
        let produced = join_on_concept_id(
            ontology,
            merged,
            key_concept,
            key_walk,
            anchor_concept,
            anchor_walk,
            edge_wrappers,
            out,
        );
        if produced {
            return;
        }
    }
}

/// One join-discovery attempt keyed on `key_concept`'s ID (held by a wrapper
/// of `key_walk`). Returns whether any walk was produced.
#[allow(clippy::too_many_arguments)]
fn join_on_concept_id(
    ontology: &BdiOntology,
    merged: &Walk,
    key_concept: &Iri,
    key_walk: &Walk,
    anchor_concept: &Iri,
    anchor_walk: &Walk,
    edge_wrappers: &[Iri],
    out: &mut Vec<Walk>,
) -> bool {
    // Line 12: the ID feature used as the join key.
    let Some(f_id) = ontology.id_features_of(key_concept).into_iter().next() else {
        return false;
    };
    // Lines 13–14: the wrapper holding that ID, with its physical attribute.
    let Some((id_wrapper, id_attr)) = find_wrapper_with_id(ontology, key_walk, &f_id) else {
        return false;
    };

    // Prefer edge providers already inside the merged walk: when a direct
    // join exists, connector walks would only add a redundant wrapper that
    // the minimality filter culls anyway — skipping them here keeps phase 3
    // at the §5.3 bound of Π(#W)_Ci generated walks.
    let direct: Vec<&Iri> = edge_wrappers
        .iter()
        .filter(|w| *w != &id_wrapper && merged.wrappers().contains(*w))
        .collect();
    let chosen: Vec<&Iri> = if direct.is_empty() {
        edge_wrappers.iter().filter(|w| *w != &id_wrapper).collect()
    } else {
        direct
    };

    // Lines 15–17: one candidate walk per edge-providing wrapper.
    let before = out.len();
    for w in chosen {
        let Some(att_edge) = ontology.attribute_for_feature(w, &f_id) else {
            continue;
        };
        let mut walk = merged.clone();
        if merged.wrappers().contains(w) {
            walk.add_join(JoinCondition {
                left_wrapper: w.clone(),
                left_attribute: att_edge,
                right_wrapper: id_wrapper.clone(),
                right_attribute: id_attr.clone(),
            });
            out.push(walk);
            continue;
        }
        // Connector case (generalization, see module docs): also anchor `w`
        // on the other concept's ID so the walk stays connected.
        let Some(f_id_anchor) = ontology.id_features_of(anchor_concept).into_iter().next() else {
            continue;
        };
        let Some(att_w_anchor) = ontology.attribute_for_feature(w, &f_id_anchor) else {
            continue;
        };
        let Some((anchor_id_wrapper, anchor_id_attr)) =
            find_wrapper_with_id(ontology, anchor_walk, &f_id_anchor)
        else {
            continue;
        };
        walk.add_join(JoinCondition {
            left_wrapper: anchor_id_wrapper,
            left_attribute: anchor_id_attr,
            right_wrapper: w.clone(),
            right_attribute: att_w_anchor,
        });
        walk.add_join(JoinCondition {
            left_wrapper: w.clone(),
            left_attribute: att_edge,
            right_wrapper: id_wrapper.clone(),
            right_attribute: id_attr.clone(),
        });
        out.push(walk);
    }
    out.len() > before
}

/// `findWrapperWithID` (line 13): the wrapper of `walk` that provides the
/// given ID feature, together with its physical attribute.
fn find_wrapper_with_id(ontology: &BdiOntology, walk: &Walk, f_id: &Iri) -> Option<(Iri, Iri)> {
    for wrapper in walk.wrappers() {
        if let Some(attr) = ontology.attribute_for_feature(wrapper, f_id) {
            return Some((wrapper.clone(), attr));
        }
    }
    None
}
