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

use super::admitted_only;
use super::intra::PartialWalks;
use super::walk::{JoinCondition, Walk};
use crate::ontology::BdiOntology;
use bdi_rdf::model::Iri;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

/// `BdiOntology::attribute_for_feature`, as the join discovery asks it.
type AttributeOf<'a> = &'a dyn Fn(&Iri, &Iri) -> Option<Iri>;

/// Algorithm 5 — `InterConceptGeneration(partialWalks, S, M)`. Only the
/// `admitted` wrappers provide edges, so an out-of-scope provider never
/// pre-empts the reverse direction or the source-ID strategy.
pub(crate) fn inter_concept_generation(
    ontology: &BdiOntology,
    partial_walks: &PartialWalks,
    admitted: Option<&BTreeSet<Iri>>,
) -> Vec<Walk> {
    let providers = |from, to| admitted_only(ontology.wrappers_providing_edge(from, to), admitted);
    // Line 12: the ID feature a join on a concept keys on.
    let id_of = |concept| ontology.id_features_of(concept).into_iter().next();
    // Every walk pair of a step asks about the same few (wrapper, feature)
    // pairs: look each up once.
    let memo = RefCell::new(BTreeMap::new());
    let attribute = |wrapper: &Iri, feature: &Iri| {
        (memo.borrow_mut().entry((wrapper.clone(), feature.clone())))
            .or_insert_with(|| ontology.attribute_for_feature(wrapper, feature))
            .clone()
    };
    let Some((first_concept, first_walks)) = partial_walks.first() else {
        return Vec::new();
    };
    let mut current_concept = first_concept;
    let mut current_id = id_of(first_concept);
    let mut current_walks: Vec<Walk> = first_walks.clone();

    for (next_concept, next_walks) in &partial_walks[1..] {
        let mut joined: Vec<Walk> = Vec::new();
        let next_id = id_of(next_concept);
        // Steps ⑨–⑩: the wrappers providing the edge, either way round.
        let ltr = providers(current_concept, next_concept);
        let rtl = providers(next_concept, current_concept);

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

                // Lines 12–18 over the edge `from → to`: `ltr`, else `rtl`
                // with left and right inverted (line 20). No provider either
                // way: the pair yields no walk.
                let (edge_wrappers, from, to) = if !ltr.is_empty() {
                    (&ltr, (current_id.as_ref(), left), (next_id.as_ref(), right))
                } else if !rtl.is_empty() {
                    (&rtl, (next_id.as_ref(), right), (current_id.as_ref(), left))
                } else {
                    continue;
                };
                // Two strategies, in order: 1. **target ID** (the paper's
                // lines 12–14), keyed on `to`'s ID feature; 2. **source ID**,
                // when `to` has none — the running example's event-like
                // `InfoMonitor` — keyed on `from`'s. This is how the paper's
                // own output joins `w1 ⋈ w3` on `monitorId` although
                // `InfoMonitor` carries no identifier.
                for (key, anchor) in [(to, from), (from, to)] {
                    if join_on_id(&attribute, &merged, key, anchor, edge_wrappers, &mut joined) {
                        break;
                    }
                }
            }
        }

        current_concept = next_concept;
        current_id = next_id;
        current_walks = joined;
    }
    current_walks
}

/// A concept's ID feature, and the walk holding that concept.
type Side<'a> = (Option<&'a Iri>, &'a Walk);

/// Joins each of `edge_wrappers` with the wrapper of `key`'s walk holding
/// `key`'s ID feature. Returns whether any walk was produced.
fn join_on_id(
    attribute: AttributeOf,
    merged: &Walk,
    (key_id, key_walk): Side,
    (anchor_id, anchor_walk): Side,
    edge_wrappers: &[Iri],
    out: &mut Vec<Walk>,
) -> bool {
    let Some(f_id) = key_id else {
        return false;
    };
    // Lines 13–14: the wrapper holding that ID, with its physical attribute.
    let Some((id_wrapper, id_attr)) = find_wrapper_with_id(attribute, key_walk, f_id) else {
        return false;
    };

    // Prefer edge providers already inside the merged walk: when a direct
    // join exists, connector walks would only add a redundant wrapper that
    // the minimality filter culls anyway — skipping them here keeps phase 3
    // at the §5.3 bound of Π(#W)_Ci generated walks.
    let direct: Vec<&Iri> = edge_wrappers
        .iter()
        .filter(|w| *w != &id_wrapper && merged.projections_of(w).is_some())
        .collect();
    let chosen: Vec<&Iri> = if direct.is_empty() {
        edge_wrappers.iter().filter(|w| *w != &id_wrapper).collect()
    } else {
        direct
    };

    // Lines 15–17: one candidate walk per edge-providing wrapper.
    let before = out.len();
    for w in chosen {
        let Some(att_edge) = attribute(w, f_id) else {
            continue;
        };
        let mut walk = merged.clone();
        if merged.projections_of(w).is_some() {
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
        let Some(f_id_anchor) = anchor_id else {
            continue;
        };
        let Some(att_w_anchor) = attribute(w, f_id_anchor) else {
            continue;
        };
        let Some((anchor_id_wrapper, anchor_id_attr)) =
            find_wrapper_with_id(attribute, anchor_walk, f_id_anchor)
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
fn find_wrapper_with_id(attribute: AttributeOf, walk: &Walk, f_id: &Iri) -> Option<(Iri, Iri)> {
    for wrapper in walk.wrappers() {
        if let Some(attr) = attribute(wrapper, f_id) {
            return Some((wrapper.clone(), attr));
        }
    }
    None
}
