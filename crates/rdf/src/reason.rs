//! RDFS entailment.
//!
//! The paper restricts reasoning to the **RDFS entailment regime** (§2, §8),
//! deliberately *not* a description-logic reasoner. Rewriting needs one
//! consequence of it: `rdfs:subClassOf` reachability, which makes the
//! feature taxonomy (`sup:monitorId rdfs:subClassOf sc:identifier`)
//! queryable. [`is_subclass_of`] answers it on demand, in id space and
//! without mutating the store, so the ontology never has to be
//! materialized; `BdiOntology::is_id_feature` is its caller.

use crate::model::Iri;
use crate::store::{IdGraph, IdPattern, QuadStore};
use crate::vocab::rdfs;
use std::collections::{HashSet, VecDeque};

/// True when `sub rdfs:subClassOf* sup` holds under RDFS entailment
/// (reflexive-transitive reachability), without materializing.
///
/// Early-exits the id-space BFS as soon as the target id is reached, never
/// decoding a term.
pub fn is_subclass_of(store: &QuadStore, sub: &Iri, sup: &Iri) -> bool {
    if sub == sup {
        return true;
    }
    let reader = store.reader();
    let (Some(start), Some(target), Some(p)) = (
        reader.iri_id(sub),
        reader.iri_id(sup),
        reader.iri_id(&rdfs::SUB_CLASS_OF),
    ) else {
        return false;
    };
    let mut seen: HashSet<u32> = HashSet::from([start.raw()]);
    let mut queue: VecDeque<u32> = VecDeque::from([start.raw()]);
    while let Some(current) = queue.pop_front() {
        let mut found = false;
        reader.for_each_match(
            IdPattern {
                s: Some(current),
                p: Some(p.raw()),
                o: None,
                g: IdGraph::Any,
            },
            |[_, _, _, o]| {
                if o == target.raw() {
                    found = true;
                }
                if seen.insert(o) {
                    queue.push_back(o);
                }
            },
        );
        if found {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{GraphName, Term};

    fn iri(s: &str) -> Iri {
        Iri::new(s)
    }

    fn setup_taxonomy() -> QuadStore {
        let store = QuadStore::new();
        let g = GraphName::Default;
        // monitorId ⊑ toolId ⊑ identifier
        store.insert_in(
            &g,
            iri("http://e/monitorId"),
            (*rdfs::SUB_CLASS_OF).clone(),
            iri("http://e/toolId"),
        );
        store.insert_in(
            &g,
            iri("http://e/toolId"),
            (*rdfs::SUB_CLASS_OF).clone(),
            iri("http://schema.org/identifier"),
        );
        store
    }

    #[test]
    fn subclass_reachability_is_transitive() {
        let store = setup_taxonomy();
        assert!(is_subclass_of(
            &store,
            &iri("http://e/monitorId"),
            &iri("http://schema.org/identifier")
        ));
        assert!(is_subclass_of(
            &store,
            &iri("http://e/monitorId"),
            &iri("http://e/monitorId")
        ));
        assert!(!is_subclass_of(
            &store,
            &iri("http://schema.org/identifier"),
            &iri("http://e/monitorId")
        ));
    }

    #[test]
    fn closure_traverses_through_blank_intermediates() {
        // A ⊑ _:b ⊑ C: reachability must pass through the blank node.
        let store = QuadStore::new();
        let g = GraphName::Default;
        let blank = Term::Blank(crate::model::BlankNode::new("b0"));
        store.insert_in(
            &g,
            iri("http://e/A"),
            (*rdfs::SUB_CLASS_OF).clone(),
            blank.clone(),
        );
        let blank = crate::model::Subject::try_from(blank).unwrap();
        store.insert_in(&g, blank, (*rdfs::SUB_CLASS_OF).clone(), iri("http://e/C"));
        assert!(is_subclass_of(
            &store,
            &iri("http://e/A"),
            &iri("http://e/C")
        ));
    }

    #[test]
    fn cyclic_taxonomy_terminates() {
        let store = QuadStore::new();
        let g = GraphName::Default;
        store.insert_in(
            &g,
            iri("http://e/A"),
            (*rdfs::SUB_CLASS_OF).clone(),
            iri("http://e/B"),
        );
        store.insert_in(
            &g,
            iri("http://e/B"),
            (*rdfs::SUB_CLASS_OF).clone(),
            iri("http://e/A"),
        );
        assert!(is_subclass_of(
            &store,
            &iri("http://e/A"),
            &iri("http://e/B")
        ));
        assert!(is_subclass_of(
            &store,
            &iri("http://e/B"),
            &iri("http://e/A")
        ));
    }
}
