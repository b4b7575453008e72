//! Synthetic worst-case workload generator for the §5.3 complexity study
//! (Figure 8).
//!
//! Builds a chain of `C` concepts `c_1 → c_2 → … → c_C`, each with an ID
//! feature and a data feature, and registers `W` **disjoint** wrappers per
//! concept (each from its own data source, so no two can be deduplicated).
//! Every wrapper of `c_i` provides `c_i`'s features, the edge to `c_{i+1}`
//! and `c_{i+1}`'s ID — exactly the worst case of §5.3, where query
//! answering must generate all `W^C` combinations.

use bdi_core::omq::Omq;
use bdi_core::release::Release;
use bdi_core::system::BdiSystem;
use bdi_core::vocab as core_vocab;
use bdi_rdf::model::{Iri, Triple};
use bdi_relational::{Schema, Value};
use bdi_wrappers::{TableWrapper, Wrapper};
use std::collections::BTreeMap;
use std::sync::Arc;

const NS: &str = "http://www.essi.upc.edu/~snadal/synthetic/";

fn iri(name: &str) -> Iri {
    Iri::new(format!("{NS}{name}"))
}

fn concept(i: usize) -> Iri {
    iri(&format!("C{i}"))
}

fn id_feature(i: usize) -> Iri {
    iri(&format!("id{i}"))
}

fn data_feature(i: usize) -> Iri {
    iri(&format!("f{i}"))
}

fn edge(i: usize) -> Iri {
    iri(&format!("edge{i}"))
}

fn has_feature(c: &Iri, f: &Iri) -> Triple {
    Triple::new(c.clone(), (*core_vocab::g::HAS_FEATURE).clone(), f.clone())
}

/// A noise (never-queried) feature of concept `i` — used to give wrappers
/// wide schemas so projection pushdown has something to skip.
pub fn noise_feature(i: usize, k: usize) -> Iri {
    iri(&format!("noise{i}_{k}"))
}

/// Builds the chain system: `concepts` concepts, `wrappers_per_concept`
/// disjoint wrappers each. Every wrapper carries `rows` tuples of data.
pub fn build_chain_system(concepts: usize, wrappers_per_concept: usize, rows: usize) -> BdiSystem {
    build_chain_prefix(concepts, wrappers_per_concept, rows, usize::MAX)
}

/// [`build_chain_system`] after only its first `releases` registrations
/// (`w_1_1 … w_1_W, w_2_1, …`).
pub fn build_chain_prefix(c: usize, w: usize, rows: usize, releases: usize) -> BdiSystem {
    build_chain_system_with(c, w, 0, releases, |_, _, schema| {
        let last = schema.index_of("next_id").is_none();
        (0..rows)
            .map(|r| {
                let mut row = vec![Value::Int(r as i64)];
                if !last {
                    row.push(Value::Int(r as i64));
                }
                row.push(Value::Float(r as f64 / 10.0));
                row
            })
            .collect()
    })
}

/// The chain system with caller-supplied wrapper data and optional noise
/// columns.
///
/// Wrapper `j` of concept `i` exposes `id{i}` (+ `next_id` when `i` is not
/// the last concept), the data column `f{i}`, and `noise_columns` extra
/// columns `n0..` mapped to per-concept noise features no chain query ever
/// requests — they exist so projection pushdown is measurable. Registration
/// goes concept by concept and stops after `releases` wrappers. `rows_for`
/// receives `(concept, wrapper, schema)` and must return rows matching the
/// schema's arity; the differential property tests use it to feed randomized
/// (null-bearing, cross-typed) data through both execution engines.
pub fn build_chain_system_with(
    concepts: usize,
    wrappers_per_concept: usize,
    noise_columns: usize,
    releases: usize,
    mut rows_for: impl FnMut(usize, usize, &Schema) -> Vec<Vec<Value>>,
) -> BdiSystem {
    assert!(concepts >= 1);
    let mut system = BdiSystem::new();
    let ontology = system.ontology();

    for i in 1..=concepts {
        let c = concept(i);
        ontology.add_concept(&c);
        let id = id_feature(i);
        ontology.add_id_feature(&id);
        ontology.attach_feature(&c, &id).expect("synthetic model");
        let f = data_feature(i);
        ontology.add_feature(&f);
        ontology.attach_feature(&c, &f).expect("synthetic model");
        for k in 0..noise_columns {
            let n = noise_feature(i, k);
            ontology.add_feature(&n);
            ontology.attach_feature(&c, &n).expect("synthetic model");
        }
        if i > 1 {
            ontology
                .add_object_property(&edge(i - 1), &concept(i - 1), &c)
                .expect("synthetic model");
        }
    }

    for i in 1..=concepts {
        for j in 1..=wrappers_per_concept {
            if system.release_log().len() == releases {
                return system;
            }
            let last = i == concepts;
            // Schema: own ID + own data feature (+ next concept's ID) plus
            // the noise columns.
            let ids: Vec<String> = if last {
                vec![format!("id{i}")]
            } else {
                vec![format!("id{i}"), format!("next_id")]
            };
            let mut non_ids = vec![format!("f{i}")];
            non_ids.extend((0..noise_columns).map(|k| format!("n{k}")));
            let schema = Schema::from_parts(&ids, &non_ids).expect("synthetic names are unique");
            let data = rows_for(i, j, &schema);
            let wrapper = Arc::new(
                TableWrapper::new(
                    format!("w_{i}_{j}"),
                    format!("D_{i}_{j}"), // disjoint: one source per wrapper
                    schema,
                    data,
                )
                .expect("synthetic rows match schema"),
            );

            let mut lav = vec![
                has_feature(&concept(i), &id_feature(i)),
                has_feature(&concept(i), &data_feature(i)),
            ];
            let mut mappings = BTreeMap::from([
                (format!("id{i}"), id_feature(i)),
                (format!("f{i}"), data_feature(i)),
            ]);
            for k in 0..noise_columns {
                lav.push(has_feature(&concept(i), &noise_feature(i, k)));
                mappings.insert(format!("n{k}"), noise_feature(i, k));
            }
            if !last {
                lav.push(Triple::new(concept(i), edge(i), concept(i + 1)));
                lav.push(has_feature(&concept(i + 1), &id_feature(i + 1)));
                mappings.insert("next_id".to_owned(), id_feature(i + 1));
            }

            system
                .register_release(Release::new(wrapper, lav, mappings))
                .expect("synthetic releases are valid");
        }
    }
    system
}

/// Registers one more disjoint wrapper for (terminal) concept `i` under the
/// fresh index `j` — used to exercise release-driven cache invalidation
/// after a system is built. The wrapper exposes `id{i}` and `f{i}` only
/// (no chain edge), so it only joins chains where `c_i` is the last hop.
pub fn register_extra_chain_wrapper(
    system: &mut BdiSystem,
    i: usize,
    j: usize,
    rows: Vec<Vec<Value>>,
) {
    register_extra_chain_wrapper_handle(system, i, j, rows);
}

/// [`register_extra_chain_wrapper`], returning the concrete wrapper handle
/// so tests can mutate its data (`TableWrapper::push`) after registration —
/// the scenario the stale-scan-reuse regression suite drives.
pub fn register_extra_chain_wrapper_handle(
    system: &mut BdiSystem,
    i: usize,
    j: usize,
    rows: Vec<Vec<Value>>,
) -> Arc<TableWrapper> {
    let schema = Schema::from_parts(&[format!("id{i}")], &[format!("f{i}")])
        .expect("synthetic names are unique");
    let wrapper = Arc::new(
        TableWrapper::new(format!("w_{i}_{j}"), format!("D_{i}_{j}"), schema, rows)
            .expect("synthetic rows match schema"),
    );
    register_extra_chain_wrapper_of(system, i, wrapper.clone());
    wrapper
}

/// Registers any wrapper exposing attributes `id{i}` and `f{i}` as one more
/// version of (terminal) concept `i` — how the differential suites put a
/// document-store wrapper beside the chain's table wrappers.
pub fn register_extra_chain_wrapper_of(
    system: &mut BdiSystem,
    i: usize,
    wrapper: Arc<dyn Wrapper>,
) {
    let lav = vec![
        has_feature(&concept(i), &id_feature(i)),
        has_feature(&concept(i), &data_feature(i)),
    ];
    let mappings = BTreeMap::from([
        (format!("id{i}"), id_feature(i)),
        (format!("f{i}"), data_feature(i)),
    ]);
    system
        .register_release(Release::new(wrapper, lav, mappings))
        .expect("synthetic releases are valid");
}

/// The query navigating the whole chain and projecting every concept's data
/// feature (the "artificial query navigating through 5 concepts" of §5.3).
pub fn chain_query(concepts: usize) -> Omq {
    let mut pi = Vec::with_capacity(concepts);
    let mut phi = Vec::new();
    for i in 1..=concepts {
        pi.push(data_feature(i));
        phi.push(has_feature(&concept(i), &data_feature(i)));
        if i > 1 {
            phi.push(Triple::new(concept(i - 1), edge(i - 1), concept(i)));
        }
    }
    Omq::new(pi, phi)
}

/// The URI of concept `i`'s ID feature.
pub fn chain_id_feature(i: usize) -> Iri {
    id_feature(i)
}

/// `W^C` — the §5.3 prediction for the number of generated walks.
pub fn predicted_walks(concepts: usize, wrappers_per_concept: usize) -> u64 {
    (wrappers_per_concept as u64).pow(concepts as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdi_core::system::AnswerRequest;

    #[test]
    fn walk_count_matches_w_to_the_c() {
        for (c, w) in [(1, 4), (2, 3), (3, 2), (3, 3), (5, 2)] {
            let system = build_chain_system(c, w, 2);
            let rewriting = system.rewrite(chain_query(c)).unwrap();
            assert_eq!(
                rewriting.walks.len() as u64,
                predicted_walks(c, w),
                "C={c} W={w}"
            );
        }
    }

    #[test]
    fn chain_queries_execute_end_to_end() {
        let system = build_chain_system(3, 2, 4);
        let answer = system.serve(AnswerRequest::omq(chain_query(3))).unwrap();
        assert_eq!(answer.relation.schema().names(), vec!["f1", "f2", "f3"]);
        // Each walk yields the 4 aligned rows; all walks agree on values so
        // the union collapses them.
        assert_eq!(answer.relation.len(), 4);
    }

    #[test]
    fn single_concept_single_wrapper_is_trivial() {
        let system = build_chain_system(1, 1, 3);
        let rewriting = system.rewrite(chain_query(1)).unwrap();
        assert_eq!(rewriting.walks.len(), 1);
        let answer = system.serve(AnswerRequest::omq(chain_query(1))).unwrap();
        assert_eq!(answer.relation.len(), 3);
    }
}
