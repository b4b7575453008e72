//! Property-based tests over the rewriting pipeline: for arbitrary chain
//! dimensions the §2.3 guarantees must hold — walk count `W^C`, coverage,
//! minimality, non-equivalence, and executable output — and a version scope
//! must rewrite over exactly the wrappers it admits.

use bdi::core::exec::{self, Engine, ExecOptions};
use bdi::core::rewrite::WalkChecks;
use bdi::core::system::{AnswerRequest, BdiSystem, VersionScope};
use bdi::core::{vocab, Rewriting, Walk};
use bdi::relational::Tuple;
use bdi_bench::synthetic;
use proptest::prelude::*;
use std::collections::BTreeSet;

fn eager() -> ExecOptions {
    ExecOptions {
        engine: Engine::Eager,
        ..ExecOptions::default()
    }
}

/// Each walk as its wrapper names, in walk order.
fn walk_names(walks: &[Walk]) -> Vec<Vec<String>> {
    walks
        .iter()
        .map(|walk| {
            walk.wrappers()
                .iter()
                .map(|uri| vocab::wrapper_name_of(uri).unwrap().to_owned())
                .collect()
        })
        .collect()
}

/// A rewriting's answer under the eager engine, rows sorted.
fn eager_rows(system: &BdiSystem, rewriting: Rewriting) -> Vec<Tuple> {
    let compiled =
        exec::compile_query(system.ontology(), system.registry(), rewriting, &eager()).unwrap();
    let answer =
        exec::execute_compiled(system.ontology(), system.registry(), &compiled, None).unwrap();
    let mut rows = answer.relation.into_rows();
    rows.sort();
    rows
}

/// The reference a scoped rewriting must reproduce: the rewriting over
/// every wrapper, keeping the walks whose wrappers are all in scope.
fn post_filtered(system: &BdiSystem, unscoped: &Rewriting, scope: &VersionScope) -> Rewriting {
    let allowed = system.wrappers_in_scope(scope);
    let mut rewriting = unscoped.clone();
    rewriting.walks.retain(|walk| {
        walk.wrappers()
            .iter()
            .all(|uri| vocab::wrapper_name_of(uri).is_some_and(|name| allowed.contains(name)))
    });
    rewriting
}

proptest! {
    // Rewriting whole systems is comparatively heavy; keep the case count
    // moderate and the dimensions small enough to stay fast.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn chain_rewriting_guarantees(concepts in 1usize..5, wrappers in 1usize..5) {
        let system = synthetic::build_chain_system(concepts, wrappers, 0);
        let rewriting = system.rewrite(synthetic::chain_query(concepts)).unwrap();

        // §5.3: the worst case generates exactly W^C walks.
        prop_assert_eq!(
            rewriting.walks.len() as u64,
            synthetic::predicted_walks(concepts, wrappers)
        );

        let phi = &rewriting.well_formed.omq.phi;
        let checks = WalkChecks::new(system.ontology(), phi, &rewriting.walks);
        let mut seen = BTreeSet::new();
        for walk in &rewriting.walks {
            // §2.3 coverage and minimality.
            prop_assert!(checks.covers(walk));
            prop_assert!(checks.is_minimal(walk));
            // Exactly one wrapper per concept in the chain worst case.
            prop_assert_eq!(walk.wrappers().len(), concepts);
            // Non-equivalence: wrapper sets are pairwise distinct.
            prop_assert!(seen.insert(walk.wrapper_key()));
            // Same-source constraint.
            prop_assert!(!checks.violates_same_source(walk));
        }
    }

    #[test]
    fn chain_execution_unions_consistently(
        concepts in 1usize..4,
        wrappers in 1usize..4,
        rows in 0usize..6,
    ) {
        let system = synthetic::build_chain_system(concepts, wrappers, rows);
        let answer = system.serve(AnswerRequest::omq(synthetic::chain_query(concepts))).unwrap();

        // Every wrapper serves identical synthetic data, so regardless of
        // how many walks the union has, the distinct result is `rows`.
        prop_assert_eq!(answer.relation.to_distinct().len(), rows);

        // The answer projects exactly the requested features, in order.
        let names: Vec<String> = (1..=concepts).map(|i| format!("f{i}")).collect();
        let got: Vec<String> = answer
            .relation
            .schema()
            .names()
            .into_iter()
            .map(str::to_owned)
            .collect();
        prop_assert_eq!(got, names);
    }

    #[test]
    fn rewriting_is_deterministic(concepts in 1usize..4, wrappers in 1usize..4) {
        let system = synthetic::build_chain_system(concepts, wrappers, 0);
        let a = system.rewrite(synthetic::chain_query(concepts)).unwrap();
        let b = system.rewrite(synthetic::chain_query(concepts)).unwrap();
        let keys_a: Vec<_> = a.walks.iter().map(|w| w.wrapper_key()).collect();
        let keys_b: Vec<_> = b.walks.iter().map(|w| w.wrapper_key()).collect();
        prop_assert_eq!(keys_a, keys_b);
    }

    #[test]
    fn scoped_rewriting_matches_the_post_filter(
        concepts in 1usize..5,
        wrappers in 1usize..5,
        only_mask in 0u32..(1 << 16),
        rows in 0usize..4,
    ) {
        let system = synthetic::build_chain_system(concepts, wrappers, rows);
        let query = synthetic::chain_query(concepts);
        let names: Vec<String> = system.release_log().iter().map(|e| e.wrapper.clone()).collect();
        let only: BTreeSet<String> = names
            .iter()
            .enumerate()
            .filter(|(k, _)| only_mask >> k & 1 == 1)
            .map(|(_, name)| name.clone())
            .collect();
        let unscoped = system.rewrite(query.clone()).unwrap();
        let mut scopes = vec![VersionScope::All, VersionScope::Latest, VersionScope::Only(only)];
        scopes.extend((0..names.len()).map(VersionScope::UpToRelease));
        for scope in scopes {
            let answer = system
                .serve(AnswerRequest::omq(query.clone()).scope(scope.clone()).options(eager()))
                .unwrap();
            let reference = post_filtered(&system, &unscoped, &scope);
            let walks = walk_names(&answer.rewriting.walks);
            prop_assert!(
                walks == walk_names(&reference.walks),
                "scope {:?}: walks {:?}, post-filter {:?}",
                &scope,
                &walks,
                walk_names(&reference.walks)
            );
            let mut served = answer.relation.into_rows();
            served.sort();
            prop_assert!(served == eager_rows(&system, reference), "scope {:?}: rows differ", &scope);
        }
    }

    #[test]
    fn up_to_release_is_the_system_as_it_stood(
        concepts in 1usize..5,
        wrappers in 1usize..5,
        rows in 0usize..4,
    ) {
        let system = synthetic::build_chain_system(concepts, wrappers, rows);
        let query = synthetic::chain_query(concepts);
        for n in 0..concepts * wrappers {
            let answer = system
                .serve(
                    AnswerRequest::omq(query.clone())
                        .scope(VersionScope::UpToRelease(n))
                        .options(eager()),
                )
                .unwrap();
            let past = synthetic::build_chain_prefix(concepts, wrappers, rows, n + 1);
            let then = past.rewrite(query.clone()).unwrap();
            prop_assert_eq!(answer.rewriting.candidates, then.candidates);
            prop_assert_eq!(walk_names(&answer.rewriting.walks), walk_names(&then.walks));
            let mut served = answer.relation.into_rows();
            served.sort();
            prop_assert_eq!(served, eager_rows(&past, then));
        }
    }
}
