//! Property-based tests over the rewriting pipeline: for arbitrary chain
//! dimensions the §2.3 guarantees must hold — walk count `W^C`, coverage,
//! minimality, non-equivalence, and executable output.

use bdi::core::system::AnswerRequest;
use bdi_bench::synthetic;
use proptest::prelude::*;
use std::collections::BTreeSet;

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
        let mut seen = BTreeSet::new();
        for walk in &rewriting.walks {
            // §2.3 coverage and minimality.
            prop_assert!(walk.covers(system.ontology(), phi));
            prop_assert!(walk.is_minimal(system.ontology(), phi));
            // Exactly one wrapper per concept in the chain worst case.
            prop_assert_eq!(walk.wrappers().len(), concepts);
            // Non-equivalence: wrapper sets are pairwise distinct.
            prop_assert!(seen.insert(walk.wrapper_key()));
            // Same-source constraint.
            prop_assert!(!walk.violates_same_source(system.ontology()));
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
}
