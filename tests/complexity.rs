//! The §5.3 complexity claims, verified structurally:
//! * phase 2 output is one partial-walk list per concept, linear in W;
//! * phase 3 generates exactly `Π (#W)_Ci` walks in the worst case;
//! * all final walks are covering and minimal;
//! * per-phase behaviour on the running example matches the paper's traces.

use bdi::core::rewrite::{expand, intra, WalkChecks};
use bdi::core::supersede;
use bdi::core::wellformed;
use bdi_bench::synthetic;

#[test]
fn worst_case_walk_count_is_w_to_the_c() {
    for (c, w) in [(2, 5), (3, 4), (4, 3), (5, 2), (5, 3)] {
        let system = synthetic::build_chain_system(c, w, 0);
        let rewriting = system.rewrite(synthetic::chain_query(c)).unwrap();
        assert_eq!(
            rewriting.walks.len() as u64,
            synthetic::predicted_walks(c, w),
            "C={c}, W={w}"
        );
        // No candidate was wasted: generation already matches the bound.
        assert_eq!(
            rewriting.candidates as u64,
            synthetic::predicted_walks(c, w)
        );
    }
}

#[test]
fn all_final_walks_are_covering_and_minimal() {
    let system = synthetic::build_chain_system(4, 3, 0);
    let rewriting = system.rewrite(synthetic::chain_query(4)).unwrap();
    let phi = &rewriting.well_formed.omq.phi;
    let checks = WalkChecks::new(system.ontology(), phi, &rewriting.walks);
    for walk in &rewriting.walks {
        assert!(checks.covers(walk));
        assert!(checks.is_minimal(walk));
    }
}

#[test]
fn phase2_is_linear_in_wrappers_per_concept() {
    // The partial-walk list per concept has exactly W entries — no
    // combinations are formed inside a concept (§5.3's phase-2 argument).
    let system = synthetic::build_chain_system(3, 7, 0);
    let wf = wellformed::well_formed_query(system.ontology(), synthetic::chain_query(3)).unwrap();
    let expanded = expand::query_expansion(system.ontology(), &wf.omq).unwrap();
    let partial = intra::intra_concept_generation(
        system.ontology(),
        &expanded.concepts,
        &expanded.query,
        None,
    );
    assert_eq!(partial.len(), 3);
    for (concept, walks) in &partial {
        assert_eq!(walks.len(), 7, "concept {concept}");
        for walk in walks {
            assert_eq!(walk.wrappers().len(), 1, "partial walks are single-wrapper");
        }
    }
}

#[test]
fn running_example_phases_match_the_papers_trace() {
    let system = supersede::build_running_example();
    let omq = supersede::exemplary_omq();
    let wf = wellformed::well_formed_query(system.ontology(), omq).unwrap();
    let expanded = expand::query_expansion(system.ontology(), &wf.omq).unwrap();

    // Phase 1 trace: concepts = [SoftwareApplication, Monitor, InfoMonitor].
    let names: Vec<&str> = expanded.concepts.iter().map(|c| c.local_name()).collect();
    assert_eq!(names, vec!["SoftwareApplication", "Monitor", "InfoMonitor"]);

    // Phase 2 trace: 1, 2 and 1 partial walks respectively.
    let partial = intra::intra_concept_generation(
        system.ontology(),
        &expanded.concepts,
        &expanded.query,
        None,
    );
    let sizes: Vec<usize> = partial.iter().map(|(_, w)| w.len()).collect();
    assert_eq!(sizes, vec![1, 2, 1]);

    // Phase 3 + filter: a single non-equivalent walk {w1, w3}.
    let rewriting = system.rewrite(supersede::exemplary_omq()).unwrap();
    assert_eq!(rewriting.walks.len(), 1);
    // The paper's phase 3 generates 2 equivalent candidates before the
    // final projection collapses them.
    assert_eq!(rewriting.candidates, 2);
}

#[test]
fn rewriting_time_grows_superlinearly_in_w() {
    // A smoke check of the Figure 8 trend (not a benchmark): W=6 must
    // produce 6^3 / 2^3 = 27× more walks than W=2 for C=3.
    let small = synthetic::build_chain_system(3, 2, 0);
    let large = synthetic::build_chain_system(3, 6, 0);
    let walks_small = small
        .rewrite(synthetic::chain_query(3))
        .unwrap()
        .walks
        .len();
    let walks_large = large
        .rewrite(synthetic::chain_query(3))
        .unwrap()
        .walks
        .len();
    assert_eq!(walks_small, 8);
    assert_eq!(walks_large, 216);
}
