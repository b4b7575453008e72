//! Versioned / historical query answering: the scope machinery on top of
//! the union semantics (§1's "correctness in historical queries").

use bdi::core::supersede;
use bdi::core::system::{AnswerRequest, VersionScope};
use std::collections::BTreeSet;

fn evolved() -> bdi::core::BdiSystem {
    let (mut system, store) = supersede::build_running_example_with_store();
    supersede::evolve_with_w4(&mut system, &store);
    system
}

#[test]
fn all_scope_unions_every_version() {
    let system = evolved();
    let answer = system
        .serve(AnswerRequest::omq(supersede::exemplary_omq()).scope(VersionScope::All))
        .unwrap();
    assert_eq!(answer.rewriting.walks.len(), 2);
    assert_eq!(answer.relation.len(), 5);
}

#[test]
fn latest_scope_uses_only_the_newest_version_per_source() {
    let system = evolved();
    let answer = system
        .serve(AnswerRequest::omq(supersede::exemplary_omq()).scope(VersionScope::Latest))
        .unwrap();
    // D1's latest is w4; w1 is excluded → only the two v2 rows remain.
    assert_eq!(answer.rewriting.walks.len(), 1);
    assert_eq!(answer.relation.len(), 2);
    let ratios: BTreeSet<String> = answer
        .relation
        .column("lagRatio")
        .unwrap()
        .iter()
        .map(|v| v.to_string())
        .collect();
    assert_eq!(
        ratios,
        BTreeSet::from(["0.42".to_owned(), "0.05".to_owned()])
    );
}

#[test]
fn up_to_release_reconstructs_the_past() {
    let system = evolved();
    // Releases: #0 w1, #1 w2, #2 w3, #3 w4. As of release #2, w4 did not
    // exist — the historical answer is exactly the pre-evolution Table 2.
    let answer = system
        .serve(AnswerRequest::omq(supersede::exemplary_omq()).scope(VersionScope::UpToRelease(2)))
        .unwrap();
    assert_eq!(answer.rewriting.walks.len(), 1);
    assert_eq!(answer.relation.len(), 3);

    // As of release #0 only w1 exists: the query needs w3 too → no walk.
    let answer = system
        .serve(AnswerRequest::omq(supersede::exemplary_omq()).scope(VersionScope::UpToRelease(0)))
        .unwrap();
    assert!(answer.rewriting.walks.is_empty());
    assert!(answer.relation.is_empty());
    // The empty answer still carries the right schema.
    assert_eq!(
        answer.relation.schema().names(),
        vec!["applicationId", "lagRatio"]
    );
}

#[test]
fn explicit_allow_list_scope() {
    let system = evolved();
    let only_w4 = VersionScope::Only(BTreeSet::from(["w3".to_owned(), "w4".to_owned()]));
    let answer = system
        .serve(AnswerRequest::omq(supersede::exemplary_omq()).scope(only_w4.clone()))
        .unwrap();
    assert_eq!(answer.rewriting.walks.len(), 1);
    assert_eq!(answer.relation.len(), 2);
}

#[test]
fn release_log_records_registration_order() {
    let system = evolved();
    let log = system.release_log();
    assert_eq!(log.len(), 4);
    assert_eq!(log[0].wrapper, "w1");
    assert_eq!(log[3].wrapper, "w4");
    assert_eq!(log[3].source, "D1");
    assert!(log.windows(2).all(|w| w[0].seq + 1 == w[1].seq));
}

#[test]
fn scopes_compose_with_the_wordpress_replay() {
    // Point-in-time over a 15-release history: as of release n, exactly
    // n+1 wrappers are in scope.
    let (_, system) = bdi::evolution::wordpress::replay_with_system();
    for n in [0usize, 5, 14] {
        let in_scope = system.wrappers_in_scope(&VersionScope::UpToRelease(n));
        assert_eq!(in_scope.len(), n + 1);
    }
    let latest = system.wrappers_in_scope(&VersionScope::Latest);
    assert_eq!(latest.len(), 1); // one source → one latest wrapper
    assert!(latest.contains("wp_posts_v2.13"));
}
