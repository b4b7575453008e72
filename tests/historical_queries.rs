//! Versioned / historical query answering: the scope machinery on top of
//! the union semantics (§1's "correctness in historical queries").

use bdi::core::exec::{self, Engine, ExecOptions};
use bdi::core::omq::Omq;
use bdi::core::release::Release;
use bdi::core::system::{AnswerRequest, BdiSystem, VersionScope};
use bdi::core::{supersede, vocab, Rewriting, Walk};
use bdi::rdf::model::{Iri, Triple};
use bdi::relational::{Schema, Tuple, Value};
use bdi::wrappers::TableWrapper;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

fn evolved() -> bdi::core::BdiSystem {
    let mut system = supersede::build_running_example();
    supersede::evolve_with_w4(&mut system);
    system
}

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

/// A scoped query's walks and sorted rows under the eager engine.
fn scoped(system: &BdiSystem, query: Omq, scope: VersionScope) -> (Vec<Vec<String>>, Vec<Tuple>) {
    let answer = system
        .serve(AnswerRequest::omq(query).scope(scope).options(eager()))
        .unwrap();
    let mut rows = answer.relation.into_rows();
    rows.sort();
    (walk_names(&answer.rewriting.walks), rows)
}

#[test]
fn scoped_rewriting_matches_the_post_filter_on_supersede() {
    let system = evolved();
    let unscoped = system.rewrite(supersede::exemplary_omq()).unwrap();
    let names = ["w1", "w2", "w3", "w4"];
    let mut scopes = vec![VersionScope::All, VersionScope::Latest];
    scopes.extend((0..names.len()).map(VersionScope::UpToRelease));
    scopes.extend((0..1 << names.len()).map(|mask: usize| {
        VersionScope::Only(
            (0..names.len())
                .filter(|k| mask >> k & 1 == 1)
                .map(|k| names[k].to_owned())
                .collect(),
        )
    }));
    for scope in scopes {
        // The reference: every wrapper's walks, then the scope's.
        let allowed = system.wrappers_in_scope(&scope);
        let mut reference = unscoped.clone();
        reference.walks.retain(|walk| {
            walk.wrappers()
                .iter()
                .all(|uri| allowed.contains(vocab::wrapper_name_of(uri).unwrap()))
        });
        let (walks, rows) = scoped(&system, supersede::exemplary_omq(), scope.clone());
        assert_eq!(walks, walk_names(&reference.walks), "scope {scope:?}");
        assert_eq!(rows, eager_rows(&system, reference), "scope {scope:?}");
    }
}

#[test]
fn up_to_release_two_is_the_unevolved_system() {
    let past = supersede::build_running_example();
    let then = past.rewrite(supersede::exemplary_omq()).unwrap();
    let answer = evolved()
        .serve(
            AnswerRequest::omq(supersede::exemplary_omq())
                .scope(VersionScope::UpToRelease(2))
                .options(eager()),
        )
        .unwrap();
    assert_eq!(answer.rewriting.candidates, then.candidates);
    assert_eq!(walk_names(&answer.rewriting.walks), walk_names(&then.walks));
    let mut rows = answer.relation.into_rows();
    rows.sort();
    assert_eq!(rows, eager_rows(&past, then));
}

fn iri(name: &str) -> Iri {
    Iri::new(format!("http://example.org/fallback/{name}"))
}

fn has_feature(concept: &str, feature: &str) -> Triple {
    Triple::new(iri(concept), (*vocab::g::HAS_FEATURE).clone(), iri(feature))
}

/// Two concepts `A → B`, each with an ID, and up to three releases:
/// * `wa` — `A`'s ID and data;
/// * `wb` — `B`'s ID and data, plus the edge and `A`'s ID as a foreign key;
/// * `wx` — a link table holding the edge and both IDs.
///
/// Algorithm 5 joins `wa ⋈ wb` on `A`'s ID only when the first strategy
/// (join on `B`'s ID through another edge provider) finds nothing; `wx`
/// makes it find a connector walk that minimality then drops.
fn fallback_deployment(with_wx: bool) -> BdiSystem {
    let mut system = BdiSystem::new();
    let ontology = system.ontology();
    for (concept, id, data) in [("A", "aId", "fa"), ("B", "bId", "fb")] {
        ontology.add_concept(&iri(concept));
        ontology.add_id_feature(&iri(id));
        ontology.add_feature(&iri(data));
        ontology.attach_feature(&iri(concept), &iri(id)).unwrap();
        ontology.attach_feature(&iri(concept), &iri(data)).unwrap();
    }
    ontology
        .add_object_property(&iri("p"), &iri("A"), &iri("B"))
        .unwrap();
    let int = Value::Int;

    let mut releases = vec![
        (
            TableWrapper::new(
                "wa",
                "DA",
                Schema::from_parts(&["aId"], &["fa"]).unwrap(),
                vec![vec![int(1), int(10)], vec![int(2), int(20)]],
            ),
            vec![has_feature("A", "aId"), has_feature("A", "fa")],
            vec![("aId", "aId"), ("fa", "fa")],
        ),
        (
            TableWrapper::new(
                "wb",
                "DB",
                Schema::from_parts(&["bId", "aRef"], &["fb"]).unwrap(),
                vec![vec![int(7), int(1), int(70)], vec![int(8), int(2), int(80)]],
            ),
            vec![
                has_feature("B", "bId"),
                has_feature("B", "fb"),
                edge_triple(),
                has_feature("A", "aId"),
            ],
            vec![("bId", "bId"), ("fb", "fb"), ("aRef", "aId")],
        ),
    ];
    if with_wx {
        releases.push((
            TableWrapper::new(
                "wx",
                "DX",
                Schema::from_parts::<&str>(&["a", "b"], &[]).unwrap(),
                vec![vec![int(1), int(8)]],
            ),
            vec![
                edge_triple(),
                has_feature("A", "aId"),
                has_feature("B", "bId"),
            ],
            vec![("a", "aId"), ("b", "bId")],
        ));
    }
    for (wrapper, lav, mappings) in releases {
        let mappings: BTreeMap<String, Iri> = mappings
            .into_iter()
            .map(|(attribute, feature)| (attribute.to_owned(), iri(feature)))
            .collect();
        system
            .register_release(Release::new(Arc::new(wrapper.unwrap()), lav, mappings))
            .unwrap();
    }
    system
}

fn fallback_query() -> Omq {
    Omq::new(
        vec![iri("fa"), iri("fb")],
        vec![
            has_feature("A", "fa"),
            edge_triple(),
            has_feature("B", "fb"),
        ],
    )
}

fn edge_triple() -> Triple {
    Triple::new(iri("A"), iri("p"), iri("B"))
}

#[test]
fn an_out_of_scope_edge_provider_does_not_preempt_the_fallback_join() {
    let system = fallback_deployment(true);
    let before_wx = fallback_deployment(false);
    let expected = scoped(&before_wx, fallback_query(), VersionScope::All);
    assert_eq!(expected.0, vec![vec!["wa".to_owned(), "wb".to_owned()]]);
    assert_eq!(
        expected.1,
        vec![
            vec![Value::Int(10), Value::Int(70)],
            vec![Value::Int(20), Value::Int(80)]
        ]
    );

    // Scopes that exclude `wx` answer as the system did before it landed;
    // rewriting over `wx` and then dropping its walks would leave none.
    let without_wx = [
        VersionScope::UpToRelease(1),
        VersionScope::Only(BTreeSet::from(["wa".to_owned(), "wb".to_owned()])),
    ];
    for scope in without_wx {
        assert_eq!(
            scoped(&system, fallback_query(), scope.clone()),
            expected,
            "{scope:?}"
        );
    }
    // A known defect, not a contract: with `wx` in scope the first
    // strategy's connector walk pre-empts the fallback join and minimality
    // then drops it, so the unscoped query loses every answer. A fix turns
    // this into `expected`'s walks.
    assert!(system.rewrite(fallback_query()).unwrap().walks.is_empty());
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
