//! End-to-end reproduction of the paper's running example: Table 1 wrapper
//! outputs, the Table 2 query answer, and the §2.1 evolution scenario.

use bdi::core::durable::DurableError;
use bdi::core::exec::{Engine, ExecOptions};
use bdi::core::release::ReleaseError;
use bdi::core::supersede;
use bdi::core::system::{AnswerRequest, SystemError, VersionScope};
use bdi::core::vocab;
use bdi::relational::{SourceResolver, Value};

#[test]
fn table1_wrapper_outputs() {
    let system = supersede::build_running_example();

    let w1 = system.registry().resolve("w1").unwrap();
    assert_eq!(w1.schema().names(), vec!["VoDmonitorId", "lagRatio"]);
    assert_eq!(
        w1.column("lagRatio").unwrap(),
        vec![Value::Float(0.75), Value::Float(0.9), Value::Float(0.1)]
    );

    let w2 = system.registry().resolve("w2").unwrap();
    assert_eq!(w2.len(), 2);
    assert_eq!(
        w2.value(1, "tweet"),
        Some(&Value::Str("Your video player is great!".into()))
    );

    let w3 = system.registry().resolve("w3").unwrap();
    assert_eq!(
        w3.schema().id_names(),
        vec!["TargetApp", "MonitorId", "FeedbackId"]
    );
    assert_eq!(w3.len(), 2);
}

#[test]
fn table2_exemplary_query() {
    let system = supersede::build_running_example();
    let answer = system
        .serve(AnswerRequest::sparql(supersede::exemplary_query()))
        .unwrap();

    assert_eq!(
        answer.relation.schema().names(),
        vec!["applicationId", "lagRatio"]
    );
    let mut rows: Vec<(i64, f64)> = answer
        .relation
        .rows()
        .iter()
        .map(|r| (r[0].as_i64().unwrap(), r[1].as_f64().unwrap()))
        .collect();
    rows.sort_by(|a, b| a.partial_cmp(b).unwrap());
    assert_eq!(rows, vec![(1, 0.75), (1, 0.9), (2, 0.1)]);
}

#[test]
fn rewriting_resolves_the_lav_mappings_to_w1_join_w3() {
    let system = supersede::build_running_example();
    let answer = system
        .serve(AnswerRequest::sparql(supersede::exemplary_query()))
        .unwrap();

    assert_eq!(answer.rewriting.walks.len(), 1);
    let walk = &answer.rewriting.walks[0];
    let wrappers: Vec<String> = walk
        .wrappers()
        .iter()
        .map(|w| vocab::wrapper_name_of(w).unwrap().to_owned())
        .collect();
    assert_eq!(wrappers, vec!["w1", "w3"]);
    // The join is on VoDmonitorId = MonitorId, exactly §2.1's expression.
    let join = &walk.joins()[0];
    let attrs = [
        join.left_attribute.as_str().to_owned(),
        join.right_attribute.as_str().to_owned(),
    ];
    assert!(attrs.iter().any(|a| a.ends_with("D1/VoDmonitorId")));
    assert!(attrs.iter().any(|a| a.ends_with("D3/MonitorId")));
}

#[test]
fn evolution_preserves_the_analysts_query() {
    let mut system = supersede::build_running_example();
    let query = supersede::exemplary_query();
    let before = system.serve(AnswerRequest::sparql(&query)).unwrap();

    supersede::evolve_with_w4(&mut system);

    // The *same* query string, untouched, now unions both versions — the
    // §2.1 requirement that analysts are shielded from schema evolution.
    let after = system.serve(AnswerRequest::sparql(&query)).unwrap();
    assert_eq!(after.rewriting.walks.len(), 2);
    assert_eq!(after.relation.len(), before.relation.len() + 2);

    // Historical rows (from w1's schema version) are still present.
    for row in before.relation.rows() {
        assert!(
            after.relation.rows().contains(row),
            "historical row {row:?} lost after evolution"
        );
    }
}

/// §2.2 answers an OMQ as the union of its walks under set semantics, so
/// a row's multiplicity does not depend on how many walks a scope admits:
/// projecting only `applicationId`, the lone walk w1 ⋈ w3 (whose join
/// yields application 1 twice) answers the same two rows as the two-walk
/// union after the VoD release, on both engines and under every scope.
#[test]
fn application_ids_are_a_set_whatever_the_walk_count() {
    let mut system = supersede::build_running_example();
    let mut omq = supersede::exemplary_omq();
    omq.pi = vec![supersede::features::application_id()];
    let ids = |system: &bdi::core::system::BdiSystem, scope: VersionScope, engine| {
        let options = ExecOptions {
            engine,
            ..ExecOptions::default()
        };
        let answer = system
            .serve(
                AnswerRequest::omq(omq.clone())
                    .scope(scope)
                    .options(options),
            )
            .unwrap();
        answer.relation.rows().to_vec()
    };
    let expected = vec![vec![Value::Int(1)], vec![Value::Int(2)]];
    for engine in [Engine::Streaming, Engine::Eager] {
        assert_eq!(ids(&system, VersionScope::All, engine), expected);
    }
    supersede::evolve_with_w4(&mut system);
    for engine in [Engine::Streaming, Engine::Eager] {
        for scope in [
            VersionScope::All,
            VersionScope::Latest,
            VersionScope::UpToRelease(2),
        ] {
            assert_eq!(
                ids(&system, scope.clone(), engine),
                expected,
                "{scope:?} under {engine:?}"
            );
        }
    }
}

#[test]
fn same_source_versions_are_never_joined() {
    let mut system = supersede::build_running_example();
    supersede::evolve_with_w4(&mut system);
    let answer = system
        .serve(AnswerRequest::sparql(supersede::exemplary_query()))
        .unwrap();
    for walk in &answer.rewriting.walks {
        let names: Vec<&str> = walk
            .wrappers()
            .iter()
            .map(|w| vocab::wrapper_name_of(w).unwrap())
            .collect();
        assert!(
            !(names.contains(&"w1") && names.contains(&"w4")),
            "w1 and w4 are versions of the same source D1: {names:?}"
        );
    }
}

#[test]
fn unrequested_ids_are_projected_out_of_the_final_answer() {
    let system = supersede::build_running_example();
    let answer = system
        .serve(AnswerRequest::sparql(supersede::exemplary_query()))
        .unwrap();
    // The rewriting added sup:monitorId internally, but the answer exposes
    // only π = {applicationId, lagRatio} (§5.2's final projection).
    assert_eq!(answer.relation.schema().len(), 2);
}

#[test]
fn mapping_graph_serializes_f_as_same_as() {
    let system = supersede::build_running_example();
    let attr = vocab::attribute_uri("D1", "lagRatio");
    let feature = system.ontology().feature_of_attribute(&attr).unwrap();
    assert_eq!(feature, supersede::features::lag_ratio());
}

#[test]
fn ontology_turtle_dumps_are_parseable() {
    let system = supersede::build_running_example();
    for graph in [
        vocab::graphs::global(),
        vocab::graphs::source(),
        vocab::graphs::mapping(),
    ] {
        let ttl = system.ontology().graph_turtle(&graph);
        let (triples, _) = bdi::rdf::turtle::parse_turtle(&ttl)
            .unwrap_or_else(|e| panic!("dump of {graph} must re-parse: {e}"));
        assert_eq!(triples.len(), system.ontology().store().graph_len(&graph));
    }
}

/// Algorithm 1 announces a *new* wrapper: a second release under a
/// registered name is refused before it writes anything, so the name keeps
/// meaning the wrapper that historical scopes read.
#[test]
fn a_release_reusing_a_wrapper_name_is_refused() {
    let mut system = supersede::build_running_example();
    supersede::evolve_with_w4(&mut system);
    let quads = system.ontology().store().len();
    let log = system.release_log().to_vec();
    let w4 = system.registry().get("w4").unwrap().clone();

    let again = supersede::release_w4(std::sync::Arc::new(bdi::wrappers::supersede::wrapper_w4(
        system.store().clone(),
    )));
    let refused = system.register_release(again);
    assert!(
        matches!(
            refused,
            Err(DurableError::System(SystemError::Release(ReleaseError::WrapperExists(ref name))))
                if name == "w4"
        ),
        "{refused:?}"
    );
    assert_eq!(system.ontology().store().len(), quads);
    assert_eq!(system.release_log(), log.as_slice());
    assert_eq!(system.registry().len(), 4);
    assert!(std::sync::Arc::ptr_eq(
        system.registry().get("w4").unwrap(),
        &w4
    ));
}
