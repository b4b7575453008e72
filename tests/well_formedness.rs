//! Algorithm 2 and the OMQ template, end-to-end: the Code 9 → Code 10
//! repair, rejection cases, and SPARQL-template enforcement.

use bdi::core::omq::{Omq, OmqError};
use bdi::core::supersede::{self, concepts, features};
use bdi::core::system::AnswerRequest;
use bdi::core::vocab;
use bdi::core::wellformed::{well_formed_query, WellFormedError};
use bdi::rdf::model::Triple;

fn has_feature(c: &bdi::rdf::Iri, f: &bdi::rdf::Iri) -> Triple {
    Triple::new(
        c.clone(),
        bdi::rdf::Iri::new(vocab::g::HAS_FEATURE.as_str()),
        f.clone(),
    )
}

/// The non-well-formed query of Code 9: projects three *concepts*.
fn code9() -> Omq {
    Omq::new(
        vec![
            concepts::software_application(),
            concepts::monitor(),
            concepts::feedback_gathering(),
        ],
        vec![
            Triple::new(
                concepts::software_application(),
                supersede::sup("hasMonitor"),
                concepts::monitor(),
            ),
            Triple::new(
                concepts::software_application(),
                supersede::sup("hasFGTool"),
                concepts::feedback_gathering(),
            ),
        ],
    )
}

#[test]
fn code9_is_repaired_into_code10_and_answers() {
    let system = supersede::build_running_example();
    let wf = well_formed_query(system.ontology(), code9()).unwrap();

    // π now projects the ID features (Code 10).
    assert_eq!(
        wf.omq.pi,
        vec![
            features::application_id(),
            features::monitor_id(),
            features::feedback_gathering_id()
        ]
    );
    // φ gained the three hasFeature triples.
    assert!(wf
        .omq
        .phi
        .contains(&has_feature(&concepts::monitor(), &features::monitor_id())));
    assert_eq!(wf.replacements.len(), 3);

    // And the repaired query actually executes: w3 provides all three IDs.
    let answer = system.serve(AnswerRequest::omq(code9())).unwrap();
    assert_eq!(
        answer.relation.schema().names(),
        vec!["applicationId", "monitorId", "feedbackGatheringId"]
    );
    assert_eq!(answer.relation.len(), 2); // the two apps of Table 1
}

#[test]
fn cyclic_queries_are_rejected() {
    let system = supersede::build_running_example();
    let cyclic = Omq::new(
        vec![features::application_id()],
        vec![
            Triple::new(
                concepts::software_application(),
                supersede::sup("hasMonitor"),
                concepts::monitor(),
            ),
            Triple::new(
                concepts::monitor(),
                supersede::sup("loops"),
                concepts::software_application(),
            ),
            has_feature(
                &concepts::software_application(),
                &features::application_id(),
            ),
        ],
    );
    assert!(matches!(
        system.serve(AnswerRequest::omq(cyclic)),
        Err(bdi::core::SystemError::Rewrite(
            bdi::core::RewriteError::WellFormed(WellFormedError::Cyclic)
        ))
    ));
}

#[test]
fn projecting_a_concept_without_id_is_rejected() {
    let system = supersede::build_running_example();
    // InfoMonitor has only lagRatio (not an ID).
    let q = Omq::new(
        vec![concepts::info_monitor()],
        vec![has_feature(
            &concepts::info_monitor(),
            &features::lag_ratio(),
        )],
    );
    assert!(matches!(
        system.serve(AnswerRequest::omq(q)),
        Err(bdi::core::SystemError::Rewrite(
            bdi::core::RewriteError::WellFormed(WellFormedError::ConceptWithoutId(_))
        ))
    ));
}

#[test]
fn sparql_template_requires_values_clause() {
    let system = supersede::build_running_example();
    let q = "SELECT ?x WHERE { <http://a/A> <http://a/p> <http://a/B> . }";
    assert!(matches!(
        system.serve(AnswerRequest::sparql(q)),
        Err(bdi::core::SystemError::Omq(OmqError::MissingValues))
    ));
}

#[test]
fn sparql_template_rejects_variables_in_patterns() {
    let system = supersede::build_running_example();
    let q = "SELECT ?x WHERE { VALUES (?x) { (<http://a/f>) } ?c <http://a/p> <http://a/f> . }";
    assert!(matches!(
        system.serve(AnswerRequest::sparql(q)),
        Err(bdi::core::SystemError::Omq(OmqError::VariableInPattern(_)))
    ));
}

#[test]
fn sparql_template_rejects_disconnected_patterns() {
    let system = supersede::build_running_example();
    let q = format!(
        "SELECT ?x ?y WHERE {{ \
            VALUES (?x ?y) {{ (<{}> <{}>) }} \
            <{}> <{}> <{}> . \
            <{}> <{}> <{}> \
         }}",
        features::application_id().as_str(),
        features::lag_ratio().as_str(),
        concepts::software_application().as_str(),
        vocab::g::HAS_FEATURE.as_str(),
        features::application_id().as_str(),
        concepts::info_monitor().as_str(),
        vocab::g::HAS_FEATURE.as_str(),
        features::lag_ratio().as_str(),
    );
    assert!(matches!(
        system.serve(AnswerRequest::sparql(&q)),
        Err(bdi::core::SystemError::Omq(OmqError::Disconnected(2)))
    ));
}

#[test]
fn already_well_formed_queries_are_untouched() {
    let system = supersede::build_running_example();
    let omq = supersede::exemplary_omq();
    let wf = well_formed_query(system.ontology(), omq.clone()).unwrap();
    assert_eq!(wf.omq, omq);
    assert!(wf.replacements.is_empty());
}
