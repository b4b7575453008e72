//! The steward-assist stack end-to-end: consistency checking, datatype
//! integrity, mapping suggestion and LAV-subgraph suggestion working
//! together to process a release semi-automatically (§4.1).

use bdi::core::durable::Write;
use bdi::core::release::Release;
use bdi::core::supersede::{self, features};
use bdi::core::system::AnswerRequest;
use bdi::core::{align, subgraph, typing, validate};
use bdi::rdf::trig;
use bdi::relational::Schema;
use bdi::wrappers::supersede as data;
use std::collections::BTreeMap;
use std::sync::Arc;

#[test]
fn a_release_can_be_assembled_almost_automatically() {
    // Scenario: the VoD API publishes v2 with `bufferingRatio`. The steward
    // only confirms suggestions; every artefact of R = ⟨w, G, F⟩ is derived.
    let mut system = supersede::build_running_example();
    data::ingest_vod_v2(system.store());
    let wrapper = data::wrapper_w4(system.store().clone());

    // 1. F is suggested from attribute names + ID flags.
    let candidates = vec![
        features::monitor_id(),
        features::lag_ratio(),
        features::application_id(),
        features::description(),
        features::feedback_gathering_id(),
    ];
    let schema = Schema::from_parts(&["VoDmonitorId"], &["bufferingRatio"]).unwrap();
    let suggested =
        align::suggest_mappings(system.ontology(), &schema, &candidates, &[None, None], 1);
    let mappings: BTreeMap<String, _> = suggested
        .into_iter()
        .map(|mut per_attr| {
            let best = per_attr.remove(0);
            (best.attribute, best.feature)
        })
        .collect();
    assert_eq!(mappings["VoDmonitorId"], features::monitor_id());
    assert_eq!(mappings["bufferingRatio"], features::lag_ratio());

    // 2. The LAV subgraph is suggested from the mapped features.
    let lav = subgraph::suggest_lav_graph(
        system.ontology(),
        &mappings.values().cloned().collect::<Vec<_>>(),
    )
    .unwrap();

    // 3. Register the assembled release; the ontology stays consistent and
    //    the analyst query unions both versions.
    system
        .register_release(Release::new(Arc::new(wrapper), lav, mappings))
        .unwrap();
    assert!(validate::check_ontology(system.ontology()).is_empty());
    let answer = system
        .serve(AnswerRequest::sparql(supersede::exemplary_query()))
        .unwrap();
    assert_eq!(answer.rewriting.walks.len(), 2);
    assert_eq!(answer.relation.len(), 5);
}

#[test]
fn typing_catches_unannounced_format_changes() {
    let system = supersede::build_running_example();
    // The provider silently starts sending waitTime as a string: the Code 2
    // pipeline propagates nulls/strings and typing flags the drift.
    system
        .apply(Write::InsertDoc(
            data::VOD_COLLECTION.into(),
            serde_json::json!({"monitorId": 30, "waitTime": "3s", "watchTime": 4}),
        ))
        .unwrap();
    // $divide on a string errors inside the wrapper's pipeline — the even
    // earlier signal: the scan fails loudly rather than delivering garbage,
    // and validate_all surfaces that failure.
    let result = typing::validate_all(system.ontology(), system.registry());
    assert!(
        matches!(result, Err(typing::TypingError::Wrapper(_))),
        "expected the wrapper scan to fail on the malformed document: {result:?}"
    );

    // A *silent* drift (numeric field arrives as a numeric string that the
    // wrapper passes through) is the typing validator's case: simulate the
    // post-scan relation directly.
    let bad = bdi::relational::Relation::new(
        Schema::from_parts(&["VoDmonitorId"], &["lagRatio"]).unwrap(),
        vec![vec![
            bdi::relational::Value::Int(30),
            bdi::relational::Value::Str("0.9".into()),
        ]],
    )
    .unwrap();
    let violations = typing::validate_relation(system.ontology(), "w1", "D1", &bad);
    assert_eq!(violations.len(), 1);
    assert_eq!(violations[0].attribute, "lagRatio");
}

#[test]
fn full_ontology_trig_round_trip() {
    let mut system = supersede::build_running_example();
    supersede::evolve_with_w4(&mut system);
    let doc = trig::write_trig(
        &system.ontology().store().quads(),
        system.ontology().prefixes(),
    );

    let reloaded = bdi::rdf::QuadStore::new();
    trig::load_trig(&reloaded, &doc).unwrap();
    assert_eq!(reloaded.len(), system.ontology().store().len());

    // Named graphs survive: the LAV graph of w4 is intact.
    let w4 = bdi::rdf::GraphName::Named(bdi::core::vocab::wrapper_uri("w4"));
    assert_eq!(
        reloaded.graph_len(&w4),
        system.ontology().store().graph_len(&w4)
    );
}

#[test]
fn consistency_checker_is_quiet_on_all_builtin_deployments() {
    let mut system = supersede::build_running_example();
    assert!(validate::check_ontology(system.ontology()).is_empty());
    supersede::evolve_with_w4(&mut system);
    assert!(validate::check_ontology(system.ontology()).is_empty());
    let (_, wp) = bdi::evolution::wordpress::replay_with_system();
    assert!(validate::check_ontology(wp.ontology()).is_empty());
}
