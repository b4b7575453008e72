//! Evolution management end-to-end: simulator-driven releases flowing
//! through Algorithm 1 into a queryable system, and the §6.2 guarantees
//! (historical compatibility, attribute reuse, classification).

use bdi::core::omq::Omq;
use bdi::core::release::Release;
use bdi::core::system::{AnswerRequest, BdiSystem};
use bdi::core::vocab;
use bdi::evolution::taxonomy::{classify_delta, ParameterLevelChange};
use bdi::evolution::wordpress;
use bdi::rdf::model::{Iri, Triple};
use bdi::wrappers::api::{diff_versions, ApiSimulator, FieldKind, FieldSpec, VersionSchema};
use std::collections::BTreeMap;
use std::sync::Arc;

const NS: &str = "http://test.example/metrics/";

fn iri(s: &str) -> Iri {
    Iri::new(format!("{NS}{s}"))
}

fn has_feature(c: &Iri, f: &Iri) -> Triple {
    Triple::new(
        c.clone(),
        Iri::new(vocab::g::HAS_FEATURE.as_str()),
        f.clone(),
    )
}

/// Builds a system over a simulated metrics API with two versions:
/// v1(deviceId, cpu) and v2(deviceId, cpuLoad [renamed], mem [added]).
fn simulated_system() -> (BdiSystem, ApiSimulator) {
    let mut sim = ApiSimulator::new();
    sim.add_endpoint("metrics", "GET/samples");
    let v1 = VersionSchema::new(
        "v1",
        vec![
            FieldSpec::id("deviceId", FieldKind::Int { min: 1, max: 50 }),
            FieldSpec::data("cpu", FieldKind::Float { scale: 1 }),
        ],
    );
    let v2 = v1
        .evolve("v2")
        .rename("cpu", "cpuLoad")
        .unwrap()
        .add(FieldSpec::data("mem", FieldKind::Float { scale: 1 }))
        .unwrap()
        .build();
    sim.release("metrics", "GET/samples", v1).unwrap();
    sim.release("metrics", "GET/samples", v2).unwrap();
    sim.ingest("metrics", "GET/samples", "v1", 10, 1).unwrap();
    sim.ingest("metrics", "GET/samples", "v2", 7, 2).unwrap();

    let system = BdiSystem::new();
    let o = system.ontology();
    let device = iri("Device");
    let sample = iri("Sample");
    o.add_concept(&device);
    o.add_concept(&sample);
    let device_id = iri("deviceId");
    let cpu = iri("cpuUsage");
    let mem = iri("memUsage");
    o.add_id_feature(&device_id);
    o.attach_feature(&device, &device_id).unwrap();
    o.add_feature(&cpu);
    o.attach_feature(&sample, &cpu).unwrap();
    o.add_feature(&mem);
    o.attach_feature(&sample, &mem).unwrap();
    o.add_object_property(&iri("reports"), &device, &sample)
        .unwrap();

    (system, sim)
}

fn lav_v1() -> Vec<Triple> {
    vec![
        has_feature(&iri("Device"), &iri("deviceId")),
        Triple::new(iri("Device"), iri("reports"), iri("Sample")),
        has_feature(&iri("Sample"), &iri("cpuUsage")),
    ]
}

#[test]
fn simulator_releases_flow_through_algorithm1() {
    let (mut system, sim) = simulated_system();

    let w_v1 = sim
        .wrapper_for("metrics", "GET/samples", "v1", "m_v1")
        .unwrap();
    let stats1 = system
        .register_release(Release::new(
            Arc::new(w_v1),
            lav_v1(),
            BTreeMap::from([
                ("deviceId".to_owned(), iri("deviceId")),
                ("cpu".to_owned(), iri("cpuUsage")),
            ]),
        ))
        .unwrap();
    assert!(stats1.new_source);
    assert_eq!(stats1.attributes_created, 2);

    let w_v2 = sim
        .wrapper_for("metrics", "GET/samples", "v2", "m_v2")
        .unwrap();
    let stats2 = system
        .register_release(Release::new(
            Arc::new(w_v2),
            vec![
                has_feature(&iri("Device"), &iri("deviceId")),
                Triple::new(iri("Device"), iri("reports"), iri("Sample")),
                has_feature(&iri("Sample"), &iri("cpuUsage")),
                has_feature(&iri("Sample"), &iri("memUsage")),
            ],
            BTreeMap::from([
                ("deviceId".to_owned(), iri("deviceId")),
                ("cpuLoad".to_owned(), iri("cpuUsage")),
                ("mem".to_owned(), iri("memUsage")),
            ]),
        ))
        .unwrap();
    assert!(!stats2.new_source);
    assert_eq!(stats2.attributes_reused, 1); // deviceId
    assert_eq!(stats2.attributes_created, 2); // cpuLoad, mem

    // Query device → cpu: both versions answer, unioned.
    let q = Omq::new(
        vec![iri("deviceId"), iri("cpuUsage")],
        vec![
            has_feature(&iri("Device"), &iri("deviceId")),
            Triple::new(iri("Device"), iri("reports"), iri("Sample")),
            has_feature(&iri("Sample"), &iri("cpuUsage")),
        ],
    );
    let answer = system.serve(AnswerRequest::omq(q)).unwrap();
    assert_eq!(answer.rewriting.walks.len(), 2);
    // 10 v1 rows + 7 v2 rows, modulo duplicate collapses in the set union.
    assert!(answer.relation.len() > 10 && answer.relation.len() <= 17);

    // Querying mem reaches only v2's wrapper.
    let q_mem = Omq::new(
        vec![iri("deviceId"), iri("memUsage")],
        vec![
            has_feature(&iri("Device"), &iri("deviceId")),
            Triple::new(iri("Device"), iri("reports"), iri("Sample")),
            has_feature(&iri("Sample"), &iri("memUsage")),
        ],
    );
    let answer = system.serve(AnswerRequest::omq(q_mem)).unwrap();
    assert_eq!(answer.rewriting.walks.len(), 1);
    assert_eq!(answer.relation.len(), 7);
}

#[test]
fn deltas_classify_per_table5() {
    let (_, sim) = simulated_system();
    let endpoint = sim.endpoint("metrics", "GET/samples").unwrap();
    let deltas = diff_versions(
        endpoint.version("v1").unwrap(),
        endpoint.version("v2").unwrap(),
    );
    let kinds: Vec<ParameterLevelChange> = deltas.iter().map(classify_delta).collect();
    assert!(kinds.contains(&ParameterLevelChange::RenameResponseParameter));
    assert!(kinds.contains(&ParameterLevelChange::AddParameter));
    assert_eq!(kinds.len(), 2);
}

#[test]
fn wordpress_replay_matches_figure11_shape() {
    let records = wordpress::replay();
    assert_eq!(records.len(), 15);

    // v1 is the largest single batch (initial overhead).
    let v1_added = records[0].stats.source_triples_added;
    assert!(records[1..]
        .iter()
        .all(|r| r.stats.source_triples_added < v1_added));

    // v2 creates more attributes than any minor release (major rewrite).
    let v2_created = records[1].stats.attributes_created;
    assert!(records[2..]
        .iter()
        .all(|r| r.stats.attributes_created < v2_created));

    // Minor releases cluster tightly: linear growth.
    let minors: Vec<usize> = records[2..]
        .iter()
        .map(|r| r.stats.source_triples_added)
        .collect();
    let (min, max) = (minors.iter().min().unwrap(), minors.iter().max().unwrap());
    assert!(max - min <= 10, "minor spread too wide: {min}..{max}");

    // Cumulative |S| is the running sum plus the metamodel baseline.
    let metamodel = records[0].cumulative_source_triples - records[0].stats.source_triples_added;
    let mut expected = metamodel;
    for r in &records {
        expected += r.stats.source_triples_added;
        assert_eq!(r.cumulative_source_triples, expected);
    }
}

#[test]
fn deleted_attributes_remain_for_historical_queries() {
    // Wordpress 2.9 deletes block_version (added in 2.8); the attribute and
    // its wrapper links must remain in S — §6.2: "no elements should be
    // removed from T".
    let (_, system) = wordpress::replay_with_system();
    let attr = vocab::attribute_uri("wordpress/GET_posts", "block_version");
    let feature = system.ontology().feature_of_attribute(&attr);
    assert!(feature.is_some(), "deleted attribute must keep its mapping");
    let wrapper_28 = vocab::wrapper_uri("wp_posts_v2.8");
    assert!(system
        .ontology()
        .attributes_of_wrapper(&wrapper_28)
        .contains(&attr));
}
