//! The SUPERSEDE running example assembled end-to-end (§2.1, Figures 2–6).
//!
//! Builds the Global graph of Figure 3 (concepts, features, taxonomy,
//! datatypes), registers the releases of wrappers `w1`–`w3` (Figures 4–5)
//! over the Table 1 sample data, and provides the evolution step that
//! registers `w4` (Figure 6) after the VoD API renames `lagRatio` to
//! `bufferingRatio`.

use crate::omq::Omq;
use crate::ontology::BdiOntology;
use crate::release::Release;
use crate::system::BdiSystem;
use crate::vocab;
use bdi_rdf::model::{Iri, Triple};
use bdi_rdf::vocab::xsd;
use bdi_wrappers::supersede as data;
use bdi_wrappers::Wrapper;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The SUPERSEDE domain namespace (`sup:`).
pub(crate) const SUP_NS: &str = "http://www.essi.upc.edu/~snadal/SUPERSEDE/";
/// schema.org namespace, reused for `sc:SoftwareApplication` (§3.1 follows
/// the Linked Data philosophy of reusing existing vocabularies).
pub(crate) const SC_NS: &str = "http://schema.org/";

/// `sup:<name>`.
pub fn sup(name: &str) -> Iri {
    Iri::new(format!("{SUP_NS}{name}"))
}

/// `sc:<name>`.
pub(crate) fn sc(name: &str) -> Iri {
    Iri::new(format!("{SC_NS}{name}"))
}

/// The concept IRIs of the running example.
pub mod concepts {
    use super::*;
    pub fn software_application() -> Iri {
        sc("SoftwareApplication")
    }
    pub fn monitor() -> Iri {
        sup("Monitor")
    }
    pub fn feedback_gathering() -> Iri {
        sup("FeedbackGathering")
    }
    pub fn info_monitor() -> Iri {
        sup("InfoMonitor")
    }
    pub fn user_feedback() -> Iri {
        sup("UserFeedback")
    }
}

/// The feature IRIs of the running example.
pub mod features {
    use super::*;
    pub fn application_id() -> Iri {
        sup("applicationId")
    }
    pub fn monitor_id() -> Iri {
        sup("monitorId")
    }
    pub fn feedback_gathering_id() -> Iri {
        sup("feedbackGatheringId")
    }
    pub fn lag_ratio() -> Iri {
        sup("lagRatio")
    }
    pub fn description() -> Iri {
        sup("description")
    }
    /// The intermediate taxonomy node of Figure 3: `sup:toolId` — the UML
    /// `toolId` attribute, kept as a semantic domain above the per-concept
    /// IDs (`monitorId ⊑ toolId ⊑ sc:identifier`).
    pub(crate) fn tool_id() -> Iri {
        sup("toolId")
    }
}

/// Builds the Global graph of Figure 3.
pub fn build_ontology() -> BdiOntology {
    let mut ontology = BdiOntology::new();
    ontology.prefixes_mut().insert("sup", SUP_NS);

    let app = concepts::software_application();
    let monitor = concepts::monitor();
    let fg = concepts::feedback_gathering();
    let info = concepts::info_monitor();
    let uf = concepts::user_feedback();
    for c in [&app, &monitor, &fg, &info, &uf] {
        ontology.add_concept(c);
    }

    // Features. Note (Fig. 3): the UML `toolId` is made distinguishable as
    // sup:monitorId / sup:feedbackGatheringId because a feature may belong
    // to only one concept.
    let app_id = features::application_id();
    let mon_id = features::monitor_id();
    let fg_id = features::feedback_gathering_id();
    let lag = features::lag_ratio();
    let desc = features::description();
    ontology.add_id_feature(&app_id);
    ontology.add_feature(&lag);
    ontology.add_feature(&desc);
    // Figure 3's feature taxonomy: the UML toolId is explicited into
    // monitorId / feedbackGatheringId, both subsumed by sup:toolId which is
    // itself an sc:identifier — ID detection works through the chain (RDFS
    // entailment, §2).
    let tool_id = features::tool_id();
    ontology.add_feature_subclass(&tool_id, &bdi_rdf::vocab::sc::IDENTIFIER);
    for f in [&mon_id, &fg_id] {
        ontology.add_feature(f);
        ontology.add_feature_subclass(f, &tool_id);
    }

    ontology
        .attach_feature(&app, &app_id)
        .expect("static model");
    ontology
        .attach_feature(&monitor, &mon_id)
        .expect("static model");
    ontology.attach_feature(&fg, &fg_id).expect("static model");
    ontology.attach_feature(&info, &lag).expect("static model");
    ontology.attach_feature(&uf, &desc).expect("static model");

    // Object properties (the UML associations of Figure 2).
    ontology
        .add_object_property(&sup("hasMonitor"), &app, &monitor)
        .expect("static model");
    ontology
        .add_object_property(&sup("hasFGTool"), &app, &fg)
        .expect("static model");
    ontology
        .add_object_property(&sup("generatesQoS"), &monitor, &info)
        .expect("static model");
    ontology
        .add_object_property(&sup("generatesUF"), &fg, &uf)
        .expect("static model");

    // Datatypes (§3.1).
    ontology
        .set_feature_datatype(&app_id, &xsd::INTEGER)
        .expect("static model");
    ontology
        .set_feature_datatype(&mon_id, &xsd::INTEGER)
        .expect("static model");
    ontology
        .set_feature_datatype(&fg_id, &xsd::INTEGER)
        .expect("static model");
    ontology
        .set_feature_datatype(&lag, &xsd::DOUBLE)
        .expect("static model");
    ontology
        .set_feature_datatype(&desc, &xsd::STRING)
        .expect("static model");

    ontology
}

fn has_feature(c: &Iri, f: &Iri) -> Triple {
    Triple::new(c.clone(), (*vocab::g::HAS_FEATURE).clone(), f.clone())
}

/// The release for `w1` (the Code 2 wrapper over the VoD API).
pub fn release_w1(wrapper: Arc<dyn Wrapper>) -> Release {
    Release::new(
        wrapper,
        vec![
            has_feature(&concepts::monitor(), &features::monitor_id()),
            Triple::new(
                concepts::monitor(),
                sup("generatesQoS"),
                concepts::info_monitor(),
            ),
            has_feature(&concepts::info_monitor(), &features::lag_ratio()),
        ],
        BTreeMap::from([
            ("VoDmonitorId".to_owned(), features::monitor_id()),
            ("lagRatio".to_owned(), features::lag_ratio()),
        ]),
    )
}

/// The release for `w2` (feedback gathering / tweets).
pub fn release_w2(wrapper: Arc<dyn Wrapper>) -> Release {
    Release::new(
        wrapper,
        vec![
            has_feature(
                &concepts::feedback_gathering(),
                &features::feedback_gathering_id(),
            ),
            Triple::new(
                concepts::feedback_gathering(),
                sup("generatesUF"),
                concepts::user_feedback(),
            ),
            has_feature(&concepts::user_feedback(), &features::description()),
        ],
        BTreeMap::from([
            ("FGId".to_owned(), features::feedback_gathering_id()),
            ("tweet".to_owned(), features::description()),
        ]),
    )
}

/// The release for `w3` (the relationship API).
pub fn release_w3(wrapper: Arc<dyn Wrapper>) -> Release {
    Release::new(
        wrapper,
        vec![
            has_feature(
                &concepts::software_application(),
                &features::application_id(),
            ),
            Triple::new(
                concepts::software_application(),
                sup("hasMonitor"),
                concepts::monitor(),
            ),
            Triple::new(
                concepts::software_application(),
                sup("hasFGTool"),
                concepts::feedback_gathering(),
            ),
            has_feature(&concepts::monitor(), &features::monitor_id()),
            has_feature(
                &concepts::feedback_gathering(),
                &features::feedback_gathering_id(),
            ),
        ],
        BTreeMap::from([
            ("TargetApp".to_owned(), features::application_id()),
            ("MonitorId".to_owned(), features::monitor_id()),
            ("FeedbackId".to_owned(), features::feedback_gathering_id()),
        ]),
    )
}

/// The release for `w4` — §4.1's example: same LAV subgraph as `w1`, with
/// `F = {VoDmonitorId ↦ monitorId, bufferingRatio ↦ lagRatio}`.
pub fn release_w4(wrapper: Arc<dyn Wrapper>) -> Release {
    Release::new(
        wrapper,
        vec![
            has_feature(&concepts::monitor(), &features::monitor_id()),
            Triple::new(
                concepts::monitor(),
                sup("generatesQoS"),
                concepts::info_monitor(),
            ),
            has_feature(&concepts::info_monitor(), &features::lag_ratio()),
        ],
        BTreeMap::from([
            ("VoDmonitorId".to_owned(), features::monitor_id()),
            ("bufferingRatio".to_owned(), features::lag_ratio()),
        ]),
    )
}

/// Builds the complete running example: ontology + Table 1 data + releases
/// of `w1`, `w2`, `w3`.
pub fn build_running_example() -> BdiSystem {
    let store = data::sample_docstore();
    let mut system =
        BdiSystem::from_parts(build_ontology(), Default::default()).with_store(store.clone());
    system
        .register_release(release_w1(Arc::new(data::wrapper_w1(store.clone()))))
        .expect("static release");
    system
        .register_release(release_w2(Arc::new(data::wrapper_w2(store.clone()))))
        .expect("static release");
    system
        .register_release(release_w3(Arc::new(data::wrapper_w3(store.clone()))))
        .expect("static release");
    system
}

/// Applies the §2.1 evolution: the VoD API releases version 2 (lagRatio →
/// bufferingRatio); the steward ingests its documents and registers `w4`.
pub fn evolve_with_w4(system: &mut BdiSystem) -> crate::release::ReleaseStats {
    data::ingest_vod_v2(system.store());
    let w4 = data::wrapper_w4(system.store().clone());
    system
        .register_release(release_w4(Arc::new(w4)))
        .expect("static release")
}

/// The exemplary SPARQL OMQ of Code 8: for each applicationId, all lagRatio
/// instances.
pub fn exemplary_query() -> String {
    format!(
        "SELECT ?x ?y \
         FROM <{}> \
         WHERE {{ \
            VALUES (?x ?y) {{ (<{app_id}> <{lag}>) }} \
            <{app}> <{has_feature}> <{app_id}> . \
            <{app}> <{has_monitor}> <{monitor}> . \
            <{monitor}> <{gen_qos}> <{info}> . \
            <{info}> <{has_feature}> <{lag}> \
         }}",
        vocab::graphs::GLOBAL.as_str(),
        app = concepts::software_application().as_str(),
        monitor = concepts::monitor().as_str(),
        info = concepts::info_monitor().as_str(),
        app_id = features::application_id().as_str(),
        lag = features::lag_ratio().as_str(),
        has_feature = vocab::g::HAS_FEATURE.as_str(),
        has_monitor = sup("hasMonitor").as_str(),
        gen_qos = sup("generatesQoS").as_str(),
    )
}

/// The exemplary query as a programmatic OMQ (Figure 7's pattern).
pub fn exemplary_omq() -> Omq {
    Omq::new(
        vec![features::application_id(), features::lag_ratio()],
        vec![
            has_feature(
                &concepts::software_application(),
                &features::application_id(),
            ),
            Triple::new(
                concepts::software_application(),
                sup("hasMonitor"),
                concepts::monitor(),
            ),
            Triple::new(
                concepts::monitor(),
                sup("generatesQoS"),
                concepts::info_monitor(),
            ),
            has_feature(&concepts::info_monitor(), &features::lag_ratio()),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::AnswerRequest;
    use bdi_relational::Value;

    #[test]
    fn ontology_matches_figure3_shape() {
        let o = build_ontology();
        assert_eq!(o.concepts().len(), 5);
        assert!(o.is_id_feature(&features::monitor_id()));
        assert!(!o.is_id_feature(&features::lag_ratio()));
        assert_eq!(
            o.concept_of(&features::lag_ratio()),
            Some(concepts::info_monitor())
        );
    }

    #[test]
    fn running_example_registers_three_wrappers() {
        let system = build_running_example();
        assert_eq!(system.registry().len(), 3);
        assert!(system.ontology().is_wrapper(&vocab::wrapper_uri("w1")));
        assert!(system.ontology().is_wrapper(&vocab::wrapper_uri("w3")));
    }

    #[test]
    fn exemplary_query_reproduces_table2() {
        let system = build_running_example();
        let answer = system
            .serve(AnswerRequest::sparql(exemplary_query()))
            .unwrap();
        // Table 2: (1, 0.75), (1, 0.90), (2, 0.1).
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
        // One non-equivalent walk: {w1, w3}.
        assert_eq!(answer.rewriting.walks.len(), 1);
    }

    #[test]
    fn programmatic_and_sparql_queries_agree() {
        let system = build_running_example();
        let a = system
            .serve(AnswerRequest::sparql(exemplary_query()))
            .unwrap();
        let b = system.serve(AnswerRequest::omq(exemplary_omq())).unwrap();
        assert_eq!(a.relation, b.relation);
    }

    #[test]
    fn evolution_unions_both_schema_versions() {
        let mut system = build_running_example();
        let stats = evolve_with_w4(&mut system);
        assert!(!stats.new_source);
        assert_eq!(stats.attributes_reused, 1);

        let answer = system
            .serve(AnswerRequest::sparql(exemplary_query()))
            .unwrap();
        // Two walks now: {w1, w3} and {w4, w3}.
        assert_eq!(answer.rewriting.walks.len(), 2);
        // Union of Table 2 with the v2 documents (0.42 and 0.05).
        let mut ratios: Vec<f64> = answer
            .relation
            .column("lagRatio")
            .unwrap()
            .iter()
            .map(|v| v.as_f64().unwrap())
            .collect();
        ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(ratios, vec![0.05, 0.1, 0.42, 0.75, 0.9]);
    }

    #[test]
    fn walk_expression_matches_paper_notation() {
        let system = build_running_example();
        let answer = system
            .serve(AnswerRequest::sparql(exemplary_query()))
            .unwrap();
        let expr = &answer.walk_exprs[0];
        assert!(expr.contains("⋈̃"), "expected a join in {expr}");
        assert!(expr.contains("D1/VoDmonitorId") && expr.contains("D3/MonitorId"));
    }

    #[test]
    fn feedback_query_goes_through_w2() {
        let system = build_running_example();
        let q = Omq::new(
            vec![features::feedback_gathering_id(), features::description()],
            vec![
                has_feature(
                    &concepts::feedback_gathering(),
                    &features::feedback_gathering_id(),
                ),
                Triple::new(
                    concepts::feedback_gathering(),
                    sup("generatesUF"),
                    concepts::user_feedback(),
                ),
                has_feature(&concepts::user_feedback(), &features::description()),
            ],
        );
        let answer = system.serve(AnswerRequest::omq(q)).unwrap();
        assert_eq!(answer.relation.len(), 2);
        let row = (0..answer.relation.len())
            .find(|&i| answer.relation.value(i, "feedbackGatheringId") == Some(&Value::Int(77)))
            .expect("feedback gathering 77 is answered");
        assert_eq!(
            answer.relation.value(row, "description"),
            Some(&Value::Str("I continuously see the loading symbol".into()))
        );
    }
}
