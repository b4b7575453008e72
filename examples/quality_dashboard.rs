//! A quality-of-experience dashboard over the SUPERSEDE deployment —
//! the situational-analytics scenario the paper's introduction motivates:
//! combine VoD monitoring metrics with end-user feedback per application,
//! across evolving schema versions.
//!
//! Demonstrates, in one realistic flow:
//! * the Algorithm 2 repair (projecting concepts the Code 9 way),
//! * a query through the feedback branch (w2 ⋈ w3),
//! * version scopes: all / latest / point-in-time answers after evolution.
//!
//! ```text
//! cargo run --example quality_dashboard
//! ```

use bdi::core::omq::Omq;
use bdi::core::supersede::{self, concepts, features};
use bdi::core::system::{AnswerRequest, VersionScope};
use bdi::core::vocab;
use bdi::rdf::model::Triple;

fn has_feature(c: &bdi::rdf::Iri, f: &bdi::rdf::Iri) -> Triple {
    Triple::new(
        c.clone(),
        bdi::rdf::Iri::new(vocab::g::HAS_FEATURE.as_str()),
        f.clone(),
    )
}

fn main() {
    let mut system = supersede::build_running_example();

    // --- Panel 1: which monitors and feedback tools serve each app? -----
    // The analyst drags three *concepts* onto the canvas (the paper's Code
    // 9); Algorithm 2 silently repairs the query to project their IDs.
    let inventory = Omq::new(
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
    );
    let answer = system
        .serve(AnswerRequest::omq(inventory))
        .expect("inventory answers");
    println!("Panel 1 — tool inventory (Code 9 repaired by Algorithm 2):");
    println!("{}\n", answer.relation);

    // --- Panel 2: raw user feedback per application. --------------------
    let feedback = Omq::new(
        vec![features::application_id(), features::description()],
        vec![
            has_feature(
                &concepts::software_application(),
                &features::application_id(),
            ),
            Triple::new(
                concepts::software_application(),
                supersede::sup("hasFGTool"),
                concepts::feedback_gathering(),
            ),
            Triple::new(
                concepts::feedback_gathering(),
                supersede::sup("generatesUF"),
                concepts::user_feedback(),
            ),
            has_feature(&concepts::user_feedback(), &features::description()),
        ],
    );
    let answer = system
        .serve(AnswerRequest::omq(feedback.clone()))
        .expect("feedback answers");
    println!(
        "Panel 2 — user feedback per app (walk: {}):",
        answer.walk_exprs[0]
    );
    println!("{}\n", answer.relation);

    // --- The VoD API evolves mid-flight. ---------------------------------
    supersede::evolve_with_w4(&mut system);
    println!("(VoD API released v2: lagRatio → bufferingRatio; w4 registered)\n");

    // --- Panel 3: QoS per app, across scopes. ----------------------------
    let qos = supersede::exemplary_omq();
    for (label, scope) in [
        ("all versions (historical + current)", VersionScope::All),
        ("latest version per source", VersionScope::Latest),
        (
            "as of release #2 (before v2 existed)",
            VersionScope::UpToRelease(2),
        ),
    ] {
        let answer = system
            .serve(AnswerRequest::omq(qos.clone()).scope(scope))
            .expect("qos answers");
        println!(
            "Panel 3 — lag ratio per app, {label}: {} walk(s), {} row(s)",
            answer.rewriting.walks.len(),
            answer.relation.len()
        );
        println!("{}\n", answer.relation);
    }

    println!("The dashboard code never mentioned w1/w4 or any physical schema —");
    println!("evolution is absorbed entirely by the ontology (the paper's thesis).");
}
