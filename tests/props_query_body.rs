//! The `POST /query` body mapping (`bdi_server::ops::query`) answers every
//! body with 200, 400, 500 or 504 and never panics. Bodies are token soup
//! over the request's keys, well- and ill-typed values, and JSON
//! punctuation; half are objects that open with a query member, so they
//! reach the mapping's later checks and, past them, the query.

use bdi::core::supersede;
use bdi::rdf::model::Term;
use bdi_server::{ops, ServerConfig};
use proptest::prelude::*;
use std::sync::OnceLock;
use std::time::Duration;

/// Every key a body may carry: the request's own, the nested ones, and one
/// nobody knows.
const KEYS: &[&str] = &[
    "sparql",
    "omq",
    "scope",
    "deadline_ms",
    "max_rows",
    "on_source_failure",
    "pi",
    "phi",
    "up_to_release",
    "only",
    "unknown",
];

/// The keys that may follow a query member.
const OPTION_KEYS: &[&str] = &["scope", "deadline_ms", "max_rows", "on_source_failure"];

/// Values of every JSON type, some right for some key and most wrong.
fn values() -> Vec<String> {
    let lag = supersede::features::lag_ratio();
    let lag = lag.as_str();
    let app = supersede::features::application_id();
    let app = app.as_str();
    vec![
        "null".to_owned(),
        "true".to_owned(),
        "0".to_owned(),
        "-1".to_owned(),
        "1.5".to_owned(),
        "1e400".to_owned(),
        "9223372036854775807".to_owned(),
        "18446744073709551616".to_owned(),
        "\"\"".to_owned(),
        "\"all\"".to_owned(),
        "\"latest\"".to_owned(),
        "\"degrade\"".to_owned(),
        "\"fail\"".to_owned(),
        "\"SELECT ?x WHERE { }\"".to_owned(),
        "\"<http://e/not an IRI>\"".to_owned(),
        format!("\"{lag}\""),
        "[]".to_owned(),
        "[[]]".to_owned(),
        "[\"w1\", \"w3\"]".to_owned(),
        format!("[[\"{lag}\", \"{lag}\", \"{lag}\"]]"),
        "{}".to_owned(),
        "{\"up_to_release\": 2}".to_owned(),
        "{\"up_to_release\": -3}".to_owned(),
        "{\"only\": [\"w1\", 7]}".to_owned(),
        "{\"only\": [\"w1\", \"w3\"]}".to_owned(),
        format!("{{\"pi\": [\"{app}\"], \"phi\": []}}"),
        format!("{{\"pi\": [\"{lag}\"], \"phi\": [[\"{app}\", \"{lag}\"]]}}"),
    ]
}

/// The running example's query as a `"sparql"` member and as an `"omq"`
/// member.
fn good_queries() -> Vec<String> {
    let quoted = |s: &str| format!("\"{s}\"");
    let term = |t: &Term| quoted(t.as_iri().map_or("", |iri| iri.as_str()));
    let omq = supersede::exemplary_omq();
    let pi: Vec<String> = omq.pi.iter().map(|iri| quoted(iri.as_str())).collect();
    let phi: Vec<String> = omq
        .phi
        .iter()
        .map(|t| {
            let predicate = quoted(t.predicate.as_str());
            format!(
                "[{}, {predicate}, {}]",
                term(&t.subject.clone().into()),
                term(&t.object)
            )
        })
        .collect();
    vec![
        format!(
            "\"sparql\": {}",
            serde_json::Value::from(supersede::exemplary_query())
        ),
        format!(
            "\"omq\": {{\"pi\": [{}], \"phi\": [{}]}}",
            pi.join(", "),
            phi.join(", ")
        ),
    ]
}

fn arb_value() -> impl Strategy<Value = String> {
    let values = values();
    (0..values.len()).prop_map(move |i| values[i].clone())
}

fn arb_member(keys: &'static [&'static str]) -> impl Strategy<Value = String> {
    ((0..keys.len()), arb_value()).prop_map(move |(k, v)| format!("\"{}\": {v}", keys[k]))
}

fn arb_query_member() -> impl Strategy<Value = String> {
    let good = good_queries();
    prop_oneof![
        (0..good.len()).prop_map(move |i| good[i].clone()),
        arb_member(&KEYS[..2]),
    ]
}

fn arb_body() -> impl Strategy<Value = String> {
    let object = (
        arb_query_member(),
        prop::collection::vec(arb_member(OPTION_KEYS), 0..4),
        prop::option::of(arb_member(KEYS)),
    )
        .prop_map(|(query, options, stray)| {
            let members: Vec<String> = std::iter::once(query).chain(options).chain(stray).collect();
            format!("{{{}}}", members.join(", "))
        });
    let piece = prop_oneof![arb_member(KEYS), arb_value(), "[{}\\[\\]:,\"]{1,2}"];
    prop_oneof![
        object,
        prop::collection::vec(piece, 0..8).prop_map(|pieces| pieces.concat()),
    ]
}

fn system() -> &'static bdi::core::BdiSystem {
    static SYSTEM: OnceLock<bdi::core::BdiSystem> = OnceLock::new();
    SYSTEM.get_or_init(supersede::build_running_example)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn query_bodies_never_panic(body in arb_body(), with_defaults in any::<bool>()) {
        let config = if with_defaults {
            ServerConfig {
                default_deadline: Some(Duration::from_secs(5)),
                max_rows_ceiling: Some(2),
            }
        } else {
            ServerConfig::default()
        };
        let (status, response) = ops::query(system(), &config, body.as_bytes());
        prop_assert!(
            matches!(status, 200 | 400 | 500 | 504),
            "status {} for {:?}: {}",
            status,
            &body,
            &response
        );
        prop_assert!(serde_json::from_str::<serde_json::Value>(&response).is_ok());
    }
}

#[test]
fn an_omq_term_that_is_no_iri_is_a_400() {
    for term in ["", "<http://e/x>", "http://e/a b"] {
        let body = serde_json::json!({"omq": {"pi": [term], "phi": []}}).to_string();
        let (status, _) = ops::query(system(), &ServerConfig::default(), body.as_bytes());
        assert_eq!(status, 400, "pi term {term:?}");
        let body = serde_json::json!({"omq": {"pi": [], "phi": [[term, term, term]]}}).to_string();
        let (status, _) = ops::query(system(), &ServerConfig::default(), body.as_bytes());
        assert_eq!(status, 400, "phi term {term:?}");
    }
}
