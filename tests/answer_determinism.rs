//! An answer's bytes are a function of (state, request). `POST /query`
//! answers one 16-walk query — every walk producing the same rows, so the
//! union dedup decides which walk keeps each row — with the same bytes,
//! `plan_notes` included, however the walks' threads happen to finish:
//! repeated on a warm system, on fresh (cold) systems, and on a system whose
//! plans a row push has just left stale.

use bdi::relational::Value;
use bdi_bench::synthetic;
use bdi_server::{ops, ServerConfig};
use serde_json::json;
use std::collections::BTreeMap;

/// Serves per state.
const SERVES: usize = 200;

/// The `POST /query` body for `chain_query(2)`.
fn body() -> Vec<u8> {
    let omq = synthetic::chain_query(2);
    let iri = |term: &bdi::rdf::model::Term| {
        term.as_iri()
            .expect("chain queries are all IRIs")
            .as_str()
            .to_owned()
    };
    let pi: Vec<&str> = omq.pi.iter().map(|f| f.as_str()).collect();
    let phi: Vec<Vec<String>> = omq
        .phi
        .iter()
        .map(|t| {
            vec![
                iri(&t.subject.clone().into()),
                t.predicate.as_str().to_owned(),
                iri(&t.object),
            ]
        })
        .collect();
    json!({"omq": {"pi": (pi), "phi": (phi)}})
        .to_string()
        .into_bytes()
}

fn system() -> bdi::core::system::BdiSystem {
    synthetic::build_chain_system(2, 4, 2000)
}

/// Serves `body` on `system` and returns the response body, which must be a
/// 200.
fn serve(system: &bdi::core::system::BdiSystem, body: &[u8]) -> String {
    let (status, answer) = ops::query(system, &ServerConfig::default(), body);
    assert_eq!(status, 200, "{answer}");
    answer
}

/// The number of walks an answer body reports.
fn walks(answer: &str) -> usize {
    let value: serde_json::Value = serde_json::from_str(answer).unwrap();
    value["plan_notes"].as_array().unwrap().len()
}

/// Fails with every distinct body and how often it came back, unless all
/// were one.
fn assert_one_answer(state: &str, answers: Vec<String>) {
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for answer in answers {
        *counts.entry(answer).or_default() += 1;
    }
    if counts.len() > 1 {
        let notes: Vec<String> = counts
            .iter()
            .map(|(answer, n)| {
                let value: serde_json::Value = serde_json::from_str(answer).unwrap();
                let actuals: Vec<String> = value["plan_notes"]
                    .as_array()
                    .unwrap()
                    .iter()
                    .map(|note| note["actual_rows"].to_string())
                    .collect();
                format!("{n}× actual_rows [{}]", actuals.join(", "))
            })
            .collect();
        panic!(
            "{state}: {} different answers over {SERVES} serves: {}",
            counts.len(),
            notes.join("; ")
        );
    }
}

#[test]
fn warm_serves_answer_identical_bytes() {
    let system = system();
    let body = body();
    let first = serve(&system, &body);
    assert_eq!(walks(&first), 16);
    let value: serde_json::Value = serde_json::from_str(&first).unwrap();
    assert_eq!(value["row_count"], json!(2000));
    let hits = system.plan_cache_stats().hits;
    let answers = (0..SERVES).map(|_| serve(&system, &body)).collect();
    assert_eq!(system.plan_cache_stats().hits, hits + SERVES as u64);
    assert_one_answer("warm", answers);
}

#[test]
fn cold_serves_answer_identical_bytes() {
    let body = body();
    let answers = (0..SERVES)
        .map(|_| {
            let system = system();
            let answer = serve(&system, &body);
            assert_eq!(system.plan_cache_stats().misses, 1);
            answer
        })
        .collect();
    assert_one_answer("cold", answers);
}

#[test]
fn stale_serves_answer_identical_bytes() {
    // A spare terminal wrapper of the first concept: no walk of the
    // two-concept chain uses it, but a push to it moves the registry's stats
    // epoch, so every serve after one re-plans.
    let mut system = system();
    let spare = synthetic::register_extra_chain_wrapper_handle(&mut system, 1, 5, Vec::new());
    let body = body();
    assert_eq!(walks(&serve(&system, &body)), 16);
    let answers = (0..SERVES)
        .map(|i| {
            spare
                .push(vec![Value::Int(i as i64), Value::Float(0.5)])
                .expect("push matches schema");
            let misses = system.plan_cache_stats().misses;
            let answer = serve(&system, &body);
            assert_eq!(system.plan_cache_stats().misses, misses + 1, "not stale");
            answer
        })
        .collect();
    assert_one_answer("stale", answers);
}
