//! Loopback integration tests: a real server on 127.0.0.1, driven through
//! the crate's own blocking client — query and stats round-trips, the
//! deadline and row-limit knobs, and the error statuses.

// The crate's manifest denies these for the serving path; a test fails by
// panicking.
#![allow(clippy::expect_used, clippy::indexing_slicing)]

use bdi_core::supersede;
use bdi_server::http::client;
use serde_json::json;
use std::sync::Arc;

fn started() -> (bdi_server::ServerHandle, String) {
    let system = Arc::new(supersede::build_running_example());
    let handle = bdi_server::start(system, "127.0.0.1:0").expect("bind loopback");
    let addr = handle.addr().to_string();
    (handle, addr)
}

#[test]
fn sparql_query_round_trip() {
    let (_server, addr) = started();
    let body = json!({"sparql": (supersede::exemplary_query())});
    let (status, reply) = client::post_query(&addr, &body).expect("query");
    assert_eq!(status, 200, "body: {reply}");
    let columns = reply["columns"].as_array().expect("columns");
    assert!(!columns.is_empty());
    let rows = reply["rows"].as_array().expect("rows");
    assert!(!rows.is_empty());
    assert_eq!(reply["truncated"], json!(false));
    assert_eq!(
        reply["row_count"].as_u64().expect("row_count") as usize,
        rows.len()
    );
    assert!(!reply["walks"].as_array().expect("walks").is_empty());
}

#[test]
fn omq_json_body_answers_like_sparql() {
    let (_server, addr) = started();
    let (_, sparql_reply) =
        client::post_query(&addr, &json!({"sparql": (supersede::exemplary_query())}))
            .expect("sparql query");
    // The same exemplary query, spelled as an OMQ document.
    let omq = supersede::exemplary_omq();
    let pi: Vec<String> = omq.pi.iter().map(|iri| iri.as_str().to_owned()).collect();
    let phi: Vec<Vec<String>> = omq
        .phi
        .iter()
        .map(|t| {
            vec![
                t.subject.as_iri().expect("iri subject").as_str().to_owned(),
                t.predicate.as_str().to_owned(),
                t.object.as_iri().expect("iri object").as_str().to_owned(),
            ]
        })
        .collect();
    let (status, omq_reply) =
        client::post_query(&addr, &json!({"omq": {"pi": (pi), "phi": (phi)}})).expect("omq query");
    assert_eq!(status, 200, "body: {omq_reply}");
    assert_eq!(omq_reply["rows"], sparql_reply["rows"]);
}

#[test]
fn stats_scrape_reports_all_surfaces() {
    let (_server, addr) = started();
    client::post_query(&addr, &json!({"sparql": (supersede::exemplary_query())}))
        .expect("warm-up query");
    let (status, stats) = client::get_stats(&addr).expect("stats");
    assert_eq!(status, 200);
    assert!(stats["plan_cache"]["misses"].as_u64().expect("misses") >= 1);
    for surface in ["plan_cache", "contexts", "planner", "retries"] {
        assert!(stats[surface].is_object(), "missing {surface}: {stats}");
    }
}

/// The keep-alive pin: a response leaves in one write on a `TCP_NODELAY`
/// socket. Written as head then body it met Nagle's algorithm and the
/// client's delayed ACK, and every response after a connection's first
/// took ~44 ms however fast the server answered.
#[test]
fn keep_alive_responses_are_not_stalled() {
    use std::io::{Read, Write};
    use std::time::{Duration, Instant};

    let (_server, addr) = started();
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut round_trips = Vec::new();
    for _ in 0..25 {
        let started = Instant::now();
        stream
            .write_all(b"GET /stats HTTP/1.1\r\nHost: pin\r\n\r\n")
            .expect("request");
        let mut raw = Vec::new();
        let mut chunk = [0u8; 4096];
        let (head_end, length) = loop {
            let n = stream.read(&mut chunk).expect("response");
            assert!(n > 0, "server closed a keep-alive connection");
            raw.extend_from_slice(&chunk[..n]);
            if let Some(at) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = String::from_utf8_lossy(&raw[..at]).to_ascii_lowercase();
                assert!(head.starts_with("http/1.1 200"), "head: {head}");
                let length: usize = head
                    .lines()
                    .find_map(|line| line.strip_prefix("content-length:"))
                    .expect("Content-Length")
                    .trim()
                    .parse()
                    .expect("numeric Content-Length");
                break (at, length);
            }
        };
        while raw.len() < head_end + 4 + length {
            let n = stream.read(&mut chunk).expect("body");
            assert!(n > 0, "server closed mid-body");
            raw.extend_from_slice(&chunk[..n]);
        }
        round_trips.push(started.elapsed());
    }
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_millis(10),
        "keep-alive median round trip {median:?} (all: {round_trips:?})"
    );
}

#[test]
fn expired_deadline_maps_to_504() {
    let (_server, addr) = started();
    // A 0 ms budget is already expired when the first operator checks it.
    let body = json!({"sparql": (supersede::exemplary_query()), "deadline_ms": 0});
    let (status, reply) = client::post_query(&addr, &body).expect("query");
    assert_eq!(status, 504, "body: {reply}");
    assert!(reply["error"].as_str().is_some());
}

#[test]
fn row_limit_truncates_and_flags() {
    let (_server, addr) = started();
    let unlimited = client::post_query(&addr, &json!({"sparql": (supersede::exemplary_query())}))
        .expect("query")
        .1;
    let total = unlimited["rows"].as_array().expect("rows").len();
    assert!(total > 1, "running example should answer > 1 row");
    let body = json!({"sparql": (supersede::exemplary_query()), "max_rows": 1});
    let (status, reply) = client::post_query(&addr, &body).expect("query");
    assert_eq!(status, 200);
    assert_eq!(reply["rows"].as_array().expect("rows").len(), 1);
    assert_eq!(reply["truncated"], json!(true));
    // The kept row is the unlimited answer's first (contractual row order).
    assert_eq!(reply["rows"][0], unlimited["rows"][0]);
}

#[test]
fn malformed_bodies_are_400() {
    let (_server, addr) = started();
    for body in [
        "{",                                                              // not JSON
        "[1,2]",                                                          // not an object
        "{}",                                                             // no query
        r#"{"sparql": 7}"#,                                               // wrong type
        r#"{"sparql": "SELECT", "omq": {}}"#,                             // both query kinds
        r#"{"sparql": "not sparql at all"}"#,                             // unparsable query
        r#"{"sparql": "SELECT ?x WHERE { ?x ?y ?z . }", "surprise": 1}"#, // unknown field
    ] {
        let (status, _) =
            bdi_server::http::client::request(&addr, "POST", "/query", Some(body)).expect("post");
        assert_eq!(status, 400, "body: {body}");
    }
}

#[test]
fn unknown_routes_and_methods() {
    let (_server, addr) = started();
    let (status, _) = client::request(&addr, "GET", "/nope", None).expect("request");
    assert_eq!(status, 404);
    let (status, _) = client::request(&addr, "GET", "/query", None).expect("request");
    assert_eq!(status, 405);
    let (status, _) = client::request(&addr, "POST", "/stats", Some("{}")).expect("request");
    assert_eq!(status, 405);
}

#[test]
fn graceful_shutdown_stops_accepting() {
    let (server, addr) = started();
    client::get_stats(&addr).expect("stats while up");
    server.shutdown();
    // The listener is gone: either the connect fails or the request errors.
    assert!(client::get_stats(&addr).is_err());
}

#[test]
fn server_config_applies_defaults() {
    let system = Arc::new(supersede::build_running_example());
    let config = bdi_server::ServerConfig {
        default_deadline: None,
        max_rows_ceiling: Some(1),
    };
    let handle = bdi_server::start_with(system, "127.0.0.1:0", config).expect("bind");
    let addr = handle.addr().to_string();
    // No max_rows in the request: the server-side ceiling applies.
    let (status, reply) =
        client::post_query(&addr, &json!({"sparql": (supersede::exemplary_query())}))
            .expect("query");
    assert_eq!(status, 200);
    assert_eq!(reply["truncated"], json!(true));
    assert_eq!(reply["rows"].as_array().expect("rows").len(), 1);
    // A request asking for more than the ceiling is clamped down to it.
    let (_, reply) = client::post_query(
        &addr,
        &json!({"sparql": (supersede::exemplary_query()), "max_rows": 100}),
    )
    .expect("query");
    assert_eq!(reply["rows"].as_array().expect("rows").len(), 1);
}
